"""Counting machinery and the approximate Gauss-Lucas verdict.

Given a rational function f, a convex region, an eps and a target k, this
module counts zeros and critical points in (neighborhoods of) the region and
decides whether at least k - 1 critical points lie in the closed
eps-neighborhood.  It also generates seeded random instances for property
sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import HypothesisUnmet
from .rational import CLUSTER_TOL, ROOT_TOL, RationalFunction, _reduced, \
    critical_points
from .regions import (MEMBERSHIP_TOL, ConvexRegion, _check_eps, centroid,
                      distances, sample_point)


@dataclass(frozen=True)
class AGLReport:
    """Outcome of one verdict: counts, the verdict itself, and the least eps
    that would make it hold (the (k-1)-th smallest critical distance)."""

    n: int
    k_requested: int
    zeros_in_region: int
    critical_in_neighborhood: int
    holds: bool
    required_epsilon: float
    critical_points: tuple[complex, ...]
    critical_distances: tuple[float, ...]


def count_in(points, region: ConvexRegion, eps: float,
             membership_tol: float = MEMBERSHIP_TOL) -> int:
    """Number of points (with multiplicity) within the closed
    eps-neighborhood of the region."""
    _check_eps(eps)
    pts = tuple(points)
    if not pts:
        return 0
    d = distances(np.asarray(pts, dtype=np.complex128), region)
    return int(np.count_nonzero(d <= eps + membership_tol))


def agl_report(f: RationalFunction, region: ConvexRegion, eps: float, k: int,
               membership_tol: float = MEMBERSHIP_TOL,
               root_tol: float = ROOT_TOL) -> AGLReport:
    """Count critical points of f near the region and decide the property.

    f is read in lowest form: a zero within CLUSTER_TOL of a pole cancels
    against it.  Requires at least k zeros of f in the region.
    required_epsilon is the (k-1)-th smallest critical-point distance (0 when
    k <= 1, inf when f has fewer than k - 1 critical points), so holds flips
    exactly there.  A negative or nan eps raises ValueError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    _check_eps(eps)
    f = _reduced(f, CLUSTER_TOL)
    zeros_in = count_in(f.zeros, region, 0.0, membership_tol)
    if zeros_in < k:
        raise HypothesisUnmet(
            f"only {zeros_in} zeros in the region, need at least {k}")
    crit = critical_points(f, root_tol)
    if crit.points:
        dist = distances(np.asarray(crit.points, dtype=np.complex128), region)
    else:
        dist = np.zeros(0)
    crit_in = int(np.count_nonzero(dist <= eps + membership_tol))
    if k <= 1:
        required = 0.0
    elif len(dist) >= k - 1:
        required = float(np.sort(dist)[k - 2])
    else:
        required = math.inf
    return AGLReport(
        n=f.total_count,
        k_requested=k,
        zeros_in_region=zeros_in,
        critical_in_neighborhood=crit_in,
        holds=crit_in >= k - 1,
        required_epsilon=required,
        critical_points=tuple(crit.points),
        critical_distances=tuple(dist.tolist()),
    )


def random_instance(n: int, k: int, region: ConvexRegion, pole_fraction: float,
                    spread: float,
                    seed: int | np.random.Generator) -> RationalFunction:
    """Seeded random instance: k zeros uniform in the region, the remaining
    n - k points uniform in a disk of radius spread around the centroid,
    each independently a pole with probability pole_fraction.  A Generator
    as seed is drawn from and advanced in place."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if not 0.0 <= pole_fraction <= 1.0:
        raise ValueError("pole_fraction must lie in [0, 1]")
    if spread <= 0:
        raise ValueError("spread must be positive")
    rng = np.random.default_rng(seed)
    zeros = [sample_point(region, rng) for _ in range(k)]
    poles: list[complex] = []
    anchor = centroid(region)
    for _ in range(n - k):
        r = spread * math.sqrt(rng.random())
        th = 2.0 * math.pi * rng.random()
        z = anchor + r * complex(math.cos(th), math.sin(th))
        if rng.random() < pole_fraction:
            poles.append(z)
        else:
            zeros.append(z)
    return RationalFunction(tuple(zeros), tuple(poles), 1.0)
