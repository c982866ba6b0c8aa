"""Contour-based certification of critical-point counts.

This is an independent route to lower bounds on the number of critical
points near a convex region: factor f into the polynomial of its zeros
inside the region times the remainder, surround the region with a
constant-offset contour that avoids small exclusion balls around the
remainder's zeros and poles, check that the inside factor's logarithmic
derivative dominates the remainder's on the contour (the Rouche hypothesis),
and then count via the argument principle.  The critical-point root finder
is never consulted; the winding integrand is evaluated purely from the known
zero and pole locations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ContourBoundaryConflict, ContourNotFound, HypothesisUnmet,
                     MarginNonPositive, MultiplicityViolation,
                     NonIntegerWinding, SampleAtSingularity)
from .rational import CLUSTER_TOL, RationalFunction, _crowded, _reduced, \
    log_derivative_field
# distance is unused here but stays a module global: perfbench wraps it by name
from .regions import (CONTOUR_TOL, MEMBERSHIP_TOL, ConvexRegion,  # noqa: F401
                      OffsetContour, distance, distances, offset_contour)

MARGIN_FLOOR = 1e-8      # below this, dominance is numerically uncertain
MAX_WINDING_SAMPLES = 2 ** 18
_WINDING_TOL = 0.1       # max distance of the raw integral to an integer
# find_contour's order over its nine evenly spaced offsets: nearest the
# midline first, equidistant pairs toward the smaller offset
_MIDLINE_FIRST = (4, 3, 5, 2, 6, 1, 7, 0, 8)


@dataclass(frozen=True)
class ExclusionBall:
    center: complex
    radius: float


@dataclass(frozen=True)
class ExclusionSet:
    """Closed balls around the remainder's zeros and poles; the contour must
    clear every ball by at least one extra radius."""

    balls: tuple[ExclusionBall, ...]

    def clears(self, samples: np.ndarray) -> bool:
        centers = np.array([b.center for b in self.balls], dtype=complex)
        reach = np.array([2.0 * b.radius for b in self.balls])
        # |z - c| - 2r < 0 exactly when |z - c| < 2r
        return float(np.min(np.abs(samples - centers[:, None]) - reach[:, None],
                            initial=math.inf)) >= 0.0


@dataclass(frozen=True)
class RoucheCertificate:
    """A verified lower bound on the critical points of ``function`` inside
    the eps-neighborhood of the contour's region."""

    contour: OffsetContour
    margin: float
    winding: int
    zeros_poles_inside: int
    critical_lower_bound: int
    valid: bool
    eps: float
    k: int
    function: RationalFunction


def split_instance(f: RationalFunction, region: ConvexRegion,
                   membership_tol: float = MEMBERSHIP_TOL
                   ) -> tuple[RationalFunction, RationalFunction]:
    """Factor f into (inside, remainder): inside is the monic polynomial of
    the zeros of f lying in the region, remainder carries everything else."""
    member = distances(f.zeros, region) <= membership_tol
    inside = tuple(z for z, m in zip(f.zeros, member) if m)
    outside = tuple(z for z, m in zip(f.zeros, member) if not m)
    return (RationalFunction(inside, (), 1.0),
            RationalFunction(outside, f.poles, f.scale))


def perturb_to_simple(f: RationalFunction, delta: float = 1e-7,
                      seed: int = 0) -> RationalFunction:
    """Displace coincident zeros/poles by independent offsets of magnitude at
    most delta so all points become pairwise distinct.  Already-simple input
    is returned unchanged; the result is deterministic for a fixed seed.
    Raises MultiplicityViolation when 100 draws leave two points within
    CLUSTER_TOL."""
    pts = np.asarray(f.zeros + f.poles, dtype=np.complex128)
    crowded = _crowded(pts, CLUSTER_TOL)
    if not crowded.any():
        return f
    rng = np.random.default_rng(seed)
    for _ in range(100):
        # a uniform draw from the delta-disk for each crowded point, in index
        # order: radius, then angle
        u = rng.random((int(crowded.sum()), 2))
        th = 2.0 * math.pi * u[:, 1]
        moved = pts.copy()
        moved[crowded] += (delta * np.sqrt(u[:, 0])
                           * (np.cos(th) + 1j * np.sin(th)))
        if not _crowded(moved, CLUSTER_TOL).any():
            nz = len(f.zeros)
            return RationalFunction(tuple(moved[:nz].tolist()),
                                    tuple(moved[nz:].tolist()), f.scale)
    raise MultiplicityViolation(
        "could not separate coincident points; raise delta")


def exclusion_set(remainder: RationalFunction, eps: float,
                  n_minus_k: int) -> ExclusionSet:
    """One ball of radius eps/(8(n-k)) per zero and pole of the remainder.

    A constant remainder yields the empty set.  With at most n - k points,
    any tangent chain of balls spans at most eps/4.
    """
    if remainder.is_constant:
        return ExclusionSet(())
    if n_minus_k < 1:
        raise ValueError("n_minus_k must be at least 1 for a nonconstant remainder")
    if eps <= 0:
        raise ValueError("eps must be positive")
    radius = eps / (8.0 * n_minus_k)
    balls = tuple(ExclusionBall(w, radius)
                  for w in remainder.zeros + remainder.poles)
    return ExclusionSet(balls)


def find_contour(region: ConvexRegion, eps: float, excl: ExclusionSet,
                 min_samples: int = 512) -> OffsetContour:
    """Pick a constant offset in (eps/2, eps) whose sampled contour clears
    every exclusion ball by at least one ball radius.

    Nine candidate offsets are tried, nearest the midline 3*eps/4 first.
    Raises ContourNotFound when all fail; that only means this one-parameter
    family is exhausted, not that no admissible path exists.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    clearance = eps / 20.0
    candidates = np.linspace(eps / 2.0 + clearance, eps - clearance,
                             9).tolist()
    for i in _MIDLINE_FIRST:
        contour = offset_contour(region, candidates[i], min_samples)
        if excl.clears(contour.samples):
            return contour
    raise ContourNotFound(
        "no constant-offset contour clears the exclusion balls")


def _field(f: RationalFunction, samples: np.ndarray):
    """f'/f and its slope on the samples; raises SampleAtSingularity when a
    sample lies within CLUSTER_TOL of a zero or pole of f."""
    value, slope, nearest = log_derivative_field(f, samples)
    if nearest <= CLUSTER_TOL:
        raise SampleAtSingularity(f"sample {nearest:.1e} from a zero/pole")
    return value, slope


def rouche_margin(inside: RationalFunction, remainder: RationalFunction,
                  contour: OffsetContour) -> float:
    """Minimum over the contour samples of |inside'/inside| - |rem'/rem|,
    both logarithmic derivatives taken from log_derivative_field.

    Positive margin is the Rouche hypothesis for transferring zero counts.
    """
    g, _ = _field(inside, contour.samples)
    h, _ = _field(remainder, contour.samples)
    return float(np.min(np.abs(g) - np.abs(h)))


def _winding_from_values(values: np.ndarray, samples: np.ndarray) -> int:
    """Trapezoidal closed-curve integral of the sampled integrand, divided by
    2*pi*i and snapped to the nearest integer."""
    integral = (np.sum((samples[1:] - samples[:-1]) * (values[1:] + values[:-1]))
                + (samples[0] - samples[-1]) * (values[0] + values[-1])) / 2.0
    raw = integral / (2j * math.pi)
    nearest = round(raw.real)
    if abs(raw - nearest) > _WINDING_TOL:
        raise NonIntegerWinding(
            f"winding integral {raw:.6f} is not close to an integer")
    return int(nearest)


def winding_count(f: RationalFunction, contour: OffsetContour) -> int:
    """Zeros minus poles of f enclosed by the contour, via the argument
    principle applied to f'/f along the sampled curve.

    Raises NonIntegerWinding when the sampling is too coarse to trust.
    """
    value, _ = _field(f, contour.samples)
    return _winding_from_values(value, contour.samples)


def certify(f: RationalFunction, region: ConvexRegion, eps: float, k: int,
            min_samples: int = 512, seed: int = 0,
            membership_tol: float = MEMBERSHIP_TOL) -> RoucheCertificate:
    """Certify that f has at least k - 1 critical points in the closed
    eps-neighborhood of the region, without locating any critical point.

    Pipeline: read f in lowest form (a zero within CLUSTER_TOL of a pole
    cancels against it), split off the zeros inside the region, perturb
    coincident points to simple position, build the exclusion balls, pick a
    clearing constant-offset contour, check the dominance margin, then count
    critical points inside the contour by the argument principle:

        winding of (gh)'/(gh)  =  #critical - (#zeros + #poles)   inside,

    so critical_lower_bound = winding + zeros_poles_inside, and the enclosed
    face lies inside the eps-neighborhood by construction.

    Raises HypothesisUnmet when fewer than k zeros lie in the region, and
    MultiplicityViolation (coincident points that no perturbation
    separates), ContourNotFound, MarginNonPositive, NonIntegerWinding,
    SampleAtSingularity or ContourBoundaryConflict when no certificate can
    be produced; none of these disproves the property.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps!r}")
    f = _reduced(f, CLUSTER_TOL)
    inside, remainder = split_instance(f, region, membership_tol)
    if len(inside.zeros) < k:
        raise HypothesisUnmet(
            f"only {len(inside.zeros)} zeros in the region, need {k}")
    n = f.total_count
    combined = perturb_to_simple(
        RationalFunction(inside.zeros + remainder.zeros, remainder.poles,
                         f.scale), seed=seed)
    n_in = len(inside.zeros)
    inside = RationalFunction(combined.zeros[:n_in], (), 1.0)
    remainder = RationalFunction(combined.zeros[n_in:], combined.poles, f.scale)

    excl = exclusion_set(remainder, eps, max(n - k, 1))
    contour = find_contour(region, eps, excl, min_samples)
    margin = math.inf
    while True:
        # G = g'/g, H = h'/h: the margin needs |G| - |H| and the winding of
        # F = G + H, the product's f'/f, integrates F'/F
        g, dg = _field(inside, contour.samples)
        h, dh = _field(remainder, contour.samples)
        margin = min(margin, float(np.min(np.abs(g) - np.abs(h))))
        if margin <= MARGIN_FLOOR:
            raise MarginNonPositive(
                f"dominance margin {margin:.3e} is not safely positive "
                f"on {len(contour.samples)} samples")
        val = g + h
        if float(np.min(np.abs(val))) == 0.0:
            raise SampleAtSingularity("integrand vanished at a contour sample")
        try:
            winding = _winding_from_values((dg + dh) / val, contour.samples)
            break
        except NonIntegerWinding:
            if len(contour.samples) * 2 > MAX_WINDING_SAMPLES:
                raise
            contour = offset_contour(region, contour.offset_distance,
                                     len(contour.samples) * 2)

    # perturb_to_simple left every two points over CLUSTER_TOL apart, so the
    # product of inside and remainder cancels nothing: it is `combined`
    pts = np.asarray(combined.zeros + combined.poles, dtype=np.complex128)
    dist = distances(pts, region)
    if bool(np.any(np.abs(dist - contour.offset_distance) <= CONTOUR_TOL)):
        raise ContourBoundaryConflict("a zero/pole lies on the contour")
    zeros_poles_inside = int(np.count_nonzero(dist < contour.offset_distance))
    bound = winding + zeros_poles_inside
    return RoucheCertificate(
        contour=contour,
        margin=margin,
        winding=winding,
        zeros_poles_inside=zeros_poles_inside,
        critical_lower_bound=bound,
        valid=bound >= k - 1,
        eps=eps,
        k=k,
        function=combined,
    )
