"""Contour-based certification of critical-point counts.

This is an independent route to lower bounds on the number of critical
points near a convex region: factor f into the polynomial g of its zeros
inside the region times the remainder h, surround the region with a
constant-offset contour that avoids small exclusion balls around h's zeros
and poles, and check that G = g'/g dominates H = h'/h on the closed polygon
through the contour samples, with a margin certified between samples.  By
Rouche's theorem f'/f = G + H then has as many zeros minus poles inside the
polygon as G, which is -1 by Gauss-Lucas, so the count needs no winding
integral.  The critical-point root finder is never consulted.
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

    def clears(self, region: ConvexRegion, offsets) -> np.ndarray:
        """Per offset d, whether the curve dist(z, region) = d keeps twice
        the radius from every centre c.  dist(., region) is 1-Lipschitz, so
        the curve is |dist(c, region) - d| from a c outside the region, and
        at least that far from one inside."""
        centers = np.array([b.center for b in self.balls], dtype=complex)
        reach = np.array([2.0 * b.radius for b in self.balls])
        gap = np.abs(distances(centers, region)[:, None]
                     - np.asarray(offsets)) - reach[:, None]
        return np.min(gap, axis=0, initial=math.inf) >= 0.0


@dataclass(frozen=True)
class RoucheCertificate:
    """A verified lower bound on the critical points of ``function`` inside
    the eps-neighborhood of the contour's region."""

    contour: OffsetContour
    margin: float            # min of |G| - |H| over the samples
    certified_margin: float  # a lower bound on |G| - |H| along the polygon
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
    """Sample the constant-offset contour in (eps/2, eps) that clears every
    exclusion ball by at least one ball radius.

    Nine offsets are tested exactly, nearest the midline 3*eps/4 first, and
    only the one picked is sampled.  Raises ContourNotFound when all fail;
    that only means this one-parameter family is exhausted, not that no
    admissible path exists.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    clearance = eps / 20.0
    candidates = np.linspace(eps / 2.0 + clearance, eps - clearance, 9)
    clear = excl.clears(region, candidates)
    for i in _MIDLINE_FIRST:
        if clear[i]:
            return offset_contour(region, float(candidates[i]), min_samples)
    raise ContourNotFound(
        "no constant-offset contour clears the exclusion balls")


def _field(f: RationalFunction, samples: np.ndarray):
    """log_derivative_field's f'/f and L; raises SampleAtSingularity when a
    sample lies within CLUSTER_TOL of a zero or pole of f."""
    value, crowding, nearest = log_derivative_field(f, samples)
    if nearest <= CLUSTER_TOL:
        raise SampleAtSingularity(f"sample {nearest:.1e} from a zero/pole")
    return value, crowding


def rouche_margin(inside: RationalFunction, remainder: RationalFunction,
                  contour: OffsetContour) -> float:
    """Minimum over the contour samples of |inside'/inside| - |rem'/rem|:
    certify's sampled margin, which it also bounds between samples."""
    g, _ = _field(inside, contour.samples)
    h, _ = _field(remainder, contour.samples)
    return float(np.min(np.abs(g) - np.abs(h)))


def winding_count(f: RationalFunction, contour: OffsetContour) -> int:
    """Zeros minus poles of f enclosed by the contour, by the argument
    principle: the trapezoid rule for the integral of f'/f along the closed
    sampled curve over 2*pi*i, snapped to the nearest integer.  Raises
    NonIntegerWinding when the sampling is too coarse to trust."""
    samples = contour.samples
    value, _ = _field(f, samples)
    integral = (np.sum((samples[1:] - samples[:-1]) * (value[1:] + value[:-1]))
                + (samples[0] - samples[-1]) * (value[0] + value[-1])) / 2.0
    raw = integral / (2j * math.pi)
    nearest = round(raw.real)
    if abs(raw - nearest) > _WINDING_TOL:
        raise NonIntegerWinding(
            f"winding integral {raw:.6f} is not close to an integer")
    return int(nearest)


def certify(f: RationalFunction, region: ConvexRegion, eps: float, k: int,
            min_samples: int = 512, seed: int = 0,
            membership_tol: float = MEMBERSHIP_TOL) -> RoucheCertificate:
    """Certify that f has at least k - 1 critical points in the closed
    eps-neighborhood of the region, without locating any critical point.

    Pipeline: read f in lowest form (a zero within CLUSTER_TOL of a pole
    cancels against it), split it into g, the m >= k zeros inside the
    region, and the remainder h, perturb coincident points to simple
    position, build the exclusion balls and sample one clearing
    constant-offset contour.  The margin |G| - |H| (G = g'/g, H = h'/h) is
    taken on the samples and certified on the closed polygon through them.
    Where it is positive, Rouche's theorem gives f'/f = G + H the winding of
    G, whose m - 1 zeros (inside by Gauss-Lucas) and m poles lie inside: -1.
    As winding = #critical - (#zeros + #poles) inside, the bound is
    zeros_poles_inside - 1, and the polygon lies inside the
    eps-neighborhood by construction.

    Raises HypothesisUnmet when fewer than k zeros lie in the region, and
    MultiplicityViolation (coincident points that no perturbation
    separates), ContourNotFound, MarginNonPositive (certified margin at most
    MARGIN_FLOOR), SampleAtSingularity or ContourBoundaryConflict (a point
    too near the contour, or a zero of g not safely inside it) when no
    certificate can be produced; none of these disproves the property.
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
    samples, offset = contour.samples, contour.offset_distance
    g, g_crowding = _field(inside, samples)
    h, h_crowding = _field(remainder, samples)
    gap = np.abs(g) - np.abs(h)
    margin = float(np.min(gap))
    # every point e of the polygon lies within reach of a sample s, and for
    # each zero or pole w, |1/(e - w) - 1/(s - w)| <= reach/|s - w|^2 /
    # (1 - reach/|s - w|), where 1/|s - w| <= sqrt(L(s)) (L of g plus of h)
    reach = 0.5 * float(np.max(np.abs(np.diff(samples, append=samples[:1]))))
    crowding = g_crowding + h_crowding
    shrink = 1.0 - reach * math.sqrt(float(np.max(crowding)))
    certified = (float(np.min(gap - reach * crowding / shrink ** 2))
                 if shrink > 0.0 else -math.inf)
    if certified <= MARGIN_FLOOR:
        raise MarginNonPositive(f"dominance margin {certified:.3e} (sampled "
                                f"{margin:.3e}) is not safely positive")

    # perturb_to_simple left every two points over CLUSTER_TOL apart, so the
    # product of inside and remainder cancels nothing: it is `combined`
    pts = np.asarray(combined.zeros + combined.poles, dtype=np.complex128)
    dist = distances(pts, region)
    # the curve's curvature is at most 1/offset, so a chord runs at most the
    # sagitta reach^2/offset inside it; the count needs g's zeros inside
    band = CONTOUR_TOL + reach ** 2 / offset
    if bool(np.any(np.abs(dist - offset) <= band)
            or np.any(dist[:n_in] >= offset - band)):
        raise ContourBoundaryConflict(
            "a zero/pole lies on the contour or a zero of g beyond it")
    zeros_poles_inside = int(np.count_nonzero(dist < offset))
    bound = zeros_poles_inside - 1
    return RoucheCertificate(
        contour=contour,
        margin=margin,
        certified_margin=certified,
        winding=-1,
        zeros_poles_inside=zeros_poles_inside,
        critical_lower_bound=bound,
        valid=bound >= k - 1,
        eps=eps,
        k=k,
        function=combined,
    )
