"""Extremal and asymptotic experiments.

search_psi estimates, from below, the least eps such that every degree-n
polynomial with at least k zeros in the region keeps k - 1 critical points
in the closed eps-neighborhood: it maximizes the required eps of concrete
zero configurations with a derivative-free simplex search from random
restarts.  The other experiments probe the asymptotic behavior (fraction of
critical points captured as the degree grows) and the fixed-eps regime.

The simplex search is ``simplex.minimize``, which takes scipy's Nelder-Mead
steps but asks for several points at once, and the objective solves such a
stack of configurations in one secular solve.  The disk restarts' arc
family places its integration constant with ``simplex.minimize_scalar``,
Brent's bounded search with scipy's steps.  The search calls both as module
globals, which perfbench wraps by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientCriticalPoints, NonConvergence
from .engine import agl_report, count_in, random_instance
from .rational import _REFINE_DTYPE, CLUSTER_TOL, ROOT_TOL, RationalFunction, \
    _companion_roots, _crowded, _partial_fraction_roots, critical_points, \
    poly_roots
from .regions import ConvexRegion, Disk, centroid, diameter, distance, \
    distances, sample_point
from .simplex import minimize, minimize_scalar

_SEARCH_BOX_HALF_WIDTH = 10.0


@dataclass(frozen=True)
class SearchResult:
    n: int
    k: int
    best_required_epsilon: float
    best_configuration: RationalFunction
    evaluations: int
    seed: int
    trace: tuple[tuple[int, float], ...]


@dataclass(frozen=True)
class AsymptoticRow:
    n: int
    zero_fraction: float
    critical_fraction: float


@dataclass(frozen=True)
class ProbeRow:
    ratio: float
    n: int
    k: int
    trials: int
    failures: int
    failure_rate: float
    worst_shortfall: int


def required_epsilon(f: RationalFunction, region: ConvexRegion, k: int) -> float:
    """The least eps with at least k - 1 critical points in the closed
    eps-neighborhood: agl_report's (k-1)-th smallest critical-point
    distance, raising InsufficientCriticalPoints where that is inf."""
    if k < 2:
        raise ValueError("k must be at least 2")
    report = agl_report(f, region, 0.0, k)
    if math.isinf(report.required_epsilon):
        raise InsufficientCriticalPoints(
            f"{len(report.critical_points)} critical points, need {k - 1}")
    return report.required_epsilon


def _decode(x: np.ndarray, k: int, region: ConvexRegion,
            box_center: complex, half_width: float) -> np.ndarray:
    """Zeros from search coordinates, a row of zeros for each row of x: the
    first k moved to their closest region points, the rest clamped into the
    square box."""
    zs = np.ascontiguousarray(x, dtype=np.float64).view(np.complex128)
    lo = box_center - complex(half_width, half_width)
    hi = box_center + complex(half_width, half_width)
    out = np.empty_like(zs)
    out[:, :k] = distance(zs[:, :k], region)[1]
    out[:, k:].real = np.minimum(np.maximum(zs[:, k:].real, lo.real), hi.real)
    out[:, k:].imag = np.minimum(np.maximum(zs[:, k:].imag, lo.imag), hi.imag)
    return out


def _fast_required(zeros: list[complex], region: ConvexRegion, k: int) -> float:
    crit = critical_points(RationalFunction(tuple(zeros), (), 1.0)).points
    dist = np.sort(distances(np.asarray(crit, dtype=np.complex128), region))
    return float(dist[k - 2])


def _scores(zeros: np.ndarray, region: ConvexRegion, k: int) -> np.ndarray:
    """Minus _fast_required for each row of a (B, n) stack of zeros; a row
    whose critical points do not settle scores 0.0, no better than flat.

    Rows whose zeros lie pairwise farther apart than 2 * CLUSTER_TOL are
    critical_points' own centres, and share one stacked secular solve that
    is bitwise equal to it row by row.  The rest, which _cluster would
    merge, and every row of a stack that raises NonConvergence go through
    _fast_required one at a time.
    """
    scores = np.empty(len(zeros))
    alone = _crowded(zeros, 2.0 * CLUSTER_TOL).any(axis=1)
    stack = np.flatnonzero(~alone)
    if stack.size:
        try:
            crit, _ = _partial_fraction_roots(
                zeros[stack], np.ones((stack.size, zeros.shape[1]),
                                      dtype=np.complex128), ROOT_TOL)
            scores[stack] = -np.sort(distances(crit, region), axis=1)[:, k - 2]
        except NonConvergence:
            alone[stack] = True
    for i in np.flatnonzero(alone):
        try:
            scores[i] = -_fast_required(zeros[i].tolist(), region, k)
        except NonConvergence:
            scores[i] = 0.0
    return scores


def _mode_simplex(x0: np.ndarray, step: float) -> np.ndarray:
    """Initial simplex whose edges are Fourier modes of the point cycle.

    Coordinate-axis simplexes move one zero at a time; near-extremal
    configurations respond to collective deformations (translation, scaling,
    shearing of the whole cloud), so the simplex spans those directly.
    """
    count = len(x0) // 2
    rows = [x0]
    for m in range(1, count + 1):
        for phase in (0.0, math.pi / 2):
            v = np.zeros_like(x0)
            for j in range(count):
                w = step * complex(math.cos(2 * math.pi * m * j / count + phase),
                                   math.sin(2 * math.pi * m * j / count + phase))
                v[2 * j] += w.real
                v[2 * j + 1] += w.imag
            rows.append(x0 + v)
    return np.array(rows)


class _ArcFamily:
    """Restart family for disk regions: place the n - 1 critical points on a
    slightly spread arc, integrate to get the polynomial, and tune the
    integration constant so k zeros just reach the disk.

    The map from (arc distance, constant, spread) to configurations is smooth
    even where the zero-coordinate landscape is severely kinked, which is
    what lets restarts land on the sharp extremal ridge at all.
    """

    def __init__(self, n, k, region, rng):
        self.n, self.k, self.region = n, k, region
        theta = 2.0 * math.pi * rng.random()
        self.direction = complex(math.cos(theta), math.sin(theta))
        self.spread = rng.uniform(0.004, 0.02)
        self.scale = max(region.radius, 1e-3)

    def coefficients(self, t, spread, dtype=np.float64) -> np.ndarray:
        """Real coefficients of degree 1..n, ascending, of the polynomial
        whose critical points are the n - 1 arc points
        t * exp(i * (j - (n - 2) / 2) * spread), computed in the real type
        ``dtype``; the constant term is the caller's integration constant.
        The arc is symmetric about the real axis, so np.poly returns its
        product's coefficients as reals."""
        n = self.n
        angles = ((np.arange(n - 1) - (n - 2) / 2.0) * spread).astype(dtype)
        monic = np.poly(t * (np.cos(angles) + 1j * np.sin(angles)))
        return n * monic[::-1] / np.arange(1, n + 1)

    def zeros_at(self, t, const, spread):
        coeffs = self.coefficients(t, spread)
        roots = np.asarray(poly_roots((const, *coeffs)).points)
        roots = self._polish(t, const, spread, roots)
        return [self.region.center + self.direction * z for z in roots]

    def _polish(self, t, const, spread, roots):
        # Newton in extended precision; double-rounded zeros get amplified
        # through the near-degenerate critical cluster otherwise.
        real = np.finfo(_REFINE_DTYPE).dtype
        pc = np.concatenate(([const], self.coefficients(t, spread, real)))
        n = self.n
        z = roots.astype(_REFINE_DTYPE)
        for _ in range(4):
            pv = np.full_like(z, pc[n])
            dv = np.zeros_like(z)
            for i in range(n - 1, -1, -1):
                dv = dv * z + pv
                pv = pv * z + pc[i]
            with np.errstate(divide="ignore", invalid="ignore"):
                step = pv / dv
            z = z - np.where(np.isfinite(step), step, 0.0)
        return z.astype(np.complex128)

    def _kth_smallest(self, zs):
        """The k-th smallest distance to the region along zs's last axis."""
        dist = distances(zs.ravel(), self.region).reshape(zs.shape)
        return np.sort(dist, axis=-1)[..., self.k - 1]

    def _kth_dist(self, coeffs, consts):
        """The k-th smallest zero distance for each integration constant
        beneath the degree 1..n coefficients ``coeffs``, from one stacked
        real solve."""
        rows = np.empty((len(consts), len(coeffs) + 1))
        rows[:, 0] = consts
        rows[:, 1:] = coeffs
        roots = _companion_roots(rows)
        return self._kth_smallest(self.region.center + self.direction * roots)

    def _best_const(self, t, spread):
        coeffs = self.coefficients(t, spread)
        span = 3.0 * (t + self.scale) ** self.n
        grid = np.linspace(-span, span, 180)
        i = int(np.argmin(self._kth_dist(coeffs, grid)))
        res = minimize_scalar(
            lambda c: float(self._kth_dist(coeffs, [c])[0]),
            bounds=(grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)]),
            xatol=1e-10 * span)
        return float(res.x), float(res.fun)

    def start(self):
        """Bisect the arc distance onto the feasibility knee; None if the
        family cannot satisfy the hypothesis at all."""
        t_lo = 0.7 * self.scale
        c_lo, g_lo = self._best_const(t_lo, self.spread)
        if g_lo > 0:
            return None
        t_hi = 2.0 * self.scale
        while t_hi < 16.0 * self.scale:
            c_hi, g_hi = self._best_const(t_hi, self.spread)
            if g_hi > 0:
                break
            t_lo, c_lo = t_hi, c_hi
            t_hi *= 1.3
        else:
            return None
        for _ in range(34):
            t_mid = 0.5 * (t_lo + t_hi)
            c_mid, g_mid = self._best_const(t_mid, self.spread)
            if g_mid > 0:
                t_hi = t_mid
            else:
                t_lo, c_lo = t_mid, c_mid
        return t_lo, c_lo, self.spread


def search_psi(n: int, k: int, region: ConvexRegion, restarts: int = 50,
               iters: int = 500, seed: int = 0) -> SearchResult:
    """Maximize required_epsilon over configurations of n zeros, the first k
    clamped into the region and the rest confined to a centered square box of
    half-width 10.  Nelder-Mead local search over the zero coordinates from
    seeded random restarts (generic clouds, rings tangent to the region, and
    for disks an arc-of-critical-points construction), finished by polish
    runs from the incumbent.  The result is a lower bound on the least
    admissible eps; no optimality is claimed.
    """
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    if restarts < 1 or iters < 1:
        raise ValueError("restarts and iters must be positive")
    rng = np.random.default_rng(seed)
    anchor = centroid(region)
    scale = max(diameter(region) / 2.0, 1e-3)
    if n == k:
        config = RationalFunction(
            tuple(sample_point(region, rng) for _ in range(n)), (), 1.0)
        return SearchResult(n=n, k=k,
                            best_required_epsilon=required_epsilon(config, region, k),
                            best_configuration=config, evaluations=0,
                            seed=seed, trace=())
    evaluations = 0
    trace: list[tuple[int, float]] = []

    def objective(xs: np.ndarray) -> np.ndarray:
        # the score of each row of xs; callers count the evaluations
        return _scores(_decode(xs, k, region, anchor, _SEARCH_BOX_HALF_WIDTH),
                       region, k)

    def encode(points) -> np.ndarray:
        pts = np.asarray(points, dtype=np.complex128)
        return pts[np.argsort(distances(pts, region), kind="stable")].view(
            np.float64)

    def ring_start() -> np.ndarray:
        # ring of n zeros with the two nearest vertices pinned to the circle
        # of radius `scale` around the anchor, best radius by a line scan
        # solved as one stack
        nonlocal evaluations
        sin_half = math.sin(math.pi / n)
        th = 2.0 * math.pi * rng.random()
        direction = complex(math.cos(th), math.sin(th))
        rows = []
        for frac in np.linspace(0.15, 0.995, 32):
            rho = scale * frac / sin_half
            d = rho * math.cos(math.pi / n) + scale * math.sqrt(1.0 - frac ** 2)
            g = anchor + d * direction
            rows.append(encode([g + rho * direction * complex(
                math.cos(math.pi + (2 * j + 1) * math.pi / n),
                math.sin(math.pi + (2 * j + 1) * math.pi / n))
                for j in range(n)]))
        values = objective(np.array(rows))
        evaluations += len(rows)
        best = 0
        for i, v in enumerate(values):    # the first of equal minima
            if v < values[best]:
                best = i
        return rows[best]

    def cloud_start() -> np.ndarray:
        pts = [sample_point(region, rng) for _ in range(k)]
        for _ in range(n - k):
            r = scale * (1.0 + rng.exponential(1.5))
            th = 2.0 * math.pi * rng.random()
            pts.append(anchor + r * complex(math.cos(th), math.sin(th)))
        return np.array([c for z in pts for c in (z.real, z.imag)])

    def arc_start() -> np.ndarray | None:
        nonlocal evaluations
        family = _ArcFamily(n, k, region, rng)
        knee = family.start()
        if knee is None:
            return None
        t0, c0, s0 = knee
        span = (t0 + family.scale) ** n

        def arc_point(p):
            return encode(family.zeros_at(p[0], p[1] * span, abs(p[2])))

        def neg(ps):
            return objective(np.array([arc_point(p) for p in ps]))

        p0 = np.array([t0, c0 / span, s0])
        simplex = np.array([p0,
                            p0 + [3e-4 * scale, 0.0, 0.0],
                            p0 + [0.0, max(abs(p0[1]), 1e-9) * 1e-4, 0.0],
                            p0 + [0.0, 0.0, 0.4 * s0]])
        res = minimize(neg, p0, maxiter=iters, xatol=1e-14, fatol=1e-15,
                       initial_simplex=simplex)
        evaluations += res.nfev + 1
        return arc_point(res.x if res.fun < neg(p0[None])[0] else p0)

    best_value = -math.inf
    best_x: np.ndarray | None = None

    def descend(x0: np.ndarray, options: dict) -> None:
        # one Nelder-Mead run; a better end point becomes the incumbent
        nonlocal best_value, best_x, evaluations
        res = minimize(objective, x0, **options)
        evaluations += res.nfev
        if -res.fun > best_value:
            best_value = -res.fun
            best_x = res.x
            trace.append((evaluations, best_value))

    base = {"maxiter": iters, "xatol": 1e-12, "fatol": 1e-14,
            "adaptive": n > 5}
    arcs_left = 4 if isinstance(region, Disk) else 0
    for _ in range(restarts):
        options = dict(base)
        x0 = None
        if arcs_left > 0:
            arcs_left -= 1
            x0 = arc_start()
            if x0 is not None:
                options["initial_simplex"] = _mode_simplex(x0, 0.01 * scale)
        if x0 is None:
            if rng.random() < 0.5:
                x0 = ring_start()
                options["initial_simplex"] = _mode_simplex(x0, 0.02 * scale)
            else:
                x0 = cloud_start()
                options["maxfev"] = 2 * iters
        descend(x0, options)
    # polish the incumbent with shrinking deformation-mode simplexes
    for step in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        descend(best_x, dict(base, initial_simplex=_mode_simplex(
            best_x, step * scale)))

    zeros = _decode(best_x[None], k, region, anchor, _SEARCH_BOX_HALF_WIDTH)
    config = RationalFunction(tuple(zeros[0].tolist()), (), 1.0)
    # re-derive the reported value from the witness so the two always agree
    value = required_epsilon(config, region, k)
    return SearchResult(n=n, k=k, best_required_epsilon=value,
                        best_configuration=config, evaluations=evaluations,
                        seed=seed, trace=tuple(trace))


def asymptotic_experiment(region: ConvexRegion, eps: float, n_values,
                          outside_count: int, seed: int) -> list[AsymptoticRow]:
    """For each n, scatter n - outside_count zeros in the region and the rest
    at distance 2*diameter from the centroid at random angles, then record
    the fraction of critical points captured by the eps-neighborhood."""
    if outside_count < 0:
        raise ValueError("outside_count must be nonnegative")
    if outside_count >= min(n_values):
        raise ValueError("outside_count must be smaller than every n")
    rng = np.random.default_rng(seed)
    anchor = centroid(region)
    far = 2.0 * diameter(region)
    rows = []
    for n in n_values:
        zeros = [sample_point(region, rng) for _ in range(n - outside_count)]
        for _ in range(outside_count):
            th = 2.0 * math.pi * rng.random()
            zeros.append(anchor + far * complex(math.cos(th), math.sin(th)))
        f = RationalFunction(tuple(zeros), (), 1.0)
        crit = critical_points(f)
        frac = count_in(crit.points, region, eps) / (n - 1)
        rows.append(AsymptoticRow(n=n, zero_fraction=(n - outside_count) / n,
                                  critical_fraction=frac))
    return rows


def conjecture_probe(region: ConvexRegion, eps: float, ratio_values,
                     trials: int, seed: int,
                     n_values=(8, 16, 32), pole_fraction: float = 0.5
                     ) -> list[ProbeRow]:
    """Empirical failure rates of the approximate property at fixed eps, for
    instances built so that k/(n-k) hits each target ratio.  Exploratory
    output only; a zero failure rate proves nothing."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    rows = []
    spread = 2.0 * max(diameter(region), 1.0)
    rng = np.random.default_rng(seed)
    for ratio in ratio_values:
        for n in n_values:
            k = round(n * ratio / (1.0 + ratio))
            k = min(max(k, 1), n)
            failures = 0
            worst = 0
            for _ in range(trials):
                f = random_instance(n, k, region, pole_fraction, spread, rng)
                crit = critical_points(f)
                got = count_in(crit.points, region, eps)
                if got < k - 1:
                    failures += 1
                    worst = max(worst, (k - 1) - got)
            rows.append(ProbeRow(ratio=float(ratio), n=n, k=k, trials=trials,
                                 failures=failures,
                                 failure_rate=failures / trials,
                                 worst_shortfall=worst))
    return rows
