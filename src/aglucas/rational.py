"""Complex polynomials and rational functions represented by their roots.

A rational function is stored as its multisets of zeros and poles (repeated
entries encode multiplicity) together with a leading coefficient.  The
critical-point machinery works from the partial-fraction form of the
logarithmic derivative so that clustered configurations stay well
conditioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MultiplicityViolation, NonConvergence

ROOT_TOL = 1e-12     # per-root correction tolerance for the secular iteration
CLUSTER_TOL = 1e-9   # grouping tolerance for multiplicity and cancellation

_MOMENT_REL = 1e-9   # moments below this relative floor are roundoff survivors
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
_BLOCK_TERMS = 2 ** 15  # (point, sample) terms per log_derivative_field block
_EIG_MAX = 16        # most centres whose secular roots start as eigenvalues
_SCREEN_MIN = 13     # fewest points for which _cluster's array test pays
_ROOT_TOL_MAX = 1e-4  # coarser tolerances settle roots far off their values


@dataclass(frozen=True)
class RationalFunction:
    """scale * prod(z - zero) / prod(z - pole), zeros and poles as multisets."""

    zeros: tuple[complex, ...]
    poles: tuple[complex, ...]
    scale: complex = 1.0 + 0j

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple(complex(z) for z in self.zeros))
        object.__setattr__(self, "poles", tuple(complex(p) for p in self.poles))
        object.__setattr__(self, "scale", complex(self.scale))
        if self.scale == 0:
            raise ValueError("scale must be nonzero")

    @property
    def total_count(self) -> int:
        """Combined number of zeros and poles, with multiplicity."""
        return len(self.zeros) + len(self.poles)

    @property
    def is_constant(self) -> bool:
        return not self.zeros and not self.poles


@dataclass(frozen=True)
class RootSet:
    """Roots returned by a root solver, plus the worst residual at them."""

    points: tuple[complex, ...]
    residual: float


def poly_roots(coefficients) -> RootSet:
    """All roots, with multiplicity, of the polynomial with the given
    ascending coefficients, as companion-matrix eigenvalues.

    Exactly-zero leading coefficients are stripped and exact zeros at the
    origin split off first; the residual is the largest |p| at the returned
    roots, by Horner's scheme.  Raises ValueError for the zero polynomial
    and NonConvergence if the eigenvalue solve fails: non-finite
    coefficients or companion entries, or no QR convergence.
    """
    coeffs = [complex(c) for c in coefficients]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("the zero polynomial has no root set")
    at_origin = next(i for i, c in enumerate(coeffs) if c != 0)
    if at_origin == len(coeffs) - 1:
        return RootSet((0j,) * at_origin, 0.0)
    roots = _companion_roots(
        np.array([coeffs[at_origin:]], dtype=np.complex128))[0].tolist()
    residual = 0.0
    for z in roots:
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + c
        residual = max(residual, abs(acc))
    return RootSet((0j,) * at_origin + tuple(roots), residual)


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Roots of every row of a (B, deg + 1) stack of ascending coefficient
    rows with nonzero leading coefficients, as the (B, deg) eigenvalues of
    the rows' companion matrices, from one LAPACK call over the stack
    (Edelman & Murakami, Math. Comp. 64 (1995)).  Each matrix is solved on
    its own, so a row's roots are bitwise those of a one-row call.  Real
    rows take LAPACK's real solver: complex roots come in exact conjugate
    pairs, and a stack whose roots are all real gives a real array.
    """
    if not np.isfinite(coeffs).all():
        raise NonConvergence("non-finite polynomial coefficients")
    count, deg = coeffs.shape[0], coeffs.shape[1] - 1
    companion = np.zeros((count, deg, deg), dtype=coeffs.dtype)
    # first row -c[deg-1..0] / c[deg], ones on the subdiagonal
    np.divide(coeffs[:, -2::-1], -coeffs[:, -1:], out=companion[:, 0, :])
    companion.reshape(count, -1)[:, deg::deg + 1] = 1.0
    try:
        return np.linalg.eigvals(companion)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"companion eigenvalues failed: {exc}") from None


@np.errstate(invalid="ignore", over="ignore")   # inf - inf, far-off pairs
def _crowded(pts: np.ndarray, tol: float) -> np.ndarray:
    """Mask of the points lying within tol of another point of their row
    (the last axis)."""
    n = pts.shape[-1]
    gap = np.abs(pts[..., :, None] - pts[..., None, :])
    gap.reshape(-1, n * n)[:, ::n + 1] = np.inf     # each point's own gap
    return (gap <= tol).any(axis=-1)


def _cluster(points, tol: float):
    """Group nearly coincident points; returns (centers, multiplicities).

    From _SCREEN_MIN points up, points that lie pairwise farther apart than
    tol come back as they are after one array test (below that the loop is
    cheaper); the loop, which merges a point into the first running-mean
    centre within tol, runs on the rest.  The test screens at 2 * tol
    because numpy and Python round |z - c| differently.
    """
    if len(points) >= _SCREEN_MIN and not _crowded(np.array(points),
                                                    2.0 * tol).any():
        return list(points), [1] * len(points)
    centers: list[complex] = []
    counts: list[int] = []
    for z in points:
        for i, c in enumerate(centers):
            if abs(z - c) <= tol:
                counts[i] += 1
                centers[i] = c + (z - c) / counts[i]
                break
        else:
            centers.append(complex(z))
            counts.append(1)
    return centers, counts


# Extended precision, when the platform offers it, pushes the evaluation
# noise of the finishing iteration below the double-precision floor;
# near-degenerate critical clusters gain several digits from it.
_REFINE_DTYPE = getattr(np, "complex256", np.complex128)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _secular_aberth(z: np.ndarray, centers: np.ndarray, weights: np.ndarray,
                    dtype, root_tol: float,
                    max_iterations: int = 200) -> np.ndarray:
    """Aberth iteration on the roots of N = D * R, where
    R(z) = sum weights / (z - centers) and D = prod(z - centers), for each
    row of a stack: z is (B, n) and centers and weights are (B, d).

    Everything is evaluated in partial-fraction form: N'/N = R'/R + S with
    S = D'/D needs only the centre data, so clustered configurations keep
    the relative accuracy that expanding N into coefficients loses.  Only
    R, which cancels at a root, and the roots are in ``dtype``: the
    correction is as accurate as R to first order (Bini & Robol, JCAM 272
    (2014)).  A root settles, and retires, when its correction drops below
    root_tol * max(1, |z|), or when |R| reaches its evaluation's noise
    floor, 16 ``dtype`` ulps of sum |weights / (z - centers)|, below which
    coincident roots cannot shrink their corrections.  At the floor a root
    still takes the correction computed there unless |R| is within one ulp:
    near a tight cluster of roots R' is tiny, and stopping one correction
    early left search witnesses up to 2.7e-6 off their 60-digit values.

    Rows never mix.  Element-wise work runs over every unsettled root of
    the stack at once, but each row's sums over its centres come from a
    matmul over that row's unsettled roots alone, the shape a one-row call
    has: BLAS rounds a matrix-vector product differently as its shape
    changes, so this keeps each row bitwise equal to a one-row call.
    NonConvergence if any row has not settled after max_iterations.
    """
    rows, n = z.shape
    d = centers.shape[1]
    z = z.astype(dtype)
    flat = z.reshape(-1)
    c = centers.astype(dtype)
    w = weights.astype(dtype)
    ulp_w = float(np.finfo(dtype).eps) * np.abs(weights)
    # one buffer holds the unsettled roots' root-centre terms in dtype, then
    # as complex128 (cast in place, forward) those and the root-root terms
    buf = np.empty(rows * n * d, dtype=dtype)
    low = buf.view(np.complex128)
    size = np.empty(rows * n * d)
    everyone = np.arange(rows * n)
    active = everyone
    # a lone row's products skip the per-row split, which costs as much
    # again as a small matmul
    lone = rows == 1
    w0, ulp0, weights0 = w[0], ulp_w[0], weights[0]
    if not lone:
        # row b owns flat[b*n:(b+1)*n]; each root's row, centres and place
        firsts = np.arange(0, rows * n + 1, n)
        row_of = everyone // n
        c_rows, col_of = c[row_of], everyone - n * row_of
    for _ in range(max_iterations):
        a = len(active)
        if lone:
            own, col = c, active
        elif a == rows * n:     # nothing has settled: whole rows batch
            blocks, own, col = None, c_rows, col_of
        else:
            # (row, first, end) of each row's unsettled roots within active
            cut = np.searchsorted(active, firsts).tolist()
            blocks = [(b, cut[b], cut[b + 1]) for b in range(rows)
                      if cut[b] < cut[b + 1]]
            own, col = c_rows[active], col_of[active]
        zs = flat[active]
        near = buf[:a * d].reshape(a, d)
        np.reciprocal(np.subtract(zs[:, None], own, out=near), out=near)
        r = near @ w0 if lone else _by_row(blocks, near, w)
        if dtype != np.complex128:
            r = r.astype(np.complex128)
            np.copyto(low[:a * d], buf[:a * d])
            near = low[:a * d].reshape(a, d)
        s = near.sum(axis=1)
        size_a = np.abs(near, out=size[:a * d].reshape(a, d))
        ulp = size_a @ ulp0 if lone else _by_row(blocks, size_a, ulp_w)
        np.square(near, out=near)
        minus_dr = near @ weights0 if lone else _by_row(blocks, near, weights)
        roots = flat.astype(np.complex128, copy=False)
        zd = zs.astype(np.complex128, copy=False)
        mutual = low[:a * n].reshape(a, n)
        if lone:
            np.subtract.outer(zd, roots, out=mutual)
        else:
            np.subtract(zd[:, None], roots.reshape(rows, n)[row_of[active]],
                        out=mutual)
        mutual[everyone[:a], col] = np.inf
        rep = np.reciprocal(mutual, out=mutual).sum(axis=1)
        step = 1.0 / ((s - rep) - minus_dr / r)
        mag = np.abs(step)
        if not mag.max() <= 0.5:
            # a runaway correction, or a root on a centre: damp the first
            # (far out, Newton can overshoot), nudge the second; a no-op on
            # rows without either, so one row's trigger leaves the others
            cap = 0.5 * (1.0 + np.abs(zd))
            step = np.where(mag > cap, step * (cap / mag), step)
            step[~np.isfinite(step)] = 0.1 + 0.1j
        resid = np.abs(r)
        step[resid <= ulp] = 0.0
        flat[active] -= step
        active = active[~((resid <= 16.0 * ulp) | (
            mag <= root_tol * np.maximum(1.0, np.abs(zd - step))))]
        if not active.size:
            return z
    raise NonConvergence(
        f"critical-point corrections not settled after {max_iterations} "
        "iterations")


def _by_row(blocks, x: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """x[lo:hi] @ vectors[b] for each block (b, lo, hi) of x's rows, one
    matmul per block, concatenated; with blocks None, x holds every row's
    n roots in order, and one batched matmul takes them.  Each product has
    the shape of a one-row call's, which a batch keeps."""
    if blocks is None:
        return (x.reshape(len(vectors), -1, x.shape[1])
                @ vectors[:, :, None]).reshape(-1)
    return np.concatenate([x[lo:hi] @ vectors[b] for b, lo, hi in blocks])


def critical_points(f: RationalFunction,
                    root_tol: float = ROOT_TOL) -> RootSet:
    """All finite critical points of f (zeros of the numerator of f' in
    lowest form), with multiplicity.

    A zero of multiplicity m contributes m - 1 critical points at itself;
    those are emitted directly.  The remaining critical points are the roots
    of the secular equation sum_w c_w / (z - w) = 0 over the distinct zeros
    and poles, with c_w the signed multiplicity.  The residual is the largest
    relative secular residual |sum c_w/(z - w)| / sum |c_w/(z - w)| at them.
    A zero within CLUSTER_TOL of a pole cancels against it first.
    root_tol must lie in (0, 1e-4]; ValueError otherwise.
    """
    if not 0.0 < root_tol <= _ROOT_TOL_MAX:
        raise ValueError(f"root_tol must lie in (0, {_ROOT_TOL_MAX:g}], "
                         f"got {root_tol!r}")
    if f.is_constant:
        return RootSet((), 0.0)
    centers = np.array([f.zeros + f.poles], dtype=np.complex128)
    signs = [1] * len(f.zeros) + [-1] * len(f.poles)
    known: list[complex] = []
    if _crowded(centers, 2.0 * CLUSTER_TOL).any():
        # zeros on poles cancel, and coincident points merge into centres
        # weighted by multiplicity (no point is nearer than 2 * CLUSTER_TOL
        # to another otherwise, so each is its own centre)
        f = _reduced(f, CLUSTER_TOL)
        zc, zm = _cluster(f.zeros, CLUSTER_TOL)
        pc, pm = _cluster(f.poles, CLUSTER_TOL)
        for c, m in zip(zc, zm):
            known.extend([c] * (m - 1))
        if not zc and not pc:
            return RootSet((), 0.0)
        centers = np.array([zc + pc], dtype=np.complex128)
        signs = zm + [-m for m in pm]
    weights = np.array(signs, dtype=np.complex128)
    roots = _partial_fraction_roots(centers, weights[None], root_tol)[0][0]
    residual = 0.0
    if roots.size:
        terms = np.subtract.outer(roots, centers[0])
        np.divide(weights, terms, out=terms)
        residual = float((np.abs(terms.sum(axis=1))
                          / np.abs(terms).sum(axis=1)).max())
    return RootSet(tuple(known) + tuple(roots.tolist()), residual)


def _eigen_start(unit: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """The d - 1 roots of sum weights / (z - unit) for each row of a (B, d)
    stack whose weights have a nonzero sum, from one LAPACK call: with the
    centre u_j farthest out dropped, they are the eigenvalues of
    diag(u_i) - v 1^T over i != j, v_i = w_i (u_i - u_j) / sum w, a
    diagonal-plus-rank-one matrix whose characteristic polynomial is
    D * R / sum w (Golub, SIAM Rev. 15 (1973)).  Each matrix is solved on
    its own, so a row's roots are bitwise those of a one-row call.
    """
    rows, d = unit.shape
    j = np.abs(unit).argmax(axis=1)
    keep = np.arange(d) != j[:, None]
    v = weights * (unit - unit[np.arange(rows), j][:, None]) / weights.sum(
        axis=1, keepdims=True)
    matrix = np.zeros((rows, d - 1, d - 1), dtype=unit.dtype)
    matrix.reshape(rows, -1)[:, ::d] = unit[keep].reshape(rows, d - 1)
    matrix -= v[keep].reshape(rows, d - 1, 1)
    try:
        return np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"secular eigenvalues failed: {exc}") from None


def _aberth_start(unit: np.ndarray, weights: np.ndarray, count: int,
                  root_tol: float) -> np.ndarray:
    """The count roots of sum weights / (z - unit) for each row of a (B, d)
    stack by complex128 Aberth iteration, from one start beside each centre
    but the farthest out (the farthest few when the degree drops), half way
    to the nearest other centre, heading for the origin with a tilt of up
    to 20 degrees on the golden-angle sequence, so that no two starts
    coincide."""
    order = np.argsort(np.abs(unit), axis=1, kind="stable")[:, :count]
    beside = unit[np.arange(len(unit))[:, None], order]
    gap = np.abs(beside[:, :, None] - unit[:, None, :])
    gap[gap == 0.0] = np.inf  # each start's own centre
    tilt = 0.11 * (_GOLDEN_ANGLE * np.arange(count) % math.tau - math.pi)
    z = beside + 0.5 * gap.min(2) * np.exp(1j * (np.angle(-beside) + tilt))
    return _secular_aberth(z, unit, weights, np.complex128, root_tol)


def _partial_fraction_roots(centers, weights, root_tol):
    """Roots of N = D * sum weights / (z - centers), D = prod(z - centers),
    for each row of a (B, d) stack of configurations whose N share one
    degree.

    Returns (roots, m): the (B, d - 1 - m) roots and the degree drop m.
    N has degree d - 1 - m, where the moment sum weights * centers**m, N's
    leading coefficient, is the first that does not vanish; ValueError if
    that m differs between rows.  Two centres give the one root in closed
    form, exact where iterating would leave rounding noise (the midpoint of
    a symmetric pair is 0, not 1e-16).  Otherwise the roots are started on
    the centred and scaled centres and finished by _secular_aberth on the
    centres as given (only the sum in _REFINE_DTYPE).  Up to _EIG_MAX
    centres with no degree drop (m = 0: the weights are signed
    multiplicities, so their sum is then a nonzero integer) the start is
    _eigen_start's eigenvalue solve, which the finish settles in one or two
    sweeps; above that bound, or when the degree drops, it is
    _aberth_start.  Every step keeps rows apart, so a row's roots are
    bitwise those of a one-row call.  Centres that are not finite, or
    overflow when centred, raise NonConvergence.
    """
    rows, d = centers.shape
    with np.errstate(invalid="ignore", over="ignore"):
        origin = centers.sum(axis=1, keepdims=True) / d
        unit = centers - origin
        spread = np.abs(unit).max(axis=1, keepdims=True)
    if not spread.max() < math.inf:
        raise NonConvergence("non-finite centres")
    spread[spread == 0.0] = 1.0
    unit /= spread
    term = weights
    m = 0
    while m < d - 1:
        vanish = np.count_nonzero(np.abs(term.sum(axis=1)) <= _MOMENT_REL
                                  * np.abs(term).sum(axis=1))
        if not vanish:
            break
        if vanish < rows:
            raise ValueError("the rows' secular equations differ in degree")
        term = term * unit
        m += 1
    count = d - 1 - m
    if count == 0:
        return np.empty((rows, 0), dtype=np.complex128), m
    if d == 2:
        z = np.array([[w @ c[::-1] / w.sum()]
                      for w, c in zip(weights, centers)])
    else:
        if count == d - 1 and d <= _EIG_MAX:
            z = _eigen_start(unit, weights)
        else:
            z = _aberth_start(unit, weights, count, root_tol)
        z = _secular_aberth(origin + spread * z, centers, weights,
                            _REFINE_DTYPE, root_tol).astype(np.complex128)
    return z, m


def log_derivative(f: RationalFunction) -> RationalFunction:
    """f'/f as a rational function, requiring all zeros and poles simple.

    The result has the critical points of f as zeros and the zeros and poles
    of f as (simple) poles.
    """
    pts = f.zeros + f.poles
    if not pts:
        raise ValueError("a constant has identically zero logarithmic derivative")
    centers = np.asarray(pts, dtype=np.complex128)
    if _crowded(centers, CLUSTER_TOL).any():
        raise MultiplicityViolation("zeros and poles must all be simple")
    weights = np.array([1.0] * len(f.zeros) + [-1.0] * len(f.poles),
                       dtype=np.complex128)
    roots, m = _partial_fraction_roots(centers[None], weights[None],
                                       ROOT_TOL)
    lead = complex(weights @ centers ** m)
    return RationalFunction(tuple(roots[0].tolist()), pts, lead)


def rational_product(a: RationalFunction,
                     b: RationalFunction) -> RationalFunction:
    """Product of two rational functions, reduced to lowest form."""
    return _reduced(RationalFunction(a.zeros + b.zeros, a.poles + b.poles,
                                     a.scale * b.scale), CLUSTER_TOL)


def from_points(zeros, poles) -> RationalFunction:
    """Monic rational function with the given zeros and poles, reduced."""
    return _reduced(RationalFunction(tuple(zeros), tuple(poles)), CLUSTER_TOL)


def _reduced(f: RationalFunction, tol: float) -> RationalFunction:
    """f in lowest form: each zero cancels the first remaining pole within
    tol.  f itself comes back when one array test finds no zero within
    2 * tol of a pole (numpy and Python round |z - p| differently)."""
    if not f.zeros or not f.poles:
        return f
    with np.errstate(invalid="ignore", over="ignore"):
        gap = np.abs(np.subtract.outer(np.array(f.zeros), np.array(f.poles)))
    if not (gap <= 2.0 * tol).any():
        return f
    remaining = list(f.poles)
    kept_zeros: list[complex] = []
    for z in f.zeros:
        for i, p in enumerate(remaining):
            if abs(z - p) <= tol:
                del remaining[i]
                break
        else:
            kept_zeros.append(z)
    return RationalFunction(tuple(kept_zeros), tuple(remaining), f.scale)


def log_derivative_values(f: RationalFunction, z):
    """f'/f at z (scalar or array): the value part of log_derivative_field."""
    arr = np.asarray(z, dtype=np.complex128)
    value = log_derivative_field(f, arr.ravel())[0].reshape(arr.shape)
    return complex(value) if arr.ndim == 0 else value


def log_derivative_field(f: RationalFunction, z: np.ndarray):
    """(F, L, least distance from a sample to a point of f) at the 1-d
    samples z: F = f'/f = sum 1/(z - a) - sum 1/(z - b) over zeros a and poles
    b, repeated by multiplicity, and L = sum 1/|z - w|^2 over all of them.
    At most _BLOCK_TERMS (point, sample) terms exist at a time."""
    nz = len(f.zeros)
    pts = np.asarray(f.zeros + f.poles, dtype=np.complex128)[:, None]
    value = np.empty_like(z)
    crowding = np.empty(z.shape)
    nearest = math.inf
    step = max(1, _BLOCK_TERMS // max(len(pts), 1))
    with np.errstate(divide="ignore", invalid="ignore"):   # inf at a point
        for lo in range(0, len(z), step):
            hi = lo + step
            # fill then shift: numpy buffers each broadcast operand, and
            # z - pts would have two, each up to the size of the block
            terms = np.empty((len(pts), len(z[lo:hi])), dtype=np.complex128)
            terms[:] = z[lo:hi]
            terms -= pts
            size = np.abs(terms)
            nearest = min(nearest, float(np.min(size, initial=math.inf)))
            np.reciprocal(terms, out=terms)
            value[lo:hi] = terms[:nz].sum(axis=0) - terms[nz:].sum(axis=0)
            np.square(size, out=size)
            np.reciprocal(size, out=size)
            crowding[lo:hi] = size.sum(axis=0)
    return value, crowding, nearest
