"""Computations made apart from aglucas, and the checks built on them.

Nothing here imports aglucas.  Regions are described by plain tuples:
("disk", center, radius), ("segment", a, b) or ("polygon", (v0, v1, ...))
with counterclockwise vertices.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def region_distances(points, region) -> np.ndarray:
    """Euclidean distance from each point to a disk, segment or polygon."""
    z = np.asarray(points, dtype=np.complex128)
    kind = region[0]
    if kind == "disk":
        return np.maximum(np.abs(z - region[1]) - region[2], 0.0)
    if kind == "segment":
        return _segment_distances(z, region[1], region[2])
    verts = region[1]
    inside = np.ones(z.shape, dtype=bool)
    best = np.full(z.shape, np.inf)
    for u, w in zip(verts, verts[1:] + verts[:1]):
        inside &= ((w - u).conjugate() * (z - u)).imag >= 0.0
        best = np.minimum(best, _segment_distances(z, u, w))
    return np.where(inside, 0.0, best)


def _segment_distances(z, a, b):
    ab = b - a
    if ab == 0:
        return np.abs(z - a)
    t = np.clip(((z - a) * ab.conjugate()).real / abs(ab) ** 2, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def critical_points(zeros, poles=()) -> np.ndarray:
    """Finite critical points of prod(z - zeros) / prod(z - poles): the roots
    of N'D - ND', with multiplicity.

    Exactly repeated points are merged into one point of weight +-m; a zero of
    multiplicity m contributes m - 1 critical points at itself.  The remaining
    ones are the roots of R(z) = sum w / (z - c) over the distinct points c.
    With W = sum w and the origin moved to o, z * R(z) / W is the
    characteristic polynomial of (I - 1 w^T / W) diag(c - o) divided by its
    leading coefficient, so numpy's eigvals gives the roots plus one spurious
    eigenvalue at o.  o is placed a thousand spans away so that eigenvalue is
    the one nearest o.  Two Newton steps on R polish the rest.
    """
    weight: dict[complex, float] = {}
    for p in zeros:
        weight[complex(p)] = weight.get(complex(p), 0.0) + 1.0
    for p in poles:
        weight[complex(p)] = weight.get(complex(p), 0.0) - 1.0
    centers = np.array([c for c, w in weight.items() if w != 0],
                       dtype=np.complex128)
    w = np.array([weight[c] for c in centers])
    repeated = [c for c, m in weight.items() for _ in range(int(m) - 1)]
    total = w.sum()
    if len(centers) < 2:
        return np.array(repeated, dtype=np.complex128)
    if total == 0:
        raise ValueError("degree drop (equal zero and pole counts) "
                         "is outside the reference's scope")
    span = float(np.max(np.abs(centers - centers.mean()))) + 1.0
    origin = centers.mean() + 1e3 * span * complex(math.cos(0.7),
                                                   math.sin(0.7))
    shifted = centers - origin
    matrix = (np.eye(len(w)) - np.outer(np.ones(len(w)), w) / total) \
        * shifted[None, :]
    eig = np.linalg.eigvals(matrix)
    roots = np.delete(eig, np.argmin(np.abs(eig))) + origin
    for _ in range(2):
        inv = 1.0 / (roots[:, None] - centers[None, :])
        roots = roots - (inv @ w) / (-(inv * inv) @ w)
    return np.concatenate([np.array(repeated, dtype=np.complex128), roots])


def match_multisets(got, want, tol: float) -> float:
    """Largest distance in the best one-to-one pairing; raises if the sizes
    differ or a pair is farther apart than tol."""
    from scipy.optimize import linear_sum_assignment

    got = np.asarray(got, dtype=np.complex128)
    want = np.asarray(want, dtype=np.complex128)
    if got.shape != want.shape:
        raise CheckFailed(f"{len(got)} critical points, expected {len(want)}")
    if not len(got):
        return 0.0
    cost = np.abs(got[:, None] - want[None, :])
    rows, cols = linear_sum_assignment(cost)
    worst = float(cost[rows, cols].max())
    if worst > tol:
        raise CheckFailed(f"critical point off by {worst:.3e} (tol {tol:.1e})")
    return worst


def _scale(points) -> float:
    return max(1.0, float(np.max(np.abs(np.asarray(points)))))


def check_verdict(zeros, poles, region, k, report) -> None:
    """agl_report on an instance that satisfies the paper's inequality."""
    if not report.holds:
        raise CheckFailed("verdict does not hold above the sufficient eps")
    want = critical_points(zeros, poles)
    tol = 1e-8 * _scale(list(zeros) + list(poles))
    match_multisets(report.critical_points, want, tol)
    expected = float(np.sort(region_distances(want, region))[k - 2])
    if abs(report.required_epsilon - expected) > tol:
        raise CheckFailed(f"required_epsilon {report.required_epsilon!r}, "
                          f"expected {expected!r}")


def check_certificate(zeros, poles, region, eps, k, lower_bound,
                      valid) -> None:
    """A certificate's lower bound against an independent count.

    The count leaves out critical points within 1e-6 * eps of the eps
    boundary; certified points lie inside the contour, at least eps/20
    inside that boundary, so none of them is left out.
    """
    if not valid or lower_bound < k - 1:
        raise CheckFailed(f"certificate bound {lower_bound} below k-1={k - 1}")
    dist = region_distances(critical_points(zeros, poles), region)
    count = int(np.count_nonzero(dist < eps * (1.0 - 1e-6)))
    if lower_bound > count:
        raise CheckFailed(f"certified {lower_bound} critical points, "
                          f"independent count {count}")


def check_polynomial_critical(zeros, points) -> None:
    """Gauss-Lucas, interlacing on a line, the secular residual and a
    one-to-one match with the reference critical points.

    points must be the n - 1 critical points of the polynomial with the
    given (distinct) zeros.  The match catches what the properties cannot:
    two points converged to one root while another root is missing.
    """
    a = np.asarray(zeros, dtype=np.complex128)
    c = np.asarray(points, dtype=np.complex128)
    if len(c) != len(a) - 1:
        raise CheckFailed(f"{len(c)} critical points for {len(a)} zeros")
    spread = float(np.ptp(a.real) + np.ptp(a.imag))
    tol = 1e-9 * spread
    if np.all(a.imag == a.imag[0]):
        if float(np.max(np.abs(c.imag - a.imag[0]))) > tol:
            raise CheckFailed("critical points of collinear zeros "
                              "left the line")
        za, zc = np.sort(a.real), np.sort(c.real)
        if not (np.all(za[:-1] < zc) and np.all(zc < za[1:])):
            raise CheckFailed("critical points do not interlace the zeros")
    else:
        from scipy.spatial import ConvexHull

        hull = ConvexHull(np.column_stack([a.real, a.imag]))
        side = hull.equations[:, :2] @ np.vstack([c.real, c.imag]) \
            + hull.equations[:, 2:3]
        if float(side.max()) > tol:
            raise CheckFailed(f"critical point {float(side.max()):.2e} "
                              "outside the hull of the zeros")
    inv = 1.0 / (c[:, None] - a[None, :])
    resid = np.abs(inv.sum(axis=1)) / np.abs(inv).sum(axis=1)
    if float(resid.max()) > 1e-8:
        raise CheckFailed(f"secular residual {float(resid.max()):.2e}")
    match_multisets(c, critical_points(a), tol)


def kakeya(n: int) -> float:
    return 1.0 / math.sin(math.pi / n) - 1.0


def disk_search_value(zeros, k: int = 2) -> float:
    """(k-1)-th smallest distance to the unit disk of the critical points of
    prod(z - zeros).

    The polynomial np.polyder(np.poly(zeros)) is formed and solved in 60-digit
    arithmetic: near-extremal witnesses have a near-degenerate cluster of
    critical points, and numpy's double-precision np.roots misses the value
    by up to 2e-2 at n = 8.
    """
    import mpmath

    with mpmath.workdps(60):
        coeffs = [mpmath.mpc(1)]
        for z in zeros:
            a = mpmath.mpc(z.real, z.imag)
            coeffs = [x - a * y for x, y in zip(coeffs + [0], [0] + coeffs)]
        n = len(coeffs) - 1
        deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
        roots = mpmath.polyroots(deriv, maxsteps=400, extraprec=400)
        dist = sorted(max(abs(complex(r)) - 1.0, 0.0) for r in roots)
    return dist[k - 2]


KAKEYA_TOL = 1e-6


def check_search(n: int, value: float, zeros) -> None:
    """search_psi(n, 2, unit disk): Kakeya's value is exact for k = 2."""
    target = kakeya(n)
    if value > target + KAKEYA_TOL:
        raise CheckFailed(f"value {value!r} above Kakeya's {target!r}")
    if value < target - 1e-3:
        raise CheckFailed(f"value {value!r} more than 1e-3 below {target!r}")
    z = np.asarray(zeros, dtype=np.complex128)
    if len(z) != n or int(np.count_nonzero(np.abs(z) <= 1.0 + 1e-9)) < 2:
        raise CheckFailed("witness lacks two zeros in the disk")
    independent = disk_search_value(z)
    if abs(independent - value) > 1e-5:
        raise CheckFailed(f"witness value {independent!r}, reported {value!r}")
