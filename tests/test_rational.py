import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aglucas import (Disk, MultiplicityViolation, NonConvergence,
                     RationalFunction, convex_hull_region, critical_points,
                     distance, from_points, log_derivative,
                     log_derivative_values, offset_contour, poly_roots,
                     rational_product)
from aglucas import rational
from aglucas.rational import _companion_roots, log_derivative_field
from conftest import match_multisets


def sorted_points(points):
    return sorted(points, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def ascending(roots):
    """Ascending coefficients of the monic polynomial with the given roots."""
    return np.poly(roots)[::-1]


class TestPolyRoots:
    def test_real_pair(self):
        pts = sorted_points(poly_roots((-1, 0, 1)).points)
        assert pts[0] == pytest.approx(-1)
        assert pts[1] == pytest.approx(1)

    def test_imaginary_pair(self):
        pts = sorted_points(poly_roots((1, 0, 1)).points)
        assert match_multisets(pts, [1j, -1j], 1e-12)

    def test_wilkinson_style_recovery(self):
        p = (-120, 274, -225, 85, -15, 1)   # (z - 1) ... (z - 5)
        pts = sorted_points(poly_roots(p).points)
        for got, want in zip(pts, [1, 2, 3, 4, 5]):
            assert abs(got - want) < 1e-8

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            poly_roots((0,))

    def test_spread_out_zeros_solved_without_warnings(self):
        # 150 spread-out zeros push |p| at the roots towards 1e232; the
        # companion solve must return finite roots within the residual
        # bound and print no overflow warning
        gen = np.random.default_rng(0)
        p = ascending(
            10 * (gen.standard_normal(150) + 1j * gen.standard_normal(150)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rs = poly_roots(p)
        assert len(rs.points) == 150 and np.isfinite(rs.points).all()
        rmax = max(abs(z) for z in rs.points)
        scale = 0.0
        for c in reversed(p):
            scale = scale * rmax + abs(c)
        # eigenvalues are backward stable in the companion matrix's norm,
        # not coefficient by coefficient; the residual measured 7.9e-8 * scale
        assert rs.residual <= 1e-6 * scale

    def test_non_finite_coefficient_raises_without_warnings(self):
        # the last: a subnormal leading coefficient overflows the companion
        for coeffs in [(1, math.inf, 1), (math.nan, 1, 2), (1, 2, math.inf),
                       (1e-300j, 1, 1e-310)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonConvergence):
                    poly_roots(coeffs)

    def test_roots_at_origin(self):
        assert poly_roots((0, 0, 0, 2)).points == (0j, 0j, 0j)

    def test_zero_leading_coefficients_stripped(self):
        assert poly_roots((0, -1, 1, 0, 0)).points == (0j, 1 + 0j)

    def test_residual_bound_random(self, rng):
        for _ in range(30):
            deg = int(rng.integers(1, 25))
            roots = rng.standard_normal(deg) + 1j * rng.standard_normal(deg)
            p = ascending(roots)
            rs = poly_roots(p)
            rmax = max(1.0, max(abs(z) for z in rs.points))
            scale = 0.0
            for c in reversed(p):
                scale = scale * rmax + abs(c)
            assert rs.residual <= 1e-12 * (deg + 1) * scale


class TestCompanionRoots:
    """_companion_roots solves a (B, deg + 1) stack of coefficient rows as
    companion-matrix eigenvalues in one call."""

    def test_rows_match_one_row_calls_bitwise(self, rng):
        for deg in (1, 3, 6, 17, 40):
            rows = (rng.standard_normal((40, deg + 1))
                    + 1j * rng.standard_normal((40, deg + 1)))
            rows[::7, 0] = 0.0
            roots = _companion_roots(rows)
            assert roots.shape == (40, deg)
            for b in range(40):
                assert np.array_equal(_companion_roots(rows[b:b + 1])[0],
                                      roots[b])

    def test_real_rows_match_one_row_calls_in_conjugate_pairs(self, rng):
        for deg in (1, 3, 6, 17):
            rows = rng.standard_normal((40, deg + 1))
            roots = _companion_roots(rows)
            assert roots.shape == (40, deg)
            for b in range(40):
                assert np.array_equal(_companion_roots(rows[b:b + 1])[0],
                                      roots[b])
            # the real solver pairs complex roots exactly
            assert np.array_equal(np.sort_complex(roots),
                                  np.sort_complex(roots.conj()))

    def test_one_row_matches_poly_roots(self, rng):
        row = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        assert poly_roots(row).points == \
            tuple(_companion_roots(row[None, :])[0].tolist())

    def test_zero_constant_term_gives_origin_root(self):
        rows = np.array([[0, -2, 0, 1], [-1, 0, 0, 1]], dtype=np.complex128)
        roots = _companion_roots(rows)
        assert 0 in roots[0]
        assert match_multisets(roots[0], [0, math.sqrt(2), -math.sqrt(2)],
                               1e-12)
        assert match_multisets(roots[1], np.exp(2j * np.pi * np.arange(3) / 3),
                               1e-12)

    def test_non_finite_row_raises(self):
        rows = np.array([[1, 2, 1], [1, 2, np.inf]], dtype=np.complex128)
        with pytest.raises(NonConvergence):
            _companion_roots(rows)


class TestCriticalPoints:
    @pytest.mark.parametrize("root_tol", [math.nan, math.inf, 0.0, -1.0,
                                          1e-3])
    def test_rejects_root_tol_outside_range(self, root_tol):
        # at root_tol = 1e-2 roots settled with relative residual up to 0.88
        with pytest.raises(ValueError, match="root_tol"):
            critical_points(from_points([1, -1], []), root_tol)

    def test_coarsest_root_tol_still_accurate(self):
        gen = np.random.default_rng(0)
        for n in (8, 20, 60):
            zeros = gen.standard_normal(n) + 1j * gen.standard_normal(n)
            assert critical_points(from_points(zeros, []),
                                   1e-4).residual < 1e-12

    def test_symmetric_quadratic(self):
        f = from_points([1, -1], [])
        assert critical_points(f).points == (0j,)

    def test_moebius_has_none(self):
        f = RationalFunction((0,), (1,), 1)
        assert critical_points(f).points == ()

    def test_zero_on_a_pole_cancels(self):
        # lowest form is (z - 1.05)(z - 5), with one critical point
        f = RationalFunction((1, 1.05, 5), (1,), 1)
        assert critical_points(f).points == pytest.approx((3.025,))

    def test_cubic_example_upper_half_plane(self):
        f = from_points([0, 1, 1j], [])
        pts = critical_points(f).points
        assert len(pts) == 2
        assert all(z.imag > 0 for z in pts)
        want = [0.5690355937288492 + 0.09763107293781749j,
                0.09763107293781749 + 0.5690355937288492j]
        assert match_multisets(pts, want, 1e-9)

    def test_multiple_zero_contributes_coincident_points(self):
        f = RationalFunction((2, 2, 2, 5), (), 1)
        pts = sorted_points(critical_points(f).points)
        assert match_multisets(pts[:2], [2, 2], 1e-9)
        assert pts[2] == pytest.approx(4.25)

    def test_double_pole_is_not_critical(self):
        f = RationalFunction((0,), (3, 3), 1)
        pts = critical_points(f).points
        for z in pts:
            assert abs(z - 3) > 1e-6

    def test_coincident_pairs_exact(self):
        # two double zeros: each contributes itself once, and the remaining
        # critical point is the exact midpoint, as for the simple pair
        pts = critical_points(RationalFunction((1, 1, -1, -1), (), 1)).points
        assert sorted_points(pts) == [-1, 0j, 1]

    def test_coincident_zeros_against_reduced_numerator(self):
        zeros = (0.5, 0.5, 0.5, -1, 1j, 1j)
        centers, weights = [0.5, -1, 1j], [3, 1, 2]
        reduced = np.zeros(1, dtype=complex)
        for j, w in enumerate(weights):
            others = [c for i, c in enumerate(centers) if i != j]
            reduced = np.polyadd(reduced, w * np.poly(others))
        want = [0.5, 0.5, 1j] + list(np.roots(reduced))
        crit = critical_points(RationalFunction(zeros, (), 1))
        assert match_multisets(crit.points, want, 1e-9)

    def test_degree_drop_against_np_roots(self, rng):
        # equal zero and pole counts: sum of the weights is 0, so N'D - ND'
        # loses its top coefficient and f has 2n - 2 critical points
        for n in (2, 3, 4, 5):
            zeros = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            poles = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            num, den = np.poly(zeros), np.poly(poles)
            wronskian = np.polysub(np.polymul(np.polyder(num), den),
                                   np.polymul(num, np.polyder(den)))
            f = RationalFunction(tuple(zeros), tuple(poles), 1)
            crit = critical_points(f)
            assert len(crit.points) == 2 * n - 2
            assert match_multisets(crit.points, np.roots(wronskian), 1e-8)
            lead = wronskian[np.flatnonzero(wronskian)[0]]
            assert log_derivative(f).scale == pytest.approx(lead, rel=1e-9)

    def test_degree_drop_by_two(self):
        # (z^2 - 1)/(z^2 + 1): f'/f = 4z / ((z^2 - 1)(z^2 + 1))
        f = RationalFunction((1, -1), (1j, -1j), 1)
        assert match_multisets(critical_points(f).points, [0], 1e-12)
        assert log_derivative(f).scale == pytest.approx(4)

    def test_gauss_lucas_hull_random(self, rng):
        for _ in range(25):
            deg = int(rng.integers(2, 30))
            zeros = rng.uniform(-3, 3, deg) + 1j * rng.uniform(-3, 3, deg)
            hull = convex_hull_region(zeros)
            crit = critical_points(RationalFunction(tuple(zeros), (), 1))
            assert len(crit.points) == deg - 1
            for c in crit.points:
                assert distance(c, hull)[0] <= 1e-9


def _signed_centres(gen, d):
    """d distinct Gaussian centres, each a zero of multiplicity 1-3 or a pole
    of multiplicity 1-2, drawn until the weights do not sum to 0."""
    while True:
        centres = gen.standard_normal(d) + 1j * gen.standard_normal(d)
        weights = gen.choice([1, 1, 2, 3, -1, -2], d)
        if weights.sum() != 0:
            return centres, weights


def _from_weights(centres, weights):
    zeros = [c for c, w in zip(centres, weights) for _ in range(max(w, 0))]
    poles = [c for c, w in zip(centres, weights) for _ in range(max(-w, 0))]
    return RationalFunction(tuple(zeros), tuple(poles), 1)


def _aberth_path(monkeypatch, f):
    """critical_points(f) with every solve sent down the Aberth start."""
    with monkeypatch.context() as m:
        m.setattr(rational, "_EIG_MAX", 2)
        return critical_points(f)


class TestEigenStart:
    """Small secular solves start from diag(u) - v 1^T's eigenvalues."""

    @pytest.mark.parametrize("d", range(3, rational._EIG_MAX + 2))
    def test_matches_aberth_path(self, monkeypatch, d):
        gen = np.random.default_rng(1000 + d)
        for _ in range(10):
            centres, weights = _signed_centres(gen, d)
            f = _from_weights(centres, weights)
            got, want = critical_points(f), _aberth_path(monkeypatch, f)
            spread = float(np.abs(centres - centres.mean()).max())
            assert len(got.points) == int(np.maximum(weights, 1).sum()) - 1
            assert match_multisets(got.points, want.points, 1e-12 * spread)
            # residual: the relative secular residual at the distinct roots
            extra = np.asarray(got.points[len(got.points) - d + 1:])
            terms = weights / np.subtract.outer(extra, centres)
            resid = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
            assert got.residual == pytest.approx(float(resid.max()))
            assert got.residual <= 1e-12

    def test_tight_cluster_matches_aberth_path(self, monkeypatch):
        gen = np.random.default_rng(7)
        for d in (5, 8, 12, rational._EIG_MAX):
            cluster = 0.3 + 1e-4 * (gen.random(d - 3) + 1j * gen.random(d - 3))
            zeros = np.concatenate([cluster, [2.0, -1.5 + 1j, 1j]])
            f = RationalFunction(tuple(zeros), (-0.7 - 2j,), 1)
            got, want = critical_points(f), _aberth_path(monkeypatch, f)
            assert match_multisets(got.points, want.points, 1e-12 * 3.0)
            # float64 points beside the cluster cancel in the residual sum
            assert got.residual <= 1e-10

    @pytest.mark.parametrize("n", range(3, 9))
    def test_regular_polygon_critical_points_at_centre(self, n):
        # p = (z - c)^n - r^n: all n - 1 critical points sit at c; rounding
        # the zeros to doubles splits that point by about r eps^(1 / (n - 1))
        c, r = 0.3 - 0.2j, 1.7
        zeros = c + r * np.exp(2j * np.pi * np.arange(n) / n)
        pts = np.asarray(critical_points(
            RationalFunction(tuple(zeros), (), 1)).points)
        assert len(pts) == n - 1
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(pts - c)) <= 2.0 * r * eps ** (1.0 / (n - 1))

    @pytest.mark.parametrize("d", range(3, rational._EIG_MAX + 1))
    def test_collinear_real_zeros_interlace(self, d):
        zeros = np.sort(np.random.default_rng(d).uniform(-2, 5, d))
        pts = np.asarray(critical_points(
            RationalFunction(tuple(zeros), (), 1)).points)
        assert np.max(np.abs(pts.imag)) <= 1e-12 * np.ptp(zeros)
        crit = np.sort(pts.real)
        assert np.all(zeros[:-1] < crit) and np.all(crit < zeros[1:])

    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1, math.inf)])
    @pytest.mark.parametrize("d", [4, rational._EIG_MAX + 3])
    def test_non_finite_centre_raises(self, bad, d):
        zeros = tuple(range(d - 1)) + (bad,)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence):
                critical_points(RationalFunction(zeros, (), 1))

    def test_eigenvalue_failure_raises(self, monkeypatch):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(NonConvergence):
            critical_points(RationalFunction((0, 1, 1j), (), 1))

    def test_both_paths_exercised(self, monkeypatch):
        calls = []
        for name in ("_eigen_start", "_aberth_start"):
            def spy(*args, _name=name, _inner=getattr(rational, name)):
                calls.append(_name)
                return _inner(*args)
            monkeypatch.setattr(rational, name, spy)

        def path(zeros, poles=()):
            calls.clear()
            critical_points(RationalFunction(tuple(zeros), tuple(poles), 1))
            return calls[:]

        big = rational._EIG_MAX
        assert path(range(3)) == ["_eigen_start"]
        assert path(range(big)) == ["_eigen_start"]
        assert path(range(big + 1)) == ["_aberth_start"]
        # a degree drop (weights summing to 0) and two centres keep their paths
        assert path((0.1, 0.2), (0.5, 0.7)) == ["_aberth_start"]
        assert path((0.1, 0.2)) == []


class TestScreens:
    """_cluster and _reduced skip their loops when nothing is near."""

    @staticmethod
    def _loop_cluster(points, tol):
        centers, counts = [], []
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

    @staticmethod
    def _loop_reduced(f, tol):
        remaining, kept = list(f.poles), []
        for z in f.zeros:
            for i, p in enumerate(remaining):
                if abs(z - p) <= tol:
                    del remaining[i]
                    break
            else:
                kept.append(z)
        return RationalFunction(tuple(kept), tuple(remaining), f.scale)

    def test_cluster_matches_loop(self, rng):
        tol = rational.CLUSTER_TOL
        for n in (0, 1, 2, 5, 30):
            spread = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            half = spread[:n // 2]
            near = np.concatenate(
                [half, half + 0.9 * tol * np.exp(1j * rng.random(n // 2))])
            # pairs at tol and at 2 * tol, among enough points to be screened
            edge = [0j, complex(tol), 1 + 0j, 1 + 2 * tol * 1j] + [
                5 + 1j * k for k in range(rational._SCREEN_MIN)]
            for pts in (tuple(spread.tolist()), tuple(near.tolist()),
                        tuple(edge)):
                assert rational._cluster(pts, tol) == \
                    self._loop_cluster(pts, tol)

    def test_reduced_returns_f_when_nothing_cancels(self, rng):
        zeros = rng.standard_normal(28) + 1j * rng.standard_normal(28)
        f = RationalFunction(tuple(zeros), (5 + 5j,), 1)
        assert rational._reduced(f, rational.CLUSTER_TOL) is f
        g = RationalFunction(tuple(zeros), (), 1)
        assert rational._reduced(g, rational.CLUSTER_TOL) is g

    def test_reduced_matches_loop(self, rng):
        tol = rational.CLUSTER_TOL
        zeros = rng.standard_normal(10) + 1j * rng.standard_normal(10)
        for poles in ([zeros[3] + 0.5 * tol, zeros[3], 7.0],
                      [zeros[0] + 0.9 * tol, zeros[1] + 1.5 * tol],
                      [complex(zeros[2]), zeros[2]]):
            f = RationalFunction(tuple(zeros), tuple(poles), 2)
            assert rational._reduced(f, tol) == self._loop_reduced(f, tol)


def _high_degree_zeros(family, n, seed):
    gen = np.random.default_rng(seed)
    if family == "equispaced":
        return np.linspace(0.0, 1.0, n) + 0j
    if family == "uniform01":
        return gen.random(n) + 0j
    if family == "box":
        return 0.01 * (gen.random(n) + 1j * gen.random(n))
    return gen.standard_normal(n) + 1j * gen.standard_normal(n)


class TestHighDegree:
    """Collinear, clustered and Gaussian zero sets of high degree.  The
    seeded draws at n = 75 and 80 are ones on which an Aberth iteration on
    the expanded coefficients of p' does not converge."""

    @pytest.mark.parametrize("family,n,seed", [
        ("equispaced", 80, 0), ("equispaced", 90, 0), ("equispaced", 200, 0),
        ("uniform01", 80, 10), ("uniform01", 80, 21), ("uniform01", 80, 45),
        ("uniform01", 90, 0), ("uniform01", 200, 0),
        ("box", 75, 89), ("box", 75, 154), ("box", 80, 1), ("box", 80, 3),
        ("box", 80, 13), ("box", 80, 28), ("box", 80, 43), ("box", 90, 0),
        ("box", 200, 0), ("gauss", 400, 7)])
    def test_all_critical_points(self, family, n, seed):
        zeros = _high_degree_zeros(family, n, seed)
        crit = critical_points(RationalFunction(tuple(zeros), (), 1))
        pts = np.asarray(crit.points)
        assert len(pts) == n - 1
        spread = float(np.ptp(zeros.real) + np.ptp(zeros.imag))
        if family in ("equispaced", "uniform01"):
            assert np.max(np.abs(pts.imag)) <= 1e-9 * spread
            za, zc = np.sort(zeros.real), np.sort(pts.real)
            assert np.all(za[:-1] < zc) and np.all(zc < za[1:])
        else:
            hull = convex_hull_region(zeros)
            assert max(distance(c, hull)[0] for c in pts) <= 1e-9
        # the first two power sums are fixed by the zeros' (Vieta); a root
        # found twice while another is missing moves them
        a = zeros - zeros.mean()
        c = pts - zeros.mean()
        e1, e2 = a.sum(), (a.sum() ** 2 - (a ** 2).sum()) / 2
        assert abs(c.sum() - (n - 1) / n * e1) <= 1e-9 * spread
        want_p2 = ((n - 1) / n * e1) ** 2 - 2 * (n - 2) / n * e2
        assert abs((c ** 2).sum() - want_p2) <= 1e-9 * spread ** 2 * n
        terms = 1.0 / (pts[:, None] - zeros[None, :])
        secular = np.abs(terms.sum(axis=1)) / np.abs(terms).sum(axis=1)
        assert crit.residual == pytest.approx(float(secular.max()))
        assert crit.residual <= 1e-10


def _secular_roots_60_digits(centres, weights):
    """Roots of sum weights / (z - centres) (weights not summing to 0), from
    60-digit roots of the expanded numerator sum_j w_j prod_{k != j}(z - c_k).
    """
    import mpmath

    with mpmath.workdps(60):
        cs = [mpmath.mpc(c.real, c.imag) for c in centres]
        numerator = [mpmath.mpc(0)] * len(cs)    # descending, degree d - 1
        for j, w in enumerate(weights):
            p = [mpmath.mpc(1)]
            for k, c in enumerate(cs):
                if k != j:
                    p = [a - c * b for a, b in zip(p + [0], [0] + p)]
            numerator = [x + int(w) * y for x, y in zip(numerator, p)]
        roots = mpmath.polyroots(numerator, maxsteps=400, extraprec=400)
        return [complex(r) for r in roots]


class _SubtractSpy:
    """Stands in for numpy inside rational, recording the arguments of every
    np.subtract.outer call; np.subtract itself passes through."""

    def __init__(self):
        self.calls = []
        self.subtract = self

    def __call__(self, *args, **kwargs):
        return np.subtract(*args, **kwargs)

    def outer(self, a, b, out=None):
        self.calls.append((a.copy(), b.copy()))
        return np.subtract.outer(a, b, out=out)

    def __getattr__(self, name):
        return getattr(np, name)


class TestSecularAberth:
    """The solver evaluates only R in extended precision and iterates only
    the roots that have not settled."""

    @pytest.mark.parametrize("d", [20, 40])
    def test_matches_60_digit_critical_points(self, d):
        gen = np.random.default_rng(500 + d)
        centres, weights = _signed_centres(gen, d)
        assert (weights < 0).any() and (weights > 1).any()
        got = critical_points(_from_weights(centres, weights)).points
        repeated = [c for c, w in zip(centres, weights) for _ in range(w - 1)]
        want = repeated + _secular_roots_60_digits(centres, weights)
        spread = float(np.abs(centres - centres.mean()).max())
        assert match_multisets(got, want, 1e-13 * spread)

    @pytest.mark.parametrize("dtype", [np.complex128, rational._REFINE_DTYPE])
    def test_settled_roots_retire_unchanged(self, monkeypatch, dtype):
        gen = np.random.default_rng(31)
        centres, weights = _signed_centres(gen, 20)
        exact = np.asarray(
            critical_points(_from_weights(centres, weights)).points[-19:])
        # starts 1e-14 to 1e-2 off, so that the roots settle sweeps apart
        z0 = exact + np.logspace(-14, -2, 19) * np.exp(2j * gen.random(19))
        spy = _SubtractSpy()
        monkeypatch.setattr(rational, "np", spy)
        got = rational._secular_aberth(z0[None], centres[None],
                                       weights.astype(complex)[None],
                                       dtype, rational.ROOT_TOL)[0]
        monkeypatch.undo()
        assert np.abs(got - exact).max() <= 1e-12
        # each sweep's root-root call gets (unsettled roots, all roots)
        sweeps = [call for call in spy.calls if len(call[1]) == 19]
        final = got.astype(np.complex128)
        live = [np.isin(roots, rows) for rows, roots in sweeps]
        assert live[0].all() and 1 < len(sweeps) <= 200
        assert any(0 < m.sum() < 19 for m in live)
        for k in range(1, len(sweeps)):
            assert not (live[k] & ~live[k - 1]).any()
            # a root that sat out sweep k settled at some sweep j < k; it has
            # kept that sweep's value, bitwise, to the end
            out = ~live[k]
            assert np.array_equal(sweeps[k][1][out], final[out])

    def test_double_precision_finish_agrees(self, monkeypatch):
        gen = np.random.default_rng(8)
        for d in (5, 12, 20, 40):
            centres, weights = _signed_centres(gen, d)
            f = _from_weights(centres, weights)
            wide = critical_points(f)
            monkeypatch.setattr(rational, "_REFINE_DTYPE", np.complex128)
            narrow = critical_points(f)
            monkeypatch.undo()
            spread = float(np.abs(centres - centres.mean()).max())
            assert match_multisets(wide.points, narrow.points, 1e-12 * spread)
            assert narrow.residual <= 1e-12

    @pytest.mark.parametrize("dtype", [np.complex128, rational._REFINE_DTYPE])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1, math.inf)])
    def test_non_finite_centres_raise_without_warnings(self, dtype, bad):
        centres = np.append(np.arange(19.0), bad).astype(complex)
        z0 = np.arange(19) + 0.5 + 0.1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence):
                rational._secular_aberth(z0[None], centres[None],
                                         np.ones((1, 20), complex),
                                         dtype, rational.ROOT_TOL)


class TestStackedRows:
    """_partial_fraction_roots solves a (B, d) stack row by row: each row's
    roots are bitwise those of a one-row call (critical_points derives its
    residual from those roots)."""

    @pytest.mark.parametrize("rows", [1, 2, 17])
    @pytest.mark.parametrize("d", [3, 5, 8, 16, 17, 24])
    def test_rows_match_critical_points_bitwise(self, rows, d):
        gen = np.random.default_rng(100 * rows + d)
        centres = gen.standard_normal((rows, d)) + 1j * gen.standard_normal(
            (rows, d))
        poles = d // 3                # signed weights, no degree drop
        weights = np.ones((rows, d), dtype=complex)
        weights[:, d - poles:] = -1
        roots, m = rational._partial_fraction_roots(centres, weights,
                                                    rational.ROOT_TOL)
        assert m == 0 and roots.shape == (rows, d - 1)
        for row, got in zip(centres, roots):
            f = RationalFunction(tuple(row[:d - poles]), tuple(row[d - poles:]))
            want = np.array(critical_points(f).points)
            assert np.array_equal(got.view(float), want.view(float))

    def test_rows_retire_apart(self):
        # a row started on its roots settles at once; the stack still
        # finishes the others as one-row calls would
        gen = np.random.default_rng(4)
        centres = gen.standard_normal((3, 6)) + 1j * gen.standard_normal(
            (3, 6))
        weights = np.ones((3, 6), dtype=complex)
        exact = rational._partial_fraction_roots(centres, weights,
                                                 rational.ROOT_TOL)[0]
        start = exact + 1e-3
        start[1] = exact[1]
        got = rational._secular_aberth(start, centres, weights,
                                       rational._REFINE_DTYPE,
                                       rational.ROOT_TOL)
        for b in range(3):
            alone = rational._secular_aberth(start[b:b + 1], centres[b:b + 1],
                                             weights[b:b + 1],
                                             rational._REFINE_DTYPE,
                                             rational.ROOT_TOL)
            assert np.array_equal(got[b], alone[0])

    def test_rows_of_different_degree_rejected(self):
        centres = np.array([[0, 1, 2j], [0, 1, 2j]], dtype=complex)
        weights = np.array([[1, 1, 1], [1, 1, -2]], dtype=complex)
        with pytest.raises(ValueError):
            rational._partial_fraction_roots(centres, weights,
                                             rational.ROOT_TOL)


class TestLogDerivative:
    def test_repeated_zero_rejected(self):
        with pytest.raises(MultiplicityViolation):
            log_derivative(RationalFunction((0, 0), (), 1))

    def test_moebius_ratio(self):
        ld = log_derivative(RationalFunction((1,), (-1,), 1))
        assert ld.zeros == ()
        assert ld.scale == pytest.approx(2)
        assert match_multisets(ld.poles, [1, -1], 1e-12)

    def test_symmetric_quadratic(self):
        ld = log_derivative(from_points([1, -1], []))
        assert match_multisets(ld.zeros, [0], 1e-12)
        assert match_multisets(ld.poles, [1, -1], 1e-12)
        assert ld.scale == pytest.approx(2)

    def test_matches_critical_points_random(self, rng):
        for _ in range(20):
            nz = int(rng.integers(1, 8))
            npole = int(rng.integers(0, 4))
            pts = rng.standard_normal(nz + npole) * 2 + 2j * rng.standard_normal(nz + npole)
            f = RationalFunction(tuple(pts[:nz]), tuple(pts[nz:]), 1)
            ld = log_derivative(f)
            crit = critical_points(f)
            assert match_multisets(ld.zeros, crit.points, 1e-8)
            assert match_multisets(ld.poles, f.zeros + f.poles, 1e-12)
            # independent check: f'/f vanishes at every reported zero
            for z in ld.zeros:
                fz = log_derivative_values(f, z)
                witness = sum(1 / abs(z - w) for w in f.zeros + f.poles)
                assert abs(fz) <= 1e-8 * witness


def _per_point_field(zeros, poles, samples):
    """f'/f, its slope and the nearest sample-to-point distance, summed one
    point at a time in Python complex arithmetic."""
    values, slopes = [], []
    for z in samples.tolist():
        values.append(sum(1 / (z - a) for a in zeros)
                      - sum(1 / (z - b) for b in poles))
        slopes.append(sum(1 / (z - b) ** 2 for b in poles)
                      - sum(1 / (z - a) ** 2 for a in zeros))
    nearest = min((abs(z - w) for z in samples.tolist()
                   for w in zeros + poles), default=math.inf)
    return np.array(values), np.array(slopes), nearest


class TestLogDerivativeField:
    def _check(self, f, samples):
        value, slope, nearest = log_derivative_field(f, samples)
        ref_value, ref_slope, ref_nearest = _per_point_field(
            f.zeros, f.poles, samples)
        # relative to the sum of the terms' magnitudes, the scale of the
        # rounding error whatever cancellation the signed sum has
        pts = np.asarray(f.zeros + f.poles)
        dist = np.abs(samples[:, None] - pts[None, :])
        assert np.all(np.abs(value - ref_value)
                      <= 1e-13 * (1 / dist).sum(axis=1))
        assert np.all(np.abs(slope - ref_slope)
                      <= 1e-13 * (1 / dist ** 2).sum(axis=1))
        assert nearest == ref_nearest

    def test_zeros_and_poles(self, rng):
        f = RationalFunction(tuple(rng.standard_normal(6)
                                   + 1j * rng.standard_normal(6)),
                             tuple(rng.standard_normal(3)
                                   + 1j * rng.standard_normal(3)), 2.0)
        self._check(f, 4.0 * np.exp(2j * np.pi * np.arange(300) / 300))

    def test_repeated_points(self):
        f = RationalFunction((0.5, 0.5, 0.5, -0.25j), (1.5j, 1.5j, -2.0), 1)
        self._check(f, np.linspace(-3 - 3j, 3 + 1j, 257))

    def test_contour_longer_than_one_block(self, rng, monkeypatch):
        # 64 terms per block: 6 samples of 10 points, so 51 blocks
        monkeypatch.setattr(rational, "_BLOCK_TERMS", 64)
        f = RationalFunction(tuple(rng.standard_normal(7)
                                   + 1j * rng.standard_normal(7)),
                             tuple(rng.standard_normal(3)
                                   + 1j * rng.standard_normal(3)), 1)
        self._check(f, offset_contour(Disk(0, 4), 0.5, 301).samples)

    def test_poles_only_and_constant(self):
        samples = np.array([1 + 1j, -2.0, 3j])
        self._check(RationalFunction((), (0.5, -0.5j), 1), samples)
        value, slope, nearest = log_derivative_field(
            RationalFunction((), (), 3), samples)
        assert np.all(value == 0) and np.all(slope == 0)
        assert nearest == math.inf

    def test_values_keep_input_shape(self):
        f = RationalFunction((0.0, 1j), (2.0,), 1)
        z = np.array([[1.0 + 1j, -1.0], [3j, 0.5 - 2j]])
        grid = log_derivative_values(f, z)
        assert grid.shape == (2, 2)
        for index in np.ndindex(z.shape):
            assert grid[index] == log_derivative_values(f, complex(z[index]))
        assert isinstance(log_derivative_values(f, 1.0 + 1j), complex)

    def test_terms_held_one_block_at_a_time(self):
        # a contour refined to 2^15 samples around 40 points: the full
        # (points x samples) matrix would take 20 MB
        f = RationalFunction(tuple(np.exp(2j * np.pi * np.arange(40) / 40)),
                             (), 1)
        samples = offset_contour(Disk(0, 1), 1.0, 2 ** 15).samples
        log_derivative_field(f, samples)
        tracemalloc.start()
        try:
            log_derivative_field(f, samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of 2^15 terms (512 KB), numpy's broadcast buffer and
        # |terms| stay under 2 MB beside the two outputs
        assert peak <= 2 * samples.nbytes + 2 * 2 ** 20


class TestProductAndConstruction:
    def test_zero_pole_cancellation(self):
        a = RationalFunction((0,), (), 1)
        b = RationalFunction((), (0,), 1)
        prod = rational_product(a, b)
        assert prod.is_constant

    def test_union_of_zeros(self):
        prod = rational_product(RationalFunction((1,), (), 1),
                                RationalFunction((2,), (), 1))
        assert match_multisets(prod.zeros, [1, 2], 1e-12)

    def test_disjoint_zero_pole_union(self):
        prod = rational_product(RationalFunction((0, 1), (), 1),
                                RationalFunction((), (3,), 1))
        assert match_multisets(prod.zeros, [0, 1], 1e-12)
        assert match_multisets(prod.poles, [3], 1e-12)

    def test_from_points_monic_quadratic(self):
        f = from_points([1, -1], [])
        assert f.scale == 1
        assert f.zeros == (1, -1) and f.poles == ()

    def test_from_points_cancellation(self):
        f = from_points([0], [0])
        assert f.is_constant

    def test_product_rule_identity_random(self, rng):
        for _ in range(5):
            a = RationalFunction(tuple(rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                                 tuple(rng.standard_normal(1) + 1j * rng.standard_normal(1)), 1)
            b = RationalFunction(tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)),
                                 tuple(rng.standard_normal(2) + 1j * rng.standard_normal(2)), 1)
            prod = rational_product(a, b)
            ld = log_derivative(prod)
            samples = 5 * (rng.standard_normal(100) + 1j * rng.standard_normal(100)) + 4j
            # ld in product form: scale * prod(z - zero) / prod(z - pole)
            lhs = ld.scale * (
                np.prod(samples - np.array(ld.zeros)[:, None], axis=0)
                / np.prod(samples - np.array(ld.poles)[:, None], axis=0))
            rhs = log_derivative_values(a, samples) + log_derivative_values(b, samples)
            mask = np.abs(rhs) > 1e-12
            assert np.all(np.abs(lhs[mask] - rhs[mask]) <= 1e-8 * np.abs(rhs[mask]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
def test_critical_count_polynomial(deg, seed):
    gen = np.random.default_rng(seed)
    zeros = gen.uniform(-2, 2, deg) + 1j * gen.uniform(-2, 2, deg)
    crit = critical_points(RationalFunction(tuple(zeros), (), 1))
    assert len(crit.points) == deg - 1


def test_scale_must_be_nonzero():
    with pytest.raises(ValueError):
        RationalFunction((), (), 0)
