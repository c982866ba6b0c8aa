import json
import math
from pathlib import Path

import numpy as np
import pytest

from aglucas import (Disk, HypothesisUnmet, InsufficientCriticalPoints,
                     NonConvergence, RationalFunction, Segment,
                     asymptotic_experiment, conjecture_probe,
                     critical_points, from_points,
                     psi1_biernacki, psi1_disk_bound, psi1_kakeya,
                     psi1_marden, random_instance, required_epsilon,
                     search_psi)
from aglucas import extremal
from aglucas.extremal import _ArcFamily
from aglucas.rational import _REFINE_DTYPE

UNIT_DISK = Disk(0, 1)


class TestRequiredEpsilonEdges:
    def test_moebius_has_no_critical_points(self):
        # two zeros over two poles: the degree drops (weights sum to 0) and
        # f still has two critical points, so it is no Moebius failure
        f = RationalFunction((0.1, 0.2), (0.5, 0.7), 1)
        assert sorted(z.real for z in critical_points(f).points) == \
            pytest.approx([0.155848156, 0.577485177])
        g = RationalFunction((0.0,), (5.0,), 1)
        with pytest.raises((InsufficientCriticalPoints, HypothesisUnmet)):
            required_epsilon(g, UNIT_DISK, 2)


class TestSearchSmall:
    def test_full_count_returns_zero(self):
        res = search_psi(4, 4, UNIT_DISK, restarts=2, iters=50, seed=0)
        assert res.best_required_epsilon == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("restarts, iters", [(0, 50), (-1, 50),
                                                 (2, 0), (2, -5)])
    def test_nonpositive_budget_rejected(self, restarts, iters):
        with pytest.raises(ValueError):
            search_psi(4, 2, UNIT_DISK, restarts=restarts, iters=iters)

    def test_optimisers_called_through_module_globals(self, monkeypatch):
        # the benchmark's tracer times the optimisers by patching these names
        plain = search_psi(3, 2, UNIT_DISK, restarts=2, iters=40, seed=1)
        calls = []
        for name in ("minimize", "minimize_scalar"):
            def recorder(*args, _real=getattr(extremal, name), _name=name,
                         **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(extremal, name, recorder)
        recorded = search_psi(3, 2, UNIT_DISK, restarts=2, iters=40, seed=1)
        assert {"minimize", "minimize_scalar"} <= set(calls)
        assert recorded == plain

    def test_witness_reproduces_value(self):
        res = search_psi(3, 2, UNIT_DISK, restarts=8, iters=200, seed=5)
        replay = required_epsilon(res.best_configuration, UNIT_DISK, 2)
        assert replay == pytest.approx(res.best_required_epsilon, abs=1e-9)

    def test_triangle_case_reaches_kakeya(self):
        res = search_psi(3, 2, UNIT_DISK, restarts=10, iters=300, seed=3)
        assert res.best_required_epsilon == pytest.approx(psi1_kakeya(3),
                                                          abs=1e-3)

    @pytest.mark.slow
    def test_below_all_upper_bounds(self):
        for n, k in ((4, 2), (5, 3), (6, 5)):
            res = search_psi(n, k, UNIT_DISK, restarts=6, iters=200, seed=9)
            candidates = [psi1_marden(n, k), psi1_biernacki(n, k)]
            disk_bound = psi1_disk_bound(n, k)
            if disk_bound is not None:
                candidates.append(disk_bound)
            if k == 2:
                candidates.append(psi1_kakeya(n))
            assert res.best_required_epsilon <= min(candidates) + 1e-9

    def test_witnesses_match_60_digit_values(self):
        # the solver's accuracy bar: each witness's value, recomputed from
        # its zeros in 60-digit arithmetic, is within 1.2e-7 of the reported;
        # and each search repeats, bitwise, the value, evaluation count and
        # trace recorded from scipy's Nelder-Mead over one-row solves
        recorded = json.loads((Path(__file__).parent / "data"
                               / "witness_searches.json").read_text())
        for n in range(3, 9):
            for seed in (100 * n + 1, 100 * n + 2, 100 * n + 3):
                res = search_psi(n, 2, UNIT_DISK, restarts=1, iters=40,
                                 seed=seed)
                exact = _disk_value_60_digits(res.best_configuration.zeros)
                assert abs(res.best_required_epsilon - exact) <= 1.2e-7, \
                    (n, seed)
                assert {"value": repr(res.best_required_epsilon),
                        "evaluations": res.evaluations,
                        "trace": [[e, repr(float(v))] for e, v in res.trace]
                        } == recorded[f"{n}/{seed}"], (n, seed)

    def test_trace_monotone(self):
        res = search_psi(4, 2, UNIT_DISK, restarts=6, iters=150, seed=2)
        values = [v for _, v in res.trace]
        assert values == sorted(values)
        assert res.evaluations >= len(res.trace)


def _disk_value_60_digits(zeros):
    """Least distance to the unit disk among the critical points of
    prod(z - zeros), from 60-digit roots of the expanded derivative."""
    import mpmath

    with mpmath.workdps(60):
        coeffs = [mpmath.mpc(1)]
        for z in zeros:
            coeffs = [c - mpmath.mpc(z.real, z.imag) * b
                      for c, b in zip(coeffs + [0], [0] + coeffs)]
        n = len(coeffs) - 1
        deriv = [c * (n - i) for i, c in enumerate(coeffs[:-1])]
        roots = mpmath.polyroots(deriv, maxsteps=400, extraprec=400)
        return float(min(max(abs(r) - 1, 0) for r in roots))


def _quadratic(x):
    return float(np.sum(np.arange(1, len(x) + 1) * (x - 0.3) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _terraced(x):
    # a quadratic rounded to tenths: many vertices tie
    return round(_quadratic(x), 1)


def _stacked(f, batches=None):
    """f as a stacked objective, optionally recording the batch sizes."""
    def stacked(xs):
        if batches is not None:
            batches.append(len(xs))
        return np.array([f(x) for x in xs])
    return stacked


def _scipy_nelder_mead(f, x0, **options):
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(f, x0, method="Nelder-Mead", options=options)


def _same_run(ours, theirs):
    return (np.array_equal(ours.x, theirs.x) and ours.fun == theirs.fun
            and ours.nfev == theirs.nfev and ours.nit == theirs.nit)


class TestNelderMead:
    """The in-repo Nelder-Mead takes scipy's steps, with scipy as the
    reference: the same x, fun, nfev and nit."""

    @pytest.mark.parametrize("f", [_quadratic, _rosenbrock])
    @pytest.mark.parametrize("dim", [3, 16])
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("given_simplex", [False, True])
    def test_matches_scipy(self, f, dim, adaptive, given_simplex):
        gen = np.random.default_rng(dim)
        x0 = gen.standard_normal(dim)
        x0[1] = 0.0                   # the default simplex's zero step
        options = {"maxiter": 300, "xatol": 1e-10, "fatol": 1e-12,
                   "adaptive": adaptive}
        if given_simplex:
            options["initial_simplex"] = x0 + 0.1 * gen.standard_normal(
                (dim + 1, dim))
        ours = extremal.minimize(_stacked(f), x0, **options)
        assert _same_run(ours, _scipy_nelder_mead(f, x0, **options))

    def test_converged_run_matches_scipy(self):
        x0 = np.array([0.5, -0.2, 0.1])
        options = {"maxiter": 5000, "xatol": 1e-6, "fatol": 1e-8}
        ours = extremal.minimize(_stacked(_quadratic), x0, **options)
        theirs = _scipy_nelder_mead(_quadratic, x0, **options)
        assert ours.nit < 5000 and _same_run(ours, theirs)

    def test_maxfev_ends_runs_as_scipy(self):
        # every budget from inside the initial simplex to past the end,
        # through expansions, contractions and shrinks (the ties of the
        # terraced quadratic make the simplex shrink)
        x0 = np.array([2.0, 2.0, 2.0])
        batches = []
        full = extremal.minimize(_stacked(_terraced, batches), x0,
                                 maxiter=60, xatol=1e-12, fatol=1e-14)
        # after the 4-point simplex, only a shrink asks for 3 points at
        # once; a budget one past a shrink's start stops inside it
        assert 3 in batches[1:]
        for maxfev in range(1, full.nfev + 3):
            ours = extremal.minimize(_stacked(_terraced), x0, maxiter=60,
                                     xatol=1e-12, fatol=1e-14, maxfev=maxfev)
            theirs = _scipy_nelder_mead(_terraced, x0, maxiter=60,
                                        xatol=1e-12, fatol=1e-14,
                                        maxfev=maxfev)
            assert _same_run(ours, theirs), maxfev

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_tied_values_sort_as_scipy(self, adaptive):
        x0 = np.array([1.0, -0.5, 2.0, 0.0, 0.7, -1.1])
        options = {"maxiter": 200, "xatol": 1e-10, "fatol": 1e-12,
                   "adaptive": adaptive}
        ours = extremal.minimize(_stacked(_terraced), x0, **options)
        assert _same_run(ours, _scipy_nelder_mead(_terraced, x0, **options))

    def test_unused_inside_contraction_is_not_counted(self):
        asked = []
        res = extremal.minimize(_stacked(_quadratic, asked),
                                np.array([0.5, -0.2, 0.1]), maxiter=40,
                                xatol=1e-12, fatol=1e-14)
        assert sum(asked) > res.nfev


def _scipy_bounded_brent(f, bounds, xatol):
    from scipy.optimize import minimize_scalar as scipy_minimize_scalar
    return scipy_minimize_scalar(f, bounds=bounds, method="bounded",
                                 options={"xatol": xatol})


def _bits(res):
    return float(res.x).hex(), float(res.fun).hex(), res.nfev


class TestBoundedBrent:
    """The in-repo bounded Brent takes scipy's steps, with scipy as the
    reference: bitwise the same x and fun, and the same nfev."""

    @pytest.mark.parametrize("f, bounds, xatol", [
        (lambda x: (x - 0.3) ** 2 + 1.0, (-2.0, 5.0), 1e-5),   # smooth
        (lambda x: abs(x - 0.4), (-1.0, 1.0), 1e-10),          # kink
        (lambda x: 2.5, (0.0, 1.0), 1e-5),                     # golden only
        (lambda x: x, (0.5, 3.0), 1e-8),                       # lower end
        (lambda x: -x ** 3, (-1.0, 2.0), 1e-8),                # upper end
        (lambda x: (x - 1e-6) ** 2, (0.0, 1.0), 1e-8),         # end clamp
        (lambda x: float(math.floor(4 * x)), (-1.3, 2.2), 1e-9),  # steps
        (lambda x: math.nan if x > 0.5 else (x - 0.7) ** 2, (0.0, 1.0),
         1e-8),                                                # nan part
        (lambda x: x * x, (-1.0, 1.0), 0.0),                   # to the cap
    ], ids=["quadratic", "kink", "constant", "lower-end", "upper-end",
            "near-end", "step", "nan-part", "xatol-0"])
    def test_matches_scipy(self, f, bounds, xatol):
        ours = extremal.minimize_scalar(f, bounds, xatol=xatol)
        theirs = _scipy_bounded_brent(f, bounds, xatol)
        assert _bits(ours) == _bits(theirs)
        assert ours.nit == ours.nfev


class TestScores:
    """The search objective solves its rows as one stack, bitwise equal to
    one-row solves, and falls back to them row by row."""

    @staticmethod
    def _one_row(zeros, k):
        try:
            return -extremal._fast_required(list(zeros), UNIT_DISK, k)
        except NonConvergence:
            return 0.0

    @pytest.mark.parametrize("rows", [1, 2, 17])
    @pytest.mark.parametrize("n", [3, 5, 8, 20])
    def test_rows_match_one_row_scores_bitwise(self, rows, n):
        gen = np.random.default_rng(rows * n)
        zeros = 0.8 * (gen.standard_normal((rows, n))
                       + 1j * gen.standard_normal((rows, n)))
        got = extremal._scores(zeros, UNIT_DISK, 2)
        want = [self._one_row(row, 2) for row in zeros]
        assert np.array_equal(got, want)

    def test_fallback_rows(self, monkeypatch):
        gen = np.random.default_rng(9)
        zeros = gen.standard_normal((4, 5)) + 1j * gen.standard_normal((4, 5))
        zeros[1, 3] = zeros[1, 0] + 1e-10           # crowded: _cluster merges
        alone = []
        real = extremal._fast_required

        def spy(row, region, k):
            alone.append(list(row))
            return real(row, region, k)

        monkeypatch.setattr(extremal, "_fast_required", spy)
        got = extremal._scores(zeros, UNIT_DISK, 3)
        assert alone == [zeros[1].tolist()]
        assert np.array_equal(got, [self._one_row(row, 3) for row in zeros])
        # a non-finite row sends the whole stack through one-row solves,
        # where it alone scores 0.0
        zeros[2, 4] = complex(math.nan, 0.0)
        alone.clear()
        got = extremal._scores(zeros, UNIT_DISK, 3)
        assert np.array_equal(alone, zeros, equal_nan=True)
        assert got[2] == 0.0 and not math.copysign(1.0, got[2]) < 0
        assert np.array_equal(got[[0, 1, 3]],
                              [self._one_row(zeros[i], 3) for i in (0, 1, 3)])

    def test_stack_with_every_row_failing(self):
        zeros = np.full((3, 4), complex(math.inf, 0.0))
        got = extremal._scores(zeros, UNIT_DISK, 2)
        assert got.tolist() == [0.0, 0.0, 0.0]


class TestArcGrid:
    @pytest.mark.parametrize("n", range(3, 9))
    def test_batched_grid_matches_per_constant_solves(self, n):
        family = _ArcFamily(n, 2, UNIT_DISK, np.random.default_rng(n))
        for t in (0.7, 1.0, 1.4):
            coeffs = family.coefficients(t, family.spread)
            span = 3.0 * (t + family.scale) ** n
            grid = np.linspace(-span, span, 180)
            batched = family._kth_dist(coeffs, grid)
            single = [family._kth_dist(coeffs, [c])[0] for c in grid]
            assert np.array_equal(batched, single)

    def test_builder_places_critical_points_on_the_arc(self):
        n, t = 7, 1.1
        family = _ArcFamily(n, 2, UNIT_DISK, np.random.default_rng(0))
        arc = t * np.exp(1j * (np.arange(n - 1) - (n - 2) / 2.0)
                         * family.spread)
        for dtype in (np.float64, np.finfo(_REFINE_DTYPE).dtype):
            coeffs = family.coefficients(t, family.spread, dtype)
            assert coeffs.dtype == dtype
            # p' / n = prod(z - arc point), ascending
            monic = coeffs.astype(np.float64) * np.arange(1, n + 1) / n
            assert monic[-1] == 1
            assert np.max(np.abs(
                np.polynomial.polynomial.polyval(arc, monic))) <= 1e-13


class TestAsymptoticExperiment:
    def test_no_outliers_full_capture(self):
        rows = asymptotic_experiment(Segment(0, 1), 0.1, [5, 9], 0, seed=4)
        for row in rows:
            assert row.critical_fraction == 1.0
            assert row.zero_fraction == 1.0

    def test_zero_fraction_exact(self):
        rows = asymptotic_experiment(Segment(0, 1), 0.25, [5, 10, 20], 1,
                                     seed=4)
        for row, n in zip(rows, [5, 10, 20]):
            assert row.zero_fraction == (n - 1) / n

    def test_fractions_in_unit_interval(self):
        rows = asymptotic_experiment(UNIT_DISK, 0.3, [6, 12], 2, seed=8)
        for row in rows:
            assert 0.0 <= row.critical_fraction <= 1.0

    def test_outside_count_validated(self):
        with pytest.raises(ValueError):
            asymptotic_experiment(UNIT_DISK, 0.3, [4, 8], 4, seed=0)


class TestConjectureProbe:
    def test_row_shape(self):
        rows = conjecture_probe(UNIT_DISK, 0.5, [4.0, 9.0], trials=5, seed=3,
                                n_values=(8, 12))
        assert len(rows) == 4
        assert {(r.ratio, r.n) for r in rows} == {(4.0, 8), (4.0, 12),
                                                  (9.0, 8), (9.0, 12)}

    def test_full_count_rows_never_fail(self):
        rows = conjecture_probe(UNIT_DISK, 0.2, [1000.0], trials=10, seed=6,
                                n_values=(6,))
        for row in rows:
            assert row.k == row.n or row.failure_rate == 0.0
            if row.k == row.n:
                assert row.failure_rate == 0.0

    def test_sufficient_ratio_zero_failures(self):
        # k=35, n=36, eps=1.1, s=2: the blanket inequality holds, so the
        # property is guaranteed
        rows = conjecture_probe(UNIT_DISK, 1.1, [35.0], trials=15, seed=7,
                                n_values=(36,))
        assert rows[0].k == 35
        assert rows[0].failures == 0
        assert rows[0].worst_shortfall == 0

    def test_failure_rate_consistency(self):
        rows = conjecture_probe(UNIT_DISK, 0.05, [1.0], trials=8, seed=1,
                                n_values=(10,))
        row = rows[0]
        assert row.failure_rate == pytest.approx(row.failures / row.trials)

    def test_draws_unchanged(self):
        # rows recorded before the probe drew through random_instance
        rows = conjecture_probe(Segment(0, 1), 0.02, [0.5, 1.0, 3.0], trials=8,
                                seed=2024, n_values=(6, 10))
        assert [(r.ratio, r.n, r.k, r.failures, r.worst_shortfall)
                for r in rows] == [(0.5, 6, 2, 0, 0), (0.5, 10, 3, 5, 2),
                                   (1.0, 6, 3, 4, 1), (1.0, 10, 5, 3, 1),
                                   (3.0, 6, 4, 0, 0), (3.0, 10, 8, 0, 0)]

    def test_random_instance_takes_a_generator(self):
        gen = np.random.default_rng(5)
        first = random_instance(7, 3, UNIT_DISK, 0.5, 3.0, gen)
        second = random_instance(7, 3, UNIT_DISK, 0.5, 3.0, gen)
        assert first == random_instance(7, 3, UNIT_DISK, 0.5, 3.0, seed=5)
        assert second != first


class TestScaleLaw:
    def test_required_epsilon_scales(self):
        f = from_points([0, 1, 1j], [])
        base = required_epsilon(f, Segment(0, 1), 2)
        doubled = RationalFunction(tuple(2 * z for z in f.zeros), (), 1)
        assert required_epsilon(doubled, Segment(0, 2), 2) == pytest.approx(
            2 * base, rel=1e-9)
