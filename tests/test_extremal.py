import math

import numpy as np
import pytest

from aglucas import (Disk, HypothesisUnmet, InsufficientCriticalPoints,
                     RationalFunction, Segment, asymptotic_experiment,
                     conjecture_probe, critical_points, from_points,
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
        # its zeros in 60-digit arithmetic, is within 1.2e-7 of the reported
        for n in range(3, 9):
            for seed in (100 * n + 1, 100 * n + 2, 100 * n + 3):
                res = search_psi(n, 2, UNIT_DISK, restarts=1, iters=40,
                                 seed=seed)
                exact = _disk_value_60_digits(res.best_configuration.zeros)
                assert abs(res.best_required_epsilon - exact) <= 1.2e-7, \
                    (n, seed)

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
