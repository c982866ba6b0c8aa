import math

import numpy as np
import pytest

from aglucas import (Disk, HypothesisUnmet, MEMBERSHIP_TOL, RationalFunction,
                     Segment, agl_report, count_in, from_points,
                     random_instance, required_epsilon, scale_region)

UNIT_DISK = Disk(0, 1)
UNIT_SEGMENT = Segment(0, 1)


class TestCountIn:
    def test_strict_membership(self):
        assert count_in([0, 2], UNIT_DISK, 0.0) == 1

    def test_closed_boundary(self):
        assert count_in([0, 2], UNIT_DISK, 1.0) == 2

    def test_empty(self):
        assert count_in([], UNIT_DISK, 5.0) == 0

    def test_multiplicity_counts(self):
        assert count_in([0.5, 0.5, 0.5], UNIT_DISK, 0.0) == 3

    @pytest.mark.parametrize("eps", [math.nan, -5.0, -1e-300])
    def test_rejects_nan_and_negative_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            count_in([0, 2], UNIT_DISK, eps)
        with pytest.raises(ValueError, match="eps"):
            count_in([], UNIT_DISK, eps)


class TestAGLReport:
    @pytest.mark.parametrize("eps", [math.nan, -5.0, -1e-300])
    def test_rejects_nan_and_negative_eps(self, eps):
        with pytest.raises(ValueError, match="eps"):
            agl_report(from_points([1, -1], []), Segment(-1, 1), eps, 2)

    def test_infinite_eps_counts_every_critical_point(self):
        rep = agl_report(from_points([0, 1, 1j], []), UNIT_SEGMENT,
                         math.inf, 2)
        assert rep.holds
        assert rep.critical_in_neighborhood == 2

    def test_classical_case(self):
        f = from_points([1, -1], [])
        rep = agl_report(f, Segment(-1, 1), 0.0, 2)
        assert rep.holds
        assert rep.required_epsilon == 0.0
        assert rep.critical_in_neighborhood == 1
        assert rep.zeros_in_region == 2

    def test_outlier_zero_forces_positive_epsilon(self):
        zeros = [j / 9 for j in range(10)] + [1j]
        f = from_points(zeros, [])
        rep = agl_report(f, UNIT_SEGMENT, 1e-6, 10)
        assert not rep.holds
        assert rep.required_epsilon > 0
        assert all(z.imag > 0 for z in rep.critical_points)
        rep2 = agl_report(f, UNIT_SEGMENT, rep.required_epsilon, 10)
        assert rep2.holds

    def test_vacuous_for_k_one(self):
        f = RationalFunction((0,), (3,), 1)
        rep = agl_report(f, UNIT_DISK, 0.1, 1)
        assert rep.holds
        assert rep.required_epsilon == 0.0

    def test_hypothesis_checked(self):
        f = from_points([5, 6], [])
        with pytest.raises(HypothesisUnmet):
            agl_report(f, UNIT_DISK, 0.5, 1)

    def test_zero_on_a_pole_leaves_the_count(self):
        # the zero at 1 cancels against the pole: one zero stays in the disk
        f = RationalFunction((1, 1.05, 5), (1,), 1)
        with pytest.raises(HypothesisUnmet):
            agl_report(f, Disk(1, 0.1), 0.01, 2)
        rep = agl_report(f, Disk(1, 0.1), 0.01, 1)
        assert rep.n == 2
        assert rep.critical_points == pytest.approx((3.025,))

    def test_flip_exactly_at_required_epsilon(self, rng):
        for _ in range(10):
            zeros = [complex(z) for z in
                     rng.uniform(-1, 1, 4) * 0.7 + 1j * rng.uniform(-1, 1, 4) * 0.7]
            zeros = [z / max(1.0, abs(z)) for z in zeros]
            zeros += [3.0 + 2.0j]
            f = from_points(zeros, [])
            k = 4
            rep = agl_report(f, UNIT_DISK, 0.0, k)
            req = rep.required_epsilon
            if req <= 10 * MEMBERSHIP_TOL:
                continue
            below = agl_report(f, UNIT_DISK, req - 10 * MEMBERSHIP_TOL, k)
            above = agl_report(f, UNIT_DISK, req + 10 * MEMBERSHIP_TOL, k)
            assert not below.holds
            assert above.holds

    def test_scale_equivariance(self):
        f = from_points([0, 1, 1j], [])
        base = agl_report(f, UNIT_SEGMENT, 0.0, 2).required_epsilon
        for factor in (2.0, 0.5, 2j, -1.5 + 1.5j):
            scaled = RationalFunction(
                tuple(factor * z for z in f.zeros), (), 1.0)
            rep = agl_report(scaled, scale_region(UNIT_SEGMENT, factor), 0.0, 2)
            assert rep.required_epsilon == pytest.approx(abs(factor) * base,
                                                         rel=1e-9)


class TestRandomInstance:
    def test_polynomial_when_all_in_region(self):
        f = random_instance(6, 6, UNIT_DISK, 0.5, 2.0, seed=1)
        assert f.poles == ()
        assert count_in(f.zeros, UNIT_DISK, 0.0) == 6

    def test_pole_fraction_zero(self):
        f = random_instance(9, 4, UNIT_DISK, 0.0, 3.0, seed=2)
        assert f.poles == ()
        assert f.total_count == 9

    def test_deterministic_per_seed(self):
        a = random_instance(8, 3, UNIT_DISK, 0.5, 2.0, seed=77)
        b = random_instance(8, 3, UNIT_DISK, 0.5, 2.0, seed=77)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_instance(8, 3, UNIT_DISK, 0.5, 2.0, seed=1)
        b = random_instance(8, 3, UNIT_DISK, 0.5, 2.0, seed=2)
        assert a != b

    def test_total_count(self):
        f = random_instance(12, 5, UNIT_SEGMENT, 0.7, 2.5, seed=3)
        assert f.total_count == 12
        assert count_in(f.zeros, UNIT_SEGMENT, 0.0) >= 5


class TestRequiredEpsilon:
    def test_all_zeros_inside_gives_zero(self, rng):
        zeros = 0.5 * (rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6))
        f = from_points(zeros, [])
        assert required_epsilon(f, UNIT_DISK, 6) == 0.0

    def test_cubic_example(self):
        f = from_points([0, 1, 1j], [])
        value = required_epsilon(f, UNIT_SEGMENT, 2)
        assert value == pytest.approx(0.09763107293781749, abs=1e-9)

    def test_requires_hypothesis(self):
        f = from_points([5, 6, 7], [])
        with pytest.raises(HypothesisUnmet):
            required_epsilon(f, UNIT_DISK, 2)

    def test_requires_k_at_least_two(self):
        f = from_points([0, 0.5], [])
        with pytest.raises(ValueError):
            required_epsilon(f, UNIT_DISK, 1)
