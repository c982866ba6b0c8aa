import json
import math
from pathlib import Path

import numpy as np
import pytest

from aglucas import (AGLError, ContourNotFound, Disk, ExclusionBall,
                     ExclusionSet, HypothesisUnmet, MultiplicityViolation,
                     RationalFunction, SampleAtSingularity, Segment, certify,
                     count_in, critical_points, eps_threshold_general,
                     exclusion_set, find_contour, from_points,
                     log_derivative, offset_contour, perturb_to_simple,
                     random_instance, rational_product, rouche_margin,
                     split_instance, winding_count)
from aglucas import certifier
from conftest import match_multisets

UNIT_DISK = Disk(0, 1)


class TestSplitInstance:
    def test_zeros_split_by_membership(self):
        f = from_points([0, 5], [])
        inside, rem = split_instance(f, UNIT_DISK)
        assert inside.zeros == (0j,)
        assert rem.zeros == (5 + 0j,)
        assert rem.poles == ()

    def test_poles_stay_with_remainder(self):
        f = RationalFunction((0, 0.5), (3,), 1)
        inside, rem = split_instance(f, UNIT_DISK)
        assert match_multisets(inside.zeros, [0, 0.5], 1e-12)
        assert rem.zeros == ()
        assert rem.poles == (3 + 0j,)

    def test_all_inside_leaves_constant(self):
        f = from_points([0.1, -0.2, 0.3j], [])
        inside, rem = split_instance(f, UNIT_DISK)
        assert len(inside.zeros) == 3
        assert rem.is_constant

    def test_membership_boundary_is_closed(self):
        # distance exactly MEMBERSHIP_TOL = 1e-9 from the segment
        f = RationalFunction((0.5 + 1e-9j, 0.5 + 2e-9j), (), 1)
        inside, rem = split_instance(f, Segment(0, 1))
        assert inside.zeros == (0.5 + 1e-9j,)
        assert rem.zeros == (0.5 + 2e-9j,)

    def test_product_reproduces_instance(self):
        f = RationalFunction((0, 0.5, 4), (2j,), 1)
        inside, rem = split_instance(f, UNIT_DISK)
        assert match_multisets(inside.zeros + rem.zeros, f.zeros, 1e-12)
        assert match_multisets(rem.poles, f.poles, 1e-12)


class TestPerturbToSimple:
    def test_separates_coincident_zeros(self):
        f = RationalFunction((0, 0), (), 1)
        out = perturb_to_simple(f, delta=1e-7, seed=1)
        assert len(out.zeros) == 2
        a, b = out.zeros
        assert a != b
        assert abs(a) <= 1e-7 and abs(b) <= 1e-7

    def test_identity_on_simple_input(self):
        f = RationalFunction((0, 1, 2), (3,), 1)
        assert perturb_to_simple(f, seed=5) is f

    def test_deterministic(self):
        f = RationalFunction((0, 0, 1j, 1j), (2,), 1)
        a = perturb_to_simple(f, seed=9)
        b = perturb_to_simple(f, seed=9)
        assert a == b

    def test_displacement_bounded(self):
        f = RationalFunction((1j,) * 5, (), 1)
        out = perturb_to_simple(f, delta=1e-7, seed=3)
        assert all(abs(z - 1j) <= 1e-7 for z in out.zeros)

    def test_unseparable_points_raise_typed_failure(self):
        # within delta = 1e-12 no draw leaves two points CLUSTER_TOL apart
        f = RationalFunction((0.5,) * 3, (), 1)
        with pytest.raises(MultiplicityViolation):
            perturb_to_simple(f, delta=1e-12)

    # perturb_to_simple(f, seed=seed) as recorded from the per-point loops
    # that drew each crowded point's offsets with two scalar rng calls
    @pytest.mark.parametrize("f, seed, zeros, poles", [
        (RationalFunction((0, 0, 1j, 1j, 0.5), (0.5, 2), 1), 9,
         (complex(-2.1388099573792617e-08, 9.08022094242336e-08),
          complex(1.3368846661068264e-08, -7.650330345461209e-08),
          complex(7.293968988790345e-08, 0.9999999570983924),
          complex(8.078413772952246e-08, 0.999999954416455),
          complex(0.4999999849453542, 6.2637835475159125e-09)),
         (complex(0.5000000638837203, 2.771846942323902e-08),
          complex(2.0, 0.0))),
        (RationalFunction((1j,) * 5, (), 1), 3,
         (complex(2.4225476918776796e-09, 1.0000000291654407),
          complex(-7.784862774620319e-08, 0.9999999558147558),
          complex(-2.801172609308602e-08, 1.0000000125151758),
          complex(3.718228094763839e-08, 1.0000000583780007),
          complex(6.47608129028374e-08, 1.000000056140971)),
         ()),
        (RationalFunction((0.2, 0.2, -0.3, 0.05, 0.05 + 1e-10), (-0.3, 1.5),
                          2), 4,
         (complex(0.19999990313478386, -6.905863763865762e-09),
          complex(0.2000000863322921, 4.805384897174171e-08),
          complex(-0.30000005561929377, 5.458985691878934e-08),
          complex(0.05000004089090584, 7.966772175563861e-08),
          complex(0.04999991027436426, -2.5450106201721783e-08)),
         (complex(-0.30000009400804173, 1.3588189032428423e-08),
          complex(1.5, 0.0))),
    ])
    def test_matches_recorded_perturbation(self, f, seed, zeros, poles):
        out = perturb_to_simple(f, seed=seed)
        assert out.zeros == zeros
        assert out.poles == poles
        assert out.scale == f.scale


class TestExclusionSet:
    def test_constant_remainder_empty(self):
        assert exclusion_set(RationalFunction((), (), 1), 0.5, 3).balls == ()

    def test_radius_formula(self):
        rem = RationalFunction((5,), (7,), 1)
        excl = exclusion_set(rem, 0.8, 2)
        assert len(excl.balls) == 2
        assert all(b.radius == pytest.approx(0.05) for b in excl.balls)

    def test_chain_diameter_bound(self):
        # m tangent balls of radius eps/(8m) span at most eps/4
        eps, m = 0.8, 5
        radius = eps / (8 * m)
        assert 2 * m * radius == pytest.approx(eps / 4)

    def test_clears_keeps_strict_rule(self):
        samples = np.array([0j, 1j, -1.0])
        # a sample at exactly twice the radius clears; any closer does not
        assert ExclusionSet((ExclusionBall(2.0, 1.0),)).clears(samples)
        assert not ExclusionSet((ExclusionBall(2.0, 1.0 + 1e-12),)).clears(
            samples)
        assert ExclusionSet(()).clears(samples)

    def test_clears_matches_per_ball_loop(self, rng):
        samples = offset_contour(UNIT_DISK, 0.5, 128).samples
        for _ in range(200):
            m = int(rng.integers(1, 6))
            balls = tuple(ExclusionBall(complex(*rng.uniform(-2, 2, 2)),
                                        float(rng.uniform(0.01, 0.3)))
                          for _ in range(m))
            expected = all(np.min(np.abs(samples - b.center)) >= 2 * b.radius
                           for b in balls)
            assert ExclusionSet(balls).clears(samples) == expected


class TestFindContour:
    def test_empty_exclusions_gives_midline(self):
        c = find_contour(UNIT_DISK, 0.4, ExclusionSet(()), 128)
        assert c.offset_distance == pytest.approx(0.3)

    def test_remote_ball_keeps_midline(self):
        excl = ExclusionSet((ExclusionBall(10 + 10j, 0.05),))
        c = find_contour(UNIT_DISK, 0.4, excl, 128)
        assert c.offset_distance == pytest.approx(0.3)

    def test_midline_blocker_forces_other_offset(self):
        # ball of radius eps/16 sitting exactly on the midline contour
        eps = 0.8
        excl = ExclusionSet((ExclusionBall(1.6, eps / 16),))
        c = find_contour(UNIT_DISK, eps, excl, 256)
        assert c.offset_distance == pytest.approx(0.48)

    def test_fixed_order_is_midline_first(self, rng):
        # the order once found by sorting on (distance to the midline 3*eps/4
        # relative to eps, rounded to 9 digits; then the offset itself)
        for eps in np.concatenate([np.logspace(-12, 6, 2000),
                                   10.0 ** rng.uniform(-12, 6, 2000)]):
            clearance = eps / 20.0
            d = np.linspace(eps / 2.0 + clearance, eps - clearance, 9)
            by_key = sorted(range(9), key=lambda i: (
                round(abs(d[i] - 0.75 * eps) / eps, 9), d[i]))
            assert tuple(by_key) == certifier._MIDLINE_FIRST

    def test_saturated_annulus_raises(self):
        eps = 0.4
        balls = tuple(ExclusionBall(1.3 * np.exp(2j * np.pi * j / 40), 0.05)
                      for j in range(40))
        with pytest.raises(ContourNotFound):
            find_contour(UNIT_DISK, eps, ExclusionSet(balls), 128)


class TestRoucheMargin:
    def test_power_margin_closed_form(self):
        inner = RationalFunction((0, 0, 0), (), 1)
        c = offset_contour(UNIT_DISK, 0.75, 128)
        margin = rouche_margin(inner, RationalFunction((), (), 1), c)
        assert margin == pytest.approx(3 / 1.75, rel=1e-12)

    def test_positive_whenever_sufficient_condition_holds(self, rng):
        n, k, s, eps = 137, 136, 2.0, 1.05
        assert 16 * (s + eps) ** 2 / eps ** 2 < k / (n - k) ** 2
        checked = 0
        for trial in range(20):
            f = random_instance(n, k, UNIT_DISK, 0.5, 4.0,
                                seed=900 + trial)
            inside, rem = split_instance(f, UNIT_DISK)
            excl = exclusion_set(rem, eps, n - k)
            try:
                contour = find_contour(UNIT_DISK, eps, excl, 256)
            except ContourNotFound:
                continue  # the outside point straddles the annulus
            assert rouche_margin(inside, rem, contour) > 0
            checked += 1
            if checked == 5:
                break
        assert checked == 5


class TestSampleAtSingularity:
    CONTOUR = offset_contour(UNIT_DISK, 0.5, 64)

    def test_margin_inside_zero_on_sample(self):
        hit = complex(self.CONTOUR.samples[5])
        with pytest.raises(SampleAtSingularity):
            rouche_margin(RationalFunction((0, hit), (), 1),
                          RationalFunction((), (), 1), self.CONTOUR)

    def test_margin_remainder_pole_near_sample(self):
        near = complex(self.CONTOUR.samples[17]) + 5e-10j
        with pytest.raises(SampleAtSingularity):
            rouche_margin(RationalFunction((0,), (), 1),
                          RationalFunction((3,), (near,), 1), self.CONTOUR)

    def test_winding_zero_or_pole_on_sample(self):
        hit = complex(self.CONTOUR.samples[40])
        for f in (RationalFunction((0, hit), (), 1),
                  RationalFunction((0,), (hit,), 1)):
            with pytest.raises(SampleAtSingularity):
                winding_count(f, self.CONTOUR)

    def test_point_just_beyond_tolerance_is_accepted(self):
        clear = complex(self.CONTOUR.samples[3]) * (1 + 1e-8 / 1.5)
        margin = rouche_margin(RationalFunction((0, clear), (), 1),
                               RationalFunction((), (), 1), self.CONTOUR)
        assert math.isfinite(margin)

class TestWindingCount:
    def test_single_zero(self):
        contour = offset_contour(Disk(0, 0), 1.0, 256)
        assert winding_count(RationalFunction((0,), (), 1), contour) == 1

    def test_single_pole(self):
        contour = offset_contour(Disk(0, 0), 1.0, 256)
        assert winding_count(RationalFunction((), (0,), 1), contour) == -1

    def test_log_derivative_structure(self):
        contour = offset_contour(Disk(0, 0), 1.0, 256)
        f = log_derivative(from_points([0.1, -0.1], []))
        assert winding_count(f, contour) == -1

    def test_matches_direct_count_random(self, rng):
        contour = offset_contour(UNIT_DISK, 0.5, 512)
        for _ in range(50):
            nz = int(rng.integers(1, 6))
            npole = int(rng.integers(0, 4))
            pts = 2.5 * (rng.uniform(-1, 1, nz + npole)
                         + 1j * rng.uniform(-1, 1, nz + npole))
            pts = [z for z in pts if abs(abs_dist(z) - 0.5) > 0.05]
            f = RationalFunction(tuple(pts[:nz]), tuple(pts[nz:]), 1)
            direct = (sum(1 for z in f.zeros if abs_dist(z) < 0.5)
                      - sum(1 for z in f.poles if abs_dist(z) < 0.5))
            assert winding_count(f, contour) == direct


def abs_dist(z):
    return max(abs(z) - 1.0, 0.0)


class TestCertify:
    @pytest.mark.parametrize("eps", [math.nan, math.inf, 0.0, -5.0])
    def test_rejects_non_finite_and_nonpositive_eps(self, eps):
        f = from_points([0.3, -0.5, 0.2j], [])
        with pytest.raises(ValueError, match="eps"):
            certify(f, UNIT_DISK, eps, 3)

    def test_classical_polynomial(self):
        f = from_points([0.3, -0.5, 0.2j, -0.1 - 0.4j, 0.6], [])
        cert = certify(f, UNIT_DISK, 0.5, 5)
        assert cert.valid
        assert cert.critical_lower_bound == 4
        assert cert.winding == -1
        assert cert.zeros_poles_inside == 5

    def test_zero_on_a_pole_leaves_the_count(self):
        # in lowest form, (z - 1.05)(z - 5) has one zero in the disk
        f = RationalFunction((1, 1.05, 5), (1,), 1)
        with pytest.raises(HypothesisUnmet):
            certify(f, Disk(1, 0.1), 0.05, 2)

    def test_moebius_vacuous(self):
        f = RationalFunction((0,), (3,), 1)
        cert = certify(f, UNIT_DISK, 0.5, 1)
        assert cert.valid
        assert cert.critical_lower_bound == 0

    def test_certificate_at_sufficient_condition(self):
        n, k, eps = 34, 33, 1.05
        f = random_instance(n, k, UNIT_DISK, 0.3, 4.0, seed=11)
        cert = certify(f, UNIT_DISK, eps, k)
        assert cert.valid
        assert cert.critical_lower_bound >= k - 1

    def test_cross_oracle_soundness(self):
        n, k, eps = 26, 25, 1.4
        certified = 0
        for trial in range(60):
            f = random_instance(n, k, UNIT_DISK, 0.5, 5.0, seed=300 + trial)
            try:
                cert = certify(f, UNIT_DISK, eps, k)
            except ContourNotFound:
                continue
            direct = count_in(critical_points(cert.function).points,
                              UNIT_DISK, eps)
            assert cert.valid
            assert k - 1 <= cert.critical_lower_bound <= direct
            certified += 1
            if certified == 20:
                break
        assert certified == 20

    def test_perturbation_seed_stability(self):
        f = RationalFunction((0.2, 0.2, -0.3, 0.5j, -0.4 - 0.2j,
                              0.1 + 0.1j, 0.05, -0.15j, 0.35, -0.25), (), 1)
        bounds = {certify(f, UNIT_DISK, 0.6, 10, seed=s).critical_lower_bound
                  for s in range(5)}
        assert len(bounds) == 1

    def test_analytic_envelopes_on_contour(self):
        import aglucas.rational as rational
        n, k, eps = 26, 25, 1.4
        f = random_instance(n, k, UNIT_DISK, 0.4, 5.0, seed=42)
        cert = certify(f, UNIT_DISK, eps, k)
        inside, rem = split_instance(cert.function, UNIT_DISK)
        z = cert.contour.samples
        if not rem.is_constant:
            hv = np.abs(rational.log_derivative_values(rem, z))
            assert np.all(hv < 8 * (n - k) ** 2 / eps)
        gv = np.abs(rational.log_derivative_values(inside, z))
        d = cert.contour.offset_distance
        # disk sharpening of the inner bound, at the contour's own distance
        assert np.all(gv >= k / (d + 2.0) - 1e-9)

    def test_segment_region(self):
        f = from_points([0.1, 0.5, 0.9, 2 + 2j], [])
        cert = certify(f, Segment(0, 1), 0.8, 3)
        assert cert.valid
        assert cert.critical_lower_bound >= 2


def _criterion3_instances(count):
    """The first count instances of acceptance criterion 3's loop."""
    grids = []
    for n in range(18, 29):
        for gap in (0, 1):
            k = n - gap
            if gap == 1 and math.sqrt(k) <= 4.0:
                continue
            for s in (1.0, 2.0):
                eps = (0.2 + 0.3 * s if gap == 0
                       else eps_threshold_general(n, k, s) * 1.25 + 1e-6)
                grids.append((n, k, s, eps))
    for gi in range(1, count + 1):
        n, k, s, eps = grids[(gi - 1) % len(grids)]
        seed = 50_000 + gi
        region = Disk(0.1 - 0.2j, s / 2.0) if gi % 2 else \
            Segment(-s / 2.0, s / 2.0)
        f = random_instance(n, k, region, 0.4, 2.5 + 1.5 * s, seed=seed)
        yield f, region, eps, k, seed


class TestCertifyRecorded:
    """certify against results recorded when the margin, the integrand and
    the contour were computed one point or one sample at a time."""

    def test_criterion3_instances(self):
        data = json.loads((Path(__file__).parent / "data"
                           / "certify_criterion3.json").read_text())
        rows = data["rows"]
        assert len(rows) == 200
        for (f, region, eps, k, seed), row in zip(
                _criterion3_instances(200), rows):
            try:
                cert = certify(f, region, eps, k, seed=seed)
            except AGLError as exc:
                assert [type(exc).__name__] == row
                continue
            valid, winding, inside, offset, margin, samples = row
            assert cert.valid == valid
            assert cert.winding == winding
            assert cert.zeros_poles_inside == inside
            assert cert.contour.offset_distance == offset
            assert len(cert.contour.samples) == samples
            assert cert.margin == pytest.approx(margin, rel=1e-12)

    def test_function_is_the_reduced_product(self):
        for f, region, eps, k, seed in _criterion3_instances(20):
            try:
                cert = certify(f, region, eps, k, seed=seed)
            except AGLError:
                continue
            inside, rem = split_instance(f, region)
            moved = perturb_to_simple(
                RationalFunction(inside.zeros + rem.zeros, rem.poles,
                                 f.scale), seed=seed)
            n_in = len(inside.zeros)
            assert cert.function == rational_product(
                RationalFunction(moved.zeros[:n_in], (), 1.0),
                RationalFunction(moved.zeros[n_in:], moved.poles, f.scale))
