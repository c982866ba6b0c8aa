"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
the whole module is also part of the default suite.
"""

import math
import time

import numpy as np
import pytest

import aglucas as ag
from aglucas.rational import log_derivative_values
from conftest import match_multisets

UNIT_DISK = ag.Disk(0, 1)
UNIT_SEGMENT = ag.Segment(0, 1)


def _verdict(num: int, name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {state} {detail}".rstrip())


@pytest.mark.slow
def test_criterion_1_kakeya_exactness():
    t0 = time.time()
    worst = 0.0
    details = []
    for n in (3, 4, 5, 6, 8):
        found = ag.search_psi(n, 2, UNIT_DISK, restarts=50, iters=500,
                              seed=1).best_required_epsilon
        target = ag.psi1_kakeya(n)
        gap = abs(found - target)
        worst = max(worst, gap)
        details.append(f"n={n}:{found:.6f}~{target:.6f}")
    assert ag.psi1_kakeya(3) == pytest.approx(0.154701, abs=5e-7)
    assert ag.psi1_kakeya(4) == pytest.approx(0.414214, abs=5e-7)
    ok = worst <= 1e-3
    _verdict(1, "kakeya exactness", ok,
             f"worst gap {worst:.2e}, {time.time() - t0:.0f}s, "
             + " ".join(details))
    assert ok, f"worst search gap {worst:.3e} exceeds 1e-3"


def _regions_with_diameter(s: float, center: complex):
    if s == 0:
        return [ag.Disk(center, 0.0), ag.Segment(center, center)]
    return [
        ag.Disk(center, s / 2.0),
        ag.Segment(center - s / 2.0, center + s / 2.0),
        ag.ConvexPolygon((center - s / 2.0, center + s / 2.0,
                          center + 1j * s / 4.0)),
    ]


def test_criterion_2_sufficient_condition_validation():
    t0 = time.time()
    checked = 0
    seed = 0
    for n in range(18, 31):
        for gap in (0, 1):
            k = n - gap
            if gap == 1 and math.sqrt(k) <= 4.0:
                continue
            for s in (0.0, 1.0, 2.0):
                if gap == 0:
                    eps_values = (0.05 + 0.1 * s, 0.5 + s)
                else:
                    threshold = ag.eps_threshold_general(n, k, s)
                    eps_values = (threshold * 1.05 + 1e-6,
                                  threshold * 1.6 + 1e-6)
                for region in _regions_with_diameter(s, 0.25 + 0.1j):
                    for eps in eps_values:
                        assert ag.ragl_general_holds(n, k, eps, s)
                        for pf in (0.0, 0.5, 1.0):
                            seed += 1
                            f = ag.random_instance(n, k, region, pf,
                                                   spread=2.0 + 2.0 * s,
                                                   seed=seed)
                            rep = ag.agl_report(f, region, eps, k)
                            assert rep.holds, (
                                f"counterexample: n={n} k={k} s={s} eps={eps}"
                                f" pf={pf} seed={seed} region={region}")
                            checked += 1
                        if checked >= 10_000:
                            break
                    if checked >= 10_000:
                        break
                if checked >= 10_000:
                    break
            if checked >= 10_000:
                break
        if checked >= 10_000:
            break
    # top up to exactly 10^4 with the densest grid point
    region = ag.Disk(0.25 + 0.1j, 1.0)
    while checked < 10_000:
        seed += 1
        f = ag.random_instance(20, 19, region, 0.5, 4.0, seed=seed)
        rep = ag.agl_report(f, region, 1.05 * ag.eps_threshold_general(
            20, 19, 2.0) + 1e-6, 19)
        assert rep.holds
        checked += 1
    elapsed = time.time() - t0
    ok = checked >= 10_000
    _verdict(2, "sufficient-condition validation", ok,
             f"{checked} instances, 0 counterexamples, {elapsed:.0f}s")
    assert ok


def test_criterion_3_certifier_soundness_and_cross_oracle():
    t0 = time.time()
    certified = 0
    attempts = 0
    seed = 50_000
    grids = []
    for n in range(18, 29):
        for gap in (0, 1):
            k = n - gap
            if gap == 1 and math.sqrt(k) <= 4.0:
                continue
            for s in (1.0, 2.0):
                thr = ag.eps_threshold_general(n, k, s)
                eps = 0.2 + 0.3 * s if gap == 0 else thr * 1.25 + 1e-6
                grids.append((n, k, s, eps))
    gi = 0
    while certified < 1000 and attempts < 5000:
        n, k, s, eps = grids[gi % len(grids)]
        gi += 1
        attempts += 1
        seed += 1
        region = ag.Disk(0.1 - 0.2j, s / 2.0) if gi % 2 else \
            ag.Segment(-s / 2.0, s / 2.0)
        f = ag.random_instance(n, k, region, 0.4, 2.5 + 1.5 * s, seed=seed)
        try:
            cert = ag.certify(f, region, eps, k, seed=seed)
        except (ag.ContourNotFound, ag.MarginNonPositive):
            continue
        assert cert.valid
        assert cert.critical_lower_bound >= k - 1
        direct = ag.count_in(ag.critical_points(cert.function).points,
                             region, eps)
        assert cert.critical_lower_bound <= direct
        # argument-principle cross-check on the same contour
        field = ag.log_derivative(cert.function)
        wind = ag.winding_count(field, cert.contour)
        pts_z = np.asarray(field.zeros)
        pts_p = np.asarray(field.poles)
        inside = cert.contour.offset_distance
        direct_wind = (int(np.count_nonzero(
            ag.distances(pts_z, region) < inside)) -
            int(np.count_nonzero(ag.distances(pts_p, region) < inside)))
        assert wind == direct_wind == cert.winding
        certified += 1
    elapsed = time.time() - t0
    ok = certified == 1000
    _verdict(3, "certifier soundness and cross-oracle", ok,
             f"{certified} certificates, {attempts} attempts, {elapsed:.0f}s")
    assert ok


def test_criterion_4_log_derivative_structure():
    rng = np.random.default_rng(4040)
    for _ in range(500):
        nz = int(rng.integers(1, 8))
        npole = int(rng.integers(0, 5))
        pts = 3.0 * (rng.standard_normal(nz + npole)
                     + 1j * rng.standard_normal(nz + npole))
        f = ag.RationalFunction(tuple(pts[:nz]), tuple(pts[nz:]), 1.0)
        ld = ag.log_derivative(f)
        crit = ag.critical_points(f)
        assert match_multisets(ld.zeros, crit.points, 1e-8)
        assert match_multisets(ld.poles, f.zeros + f.poles, 0.0)
    _verdict(4, "logarithmic-derivative structure", True, "500 instances")


def test_criterion_5_classical_hull_containment():
    rng = np.random.default_rng(5050)
    worst = 0.0
    for _ in range(1000):
        deg = int(rng.integers(2, 51))
        zeros = rng.uniform(-4, 4, deg) + 1j * rng.uniform(-4, 4, deg)
        hull = ag.convex_hull_region(zeros)
        crit = ag.critical_points(ag.RationalFunction(tuple(zeros), (), 1.0))
        assert len(crit.points) == deg - 1
        d = ag.distances(np.asarray(crit.points), hull)
        worst = max(worst, float(d.max()))
    ok = worst <= 1e-9
    _verdict(5, "classical hull containment", ok, f"worst excursion {worst:.2e}")
    assert ok


def test_criterion_6_bound_table_values():
    marden = ag.psi1_marden(100, 99)
    biernacki = ag.psi1_biernacki(100, 99)
    disk_bound = ag.psi1_disk_bound(100, 99)
    assert marden == pytest.approx(math.sqrt(2) - 1, rel=1e-15)
    assert marden == pytest.approx(0.414214, abs=5e-7)
    assert biernacki == pytest.approx(2.0 / 99.0, rel=1e-15)
    assert biernacki == pytest.approx(0.020202, abs=5e-7)
    assert disk_bound == pytest.approx(8.0 / 91.0, rel=1e-15)
    assert disk_bound == pytest.approx(0.087912, abs=5e-7)
    ok = biernacki < disk_bound < marden
    _verdict(6, "bound table values", ok,
             f"{biernacki:.6f} < {disk_bound:.6f} < {marden:.6f}")
    assert ok


# required_epsilon(k = n-1) for n-1 equispaced zeros in [0, 1] plus one at i,
# computed once with this package and frozen as regression values
_OUTLIER_REQUIRED_EPSILON = {
    3: 0.09763107293781749,
    4: 0.028047672805517888,
    5: 0.011201814161398404,
    6: 0.006053305266429434,
    7: 0.003874151141670974,
    8: 0.0026314820999396066,
    9: 0.0019024005324129343,
    10: 0.0014556603780004245,
    11: 0.0011392081907638009,
    12: 0.0009152052991296496,
}


def test_criterion_7_outlier_zero_family():
    values = {}
    for n in range(3, 13):
        zeros = [j / (n - 2) for j in range(n - 1)] + [1j]
        f = ag.from_points(zeros, [])
        crit = ag.critical_points(f).points
        assert all(z.imag > 0 for z in crit), f"n={n}: real critical point"
        values[n] = ag.required_epsilon(f, UNIT_SEGMENT, n - 1)
        assert values[n] == pytest.approx(_OUTLIER_REQUIRED_EPSILON[n],
                                          rel=1e-9)
    seq = [values[n] for n in range(3, 13)]
    ok = all(a > b for a, b in zip(seq, seq[1:]))
    _verdict(7, "outlier-zero family", ok,
             f"required eps falls {seq[0]:.4f} -> {seq[-1]:.6f}")
    assert ok


def test_criterion_8_capture_fraction_sweep():
    rows = ag.asymptotic_experiment(UNIT_SEGMENT, 0.25, [5, 10, 20, 40, 80],
                                    outside_count=1, seed=0)
    fractions = [row.critical_fraction for row in rows]
    nondecreasing = all(a <= b for a, b in zip(fractions, fractions[1:]))
    final_is_one = fractions[-1] == 1.0
    _verdict(8, "capture-fraction sweep", nondecreasing and final_is_one,
             "fractions " + ", ".join(f"{x:.4f}" for x in fractions))
    assert nondecreasing
    # One critical point stays within O(1/n) of the far zero (the
    # logarithmic-derivative balance pins it there), so at most n-2 of the
    # n-1 critical points can ever be captured and the final value is
    # 78/79, not 1.0.  Asserted as stated; expected to fail.
    assert final_is_one, (
        f"final capture fraction {fractions[-1]!r} = "
        f"{round(fractions[-1] * 79)}/79; the stray critical point near the "
        "outlier makes 1.0 unreachable")


@pytest.mark.slow
def test_criterion_9_scale_law():
    f = ag.from_points([0, 1, 1j], [])
    base = ag.required_epsilon(f, UNIT_SEGMENT, 2)
    doubled = ag.RationalFunction(tuple(2 * z for z in f.zeros), (), 1.0)
    scaled = ag.required_epsilon(doubled, ag.Segment(0, 2), 2)
    req_ok = abs(scaled - 2 * base) <= 5e-3
    assert req_ok

    small = ag.search_psi(4, 2, ag.Disk(0, 1.0), restarts=20, iters=300,
                          seed=2).best_required_epsilon
    large = ag.search_psi(4, 2, ag.Disk(0, 2.0), restarts=20, iters=300,
                          seed=2).best_required_epsilon
    search_ok = abs(large - 2.0 * small) <= 5e-3
    _verdict(9, "scale law", req_ok and search_ok,
             f"required {scaled:.6f}~{2 * base:.6f}, "
             f"search {large:.6f}~{2 * small:.6f}")
    assert search_ok, f"search values {large} vs {2 * small}"
