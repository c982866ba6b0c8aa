"""The four workloads: seeded inputs, the operation, and its check.

A workload's ``cases(seed)`` is one round of inputs; the timed loop replays
whole rounds.  ``warmup_cases()`` does not depend on the seed, so set-up
does the same work in every run.  ``run`` calls the public aglucas function
through the package attribute, so a traced run sees it.
"""

from __future__ import annotations

import math

import numpy as np

import aglucas as ag
import reference as ref

WARMUP_SEED = 20170616
FAULT_SEED = 1706                # the draws of high_degree's fixed cases


def describe(region):
    """The reference module's tuple form of a program region."""
    if isinstance(region, ag.Disk):
        return ("disk", region.center, region.radius)
    if isinstance(region, ag.Segment):
        return ("segment", region.a, region.b)
    return ("polygon", tuple(region.vertices))


# certify's outcome when it declines with a typed refusal that the method
# allows; a correct outcome, not a failure
REFUSED = "refused"


class Workload:
    evaluations = 0     # objective evaluations reported by the operations

    def expected_failure(self, case, exc) -> bool:
        """Whether exc is the known fault this case is kept to show."""
        return False


class VerdictSweep(Workload):
    """agl_report on random_instance inputs shaped like acceptance
    criterion 2: n = 18..30, k in {n, n-1}, regions of diameter 0, 1 and 2,
    pole fractions 0, 0.5 and 1, eps just above the sufficient threshold.
    One round visits each of the 624 grid cells once."""

    name = "verdict_sweep"

    def __init__(self):
        center = 0.25 + 0.1j
        self.cells = []
        for n in range(18, 31):
            for k in (n, n - 1):
                for s in (0.0, 1.0, 2.0):
                    if k == n:
                        eps = 0.05 + 0.1 * s
                    else:
                        eps = 1.05 * ag.eps_threshold_general(n, k, s) + 1e-6
                    for region in self._regions(s, center):
                        for pole_fraction in (0.0, 0.5, 1.0):
                            self.cells.append(
                                (n, k, s, eps, region, pole_fraction))

    @staticmethod
    def _regions(s, center):
        if s == 0:
            return [ag.Disk(center, 0.0), ag.Segment(center, center)]
        return [ag.Disk(center, s / 2.0),
                ag.Segment(center - s / 2.0, center + s / 2.0),
                ag.ConvexPolygon((center - s / 2.0, center + s / 2.0,
                                  center + 0.25j * s))]

    def _case(self, cell, rng):
        n, k, s, eps, region, pole_fraction = cell
        f = ag.random_instance(n, k, region, pole_fraction,
                               spread=2.0 + 2.0 * s,
                               seed=int(rng.integers(2 ** 31)))
        return f, region, eps, k

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        return [self._case(cell, rng) for cell in self.cells]

    def warmup_cases(self):
        rng = np.random.default_rng(WARMUP_SEED)
        return [self._case(cell, rng) for cell in self.cells[::78]]

    def run(self, case):
        f, region, eps, k = case
        return ag.agl_report(f, region, eps, k)

    def check(self, case, report):
        f, region, _, k = case
        ref.check_verdict(f.zeros, f.poles, describe(region), k, report)


class CertifySweep(Workload):
    """certify on instances shaped like acceptance criterion 3: n = 18..28,
    k in {n, n-1}, disks and segments of diameter 1 and 2, pole fraction
    0.4; eps is 1.25 times the threshold for k = n-1 and 0.2 + 0.3 s for
    k = n.  One round holds five instances of each of the 88 grid cells.

    The k = n cells have no point outside the region, so their first
    contour candidate always clears; without them 8-13% of the operations
    (by seed) needed extra candidates, which put the 90th percentile on the
    gap between the two modes and let it jump between 1.5 and 2.6 ms.
    """

    name = "certify_sweep"
    refusals = (ag.ContourNotFound, ag.MarginNonPositive,
                ag.NonIntegerWinding)

    def __init__(self):
        self.cells = []
        for n in range(18, 29):
            for k in (n, n - 1):
                for s in (1.0, 2.0):
                    if k == n:
                        eps = 0.2 + 0.3 * s
                    else:
                        eps = 1.25 * ag.eps_threshold_general(n, k, s) + 1e-6
                    for region in (ag.Disk(0.1 - 0.2j, s / 2.0),
                                   ag.Segment(-s / 2.0, s / 2.0)):
                        self.cells.append((n, k, s, eps, region))

    def _case(self, cell, rng):
        n, k, s, eps, region = cell
        seed = int(rng.integers(2 ** 31))
        f = ag.random_instance(n, k, region, 0.4, 2.5 + 1.5 * s, seed=seed)
        return f, region, eps, k, seed

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        return [self._case(cell, rng) for _ in range(5) for cell in self.cells]

    def warmup_cases(self):
        rng = np.random.default_rng(WARMUP_SEED)
        return [self._case(cell, rng) for cell in self.cells[::10]]

    def run(self, case):
        f, region, eps, k, seed = case
        try:
            cert = ag.certify(f, region, eps, k, seed=seed)
        except self.refusals:
            return REFUSED
        # keep what the check needs, not the sampled contour
        return (cert.critical_lower_bound, cert.valid, cert.function.zeros,
                cert.function.poles)

    def check(self, case, outcome):
        if outcome == REFUSED:
            return
        _, region, eps, k, _ = case
        bound, valid, zeros, poles = outcome
        ref.check_certificate(zeros, poles, describe(region), eps, k, bound,
                              valid)


def _zero_family(family, n, rng):
    if family == "gauss":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if family == "disk":
        return np.sqrt(rng.random(n)) * np.exp(2j * math.pi * rng.random(n))
    if family == "equispaced":
        return np.linspace(0.0, 1.0, n) + 0j
    if family == "uniform01":
        return rng.random(n) + 0j
    return 0.01 * (rng.random(n) + 1j * rng.random(n))      # "box"


class HighDegree(Workload):
    """agl_report with k = n on polynomials of 40 to 200 zeros.

    Seeded cases: each family at n = 40, 41, 43, 44, ..., 68, 70 (21 sizes),
    where the solver converged on every draw tried (uniform on [0, 1] and
    in the 0.01-box fail on some draws from n = 75).  Fixed cases, the same
    for every seed, on which critical_points raises NonConvergence today:
    equispaced zeros on [0, 1] at n = 90, 100, 150 and 200; uniform on
    [0, 1] and uniform in a 0.01-box at n = 90 and 200; 200 zeros uniform in
    the unit disk (a draw that fails; most draws do).  A round holds 105
    seeded and 9 fixed cases, enough for a 90th percentile with ten cases
    beyond it.
    """

    name = "high_degree"
    families = ("gauss", "disk", "equispaced", "uniform01", "box")
    sizes = tuple(range(40, 71, 3)) + tuple(range(41, 69, 3))
    failing = (("equispaced", 90), ("equispaced", 100), ("equispaced", 150),
               ("equispaced", 200), ("uniform01", 90), ("uniform01", 200),
               ("box", 90), ("box", 200), ("disk", 200))

    @staticmethod
    def _case(family, n, rng, expect_failure=False):
        zeros = _zero_family(family, n, rng)
        if family in ("equispaced", "uniform01"):
            region = ag.Segment(0.0, 1.0)
        elif family == "box":
            region = ag.Disk(0.005 + 0.005j, 0.005 * math.sqrt(2.0))
        else:
            region = ag.Disk(0.0, max(1.0, float(np.max(np.abs(zeros)))))
        f = ag.RationalFunction(tuple(zeros), (), 1.0)
        eps = 0.05 * ag.diameter(region)
        return f, region, eps, expect_failure

    def cases(self, seed):
        rng = np.random.default_rng(seed)
        seeded = [self._case(family, n, rng) for family in self.families
                  for n in self.sizes]
        fixed = np.random.default_rng(FAULT_SEED)
        return seeded + [self._case(family, n, fixed, expect_failure=True)
                         for family, n in self.failing]

    def warmup_cases(self):
        rng = np.random.default_rng(WARMUP_SEED)
        return [self._case("gauss", 40, rng),
                self._case("equispaced", 60, rng),
                self._case("equispaced", 90, rng, expect_failure=True)]

    def run(self, case):
        f, region, eps, _ = case
        return ag.agl_report(f, region, eps, len(f.zeros))

    def expected_failure(self, case, exc):
        return case[3] and isinstance(exc, ag.NonConvergence)

    def check(self, case, report):
        f = case[0]
        if not report.holds:
            raise ref.CheckFailed("Gauss-Lucas verdict does not hold")
        ref.check_polynomial_critical(f.zeros, report.critical_points)


class ExtremalSearch(Workload):
    """search_psi(n, 2, unit disk) for n = 3..8 with one restart (an arc
    restart) and 40 Nelder-Mead iterations per simplex run; a round holds
    two searches per n.

    The search seeds are fixed, not drawn from the workload seed: at fixed n
    one search's time varies by about 15% with its seed, and a run holds
    only 12 searches, so seeded draws spread ops_per_s by 10% and
    op_p90_ms by 18% between runs (five seeds measured) on top of the
    machine's own run-to-run noise.
    """

    name = "extremal_search"
    restarts = 1
    iters = 40
    disk = ag.Disk(0.0, 1.0)

    def cases(self, seed):
        return [(n, 100 * n + j) for j in (1, 2) for n in range(3, 9)]

    def warmup_cases(self):
        return [(3, WARMUP_SEED)]

    def run(self, case):
        n, seed = case
        res = ag.search_psi(n, 2, self.disk, restarts=self.restarts,
                            iters=self.iters, seed=seed)
        self.evaluations += res.evaluations
        return res.best_required_epsilon, res.best_configuration.zeros

    def check(self, case, outcome):
        value, zeros = outcome
        ref.check_search(case[0], value, zeros)


WORKLOADS = {w.name: w for w in (VerdictSweep, CertifySweep, HighDegree,
                                 ExtremalSearch)}
