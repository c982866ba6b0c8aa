"""Self-test of the benchmark's checks: each checker must accept a real
answer of the program and reject a corrupted one.

    python3 perfbench/selftest.py

Exits 0 when every checker behaves, 1 otherwise.
"""

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(label, reason, check, *args):
    """reason None: check must accept; else it must reject with a message
    containing reason, so each corruption is caught by the intended test."""
    try:
        check(*args)
        passed, message = True, ""
    except ref.CheckFailed as exc:
        passed, message = False, str(exc)
    ok = passed if reason is None else reason in message
    print(f"{'ok  ' if ok else 'FAIL'} {label}: "
          f"{'accepted' if passed else 'rejected: ' + message}")
    if not ok:
        failures.append(label)


def shifted(points, index, by):
    points = list(points)
    points[index] += by
    return tuple(points)


def verdict():
    w = workloads.VerdictSweep()
    # n = 24, k = 23, a unit disk, pole fraction 0.5
    case = next(c for c in w.cases(7)
                if c[3] == 23 and len(c[0].zeros) + len(c[0].poles) == 24
                and isinstance(c[1], workloads.ag.Disk) and c[1].radius == 0.5)
    report = w.run(case)
    expect("verdict: program's report", None, w.check, case, report)
    moved = dataclasses.replace(
        report, critical_points=shifted(report.critical_points, 3, 1e-6j))
    expect("verdict: critical point shifted by 1e-6", "critical point off",
           w.check, case, moved)
    raised = dataclasses.replace(
        report, required_epsilon=report.required_epsilon + 1e-6)
    expect("verdict: required_epsilon raised by 1e-6", "required_epsilon",
           w.check, case, raised)
    expect("verdict: holds flipped", "does not hold", w.check, case,
           dataclasses.replace(report, holds=False))


def certificate():
    w = workloads.CertifySweep()
    case, outcome = next((c, o) for c in w.cases(7)
                         for o in [w.run(c)]
                         if o != workloads.REFUSED)
    expect("certify: program's certificate", None, w.check, case, outcome)
    bound, valid, zeros, poles = outcome
    n = len(zeros) + len(poles)
    expect("certify: lower bound inflated to n", "independent count",
           w.check, case, (n, valid, zeros, poles))
    expect("certify: lower bound below k - 1", "below k-1", w.check, case,
           (case[3] - 2, valid, zeros, poles))


def high_degree():
    w = workloads.HighDegree()
    cases = w.cases(7)
    per_family = (len(cases) - len(w.failing)) // len(w.families)
    for family_index, label, off, outside in (
            (2, "equispaced", "left the line", "left the line"),
            (4, "box", "secular residual", "outside the hull")):
        case = cases[per_family * family_index]      # n = 40 of the family
        report = w.run(case)
        expect(f"high_degree {label}: program's report", None, w.check, case,
               report)
        points = report.critical_points
        scale = abs(points[-1] - points[0])
        expect(f"high_degree {label}: point moved off by 1e-6 of the span",
               off, w.check, case,
               dataclasses.replace(report, critical_points=shifted(
                   points, 5, 1e-6j * scale)))
        expect(f"high_degree {label}: point moved outside the hull", outside,
               w.check, case,
               dataclasses.replace(report, critical_points=shifted(
                   points, 0, -2.0 * abs(points[0]) - 0.02 - 0.02j)))
    case = cases[2 * per_family]                     # equispaced, n = 40
    points = sorted(w.run(case).critical_points, key=lambda z: z.real)
    points[2], points[3] = points[3] + 0j, points[3] + 1e-12
    expect("high_degree equispaced: two points in one gap", "interlace",
           ref.check_polynomial_critical, case[0].zeros, points)
    for family_index, label in ((0, "gauss"), (4, "box")):
        case = cases[per_family * family_index]      # n = 40 of the family
        report = w.run(case)
        points = list(report.critical_points)
        points[1] = points[0]
        expect(f"high_degree {label}: one point duplicated, another dropped",
               "critical point off", w.check, case,
               dataclasses.replace(report, critical_points=tuple(points)))


def search():
    w = workloads.ExtremalSearch()
    case = (4, 11)
    value, zeros = w.run(case)
    expect("search: program's result", None, w.check, case,
           (value, zeros))
    kakeya = ref.kakeya(4)
    expect("search: value above Kakeya", "above Kakeya", w.check, case,
           (kakeya + 1e-4, zeros))
    expect("search: value 2e-3 below Kakeya", "below", w.check, case,
           (kakeya - 2e-3, zeros))
    expect("search: witness moved by 1e-3", "witness value", w.check, case,
           (value, shifted(zeros, 2, 1e-3)))
    expect("search: witness with one zero in the disk",
           "lacks two zeros", w.check, case,
           (value, tuple(3.0 * z for z in zeros)))


if __name__ == "__main__":
    verdict()
    certificate()
    high_degree()
    search()
    print(f"{len(failures)} checker misbehaviours")
    sys.exit(1 if failures else 0)
