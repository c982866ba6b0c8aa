"""Benchmark of aglucas: one workload per process, one caller, one
operation in flight.

    python3 perfbench/run.py --workload verdict_sweep --seed 1 --seconds 15 \
        --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
same checkout.  The last line of standard output is a JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread per BLAS/OpenMP pool, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 3      # set-ups per run: this process plus two children

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up seconds and exit")
    return parser.parse_args(argv)


def set_up(workload_name: str, seed: int):
    """Import aglucas from this checkout, make the inputs and warm up.

    Returns (workload, cases, seconds taken).  The clock starts before the
    first import of numpy or aglucas.
    """
    start = time.perf_counter()
    if not (SRC / "aglucas" / "__init__.py").is_file():
        raise SystemExit(f"no aglucas sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aglucas

    if Path(aglucas.__file__).resolve().parent != SRC / "aglucas":
        raise SystemExit(f"imported aglucas from {aglucas.__file__}, "
                         f"not from {SRC}")
    from workloads import WORKLOADS

    if workload_name not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[workload_name]()
    cases = workload.cases(seed)
    for case in workload.warmup_cases():
        try:
            workload.run(case)
        except Exception as exc:
            if not workload.expected_failure(case, exc):
                raise
    return workload, cases, time.perf_counter() - start


def measure(workload, cases, seconds: float):
    """Closed loop over whole rounds until ``seconds`` of timed work.

    After each round, outside the timed region, every outcome of the round
    (a result or the exception raised) is checked and then dropped, so the
    memory held for checking is one round's.  The peak resident memory is
    read after the first round's operations and before its checks: every
    round replays the same inputs, so the peak is the program's, not that
    of the modules the checks import.  Returns (latency of each case in
    each round, operations failed, all correct, peak resident MB).
    """
    from reference import CheckFailed

    clock = time.perf_counter
    rounds, failed, problems = [], 0, []
    timed = 0.0
    while timed < seconds:
        latencies, outcomes = [], []
        round_began = clock()
        for case in cases:
            began = clock()
            try:
                outcome = workload.run(case)
            except Exception as exc:
                outcome = exc
            latencies.append(clock() - began)
            outcomes.append(outcome)
        timed += clock() - round_began
        if not rounds:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        rounds.append(latencies)
        for index, (case, outcome) in enumerate(zip(cases, outcomes)):
            if isinstance(outcome, Exception):
                failed += 1
                if not workload.expected_failure(case, outcome):
                    problems.append("".join(
                        traceback.format_exception(outcome)))
                continue
            try:
                workload.check(case, outcome)
            except CheckFailed as exc:
                problems.append(f"check failed on case {index}: {exc}")
    for problem in problems[:3]:
        print(problem, file=sys.stderr)
    return rounds, failed, not problems, peak_rss_mb


def end_to_end(rounds, failed: int) -> dict:
    """Timing metrics from per-case latencies.

    Each case runs once per round; its latency is the median over the
    rounds, which drops the odd round slowed by other load on the machine.
    Percentiles are taken over those per-case latencies, and ops_per_s is
    the operations a round completes over the sum of them.
    """
    per_case = [statistics.median(runs) for runs in zip(*rounds)]
    completed = len(per_case) - failed // len(rounds)
    deciles = statistics.quantiles(per_case, n=10, method="inclusive")
    return {"ops_per_s": completed / sum(per_case),
            "op_p50_ms": 1000.0 * statistics.median(per_case),
            "op_p90_ms": 1000.0 * deciles[-1]}


def setup_samples(args, first: float) -> list:
    """This run's set-up time and SETUP_REPEATS - 1 more, each measured in
    a fresh child process that sets up the same workload and exits."""
    samples = [first]
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--trace", "0", "--setup-only"]
    for _ in range(SETUP_REPEATS - 1):
        child = subprocess.run(command, capture_output=True, text=True,
                               timeout=150, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    args = _parse(argv)
    workload, cases, setup_seconds = set_up(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_seconds))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    workload.evaluations = 0            # count the timed operations only
    rounds, failed, correct, peak_rss_mb = measure(workload, cases,
                                                   args.seconds)
    attempted = len(rounds) * len(cases)
    values = end_to_end(rounds, failed)
    if tracer is not None:
        from tracing import PER_LAYER

        tracer.uninstall()
        print(f"traced ops_per_s {values['ops_per_s']:.6g}", file=sys.stderr)
        values = tracer.per_layer(attempted, workload.evaluations)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    else:
        values["peak_rss_mb"] = peak_rss_mb
        values["setup_s"] = statistics.median(
            setup_samples(args, setup_seconds))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
