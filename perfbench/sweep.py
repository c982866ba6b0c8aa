"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads a,b] [--trace 1]

Runs ``run.py`` once per (workload, seed), one at a time, with the run
length from BENCHMARK.json.  Each result line is appended to
``perfbench/results/<workload>.trace<t>.jsonl``; the summary gives, per
metric, the median, the quartiles (statistics.quantiles, n=4) and their
distance as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    names = ",".join(w["name"] for w in config["workloads"])
    parser.add_argument("--workloads", default=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        rows = []
        out = out_dir / f"{workload}.trace{args.trace}.jsonl"
        for seed in args.seeds:
            began = time.perf_counter()
            proc = subprocess.run(
                config["command"] + ["--workload", workload, "--seed",
                                     str(seed), "--seconds",
                                     str(config["run_seconds"]),
                                     "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - began
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            row.update(workload=workload, seed=seed, wall_s=wall)
            rows.append(row)
            with out.open("a") as fh:
                fh.write(json.dumps(row) + "\n")
            print(f"{workload} seed {seed}: correct={row['correct']} "
                  f"attempted={row['attempted']} failed={row['failed']} "
                  f"wall={wall:.1f}s", flush=True)
        print(f"\n{workload}: {len(rows)} runs, failed share "
              f"{sorted({r['failed'] / r['attempted'] for r in rows})}")
        for name in rows[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) \
                if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:42s} median {med:12.6g}  q1 {q1:12.6g}  "
                  f"q3 {q3:12.6g}  spread {spread:7.2%}")
        print(flush=True)


if __name__ == "__main__":
    main()
