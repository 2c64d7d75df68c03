"""Reference figures: run the benchmark on several seeds and summarise it.

    python3 perfbench/reference.py --seeds 1-10 [--out FILE] [--log FILE]

Runs ``perfbench/run.py`` untraced once per (workload, seed), for every
workload of BENCHMARK.json at its ``run_seconds``, one run at a time, and
prints per workload and metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the quartile spread as
a share of the median.  Raw result lines go to ``--out`` and the runs'
stderr (check values, per-command timings) to ``--log`` when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(v) for v in text.split("-"))
        return list(range(low, high + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--log", type=Path, help="append every run's stderr here")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in seed_list(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(proc.stderr)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result.update(workload=workload, seed=seed)
            results.setdefault(workload, []).append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps(result) + "\n")
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']}",
                  file=sys.stderr, flush=True)
    print("| workload | metric | runs | median | Q1 | Q3 | (Q3-Q1)/median |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for workload, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("nan")
            print(f"| {workload} | {name} ({unit}) | {len(values)} | {median:.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {spread:.2%} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
