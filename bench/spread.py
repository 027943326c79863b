#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 bench/spread.py --workload defects_small_n --runs 10 [--first-seed 1]
        [--trace 0|1] [--json out.json]

For every metric: the median over the runs, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``, next to the bound ``BENCHMARK.json`` fixes.  A
spread at or above a third of its bound is flagged.  Use it to show that
a benchmark change kept the figures steady; a claimed gain compares two
commits with the same runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="also write the runs here")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        doc["seed"] = seed
        runs.append(doc)
        print(f"seed {seed}: correct={doc['correct']} failed={doc['failed']}/"
              f"{doc['attempted']} " + " ".join(
                  f"{m['name']}={doc['metrics'][m['name']]['value']}"
                  for m in listed if "bound" in m), flush=True)

    summary = {}
    for entry in listed:
        name = entry["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        if any(v is None for v in values) or len(values) < 2:
            continue
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = entry.get("bound")
        flag = "" if bound is None or spread < bound / 3 else "  <-- at or above bound/3"
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound}
        print(f"{name:40s} median {median:.6g} {entry['unit']}  spread {spread:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "runs": runs, "summary": summary},
            indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
