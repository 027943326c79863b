#!/usr/bin/env python3
"""schatlab benchmark: one workload, measured in fresh child processes.

    python3 bench/run.py --workload defects_small_n [--seed N] \
        [--seconds 40] [--trace 0|1]

Each repetition is a closed loop in a new process (``child.py``): start,
import schatlab, parse the workload's configurations, run them one after
another, then replay every witness they recorded.  BLAS threading is
pinned to one thread in the child's environment before numpy loads.

``--trace 0`` measures the end-to-end metrics untraced: a few set-up-only
processes, then full repetitions, each followed by two processes that only
replay its artifacts, until ``--seconds`` is spent (at least three
repetitions), reporting medians.  ``--trace 1`` runs one repetition with only
``estimate_constant`` traced (per-sample cost and the untraced baseline
for the trace overhead), then fully traced repetitions, and reports the
per-layer metrics.

``--seed`` overrides the seed of every configuration.  Without it the
configurations keep their recorded seeds and the results are also checked
against ``reference.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import metric_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 2
MIN_REPS = 3
# replay time varies from process to process more than run time does, so
# each full repetition is followed by processes that only replay
REPLAY_PROCESSES = 2
# the whole command must end within 180 s, children included
HARD_LIMIT_S = 170.0
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int | None, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.started = time.monotonic()
        self.env = {k: v for k, v in os.environ.items() if k != "SCHATLAB_OUT"}
        self.env.update(PINNED_ENV, PYTHONPATH=str(ROOT / "src"))
        self.count = 0
        self.durations: dict[str, list[float]] = {}

    def spawn(self, mode: str, spans: Path | None = None) -> dict:
        self.count += 1
        result = self.work / f"result-{self.count}.json"
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time limit reached before the repetitions finished")
        cmd = [sys.executable, str(BENCH / "child.py"), "--workload", self.workload,
               "--mode", mode, "--result", str(result)]
        if self.seed is not None:
            cmd += ["--seed", str(self.seed)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--spawned-at", repr(t0)], cwd=self.work,
                                  env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition exceeded the time limit") from None
        self.durations.setdefault(mode, []).append(time.monotonic() - t0)
        if proc.returncode != 0 or not result.is_file():
            raise BenchError(f"{mode} repetition exited {proc.returncode}:\n"
                             + proc.stderr[-2000:])
        return json.loads(result.read_text(encoding="utf-8"))

    def another_fits(self, modes: tuple[str, ...], deadline: float) -> bool:
        typical = sum(statistics.median(self.durations[m]) for m in modes)
        return time.monotonic() + typical <= deadline


def _measure(runner: Runner, seconds: int) -> tuple[list, dict]:
    deadline = runner.started + seconds
    env = runner.spawn("setup")["environment"]  # also fills the bytecode cache
    setups = [runner.spawn("setup")["setup_s"] for _ in range(SETUP_PROBES)]
    reps, replays = [], []
    rep_modes = ("run",) + ("replay",) * REPLAY_PROCESSES
    while len(reps) < MIN_REPS or runner.another_fits(rep_modes, deadline):
        reps.append(runner.spawn("run"))
        replays += [runner.spawn("replay") for _ in range(REPLAY_PROCESSES)]
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps + replays]),
        "run_s": statistics.median([r["run_s"] for r in reps]),
        "replay_s": statistics.median([r["replay_s"] for r in reps + replays]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in reps]),
    }
    return reps + replays, {"metrics": metrics, "environment": env}


def _trace(runner: Runner, seconds: int) -> tuple[list, dict]:
    deadline = runner.started + seconds
    env = runner.spawn("setup")["environment"]
    spans = runner.work.parent / f"{runner.workload}.spans.jsonl"
    light = runner.spawn("light")
    traced = [runner.spawn("trace", spans)]
    while runner.another_fits(("trace",), deadline):
        traced.append(runner.spawn("trace", spans))
    names = set().union(*(t["layers"] for t in traced))
    # median_low keeps counts whole when the number of traced runs is even
    metrics = {name: statistics.median_low([t["layers"][name] for t in traced
                                            if name in t["layers"]])
               for name in names}
    metrics.update({k: v for k, v in light["layers"].items()
                    if k.startswith("metrology.ms_per_sample.")})
    metrics["trace.overhead_s"] = statistics.median([t["run_s"] for t in traced]) - light["run_s"]
    absent = set().union(*(t["absent"] for t in [light] + traced))
    return [light] + traced, {"metrics": metrics, "environment": env, "absent": absent}


def _emit(reps: list, measured: dict, listed: list, workload: str) -> dict:
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    # every repetition of one seed must write byte-identical results
    digests = {json.dumps(r["csv_sha256"], sort_keys=True) for r in reps
               if "csv_sha256" in r}
    correct = not failures and len(digests) == 1
    metrics = {}
    absent_groups = measured.get("absent", set())
    for entry in listed:
        name = entry["name"]
        if metric_spans(name) & absent_groups:
            metrics[name] = {"value": None, "unit": entry["unit"], "absent": True}
        else:
            # a metric the workload never exercises (an estimate kind or
            # dimension it does not run) is a measured zero
            metrics[name] = {"value": measured["metrics"].get(name, 0.0),
                             "unit": entry["unit"]}
    env = measured["environment"]
    print(f"# workload {workload}: {len(reps)} processes; numpy {env['numpy']}, "
          f"BLAS {env['blas']} x{env['blas_threads']} threads, nproc {env['nproc']}, "
          f"python {env['python']}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    if len(digests) > 1:
        print("# FAILED results.csv differs between repetitions of one seed")
    print(f"# error_rate {len(failures) / attempted:.6g} "
          f"({len(failures)} of {attempted} operations)")
    for name, m in metrics.items():
        per_rep = " ".join(f"{r[name]:.4g}" for r in reps if name in r)
        print(f"# {name} = {m['value']} {m['unit']}"
              + (f"  (repetitions: {per_rep})" if per_rep else ""))
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every configuration (default: recorded seeds)")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "schatlab" / "__init__.py").is_file():
        print("error: no schatlab sources under src/; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = ROOT / ".bench_out"
    work = out_root / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, work)
        measure = _trace if args.trace else _measure
        reps, measured = measure(runner, args.seconds)
        doc = _emit(reps, measured, listed, args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
