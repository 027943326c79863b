#!/usr/bin/env python3
"""One repetition of a benchmark workload, in a fresh process.

``run.py`` starts this script with BLAS threading pinned in the
environment.  The process imports schatlab, parses every configuration of
the workload (set-up ends there), runs them one after another through
``schatlab.cli.run_config``, checks the artifacts, then replays every
recorded witness through ``schatlab.cli.main``.  It writes its
measurements as one JSON document to ``--result``.

Modes:
  setup  stop after set-up;
  run    untraced run and replay, replay repeated for a steadier median;
  replay untraced replay of the artifacts a ``run`` process left in the
         working directory;
  light  only ``estimate_constant`` traced, for per-sample cost;
  trace  every layer traced; spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from tracer import ROOT_SPANS, Aggregate, Tracer  # noqa: E402
from workloads import config_docs  # noqa: E402

ARTIFACTS = ("results.csv", "report.json", "manifest.json")
FLOAT_FIELDS = ("value", "residual")
REFERENCE_RTOL = 1e-9
# untraced runs replay every witness until the budget is spent and report
# the median pass: one pass takes milliseconds on twisted_triviality and
# more than the budget on defects_large_n
REPLAY_MIN_PASSES = 2
REPLAY_MAX_PASSES = 200
REPLAY_BUDGET_S = 0.3
MODES = ("setup", "run", "replay", "light", "trace")


def _environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
    }


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))


def _close(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= REFERENCE_RTOL * max(abs(x), abs(y))


def _check_artifacts(out: Path, reference_rows) -> str | None:
    """Reason the configuration's artifacts fail the gate, or None."""
    for name in ARTIFACTS:
        if not (out / name).is_file():
            return f"missing {name}"
    rows = _read_rows(out / "results.csv")
    if not rows:
        return "results.csv has no rows"
    for row in rows:
        for key in FLOAT_FIELDS:
            try:
                nan = key in row and math.isnan(float(row[key]))
            except ValueError:
                return f"results.csv {key}={row[key]!r} is not a number"
            if nan:
                return f"results.csv {key} is NaN"
    if reference_rows is None:
        return None
    if len(rows) != len(reference_rows):
        return f"{len(rows)} rows, reference has {len(reference_rows)}"
    for i, (row, ref) in enumerate(zip(rows, reference_rows)):
        if set(row) != set(ref):
            return f"row {i} columns {sorted(row)} differ from the reference"
        for key, want in ref.items():
            same = _close(row[key], want) if key in FLOAT_FIELDS else row[key] == want
            if not same:
                return f"row {i} {key}={row[key]} differs from reference {want}"
    return None


def _replay_targets(outputs: dict) -> list[tuple[str, int]]:
    targets = []
    for name, out in outputs.items():
        path = out / "report.json"
        if not path.is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            count = len(json.load(fh).get("reports", []))
        targets.extend((str(path), i) for i in range(count))
    return targets


def _replay_ok(rc: int, text: str) -> bool:
    if rc != 0:
        return False
    try:
        doc = json.loads(text.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return False
    return doc.get("ok") is True


def _run_configs(cli, cfgs: dict, reference) -> dict:
    """Run every configuration, timed, then gate its artifacts untimed."""
    outputs, errors = {}, {}
    run_s = 0.0
    for name, cfg in cfgs.items():
        t0 = time.perf_counter()
        try:
            outputs[name] = Path(cli.run_config(cfg))
        except Exception as exc:  # any failure of the program is a failed operation
            errors[name] = f"{type(exc).__name__}: {exc}"
        run_s += time.perf_counter() - t0

    failures, csv_sha256, artifact_bytes = [], {}, 0
    for name in cfgs:
        reason = errors.get(name)
        if reason is None:
            out = outputs[name]
            reason = _check_artifacts(out, None if reference is None else reference[name])
            artifact_bytes += sum((out / a).stat().st_size for a in ARTIFACTS
                                  if (out / a).is_file())
            if (out / "results.csv").is_file():
                csv_sha256[name] = hashlib.sha256(
                    (out / "results.csv").read_bytes()).hexdigest()
        if reason is not None:
            failures.append(f"run {name}: {reason}")
    return {"run_s": run_s, "outputs": outputs, "attempted": len(cfgs),
            "failures": failures, "csv_sha256": csv_sha256,
            "artifact_bytes": artifact_bytes}


def _replay_all(cli, outputs: dict, one_pass: bool) -> dict:
    """Replay every recorded witness; each replay is one operation."""
    targets = _replay_targets(outputs)
    passes, attempted, failures = [], 0, []
    while True:
        replies = []
        t0 = time.perf_counter()
        for path, index in targets:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = cli.main(["replay", path, "--index", str(index)])
            except Exception as exc:  # a crashing replay is a failed operation
                rc, buf = -1, io.StringIO(f"{type(exc).__name__}: {exc}")
            replies.append((path, index, rc, buf.getvalue()))
        passes.append(time.perf_counter() - t0)
        for path, index, rc, text in replies:
            attempted += 1
            if not _replay_ok(rc, text):
                failures.append(f"replay {path}#{index}: exit {rc} {text.strip()[-200:]}")
        if one_pass or len(passes) >= REPLAY_MAX_PASSES:
            break
        if len(passes) >= REPLAY_MIN_PASSES and sum(passes) >= REPLAY_BUDGET_S:
            break
    return {"replay_s": statistics.median(passes), "attempted": attempted,
            "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before spawning")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    import schatlab.cli as cli
    from schatlab.experiments import parse_config

    cfgs = {name: parse_config(doc)
            for name, doc in config_docs(args.workload, args.seed).items()}
    result: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if args.mode == "setup":
        result["environment"] = _environment()
    elif args.mode == "replay":
        outputs = {name: Path(name) for name in cfgs if Path(name).is_dir()}
        result.update(_replay_all(cli, outputs, one_pass=False))
    else:
        reference = None
        if args.seed is None:
            reference = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
            reference = reference["rows"][args.workload]
        tracer = None
        if args.mode == "trace":
            tracer = Tracer().install()
        elif args.mode == "light":
            tracer = Tracer(only=("metrology.estimate_constant",)).install()
        ran = _run_configs(cli, cfgs, reference)
        replayed = _replay_all(cli, ran.pop("outputs"), one_pass=tracer is not None)
        if tracer is not None:
            tracer.uninstall()
        result.update(ran)
        result.update(replay_s=replayed["replay_s"],
                      attempted=ran["attempted"] + replayed["attempted"],
                      failures=ran["failures"] + replayed["failures"],
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            layers = _layer_values(Aggregate(tracer.spans))
            layers["cli.artifact_bytes"] = ran["artifact_bytes"]
            result.update(layers=layers, absent=sorted(tracer.absent))
            if args.spans:
                tracer.write(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _layer_values(agg: Aggregate) -> dict:
    """Every per-layer value the spans support; run.py picks the listed ones."""
    values: dict = {}
    for name in agg.calls:
        values[f"{name}.calls"] = agg.calls[name]
        values[f"{name}.self_s"] = agg.self_s[name]
        values[f"{name}.s"] = agg.total_s[name]
    values["cli.write_s"] = agg.total_s["cli.write"]
    values["cli.read_s"] = agg.total_s["cli.read"]
    values["trace.unattributed_s"] = sum(agg.self_s[n] for n in ROOT_SPANS)
    values["lapack.svd.work_n3"] = agg.svd_work()
    svd, samples = {}, {}
    for (tag, kind), counts in agg.lapack_counts().items():
        svd[kind] = svd.get(kind, 0) + counts["svd"]
        samples[kind] = samples.get(kind, 0) + counts["samples"]
    for kind, count in svd.items():
        values[f"lapack.svd.per_sample.{kind}"] = count / samples[kind]
    time_by, n_by = {}, {}
    for kind, dim, tag, n_samples, seconds in agg.estimates():
        key = f"metrology.ms_per_sample.{kind}.n{dim}"
        time_by[key] = time_by.get(key, 0.0) + seconds
        n_by[key] = n_by.get(key, 0) + n_samples
    for key, seconds in time_by.items():
        values[key] = 1000.0 * seconds / n_by[key]
    return values


if __name__ == "__main__":
    sys.exit(main())
