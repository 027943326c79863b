"""Command-line runner: run, list, replay, validate.

Configurations are single JSON documents; command-line flags only
override individual fields.  Every run writes its CSV/JSON results plus
a manifest carrying the configuration hash, the spec hash, the library
version and the BLAS thread-count variables, with no timestamps, so
identical configurations yield byte-identical artifacts.  The other
environment input is SCHATLAB_OUT, the default output directory.  LAPACK
can round otherwise under another thread count, so a replay that does not
reproduce its witness names the recorded and the current counts.
The argument parser is built once per process and reused by every ``main``
call in it (in-process replays, ``scripts/run_all.py``).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path

import schatlab

from . import __version__
from .centralizers import CentralizerSpec, QuasilinearMap
from .experiments import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    parse_config,
    run_experiment,
)
from .ioutil import jsonable, jsonable_float, read_json, write_csv, write_json
from .matcore import InputError, NumericError
from .metrology import ESTIMATE_KINDS, EstimateReport, reevaluate_witness
from .seqcore import PHI_TABLE

OUTPUT_ENV = "SCHATLAB_OUT"
BLAS_THREAD_ENV = ("MKL_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")


def _summary(obj) -> str:
    return (inspect.getdoc(obj) or "").split("\n", 1)[0]


def list_builtins() -> str:
    """Human-readable table of registered building blocks."""
    lines = ["phi functions:"]
    for name, phi in sorted(PHI_TABLE.items()):
        extra = f", sup {phi.sup_bound:g}" if phi.sup_bound is not None else ""
        lines.append(f"  {name:24s} Lipschitz {phi.lipschitz:g}{extra}")
    operations = {name: obj for name, obj in vars(schatlab).items()
                  if inspect.isfunction(obj) and not name.startswith("_")}
    for title, table in (("spec constructors", CentralizerSpec.kinds),
                         ("vector maps", QuasilinearMap.kinds),
                         ("operations", operations)):
        lines.append(f"{title}:")
        lines.extend(f"  {name:24s} {_summary(obj)}" for name, obj in table.items())
    lines.append("experiments:")
    for name, exp in sorted(EXPERIMENTS.items()):
        lines.append(f"  {name:24s} {exp.describe}")
    lines.append("estimate kinds: " + ", ".join(ESTIMATE_KINDS))
    return "\n".join(lines) + "\n"


def _blas_threads() -> dict:
    """Each BLAS thread-count variable as set, None where unset."""
    return {name: os.environ.get(name) for name in BLAS_THREAD_ENV}


def _emit_error(doc: dict) -> None:
    print(json.dumps({"error": doc}, sort_keys=True))


def _apply_overrides(doc: dict, args) -> dict:
    doc = dict(doc)
    if args.output is not None:
        doc["output"] = args.output
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.samples is not None:
        doc["samples"] = args.samples
    if args.dims is not None:
        doc["dims"] = [d for d in args.dims.split(",") if d]
    if args.tag is not None:
        doc["tag"] = args.tag
    return doc


def _output_dir(cfg: ExperimentConfig) -> Path:
    if cfg.output:
        return Path(cfg.output)
    base = os.environ.get(OUTPUT_ENV, "schatlab-out")
    return Path(base) / cfg.experiment


class OutputError(Exception):
    """The output path cannot hold the artifacts."""

    def __init__(self, message: str, path: Path):
        super().__init__(message)
        self.path = path


def _check_output(out: Path) -> None:
    """Refuse an output path that names a file or lies under one."""
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise OutputError(f"output path {str(out)!r}: {str(path)!r} "
                                  "is not a directory", out)
            return


def _write_artifacts(out: Path, writers) -> None:
    """Write every artifact to a temporary file beside its target, then move
    them all into place.

    ``writers`` maps each artifact name to a function writing it to a
    given path.  If a write fails, the temporary files are removed, and
    so are the directories this call made; an existing directory and
    every file in it but the temporaries are left as they were.
    """
    made = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    staged = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            staged.append((out / f".{name}.{os.getpid()}.tmp", out / name))
            write(staged[-1][0])
        for tmp, target in staged:
            os.replace(tmp, target)
    except BaseException as exc:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        for path in made:
            with contextlib.suppress(OSError):  # left in place if not empty
                path.rmdir()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write artifacts to {str(out)!r}: {exc}", out) from exc
        raise


def run_config(cfg: ExperimentConfig) -> Path:
    """Execute one experiment, then write results.csv/report.json/manifest.json.

    The output path is checked before the experiment runs.  The
    artifacts are staged and moved into place only once all three are
    written, so a failed run or write leaves no new directory and no
    partial artifacts.
    """
    config_hash = cfg.hash()
    out = _output_dir(cfg)
    _check_output(out)
    result = run_experiment(cfg)
    report = {
        "config_hash": config_hash,
        "version": __version__,
        "experiment": cfg.experiment,
        "reports": [rep.to_doc() for rep in result["reports"]],
        "rows": [{k: jsonable(v) for k, v in row.items()} for row in result["rows"]],
    }
    if "spec_hash" in result:
        report["spec_hash"] = result["spec_hash"]
    manifest = {
        "config_hash": config_hash,
        "spec_hash": result.get("spec_hash"),
        "version": __version__,
        "experiment": cfg.experiment,
        "artifacts": ["results.csv", "report.json"],
        "config": cfg.doc(),
        "blas_threads": _blas_threads(),
    }
    _write_artifacts(out, {
        "results.csv": lambda path: write_csv(path, result["fieldnames"], result["rows"],
                                              config_hash=config_hash),
        "report.json": lambda path: write_json(path, report),
        "manifest.json": lambda path: write_json(path, manifest),
    })
    return out


def _load_config(path, args=None) -> ExperimentConfig | None:
    """Read and validate a configuration, ``run`` flags applied when given.

    On failure the structured error is printed and None returned.
    """
    try:
        doc = read_json(path)
        if args is not None and isinstance(doc, dict):
            doc = _apply_overrides(doc, args)
        return parse_config(doc)
    except ConfigError as exc:
        _emit_error(exc.to_doc())
    except (OSError, json.JSONDecodeError) as exc:
        _emit_error({"type": "config", "message": f"cannot read config: {exc}"})
    return None


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args)
    if cfg is None:
        return 2
    try:
        out = run_config(cfg)
    except OutputError as exc:
        _emit_error({"type": "output", "message": str(exc), "path": str(exc.path)})
        return 2
    except NumericError as exc:
        _emit_error({"type": "numeric", "message": str(exc),
                     "diagnostics": exc.diagnostics})
        return 3
    except InputError as exc:
        _emit_error({"type": "input", "message": str(exc),
                     **({"diagnostics": exc.diagnostics} if exc.diagnostics else {})})
        return 2
    print(json.dumps({"ok": True, "output": str(out), "config_hash": cfg.hash()},
                     sort_keys=True))
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    print(json.dumps({"ok": True, "config_hash": cfg.hash()}, sort_keys=True))
    return 0


def _cmd_replay(args) -> int:
    if not args.atol >= 0.0:  # NaN compares false, and would fail every replay
        _emit_error({"type": "replay",
                     "message": f"--atol must be a nonnegative number, got {args.atol}"})
        return 2
    try:
        doc = read_json(args.report)
        reports = doc.get("reports", []) if isinstance(doc, dict) else []
        if not isinstance(reports, list):
            raise InputError(f"reports must be a list, got {reports!r}")
        if not 0 <= args.index < len(reports):
            raise InputError(f"index {args.index} out of range of {len(reports)} reports")
        rep = EstimateReport.from_doc(reports[args.index])
        recomputed = reevaluate_witness(rep)
    except (OSError, json.JSONDecodeError, KeyError, InputError) as exc:
        _emit_error({"type": "replay", "message": str(exc)})
        return 2
    except NumericError as exc:  # e.g. a context index too small to norm at
        _emit_error({"type": "replay", "message": str(exc), "diagnostics": exc.diagnostics})
        return 2
    recorded = float(rep.witness["ratio"])
    # inf - inf is NaN, and a NaN recomputed from a NaN is reproduced
    same = recomputed == recorded or (math.isnan(recomputed) and math.isnan(recorded))
    delta = 0.0 if same else abs(recomputed - recorded)
    reply = {
        "kind": rep.kind,
        "recorded": jsonable_float(recorded),
        "recomputed": jsonable_float(recomputed),
        "delta": jsonable_float(delta),
        "ok": delta <= args.atol,
    }
    if not reply["ok"]:  # a thread count unlike the run's can explain the drift
        reply["blas_threads"] = {"recorded": _manifest_blas_threads(args.report),
                                 "current": _blas_threads()}
    print(json.dumps(reply, sort_keys=True))
    return 0 if reply["ok"] else 4


def _manifest_blas_threads(report) -> dict | None:
    """The BLAS thread counts the manifest beside ``report`` records, if any."""
    try:
        manifest = read_json(Path(report).with_name("manifest.json"))
    except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
        return None
    return manifest.get("blas_threads") if isinstance(manifest, dict) else None


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use.  The command functions
    are bound here once, and read the module globals they call when they run."""
    parser = argparse.ArgumentParser(
        prog="schatlab",
        description="seeded experiments on matrix quasinorms and centralizers")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute an experiment configuration")
    p_run.add_argument("config", help="path to the JSON configuration")
    p_run.add_argument("--output", help="override the output directory")
    p_run.add_argument("--seed", type=int, help="override the seed")
    p_run.add_argument("--samples", type=int, help="override the sample count")
    p_run.add_argument("--dims", help="override dims, comma separated")
    p_run.add_argument("--tag", help="override the sampler distribution")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list", help="list built-in building blocks")
    p_list.set_defaults(fn=lambda args: (print(list_builtins(), end=""), 0)[1])

    p_val = sub.add_parser("validate", help="validate a configuration")
    p_val.add_argument("config")
    p_val.set_defaults(fn=_cmd_validate)

    p_rep = sub.add_parser("replay", help="re-execute a recorded witness sample")
    p_rep.add_argument("report", help="path to a report.json artifact")
    p_rep.add_argument("--index", type=int, default=0,
                       help="which report in the file (default 0)")
    p_rep.add_argument("--atol", type=float, default=1e-12,
                       help="nonnegative tolerance on the reproduced ratio")
    p_rep.set_defaults(fn=_cmd_replay)
    return parser


def main(argv=None) -> int:
    """Parse ``argv`` (default ``sys.argv[1:]``) and run its command.

    The parser is built once per process; every call parses into a fresh
    namespace, so no flag of one call reaches the next.
    """
    args = _parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
