#!/usr/bin/env python3
"""Write bench/reference.json: the results of every workload at its
recorded seeds, with the environment they were produced in.

    python3 bench/record_reference.py

``run.py`` without ``--seed`` checks every ``results.csv`` value against
these rows within 1e-9 relative.  Re-record only when a change is meant to
alter results, and say so with the largest relative drift.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def main() -> int:
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                      MKL_NUM_THREADS="1")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from child import _environment, _read_rows
    from workloads import WORKLOADS, config_docs

    from schatlab.cli import run_config
    from schatlab.experiments import parse_config

    work = ROOT / ".bench_out" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    rows: dict = {}
    try:
        os.chdir(work)
        for workload in WORKLOADS:
            rows[workload] = {}
            for name, doc in config_docs(workload, None).items():
                out = Path(run_config(parse_config(doc)))
                rows[workload][name] = _read_rows(out / "results.csv")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    env = {**_environment(), "cpu_model": _cpu_model(), "git_commit": _git_commit()}
    doc = {"environment": env, "rows": rows}
    (BENCH / "reference.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                          encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
