#!/usr/bin/env python3
"""Print the triviality trend table for three model maps.

A right multiplication (exactly trivial), a bounded-weight expansion map
(trivial with constant controlled by sup|phi|) and the lifted index-2
coordinate map (nontrivial: its residual grows with the dimension when
the sample stream mixes spiky and spread frames).

Each row is the residual column of ``splitting`` experiments.  The
lifted row is ``configs/splitting_lift.json`` itself; the right
multiplication, whose matrix is drawn per dimension, runs one
configuration per dimension.
"""

import json
from pathlib import Path

import numpy as np

from schatlab.centralizers import RightMultiplication, spec_to_doc
from schatlab.experiments import parse_config, run_experiment

SEED = 1
DIMS = [8, 16, 32, 64]
LIFT_CONFIG = Path(__file__).resolve().parent / "configs" / "splitting_lift.json"
BASE = {"experiment": "splitting", "seed": SEED, "samples": 48,
        "p": 2.0, "q": 2.0, "side": "left", "tag": "ginibre"}


def right_mult(dim: int) -> RightMultiplication:
    rng = np.random.default_rng(SEED + dim)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return RightMultiplication(z / np.sqrt(2.0))


def rows() -> dict[str, list[dict]]:
    """The splitting configurations of each map's row, in dimension order."""
    bounded = {"kind": "kp_bicentralizer", "phi": "min_s_1", "p": 2.0}
    return {
        "right multiplication": [{**BASE, "spec": spec_to_doc(right_mult(d)), "dims": [d]}
                                 for d in DIMS],
        "bounded-weight expansion": [{**BASE, "spec": bounded, "dims": DIMS}],
        "lifted coordinate map": [json.loads(LIFT_CONFIG.read_text(encoding="utf-8"))],
    }


def residuals(docs) -> list[float]:
    """The residual of each dimension of the configurations, in order."""
    return [r["residual"] for doc in docs for r in run_experiment(parse_config(doc))["rows"]]


if __name__ == "__main__":
    header = "  ".join(f"{d:>10d}" for d in DIMS)
    print(f"{'map (residual by dim)':28s} {header}")
    for label, docs in rows().items():
        cells = "  ".join(f"{r:10.3e}" for r in residuals(docs))
        print(f"{label:28s} {cells}")
