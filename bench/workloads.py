"""The benchmark's workloads: fixed sets of experiment configurations.

The documents are copies of the canned configurations in
``scripts/configs`` (sample counts and dimensions changed where noted), so
editing a canned configuration does not silently change the benchmark.
``expectations.json`` records why each workload exists and which layer
metrics should move which end-to-end metric on it.
"""

from __future__ import annotations

import copy

_KP_SPEC = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}

WORKLOADS: dict[str, dict[str, dict]] = {
    # scripts/configs/constants_kp.json as shipped
    "defects_small_n": {
        "constants_kp": {
            "experiment": "constants",
            "spec": _KP_SPEC,
            "dims": [4, 8, 16],
            "p": 2.0,
            "q": 2.0,
            "kinds": ["Q", "L", "R", "B"],
            "seed": 20260810,
            "samples": 500,
            "tag": "ginibre",
        },
    },
    # the same spec at LAPACK-bound sizes with Haar-framed draws
    "defects_large_n": {
        "constants_kp_large": {
            "experiment": "constants",
            "spec": _KP_SPEC,
            "dims": [64, 128],
            "p": 2.0,
            "q": 2.0,
            "kinds": ["Q", "B"],
            "seed": 20260810,
            "samples": 24,
            "tag": "haar_spectral",
        },
    },
    # the other four canned configurations; sample counts raised from
    # 48 / 400 / 100000 so that the run is not dominated by start-up
    "twisted_triviality": {
        "splitting_lift": {
            "experiment": "splitting",
            "spec": {"kind": "lifted_quasilinear",
                     "qmap": {"kind": "kp_on_h", "phi": "s"}, "p": 1.0, "q": 1.0},
            "dims": [8, 16, 32, 64],
            "p": 1.0,
            "q": 1.0,
            "side": "right",
            "tag": "sparse",
            "seed": 1,
            "samples": 192,
        },
        "modulus_z2": {
            "experiment": "modulus",
            "spec": {"kind": "kp_on_h", "phi": "s"},
            "slot": "vec",
            "dims": [8, 16, 32],
            "p": 2.0,
            "q": 2.0,
            "seed": 20260810,
            "samples": 1600,
        },
        "gamma_identity": {
            "experiment": "gamma",
            "operator": {"kind": "identity", "k": 8},
            "seed": 20260810,
            "samples": 400000,
        },
        "growth_kp_seq": {
            "experiment": "growth",
            "dims": [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024],
            "p": 2.0,
            "phi": "s",
            "kinds": ["kp_seq"],
            "seed": 20260810,
        },
    },
}


def config_docs(workload: str, seed: int | None) -> dict[str, dict]:
    """Configuration documents of a workload, keyed by configuration name.

    ``seed`` overrides every configuration's seed; ``None`` keeps the
    recorded defaults, the only seeds with reference values.  Each
    configuration writes to a directory named after it, relative to the
    working directory, so the configuration hash does not depend on where
    the checkout lives.
    """
    docs = {}
    for name, doc in WORKLOADS[workload].items():
        doc = copy.deepcopy(doc)
        if seed is not None:
            doc["seed"] = int(seed)
        doc["output"] = name
        docs[name] = doc
    return docs
