"""Deterministic serialization helpers shared by reports and the CLI.

Artifacts must be byte-identical across reruns of the same configuration,
so everything here avoids timestamps, environment lookups and hash-order
dependence.  CSV floats are printed with 17 significant digits and JSON
uses Python's shortest round-trip representation; both decode to the
exact binary value.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


def canonical_json(obj) -> str:
    """Key-sorted, whitespace-free JSON used for hashing documents."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def doc_hash(doc) -> str:
    return sha256_hex(canonical_json(doc))


def format_float(v: float) -> str:
    if isinstance(v, float) and math.isinf(v):
        return "inf" if v > 0 else "-inf"
    return format(v, ".17g")


def jsonable_float(v: float):
    # standard json carries neither inf (empty spectra) nor NaN (a one-sample
    # stderr): both are written as the CSV writes them
    if isinstance(v, float) and not math.isfinite(v):
        return format_float(v)
    return float(v)


def jsonable(v):
    """``v`` for a JSON document: a float through ``jsonable_float``, else as is."""
    return jsonable_float(v) if isinstance(v, float) else v


def write_json(path, doc) -> None:
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path, fieldnames, rows, config_hash: str | None = None) -> None:
    """Write rows with a fixed header; floats at 17 significant digits.

    When given, the configuration hash is embedded as a single leading
    comment line so every artifact names the run that produced it.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if config_hash is not None:
            fh.write(f"# config={config_hash}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow({
                k: format_float(v) if isinstance(v, float) else v
                for k, v in row.items()
            })


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))
