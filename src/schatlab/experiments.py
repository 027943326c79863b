"""Named experiments behind the command-line runner.

Each experiment consumes a validated configuration and returns CSV rows
plus the detailed reports that go into the JSON artifact.  Everything is
driven by the configuration seed; rerunning a configuration reproduces
the artifacts byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .centralizers import (
    CentralizerSpec,
    QuasilinearMap,
    qmap_from_doc,
    spec_from_doc,
    spec_hash,
)
from .ioutil import doc_hash, jsonable_float
from .matcore import DEFAULT_TOL, InputError, Tolerances, mat_from_json, validate_index
from .metrology import (
    ESTIMATE_KINDS,
    SAMPLE_TAGS,
    EstimateReport,
    Sampler,
    distance_estimate,
    estimate_constants,
    gamma_summing_mc,
)
from .seqcore import get_phi, kp_phi, lp_norm
from .twisted import quasinorm_modulus_probe, splitting_distance

__all__ = ["ExperimentConfig", "ConfigError", "EXPERIMENTS", "run_experiment",
           "parse_config"]


class ConfigError(ValueError):
    """A configuration document fails validation."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name

    def to_doc(self) -> dict:
        doc = {"type": "config", "message": str(self)}
        if self.field_name:
            doc["field"] = self.field_name
        return doc


_GROWTH_EXTRA_KINDS = ("residual", "kp_seq")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; the seed is never implicit."""

    experiment: str
    seed: int
    output: str
    dims: tuple[int, ...] = ()
    spec: dict | str | None = None      # inline document or file path
    spec2: dict | str | None = None
    operator: dict | None = None
    p: float | None = None
    q: float | None = None
    kinds: tuple[str, ...] = ()
    samples: int = 200
    tag: str = "ginibre"
    side: str = "left"
    slot: str = "mat"
    phi: str = "s"
    tolerances: dict = field(default_factory=dict)

    def doc(self) -> dict:
        out = {
            "experiment": self.experiment,
            "seed": self.seed,
            "output": self.output,
            "dims": list(self.dims),
            "samples": self.samples,
            "tag": self.tag,
            "side": self.side,
            "slot": self.slot,
            "phi": self.phi,
            "kinds": list(self.kinds),
            "tolerances": dict(self.tolerances),
        }
        for key in ("spec", "spec2", "operator"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        for key in ("p", "q"):  # an infinite index is written "inf"
            value = getattr(self, key)
            if value is not None:
                out[key] = jsonable_float(value)
        return out

    def hash(self) -> str:
        return doc_hash(self.doc())


_KNOWN_KEYS = {
    "experiment", "seed", "output", "dims", "spec", "spec2", "operator",
    "p", "q", "kinds", "samples", "tag", "side", "slot", "phi",
    "tolerances",
}


def _integers(values, key: str) -> tuple[int, ...]:
    try:
        if not isinstance(values, (list, tuple)) or any(
                isinstance(v, bool) or (isinstance(v, float) and not v.is_integer())
                for v in values):
            raise TypeError
        return tuple(int(v) for v in values)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be integer", field_name=key) from None


def _reject_non_finite(value, where: str, field_name: str) -> None:
    """Refuse a NaN or infinite number anywhere inside a JSON value: the
    configuration hash is canonical JSON, which has no such numbers."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{where} is {value}: configuration numbers must be finite "
                          '(write an infinite index as "inf")', field_name=field_name)
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_non_finite(item, f"{where}.{key}", field_name)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _reject_non_finite(item, f"{where}[{i}]", field_name)


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration must be a JSON object")
    unknown = set(doc) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}",
                          field_name=sorted(unknown)[0])
    for key, value in doc.items():
        _reject_non_finite(value, key, key)
    if "experiment" not in doc:
        raise ConfigError("missing experiment name", field_name="experiment")
    if doc["experiment"] not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {doc['experiment']!r}; known: {sorted(EXPERIMENTS)}",
            field_name="experiment")
    if "seed" not in doc:
        raise ConfigError("a seed is required; no implicit entropy",
                          field_name="seed")
    (seed,) = _integers([doc["seed"]], "seed")
    if seed < 0:
        raise ConfigError("seed must be nonnegative", field_name="seed")
    dims = _integers(doc.get("dims", ()), "dims")
    if any(d < 1 for d in dims):
        raise ConfigError("dimensions must be positive", field_name="dims")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ConfigError("dimensions must be strictly ascending",
                          field_name="dims")
    indices = {}
    for key in ("p", "q"):
        value = doc.get(key)
        if value is not None:
            try:
                value = math.inf if value in ("inf", "Infinity") else float(value)
                validate_index(value)
            except (InputError, TypeError, ValueError):
                raise ConfigError(f"index {key} must be positive",
                                  field_name=key) from None
        indices[key] = value
    (samples,) = _integers([doc.get("samples", 200)], "samples")
    if samples < 1:
        raise ConfigError("samples must be at least 1", field_name="samples")
    kinds = doc.get("kinds", ())
    if not isinstance(kinds, (list, tuple)):
        raise ConfigError("kinds must be a list", field_name="kinds")
    for k in kinds:
        if k not in ESTIMATE_KINDS + _GROWTH_EXTRA_KINDS:
            raise ConfigError(f"unknown kind {k!r}", field_name="kinds")
    kinds = tuple(kinds)
    side = doc.get("side", "left")
    if side not in ("left", "right"):
        raise ConfigError("side must be 'left' or 'right'", field_name="side")
    tag = doc.get("tag", "ginibre")
    if tag not in SAMPLE_TAGS:
        raise ConfigError(f"unknown sample tag {tag!r}; known: {list(SAMPLE_TAGS)}",
                          field_name="tag")
    slot = doc.get("slot", "mat")
    if slot not in ("mat", "vec"):
        raise ConfigError("slot must be 'mat' or 'vec'", field_name="slot")
    output = doc.get("output", "")
    if not isinstance(output, str) or "\0" in output:
        raise ConfigError("output must be a path string", field_name="output")
    phi = doc.get("phi", "s")
    if not isinstance(phi, str):
        raise ConfigError("phi must be the name of a phi function", field_name="phi")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be an object", field_name="tolerances")
    known_tols = set(DEFAULT_TOL.__dataclass_fields__)
    for key, value in tolerances.items():
        if key not in known_tols:
            raise ConfigError(f"unknown tolerance {key!r}; known: {sorted(known_tols)}",
                              field_name="tolerances")
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 < value < math.inf):
            raise ConfigError(f"tolerance {key!r} must be a positive finite number",
                              field_name="tolerances")
    cfg = ExperimentConfig(
        experiment=doc["experiment"],
        seed=seed,
        output=output,
        dims=dims,
        spec=doc.get("spec"),
        spec2=doc.get("spec2"),
        operator=doc.get("operator"),
        p=indices["p"],
        q=indices["q"],
        kinds=kinds,
        samples=samples,
        tag=tag,
        side=side,
        slot=slot,
        phi=phi,
        tolerances=tolerances,
    )
    EXPERIMENTS[cfg.experiment].validate(cfg)
    return cfg


def _tol(cfg: ExperimentConfig) -> Tolerances:
    if not cfg.tolerances:
        return DEFAULT_TOL
    return Tolerances(**{**{k: getattr(DEFAULT_TOL, k)
                            for k in DEFAULT_TOL.__dataclass_fields__},
                         **{k: float(v) for k, v in cfg.tolerances.items()}})


def _require(cfg: ExperimentConfig, *keys: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"experiment {cfg.experiment!r} needs {key!r}",
                              field_name=key)


def _resolve_doc(doc, attr: str):
    """Inline document, or a string path to one."""
    if isinstance(doc, str):
        try:
            return json.loads(Path(doc).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read {attr} file: {exc}",
                              field_name=attr) from None
    return doc


def _load_spec(cfg: ExperimentConfig, attr: str = "spec",
               decode=spec_from_doc) -> CentralizerSpec | QuasilinearMap:
    """Decode the spec (or, by ``qmap_from_doc``, the vector map) in ``attr``
    and check that its indices resolve, as evaluation needs."""
    doc = getattr(cfg, attr)
    if doc is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs {attr!r}",
                          field_name=attr)
    try:
        spec = decode(_resolve_doc(doc, attr))
        spec.signature()
    except InputError as exc:
        raise ConfigError(f"bad {attr}: {exc}", field_name=attr) from None
    fixed = spec.fixed_dim()
    if fixed is not None and any(d != fixed for d in cfg.dims):
        raise ConfigError(
            f"{attr} pins dimension {fixed} but dims are {list(cfg.dims)}",
            field_name="dims")
    return spec


FIELDS_STANDARD = ("dim", "kind", "value", "samples", "seed")
FIELDS_SPLITTING = ("dim", "residual", "seed", "spec-hash")


@dataclass(frozen=True)
class Experiment:
    name: str
    describe: str
    validate: Callable[[ExperimentConfig], None]
    execute: Callable[[ExperimentConfig], dict]


def _validate_constants(cfg):
    _require(cfg, "dims")
    _load_spec(cfg)
    if not cfg.kinds or any(k in _GROWTH_EXTRA_KINDS for k in cfg.kinds):
        raise ConfigError("constants needs kinds among Q, L, R, B",
                          field_name="kinds")


def _sweep(cfg: ExperimentConfig, kinds, measure) -> dict:
    """One row per dimension and kind; ``measure(sampler, kinds)`` returns,
    for each kind in order, an EstimateReport, which also goes into the
    reports, or a (value, samples) pair."""
    rows, reports = [], []
    for d in cfg.dims:
        sampler = Sampler(seed=cfg.seed, dim=d, p=cfg.p if cfg.p else 2.0,
                          tag=cfg.tag)
        for kind, out in zip(kinds, measure(sampler, kinds), strict=True):
            if isinstance(out, EstimateReport):
                reports.append(out)
                out = (out.value, out.samples)
            rows.append({"dim": d, "kind": kind, "value": out[0],
                         "samples": out[1], "seed": cfg.seed})
    return {"fieldnames": FIELDS_STANDARD, "rows": rows, "reports": reports}


def _validate_growth(cfg):
    _require(cfg, "dims")
    if not cfg.kinds:
        raise ConfigError("growth needs at least one kind", field_name="kinds")
    if set(cfg.kinds) - {"kp_seq"}:
        _load_spec(cfg)
    if "kp_seq" in cfg.kinds:
        if cfg.p is None:
            raise ConfigError("kp_seq needs the index p", field_name="p")
        get_phi(cfg.phi)


def _run_growth(cfg: ExperimentConfig) -> dict:
    spec = _load_spec(cfg) if set(cfg.kinds) - {"kp_seq"} else None
    tol = _tol(cfg)

    def measure_one(sampler, kind):
        """The kp_seq or residual value of one dimension."""
        if kind == "kp_seq":
            d = sampler.dim
            x = np.full(d, d ** (-1.0 / cfg.p), dtype=np.complex128)
            return lp_norm(kp_phi(x, get_phi(cfg.phi), cfg.p), cfg.p), 1
        (row,) = splitting_distance(spec, [sampler.dim], cfg.seed, cfg.samples,
                                    p=sampler.p, q=cfg.q if cfg.q else sampler.p,
                                    side=cfg.side, tag=cfg.tag, tol=tol)
        return row["residual"], cfg.samples

    def measure(sampler, kinds):
        defects = [kind for kind in kinds if kind in ESTIMATE_KINDS]
        reports = iter(estimate_constants(spec, defects, sampler, cfg.samples,
                                          p=cfg.p, q=cfg.q, tol=tol) if defects else ())
        return [next(reports) if kind in ESTIMATE_KINDS else measure_one(sampler, kind)
                for kind in kinds]

    out = _sweep(cfg, cfg.kinds, measure)
    if spec is not None:
        out["spec_hash"] = spec_hash(spec)
    return out


def _gamma_table(cfg: ExperimentConfig) -> np.ndarray:
    """Columns of the operator; validation builds exactly what a run uses."""
    op = cfg.operator
    if not isinstance(op, dict) or op.get("kind") not in ("identity", "matrix"):
        raise ConfigError("gamma needs operator {'kind': 'identity'|'matrix', ...}",
                          field_name="operator")
    if op["kind"] == "identity":
        (k,) = _integers([op.get("k", 0)], "operator")
        if k < 1:
            raise ConfigError("identity operator needs k >= 1", field_name="operator")
        return np.eye(k, dtype=np.complex128)
    if "value" not in op:
        raise ConfigError("matrix operator needs a value", field_name="operator")
    try:
        return mat_from_json(op["value"])
    except InputError as exc:
        raise ConfigError(f"bad matrix operator: {exc}", field_name="operator") from None


def _run_gamma(cfg: ExperimentConfig) -> dict:
    table = _gamma_table(cfg)
    rep = gamma_summing_mc(table, cfg.samples, cfg.seed)
    rows = [{"dim": table.shape[1], "kind": "gamma", "value": rep.value,
             "samples": rep.samples, "seed": rep.seed}]
    return {"fieldnames": FIELDS_STANDARD, "rows": rows, "reports": [rep]}


def _validate_distance(cfg):
    _require(cfg, "dims")
    _load_spec(cfg)
    _load_spec(cfg, "spec2")


def _run_distance(cfg: ExperimentConfig) -> dict:
    a = _load_spec(cfg)
    b = _load_spec(cfg, "spec2")
    tol = _tol(cfg)
    return {**_sweep(cfg, ("distance",), lambda sampler, _: [distance_estimate(
        a, b, sampler, cfg.samples, p=cfg.p, q=cfg.q, tol=tol)]),
            "spec_hash": spec_hash(a)}


def _validate_splitting(cfg):
    _require(cfg, "dims")
    _load_spec(cfg)
    if cfg.p is None or cfg.q is None:
        raise ConfigError("splitting needs explicit p and q", field_name="p")


def _run_splitting(cfg: ExperimentConfig) -> dict:
    spec = _load_spec(cfg)
    rows = splitting_distance(spec, cfg.dims, seed=cfg.seed,
                              n_samples=cfg.samples, p=cfg.p, q=cfg.q,
                              side=cfg.side, tag=cfg.tag, tol=_tol(cfg))
    return {"fieldnames": FIELDS_SPLITTING, "rows": rows, "reports": [],
            "spec_hash": spec_hash(spec)}


def _validate_modulus(cfg):
    _require(cfg, "dims")
    if cfg.p is None or cfg.q is None:
        raise ConfigError("modulus needs pY in q and pX in p", field_name="p")
    _modulus_map(cfg)


def _modulus_map(cfg: ExperimentConfig):
    return _load_spec(cfg, decode=qmap_from_doc if cfg.slot == "vec" else spec_from_doc)


def _run_modulus(cfg: ExperimentConfig) -> dict:
    mapping = _modulus_map(cfg)
    tol = _tol(cfg)
    return _sweep(cfg, ("modulus",), lambda sampler, _: [quasinorm_modulus_probe(
        mapping, pY=cfg.q, pX=cfg.p, dim=sampler.dim, seed=cfg.seed,
        n_samples=cfg.samples, slot=cfg.slot, tol=tol)])


EXPERIMENTS: dict[str, Experiment] = {exp.name: exp for exp in (
    Experiment("constants", "measure defect constants (Q, L, R, B) of a spec per dimension",
               _validate_constants, _run_growth),
    Experiment("growth", "dimension sweep of constants, fit residuals or the sequence witness",
               _validate_growth, _run_growth),
    Experiment("gamma", "Monte Carlo Gaussian-average norm of an operator given by columns",
               _gamma_table, _run_gamma),
    Experiment("distance", "largest sampled gap between two specs, per dimension",
               _validate_distance, _run_distance),
    Experiment("splitting", "distance to module morphisms per dimension (triviality probe)",
               _validate_splitting, _run_splitting),
    Experiment("modulus", "empirical concavity modulus of a twisted quasinorm",
               _validate_modulus, _run_modulus),
)}


def run_experiment(cfg: ExperimentConfig) -> dict:
    return EXPERIMENTS[cfg.experiment].execute(cfg)
