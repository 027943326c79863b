"""Named experiments behind the command-line runner.

Each experiment prepares a configuration: it loads and checks everything
a run reads, and returns the run, which gives CSV rows plus the detailed
reports that go into the JSON artifact.  Validating a configuration is
preparing it.  Everything is driven by the configuration seed; rerunning
a configuration reproduces the artifacts byte for byte.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
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
from .ioutil import doc_hash, jsonable
from .matcore import (
    DEFAULT_TOL,
    InputError,
    Tolerances,
    as_integer,
    checked,
    decode_fields,
    mat_from_json,
    validate_dim,
    validate_index,
)
from .metrology import (
    ESTIMATE_KINDS,
    SAMPLE_TAGS,
    EstimateReport,
    Sampler,
    _resolve_indices,
    distance_estimate,
    estimate_constants,
    fit_morphism,
    gamma_summing_mc,
)
from .seqcore import get_phi, kp_phi, lp_norm
from .twisted import quasinorm_modulus_probe

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
    output: str = ""
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
        """Every field but those that are None; an infinite index is "inf"."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if isinstance(value, tuple) else jsonable(value)
        return out

    def hash(self) -> str:
        return doc_hash(self.doc())


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


def _tol(cfg: ExperimentConfig) -> Tolerances:
    return replace(DEFAULT_TOL, **{k: float(v) for k, v in cfg.tolerances.items()})


def _check_pinned(cfg: ExperimentConfig, attr: str, fixed: int | None) -> None:
    """Refuse ``dims`` other than the dimension ``fixed`` that ``attr`` pins."""
    if fixed is not None and set(cfg.dims) - {fixed}:
        raise ConfigError(f"{attr} pins dimension {fixed} but dims are {list(cfg.dims)}",
                          field_name="dims")


def _load_spec(cfg: ExperimentConfig, attr: str = "spec",
               decode=spec_from_doc) -> CentralizerSpec | QuasilinearMap:
    """Decode the spec (or, by ``qmap_from_doc``, the vector map) in ``attr``
    and check that its indices resolve, as evaluation needs."""
    doc = getattr(cfg, attr)
    if doc is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs {attr!r}",
                          field_name=attr)
    try:
        if isinstance(doc, str):  # a path to the document
            doc = json.loads(Path(doc).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # bad JSON, UTF-8 or path: ValueErrors
        raise ConfigError(f"cannot read {attr} file: {exc}", field_name=attr) from None
    try:
        spec = decode(doc)
        spec.signature()
    except InputError as exc:
        raise ConfigError(f"bad {attr}: {exc}", field_name=attr) from None
    _check_pinned(cfg, attr, spec.fixed_dim())
    return spec


def _load_operator(cfg: ExperimentConfig) -> np.ndarray:
    """The gamma operator's columns, at least one: their count pins the dimension."""
    op = cfg.operator
    if not isinstance(op, dict) or op.get("kind") not in ("identity", "matrix"):
        raise ConfigError("gamma needs operator {'kind': 'identity'|'matrix', ...}",
                          field_name="operator")
    try:
        table = (np.eye(validate_dim(op.get("k", 0)), dtype=np.complex128)
                 if op["kind"] == "identity" else mat_from_json(op.get("value")))
        validate_dim(table.shape[1])
    except InputError as exc:
        raise ConfigError(f"bad {op['kind']} operator: {exc}", field_name="operator") from None
    _check_pinned(cfg, "operator", table.shape[1])
    return table


FIELDS_STANDARD = ("dim", "kind", "value", "samples", "seed")
FIELDS_SPLITTING = ("dim", "residual", "seed", "spec-hash")


@dataclass(frozen=True)
class Experiment:
    """A named experiment.  ``prepare(cfg)`` loads and checks everything a
    run of ``cfg`` reads, raising ConfigError, and returns the run: a
    closure giving the fieldnames, rows and reports (and a spec hash)."""

    name: str
    describe: str
    prepare: Callable[[ExperimentConfig], Callable[[], dict]]


def _sweep(cfg: ExperimentConfig, kinds) -> Callable[[], dict]:
    """Prepare a dimension sweep of ``kinds``: load and check what they
    read, and return the run, one row per dimension and kind in order.

    Every experiment runs one.  ``_resolve_indices`` gives its one (p, q),
    which every kind reads: each index as configured, else the spec's own.
    The Q/L/R/B kinds of a dimension come from one shared pass; each other
    kind has its measure, which gives an EstimateReport, also reported, or
    a (value, samples) pair.  A gamma operator pins the one dimension.  A
    sweep reading a spec records its hash, but for ``modulus``.
    """
    table = _load_operator(cfg) if "gamma" in kinds else None
    dims = cfg.dims if table is None else (table.shape[1],)
    if not dims:
        raise ConfigError(f"experiment {cfg.experiment!r} needs 'dims'", field_name="dims")
    if "modulus" in kinds and cfg.samples < 2:
        raise ConfigError("the modulus probe needs at least two samples",
                          field_name="samples")
    decode = qmap_from_doc if "modulus" in kinds and cfg.slot == "vec" else spec_from_doc
    spec = _load_spec(cfg, decode=decode) if set(kinds) - {"kp_seq", "gamma"} else None
    spec2 = _load_spec(cfg, "spec2") if "distance" in kinds else None
    p, q = (cfg.p, cfg.q) if spec is None else _resolve_indices(spec, cfg.p, cfg.q)
    if "kp_seq" in kinds:
        if p is None or math.isinf(p):
            raise ConfigError("kp_seq needs a finite index p", field_name="p")
        # the flat unit vector's coordinate d^(-1/p) must stay a normal double
        if max(dims) ** (-1.0 / p) < sys.float_info.min:
            raise ConfigError(f"kp_seq at p = {p!r}: the flat unit vector of dimension "
                              f"{max(dims)} underflows", field_name="p")
        phi = get_phi(cfg.phi)
    tol = _tol(cfg)

    def sampler(d):
        return Sampler(seed=cfg.seed, dim=d, p=p, tag=cfg.tag)

    measures = {  # kind -> measure of one dimension
        "kp_seq": lambda d: (lp_norm(kp_phi(  # at the flat unit vector of dimension d
            np.full(d, d ** (-1.0 / p), dtype=np.complex128), phi, p), p), 1),
        "residual": lambda d: (fit_morphism(
            spec, cfg.side, sampler(d).unit_sphere_chunks(range(cfg.samples)), q=q, p=p,
            tol=tol).residual, cfg.samples),
        "distance": lambda d: distance_estimate(
            spec, spec2, sampler(d), cfg.samples, p=p, q=q, tol=tol),
        "modulus": lambda d: quasinorm_modulus_probe(
            spec, pY=q, pX=p, dim=d, seed=cfg.seed, n_samples=cfg.samples, tol=tol),
        "gamma": lambda d: gamma_summing_mc(table, cfg.samples, cfg.seed),
    }
    defects = [kind for kind in kinds if kind in ESTIMATE_KINDS]

    def run() -> dict:
        rows, reports = [], []
        for d in dims:
            shared = iter(estimate_constants(spec, defects, sampler(d), cfg.samples, p=p,
                                             q=q, tol=tol) if defects else ())
            for kind in kinds:
                out = next(shared) if kind in ESTIMATE_KINDS else measures[kind](d)
                if isinstance(out, EstimateReport):
                    reports.append(out)
                    out = (out.value, out.samples)
                rows.append({"dim": d, "kind": kind, "value": out[0],
                             "samples": out[1], "seed": cfg.seed})
        out = {"fieldnames": FIELDS_STANDARD, "rows": rows, "reports": reports}
        if spec is not None and "modulus" not in kinds:
            out["spec_hash"] = spec_hash(spec)
        return out
    return run


def _listed(cfg: ExperimentConfig, allowed) -> tuple[str, ...]:
    """The configuration's ``kinds``, at least one, each one of ``allowed``."""
    if not cfg.kinds or set(cfg.kinds) - set(allowed):
        raise ConfigError(f"{cfg.experiment} needs kinds among {', '.join(allowed)}",
                          field_name="kinds")
    return cfg.kinds


def _splitting(cfg: ExperimentConfig) -> Callable[[], dict]:
    """The ``residual`` sweep, one row per dimension, with no reports.

    Trivial maps give residuals at solver precision; growth across the
    dimensions is trend data, never a verdict (the dichotomy is infinite
    dimensional)."""
    sweep = _sweep(cfg, ("residual",))

    def run() -> dict:
        out = sweep()
        rows = [{"dim": row["dim"], "residual": row["value"], "seed": row["seed"],
                 "spec-hash": out["spec_hash"]} for row in out["rows"]]
        return {**out, "fieldnames": FIELDS_SPLITTING, "rows": rows, "reports": []}
    return run


EXPERIMENTS: dict[str, Experiment] = {exp.name: exp for exp in (
    Experiment("constants", "measure defect constants (Q, L, R, B) of a spec per dimension",
               lambda cfg: _sweep(cfg, _listed(cfg, ESTIMATE_KINDS))),
    Experiment("growth", "dimension sweep of constants, fit residuals or the sequence witness",
               lambda cfg: _sweep(cfg, _listed(cfg, ESTIMATE_KINDS + _GROWTH_EXTRA_KINDS))),
    Experiment("gamma", "Monte Carlo Gaussian-average norm of an operator given by columns",
               lambda cfg: _sweep(cfg, ("gamma",))),
    Experiment("distance", "largest sampled gap between two specs, per dimension",
               lambda cfg: _sweep(cfg, ("distance",))),
    Experiment("splitting", "distance to module morphisms per dimension (triviality probe)",
               _splitting),
    Experiment("modulus", "empirical concavity modulus of a twisted quasinorm",
               lambda cfg: _sweep(cfg, ("modulus",))),
)}


def run_experiment(cfg: ExperimentConfig) -> dict:
    return EXPERIMENTS[cfg.experiment].prepare(cfg)()


def _one_of(allowed):
    return checked(lambda v: v in allowed, f"must be one of {list(allowed)}")


def _tuple_of(decode):
    listed = checked(lambda v: isinstance(v, (list, tuple)), "must be a list")
    return lambda values: tuple(decode(v) for v in listed(values))


def _index(value) -> float | None:
    return value if value is None else validate_index(value)


# how each field of a configuration document decodes; spec, spec2 and
# operator are taken as they are, for the experiment's preparation to read
_CONFIG_CODECS = {
    "experiment": _one_of(EXPERIMENTS),
    "seed": checked(lambda n: n >= 0, "seed must be nonnegative", as_integer),
    "output": checked(lambda v: isinstance(v, str) and "\0" not in v,
                      "output must be a path string"),
    "dims": checked(lambda ds: all(a < b for a, b in zip(ds, ds[1:])),
                    "dimensions must be strictly ascending", _tuple_of(validate_dim)),
    "p": _index,
    "q": _index,
    "kinds": _tuple_of(_one_of(ESTIMATE_KINDS + _GROWTH_EXTRA_KINDS)),
    "samples": checked(lambda n: n >= 1, "samples must be at least 1", as_integer),
    "tag": _one_of(SAMPLE_TAGS),
    "side": _one_of(("left", "right")),
    "slot": _one_of(("mat", "vec")),
    "phi": checked(lambda v: isinstance(v, str), "phi must be the name of a phi function"),
    "tolerances": checked(lambda t: isinstance(t, dict) and all(
        k in DEFAULT_TOL.__dataclass_fields__ and not isinstance(v, bool)
        and isinstance(v, (int, float)) and 0 < v < math.inf for k, v in t.items()),
        "tolerances must map tolerance names to positive finite numbers"),
}


def parse_config(doc: dict) -> ExperimentConfig:
    """The configuration of a document: every number finite, each field
    decoded by its codec, then prepared by its experiment; a refusal
    raises ConfigError, naming the field where one is at fault."""
    for key, value in (doc.items() if isinstance(doc, dict) else ()):
        _reject_non_finite(value, key, key)
    try:
        cfg = decode_fields(ExperimentConfig, doc, _CONFIG_CODECS, "configuration")
        EXPERIMENTS[cfg.experiment].prepare(cfg)
    except InputError as exc:
        raise ConfigError(str(exc), field_name=exc.diagnostics.get("field")) from None
    return cfg
