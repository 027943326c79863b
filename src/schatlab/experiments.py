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
    fixed = spec.fixed_dim()
    if fixed is not None and set(cfg.dims) - {fixed}:
        raise ConfigError(
            f"{attr} pins dimension {fixed} but dims are {list(cfg.dims)}",
            field_name="dims")
    return spec


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

    The Q/L/R/B kinds of a dimension come from one shared pass; each
    other kind has its measure, which gives an EstimateReport, also
    reported, or a (value, samples) pair.  A sweep reading ``spec``
    records its hash.
    """
    if not cfg.dims:
        raise ConfigError(f"experiment {cfg.experiment!r} needs 'dims'", field_name="dims")
    if "modulus" in kinds:
        if cfg.p is None or cfg.q is None:
            raise ConfigError("modulus needs pY in q and pX in p", field_name="p")
        if cfg.samples < 2:
            raise ConfigError("the modulus probe needs at least two samples",
                              field_name="samples")
        mapping = _load_spec(cfg, decode=qmap_from_doc if cfg.slot == "vec" else spec_from_doc)
    spec = _load_spec(cfg) if set(kinds) - {"kp_seq", "modulus"} else None
    spec2 = _load_spec(cfg, "spec2") if "distance" in kinds else None
    if set(kinds) & {*ESTIMATE_KINDS, "distance"}:
        for key, index in zip("pq", spec.signature()):
            if getattr(cfg, key) is None and index is None:
                raise ConfigError(f"the spec leaves index {key} open; the configuration "
                                  "must give it", field_name=key)
    if "kp_seq" in kinds:
        if cfg.p is None or math.isinf(cfg.p):
            raise ConfigError("kp_seq needs a finite index p", field_name="p")
        # the flat unit vector's coordinate d^(-1/p) must stay a normal double
        if max(cfg.dims) ** (-1.0 / cfg.p) < sys.float_info.min:
            raise ConfigError(f"kp_seq at p = {cfg.p!r}: the flat unit vector of dimension "
                              f"{max(cfg.dims)} underflows", field_name="p")
        phi = get_phi(cfg.phi)
    tol = _tol(cfg)

    def kp_seq(s):
        """The sequence witness at the flat unit vector of dimension s.dim."""
        x = np.full(s.dim, s.dim ** (-1.0 / cfg.p), dtype=np.complex128)
        return lp_norm(kp_phi(x, phi, cfg.p), cfg.p), 1

    measures = {  # kind -> measure of one dimension, given its sampler
        "kp_seq": kp_seq,
        "residual": lambda s: (fit_morphism(
            spec, cfg.side, s.unit_sphere_chunks(range(cfg.samples)), q=cfg.q if cfg.q else s.p,
            p=s.p, tol=tol).residual, cfg.samples),
        "distance": lambda s: distance_estimate(
            spec, spec2, s, cfg.samples, p=cfg.p, q=cfg.q, tol=tol),
        "modulus": lambda s: quasinorm_modulus_probe(
            mapping, pY=cfg.q, pX=cfg.p, dim=s.dim, seed=cfg.seed, n_samples=cfg.samples,
            slot=cfg.slot, tol=tol),
    }
    defects = [kind for kind in kinds if kind in ESTIMATE_KINDS]

    def run() -> dict:
        rows, reports = [], []
        for d in cfg.dims:
            sampler = Sampler(seed=cfg.seed, dim=d, p=cfg.p if cfg.p else 2.0, tag=cfg.tag)
            shared = iter(estimate_constants(spec, defects, sampler, cfg.samples, p=cfg.p,
                                             q=cfg.q, tol=tol) if defects else ())
            for kind in kinds:
                out = next(shared) if kind in ESTIMATE_KINDS else measures[kind](sampler)
                if isinstance(out, EstimateReport):
                    reports.append(out)
                    out = (out.value, out.samples)
                rows.append({"dim": d, "kind": kind, "value": out[0],
                             "samples": out[1], "seed": cfg.seed})
        out = {"fieldnames": FIELDS_STANDARD, "rows": rows, "reports": reports}
        if spec is not None:
            out["spec_hash"] = spec_hash(spec)
        return out
    return run


def _growth(cfg: ExperimentConfig) -> Callable[[], dict]:
    if not cfg.kinds:
        raise ConfigError("growth needs at least one kind", field_name="kinds")
    return _sweep(cfg, cfg.kinds)


def _constants(cfg: ExperimentConfig) -> Callable[[], dict]:
    if not cfg.kinds or any(k in _GROWTH_EXTRA_KINDS for k in cfg.kinds):
        raise ConfigError("constants needs kinds among Q, L, R, B", field_name="kinds")
    return _sweep(cfg, cfg.kinds)


def _splitting(cfg: ExperimentConfig) -> Callable[[], dict]:
    """The ``residual`` sweep, one row per dimension, with no reports.

    Trivial maps give residuals at solver precision; growth across the
    dimensions is trend data, never a verdict (the dichotomy is infinite
    dimensional)."""
    if cfg.p is None or cfg.q is None:
        raise ConfigError("splitting needs explicit p and q", field_name="p")
    sweep = _sweep(cfg, ("residual",))

    def run() -> dict:
        out = sweep()
        rows = [{"dim": row["dim"], "residual": row["value"], "seed": row["seed"],
                 "spec-hash": out["spec_hash"]} for row in out["rows"]]
        return {**out, "fieldnames": FIELDS_SPLITTING, "rows": rows, "reports": []}
    return run


def _gamma(cfg: ExperimentConfig) -> Callable[[], dict]:
    """The operator's columns, then its Monte Carlo Gaussian average."""
    op = cfg.operator
    if not isinstance(op, dict) or op.get("kind") not in ("identity", "matrix"):
        raise ConfigError("gamma needs operator {'kind': 'identity'|'matrix', ...}",
                          field_name="operator")
    try:
        table = (np.eye(validate_dim(op.get("k", 0)), dtype=np.complex128)
                 if op["kind"] == "identity" else mat_from_json(op.get("value")))
    except InputError as exc:
        raise ConfigError(f"bad {op['kind']} operator: {exc}", field_name="operator") from None

    def run() -> dict:
        rep = gamma_summing_mc(table, cfg.samples, cfg.seed)
        rows = [{"dim": table.shape[1], "kind": "gamma", "value": rep.value,
                 "samples": rep.samples, "seed": rep.seed}]
        return {"fieldnames": FIELDS_STANDARD, "rows": rows, "reports": [rep]}
    return run


EXPERIMENTS: dict[str, Experiment] = {exp.name: exp for exp in (
    Experiment("constants", "measure defect constants (Q, L, R, B) of a spec per dimension",
               _constants),
    Experiment("growth", "dimension sweep of constants, fit residuals or the sequence witness",
               _growth),
    Experiment("gamma", "Monte Carlo Gaussian-average norm of an operator given by columns",
               _gamma),
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
