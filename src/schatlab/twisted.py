"""Twisted-sum quasinorms and empirical splitting probes.

A pair (g, f) in the twisted sum carries the quasinorm
``|g - map(f)|_pY + |f|_pX``.  Slots can be matrices (the map is a
centralizer spec, norms are Schatten) or vectors (the map is a vector
map, norms are l^p); the vector case with the index-2 coordinate map is
the classical twisted Hilbert space realized on C^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .centralizers import (
    CentralizerSpec,
    QuasilinearMap,
    apply_qmap,
    apply_qmap_cols,
    evaluate,
    qmap_from_doc,
    qmap_to_doc,
    spec_from_doc,
    spec_hash,
    spec_to_doc,
)
from .matcore import (
    DEFAULT_TOL,
    InputError,
    Tolerances,
    mat_from_json,
    mat_to_json,
    schatten_norm,
    validate_index,
    vec_from_json,
    vec_to_json,
)
from .metrology import (
    STREAM_PRIMARY,
    STREAM_SECONDARY,
    EstimateReport,
    REPLAY_HANDLERS,
    Sampler,
    fit_morphism,
)
from .seqcore import lp_norm

__all__ = [
    "TwistedVec",
    "twisted_quasinorm",
    "twisted_target",
    "TwistedTarget",
    "quasinorm_modulus_probe",
    "splitting_distance",
]


@dataclass(frozen=True, eq=False)
class TwistedVec:
    """Pair (g, f): g in the target slot, f in the quotient slot."""

    g: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.g)
        f = np.asarray(self.f)
        if g.shape != f.shape:
            raise InputError(f"twisted slots disagree: {g.shape} vs {f.shape}")


def twisted_quasinorm(v: TwistedVec, mapping, pY: float, pX: float,
                      tol: Tolerances = DEFAULT_TOL) -> float:
    """Quasinorm ``|g - map(f)|_pY + |f|_pX`` of a twisted pair.

    Zero exactly when f = 0 and g = 0, since map(0) = 0 by homogeneity.
    """
    pY = validate_index(pY)
    pX = validate_index(pX)
    g = np.asarray(v.g, dtype=np.complex128)
    f = np.asarray(v.f, dtype=np.complex128)
    if f.ndim == 2:
        if not isinstance(mapping, CentralizerSpec):
            raise InputError("matrix slots need a centralizer spec")
        return (schatten_norm(g - evaluate(mapping, f, tol), pY)
                + schatten_norm(f, pX))
    if f.ndim == 1:
        if not isinstance(mapping, QuasilinearMap):
            raise InputError("vector slots need a quasilinear vector map")
        return lp_norm(g - apply_qmap(mapping, f), pY) + lp_norm(f, pX)
    raise InputError(f"twisted slots must be vectors or matrices, got ndim {f.ndim}")


def _rows_lp(a: np.ndarray, p: float) -> np.ndarray:
    if math.isinf(p):
        return np.abs(a).max(axis=1, initial=0.0)
    return (np.sort(np.abs(a), axis=1) ** p).sum(axis=1) ** (1.0 / p)


@dataclass(frozen=True, eq=False)
class TwistedTarget:
    """Row-wise twisted quasinorm evaluator for Monte Carlo averaging."""

    qmap: QuasilinearMap
    pY: float
    pX: float

    def rows(self, wy: np.ndarray, wx: np.ndarray | None) -> np.ndarray:
        if wx is None:
            return _rows_lp(np.asarray(wy, dtype=np.complex128), self.pY)
        wy = np.asarray(wy, dtype=np.complex128)
        wx = np.asarray(wx, dtype=np.complex128)
        mapped = apply_qmap_cols(self.qmap, wx.T).T
        return _rows_lp(wy - mapped, self.pY) + _rows_lp(wx, self.pX)

    def doc(self) -> dict:
        return {"qmap": qmap_to_doc(self.qmap), "pY": self.pY, "pX": self.pX}


def twisted_target(qmap, pY: float = 2.0, pX: float = 2.0) -> TwistedTarget:
    """Twisted quasinorm of a vector map (or its document) for gamma estimates."""
    if isinstance(qmap, dict):
        qmap = qmap_from_doc(qmap)
    return TwistedTarget(qmap=qmap, pY=validate_index(pY), pX=validate_index(pX))


def _sparse_vector(rng, n: int) -> np.ndarray:
    # dyadic random support, so sampled pairs range from disjoint spikes
    # (the concavity extremizers) to fully spread vectors
    j = int(rng.integers(0, n.bit_length()))
    k = min(1 << j, n)
    out = np.zeros(n, dtype=np.complex128)
    support = rng.permutation(n)[:k]
    z = rng.standard_normal((k, 2))
    out[support] = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    return out


def _draw_pair(sampler: Sampler, slot: str, index: int, stream: int):
    rng = sampler.generator(stream, index)
    if slot == "mat":
        g, f = sampler._draw([rng, rng])
    elif slot == "vec":
        n = sampler.dim
        g = _sparse_vector(rng, n)
        f = _sparse_vector(rng, n)
    else:
        raise InputError(f"slot must be 'mat' or 'vec', got {slot!r}")
    return TwistedVec(g=g, f=f)


def _vec_doc(v: TwistedVec) -> dict:
    if np.asarray(v.f).ndim == 2:
        return {"g": mat_to_json(v.g), "f": mat_to_json(v.f), "slot": "mat"}
    return {"g": vec_to_json(v.g), "f": vec_to_json(v.f), "slot": "vec"}


def _vec_from_doc(doc: dict) -> TwistedVec:
    if doc["slot"] == "mat":
        return TwistedVec(g=mat_from_json(doc["g"]), f=mat_from_json(doc["f"]))
    return TwistedVec(g=vec_from_json(doc["g"]), f=vec_from_json(doc["f"]))


def _map_to_doc(mapping) -> dict:
    if isinstance(mapping, CentralizerSpec):
        return {"spec": spec_to_doc(mapping)}
    return {"qmap": qmap_to_doc(mapping)}


def _map_from_doc(doc: dict):
    if "spec" in doc:
        return spec_from_doc(doc["spec"])
    return qmap_from_doc(doc["qmap"])


def quasinorm_modulus_probe(mapping, pY: float, pX: float, dim: int, seed: int,
                            n_samples: int, slot: str = "mat",
                            tol: Tolerances = DEFAULT_TOL) -> EstimateReport:
    """Empirical concavity modulus of the twisted quasinorm.

    The probe maximizes ``|u + v| / (|u| + |v|)`` over sampled pairs; it
    stays at 1 (up to slack) when the map is additive and both indices
    are at least 1, and detects genuine quasinorm behavior otherwise.
    """
    if n_samples < 2:
        raise InputError("the modulus probe needs at least two samples")
    sampler = Sampler(seed=seed, dim=dim, p=2.0, tag="sparse")
    best = -math.inf
    witness: dict = {}
    for i in range(n_samples):
        u = _draw_pair(sampler, slot, i, STREAM_PRIMARY)
        v = _draw_pair(sampler, slot, i, STREAM_SECONDARY)
        both = TwistedVec(g=u.g + v.g, f=u.f + v.f)
        denom = (twisted_quasinorm(u, mapping, pY, pX, tol)
                 + twisted_quasinorm(v, mapping, pY, pX, tol))
        ratio = twisted_quasinorm(both, mapping, pY, pX, tol) / denom
        if ratio > best:
            best = ratio
            witness = {"index": i, "ratio": ratio,
                       "inputs": {"u": _vec_doc(u), "v": _vec_doc(v)}}
    return EstimateReport(
        kind="modulus", value=best, samples=n_samples, seed=seed,
        witness=witness, note="max over samples; lower bound of the true modulus",
        context={"pY": pY, "pX": pX, "dim": dim, "slot": slot,
                 "map": _map_to_doc(mapping)},
    )


def _replay_modulus(report: EstimateReport, tol: Tolerances = DEFAULT_TOL) -> float:
    ctx = report.context
    mapping = _map_from_doc(ctx["map"])
    u = _vec_from_doc(report.witness["inputs"]["u"])
    v = _vec_from_doc(report.witness["inputs"]["v"])
    both = TwistedVec(g=u.g + v.g, f=u.f + v.f)
    denom = (twisted_quasinorm(u, mapping, ctx["pY"], ctx["pX"], tol)
             + twisted_quasinorm(v, mapping, ctx["pY"], ctx["pX"], tol))
    return twisted_quasinorm(both, mapping, ctx["pY"], ctx["pX"], tol) / denom


REPLAY_HANDLERS["modulus"] = _replay_modulus


def splitting_distance(spec_or_builder, dims, seed: int, n_samples: int,
                       p: float, q: float, side: str = "left",
                       tag: str = "ginibre",
                       tol: Tolerances = DEFAULT_TOL) -> list[dict]:
    """Per-dimension distance of a spec to module morphisms.

    For each dimension the best morphism of the chosen side is fitted on
    a seeded sample set and the worst (p, q) defect ratio is recorded.
    Trivial maps give residuals at solver precision on every dimension;
    residual growth across dimensions is reported as trend data, never as
    a verdict (the underlying dichotomy lives at infinite dimension).
    """
    dims = [int(d) for d in dims]
    if not dims or any(b <= a for a, b in zip(dims, dims[1:])):
        raise InputError("dimensions must be nonempty and strictly ascending")
    rows = []
    for d in dims:
        spec = spec_or_builder(d) if callable(spec_or_builder) else spec_or_builder
        sampler = Sampler(seed=seed, dim=d, p=p, tag=tag)
        samples = [sampler.unit_sphere(i, STREAM_PRIMARY) for i in range(n_samples)]
        fit = fit_morphism(spec, side, samples, q=q, p=p, tol=tol)
        rows.append({"dim": d, "residual": float(fit.residual),
                     "seed": int(seed), "spec-hash": spec_hash(spec)})
    return rows
