"""Twisted-sum quasinorms and their empirical concavity modulus.

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
    apply_qmap_cols,
    evaluate,
    qmap_from_doc,
    qmap_to_doc,
    spec_from_doc,
    spec_to_doc,
)
from .matcore import (
    DEFAULT_TOL,
    InputError,
    Tolerances,
    lp_rows,
    schatten_norm,
    validate_index,
)
from .metrology import (
    REPORT_KINDS,
    STREAM_PRIMARY,
    STREAM_SECONDARY,
    EstimateReport,
    Sampler,
    dyadic_fills,
    max_over_stream,
)

__all__ = [
    "TwistedVec",
    "twisted_quasinorm",
    "twisted_target",
    "TwistedTarget",
    "quasinorm_modulus_probe",
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


def _pair_norms(g, f, mapping, pY: float, pX: float, tol: Tolerances) -> np.ndarray:
    """Quasinorm of each pair (g[i], f[i]) of two stacks; indices taken as valid."""
    if f.ndim == 3:
        if not isinstance(mapping, CentralizerSpec):
            raise InputError("matrix slots need a centralizer spec")
        return schatten_norm(g - evaluate(mapping, f, tol), pY) + schatten_norm(f, pX)
    if f.ndim == 2:
        if not isinstance(mapping, QuasilinearMap):
            raise InputError("vector slots need a quasilinear vector map")
        # one column per vector, as a lone vector is mapped
        d = g - apply_qmap_cols(mapping, f[..., None])[..., 0]
        if not (np.isfinite(d).all() and np.isfinite(f).all()):
            raise InputError("vector entries must be finite")
        return lp_rows(d, pY) + lp_rows(f, pX)
    raise InputError(f"twisted slots must be vectors or matrices, got ndim {f.ndim - 1}")


def twisted_quasinorm(v: TwistedVec, mapping, pY: float, pX: float,
                      tol: Tolerances = DEFAULT_TOL) -> float:
    """Quasinorm ``|g - map(f)|_pY + |f|_pX`` of a twisted pair.

    Zero exactly when f = 0 and g = 0, since map(0) = 0 by homogeneity.
    """
    g, f = (np.asarray(x, dtype=np.complex128)[None] for x in (v.g, v.f))
    return float(_pair_norms(g, f, mapping, validate_index(pY), validate_index(pX), tol)[0])


@dataclass(frozen=True, eq=False)
class TwistedTarget:
    """Row-wise twisted quasinorm evaluator for Monte Carlo averaging."""

    qmap: QuasilinearMap
    pY: float
    pX: float

    def rows(self, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
        return _pair_norms(wy, wx, self.qmap, self.pY, self.pX, DEFAULT_TOL)

    def doc(self) -> dict:
        return {"qmap": qmap_to_doc(self.qmap), "pY": self.pY, "pX": self.pX}


def twisted_target(qmap, pY: float = 2.0, pX: float = 2.0) -> TwistedTarget:
    """Twisted quasinorm of a vector map (or its document) for gamma estimates."""
    if isinstance(qmap, dict):
        qmap = qmap_from_doc(qmap)
    return TwistedTarget(qmap=qmap, pY=validate_index(pY), pX=validate_index(pX))


def _sparse_vectors(rngs, n: int) -> np.ndarray:
    """Complex normals on a dyadic random support from each generator, as
    a (k, n) stack, so sampled pairs range from disjoint spikes (the
    concavity extremizers) to spread vectors.  The stack is combined and
    placed by one call each."""
    supports, widths, z = dyadic_fills(rngs, n, 1)
    pairs = z[np.arange(2 * n) < 2 * widths[:, None]]  # (re, im) of each entry in turn
    out = np.zeros((len(rngs), n), dtype=np.complex128)
    out[np.repeat(np.arange(len(rngs)), widths), np.concatenate([s for s, in supports])] = (
        pairs[0::2] + 1j * pairs[1::2]) / math.sqrt(2.0)
    return out


def _draw_pairs(sampler: Sampler, slot: str, indices, stream: int) -> np.ndarray:
    """(g, f) of each sample, both from its generator, as a (k, 2, ...) stack."""
    rngs = [rng for rng in sampler.generators(stream, indices) for _ in "gf"]
    pairs = sampler._draw(rngs)[0] if slot == "mat" else _sparse_vectors(rngs, sampler.dim)
    return pairs.reshape(-1, 2, *pairs.shape[1:])


def _modulus_recipe(context: dict, seed: int):
    """``draw(chunk)`` of the modulus: the pairs u and v of each sample."""
    slot = context["slot"]
    if slot not in ("mat", "vec"):
        raise InputError(f"slot must be 'mat' or 'vec', got {slot!r}")
    sampler = Sampler(seed=seed, dim=context["dim"], p=2.0, tag="sparse")
    return lambda chunk: {"u": _draw_pairs(sampler, slot, chunk.indices, STREAM_PRIMARY),
                          "v": _draw_pairs(sampler, slot, chunk.indices, STREAM_SECONDARY)}


def _modulus_scorer(ctx, tol):
    """Concavity ratios |u + v| / (|u| + |v|), each term one stacked call."""
    doc = ctx["map"]
    mapping = spec_from_doc(doc["spec"]) if "spec" in doc else qmap_from_doc(doc["qmap"])
    pY, pX = validate_index(ctx["pY"]), validate_index(ctx["pX"])

    def norms(pairs):
        return _pair_norms(pairs[:, 0], pairs[:, 1], mapping, pY, pX, tol)

    return lambda x, chunk: norms(x["u"] + x["v"]) / (norms(x["u"]) + norms(x["v"]))


REPORT_KINDS["modulus"] = (_modulus_scorer, _modulus_recipe)


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
    doc = ({"spec": spec_to_doc(mapping)} if isinstance(mapping, CentralizerSpec)
           else {"qmap": qmap_to_doc(mapping)})
    return max_over_stream(
        [("modulus", {"pY": pY, "pX": pX, "dim": dim, "slot": slot, "map": doc})],
        Sampler(seed=seed, dim=dim, p=2.0, tag="sparse"), n_samples, tol,
        note="max over samples; lower bound of the true modulus")[0]
