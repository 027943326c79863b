"""Homogeneous matrix maps as closed, serializable descriptions.

A spec is a small tagged tree (weighted singular expansions, lifts of
vector maps along the prescribed expansion, index lowering through the
polar parts, localizations, right multiplications, scalar combinations).
Keeping the description closed, rather than an opaque callable, lets the
measurement layer serialize, hash and replay every experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .ioutil import doc_hash
from .matcore import (
    DEFAULT_TOL,
    SCHMIDT_BACKENDS,
    InputError,
    Tolerances,
    adjoint,
    as_matrices,
    as_matrix,
    as_vector,
    combine_indices,
    mat_from_json,
    mat_to_json,
    rank_one,
    schmidt,
    validate_index,
)
from .seqcore import get_phi, kp_phi_rows

__all__ = [
    "QuasilinearMap",
    "KPOnH",
    "LinearMap",
    "ScaledMap",
    "SumMap",
    "apply_qmap",
    "apply_qmap_cols",
    "CentralizerSpec",
    "KPBicentralizer",
    "LiftedQuasilinear",
    "Lowered",
    "Localized",
    "RightMultiplication",
    "Scaled",
    "SumSpec",
    "zero_spec",
    "frame_ambiguous",
    "signature",
    "evaluate",
    "kp_bicentralizer",
    "lift_quasilinear",
    "lower_s",
    "SpatialPart",
    "spatial_part",
    "trace_functional",
    "localize",
    "validate_projection",
    "linear_from_rank_ones",
    "qmap_to_doc",
    "qmap_from_doc",
    "spec_to_doc",
    "spec_from_doc",
    "spec_hash",
    "register_spec_kind",
    "register_qmap_kind",
]


# --- homogeneous maps on C^n -------------------------------------------------


class QuasilinearMap:
    """Base tag for homogeneous vector maps."""


@dataclass(frozen=True)
class KPOnH(QuasilinearMap):
    """Weighted coordinate map on C^n in the canonical basis, index 2."""

    phi: str


@dataclass(frozen=True, eq=False)
class LinearMap(QuasilinearMap):
    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class ScaledMap(QuasilinearMap):
    inner: QuasilinearMap
    c: complex


@dataclass(frozen=True, eq=False)
class SumMap(QuasilinearMap):
    terms: tuple[QuasilinearMap, ...]


def apply_qmap(m: QuasilinearMap, y) -> np.ndarray:
    y = as_vector(y)
    return apply_qmap_cols(m, y.reshape(-1, 1))[:, 0]


def apply_qmap_cols(m: QuasilinearMap, cols: np.ndarray) -> np.ndarray:
    """Apply a vector map to every column of a 2-d array or of a stack."""
    cols = np.asarray(cols, dtype=np.complex128)
    if isinstance(m, KPOnH):
        # a view, not a copy: numpy's row sums follow the memory layout, so
        # a lone matrix and a stack must present their columns alike
        return kp_phi_rows(cols.swapaxes(-1, -2), get_phi(m.phi), 2.0).swapaxes(-1, -2)
    if isinstance(m, LinearMap):
        L = as_matrix(m.matrix)
        if L.shape[1] != cols.shape[-2]:
            raise InputError(f"linear map of shape {L.shape} cannot act on C^{cols.shape[-2]}")
        return L @ cols
    if isinstance(m, ScaledMap):
        return m.c * apply_qmap_cols(m.inner, cols)
    if isinstance(m, SumMap):
        out = np.zeros_like(cols)
        for t in m.terms:
            out = out + apply_qmap_cols(t, cols)
        return out
    raise InputError(f"unknown quasilinear map {type(m).__name__}")


# --- centralizer specs -------------------------------------------------------


class CentralizerSpec:
    """Base tag for homogeneous matrix maps."""


@dataclass(frozen=True)
class KPBicentralizer(CentralizerSpec):
    """Weighted singular expansion with weights phi(log(|f|_p/s_n), log n)."""

    phi: str
    p: float
    backend: str = "svd"


@dataclass(frozen=True, eq=False)
class LiftedQuasilinear(CentralizerSpec):
    """Lift of a vector map along the prescribed expansion.

    Acts by ``sum_k s_k rank_one(x_k, qmap(y_k))``.  The right-centralizer
    estimate it targets is only backed for 0 < p < 2 and q > p; evaluation
    outside that window is permitted but ``within_guarantee`` is False.
    """

    qmap: QuasilinearMap
    p: float
    q: float

    @property
    def within_guarantee(self) -> bool:
        return 0.0 < self.p < 2.0 and self.q > self.p


@dataclass(frozen=True, eq=False)
class Lowered(CentralizerSpec):
    """Index lowering: h -> inner(u |h|^(p1/p2)) |h|^(p1/s).

    ``p2`` is the inner map's input index (taken from its signature when
    not given) and p1 satisfies 1/p1 = 1/p2 + 1/s.
    """

    inner: CentralizerSpec
    s: float
    p_inner: float | None = None


@dataclass(frozen=True, eq=False)
class Localized(CentralizerSpec):
    """f -> inner(f e) for a fixed finite-rank projection e."""

    inner: CentralizerSpec
    e: np.ndarray


@dataclass(frozen=True, eq=False)
class RightMultiplication(CentralizerSpec):
    """f -> f g, the model trivial map (a morphism of left modules)."""

    g: np.ndarray


@dataclass(frozen=True, eq=False)
class Scaled(CentralizerSpec):
    inner: CentralizerSpec
    c: complex


@dataclass(frozen=True, eq=False)
class SumSpec(CentralizerSpec):
    terms: tuple[CentralizerSpec, ...]


def zero_spec() -> SumSpec:
    return SumSpec(())


def frame_ambiguous(f, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the singular frames of ``f`` are not pinned by the gap.

    Spec evaluations are only contract-covered for inputs whose
    consecutive singular values are separated by more than the gap
    tolerance; measurement reports attach this flag to their witnesses.
    """
    return bool(schmidt(as_matrix(f), tol).gap < tol.gap_rtol)


def _lowered_indices(spec: Lowered) -> tuple[float, float | None]:
    p2 = spec.p_inner
    q2 = None
    if p2 is None:
        p2, q2 = signature(spec.inner)
    else:
        _, q2 = signature(spec.inner)
    if p2 is None:
        raise InputError("lowering needs the inner map's input index")
    p1 = combine_indices(p2, spec.s)
    q1 = combine_indices(q2, spec.s) if q2 is not None else None
    return p1, q1


def signature(spec: CentralizerSpec) -> tuple[float | None, float | None]:
    """Natural (input, output) indices of a spec, where determined."""
    if isinstance(spec, KPBicentralizer):
        return spec.p, spec.p
    if isinstance(spec, LiftedQuasilinear):
        return spec.p, spec.q
    if isinstance(spec, Lowered):
        return _lowered_indices(spec)
    if isinstance(spec, (Localized, Scaled)):
        return signature(spec.inner)
    if isinstance(spec, RightMultiplication):
        return None, None
    if isinstance(spec, SumSpec):
        sigs = {signature(t) for t in spec.terms}
        return sigs.pop() if len(sigs) == 1 else (None, None)
    raise InputError(f"unknown spec {type(spec).__name__}")


def kp_bicentralizer(f, phi, p: float, tol: Tolerances = DEFAULT_TOL,
                     backend: str = "svd") -> np.ndarray:
    """Reweight the prescribed expansion of ``f`` by phi along (s_n, n).

    The weight sequence is the coordinate map of the singular values, so
    rank-one inputs map to 0 whenever phi vanishes at the origin (the
    single weight is phi(0, 0)), and the whole map inherits exact
    homogeneity from the expansion convention.
    """
    phi = get_phi(phi)
    p = validate_index(p)
    if math.isinf(p):
        raise InputError("kp_bicentralizer needs a finite index")
    if not phi.vanishes_at_origin:
        raise InputError(f"phi {phi.name!r} must vanish at the origin")
    return schmidt(f, tol, backend=backend).expand(lambda part: (
        (part.y * kp_phi_rows(part.s, phi, p)[:, None, :]) @ adjoint(part.x)))


def lift_quasilinear(qmap: QuasilinearMap, u, p: float,
                     tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Lift a vector map through the prescribed expansion of ``u``.

    ``sum_k s_k rank_one(x_k, qmap(y_k))``; on a normalized rank-one
    x (x) y the value is exactly rank_one(x, qmap(y)).
    """
    validate_index(p)
    return schmidt(u, tol).expand(lambda part: (
        (apply_qmap_cols(qmap, part.y) * part.s[:, None, :]) @ adjoint(part.x)))


def lower_s(spec: CentralizerSpec, s: float, h, p_inner: float | None = None,
            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate the index-lowered map at ``h``.

    With ``h = u |h|`` this is ``spec(u |h|^(p1/p2)) @ |h|^(p1/s)`` where
    p2 is the inner input index and 1/p1 = 1/p2 + 1/s.  Both polar parts
    come from one factorization of ``h``.
    """
    s = validate_index(s)
    if p_inner is None:
        p_inner = signature(spec)[0]
    if p_inner is None:
        raise InputError("lowering needs the inner map's input index")
    p2 = validate_index(p_inner)
    p1 = combine_indices(p2, s)

    def lowered(part):
        xh = adjoint(part.x)
        inner_arg = (part.y * (part.s ** (p1 / p2))[:, None, :]) @ xh
        radial = (part.x * (part.s ** (p1 / s))[:, None, :]) @ xh
        return evaluate(spec, inner_arg, tol) @ radial

    return schmidt(h, tol).expand(lowered)


def validate_projection(e, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    e = as_matrix(e)
    if e.shape[0] != e.shape[1]:
        raise InputError(f"projection must be square, got {e.shape}")
    scale = max(1.0, float(np.abs(e).max()) if e.size else 0.0)
    if np.abs(e - e.conj().T).max(initial=0.0) > tol.slack_atol * scale:
        raise InputError("projection must be Hermitian")
    if np.abs(e @ e - e).max(initial=0.0) > tol.slack_atol * scale:
        raise InputError("projection must be idempotent")
    return e


def localize(spec: CentralizerSpec, e, f, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate ``spec`` at ``f e`` for a finite-rank projection ``e``."""
    e = validate_projection(e, tol)
    f = as_matrices(f)
    if f.shape[-1] != e.shape[0]:
        raise InputError(f"cannot localize {f.shape} through {e.shape}")
    return evaluate(spec, f @ e, tol)


def evaluate(spec: CentralizerSpec, f, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Evaluate a spec tree at a matrix, or at each matrix of a (k, m, n)
    stack; every matrix of a stack gets the value it would get alone."""
    f = as_matrices(f)
    if isinstance(spec, KPBicentralizer):
        return kp_bicentralizer(f, spec.phi, spec.p, tol, backend=spec.backend)
    if isinstance(spec, LiftedQuasilinear):
        return lift_quasilinear(spec.qmap, f, spec.p, tol)
    if isinstance(spec, Lowered):
        return lower_s(spec.inner, spec.s, f, p_inner=spec.p_inner, tol=tol)
    if isinstance(spec, Localized):
        return localize(spec.inner, spec.e, f, tol)
    if isinstance(spec, RightMultiplication):
        g = as_matrix(spec.g)
        if f.shape[-1] != g.shape[0]:
            raise InputError(f"cannot multiply {f.shape} by {g.shape}")
        return f @ g
    if isinstance(spec, Scaled):
        return spec.c * evaluate(spec.inner, f, tol)
    if isinstance(spec, SumSpec):
        out = np.zeros(f.shape, dtype=np.complex128)
        for t in spec.terms:
            out = out + evaluate(t, f, tol)
        return out
    raise InputError(f"unknown spec {type(spec).__name__}")


@dataclass(frozen=True, eq=False)
class SpatialPart:
    """Vector map read off the eta-slot of rank-one values.

    ``value`` solves spec(rank_one(eta, y)) ~ rank_one(eta, value); the
    Frobenius norm of whatever is left outside that slot is ``residual``.
    Different choices of eta move the map by a bounded amount only, so
    the eta actually used is part of the record (``None`` selects the
    first basis vector).
    """

    value: np.ndarray
    residual: float
    eta: np.ndarray


def spatial_part(spec: CentralizerSpec, eta, y,
                 tol: Tolerances = DEFAULT_TOL) -> SpatialPart:
    y = as_vector(y)
    if eta is None:
        eta = np.zeros(y.size, dtype=np.complex128)
        eta[0] = 1.0
    eta = as_vector(eta)
    if abs(float(np.linalg.norm(eta)) - 1.0) > tol.slack_atol:
        raise InputError("spatial_part needs a normalized eta")
    m = evaluate(spec, rank_one(eta, y), tol)
    value = m @ eta
    residual = float(np.linalg.norm(m - np.outer(value, eta.conj())))
    return SpatialPart(value=value, residual=residual, eta=eta)


def trace_functional(spec: CentralizerSpec, f, tol: Tolerances = DEFAULT_TOL) -> complex:
    """Scalar map trace(u |f|^(1/2) spec(|f|^(1/2))), u the phase of f."""
    f = as_matrix(f)
    if f.shape[0] != f.shape[1]:
        raise InputError(f"trace_functional needs a square matrix, got {f.shape}")
    form = schmidt(f, tol)
    if form.rank == 0:
        return 0.0 + 0.0j
    xh = form.x.conj().T
    phase = form.y @ xh
    root = (form.x * np.sqrt(form.s)) @ xh
    return complex(np.trace(phase @ root @ evaluate(spec, root, tol)))


def linear_from_rank_ones(ell: Callable[[np.ndarray], complex], n: int) -> np.ndarray:
    """Matrix L with ell(f) = trace(L f), recovered from rank-one values.

    ``ell(rank_one(e_i, e_j))`` is exactly the (i, j) entry of L, so a
    linear functional that is continuous in the first rank-one slot is
    pinned down by n^2 evaluations.
    """
    basis = np.eye(n, dtype=np.complex128)
    L = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            L[i, j] = complex(ell(rank_one(basis[i], basis[j])))
    return L


# --- wire format --------------------------------------------------------------

_QMAP_LOADERS: dict[str, Callable[[dict], QuasilinearMap]] = {}
_SPEC_LOADERS: dict[str, Callable[[dict], CentralizerSpec]] = {}


def register_qmap_kind(kind: str, loader: Callable[[dict], QuasilinearMap]) -> None:
    _QMAP_LOADERS[kind] = loader


def register_spec_kind(kind: str, loader: Callable[[dict], CentralizerSpec]) -> None:
    """Extension point: user constructors become loadable by name."""
    _SPEC_LOADERS[kind] = loader


def qmap_to_doc(m: QuasilinearMap) -> dict:
    if isinstance(m, KPOnH):
        return {"kind": "kp_on_h", "phi": m.phi}
    if isinstance(m, LinearMap):
        return {"kind": "linear", "matrix": mat_to_json(m.matrix)}
    if isinstance(m, ScaledMap):
        return {"kind": "scaled", "c": [m.c.real, m.c.imag],
                "inner": qmap_to_doc(m.inner)}
    if isinstance(m, SumMap):
        return {"kind": "sum", "terms": [qmap_to_doc(t) for t in m.terms]}
    raise InputError(f"cannot serialize quasilinear map {type(m).__name__}")


def qmap_from_doc(doc: dict) -> QuasilinearMap:
    kind = doc.get("kind")
    if kind == "kp_on_h":
        get_phi(doc["phi"])
        return KPOnH(phi=doc["phi"])
    if kind == "linear":
        return LinearMap(matrix=mat_from_json(doc["matrix"]))
    if kind == "scaled":
        re, im = doc["c"]
        return ScaledMap(inner=qmap_from_doc(doc["inner"]), c=complex(re, im))
    if kind == "sum":
        return SumMap(terms=tuple(qmap_from_doc(t) for t in doc["terms"]))
    if kind in _QMAP_LOADERS:
        return _QMAP_LOADERS[kind](doc)
    raise InputError(f"unknown quasilinear map kind {kind!r}")


def spec_to_doc(spec: CentralizerSpec) -> dict:
    if isinstance(spec, KPBicentralizer):
        return {"kind": "kp_bicentralizer", "phi": spec.phi, "p": spec.p,
                "backend": spec.backend}
    if isinstance(spec, LiftedQuasilinear):
        return {"kind": "lifted_quasilinear", "qmap": qmap_to_doc(spec.qmap),
                "p": spec.p, "q": spec.q}
    if isinstance(spec, Lowered):
        doc = {"kind": "lowered", "inner": spec_to_doc(spec.inner), "s": spec.s}
        if spec.p_inner is not None:
            doc["p_inner"] = spec.p_inner
        return doc
    if isinstance(spec, Localized):
        return {"kind": "localized", "inner": spec_to_doc(spec.inner),
                "e": mat_to_json(spec.e)}
    if isinstance(spec, RightMultiplication):
        return {"kind": "right_multiplication", "g": mat_to_json(spec.g)}
    if isinstance(spec, Scaled):
        return {"kind": "scaled", "c": [spec.c.real, spec.c.imag],
                "inner": spec_to_doc(spec.inner)}
    if isinstance(spec, SumSpec):
        return {"kind": "sum", "terms": [spec_to_doc(t) for t in spec.terms]}
    raise InputError(f"cannot serialize spec {type(spec).__name__}")


def spec_from_doc(doc: dict) -> CentralizerSpec:
    kind = doc.get("kind")
    if kind == "kp_bicentralizer":
        get_phi(doc["phi"])
        backend = doc.get("backend", "svd")
        if backend not in SCHMIDT_BACKENDS:
            raise InputError(f"unknown schmidt backend {backend!r}; known: {SCHMIDT_BACKENDS}")
        return KPBicentralizer(phi=doc["phi"], p=validate_index(doc["p"]),
                               backend=backend)
    if kind == "lifted_quasilinear":
        return LiftedQuasilinear(qmap=qmap_from_doc(doc["qmap"]),
                                 p=validate_index(doc["p"]),
                                 q=validate_index(doc["q"]))
    if kind == "lowered":
        p_inner = doc.get("p_inner")
        return Lowered(inner=spec_from_doc(doc["inner"]),
                       s=validate_index(doc["s"]),
                       p_inner=None if p_inner is None else validate_index(p_inner))
    if kind == "localized":
        return Localized(inner=spec_from_doc(doc["inner"]),
                         e=mat_from_json(doc["e"]))
    if kind == "right_multiplication":
        return RightMultiplication(g=mat_from_json(doc["g"]))
    if kind == "scaled":
        re, im = doc["c"]
        return Scaled(inner=spec_from_doc(doc["inner"]), c=complex(re, im))
    if kind == "sum":
        return SumSpec(terms=tuple(spec_from_doc(t) for t in doc["terms"]))
    if kind in _SPEC_LOADERS:
        return _SPEC_LOADERS[kind](doc)
    raise InputError(f"unknown spec kind {kind!r}")


def spec_hash(spec: CentralizerSpec) -> str:
    return doc_hash(spec_to_doc(spec))
