"""Homogeneous matrix maps as closed, serializable descriptions.

A spec is a small tagged tree (weighted singular expansions, lifts of
vector maps along the prescribed expansion, index lowering through the
polar parts, localizations, right multiplications, scalar combinations).
Keeping the description closed, rather than an opaque callable, lets the
measurement layer serialize, hash and replay every experiment.
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, fields
from typing import Callable, ClassVar

import numpy as np

from .ioutil import doc_hash, jsonable
from .matcore import (
    DEFAULT_TOL,
    InputError,
    SchmidtForm,
    Tolerances,
    as_integer,
    as_matrices,
    as_matrix,
    as_square,
    as_vector,
    combine_indices,
    decode_fields,
    expansion,
    mat_from_json,
    mat_to_json,
    rank_one,
    schmidt,
    trace,
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
    "evaluate",
    "SpatialPart",
    "spatial_part",
    "trace_functional",
    "validate_projection",
    "qmap_to_doc",
    "qmap_from_doc",
    "spec_to_doc",
    "spec_from_doc",
    "spec_hash",
]


# --- nodes -------------------------------------------------------------------

# a string field that names a registered phi
PhiName = typing.NewType("PhiName", str)


class Node:
    """A spec or vector-map node that carries its own behaviour.

    A class-level ``kind`` registers a node class in its family's
    ``kinds`` table, which decoding and ``schatlab list`` read; the first
    docstring line is the ``list`` text.  The dataclass fields, encoded
    by type, are the wire format.  A user kind is registered the same
    way: a dataclass subclass of ``CentralizerSpec`` or ``QuasilinearMap``
    with its ``kind``, whose fields are of the types ``_codec`` knows.
    """

    kind: ClassVar[str]
    kinds: ClassVar[dict]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "kind" in vars(cls):
            cls.kinds[cls.kind] = cls

    def _children(self):
        """Nodes held in the fields, in field order."""
        for f in fields(self):
            value = getattr(self, f.name)
            yield from (v for v in (value if isinstance(value, tuple) else (value,))
                        if isinstance(v, Node))

    def signature(self) -> tuple[float | None, float | None]:
        """Natural (input, output) indices; by default those all children share."""
        sigs = {child.signature() for child in self._children()}
        return sigs.pop() if len(sigs) == 1 else (None, None)

    def fixed_dim(self) -> int | None:
        """Dimension pinned by matrices inside, if any; by default the first child's."""
        dims = (child.fixed_dim() for child in self._children())
        return next((d for d in dims if d is not None), None)


class QuasilinearMap(Node):
    """Homogeneous vector maps; ``evaluate(cols, tol)`` maps every column
    of a 2-d array or of a stack and ignores ``tol``."""

    kinds: ClassVar[dict] = {}
    noun = "quasilinear map"


class CentralizerSpec(Node):
    """Homogeneous matrix maps; ``evaluate(f, tol)`` maps a matrix, or
    each matrix of a (k, m, n) stack.  A node that factors ``f`` sets
    ``takes_form`` and is called ``evaluate(f, tol, form)`` where the
    caller has ``form``, the Schmidt form of ``f``."""

    kinds: ClassVar[dict] = {}
    noun = "spec"
    takes_form: ClassVar[bool] = False
    # only lifts have an index window outside which no estimate is backed
    within_guarantee = True


def _at(node, x, tol, form):
    """``node`` at ``x``, handed ``form``, the Schmidt form of ``x``, if it takes it."""
    if form is not None and node.takes_form:
        return node.evaluate(x, tol, form)
    return node.evaluate(x, tol)


# combinators shared by both families; their input is already checked


class _ScaledBody:
    takes_form = True  # handed on to the inner map

    def evaluate(self, x, tol, form=None):
        return self.c * _at(self.inner, x, tol, form)


class _SumBody:
    takes_form = True  # handed on to every term

    def evaluate(self, x, tol, form=None):
        out = np.zeros(x.shape, dtype=np.complex128)
        for t in self.terms:
            out = out + _at(t, x, tol, form)
        return out


@dataclass(frozen=True)
class KPOnH(QuasilinearMap):
    """Index-2 weighted coordinate map on C^n in the canonical basis."""

    kind = "kp_on_h"
    phi: PhiName

    def evaluate(self, cols, tol):
        # a view, not a copy: numpy's row sums follow the memory layout, so
        # a lone matrix and a stack must present their columns alike
        return kp_phi_rows(cols.swapaxes(-1, -2), get_phi(self.phi), 2.0).swapaxes(-1, -2)


@dataclass(frozen=True, eq=False)
class LinearMap(QuasilinearMap):
    """Fixed linear map."""

    kind = "linear"
    matrix: np.ndarray

    def __post_init__(self):
        _check_square(self, "matrix")

    def evaluate(self, cols, tol):
        L = as_matrix(self.matrix)
        if L.shape[1] != cols.shape[-2]:
            raise InputError(f"linear map of shape {L.shape} cannot act on C^{cols.shape[-2]}")
        return L @ cols

    def fixed_dim(self) -> int:
        return int(self.matrix.shape[1])


@dataclass(frozen=True, eq=False)
class ScaledMap(_ScaledBody, QuasilinearMap):
    """Scalar multiple of a vector map."""

    kind = "scaled"
    inner: QuasilinearMap
    c: complex


@dataclass(frozen=True, eq=False)
class SumMap(_SumBody, QuasilinearMap):
    """Sum of vector maps."""

    kind = "sum"
    terms: tuple[QuasilinearMap, ...]


def apply_qmap(m: QuasilinearMap, y) -> np.ndarray:
    """Apply a vector map to one vector."""
    y = as_vector(y)
    return apply_qmap_cols(m, y.reshape(-1, 1))[:, 0]


def apply_qmap_cols(m: QuasilinearMap, cols: np.ndarray) -> np.ndarray:
    """Apply a vector map to every column of a 2-d array or of a stack."""
    return m.evaluate(np.asarray(cols, dtype=np.complex128), DEFAULT_TOL)


@dataclass(frozen=True)
class KPBicentralizer(CentralizerSpec):
    """Weighted singular expansion with weights phi(log(|f|_p/s_n), log n).

    The weight sequence is the coordinate map of the singular values, so
    rank-one inputs map to 0 (the single weight is phi(0, 0), and phi must
    vanish at the origin), and the map inherits exact homogeneity from the
    expansion convention.
    """

    kind = "kp_bicentralizer"
    takes_form = True
    phi: PhiName
    p: float

    def __post_init__(self):
        if math.isinf(validate_index(self.p)):
            raise InputError("kp_bicentralizer needs a finite index")
        phi = get_phi(self.phi)
        if not phi.vanishes_at_origin:
            raise InputError(f"phi {phi.name!r} must vanish at the origin")

    def evaluate(self, f, tol, form=None):
        return (form or schmidt(f, tol)).expand(lambda part: expansion(
            part.y, kp_phi_rows(part.s, self.phi, self.p), part.x))

    def signature(self):
        return self.p, self.p


@dataclass(frozen=True, eq=False)
class LiftedQuasilinear(CentralizerSpec):
    """Lift of a vector map along the prescribed expansion.

    Acts by ``sum_k s_k rank_one(x_k, qmap(y_k))``, so on a normalized
    rank-one x (x) y the value is exactly rank_one(x, qmap(y)).  The
    right-centralizer estimate it targets is only backed for 0 < p < 2 and
    q > p; evaluation outside that window is permitted but
    ``within_guarantee`` is False.
    """

    kind = "lifted_quasilinear"
    takes_form = True
    qmap: QuasilinearMap
    p: float
    q: float

    @property
    def within_guarantee(self) -> bool:
        return 0.0 < self.p < 2.0 and self.q > self.p

    def evaluate(self, f, tol, form=None):
        return (form or schmidt(f, tol)).expand(lambda part: expansion(
            apply_qmap_cols(self.qmap, part.y), part.s, part.x))

    def signature(self):
        return self.p, self.q


@dataclass(frozen=True, eq=False)
class Lowered(CentralizerSpec):
    """Index lowering: h -> inner(u |h|^(p1/p2)) |h|^(p1/s), h = u |h|.

    ``p2`` is the inner map's input index (taken from its signature when
    not given) and p1 satisfies 1/p1 = 1/p2 + 1/s.  Both polar parts come
    from one factorization of h.
    """

    kind = "lowered"
    takes_form = True
    inner: CentralizerSpec
    s: float
    p_inner: float | None = None

    def _input_indices(self) -> tuple[float, float]:
        """(p2, p1), the inner map's input index and the lowered one."""
        p2 = self.inner.signature()[0] if self.p_inner is None else self.p_inner
        if p2 is None:
            raise InputError("lowering needs the inner map's input index")
        return p2, combine_indices(p2, self.s)

    def evaluate(self, f, tol, form=None):
        p2, p1 = self._input_indices()

        def lowered(part):
            inner_arg, radial = part.holder(p1 / p2, p1 / self.s)
            return evaluate(self.inner, inner_arg, tol) @ radial

        return (form or schmidt(f, tol)).expand(lowered)

    def signature(self):
        q2 = self.inner.signature()[1]
        return self._input_indices()[1], None if q2 is None else combine_indices(q2, self.s)


@dataclass(frozen=True, eq=False)
class Localized(CentralizerSpec):
    """f -> inner(f e) for a fixed finite-rank projection e."""

    kind = "localized"
    inner: CentralizerSpec
    e: np.ndarray

    def __post_init__(self):
        validate_projection(self.e)

    def evaluate(self, f, tol):
        e = validate_projection(self.e, tol)
        if f.shape[-1] != e.shape[0]:
            raise InputError(f"cannot localize {f.shape} through {e.shape}")
        return evaluate(self.inner, f @ e, tol)

    def fixed_dim(self) -> int:
        inner = self.inner.fixed_dim()
        return inner if inner is not None else int(self.e.shape[0])


@dataclass(frozen=True, eq=False)
class RightMultiplication(CentralizerSpec):
    """f -> f g, the model trivial map (a morphism of left modules)."""

    kind = "right_multiplication"
    g: np.ndarray

    def __post_init__(self):
        _check_square(self, "g")

    def evaluate(self, f, tol):
        g = as_matrix(self.g)
        if f.shape[-1] != g.shape[0]:
            raise InputError(f"cannot multiply {f.shape} by {g.shape}")
        return f @ g

    def fixed_dim(self) -> int:
        return int(self.g.shape[0])


@dataclass(frozen=True, eq=False)
class Scaled(_ScaledBody, CentralizerSpec):
    """Scalar multiple of a spec."""

    kind = "scaled"
    inner: CentralizerSpec
    c: complex


@dataclass(frozen=True, eq=False)
class SumSpec(_SumBody, CentralizerSpec):
    """Sum of specs; the empty sum is the zero map."""

    kind = "sum"
    terms: tuple[CentralizerSpec, ...]


def zero_spec() -> SumSpec:
    """The zero map, as the empty sum."""
    return SumSpec(())


def frame_ambiguous(f, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the singular frames of ``f`` are not pinned by the gap.

    Spec evaluations are only contract-covered for inputs whose
    consecutive singular values are separated by more than the gap
    tolerance; measurement reports attach this flag to their witnesses.
    """
    return bool(schmidt(as_matrix(f), tol).gap < tol.gap_rtol)


def _check_square(node, name: str) -> None:
    """Refuse a node whose matrix field ``name`` is not square."""
    as_square(getattr(node, name), f"{node.kind} {name} must be a square matrix, got shape",
              {"field": name})


def validate_projection(e, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    e = as_square(e, "projection must be square, got")
    scale = max(1.0, float(np.abs(e).max()) if e.size else 0.0)
    if np.abs(e - e.conj().T).max(initial=0.0) > tol.slack_atol * scale:
        raise InputError("projection must be Hermitian")
    if np.abs(e @ e - e).max(initial=0.0) > tol.slack_atol * scale:
        raise InputError("projection must be idempotent")
    return e


def evaluate(spec: CentralizerSpec, f, tol: Tolerances = DEFAULT_TOL,
             form: SchmidtForm | None = None) -> np.ndarray:
    """Evaluate a spec tree at a matrix or at each matrix of a stack.

    A (k, m, n) stack gives every matrix the value it would get alone.
    ``form`` is the Schmidt form of ``f`` where the caller has it: the
    nodes that factor their input (KPBicentralizer, LiftedQuasilinear,
    Lowered) read it instead, Scaled and SumSpec hand it on, and the
    others, which evaluate at other matrices, ignore it.
    """
    return _at(spec, as_matrices(f), tol, form)


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
    """Vector map read off spec(rank_one(eta, y)) at a fixed frame eta."""
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
    f = as_square(f, "trace_functional needs a square matrix, got")
    phase, root = schmidt(f, tol).holder(0.0, 0.5)
    return trace(phase @ root @ evaluate(spec, root, tol))


# --- wire format --------------------------------------------------------------


def _complex_from_doc(doc) -> complex:
    re, im = doc
    return complex(re, im)


def _same(value):
    return value


def _codec(tp) -> tuple[Callable, Callable]:
    """(encode, decode) of a field of type ``tp``."""
    if typing.get_origin(tp) is tuple:  # tuple[Node, ...]
        encode, decode = _codec(typing.get_args(tp)[0])
        return (lambda ts: [encode(t) for t in ts],
                lambda docs: tuple(decode(d) for d in docs))
    return {
        int: (_same, as_integer),
        PhiName: (_same, lambda name: get_phi(name).name),  # the name of a registered phi
        # an infinite index is "inf", as in a configuration
        float: (jsonable, validate_index),
        float | None: (jsonable, lambda v: v if v is None else validate_index(v)),
        # [c.real, c.imag] keeps an int coefficient an int on the wire
        complex: (lambda c: [c.real, c.imag], _complex_from_doc),
        np.ndarray: (mat_to_json, mat_from_json),
        CentralizerSpec: (spec_to_doc, spec_from_doc),
        QuasilinearMap: (spec_to_doc, qmap_from_doc),
    }[tp]


@functools.cache
def _field_codecs(cls) -> dict:
    """name -> (encode, decode) of each field of a node class, in field order."""
    hints = typing.get_type_hints(cls)
    return {f.name: _codec(hints[f.name]) for f in fields(cls)}


def spec_to_doc(node: Node) -> dict:
    """Document of a spec or vector-map tree; fields that are None are left out."""
    doc = {"kind": node.kind}
    for name, (encode, _) in _field_codecs(type(node)).items():
        value = getattr(node, name)
        if value is not None:
            doc[name] = encode(value)
    return doc


qmap_to_doc = spec_to_doc


def _node_from_doc(family: type, doc) -> Node:
    if not isinstance(doc, dict):
        raise InputError(f"a {family.noun} document must be an object, "
                         f"got {type(doc).__name__}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in family.kinds:
        raise InputError(f"unknown {family.noun} kind {kind!r}")
    cls = family.kinds[kind]
    return decode_fields(cls, {k: v for k, v in doc.items() if k != "kind"},
                         {name: decode for name, (_, decode) in _field_codecs(cls).items()},
                         f"{family.noun} kind {kind!r}")


def spec_from_doc(doc: dict) -> CentralizerSpec:
    """Spec tree of a document; a malformed document raises InputError."""
    return _node_from_doc(CentralizerSpec, doc)


def qmap_from_doc(doc: dict) -> QuasilinearMap:
    """Vector map of a document; a malformed document raises InputError."""
    return _node_from_doc(QuasilinearMap, doc)


def spec_hash(spec: CentralizerSpec) -> str:
    """Hash of a spec's canonical document."""
    return doc_hash(spec_to_doc(spec))
