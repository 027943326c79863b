"""Dense complex-matrix kernel.

Schatten quasinorms, Schmidt (singular) expansions with a deterministic
phase convention, polar decompositions, powers of the modulus, sharp
Hoelder factorizations and joint-root factorizations.  Everything here is
a pure function of plain ``numpy`` ``complex128`` arrays; nothing is
mutated after construction.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

__all__ = [
    "InputError",
    "NumericError",
    "Tolerances",
    "DEFAULT_TOL",
    "validate_index",
    "as_integer",
    "validate_dim",
    "checked",
    "decode_fields",
    "as_matrix",
    "as_matrices",
    "as_vector",
    "as_square",
    "adjoint",
    "expansion",
    "rank_one",
    "trace",
    "singular_values",
    "svd_factors",
    "lp_rows",
    "schatten_norm",
    "values_norm",
    "concavity_modulus",
    "SchmidtForm",
    "schmidt",
    "schmidt_from_factors",
    "PolarForm",
    "polar",
    "modulus_power",
    "holder_factor",
    "joint_root",
    "combine_indices",
    "mat_to_json",
    "mat_from_json",
    "vec_to_json",
    "vec_from_json",
]


class _Diagnosed(Exception):
    def __init__(self, message: str = "", diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class InputError(_Diagnosed, ValueError):
    """An argument violates a documented precondition."""


class NumericError(_Diagnosed, RuntimeError):
    """A matrix factorization failed; carries condition diagnostics."""


@dataclass(frozen=True)
class Tolerances:
    """Numerical policy shared by the kernel operations.

    slack_atol : absolute slack granted to inequality checks.
    zero_rtol : singular values below ``zero_rtol * s_max`` are dropped.
    gap_rtol : relative spectral gap below which singular frames are
        reported as ambiguous.
    gauge_atol : coordinates of a unit vector below this threshold are
        skipped when fixing frame phases.
    """

    slack_atol: float = 1e-8
    zero_rtol: float = 1e-12
    gap_rtol: float = 1e-6
    gauge_atol: float = 1e-12


DEFAULT_TOL = Tolerances()


def validate_index(p: float) -> float:
    """Check a summability index: any real in (0, inf], never a bool."""
    try:
        if isinstance(p, bool):
            raise TypeError
        p = float(p)
    except (TypeError, ValueError):
        raise InputError(f"summability index must be a number, got {p!r}") from None
    if math.isnan(p) or p <= 0.0:
        raise InputError(f"summability index must be positive, got {p!r}")
    return p


def as_integer(value) -> int:
    """The one integer rule of every document: an int, an integral float or
    a numeral such as "8", never a bool or a fractional float."""
    try:
        if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
            raise TypeError
        return int(value)
    except (TypeError, ValueError):
        raise InputError(f"expected an integer, got {value!r}") from None


def validate_dim(n) -> int:
    """Check a matrix dimension: a positive integer whose n x n complex128
    matrix fits numpy's array-size limit."""
    n = as_integer(n)
    if not (n >= 1 and 16 * n * n <= np.iinfo(np.intp).max):
        raise InputError(f"dimension {n} must be positive, and an n x n complex "
                         "matrix must fit numpy's array-size limit")
    return n


def checked(test, message: str, decode=lambda v: v):
    """Field decoder: ``decode`` of the value, refused where ``test`` fails."""
    def check(value):
        value = decode(value)
        if not test(value):
            raise InputError(f"{message}, got {value!r}")
        return value
    return check


def decode_fields(cls, doc, codec: dict, what: str):
    """The dataclass ``cls`` of the object ``doc``: each field present is
    decoded by ``codec[name]`` (taken as is without one), each absent one
    keeps its default.  Unknown keys and missing required fields are
    refused; every refusal is an InputError naming the field in
    ``diagnostics["field"]``."""
    if not isinstance(doc, dict):
        raise InputError(f"a {what} document must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise InputError(f"{what} has no fields {unknown}", {"field": unknown[0]})
    values = {}
    for f in fields(cls):
        if f.name in doc:
            try:
                values[f.name] = codec.get(f.name, lambda v: v)(doc[f.name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"bad {f.name!r} in {what}: {exc}", {"field": f.name}) from None
        elif f.default is MISSING and f.default_factory is MISSING:
            raise InputError(f"{what} needs field {f.name!r}", {"field": f.name})
    return cls(**values)


def combine_indices(p: float, s: float) -> float:
    """Return q with 1/q = 1/p + 1/s (inf acts as a neutral element)."""
    p = validate_index(p)
    s = validate_index(s)
    inv = 1.0 / p + 1.0 / s  # 1 / inf is 0.0
    return math.inf if inv == 0.0 else 1.0 / inv


def _as_array(a, ndims: tuple, expected: str, entries: str) -> np.ndarray:
    """The one array rule: a complex128 array of one of ``ndims`` dimensions
    with finite entries; "expected {expected} {shape}" otherwise."""
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim not in ndims:
        raise InputError(f"expected {expected} {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise InputError(f"{entries} entries must be finite")
    return a


def as_matrix(f) -> np.ndarray:
    return _as_array(f, (2,), "a matrix, got array of shape", "matrix")


def as_matrices(f) -> np.ndarray:
    """A matrix, or a (k, m, n) stack of matrices."""
    return _as_array(f, (2, 3), "a matrix or a stack of matrices, got shape", "matrix")


def as_vector(x) -> np.ndarray:
    return _as_array(x, (1,), "a vector, got array of shape", "vector")


def as_square(f, refusal: str, diagnostics: dict | None = None) -> np.ndarray:
    """``as_matrix`` of ``f``, refused as "{refusal} {shape}" unless square."""
    f = as_matrix(f)
    if f.shape[0] != f.shape[1]:
        raise InputError(f"{refusal} {f.shape}", diagnostics)
    return f


def adjoint(f) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.conj(f).swapaxes(-1, -2)


def expansion(left, values, right) -> np.ndarray:
    """``left diag(values) right*`` for each matrix of a stack: frames
    (..., m, r) and (..., n, r) as columns, values (..., r)."""
    return (left * values[..., None, :]) @ adjoint(right)


def rank_one(x, y) -> np.ndarray:
    """Matrix of the rank-one operator h -> <h|x> y.

    The scalar product is linear in the first slot, so the matrix is the
    outer product of ``y`` with the conjugate of ``x``; its single
    singular value is ``|x| |y|``, whatever Schatten index is used.
    """
    x = as_vector(x)
    y = as_vector(y)
    if x.shape != y.shape:
        raise InputError(f"rank_one frames disagree: {x.shape} vs {y.shape}")
    return np.outer(y, x.conj())


def trace(f) -> complex:
    """Sum of the diagonal entries of a square matrix."""
    return complex(np.trace(as_square(f, "trace needs a square matrix, got")))


def _converged(name: str, factor, f: np.ndarray):
    """``factor()``, the factorization ``name`` of ``f``; a LAPACK failure
    is a NumericError "{name} did not converge" with condition diagnostics."""
    try:
        return factor()
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{name} did not converge", {
            "shape": list(f.shape),
            "frobenius": float(np.linalg.norm(f)),
            "max_abs": float(np.abs(f).max()) if f.size else 0.0,
        }) from exc


def _svd(f: np.ndarray, compute_uv: bool = True):
    """The thin SVD ``(u, s, v*)``, or ``s`` alone, of a checked matrix or stack."""
    return _converged("singular value decomposition", lambda: np.linalg.svd(
        f, full_matrices=False, compute_uv=compute_uv), f)


def singular_values(f) -> np.ndarray:
    """Singular values of ``f`` in nonincreasing order (per matrix of a stack)."""
    return _svd(as_matrices(f), compute_uv=False)


def svd_factors(f) -> tuple:
    """``(u, s, v)`` with ``f = u diag(s) v*``, s nonincreasing (per matrix
    of a stack): the thin SVD, one call for a stack."""
    u, s, vh = _svd(as_matrices(f))
    return u, s, adjoint(vh)


def lp_rows(a, p: float, kept=None) -> np.ndarray:
    """l^p norm of each row of a 2-d array; sup norm for ``p = inf``.

    ``kept[i]`` keeps the ``kept[i]`` largest moduli of row i; ``p`` is
    trusted.  Each sorted row is summed contiguously in ascending order and
    rooted by the scalar ``pow`` (numpy's array power rounds otherwise), as alone.
    A root past the double range, as a tiny index gives, raises NumericError.
    """
    m = np.abs(a, order="C")
    if math.isinf(p):
        return m.max(axis=1, initial=0.0)
    m.sort(axis=1)
    m **= p
    norms = np.zeros(len(m))
    for count in {m.shape[1]} if kept is None else set(kept.tolist()) - {0}:
        same = slice(None) if kept is None else kept == count
        sums = m[same, m.shape[1] - count:].sum(axis=1)
        try:
            norms[same] = [total ** (1.0 / p) for total in sums.tolist()]
        except OverflowError:
            raise NumericError(f"an l^p norm overflows at index p = {p!r}",
                               {"index": p}) from None
    return norms


def schatten_norm(f, p: float, tol: Tolerances = DEFAULT_TOL):
    """Schatten p-quasinorm: the l^p norm of the singular values.

    ``p = inf`` gives the operator norm.  The zero matrix has norm 0 for
    every index.  Values below the zero threshold are treated as exact
    zeros; for p < 1 this keeps factorization noise from being amplified
    (the true rank is what the quasinorm of a finite-rank operator sees).
    A (k, m, n) stack gives an array of k norms, each equal to the norm
    of its matrix alone.  This is the SVD definition at every index; the
    estimators' p = 2 rule, the l^2 norm of the entries, is tested
    against it.
    """
    p = validate_index(p)
    return values_norm(singular_values(f), p, tol)


def values_norm(s, p: float, tol: Tolerances = DEFAULT_TOL):
    """``schatten_norm``'s rule on given singular values: the l^p norm of
    ``s`` (n values in any order, or a (k, n) array of them, one norm
    each), values below ``tol.zero_rtol`` times the largest dropped;
    ``p`` is trusted."""
    s = np.asarray(s, dtype=np.float64)
    rows = s.reshape(math.prod(s.shape[:-1]), s.shape[-1])
    kept = None if math.isinf(p) else (
        rows > tol.zero_rtol * rows.max(axis=1, initial=0.0, keepdims=True)).sum(axis=1)
    norms = lp_rows(rows, p, kept)
    return norms.reshape(s.shape[:-1]) if s.ndim > 1 else float(norms[0])


def concavity_modulus(r: float) -> float:
    """Best constant in the p-triangle inequality: 2^(1/r - 1) for r < 1."""
    r = validate_index(r)
    if r >= 1.0:
        return 1.0
    try:
        return 2.0 ** (1.0 / r - 1.0)
    except OverflowError:  # r below about 1/1023
        raise NumericError(f"the concavity modulus overflows at index r = {r!r}",
                           {"index": r}) from None


@dataclass(frozen=True, eq=False)
class SchmidtForm:
    """Prescribed singular expansion ``f = sum_n s_n rank_one(x_n, y_n)``.

    ``x`` and ``y`` hold the frames as columns.  The phase convention:
    each pair of columns is multiplied by the unit scalar that makes the
    first significant coordinate of the x-column real positive, which
    pins the expansion whenever the kept singular values are distinct.
    ``gap`` is the smallest relative gap between consecutive kept values;
    frames with ``gap`` below tolerance are not uniquely determined.

    The form of a (k, m, n) stack holds one expansion per matrix, with
    leading axes on ``s``, ``x``, ``y`` and ``gap``; a matrix of lower
    rank than the stack's largest has zero values and zero frame columns
    past its own rank.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    shape: tuple[int, ...]

    @property
    def rank(self) -> int | np.ndarray:
        ranks = (self.s != 0.0).sum(axis=-1)
        return int(ranks) if self.s.ndim == 1 else ranks

    @property
    def gap(self) -> float | np.ndarray:
        s = self.s.reshape(math.prod(self.s.shape[:-1]), self.s.shape[-1])
        ranks = (s != 0.0).sum(axis=1)
        gaps = np.full(ranks.shape, math.inf)
        spread = ranks > 1
        if spread.any():
            steps = s[spread, :-1] - s[spread, 1:]
            steps[np.arange(steps.shape[1]) >= ranks[spread, None] - 1] = math.inf
            gaps[spread] = steps.min(axis=1) / s[spread, 0]
        return float(gaps[0]) if self.s.ndim == 1 else gaps.reshape(self.s.shape[:-1])

    def reconstruct(self) -> np.ndarray:
        return self.expand(lambda part: expansion(part.y, part.s, part.x))

    def holder(self, a: float, b: float) -> tuple:
        """``(u |f|^a, |f|^b)`` with ``f = u |f|``, per matrix of a stack;
        a matrix of rank zero gives zeros."""
        return expansion(self.y, self.s**a, self.x), expansion(self.x, self.s**b, self.x)

    def expand(self, build) -> np.ndarray:
        """Apply ``build`` to the expansion of each matrix.

        ``build`` maps the form of a stack of matrices that share one
        rank, with no padding, to a stack of result matrices; matrices of
        rank zero map to zero.  Grouping by rank gives every matrix the
        arithmetic it would get if factored alone.
        """
        k, (m, n), r = math.prod(self.shape[:-2]), self.shape[-2:], self.s.shape[-1]
        s = self.s.reshape(k, r)
        x = self.x.reshape(k, n, r)
        y = self.y.reshape(k, m, r)
        ranks = (s != 0.0).sum(axis=1)
        out = None
        for rank in set(ranks.tolist()) - {0}:
            same = ranks == rank
            if same.all():  # one rank throughout, which is then r
                out = build(SchmidtForm(s=s, x=x, y=y, shape=(k, m, n)))
                break
            rows = np.flatnonzero(same)
            part = build(SchmidtForm(s=s[rows, :rank], x=x[rows, :, :rank],
                                     y=y[rows, :, :rank], shape=(rows.size, m, n)))
            if out is None:
                out = np.zeros((k,) + part.shape[1:], dtype=np.complex128)
            out[rows] = part
        if out is None:
            out = np.zeros((k, m, n), dtype=np.complex128)
        return out.reshape(self.shape[:-2] + out.shape[1:])


def _gauge_fix(x: np.ndarray, y: np.ndarray, gauge_atol: float):
    # multiply each column pair of a (k, n, r) stack by a common unit
    # scalar; the rank-one terms are invariant under this change.  Columns
    # without a significant coordinate (padding) are left as they are.
    significant = np.abs(x) > gauge_atol
    first = np.argmax(significant, axis=1)
    at_first = (np.arange(x.shape[0])[:, None], first, np.arange(x.shape[2]))
    pivot = x[at_first]
    # hypot rounds exactly like abs() of a complex scalar; padding columns
    # give 0/0 here and are masked out below
    with np.errstate(invalid="ignore"):
        mu = pivot.conj() / np.hypot(pivot.real, pivot.imag)
    mu = np.where(significant[at_first], mu, 1.0)[:, None, :]
    return x * mu, y * mu


def schmidt(f, tol: Tolerances = DEFAULT_TOL) -> SchmidtForm:
    """Prescribed expansion of ``f`` under the fixed phase convention.

    Values below ``tol.zero_rtol * s_1`` are dropped.  A (k, m, n) stack
    is factored in one SVD call, one expansion per matrix.
    """
    f = as_matrices(f)
    u, s, vh = _svd(f.reshape((math.prod(f.shape[:-2]),) + f.shape[-2:]))
    return _form(s, adjoint(vh), u, f.shape, tol)


def schmidt_from_factors(u, s, v, tol: Tolerances = DEFAULT_TOL) -> SchmidtForm:
    """Prescribed expansion of ``u diag(s) v*`` from its factors.

    ``u`` and ``v`` are n x n (or (k, n, n) stacks, with ``s`` (k, n)),
    with orthonormal columns where ``s`` is nonzero (the columns at zero
    values are dropped, so zero-padded frames serve), and ``s`` is
    nonnegative, in any order.  The form follows the convention of
    ``schmidt``: values put in nonincreasing order (a stable sort) and
    dropped alike, frames gauge-fixed alike, so it agrees with the
    factored form to rounding, with no factorization.
    """
    s = np.asarray(s)
    lead, n = s.shape[:-1], s.shape[-1]
    s = s.reshape(-1, n)
    order = np.argsort(-s, axis=1, kind="stable")
    x, y = (np.take_along_axis(np.reshape(a, (-1, n, n)), order[:, None, :], axis=2)
            for a in (v, u))
    return _form(np.take_along_axis(s, order, axis=1), x, y, lead + (n, n), tol)


def _form(s: np.ndarray, x: np.ndarray, y: np.ndarray, shape: tuple,
          tol: Tolerances) -> SchmidtForm:
    """The form of a (k, r) stack of nonincreasing values with their
    (k, n, r) frames ``x`` and (k, m, r) frames ``y``, under the
    convention: values below ``tol.zero_rtol * s_1`` dropped, frames
    gauge-fixed.  ``shape`` is the shape of the matrix or stack."""
    # the values are nonincreasing, so the kept ones form a prefix
    keep = s > tol.zero_rtol * s[:, :1]
    rank = int(keep.sum(axis=1).max(initial=0))
    keep = keep[:, :rank]
    s = np.where(keep, s[:, :rank], 0.0)
    x, y = _gauge_fix(np.where(keep[:, None, :], x[:, :, :rank], 0.0),
                      np.where(keep[:, None, :], y[:, :, :rank], 0.0), tol.gauge_atol)
    lead = shape[:-2]
    s, x, y = (a.reshape(lead + a.shape[1:]) for a in (s, x, y))
    for arr in (s, x, y):  # forms are shared freely; keep them immutable
        arr.setflags(write=False)
    return SchmidtForm(s=s, x=x, y=y, shape=shape)


@dataclass(frozen=True, eq=False)
class PolarForm:
    """``source = phase @ modulus`` with ``phase`` a partial isometry
    vanishing on the kernel of ``modulus`` and ``modulus`` Hermitian PSD."""

    phase: np.ndarray
    modulus: np.ndarray


def polar(f, tol: Tolerances = DEFAULT_TOL) -> PolarForm:
    """Polar decomposition ``f = u |f|`` with ``u`` supported on ran|f|."""
    phase, modulus = schmidt(as_matrix(f), tol).holder(0.0, 1.0)
    phase.setflags(write=False)
    modulus.setflags(write=False)
    return PolarForm(phase=phase, modulus=modulus)


def modulus_power(f, alpha: float, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD power ``|f|^alpha`` (0 < alpha < inf) on the range of
    |f|; a power past the double range raises NumericError."""
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise InputError(f"modulus exponent must be positive and finite, got {alpha!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        power = schmidt(as_matrix(f), tol).holder(0.0, alpha)[1]
    if not np.isfinite(power).all():
        raise NumericError(f"|f|^alpha overflows at exponent alpha = {alpha!r}",
                           {"exponent": alpha})
    return power


def holder_factor(h, p: float, s: float, tol: Tolerances = DEFAULT_TOL):
    """Sharp factorization ``h = f g`` with ``|f|_p |g|_s = |h|_q``.

    Here 1/q = 1/p + 1/s and q must be finite.  With ``h = u |h|`` the
    factors are ``f = u |h|^(q/p)`` and ``g = |h|^(q/s)``; the exponents
    add up to one, so the product and the norm identity are automatic.
    Returns a pair of zero matrices when ``h = 0``.
    """
    q = combine_indices(p, s)
    if math.isinf(q):
        raise InputError("holder_factor needs a finite target index")
    return schmidt(as_matrix(h), tol).holder(q / float(p), q / float(s))


def joint_root(f, g, p: float, tol: Tolerances = DEFAULT_TOL):
    """Common factorization ``f = a h``, ``g = b h`` through the joint root.

    ``h = (f*f + g*g)^(1/2)`` and the cofactors are contractions obtained
    by applying the pseudo-inverse of ``h`` on its range (they vanish on
    the kernel).  The quasinorm of ``h`` is controlled by the p/2
    concavity modulus: |h|_p <= delta_{p/2}^(1/2) (|f|_p + |g|_p).
    """
    validate_index(p)
    f = as_matrix(f)
    g = as_matrix(g)
    if f.shape != g.shape:
        raise InputError(f"joint_root inputs disagree: {f.shape} vs {g.shape}")
    m = f.conj().T @ f + g.conj().T @ g
    w, vecs = _converged("eigendecomposition", lambda: np.linalg.eigh(m), m)
    w = np.clip(w, 0.0, None)
    support = w > (tol.zero_rtol**2) * w.max(initial=0.0)
    root = np.where(support, np.sqrt(w), 0.0)
    inv = np.zeros_like(root)
    inv[support] = 1.0 / root[support]
    h, pinv = expansion(vecs, root, vecs), expansion(vecs, inv, vecs)
    return h, f @ pinv, g @ pinv


# --- JSON wire format -------------------------------------------------------
#
# A matrix travels as {"rows": r, "cols": c, "re": [...], "im": [...]} with
# row-major coefficient lists; vectors as flat [re, im] pair lists.


def mat_to_json(f) -> dict:
    """Document of a matrix: its shape and row-major real and imaginary parts."""
    f = as_matrix(f)
    return {
        "rows": int(f.shape[0]),
        "cols": int(f.shape[1]),
        "re": [float(v) for v in f.real.ravel()],
        "im": [float(v) for v in f.imag.ravel()],
    }


def mat_from_json(doc: dict) -> np.ndarray:
    """Matrix of a ``mat_to_json`` document; a malformed one raises InputError."""
    try:
        rows, cols = as_integer(doc["rows"]), as_integer(doc["cols"])
        re = np.asarray(doc["re"], dtype=np.float64)
        im = np.asarray(doc["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix document: {exc}") from exc
    if rows < 0 or cols < 0 or re.size != rows * cols or im.size != rows * cols:
        raise InputError("matrix document length disagrees with its shape")
    return as_matrix((re + 1j * im).reshape(rows, cols))


def vec_to_json(x) -> list:
    x = as_vector(x)
    return [[float(v.real), float(v.imag)] for v in x]


def vec_from_json(doc) -> np.ndarray:
    try:
        pairs = [(float(re), float(im)) for re, im in doc]
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed vector document: {exc}") from exc
    return as_vector(np.array([re + 1j * im for re, im in pairs], dtype=np.complex128))
