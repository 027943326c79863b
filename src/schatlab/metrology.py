"""Seeded measurement of inequality constants and triviality distances.

Every estimator walks a deterministic sample stream: sample i is drawn
from a generator keyed by (seed, stream, i), so runs are bit-reproducible,
prefixes are stable when the sample count grows, and partitioning the
stream across workers cannot change the result.  Reported values are
maxima over the stream, hence lower bounds on the true suprema; each
report names the witness sample so the value can be re-derived.

Estimates that read the same stream share one pass over it.  Sample i of
an input stream is the same matrix for every report kind that reads it:
the Q/L/R/B defects of one spec all read ``unit_sphere(i, STREAM_PRIMARY)``,
L and B the left contraction and R and B the right one.
``estimate_constants`` scores all its kinds chunk by chunk in one
``max_over_stream`` call, so each shared stack is drawn once per chunk and
each shared term (the spec's value at f, |f|_p, |a|_inf) is computed once
per chunk; every report keeps the bits it gets alone.  Each sample is
factored at most once, when it is drawn: a stack drawn as
``u diag(sigma) v*`` (haar_spectral samples, sparse samples on their
blocks, ginibre and rank_one samples off p = 2) keeps its Schmidt form and
sigma for its chunk, a contraction its sigma alone, so its norms and form
come from the draw, not from another SVD, in measurement and replay alike.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

from .centralizers import (
    CentralizerSpec,
    evaluate,
    frame_ambiguous,
    spec_from_doc,
    spec_to_doc,
)
from .ioutil import jsonable, jsonable_float
from .matcore import (
    DEFAULT_TOL,
    InputError,
    NumericError,
    Tolerances,
    adjoint,
    as_integer,
    as_matrices,
    as_matrix,
    checked,
    decode_fields,
    lp_rows,
    mat_from_json,
    mat_to_json,
    rank_one,
    schatten_norm,
    schmidt_from_factors,
    svd_factors,
    validate_dim,
    validate_index,
    values_norm,
    vec_from_json,
    vec_to_json,
)

__all__ = [
    "Sampler",
    "STREAM_PRIMARY",
    "STREAM_SECONDARY",
    "STREAM_LEFT",
    "STREAM_RIGHT",
    "STREAM_GAUSS",
    "EstimateReport",
    "estimate_constant",
    "estimate_constants",
    "distance_estimate",
    "max_over_stream",
    "reevaluate_witness",
    "REPORT_KINDS",
    "FitResult",
    "fit_morphism",
    "TwistedTable",
    "gamma_summing_mc",
]

SAMPLE_TAGS = ("ginibre", "haar_spectral", "rank_one", "sparse")

STREAM_PRIMARY = 0
STREAM_SECONDARY = 1
STREAM_LEFT = 2
STREAM_RIGHT = 3
STREAM_GAUSS = 4

# Sample generators are numpy's PCG64 seeded by
# SeedSequence(seed, spawn_key=(stream, index)) (NEP 19).  numpy's own
# SeedSequence(seed, spawn_key=(stream,)) supplies the pool once the seed and
# stream words are mixed in; the index's 32-bit words and the pool-to-state
# hash are then run here for a whole chunk at once, in uint64 arithmetic
# masked to 32 bits.  The hash keys depend only on the position of the hash
# step, so they are tabulated.
_MASK32 = 0xFFFFFFFF
_POOL_WORDS = 4
# the hash's constants as uint64 arrays: numpy takes them faster than ints
_M32, _SHIFT, _MIX_L, _MIX_R = (np.array(c, dtype=np.uint64)
                                for c in (_MASK32, 16, 0xCA01F9DD, 0x4973F715))


def _words(n: int) -> int:
    """Number of 32-bit words SeedSequence splits a nonnegative integer into."""
    return max(1, -(-n.bit_length() // 32))


@lru_cache(maxsize=None)
def _hash_keys(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """(xor keys, multipliers) of hash steps start, ..., start + count - 1."""
    h = init * pow(mult, start, 1 << 32) & _MASK32
    keys = []
    for _ in range(count):
        nxt = h * mult & _MASK32
        keys.append((h, nxt))
        h = nxt
    out = np.array(keys, dtype=np.uint64).T
    out.flags.writeable = False
    return out


def _hashmix(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of each value with the key of its step (last axis)."""
    v = (values ^ keys[0]) * keys[1] & _M32
    return v ^ v >> _SHIFT


def _mix(pool: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of hashed values into pool slots."""
    r = (_MIX_L * pool - _MIX_R * hashed) & _M32
    return r ^ r >> _SHIFT


_POOL_KEYS = (0x43B0D7E5, 0x931E8875)   # hash of the entropy into the pool
_STATE_KEYS = _hash_keys(0x8B51F9DD, 0x58F38DED, 0, 2 * _POOL_WORDS)  # pool to state


def _mix_words(pool: np.ndarray, words: np.ndarray, step: int) -> np.ndarray:
    """Mix each column of ``words`` (k, w) into every slot of a pool (4,) or
    of the pools (k, 4), from hash step ``step``; the k mixed pools."""
    keys = _hash_keys(*_POOL_KEYS, step, _POOL_WORDS * words.shape[1])
    for j in range(words.shape[1]):
        pool = _mix(pool, _hashmix(words[:, j, None],
                                   keys[:, _POOL_WORDS * j:_POOL_WORDS * (j + 1)]))
    return pool


@lru_cache(maxsize=1024)
def _stream_pool(seed: int, stream: int) -> tuple:
    """SeedSequence's pool once the seed and stream words are mixed in, and
    the next hash step: 4 per entropy word, the seed padded to the pool."""
    pool = np.random.SeedSequence(seed, spawn_key=(stream,)).pool.astype(np.uint64)
    pool.flags.writeable = False
    return pool, _POOL_WORDS * (max(_POOL_WORDS, _words(seed)) + _words(stream))


@lru_cache(maxsize=None)
def _state_type():
    """numpy ISeedSequence handing PCG64 ready state words.

    Defined on first use, so importing schatlab does not load numpy.random.
    """
    from numpy.random.bit_generator import ISeedSequence

    class ReadyState(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for 4 uint64 words, once

    return ReadyState


def _pcg64_generators(seed: int, stream: int, indices) -> list[np.random.Generator]:
    """The generator of each key (seed, stream, index), one hash for them all.

    Every index is split into 32-bit words and all indices are mixed by
    the same array hash, word by word; an index's words past its last
    nonzero one are not mixed, as SeedSequence has no such words.
    """
    ints = [operator.index(i) for i in indices]
    if not ints:
        return []
    if min(seed, stream, *ints) < 0:
        raise InputError("sample seed, stream and index must be nonnegative, "
                         f"got {min(seed, stream, *ints)}")
    n_words = _words(max(ints))
    shifts = np.array([32 * j for j in range(n_words)], dtype=object)
    words = (np.array(ints, dtype=object)[:, None] >> shifts & _MASK32).astype(np.uint64)
    pool, step = _stream_pool(seed, stream)
    pools = _mix_words(pool, words[:, :1], step)
    for j in range(1, n_words):
        more = words[:, j:].any(axis=1)
        pools[more] = _mix_words(pools[more], words[more, j:j + 1], step + _POOL_WORDS * j)
    half = _hashmix(np.concatenate([pools, pools], axis=1), _STATE_KEYS)
    states = half[:, 0::2] | half[:, 1::2] << np.uint64(32)
    ready = _state_type()
    return [np.random.Generator(np.random.PCG64(ready(s))) for s in states]


def _norm(m, p: float, values=None):
    """Schatten p-norm of a matrix or of each matrix of a stack, as the
    estimators take it.

    At p = 2 it is the Hilbert-Schmidt norm, tr(f* f)^(1/2): the l^2 norm
    of the entries, with no factorization, on the inputs ``schatten_norm``
    takes.  Every other index goes to ``schatten_norm``, the SVD definition,
    or, given the singular ``values`` a stack was drawn with, to the same
    rule on them, with no factorization.
    """
    if p != 2.0:
        return schatten_norm(m, p) if values is None else values_norm(values, p)
    m = as_matrices(m)
    lead = m.shape[:-2]
    norms = lp_rows(m.reshape(math.prod(lead), m.shape[-2] * m.shape[-1]), 2.0)
    return norms.reshape(lead) if lead else float(norms[0])


def dyadic_supports(rng, n: int, count: int = 1) -> list[np.ndarray]:
    """``count`` supports of one dyadic random width in range(n).

    The width is ``min(2**j, n)`` for j uniform in ``range(n.bit_length())``,
    drawn before the supports; each support is the prefix of its own random
    permutation.  One stream then spans spiky to fully spread frames, the
    range that separates trivial from nontrivial lifts.
    """
    k = min(1 << int(rng.integers(0, n.bit_length())), n)
    return [rng.permutation(n)[:k] for _ in range(count)]


def dyadic_fills(rngs, n: int, count: int) -> tuple:
    """From each generator in turn, ``dyadic_supports(rng, n, count)`` and
    then 2 * width**count standard normals, as a lone draw takes them.

    Returns the supports of each generator, the k widths and the
    (k, 2 * n**count) normals, row i filled up to 2 * width**count.
    """
    supports, widths = [], []
    normals = np.empty((len(rngs), 2 * n**count))
    for rng, out in zip(rngs, normals):
        drawn = dyadic_supports(rng, n, count)
        supports.append(drawn)
        widths.append(len(drawn[0]))
        rng.standard_normal(out=out[:2 * widths[-1]**count])
    return supports, np.array(widths, dtype=np.intp), normals


# draws of a sample that all stay below its sampler's min_norm: the sample
# is refused after this many redraws, which a reachable min_norm never needs
MAX_REDRAWS = 1000


@dataclass(frozen=True)
class Sampler:
    """Deterministic sample source for matrices of a fixed dimension.

    ``tag`` picks the matrix distribution: "ginibre" (iid complex
    normals), "haar_spectral" (Haar frames around a uniform spectrum),
    "rank_one" (spread input frame, dyadic-width output spike), or
    "sparse" (ginibre blocks of dyadic random size).  Identical
    (seed, tag) always reproduce the same stream.

    ``_draw`` is the one dispatch on the tag.  The estimators draw through
    ``_unit_sphere`` and ``_contraction``: each stack with its factors, a
    haar_spectral sample's and a contraction's from the draw, a sparse
    sample's from one SVD of its block, a ginibre or rank_one sample's off
    p = 2 from one SVD of the draw.  Norms, values and forms are read off them.
    """

    seed: int
    dim: int
    p: float
    tag: str = "ginibre"
    min_norm: float = 1e-8

    def __post_init__(self):
        # the seed, dimension and index decode as a document's do
        object.__setattr__(self, "seed", as_integer(self.seed))
        object.__setattr__(self, "dim", validate_dim(self.dim))
        if self.seed < 0:
            raise InputError("sampler seed must be a nonnegative integer")
        object.__setattr__(self, "p", validate_index(self.p))
        if isinstance(self.min_norm, bool) or not (
                isinstance(self.min_norm, (int, float)) and 0.0 < self.min_norm < math.inf):
            raise InputError(f"sampler min_norm must be a positive finite number, "
                             f"got {self.min_norm!r}")
        if self.tag not in SAMPLE_TAGS:
            raise InputError(f"unknown sample tag {self.tag!r}; known: {SAMPLE_TAGS}")

    def generators(self, stream: int, indices) -> list[np.random.Generator]:
        """The generator of each index, ``np.random.default_rng(SeedSequence(
        seed, spawn_key=(stream, index)))`` draw for draw, hashed together."""
        return _pcg64_generators(self.seed, int(stream), indices)

    def _ginibre(self, rngs, count: int, n: int) -> np.ndarray:
        """``count`` (n, n) Ginibre matrices from each generator, (k, count, n, n).

        One fill per generator, each matrix's real part before its
        imaginary part, as lone draws consume the numbers.
        """
        buf = np.empty((len(rngs), count, 2, n, n))
        for rng, out in zip(rngs, buf):
            rng.standard_normal(out=out)
        return (buf[:, :, 0] + 1j * buf[:, :, 1]) / math.sqrt(2.0)

    def _haar(self, z: np.ndarray) -> np.ndarray:
        # Mezzadri's QR route, one factorization call for the whole stack
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=-2, axis2=-1).copy()
        d[d == 0] = 1.0
        return q * (d / np.abs(d))[..., None, :]

    def _spectral(self, rngs) -> tuple:
        """Haar frames around a uniform spectrum, one matrix per generator:
        the frames' Ginibre pair, then the spectrum.  The (k, n, n) stack
        ``u diag(sigma) v*``, then its factors u, sigma and v."""
        n = self.dim
        z = self._ginibre(rngs, 2, n)
        spectrum = np.empty((len(rngs), n))
        for rng, out in zip(rngs, spectrum):
            rng.random(out=out)  # uniform(0, 1) is 0 + 1 * random(), bit for bit
        u, v = np.moveaxis(self._haar(z), 1, 0)
        return (u * spectrum[:, None, :]) @ adjoint(v), u, spectrum, v

    def _rank_one(self, rng) -> np.ndarray:
        # spread input frame, output factor a spike of dyadic random width
        n = self.dim
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        (support,) = dyadic_supports(rng, n)
        k = len(support)
        y = np.zeros(n, dtype=np.complex128)
        y[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return rank_one(x, y)

    def _sparse(self, rngs, factored: bool) -> tuple:
        """A ginibre block on dyadic random rows and columns from each
        generator, as a (k, n, n) stack; with ``factored`` also its factors
        (u, sigma, v), from one SVD of each block, put in zero-padded n x n
        frames.  The blocks of one width are combined, placed and factored
        by one call each."""
        n = self.dim
        supports, widths, z = dyadic_fills(rngs, n, 2)
        m = np.zeros((len(rngs), n, n), dtype=np.complex128)
        if factored:
            u, s, v = np.zeros_like(m), np.zeros((len(rngs), n)), np.zeros_like(m)
        for w in sorted(set(widths.tolist())):
            group = np.flatnonzero(widths == w)
            rows, cols = (np.array([supports[i][side] for i in group.tolist()])[:, :, None]
                          for side in (0, 1))
            raw = z[group, :2 * w * w].reshape(-1, 2, w, w)
            block = (raw[:, 0] + 1j * raw[:, 1]) / math.sqrt(2.0)
            at = group[:, None, None]
            m[at, rows, cols.transpose(0, 2, 1)] = block
            if factored:
                bu, s[group, :w], bv = svd_factors(block)
                u[at, rows, np.arange(w)], v[at, cols, np.arange(w)] = bu, bv
        return (m, u, s, v) if factored else (m,)

    def _draw(self, rngs, factored: bool = False) -> tuple:
        """``(stack,)``: one matrix from each generator, in order, as a
        (k, n, n) stack; with ``factored``, ``(stack, u, sigma, v)`` where a
        norm or a form needs the factors or they are cheap: a haar_spectral
        stack's from its draw, a sparse one's from its blocks, a ginibre or
        rank_one one's off p = 2 from one SVD (at p = 2 it is normed by its
        entries and stays ``(stack,)``).  Each generator yields the numbers
        of a lone draw; the fills and the factorizations run once per stack.
        """
        if self.tag == "haar_spectral":
            drawn = self._spectral(rngs)
            return drawn if factored else drawn[:1]
        if self.tag == "sparse":
            return self._sparse(rngs, factored)
        if self.tag == "ginibre":
            m = self._ginibre(rngs, 1, self.dim)[:, 0]
        else:
            m = np.stack([self._rank_one(rng) for rng in rngs])
        return (m, *svd_factors(m)) if factored and self.p != 2.0 else (m,)

    def _unit_sphere(self, indices, stream: int) -> tuple:
        """``unit_sphere`` of the samples ``indices``, drawn as one stack,
        and its factors (u, sigma, v) as ``_draw`` gives them, sigma
        divided by the norm as the matrix is, or None.  Each norm is
        ``_norm`` of the draw, off p = 2 read from its sigma."""
        rngs = self.generators(stream, indices)
        drawn = self._draw(rngs, factored=True)
        m, values = drawn[0], (drawn[2] if len(drawn) > 1 else None)
        norm = _norm(m, self.p, values)
        for j in np.flatnonzero(norm < self.min_norm):
            for _ in range(MAX_REDRAWS):
                for whole, part in zip(drawn, self._draw([rngs[j]], factored=True)):
                    whole[j] = part[0]
                norm[j] = _norm(m[j], self.p, None if values is None else values[j])
                if norm[j] >= self.min_norm:
                    break
            else:
                i = int(indices[j])
                raise InputError(
                    f"sample {i} (seed {self.seed}, dim {self.dim}, tag {self.tag!r}) stays "
                    f"below min_norm {self.min_norm!r} after {MAX_REDRAWS} redraws",
                    {"sample_index": i, "seed": self.seed, "dim": self.dim, "tag": self.tag})
        m /= norm[:, None, None]
        if values is None:
            return m, None
        return m, (drawn[1], values / norm[:, None], drawn[3])

    def unit_sphere(self, index, stream: int = STREAM_PRIMARY) -> np.ndarray:
        """Sample with Schatten p-norm 1; draws below ``min_norm`` are
        redrawn, up to ``MAX_REDRAWS`` times a sample, then refused.

        The norm is the estimators' one: at p = 2 the l^2 norm of the
        entries, no SVD; off p = 2 the l^p norm of the singular values
        the sample was factored with when drawn (see the class notes).
        The sample is the draw divided by it, and so are those values.

        ``index`` is one sample index, or a sequence of them for a
        (k, n, n) stack.  Every sample, redraws included, comes from its
        own generator, so a stack holds exactly the lone samples: the
        stacks of ``unit_sphere_chunks``, concatenated.
        """
        out = np.concatenate([np.empty((0, self.dim, self.dim), dtype=np.complex128),
                              *(m for m, _ in self.unit_sphere_chunks(index, stream))])
        return out if np.ndim(index) else out[0]

    def unit_sphere_chunks(self, index, stream: int = STREAM_PRIMARY):
        """``unit_sphere`` of the samples ``index`` as the estimators draw
        it: one ``(stack, factors)`` pair per chunk of ``CHUNK_ENTRIES``
        entries, as ``_unit_sphere`` gives them, each drawn when asked for."""
        indices = np.atleast_1d(index)
        for part in _chunked(len(indices), self.dim**2):
            yield self._unit_sphere(indices[part], stream)

    def _contraction(self, indices, stream: int) -> tuple:
        """``contraction`` of the samples ``indices`` as one stack, and its
        factors (None, sigma, None): no estimator asks a contraction for its
        form, so its frames go once it is formed."""
        m, _, spectrum, _ = self._spectral(self.generators(stream, indices))
        return m, (None, spectrum, None)

    def contraction(self, index, stream: int = STREAM_LEFT) -> np.ndarray:
        """Operator-norm contraction: Haar frames around a uniform spectrum.

        Each is drawn as ``u diag(sigma) v*`` with sigma in [0, 1); in the
        estimators' chunks it keeps sigma, so its operator norm is
        max(sigma), with no factorization.

        ``index`` is one sample index, or a sequence of them for a stack.
        """
        out = self._contraction(np.atleast_1d(index), stream)[0]
        return out if np.ndim(index) else out[0]

    def gaussian_rows(self, count: int, width: int, rows: int,
                      stream: int = STREAM_GAUSS, index: int = 0):
        """(count, width) standard complex normals, row-prefix stable, as
        successive pieces of ``rows`` rows (the last one shorter), drawn in
        turn from the one generator of ``(stream, index)``: one piece of
        ``count`` rows is the whole block, bit for bit."""
        rng = self.generators(stream, (index,))[0]
        for start in range(0, max(count, 1), rows):
            z = rng.standard_normal((min(rows, count - start), width, 2))
            yield (z[..., 0] + 1j * z[..., 1]) / math.sqrt(2.0)


@dataclass
class EstimateReport:
    """Outcome of a max-over-samples measurement.

    ``value`` is the largest defect ratio seen along the stream (a lower
    bound on the true supremum, never an upper bound).  ``witness`` holds
    the maximizing sample's ``index`` and ``ratio``, and the seed and
    ``context`` re-draw it through its kind's recipe; a gamma witness also
    holds its Gaussian row.
    """

    kind: str
    value: float
    samples: int
    seed: int
    witness: dict
    note: str = ""
    stderr: float | None = None
    context: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        doc = {
            "kind": self.kind,
            "value": jsonable_float(self.value),
            "samples": self.samples,
            "seed": self.seed,
            "witness": {k: jsonable(v) for k, v in self.witness.items()},
            "note": self.note,
            "context": {k: jsonable(v) for k, v in self.context.items()},
        }
        if self.stderr is not None:
            doc["stderr"] = jsonable_float(self.stderr)
        return doc

    @classmethod
    def from_doc(cls, doc: dict) -> "EstimateReport":
        """The report of a document; a malformed one raises InputError."""
        return decode_fields(cls, doc, _REPORT_CODECS, "report")


def _witness(doc) -> dict:
    if not (isinstance(doc, dict) and "ratio" in doc):
        raise TypeError(f"a witness is an object with a ratio, got {doc!r}")
    return {**doc, "ratio": float(doc["ratio"])}  # an infinite ratio is written "inf"


# how each field of a report document decodes; note and stderr are taken as they are
_REPORT_CODECS = {
    "kind": checked(lambda v: isinstance(v, str), "kind must be a string"),
    "value": float, "samples": as_integer, "seed": as_integer, "witness": _witness,
    "context": checked(lambda v: isinstance(v, dict), "context must be an object"),
}


_KIND_NOTE = "max over samples; lower bound of the true supremum"

# inputs of each sampler-drawn report kind: (name, sampler method giving a
# stack and its drawn factors, stream), all drawn at the context's index p;
# kinds that read the same input share its stack in one pass
_KIND_INPUTS = {
    "Q": (("f", "_unit_sphere", STREAM_PRIMARY), ("g", "_unit_sphere", STREAM_SECONDARY)),
    "L": (("a", "_contraction", STREAM_LEFT), ("f", "_unit_sphere", STREAM_PRIMARY)),
    "R": (("a", "_contraction", STREAM_RIGHT), ("f", "_unit_sphere", STREAM_PRIMARY)),
    "B": (("a", "_contraction", STREAM_LEFT), ("b", "_contraction", STREAM_RIGHT),
          ("f", "_unit_sphere", STREAM_PRIMARY)),
    "distance": (("f", "_unit_sphere", STREAM_PRIMARY),),
}
ESTIMATE_KINDS = ("Q", "L", "R", "B")

# estimators score their stream in chunks of about this many entries per
# input matrix or vector: stacks amortize the per-call cost at small sizes.
# Samples come from their own generators and are scored exactly as alone,
# so no reported value depends on the chunk.
CHUNK_ENTRIES = 2**12


def _chunked(count: int, entries: int) -> list[slice]:
    """``range(count)`` in slices of ``CHUNK_ENTRIES`` entries, ``entries``
    per sample."""
    step = max(1, CHUNK_ENTRIES // entries)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _resolve_indices(spec, p, q):
    sig_p, sig_q = spec.signature()
    p = sig_p if p is None else p
    q = sig_q if q is None else q
    if p is None or q is None:
        raise InputError("estimate needs explicit input/output indices for this spec")
    return validate_index(p), validate_index(q)


def _guarantee_note(spec) -> str:
    if not spec.within_guarantee:
        return "; lift evaluated outside its backed index window"
    return ""


class _Chunk:
    """One chunk of a sample stream: its indices, and the input stacks and
    terms made from them, each made once however many report kinds read it.

    A term is kept only for a stack the chunk drew, never for a matrix
    derived from one (``f + g``, ``a @ f``), which is made at every call.
    A stack drawn as ``u diag(sigma) v*`` keeps sigma for its norms and,
    drawn with its frames, the Schmidt form they give under the chunk's
    one ``tol``, not the frames; all live as long as the chunk.
    """

    def __init__(self, indices, tol: Tolerances = DEFAULT_TOL):
        self.indices = indices
        self.tol = tol
        self._stacks = {}
        self._drawn = {}  # id of each drawn stack -> its key; the chunk keeps them alive
        self._terms = {}
        self._values = {}  # key of each stack drawn factored -> its sigma
        self._forms = {}  # ... and drawn with its frames -> its Schmidt form

    def draw(self, key, make):
        """The input stack ``key`` of this chunk.  On first use ``make()``
        gives it with its factors (u, sigma, v), u and v None for a stack
        drawn with sigma alone, or None if not drawn so."""
        if key not in self._stacks:
            stack, factors = make()
            self._stacks[key] = stack
            self._drawn.setdefault(id(stack), key)
            if factors is not None:
                u, self._values[key], v = factors
                if u is not None:
                    self._forms[key] = schmidt_from_factors(u, self._values[key], v, self.tol)
        return self._stacks[key]

    def term(self, key, m, make):
        """``make()``, the term ``key`` of ``m``: made once if ``m`` is a drawn stack."""
        drawn = self._drawn.get(id(m))
        if drawn is None:
            return make()
        if (key, drawn) not in self._terms:
            self._terms[key, drawn] = make()
        return self._terms[key, drawn]

    def values(self, m):
        """The singular values ``m`` was drawn with, or None."""
        return self._values.get(self._drawn.get(id(m)))

    def form(self, m):
        """The Schmidt form ``m`` was drawn with, or None."""
        return self._forms.get(self._drawn.get(id(m)))


def _spec_scorer(kind: str, ctx: dict, tol: Tolerances):
    """``score(x, chunk)``: the ``kind`` ratio of each sample of the chunk's inputs ``x``.

    Q/L/R/B: the defect over its denominator, as ``estimate_constant``
    states; distance: |spec(f) - spec_b(f)|_q / |f|_p.  |a|_inf, |b|_inf
    and, off p = 2, |f|_p and |g|_p are norms of the drawn singular values,
    and the spec reads a drawn Schmidt form where there is one; every other
    input (f + g, a f, ...) is factored or normed afresh.  The spec's values
    and the norms are chunk terms, so the scorers of a chunk share them.
    """
    specs = {key: spec_from_doc(ctx[key]) for key in ("spec", "spec_b") if key in ctx}
    # JSON, not doc_hash: a document may hold a non-finite number
    docs = {key: json.dumps(ctx[key], sort_keys=True) for key in specs}
    p, q = validate_index(ctx["p"]), validate_index(ctx["q"])

    def score(x, chunk):
        def ev(m, key="spec"):
            return chunk.term(("evaluate", docs[key], tol), m,
                              lambda: evaluate(specs[key], m, tol, chunk.form(m)))

        def norm(m, p):
            return chunk.term(("norm", p), m, lambda: _norm(m, p, chunk.values(m)))

        f, a, b = x["f"], x.get("a"), x.get("b")
        if kind == "distance":
            return _norm(ev(f) - ev(f, "spec_b"), q) / norm(f, p)
        if kind == "Q":
            g = x["g"]
            defect = ev(f + g) - ev(f) - ev(g)
            denom = norm(f, p) + norm(g, p)
        elif kind == "L":
            defect = ev(a @ f) - a @ ev(f)
            denom = norm(a, math.inf) * norm(f, p)
        elif kind == "R":
            defect = ev(f @ a) - ev(f) @ a
            denom = norm(a, math.inf) * norm(f, p)
        else:
            defect = ev(a @ f @ b) - a @ ev(f) @ b
            denom = norm(a, math.inf) * norm(f, p) * norm(b, math.inf)
        return _norm(defect, q) / denom
    return score


def _recipe(kind: str, context: dict, seed: int):
    """``draw(chunk)`` of a sampler-drawn kind from a report's seed and context
    alone: the inputs of the samples ``chunk.indices``, as stacks keyed by
    name.  Measurement and replay both draw through it."""
    sampler = Sampler(seed=seed, dim=context["dim"], p=context["p"], tag=context["tag"],
                      min_norm=context.get("min_norm", Sampler.min_norm))
    # keyed by what draws it, a stack is shared by the jobs of a pass
    return lambda chunk: {
        name: chunk.draw((method, stream, sampler),
                         partial(getattr(sampler, method), chunk.indices, stream))
        for name, method, stream in _KIND_INPUTS[kind]}


# report kind -> (scorer, recipe), built from a report alone by measurement
# and replay: ``scorer(context, tol)`` gives ``score(inputs, chunk)``, one
# ratio per sample, sharing the chunk's terms with its other scorers;
# ``recipe(context, seed)`` gives ``draw(chunk)``, the inputs of its samples.
REPORT_KINDS: dict[str, tuple] = {
    kind: (partial(_spec_scorer, kind), partial(_recipe, kind)) for kind in _KIND_INPUTS
}


def max_over_stream(jobs, sampler: Sampler, n_samples: int,
                    tol: Tolerances = DEFAULT_TOL,
                    note: str = _KIND_NOTE) -> list[EstimateReport]:
    """Largest ratio of each job over the seeded stream of ``sampler``, in one pass.

    A job is ``(kind, context)``: the recipe of ``REPORT_KINDS[kind]``
    draws each chunk's inputs from ``context`` and the sampler's seed, as
    replay re-draws them, and the scorer built from ``context`` rates them.
    All jobs read one ``_Chunk`` at a time, of ``CHUNK_ENTRIES`` entries of
    one input (``dim`` per vector of a "vec" slot, else ``dim**2``), so a
    stack or a term they share is made once per chunk.  Each job keeps its
    own first strict maximum, and NaN never wins; its witness is the index
    and ratio (for Q/L/R/B, also ``frame_ambiguous``) of the winner, for
    which a Q/L/R/B job keeps a copy of the winner's f alone, not its
    chunk.  A job whose chunk fails is rescored sample by sample, so its
    error names the failing sample; the jobs listed after it stop, and the
    error raised is that of the first listed job that fails, as if the
    jobs had run one after another.  One report per job, in job order.
    """
    if n_samples < 1:
        raise InputError("need at least one sample")
    scores = [REPORT_KINDS[kind][0](context, tol) for kind, context in jobs]
    draws = [REPORT_KINDS[kind][1](context, sampler.seed) for kind, context in jobs]
    vec = any(context.get("slot") == "vec" for _, context in jobs)
    best = [-math.inf] * len(jobs)
    witness: list[dict] = [{} for _ in jobs]
    best_f: list = [None] * len(jobs)
    error, live = None, len(jobs)  # jobs[live:] stop: one before them failed
    for part in _chunked(n_samples, sampler.dim if vec else sampler.dim**2):
        if not live:
            break
        chunk = _Chunk(range(n_samples)[part], tol)
        for j, draw, score in zip(range(live), draws, scores):
            try:
                inputs = draw(chunk)
                ratios = score(inputs, chunk)
            except (NumericError, InputError) as exc:
                index = None
                for i in chunk.indices:  # the first sample that fails alone names the error
                    lone = _Chunk(range(i, i + 1), tol)
                    try:
                        score(draw(lone), lone)
                    except (NumericError, InputError) as single:
                        index, exc = i, single
                        break
                exc.diagnostics.update({"sample_index": index, "seed": sampler.seed,
                                        "dim": sampler.dim, "tag": sampler.tag})
                error, live = exc, j
                break
            k = int(np.argmax(np.where(np.isnan(ratios), -math.inf, ratios)))
            if ratios[k] > best[j]:
                best[j] = float(ratios[k])
                witness[j] = {"index": chunk.indices[k], "ratio": best[j]}
                if jobs[j][0] in ESTIMATE_KINDS:  # a copy, not a view into the chunk
                    best_f[j] = inputs["f"][k].copy()
    if error is not None:
        raise error
    reports = []
    for (kind, context), value, found, f in zip(jobs, best, witness, best_f):
        if f is not None:
            found["frame_ambiguous"] = frame_ambiguous(f, tol)
        reports.append(EstimateReport(kind=kind, value=value, samples=n_samples,
                                      seed=sampler.seed, witness=found, note=note,
                                      context=context))
    return reports


def _sampled(kinds, context: dict, sampler: Sampler, n_samples: int,
             tol: Tolerances, note: str = _KIND_NOTE) -> list[EstimateReport]:
    """``max_over_stream`` of sampler-drawn kinds, ``context`` completed by
    what their recipe reads of the sampler."""
    context = {**context, "dim": sampler.dim, "tag": sampler.tag,
               "min_norm": sampler.min_norm}
    return max_over_stream([(kind, dict(context)) for kind in kinds],
                           sampler, n_samples, tol, note)


def estimate_constants(spec: CentralizerSpec, kinds, sampler: Sampler,
                       n_samples: int, p: float | None = None,
                       q: float | None = None,
                       tol: Tolerances = DEFAULT_TOL) -> list[EstimateReport]:
    """Defect ratios of several Q/L/R/B kinds, from one pass over the stream.

    One report per listed kind, in list order, duplicates kept.  Each
    input stream that several kinds read is drawn once per chunk, and the
    spec's value at f, |f|_p and |a|_inf of each contraction are computed
    once per chunk.  Every report is, bit for bit, the one
    ``estimate_constant`` gives for its kind alone, and a failure raises
    the error the kinds would raise one after another.
    """
    for kind in kinds:
        if kind not in ESTIMATE_KINDS:
            raise InputError(f"unknown estimate kind {kind!r}; known: {ESTIMATE_KINDS}")
    p, q = _resolve_indices(spec, p, q)
    return _sampled(kinds, {"p": p, "q": q, "spec": spec_to_doc(spec)}, sampler,
                    n_samples, tol, _KIND_NOTE + _guarantee_note(spec))


def estimate_constant(spec: CentralizerSpec, kind: str, sampler: Sampler,
                      n_samples: int, p: float | None = None,
                      q: float | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> EstimateReport:
    """Largest defect ratio of the named kind over a seeded stream.

    Q: additivity defect over the sum of input norms.
    L/R: one-sided multiplication defect over |a| |f|_p.
    B: two-sided multiplication defect over |a| |f|_p |b|.
    ``estimate_constants`` measures several kinds in one pass.
    """
    return estimate_constants(spec, (kind,), sampler, n_samples, p, q, tol)[0]


def distance_estimate(a: CentralizerSpec, b: CentralizerSpec, sampler: Sampler,
                      n_samples: int, p: float | None = None,
                      q: float | None = None,
                      tol: Tolerances = DEFAULT_TOL) -> EstimateReport:
    """Largest sampled |a(f) - b(f)|_q / |f|_p; evidence of (in)equivalence."""
    p, q = _resolve_indices(a, p, q)
    return _sampled(("distance",), {"p": p, "q": q, "spec": spec_to_doc(a),
                                    "spec_b": spec_to_doc(b)},
                    sampler, n_samples, tol, _KIND_NOTE + _guarantee_note(a))[0]


def reevaluate_witness(report: EstimateReport,
                       tol: Tolerances = DEFAULT_TOL) -> float:
    """Recompute the witness ratio of a report: its kind's recipe re-draws
    sample ``witness.index`` and its scorer rates it; gamma rescores its
    stored row.  Refused: a context its kind cannot read, a witness that
    stores its ``inputs`` (written before witnesses kept their index alone)
    or lacks its ``index`` (gamma's: its ``inputs_gaussian``), and a witness
    ratio unlike the value, but for gamma's (its value is a mean)."""
    if report.kind not in REPORT_KINDS:
        raise InputError(f"cannot replay report of kind {report.kind!r}")
    if "inputs" in report.witness:
        raise InputError("the witness stores its inputs: the report predates index-only "
                         "witnesses and must be re-run")
    ratio = report.witness.get("ratio")
    if report.kind != "gamma" and ratio != report.value:
        raise InputError(f"witness ratio {ratio!r} differs from the report value "
                         f"{report.value!r}")
    scorer, recipe = REPORT_KINDS[report.kind]
    key = "index" if recipe else "inputs_gaussian"
    if key not in report.witness:
        raise InputError(f"the {report.kind} witness has no {key!r}")
    try:
        score = scorer(report.context, tol)
        draw = recipe(report.context, report.seed) if recipe else None
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed {report.kind} report context: {exc!r}") from None
    if recipe is None:
        return float(score(vec_from_json(report.witness[key])[None])[0])
    i = report.witness[key]
    if not (type(i) is int and 0 <= i < report.samples):
        raise InputError(f"witness index {i!r} is not a sample of the report's stream")
    chunk = _Chunk(range(i, i + 1), tol)
    return float(score(draw(chunk), chunk)[0])


@dataclass(frozen=True, eq=False)
class FitResult:
    """Best morphism of the requested module structure, by least squares.

    ``side`` names the module structure: morphisms of left modules act by
    right multiplication f -> f G, those of right modules by composition
    f -> L f.  The Frobenius metric keeps the fit convex and closed-form;
    ``residual`` is then re-measured as the worst (p, q) defect ratio, so
    the probe never overstates triviality; as in ``max_over_stream``, NaN
    never wins, whatever the sample order.
    """

    matrix: np.ndarray
    residual: float
    side: str
    rank_deficient: bool
    ratios: tuple[float, ...]


def _pack(a) -> tuple:
    """A complex stack held bit for bit in less room: its shape, a packed
    mask of the entries whose bits are not those of +0.0+0.0j (so -0.0
    and NaN payloads are kept), and those entries."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    words = a.view(np.uint64).reshape(-1, 2)
    kept = (words[:, 0] | words[:, 1]) != 0  # one OR, ~10x faster than .any(axis=1)
    return a.shape, np.packbits(kept), a.reshape(-1)[kept]


def _unpack(packed) -> np.ndarray:
    """The stack ``_pack`` held, bit for bit."""
    shape, bits, entries = packed
    out = np.zeros(shape, dtype=np.complex128)
    out.reshape(-1)[np.unpackbits(bits, count=out.size).view(bool)] = entries
    return out


def fit_morphism(spec: CentralizerSpec, side: str, samples, q: float,
                 p: float, tol: Tolerances = DEFAULT_TOL) -> FitResult:
    """Least-squares module morphism of ``spec`` plus its worst defect ratio.

    ``samples`` is a (k, n, n) stack, a sequence of matrices, or an
    iterator of drawn chunks ``(stack, factors)``, as
    ``Sampler.unit_sphere_chunks`` gives them; a stack is walked in chunks
    of ``CHUNK_ENTRIES`` entries that carry no factors.  The spec is
    evaluated at a chunk's drawn Schmidt form where it has one, and the
    chunk's Gram and cross terms are added to the sums at once,
    in sample order, as a loop over the samples would add them.  A second
    pass scores the ratios chunk by chunk, |f|_p from the drawn singular
    values where there are some.

    A chunk's frames and form go before the next chunk is drawn, and its
    samples and values are held ``_pack``ed until the second pass unpacks
    them, one chunk at a time.  Beside one chunk's terms, a call holds the
    sums, the drawn singular values and the packed chunks: one bit per
    entry and the entries that are not +0.0+0.0j.  A ``sparse`` sample
    lives on one dyadic block (about a fifth of its entries at n = 64); a
    dense one costs n^2 / 8 bytes more than itself.
    """
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    if not isinstance(samples, Iterator):
        if len(samples) == 0:
            raise InputError("fit_morphism needs at least one sample")
        f = as_matrices(samples)
        if f.ndim != 3:
            raise InputError(f"fit_morphism needs a stack of matrices, got shape {f.shape}")
        samples = ((f[part], None) for part in _chunked(len(f), f[0].size))
    p = validate_index(p)
    q = validate_index(q)

    gram = cross = 0.0  # 0.0 plus the first term is that term, as from np.zeros

    def summed(drawn):
        nonlocal gram, cross
        fc, factors = drawn
        u, values, v = factors or (None, None, None)
        form = None if u is None else schmidt_from_factors(u, values, v, tol)
        y = evaluate(spec, fc, tol, form)
        if side == "left":
            gram_terms, cross_terms = adjoint(fc) @ fc, adjoint(fc) @ y
        else:
            gram_terms, cross_terms = fc @ adjoint(fc), y @ adjoint(fc)
        for g, c in zip(gram_terms, cross_terms):
            gram += g
            cross += c
        return _pack(fc), _pack(y), values

    # map() holds no chunk while it draws the next one
    chunks = list(map(summed, samples))
    if not chunks:
        raise InputError("fit_morphism needs at least one sample")
    rank_deficient = bool(np.linalg.matrix_rank(gram) < gram.shape[0])
    pinv = np.linalg.pinv(gram)
    morph = pinv @ cross if side == "left" else cross @ pinv
    ratios = []
    for packed_f, packed_y, values in chunks:
        fc, y = _unpack(packed_f), _unpack(packed_y)
        approx = fc @ morph if side == "left" else morph @ fc
        ratios += (_norm(y - approx, q) / _norm(fc, p, values)).tolist()
    ratios = tuple(ratios)
    residual = max((r for r in ratios if not math.isnan(r)), default=-math.inf)
    return FitResult(matrix=morph, residual=residual, side=side,
                     rank_deficient=rank_deficient, ratios=ratios)


@dataclass(frozen=True, eq=False)
class TwistedTable:
    """Columns of an operator into a twisted pair space.

    Basis vector e_j is sent to the pair (y_cols[:, j], x_cols[:, j]).
    """

    y_cols: np.ndarray
    x_cols: np.ndarray


def _table_to_doc(table) -> dict:
    if isinstance(table, TwistedTable):
        return {"kind": "twisted", "y": mat_to_json(table.y_cols),
                "x": mat_to_json(table.x_cols)}
    return {"kind": "matrix", "value": mat_to_json(as_matrix(table))}


def _gamma_scorer(ctx, tol):
    """Norms of sum_k g_k v(e_k) for each row of Gaussian coefficients."""
    from .twisted import twisted_target  # deferred: twisted imports metrology

    table = ctx["table"]
    target = twisted_target(**ctx["target"]) if "target" in ctx else None
    if table["kind"] == "twisted":
        if target is None:
            raise InputError("a twisted table needs an explicit target quasinorm")
        y, x = mat_from_json(table["y"]), mat_from_json(table["x"])
    else:
        x = as_matrix(mat_from_json(table["value"]))

    def score(g):
        if g.shape[-1] != x.shape[1]:
            raise InputError(f"a row of {g.shape[-1]} Gaussian coefficients cannot "
                             f"weight the table's {x.shape[1]} columns")
        if table["kind"] == "twisted":
            return target.rows(g @ y.T, g @ x.T)
        return np.linalg.norm(g @ x.T, axis=1) if target is None else lp_rows(g @ x.T, target.pY)
    return score


# no recipe: every row comes from one generator, so re-drawing row i draws all before it
REPORT_KINDS["gamma"] = (_gamma_scorer, None)


def gamma_summing_mc(table, n_samples: int, seed: int, target=None) -> EstimateReport:
    """Monte Carlo Gaussian-average norm of an operator given by columns.

    Estimates (E | sum_k g_k v(e_k) |^2)^(1/2) with independent standard
    complex Gaussians g_k.  For a plain matrix into a Euclidean target the
    exact value is the Frobenius norm, which anchors the estimator.  The
    reported standard error is for the square root (delta method).

    The ``STREAM_GAUSS`` block is drawn and scored ``CHUNK_ENTRIES``
    entries at a time, so a call holds the ``n_samples`` norms and one
    piece of the block; once all are scored, the norms are squared and
    their moments taken in place.  The witness is the first row of largest
    norm, as ``np.argmax`` over the whole block picks it.
    """
    if n_samples < 1:
        raise InputError("need at least one sample")
    width = (table.x_cols if isinstance(table, TwistedTable) else as_matrix(table)).shape[1]
    sampler = Sampler(seed=seed, dim=max(1, width), p=2.0)
    context = {"p": 2.0, "q": 2.0, "table": _table_to_doc(table)}
    if target is not None:
        context["target"] = target.doc()
    score = _gamma_scorer(context, DEFAULT_TOL)
    norms = np.empty(n_samples)
    imax, best_row = 0, None
    rows = max(1, CHUNK_ENTRIES // max(1, width))
    for start, piece in zip(range(0, n_samples, rows),
                            sampler.gaussian_rows(n_samples, width, rows)):
        part = norms[start:start + len(piece)]
        part[...] = score(piece)
        k = int(np.argmax(part))
        # np.argmax's own rule (first maximum, NaN first) between the two bests
        if best_row is None or np.argmax((norms[imax], part[k])) == 1:
            imax, best_row = start + k, piece[k]
    squares = norms
    squares **= 2  # in place, bitwise as norms**2: no second array of n_samples
    mean = float(squares.mean())
    value = math.sqrt(mean)
    if n_samples > 1:
        # numpy's own std(ddof=1) steps, bit for bit, in the same buffer
        squares -= mean
        squares **= 2
        se_mean = math.sqrt(float(squares.sum()) / (n_samples - 1)) / math.sqrt(n_samples)
    else:
        se_mean = float("nan")
    stderr = 0.0 if value == 0.0 else se_mean / (2.0 * value)  # NaN for a NaN value
    note = "Monte Carlo mean of squared norms; stderr by the delta method"
    if n_samples < 100:
        note += "; WARNING: fewer than 100 samples"
    witness = {"index": imax, "inputs_gaussian": vec_to_json(best_row)}
    report = EstimateReport(kind="gamma", value=value, samples=n_samples, seed=seed,
                            witness=witness, note=note, stderr=stderr, context=context)
    # the replayed ratio: a one-row product may round unlike the block's row
    report.witness["ratio"] = reevaluate_witness(report)
    return report
