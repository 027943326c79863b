"""Commutative building blocks on finitely supported sequences.

Rank sequences, l^p quasinorms and the weighted coordinate maps built
from a two-variable Lipschitz function, which are the scalar prototypes
of every matrix construction in this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matcore import InputError, as_vector, lp_rows, validate_index

__all__ = [
    "LipschitzFn",
    "PHI_TABLE",
    "get_phi",
    "register_phi",
    "as_sequence",
    "rank_sequence",
    "lp_norm",
    "kp_phi",
    "kp_phi_rows",
]


as_sequence = as_vector


@dataclass(frozen=True)
class LipschitzFn:
    """Named two-variable function phi(s, t) with a Lipschitz constant.

    ``fn`` must accept numpy arrays elementwise.  ``sup_bound`` is the
    supremum of |phi| when the function is bounded (bounded phi produce
    trivial constructions, which is what makes them useful controls).
    """

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    vanishes_at_origin: bool = True
    sup_bound: float | None = None

    def __call__(self, s, t) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(s, float), np.asarray(t, float)),
                          dtype=np.complex128)


PHI_TABLE: dict[str, LipschitzFn] = {}


def register_phi(phi: LipschitzFn, overwrite: bool = False) -> LipschitzFn:
    """Add a named phi to the table used by spec documents and the CLI."""
    if phi.name in PHI_TABLE and not overwrite:
        raise InputError(f"phi {phi.name!r} is already registered")
    PHI_TABLE[phi.name] = phi
    return phi


def get_phi(phi) -> LipschitzFn:
    """Registered phi of a name; a LipschitzFn is returned as is."""
    if isinstance(phi, LipschitzFn):
        return phi
    try:
        return PHI_TABLE[phi]
    except KeyError:
        raise InputError(f"unknown phi {phi!r}; registered: {sorted(PHI_TABLE)}") from None


register_phi(LipschitzFn("s", lambda s, t: s, lipschitz=1.0))
register_phi(LipschitzFn("t", lambda s, t: t, lipschitz=1.0))
register_phi(LipschitzFn("min_s_1", lambda s, t: np.minimum(s, 1.0),
                         lipschitz=1.0, sup_bound=1.0))


def rank_sequence(x) -> np.ndarray:
    """Position of each |x(n)| in the decreasing rearrangement of |x|.

    Ties are broken by index order (the earlier coordinate outranks the
    later one), so the result is always a permutation of 1..len(x).
    """
    x = as_sequence(x)
    order = np.argsort(-np.abs(x), kind="stable")
    ranks = np.empty(x.size, dtype=np.int64)
    ranks[order] = np.arange(1, x.size + 1)
    return ranks


def lp_norm(x, p: float) -> float:
    """l^p quasinorm of a finite sequence; sup norm for ``p = inf``.

    The one-row ``lp_rows``, so bit-identical across permutations of x.
    """
    return float(lp_rows(as_sequence(x)[None, :], validate_index(p))[0])


def kp_phi(x, phi, p: float) -> np.ndarray:
    """Weighted coordinate map x -> x * phi(log(|x|_p / |x|), log r_x).

    The two arguments fed to phi are, per coordinate, the logarithmic
    distance of |x(n)| to the norm and the logarithm of the coordinate's
    rank.  Coordinates where x vanishes are mapped to 0 (the factor x(n)
    forces the limit value), and the zero sequence maps to itself, so the
    map is exactly homogeneous.  This is the one-row ``kp_phi_rows``.
    """
    return kp_phi_rows(as_sequence(x)[None, :], phi, p)[0]


def kp_phi_rows(xs, phi, p: float) -> np.ndarray:
    """Row-wise ``kp_phi`` over the last axis of a batch of sequences."""
    p = validate_index(p)
    if math.isinf(p):
        raise InputError("kp_phi needs a finite index")
    phi = get_phi(phi)
    xs = np.asarray(xs, dtype=np.complex128)
    if xs.ndim < 2:
        raise InputError(f"expected a batch of sequences, got shape {xs.shape}")
    out = np.zeros_like(xs)
    if xs.size == 0:
        return out
    a = np.abs(xs)
    # array root, not lp_rows: the scalar root would move kp_bicentralizer values
    norms = (np.sort(a, axis=-1) ** p).sum(axis=-1)[..., None] ** (1.0 / p)
    order = np.argsort(-a, axis=-1, kind="stable")
    ranks = np.empty(xs.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, xs.shape[-1] + 1), axis=-1)
    live = (xs != 0) & (norms > 0.0)
    logdist = np.log(np.where(live, norms / np.where(live, a, 1.0), 1.0))
    logrank = np.log(ranks.astype(np.float64))
    vals = phi(logdist, logrank)
    out[live] = xs[live] * vals[live]
    return out
