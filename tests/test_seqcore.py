import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatlab.matcore import InputError, lp_rows
from schatlab.seqcore import (
    LipschitzFn,
    PHI_TABLE,
    get_phi,
    kp_phi,
    kp_phi_rows,
    lp_norm,
    rank_sequence,
    register_phi,
)
from conftest import complex_vector


# --- rank_sequence -----------------------------------------------------------


def test_rank_sequence_basic():
    assert rank_sequence([3.0, 1.0, 2.0]).tolist() == [1, 3, 2]


def test_rank_sequence_tie_goes_to_earlier_index():
    assert rank_sequence([2.0, 2.0]).tolist() == [1, 2]


def test_rank_sequence_zero_entry():
    assert rank_sequence([0.0, 5.0]).tolist() == [2, 1]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                                   allow_infinity=False), min_size=1, max_size=20))
def test_rank_sequence_is_permutation(values):
    ranks = rank_sequence(np.array(values))
    assert sorted(ranks.tolist()) == list(range(1, len(values) + 1))


# --- lp_norm -----------------------------------------------------------------


@pytest.mark.parametrize("x,p,expected", [
    ([1.0, 1.0, 1.0, 1.0], 2.0, 2.0),
    ([1.0, -1.0], 1.0, 2.0),
    ([3.0, 4.0], math.inf, 4.0),
])
def test_lp_norm_values(x, p, expected):
    assert lp_norm(np.array(x, dtype=complex), p) == pytest.approx(expected)


def test_lp_norm_empty():
    assert lp_norm(np.array([], dtype=complex), 2.0) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.5, 1.0, 2.0]))
def test_lp_norm_permutation_bit_invariant(seed, p):
    rng = np.random.default_rng(seed)
    x = complex_vector(rng, 12)
    perm = rng.permutation(12)
    assert lp_norm(x[perm], p) == lp_norm(x, p)


def _lp_reference(x, p):
    """The one-sequence l^p norm written out: ascending powers, then root."""
    a = np.abs(x)
    if a.size == 0:
        return 0.0
    if math.isinf(p):
        return float(a.max())
    return float((np.sort(a) ** p).sum() ** (1.0 / p))


@pytest.mark.parametrize("p", [0.5, 0.7, 1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("width", [0, 1, 7, 9, 130, 300])
def test_lp_rows_bitwise_per_row(p, width):
    rng = np.random.default_rng(width)
    rows = np.vstack([complex_vector(rng, width) for _ in range(40)])
    rows[::7, ::3] = 0.0
    norms = lp_rows(rows, p)
    assert [lp_norm(row, p) for row in rows] == norms.tolist()
    assert [_lp_reference(row, p) for row in rows] == norms.tolist()
    # column-major input: every row is still summed as a contiguous row
    assert lp_rows(np.asfortranarray(rows), p).tolist() == norms.tolist()


def test_lp_rows_kept_counts_largest():
    rng = np.random.default_rng(3)
    rows = np.vstack([complex_vector(rng, 9) for _ in range(6)])
    kept = np.array([9, 3, 0, 1, 3, 9])
    norms = lp_rows(rows, 0.5, kept)
    for row, count, norm in zip(rows, kept, norms):
        largest = np.sort(np.abs(row))[len(row) - count:]
        assert norm == lp_norm(largest, 0.5)


# --- kp_phi ------------------------------------------------------------------


def test_kp_phi_basis_vector_vanishes():
    e1 = np.array([1.0, 0.0, 0.0], dtype=complex)
    for name in PHI_TABLE:
        assert np.allclose(kp_phi(e1, name, 2.0), 0.0, atol=1e-15)


def test_kp_phi_two_point_hand_value():
    x = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    out = kp_phi(x, "s", 2.0)
    expected = math.log(math.sqrt(2.0)) / math.sqrt(2.0)
    assert np.allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 16, 128, 1024])
def test_kp_phi_flat_vector_growth(n, p):
    x = np.full(n, n ** (-1.0 / p), dtype=complex)
    value = lp_norm(kp_phi(x, "s", p), p)
    assert value == pytest.approx(math.log(n) / p, abs=1e-10)


def test_kp_phi_zero_vector():
    assert np.allclose(kp_phi(np.zeros(4, dtype=complex), "s", 1.0), 0.0)


def test_kp_phi_zero_coordinates_stay_zero():
    x = np.array([2.0, 0.0, 1.0], dtype=complex)
    out = kp_phi(x, "s", 1.0)
    assert out[1] == 0.0
    assert out[0] != 0.0


def test_kp_phi_tie_ranks_use_index_order():
    out = kp_phi(np.array([2.0, 2.0], dtype=complex), "t", 1.0)
    assert out[0] == pytest.approx(0.0, abs=1e-15)
    assert out[1] == pytest.approx(2.0 * math.log(2.0), rel=1e-12)


def test_kp_phi_homogeneous(rng):
    for _ in range(20):
        x = complex_vector(rng, 10)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        lhs = kp_phi(lam * x, "s", 1.0)
        rhs = lam * kp_phi(x, "s", 1.0)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


@st.composite
def distinct_modulus_vectors(draw):
    moduli = draw(st.lists(st.integers(1, 10**6), min_size=2, max_size=16,
                           unique=True))
    phases = draw(st.lists(st.floats(0.0, 2.0 * math.pi, allow_nan=False),
                           min_size=len(moduli), max_size=len(moduli)))
    return np.array([m * complex(math.cos(t), math.sin(t))
                     for m, t in zip(moduli, phases)])


@settings(max_examples=50, deadline=None)
@given(distinct_modulus_vectors(), st.integers(0, 10**9),
       st.sampled_from([0.5, 1.0, 2.0]))
def test_kp_phi_permutation_symmetric_exactly(x, seed, p):
    # moduli are distinct integers, so ranks are unambiguous and the map
    # commutes with coordinate permutations bit for bit
    if len(set(np.abs(x).tolist())) < len(x):
        return
    perm = np.random.default_rng(seed).permutation(len(x))
    for name in ("s", "t", "min_s_1"):
        assert np.array_equal(kp_phi(x[perm], name, p), kp_phi(x, name, p)[perm])


def test_kp_phi_linf_centralizer_constant_recorded(rng):
    # record sup |kp(a x) - a kp(x)|_p / (|a|_inf |x|_p); finite and stable
    p = 2.0
    recorded = {}
    for n in (8, 16, 32):
        worst = 0.0
        for _ in range(200):
            x = complex_vector(rng, n, unit=True)
            a = rng.uniform(0.0, 1.0, n) * np.exp(2j * np.pi * rng.uniform(0, 1, n))
            defect = kp_phi(a * x, "s", p) - a * kp_phi(x, "s", p)
            worst = max(worst, lp_norm(defect, p) / lp_norm(x, p))
        recorded[n] = worst
    print("linf-centralizer constants:", {k: round(v, 4) for k, v in recorded.items()})
    assert all(math.isfinite(v) and v > 0 for v in recorded.values())
    assert max(recorded.values()) <= 3.0 * min(recorded.values())


def test_kp_phi_rows_matches_vector_path(rng):
    xs = np.vstack([complex_vector(rng, 9) for _ in range(7)])
    xs[2, 4] = 0.0
    xs[5] = 0.0
    for name in ("s", "t", "min_s_1"):
        rows = kp_phi_rows(xs, name, 2.0)
        for i in range(xs.shape[0]):
            assert np.array_equal(rows[i], kp_phi(xs[i], name, 2.0))


def test_kp_phi_requires_finite_index():
    with pytest.raises(InputError):
        kp_phi(np.ones(3, dtype=complex), "s", math.inf)


# --- LipschitzFn table -------------------------------------------------------


def test_phi_table_builtins():
    assert {"s", "t", "min_s_1"} <= set(PHI_TABLE)
    assert get_phi("min_s_1").sup_bound == 1.0


def test_get_phi_unknown():
    with pytest.raises(InputError):
        get_phi("not-a-phi")


def test_register_phi_conflict_and_custom():
    with pytest.raises(InputError):
        register_phi(LipschitzFn("s", lambda s, t: s, 1.0))
    custom = LipschitzFn("half_s", lambda s, t: 0.5 * s, 0.5)
    try:
        register_phi(custom)
        assert get_phi("half_s") is custom
    finally:
        PHI_TABLE.pop("half_s", None)


def test_sequence_json_round_trip(rng):
    from schatlab.matcore import vec_from_json, vec_to_json

    x = complex_vector(rng, 6)
    doc = vec_to_json(x)
    assert all(len(pair) == 2 for pair in doc)
    assert np.array_equal(vec_from_json(doc), x)


def test_builtin_phi_lipschitz_property(rng):
    for name in ("s", "t", "min_s_1"):
        phi = get_phi(name)
        pts = rng.uniform(0.0, 10.0, size=(100, 2, 2))
        for (u, v) in pts:
            lhs = abs(complex(phi(u[0], u[1])) - complex(phi(v[0], v[1])))
            assert lhs <= phi.lipschitz * np.linalg.norm(u - v) + 1e-12
        if phi.vanishes_at_origin:
            assert complex(phi(0.0, 0.0)) == 0.0
