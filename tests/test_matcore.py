import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schatlab.matcore import (
    InputError,
    NumericError,
    as_integer,
    checked,
    combine_indices,
    concavity_modulus,
    decode_fields,
    holder_factor,
    joint_root,
    lp_rows,
    mat_from_json,
    mat_to_json,
    modulus_power,
    polar,
    rank_one,
    schatten_norm,
    schmidt,
    singular_values,
    trace,
    validate_dim,
    validate_index,
)
from conftest import complex_matrix, complex_vector, gapped_matrix, haar_unitary

P_GRID = [0.5, 1.0, 2.0, 3.0, math.inf]


def eig_norm_oracle(f, p):
    """Independent route: l^p norm of sqrt(eig(f* f))."""
    w = np.linalg.eigvalsh(np.conj(f).T @ f)
    s = np.sqrt(np.clip(w, 0.0, None))
    if math.isinf(p):
        return float(s.max(initial=0.0))
    return float((s**p).sum() ** (1.0 / p))


# --- schatten_norm -----------------------------------------------------------


def test_schatten_norm_identity_trace():
    assert schatten_norm(np.eye(2), 1.0) == pytest.approx(2.0, abs=1e-14)


def test_schatten_norm_operator_norm():
    assert schatten_norm(np.diag([3.0, 4.0]), math.inf) == pytest.approx(4.0)


def test_schatten_norm_half_index():
    # (3 * 1^(1/2))^2 by the direct formula
    assert schatten_norm(np.eye(3), 0.5) == pytest.approx(9.0, abs=1e-12)


def test_schatten_norm_zero_matrix():
    assert schatten_norm(np.zeros((3, 3)), 0.5) == 0.0


def test_schatten_norm_matches_eigenvalue_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = complex_matrix(rng, n)
        for p in P_GRID:
            a = schatten_norm(f, p)
            b = eig_norm_oracle(f, p)
            assert a == pytest.approx(b, rel=1e-10)


def test_schatten_norm_rejects_nonfinite():
    with pytest.raises(InputError):
        schatten_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]), 2.0)
    with pytest.raises(InputError):
        validate_index(-1.0)


@pytest.mark.parametrize("value", [True, False])
def test_validate_index_refuses_bools(value):
    # the index counterpart of as_integer's bool rule: true is not 1.0
    with pytest.raises(InputError):
        validate_index(value)


@pytest.mark.parametrize("p", [0.001, 1e-300])
def test_lp_rows_root_past_double_range_is_numeric(p):
    # sum |x|^p is about the row length, and its 1/p-th power overflows
    with pytest.raises(NumericError) as info:
        lp_rows(np.ones((2, 16)), p)
    assert info.value.diagnostics == {"index": p} and repr(p) in str(info.value)
    assert lp_rows(np.ones((1, 2)), 0.003)[0] == pytest.approx(2.0 ** (1 / 0.003))


# --- document fields ---------------------------------------------------------


@pytest.mark.parametrize("value, expected", [(3, 3), (3.0, 3), (-2.0, -2), ("8", 8),
                                             (np.int64(5), 5), (2**70, 2**70)])
def test_as_integer_takes_ints_integral_floats_and_numerals(value, expected):
    assert as_integer(value) == expected and type(as_integer(value)) is int


@pytest.mark.parametrize("value", [True, False, 2.5, "2.5", "x", "", None, [1], {},
                                   math.inf, math.nan])
def test_as_integer_refuses_bools_fractions_and_the_rest(value):
    with pytest.raises(InputError):
        as_integer(value)


def test_validate_dim_refuses_what_numpy_cannot_hold():
    # the largest n whose n x n complex128 matrix numpy can index; nothing is allocated
    largest = math.isqrt(np.iinfo(np.intp).max // 16)
    assert validate_dim(1) == 1 and validate_dim(largest) == largest
    for n in (0, -1, largest + 1, 2**40, 2**70, True, 2.5):
        with pytest.raises(InputError):
            validate_dim(n)


@dataclass(frozen=True)
class _Doc:
    n: int
    name: str = "x"
    tags: dict = field(default_factory=dict)


def test_decode_fields_names_the_refused_field():
    codec = {"n": as_integer, "name": checked(lambda v: isinstance(v, str), "name must be text")}
    assert decode_fields(_Doc, {"n": "3"}, codec, "doc") == _Doc(3)
    assert decode_fields(_Doc, {"n": 1, "tags": {"a": 1}}, codec, "doc").tags == {"a": 1}
    for doc, name in (({}, "n"), ({"n": 2.5}, "n"), ({"n": 1, "name": 5}, "name"),
                      ({"n": 1, "b": 0, "a": 0}, "a")):
        with pytest.raises(InputError) as info:
            decode_fields(_Doc, doc, codec, "doc")
        assert info.value.diagnostics == {"field": name}
    with pytest.raises(InputError, match="must be an object"):
        decode_fields(_Doc, [1], codec, "doc")


# --- concavity modulus -------------------------------------------------------


@pytest.mark.parametrize("r,expected", [(1.0, 1.0), (0.5, 2.0), (2.0, 1.0),
                                        (0.25, 8.0), (math.inf, 1.0)])
def test_concavity_modulus(r, expected):
    assert concavity_modulus(r) == pytest.approx(expected)


def test_concavity_modulus_overflow_is_numeric():
    # 2^(1/r - 1) leaves the double range for r below about 1/1023
    assert concavity_modulus(1.0 / 1000.0) == 2.0 ** 999.0
    with pytest.raises(NumericError) as info:
        concavity_modulus(1e-4)
    assert info.value.diagnostics == {"index": 1e-4}


# --- schmidt -----------------------------------------------------------------


def test_schmidt_rank_one_basis_vectors():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    form = schmidt(rank_one(e1, e2))
    assert form.rank == 1
    assert form.s[0] == pytest.approx(1.0)
    assert np.allclose(form.x[:, 0], e1, atol=1e-14)
    assert np.allclose(form.y[:, 0], e2, atol=1e-14)


def test_schmidt_diagonal():
    form = schmidt(np.diag([2.0, 1.0]).astype(complex))
    assert np.allclose(form.s, [2.0, 1.0])
    assert np.allclose(np.abs(form.x), np.eye(2), atol=1e-14)
    assert np.allclose(form.x, form.y, atol=1e-14)


def test_schmidt_values_phase_invariant(rng):
    for _ in range(20):
        f = complex_matrix(rng, 5)
        s1 = schmidt(f).s
        s2 = schmidt(1j * f).s
        # brute-force reference from the eigenvalues of f* f
        ref = np.sqrt(np.clip(np.linalg.eigvalsh(f.conj().T @ f)[::-1], 0, None))
        assert np.allclose(s1, s2, rtol=1e-12)
        assert np.allclose(s1, ref, rtol=1e-10)


def test_schmidt_reconstruction(rng):
    for _ in range(20):
        f = complex_matrix(rng, 6, 4)
        form = schmidt(f)
        err = np.abs(form.reconstruct() - f).max()
        assert err <= 1e-10 * max(1.0, np.abs(f).max())


def test_decompositions_are_immutable(rng):
    form = schmidt(complex_matrix(rng, 4))
    pf = polar(complex_matrix(rng, 4))
    for arr in (form.s, form.x, form.y, pf.phase, pf.modulus):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_schmidt_frames_orthonormal(rng):
    for _ in range(10):
        form = schmidt(complex_matrix(rng, 6, 4))
        gram_x = form.x.conj().T @ form.x
        gram_y = form.y.conj().T @ form.y
        eye = np.eye(form.rank)
        assert np.abs(gram_x - eye).max() <= 1e-12
        assert np.abs(gram_y - eye).max() <= 1e-12


def test_schmidt_homogeneity_convention(rng):
    # schmidt(lam f): values |lam| s_n, x-frame unchanged, phase moved to y
    for _ in range(10):
        f = gapped_matrix(rng, 5)
        lam = complex(rng.standard_normal(), rng.standard_normal())
        sigma = lam / abs(lam)
        base = schmidt(f)
        scaled = schmidt(lam * f)
        assert np.allclose(scaled.s, abs(lam) * base.s, rtol=1e-12)
        assert np.allclose(scaled.x, base.x, atol=1e-10)
        assert np.allclose(scaled.y, sigma * base.y, atol=1e-10)
        # term-wise: n-th rank-one term of lam f is sigma times the n-th of f
        for j in range(base.rank):
            lhs = rank_one(scaled.x[:, j], scaled.y[:, j])
            rhs = sigma * rank_one(base.x[:, j], base.y[:, j])
            assert np.allclose(lhs, rhs, atol=1e-10)


def test_schmidt_zero_matrix():
    form = schmidt(np.zeros((3, 3)))
    assert form.rank == 0
    assert np.allclose(form.reconstruct(), 0.0)


# --- polar -------------------------------------------------------------------


def test_polar_of_unitary(rng):
    u = haar_unitary(rng, 4)
    pf = polar(u)
    assert np.allclose(pf.phase, u, atol=1e-12)
    assert np.allclose(pf.modulus, np.eye(4), atol=1e-12)


def test_polar_singular_diagonal():
    pf = polar(np.diag([-2.0, 0.0]).astype(complex))
    assert np.allclose(pf.phase, np.diag([-1.0, 0.0]), atol=1e-12)
    assert np.allclose(pf.modulus, np.diag([2.0, 0.0]), atol=1e-12)


def test_polar_reconstruction_and_partial_isometry(rng):
    for _ in range(20):
        f = complex_matrix(rng, 6)
        pf = polar(f)
        assert np.abs(pf.phase @ pf.modulus - f).max() <= 1e-10 * schatten_norm(f, math.inf)
        # phase* phase is the projection onto the range of the modulus
        proj = pf.phase.conj().T @ pf.phase
        assert np.allclose(proj @ pf.modulus, pf.modulus, atol=1e-10)
        w = np.linalg.eigvalsh(pf.modulus)
        assert w.min() >= -1e-10


# --- modulus_power -----------------------------------------------------------


def test_modulus_power_identity():
    assert np.allclose(modulus_power(np.eye(3), 0.37), np.eye(3), atol=1e-12)


def test_modulus_power_psd_square_root():
    out = modulus_power(np.diag([4.0, 9.0]).astype(complex), 0.5)
    assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)


def test_modulus_power_semigroup(rng):
    for _ in range(10):
        g = complex_matrix(rng, 5)
        f = g.conj().T @ g  # random PSD
        a, b = 0.7, 1.6
        lhs = modulus_power(f, a) @ modulus_power(f, b)
        rhs = modulus_power(f, a + b)
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_modulus_power_rejects_nonpositive_exponent():
    with pytest.raises(InputError):
        modulus_power(np.eye(2), 0.0)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_modulus_power_rejects_a_non_finite_exponent(alpha):
    with pytest.raises(InputError, match="positive and finite"):
        modulus_power(np.eye(2), alpha)


def test_modulus_power_overflow_is_numeric(rng):
    # s_1 near 14: 14**800 is past the double range, and the power used to
    # come back all NaN with RuntimeWarnings alone
    f = complex_matrix(rng, 3)
    f *= 14.0 / singular_values(f)[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="overflows") as info:
            modulus_power(f, 800.0)
    assert info.value.diagnostics == {"exponent": 800.0}
    assert np.isfinite(modulus_power(f, 200.0)).all()


# --- rank_one ----------------------------------------------------------------


def test_rank_one_projection():
    e1 = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(rank_one(e1, e1), np.diag([1.0, 0.0]))


def test_rank_one_action():
    e1 = np.array([1.0, 0.0], dtype=complex)
    e2 = np.array([0.0, 1.0], dtype=complex)
    assert np.allclose(rank_one(e1, e2) @ e1, e2)


def test_rank_one_norm_identity(rng):
    for _ in range(20):
        x = complex_vector(rng, 6)
        y = complex_vector(rng, 6)
        expected = np.linalg.norm(x) * np.linalg.norm(y)
        assert schatten_norm(rank_one(x, y), 0.5) == pytest.approx(expected, rel=1e-10)


def test_rank_one_dimension_mismatch():
    with pytest.raises(InputError):
        rank_one(np.ones(2), np.ones(3))


# --- holder_factor -----------------------------------------------------------


def test_holder_identity_case():
    f, g = holder_factor(np.eye(2), 2.0, 2.0)
    assert np.allclose(f, np.eye(2), atol=1e-12)
    assert np.allclose(g, np.eye(2), atol=1e-12)
    assert schatten_norm(f, 2.0) * schatten_norm(g, 2.0) == pytest.approx(2.0)


def test_holder_hand_value():
    h = np.diag([4.0, 1.0]).astype(complex)
    f, g = holder_factor(h, 2.0, 2.0)
    assert np.allclose(f @ g, h, atol=1e-12)
    prod = schatten_norm(f, 2.0) * schatten_norm(g, 2.0)
    assert prod == pytest.approx(5.0, abs=1e-10)  # trace norm of diag(4, 1)


def test_holder_zero_input():
    f, g = holder_factor(np.zeros((3, 3)), 1.0, 1.0)
    assert np.allclose(f, 0.0) and np.allclose(g, 0.0)


def test_holder_random_reconstruction(rng):
    for q, p, s in [(1.0, 2.0, 2.0), (0.5, 1.0, 1.0), (2.0 / 3.0, 1.0, 2.0)]:
        for _ in range(20):
            h = complex_matrix(rng, 6)
            f, g = holder_factor(h, p, s)
            assert schatten_norm(f @ g - h, math.inf) <= 1e-10 * schatten_norm(h, math.inf)
            gap = abs(schatten_norm(f, p) * schatten_norm(g, s) - schatten_norm(h, q))
            assert gap <= 1e-8


def test_holder_infinite_target_rejected():
    with pytest.raises(InputError):
        holder_factor(np.eye(2), math.inf, math.inf)


# --- joint_root --------------------------------------------------------------


def test_joint_root_scalar():
    h, a, b = joint_root(np.array([[1.0]]), np.array([[1.0]]), 2.0)
    assert h[0, 0] == pytest.approx(math.sqrt(2.0))
    assert a[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))
    assert b[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))


def test_joint_root_one_sided(rng):
    f = complex_matrix(rng, 4)
    h, a, b = joint_root(f, np.zeros_like(f), 1.0)
    pf = polar(f)
    assert np.allclose(h, pf.modulus, atol=1e-10)
    assert np.allclose(a, pf.phase, atol=1e-8)
    assert np.allclose(b, 0.0)


def test_joint_root_random_bounds(rng):
    for p in (0.5, 1.0, 2.0):
        for _ in range(10):
            f = complex_matrix(rng, 6)
            g = complex_matrix(rng, 6)
            h, a, b = joint_root(f, g, p)
            assert np.abs(a @ h - f).max() <= 1e-8
            assert np.abs(b @ h - g).max() <= 1e-8
            assert schatten_norm(a, math.inf) <= 1.0 + 1e-8
            assert schatten_norm(b, math.inf) <= 1.0 + 1e-8
            bound = (concavity_modulus(p / 2.0) ** 0.5
                     * (schatten_norm(f, p) + schatten_norm(g, p)))
            assert schatten_norm(h, p) <= bound + 1e-8


def test_joint_root_eigh_failure_is_numeric(rng, monkeypatch):
    f, g = complex_matrix(rng, 4), complex_matrix(rng, 4)
    m = f.conj().T @ f + g.conj().T @ g

    def failing(a):
        raise np.linalg.LinAlgError("forced failure")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericError) as info:
        joint_root(f, g, 1.0)
    assert str(info.value) == "eigendecomposition did not converge"
    assert info.value.diagnostics == {"shape": [4, 4], "frobenius": float(np.linalg.norm(m)),
                                      "max_abs": float(np.abs(m).max())}


# --- trace -------------------------------------------------------------------


def test_trace_identity():
    assert trace(np.eye(3)) == pytest.approx(3.0)


def test_trace_rank_one_is_inner_product(rng):
    x = complex_vector(rng, 5)
    y = complex_vector(rng, 5)
    assert trace(rank_one(x, y)) == pytest.approx(np.vdot(x, y), rel=1e-12)


def test_trace_cyclic(rng):
    for _ in range(10):
        a = complex_matrix(rng, 5)
        b = complex_matrix(rng, 5)
        assert trace(a @ b) == pytest.approx(trace(b @ a), rel=1e-10, abs=1e-12)


def test_trace_needs_square():
    with pytest.raises(InputError):
        trace(np.ones((2, 3)))


# --- quasinorm inequalities --------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.5, 2.0 / 3.0]))
def test_p_triangle_inequality(seed, p):
    rng = np.random.default_rng(seed)
    f = complex_matrix(rng, 5)
    g = complex_matrix(rng, 5)
    lhs = schatten_norm(f + g, p) ** p
    rhs = schatten_norm(f, p) ** p + schatten_norm(g, p) ** p
    assert lhs <= rhs + 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.5, 1.0, 2.0, 3.0]))
def test_quasinorm_concavity_modulus(seed, p):
    rng = np.random.default_rng(seed)
    f = complex_matrix(rng, 5)
    g = complex_matrix(rng, 5)
    lhs = schatten_norm(f + g, p)
    rhs = concavity_modulus(p) * (schatten_norm(f, p) + schatten_norm(g, p))
    assert lhs <= rhs + 1e-8


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**9), st.sampled_from([0.5, 1.0, 2.0, math.inf]))
def test_bimodule_bound(seed, p):
    rng = np.random.default_rng(seed)
    a = complex_matrix(rng, 5)
    f = complex_matrix(rng, 5)
    b = complex_matrix(rng, 5)
    lhs = schatten_norm(a @ f @ b, p)
    rhs = (schatten_norm(a, math.inf) * schatten_norm(f, p)
           * schatten_norm(b, math.inf))
    assert lhs <= rhs + 1e-8


def test_unitary_invariance(rng):
    for p in (0.5, 1.0, 2.0, math.inf):
        for _ in range(10):
            f = complex_matrix(rng, 5)
            u = haar_unitary(rng, 5)
            v = haar_unitary(rng, 5)
            assert schatten_norm(u @ f @ v, p) == pytest.approx(
                schatten_norm(f, p), rel=1e-10)


def test_holder_inequality(rng):
    for p, s in [(2.0, 2.0), (1.0, 1.0), (1.0, 2.0), (2.0, math.inf)]:
        q = combine_indices(p, s)
        for _ in range(10):
            f = complex_matrix(rng, 5)
            g = complex_matrix(rng, 5)
            lhs = schatten_norm(f @ g, q)
            assert lhs <= schatten_norm(f, p) * schatten_norm(g, s) + 1e-8


def test_singular_values_sorted(rng):
    s = singular_values(complex_matrix(rng, 7))
    assert np.all(np.diff(s) <= 0)


# --- wire format -------------------------------------------------------------


def test_matrix_json_round_trip(rng):
    f = complex_matrix(rng, 3, 5)
    doc = mat_to_json(f)
    assert doc["rows"] == 3 and doc["cols"] == 5
    assert np.array_equal(mat_from_json(doc), f)


def test_matrix_json_rejects_bad_lengths():
    with pytest.raises(InputError):
        mat_from_json({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})
