import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from schatlab.centralizers import (
    CentralizerSpec,
    KPBicentralizer,
    KPOnH,
    LiftedQuasilinear,
    LinearMap,
    Localized,
    Lowered,
    RightMultiplication,
    Scaled,
    ScaledMap,
    SumMap,
    SumSpec,
    apply_qmap,
    evaluate,
    qmap_from_doc,
    qmap_to_doc,
    spatial_part,
    spec_from_doc,
    spec_hash,
    spec_to_doc,
    trace_functional,
    validate_projection,
    zero_spec,
)
from schatlab.matcore import (
    InputError,
    mat_to_json,
    rank_one,
    schatten_norm,
    schmidt,
    trace,
)
from schatlab.metrology import Sampler, estimate_constant
from conftest import SEED, complex_matrix, complex_vector, gapped_matrix, haar_unitary


# --- KPBicentralizer ---------------------------------------------------------


def test_kp_rank_one_vanishes(rng):
    for n in (2, 5, 16):
        x = complex_vector(rng, n, unit=True)
        y = complex_vector(rng, n, unit=True)
        out = evaluate(KPBicentralizer("s", 1.0), 3.7 * rank_one(x, y))
        assert np.abs(out).max() <= 1e-12


def test_kp_hand_value_diag():
    out = evaluate(KPBicentralizer("s", 1.0), np.diag([2.0, 1.0]).astype(complex))
    expected = np.diag([2.0 * math.log(1.5), math.log(3.0)])
    assert np.allclose(out, expected, atol=1e-12)


def test_kp_unitary_equivariance(rng):
    spec = KPBicentralizer("s", 1.0)
    for _ in range(10):
        f = gapped_matrix(rng, 4)
        u = haar_unitary(rng, 4)
        v = haar_unitary(rng, 4)
        lhs = evaluate(spec, u @ f @ v)
        rhs = u @ evaluate(spec, f) @ v
        assert np.abs(lhs - rhs).max() <= 1e-9


def test_kp_zero_matrix():
    assert np.allclose(evaluate(KPBicentralizer("s", 2.0), np.zeros((3, 3))), 0.0)


def test_kp_requires_vanishing_phi():
    from schatlab.seqcore import LipschitzFn

    bad = LipschitzFn("offset", lambda s, t: s + 1.0, 1.0, vanishes_at_origin=False)
    with pytest.raises(InputError):
        KPBicentralizer(bad, 2.0)


def test_kp_matches_sequence_recipe(rng):
    # the matrix value must be the sequence map of the singular values
    # mounted on the prescribed frames
    from schatlab.seqcore import kp_phi

    f = gapped_matrix(rng, 5)
    form = schmidt(f)
    weights = kp_phi(form.s.astype(complex), "s", 1.0)
    expected = (form.y * weights) @ form.x.conj().T
    assert np.allclose(evaluate(KPBicentralizer("s", 1.0), f), expected, atol=1e-13)


# --- LiftedQuasilinear -------------------------------------------------------


def test_lift_rank_one_exact(rng):
    qm = KPOnH("s")
    for n in (2, 5, 16):
        x = complex_vector(rng, n, unit=True)
        y = complex_vector(rng, n, unit=True)
        out = evaluate(LiftedQuasilinear(qm, p=0.5, q=2.0), rank_one(x, y))
        expected = rank_one(x, apply_qmap(qm, y))
        assert np.abs(out - expected).max() <= 1e-12


def test_lift_linear_map_is_composition(rng):
    L = complex_matrix(rng, 6)
    qm = LinearMap(L)
    for _ in range(10):
        u = complex_matrix(rng, 6)
        out = evaluate(LiftedQuasilinear(qm, p=1.0, q=2.0), u)
        assert np.abs(out - L @ u).max() <= 1e-10 * max(1.0, np.abs(L @ u).max())


def test_lift_bounded_map_constant_recorded(rng):
    # bounded phi gives a bounded lift; the constant is recorded, not derived
    qm = KPOnH("min_s_1")
    spec = LiftedQuasilinear(qm, p=1.0, q=2.0)
    worst = 0.0
    for _ in range(50):
        u = complex_matrix(rng, 6)
        worst = max(worst, schatten_norm(evaluate(spec, u), 2.0)
                    / schatten_norm(u, 1.0))
    print("bounded lift constant:", round(worst, 4))
    assert math.isfinite(worst)
    assert worst <= 1.0 + 1e-8  # sup|phi| bounds the lift columnwise


def test_lift_guarantee_window():
    assert LiftedQuasilinear(KPOnH("s"), p=0.5, q=1.0).within_guarantee
    assert not LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0).within_guarantee
    assert not LiftedQuasilinear(KPOnH("s"), p=2.5, q=3.0).within_guarantee


# --- Lowered -----------------------------------------------------------------


def test_lower_rank_one_identity(rng):
    inner = RightMultiplication(complex_matrix(rng, 6))
    for _ in range(5):
        x = complex_vector(rng, 6, unit=True)
        y = complex_vector(rng, 6, unit=True)
        u = rank_one(x, y)
        out = evaluate(Lowered(inner, 2.0, p_inner=2.0), u)
        expected = evaluate(inner, u) @ rank_one(x, x)
        assert np.abs(out - expected).max() <= 1e-12


def test_lower_right_multiplication_substitution(rng):
    from schatlab.matcore import modulus_power, polar

    g = complex_matrix(rng, 5)
    inner = RightMultiplication(g)
    s, p2 = 2.0, 2.0
    p1 = 1.0 / (1.0 / p2 + 1.0 / s)
    for _ in range(10):
        h = complex_matrix(rng, 5)
        pf = polar(h)
        direct = (pf.phase @ modulus_power(h, p1 / p2) @ g
                  @ modulus_power(h, p1 / s))
        out = evaluate(Lowered(inner, s, p_inner=p2), h)
        assert np.abs(out - direct).max() <= 1e-9 * max(1.0, np.abs(direct).max())


def test_lower_bounded_spec_stays_bounded(rng):
    # sup |lowered(h)|_q1 / |h|_p1 <= sup|phi| exactly, by the norm split
    inner = KPBicentralizer("min_s_1", 2.0)
    spec = Lowered(inner, s=2.0)
    p1, q1 = spec.signature()
    assert p1 == pytest.approx(1.0) and q1 == pytest.approx(1.0)
    worst = 0.0
    for _ in range(50):
        h = complex_matrix(rng, 6)
        worst = max(worst, schatten_norm(evaluate(spec, h), q1)
                    / schatten_norm(h, p1))
    assert worst <= 1.0 + 1e-8


def test_lower_zero_input(rng):
    inner = RightMultiplication(complex_matrix(rng, 4))
    assert np.allclose(evaluate(Lowered(inner, 2.0, p_inner=2.0), np.zeros((4, 4))), 0.0)


def test_lower_needs_inner_index(rng):
    with pytest.raises(InputError):
        evaluate(Lowered(RightMultiplication(complex_matrix(rng, 4)), 2.0), np.eye(4))


# --- spatial_part ------------------------------------------------------------


def test_spatial_part_of_lift_is_the_map(rng):
    qm = KPOnH("s")
    spec = LiftedQuasilinear(qm, p=1.0, q=2.0)
    eta = np.zeros(6, dtype=complex)
    eta[0] = 1.0
    for _ in range(10):
        y = complex_vector(rng, 6, unit=True)
        part = spatial_part(spec, eta, y)
        assert np.abs(part.value - apply_qmap(qm, y)).max() <= 1e-10
        assert part.residual <= 1e-10


def test_spatial_part_of_kp_vanishes(rng):
    spec = KPBicentralizer("s", 2.0)
    eta = complex_vector(rng, 5, unit=True)
    for _ in range(5):
        y = complex_vector(rng, 5)
        part = spatial_part(spec, eta, y)
        assert np.abs(part.value).max() <= 1e-12
        assert part.residual <= 1e-12


def test_spatial_part_of_right_multiplication_is_linear(rng):
    # the slot map is y -> <g eta|eta> y; subtracting that linear map
    # leaves nothing
    g = complex_matrix(rng, 5)
    spec = RightMultiplication(g)
    eta = complex_vector(rng, 5, unit=True)
    c = complex(eta.conj() @ g @ eta)
    for _ in range(10):
        y = complex_vector(rng, 5)
        part = spatial_part(spec, eta, y)
        assert np.abs(part.value - c * y).max() <= 1e-10


def test_spatial_part_needs_unit_eta(rng):
    with pytest.raises(InputError):
        spatial_part(zero_spec(), 2.0 * complex_vector(rng, 4, unit=True),
                     complex_vector(rng, 4))


def test_spatial_part_default_eta_is_first_basis_vector(rng):
    qm = KPOnH("s")
    spec = LiftedQuasilinear(qm, p=1.0, q=2.0)
    y = complex_vector(rng, 5, unit=True)
    part = spatial_part(spec, None, y)
    assert np.allclose(part.eta, np.eye(5)[0])
    assert np.abs(part.value - apply_qmap(qm, y)).max() <= 1e-10


# --- trace_functional --------------------------------------------------------


def test_trace_functional_zero_spec(rng):
    assert trace_functional(zero_spec(), complex_matrix(rng, 4)) == 0.0


def test_trace_functional_kp_rank_one(rng):
    spec = KPBicentralizer("s", 2.0)
    x = complex_vector(rng, 5)
    y = complex_vector(rng, 5)
    value = trace_functional(spec, rank_one(x, y))
    assert abs(value) <= 1e-12


def test_trace_functional_right_multiplication_is_linear(rng):
    g = complex_matrix(rng, 5)
    spec = RightMultiplication(g)
    for _ in range(10):
        f = complex_matrix(rng, 5)
        assert trace_functional(spec, f) == pytest.approx(trace(f @ g), rel=1e-9,
                                                          abs=1e-11)
    f1, f2 = complex_matrix(rng, 5), complex_matrix(rng, 5)
    lhs = trace_functional(spec, f1 + f2)
    rhs = trace_functional(spec, f1) + trace_functional(spec, f2)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-11)


def test_trace_functional_homogeneous(rng):
    spec = KPBicentralizer("s", 2.0)
    f = gapped_matrix(rng, 5)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    assert trace_functional(spec, lam * f) == pytest.approx(
        lam * trace_functional(spec, f), rel=1e-9, abs=1e-11)


# --- Localized ---------------------------------------------------------------


def test_localize_identity_projection(rng):
    spec = KPBicentralizer("s", 2.0)
    f = complex_matrix(rng, 5)
    assert np.allclose(evaluate(Localized(spec, np.eye(5)), f), evaluate(spec, f), atol=1e-13)


def test_localize_zero_projection(rng):
    spec = KPBicentralizer("s", 2.0)
    f = complex_matrix(rng, 5)
    assert np.allclose(evaluate(Localized(spec, np.zeros((5, 5))), f), 0.0)


def test_localize_rejects_non_projection(rng):
    spec = zero_spec()
    with pytest.raises(InputError):
        evaluate(Localized(spec, complex_matrix(rng, 4)), complex_matrix(rng, 4))
    with pytest.raises(InputError):
        validate_projection(np.diag([1.0, 0.5]))


@pytest.mark.parametrize("e", [[[1.0, 1.0], [0.0, 1.0]], np.diag([1.0, 0.5])],
                         ids=["not-hermitian", "not-idempotent"])
def test_localized_refuses_non_projection_at_construction(e):
    # as kp_bicentralizer checks its index: the spec is refused when made,
    # from a document too, not at its first evaluation
    with pytest.raises(InputError, match="projection"):
        Localized(zero_spec(), np.asarray(e, dtype=complex))
    with pytest.raises(InputError, match="projection"):
        spec_from_doc({"kind": "localized", "inner": spec_to_doc(zero_spec()),
                       "e": mat_to_json(np.asarray(e, dtype=complex))})


def test_localize_triviality_bound(rng):
    # |spec(f e) - f spec(e)|_q <= measured L * rk(e)^(1/p), on samples
    n, p = 6, 2.0
    spec = KPBicentralizer("s", p)
    e = np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)
    sampler = Sampler(seed=SEED, dim=n, p=p)
    measured_l = estimate_constant(spec, "L", sampler, 1000, p=p, q=p).value
    worst = 0.0
    for i in range(300):
        f = sampler.unit_sphere(i)
        defect = evaluate(Localized(spec, e), f) - f @ evaluate(spec, e)
        worst = max(worst, schatten_norm(defect, p) / schatten_norm(f, p))
    assert math.isfinite(worst)
    assert worst <= measured_l * 2.0 ** (1.0 / p) + 1e-6


# --- spec algebra, homogeneity, signature ------------------------------------


def test_spec_homogeneity(rng):
    specs = [
        KPBicentralizer("s", 1.0),
        LiftedQuasilinear(KPOnH("s"), p=1.0, q=2.0),
        Lowered(KPBicentralizer("s", 2.0), s=2.0),
        RightMultiplication(complex_matrix(rng, 6)),
        Scaled(KPBicentralizer("t", 2.0), c=1.5 - 0.5j),
        SumSpec((KPBicentralizer("s", 2.0),
                 RightMultiplication(complex_matrix(rng, 6)))),
    ]
    for spec in specs:
        for _ in range(5):
            f = gapped_matrix(rng, 6)
            lam = complex(rng.standard_normal(), rng.standard_normal())
            lhs = evaluate(spec, lam * f)
            rhs = lam * evaluate(spec, f)
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-11 * scale


def test_signature_combinations():
    assert KPBicentralizer("s", 0.5).signature() == (0.5, 0.5)
    assert LiftedQuasilinear(KPOnH("s"), p=1.0, q=2.0).signature() == (1.0, 2.0)
    p1, q1 = Lowered(KPBicentralizer("s", 2.0), s=2.0).signature()
    assert p1 == pytest.approx(1.0) and q1 == pytest.approx(1.0)
    assert RightMultiplication(np.eye(2)).signature() == (None, None)
    assert zero_spec().signature() == (None, None)


def test_sum_and_scaled_evaluation(rng):
    f = complex_matrix(rng, 5)
    g = complex_matrix(rng, 5)
    spec = SumSpec((RightMultiplication(g), Scaled(RightMultiplication(g), -1.0)))
    assert np.allclose(evaluate(spec, f), 0.0, atol=1e-14)
    assert np.allclose(evaluate(zero_spec(), f), 0.0)


def test_centralizer_constants_stable_across_dims():
    # the recorded L constant may wander but not grow by more than 2x
    # between n = 4 and n = 16
    values = {}
    for n in (4, 8, 16):
        sampler = Sampler(seed=SEED, dim=n, p=2.0)
        values[n] = estimate_constant(KPBicentralizer("s", 2.0), "L", sampler,
                                      400, p=2.0, q=2.0).value
    print("L constants by dim:", {k: round(v, 4) for k, v in values.items()})
    assert values[16] <= 2.0 * values[4]
    assert all(math.isfinite(v) and v > 0 for v in values.values())


def test_rank_one_value_constant_recorded(rng):
    # sup |spec(x (x) y)|_q / (|x| |y|) stays finite; for the weighted
    # expansion map the rank-one values vanish outright
    lift = LiftedQuasilinear(KPOnH("s"), p=1.0, q=2.0)
    worst = 0.0
    for _ in range(100):
        x = complex_vector(rng, 8)
        y = complex_vector(rng, 8)
        value = schatten_norm(evaluate(lift, rank_one(x, y)), 2.0)
        worst = max(worst, value / (np.linalg.norm(x) * np.linalg.norm(y)))
    print("rank-one value constant:", round(worst, 4))
    assert math.isfinite(worst) and worst > 0


def test_frame_ambiguity_flag(rng):
    from schatlab.centralizers import frame_ambiguous

    assert frame_ambiguous(np.eye(4))  # fully degenerate spectrum
    assert not frame_ambiguous(gapped_matrix(rng, 4))


def test_estimate_witness_carries_frame_flag():
    rep = estimate_constant(KPBicentralizer("s", 2.0), "L",
                            Sampler(seed=SEED, dim=5, p=2.0), 20)
    assert rep.witness["frame_ambiguous"] in (False, True)


# --- quasilinear vector maps -------------------------------------------------


def test_qmap_sum_and_scaled(rng):
    y = complex_vector(rng, 6)
    L = complex_matrix(rng, 6)
    m = SumMap((ScaledMap(LinearMap(L), 2.0), KPOnH("s")))
    expected = 2.0 * (L @ y) + apply_qmap(KPOnH("s"), y)
    assert np.allclose(apply_qmap(m, y), expected, atol=1e-12)


def test_qmap_homogeneity(rng):
    y = complex_vector(rng, 8)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    for m in (KPOnH("s"), KPOnH("min_s_1")):
        lhs = apply_qmap(m, lam * y)
        rhs = lam * apply_qmap(m, y)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(rhs).max())


# --- serialization -----------------------------------------------------------


def test_spec_document_round_trip(rng):
    spec = SumSpec((
        KPBicentralizer("s", 0.5),
        Scaled(LiftedQuasilinear(SumMap((KPOnH("t"),
                                         ScaledMap(LinearMap(complex_matrix(rng, 3)), 0.5j))),
                                 p=1.0, q=2.0), c=2.0 + 1.0j),
        Lowered(KPBicentralizer("s", 2.0), s=4.0, p_inner=2.0),
        Localized(RightMultiplication(complex_matrix(rng, 3)),
                  e=np.diag([1.0, 0.0, 0.0]).astype(complex)),
    ))
    doc = spec_to_doc(spec)
    again = spec_from_doc(doc)
    assert spec_to_doc(again) == doc
    assert spec_hash(again) == spec_hash(spec)
    f = complex_matrix(rng, 3)
    assert np.allclose(evaluate(spec, f), evaluate(again, f), atol=1e-13)


def test_spec_hash_distinguishes(rng):
    a = KPBicentralizer("s", 1.0)
    b = KPBicentralizer("s", 2.0)
    assert spec_hash(a) != spec_hash(b)
    assert spec_hash(a) == spec_hash(KPBicentralizer("s", 1.0))


def test_spec_from_doc_unknown_kind():
    with pytest.raises(InputError):
        spec_from_doc({"kind": "nope"})


def test_registered_constructor_extension(monkeypatch, tmp_path, capsys):
    # a user kind is a spec subclass with a kind, its fields decoded as the built-ins' are
    from schatlab.cli import main

    monkeypatch.setattr(CentralizerSpec, "kinds", dict(CentralizerSpec.kinds))

    @dataclass(frozen=True, eq=False)
    class DoubleRight(CentralizerSpec):
        """Right multiplication by twice the identity of C^n."""

        kind = "double_right"
        n: int

        def evaluate(self, f, tol):
            return evaluate(Scaled(RightMultiplication(np.eye(self.n)), 2.0), f, tol)

    spec = spec_from_doc({"kind": "double_right", "n": 3.0})
    assert isinstance(spec, DoubleRight) and spec_to_doc(spec) == {"kind": "double_right", "n": 3}
    assert np.allclose(evaluate(spec, np.eye(3)), 2.0 * np.eye(3))
    for doc, field in (({}, "n"), ({"n": 2.5}, "n"), ({"n": True}, "n"), ({"n": 3, "m": 1}, "m")):
        with pytest.raises(InputError) as info:
            spec_from_doc({"kind": "double_right", **doc})
        assert info.value.diagnostics["field"] == field
    # a document lacking a field fails validation structured, not with a traceback
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"experiment": "constants", "spec": {"kind": "double_right"},
                                  "dims": [3], "p": 2.0, "q": 2.0, "kinds": ["Q"], "seed": 1}))
    assert main(["validate", str(config)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "config" and err["field"] == "spec" and "'n'" in err["message"]


def test_qmap_document_round_trip(rng):
    m = SumMap((KPOnH("s"), ScaledMap(LinearMap(complex_matrix(rng, 4)), 1.0 - 2.0j)))
    doc = qmap_to_doc(m)
    again = qmap_from_doc(doc)
    assert qmap_to_doc(again) == doc
    y = complex_vector(rng, 4)
    assert np.allclose(apply_qmap(m, y), apply_qmap(again, y), atol=1e-13)
