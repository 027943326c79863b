import math

import numpy as np
import pytest

from schatlab.centralizers import (
    KPBicentralizer,
    KPOnH,
    LiftedQuasilinear,
    RightMultiplication,
    apply_qmap,
    evaluate,
    zero_spec,
)
from schatlab.experiments import ConfigError
from schatlab.matcore import InputError, schatten_norm
from schatlab.metrology import (
    STREAM_PRIMARY,
    STREAM_SECONDARY,
    Sampler,
    estimate_constant,
    reevaluate_witness,
)
from schatlab.seqcore import lp_norm
from schatlab.twisted import (
    TwistedVec,
    _draw_pairs,
    quasinorm_modulus_probe,
    twisted_quasinorm,
    twisted_target,
)
from conftest import SEED, complex_matrix, complex_vector, splitting_rows


# --- twisted_quasinorm -------------------------------------------------------


def test_quasinorm_zero_spec_splits(rng):
    g = complex_matrix(rng, 4)
    f = complex_matrix(rng, 4)
    value = twisted_quasinorm(TwistedVec(g=g, f=f), zero_spec(), 2.0, 2.0)
    assert value == pytest.approx(schatten_norm(g, 2.0) + schatten_norm(f, 2.0))


def test_quasinorm_graph_vector_costs_only_f(rng):
    spec = KPBicentralizer("s", 2.0)
    f = complex_matrix(rng, 4)
    v = TwistedVec(g=evaluate(spec, f), f=f)
    assert twisted_quasinorm(v, spec, 2.0, 2.0) == pytest.approx(
        schatten_norm(f, 2.0), rel=1e-12)


def test_quasinorm_vector_graph_case(rng):
    qm = KPOnH("s")
    y = complex_vector(rng, 8)
    v = TwistedVec(g=apply_qmap(qm, y), f=y)
    assert twisted_quasinorm(v, qm, 2.0, 2.0) == pytest.approx(
        float(np.linalg.norm(y)), rel=1e-12)


def test_quasinorm_zero_iff_zero(rng):
    spec = KPBicentralizer("s", 2.0)
    zero = TwistedVec(g=np.zeros((3, 3)), f=np.zeros((3, 3)))
    assert twisted_quasinorm(zero, spec, 2.0, 2.0) == 0.0
    v = TwistedVec(g=complex_matrix(rng, 3), f=np.zeros((3, 3)))
    assert twisted_quasinorm(v, spec, 2.0, 2.0) > 0.0


def test_quasinorm_slot_mismatch():
    with pytest.raises(InputError):
        TwistedVec(g=np.zeros((2, 2)), f=np.zeros((3, 3)))
    with pytest.raises(InputError):
        twisted_quasinorm(TwistedVec(g=np.zeros(3), f=np.zeros(3)),
                          zero_spec(), 2.0, 2.0)


def test_inclusion_is_isometric(rng):
    spec = KPBicentralizer("s", 2.0)
    for _ in range(10):
        g = complex_matrix(rng, 4)
        v = TwistedVec(g=g, f=np.zeros((4, 4)))
        assert twisted_quasinorm(v, spec, 2.0, 2.0) == pytest.approx(
            schatten_norm(g, 2.0), rel=1e-12)


def test_projection_onto_unit_ball(rng):
    # every unit f lifts to a pair of quasinorm exactly 1
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=SEED, dim=4, p=2.0)
    for i in range(10):
        f = sampler.unit_sphere(i)
        v = TwistedVec(g=evaluate(spec, f), f=f)
        assert twisted_quasinorm(v, spec, 2.0, 2.0) == pytest.approx(1.0, rel=1e-10)


def test_quasinorm_homogeneous(rng):
    spec = KPBicentralizer("s", 2.0)
    g = complex_matrix(rng, 4)
    f = complex_matrix(rng, 4)
    lam = complex(rng.standard_normal(), rng.standard_normal())
    a = twisted_quasinorm(TwistedVec(g=lam * g, f=lam * f), spec, 2.0, 2.0)
    b = abs(lam) * twisted_quasinorm(TwistedVec(g=g, f=f), spec, 2.0, 2.0)
    assert a == pytest.approx(b, rel=1e-10)


# --- concavity two-point oracle ----------------------------------------------


def test_half_index_two_point_concavity_oracle():
    # |e1 + e2|_{1/2} = 4 while each summand has quasinorm 1
    from schatlab.centralizers import SumMap

    e1 = np.zeros(4, dtype=complex)
    e2 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    e2[1] = 1.0
    zero_map = SumMap(())
    u = TwistedVec(g=np.zeros(4, dtype=complex), f=e1)
    v = TwistedVec(g=np.zeros(4, dtype=complex), f=e2)
    both = TwistedVec(g=np.zeros(4, dtype=complex), f=e1 + e2)
    num = twisted_quasinorm(both, zero_map, 2.0, 0.5)
    den = (twisted_quasinorm(u, zero_map, 2.0, 0.5)
           + twisted_quasinorm(v, zero_map, 2.0, 0.5))
    assert num / den == pytest.approx(2.0, rel=1e-12)  # the 1/2-index modulus


# --- modulus probe -----------------------------------------------------------


def test_modulus_probe_norm_case():
    rep = quasinorm_modulus_probe(zero_spec(), pY=2.0, pX=2.0, dim=4,
                                  seed=SEED, n_samples=60)
    assert rep.value <= 1.0 + 1e-10
    assert abs(reevaluate_witness(rep) - rep.witness["ratio"]) <= 1e-12


def test_modulus_probe_vector_z2_recorded():
    qm = KPOnH("s")
    values = {}
    for n in (8, 16):
        rep = quasinorm_modulus_probe(qm, pY=2.0, pX=2.0, dim=n, seed=SEED,
                                      n_samples=200)
        values[n] = rep.value
        assert 0.5 <= rep.value <= 3.0  # normable space: modest modulus
    print("twisted Hilbert modulus probe:", values)
    assert max(values.values()) <= 1.5 * min(values.values())


def test_modulus_probe_degenerate_index():
    from schatlab.centralizers import SumMap

    rep = quasinorm_modulus_probe(SumMap(()), pY=2.0, pX=0.5, dim=6,
                                  seed=SEED, n_samples=150)
    assert 1.0 < rep.value <= 2.0 + 1e-9  # between norm case and the 1/2 modulus


def test_modulus_probe_needs_two_samples():
    with pytest.raises(InputError):
        quasinorm_modulus_probe(zero_spec(), 2.0, 2.0, dim=3, seed=1, n_samples=1)


def _looped_modulus(mapping, pY, pX, dim, seed, n_samples, slot):
    """Oracle: the probe's maximum, one scalar quasinorm per pair."""
    sampler = Sampler(seed=seed, dim=dim, p=2.0, tag="sparse")

    def norm(pair):
        return twisted_quasinorm(TwistedVec(g=pair[0], f=pair[1]), mapping, pY, pX)

    best, best_index = -math.inf, None
    for i in range(n_samples):
        u, v = (_draw_pairs(sampler, slot, [i], stream)[0]
                for stream in (STREAM_PRIMARY, STREAM_SECONDARY))
        ratio = norm(u + v) / (norm(u) + norm(v))
        if ratio > best:
            best, best_index = ratio, i
    return best, best_index


# (slot, map, dim, sample counts): each count crosses a chunk edge, 28
# pairs per chunk for n = 6 matrices and 128 for n = 8 vectors
_MODULUS_CASES = {
    "kp_bicentralizer": ("mat", KPBicentralizer("s", 2.0), 6, (30,)),
    "lifted_quasilinear": ("mat", LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0), 6, (30,)),
    **{f"kp_on_h_{phi}": ("vec", KPOnH(phi), 8, (129, 257))
       for phi in ("s", "t", "min_s_1")},
}


@pytest.mark.parametrize("case", _MODULUS_CASES)
@pytest.mark.parametrize("pY, pX", [(2.0, 2.0), (1.0, 3.0), (0.5, 0.7), (math.inf, 2.0)])
def test_stacked_modulus_matches_scalar_quasinorm_loop(small_chunks, case, pY, pX):
    slot, mapping, dim, counts = _MODULUS_CASES[case]
    for n_samples in counts:
        rep = quasinorm_modulus_probe(mapping, pY, pX, dim=dim, seed=SEED,
                                      n_samples=n_samples)
        assert (rep.value, rep.witness["index"]) == _looped_modulus(
            mapping, pY, pX, dim, SEED, n_samples, slot), n_samples


@pytest.mark.parametrize("slot, mapping", [("mat", KPBicentralizer("s", 2.0)),
                                           ("vec", KPOnH("s"))])
def test_modulus_probe_makes_no_scalar_quasinorm_call(monkeypatch, slot, mapping):
    import schatlab.twisted as twisted

    def scalar(*args, **kwargs):
        raise AssertionError("the probe scored a pair alone")

    monkeypatch.setattr(twisted, "twisted_quasinorm", scalar)
    rep = quasinorm_modulus_probe(mapping, 2.0, 2.0, dim=6, seed=SEED, n_samples=40)
    assert rep.value > 0.0


# --- splitting distance ------------------------------------------------------


def test_splitting_trivial_spec_flat():
    # the matrix is drawn per dimension, so each dimension is its own experiment
    rows = [row for d in (4, 8) for row in splitting_rows(
        RightMultiplication(complex_matrix(np.random.default_rng(d), d)), [d],
        seed=3, samples=24, p=2.0, q=2.0)]
    assert all(r["residual"] <= 1e-8 for r in rows)
    assert [r["dim"] for r in rows] == [4, 8]
    assert all(set(r) == {"dim", "residual", "seed", "spec-hash"} for r in rows)


def test_splitting_bounded_phi_controlled():
    rows = splitting_rows(KPBicentralizer("min_s_1", 2.0), [8, 16], seed=SEED, samples=60,
                          p=2.0, q=2.0)
    assert all(r["residual"] <= 1.0 + 1e-6 for r in rows)


def test_splitting_lift_grows_with_dimension():
    lift = LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0)
    rows = splitting_rows(lift, [8, 32], seed=1, samples=40, p=1.0, q=1.0,
                          side="right", tag="sparse")
    assert rows[1]["residual"] >= 1.2 * rows[0]["residual"]


def test_splitting_normalized_residual_flat_in_lowerable_zone():
    # measured into a smaller output index the raw residual scales with
    # the norm gap, but dividing by the measured one-sided constant at the
    # same indices gives a dimension-stable quantity
    spec = KPBicentralizer("s", 1.0)
    rows = splitting_rows(spec, [8, 32], seed=SEED, samples=32, p=1.0, q=0.5)
    ratios = []
    for row in rows:
        sampler = Sampler(seed=SEED, dim=row["dim"], p=1.0)
        level = estimate_constant(spec, "L", sampler, 200, p=1.0, q=0.5).value
        ratios.append(row["residual"] / level)
    assert max(ratios) <= 1.5 * min(ratios)


def test_splitting_validates_dims():
    with pytest.raises(ConfigError) as info:
        splitting_rows(KPBicentralizer("s", 2.0), [8, 4], seed=1, samples=4, p=2.0, q=2.0)
    assert info.value.field_name == "dims"


# --- gamma target ------------------------------------------------------------


def test_twisted_target_rows_match_quasinorm(rng):
    qm = KPOnH("s")
    target = twisted_target(qm, 2.0, 2.0)
    wy = np.vstack([complex_vector(rng, 6) for _ in range(4)])
    wx = np.vstack([complex_vector(rng, 6) for _ in range(4)])
    rows = target.rows(wy, wx)
    for i in range(4):
        direct = twisted_quasinorm(TwistedVec(g=wy[i], f=wx[i]), qm, 2.0, 2.0)
        assert rows[i] == pytest.approx(direct, rel=1e-12)


def test_twisted_target_lp_rows(rng):
    target = twisted_target(KPOnH("s"), 1.0, 0.5)
    wy = np.vstack([complex_vector(rng, 5) for _ in range(3)])
    wx = np.vstack([complex_vector(rng, 5) for _ in range(3)])
    rows = target.rows(wy, wx)
    for i in range(3):
        d = wy[i] - apply_qmap(KPOnH("s"), wx[i])
        assert rows[i] == pytest.approx(lp_norm(d, 1.0) + lp_norm(wx[i], 0.5),
                                        rel=1e-12)
