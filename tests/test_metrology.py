import json
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from schatlab.centralizers import (
    KPBicentralizer,
    KPOnH,
    LiftedQuasilinear,
    LinearMap,
    Localized,
    Lowered,
    RightMultiplication,
    Scaled,
    SumMap,
    SumSpec,
    evaluate,
)
from schatlab.experiments import parse_config, run_experiment
from schatlab.matcore import (DEFAULT_TOL, InputError, NumericError, as_matrix, mat_to_json,
                              rank_one, schatten_norm, schmidt, schmidt_from_factors,
                              vec_to_json)
from schatlab.metrology import (
    STREAM_LEFT,
    STREAM_PRIMARY,
    STREAM_RIGHT,
    STREAM_SECONDARY,
    EstimateReport,
    Sampler,
    TwistedTable,
    distance_estimate,
    estimate_constant,
    estimate_constants,
    fit_morphism,
    gamma_summing_mc,
    reevaluate_witness,
)
import schatlab.metrology as metrology
from schatlab.metrology import _norm, _pcg64_generators, dyadic_supports
from schatlab.twisted import _draw_pairs, quasinorm_modulus_probe
from conftest import SEED, complex_matrix, haar_unitary


# --- Sampler -----------------------------------------------------------------


def test_sampler_deterministic_streams():
    a = Sampler(seed=5, dim=4, p=2.0)
    b = Sampler(seed=5, dim=4, p=2.0)
    assert np.array_equal(a.unit_sphere(3), b.unit_sphere(3))
    assert not np.array_equal(a.unit_sphere(3), a.unit_sphere(4))
    assert not np.array_equal(a.unit_sphere(3, STREAM_PRIMARY),
                              a.unit_sphere(3, STREAM_SECONDARY))
    assert not np.array_equal(a.unit_sphere(3),
                              Sampler(seed=6, dim=4, p=2.0).unit_sphere(3))


@pytest.mark.parametrize("tag", ["ginibre", "haar_spectral", "rank_one", "sparse"])
def test_sampler_tags_produce_unit_sphere(tag):
    s = Sampler(seed=9, dim=8, p=1.0, tag=tag)
    for i in range(5):
        m = s.unit_sphere(i)
        assert m.shape == (8, 8)
        assert schatten_norm(m, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_sampler_contraction_is_operator_ball():
    s = Sampler(seed=2, dim=6, p=2.0)
    for i in range(10):
        a = s.contraction(i, STREAM_LEFT)
        assert schatten_norm(a, math.inf) <= 1.0 + 1e-12


def test_sampler_rejects_bad_arguments():
    with pytest.raises(InputError):
        Sampler(seed=-1, dim=4, p=2.0)
    with pytest.raises(InputError):
        Sampler(seed=0, dim=4, p=2.0, tag="cauchy")
    with pytest.raises(InputError):
        Sampler(seed=0, dim=4, p=True)
    with pytest.raises(InputError):
        Sampler(seed=0, dim=4, p=2.0, min_norm=True)


def test_unreachable_min_norm_is_refused_one_sample_at_a_time(monkeypatch):
    # each low sample is redrawn alone, so the first that never reaches
    # min_norm is refused after its own MAX_REDRAWS draws, not after as many
    # rounds over every low sample (256 + 256,000 draws)
    drawn = []
    draw = Sampler._draw

    def counted(self, rngs, factored=False):
        drawn.append(len(rngs))
        return draw(self, rngs, factored)

    monkeypatch.setattr(Sampler, "_draw", counted)
    sampler = Sampler(seed=1, dim=4, p=2.0, tag="rank_one", min_norm=1e30)
    with pytest.raises(InputError, match="after 1000 redraws") as info:
        sampler.unit_sphere(range(256))
    assert info.value.diagnostics["sample_index"] == 0
    assert sum(drawn) <= 256 + metrology.MAX_REDRAWS


@pytest.mark.parametrize("seed, dim", [(1.5, 4), (True, 4), (-1, 4), (1, True), (1, 2.5),
                                       (1, 0), (1, 2**70), (1, "x")])
def test_sampler_decodes_seed_and_dim_as_documents_do(seed, dim):
    with pytest.raises(InputError):
        Sampler(seed=seed, dim=dim, p=2.0)
    sampler = Sampler(seed="3", dim=4.0, p=2.0)
    assert (sampler.seed, sampler.dim) == (3, 4) and type(sampler.dim) is int
    assert np.array_equal(sampler.unit_sphere(0), Sampler(seed=3, dim=4, p=2.0).unit_sphere(0))


# one chunk mixing one-, two- and three-word indices
_PINNED_INDICES = (2**40, *range(1500), 2**64 + 1, 2**32, *range(1500, 3000), 2**32 - 1)


# 2**130 + 7 has more 32-bit words than SeedSequence's 4-word pool, and the
# stream 2**33 two words, so both branches of the pool's hash step count show
@pytest.mark.parametrize("seed", [0, 1, SEED, 2**32, 2**64 + 7, 2**130 + 7])
def test_generator_pinned_to_numpy_seed_sequence(seed):
    for stream in (*range(5), 2**33):
        ours, numpy_draws = [], []
        for i, mine in zip(_PINNED_INDICES, _pcg64_generators(seed, stream, _PINNED_INDICES)):
            ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, i)))
            assert mine.bit_generator.state == ref.bit_generator.state, (stream, i)
            ours.append(mine.random(2))
            numpy_draws.append(ref.random(2))
        assert np.array_equal(ours, numpy_draws)
    # the one-index case
    sampler = Sampler(seed=seed, dim=2, p=2.0)
    for i in (0, 2**32, 2**64 + 1):
        ref = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(3, i)))
        assert sampler.generators(3, [i])[0].bit_generator.state == ref.bit_generator.state


def test_generator_rejects_negative_keys():
    sampler = Sampler(seed=3, dim=2, p=2.0)
    for stream, index in ((-1, 0), (0, -1), (-(2**40), 2)):
        with pytest.raises(ValueError):
            np.random.SeedSequence(3, spawn_key=(stream, index))
        with pytest.raises(InputError):
            sampler.generators(stream, [index])[0]
    with pytest.raises(InputError):
        _pcg64_generators(3, 0, [0, 5, -1, 2**40])


def _lone_draw(seed, stream, i, n, tag):
    """A sample drawn alone from numpy's own generator of its key."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, i)))
    if tag == "ginibre":
        return complex_matrix(rng, n)
    u, v = haar_unitary(rng, n), haar_unitary(rng, n)
    return (u * rng.uniform(0.0, 1.0, n)) @ v.conj().T


def _lone_dyadic_draw(rng, n, what):
    """Oracle: a ``rank_one`` or ``sparse`` matrix, or the modulus probe's
    sparse vector, drawn alone, each step spelled out in draw order."""
    if what == "rank_one":
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    k = min(1 << int(rng.integers(0, n.bit_length())), n)
    if what == "rank_one":
        support = rng.permutation(n)[:k]
        y = np.zeros(n, dtype=np.complex128)
        y[support] = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        return np.outer(y, x.conj())
    if what == "sparse":
        rows, cols = rng.permutation(n)[:k], rng.permutation(n)[:k]
        z = np.zeros((n, n), dtype=np.complex128)
        z[np.ix_(rows, cols)] = complex_matrix(rng, k)
        return z
    support = rng.permutation(n)[:k]
    z = rng.standard_normal((k, 2))
    out = np.zeros(n, dtype=np.complex128)
    out[support] = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0)
    return out


@pytest.mark.parametrize("n", [1, 5, 8, 32])
def test_dyadic_support_draws_match_lone_oracle(n):
    indices = range(40)

    def rng_of(stream, i):
        return np.random.default_rng(np.random.SeedSequence(SEED, spawn_key=(stream, i)))

    for tag in ("rank_one", "sparse"):
        sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
        stack = sampler._draw(sampler.generators(STREAM_SECONDARY, indices))[0]
        for i in indices:
            lone = _lone_dyadic_draw(rng_of(STREAM_SECONDARY, i), n, tag)
            assert np.array_equal(stack[i], lone), (tag, i)
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag="sparse")
    for slot, what in (("mat", "sparse"), ("vec", "vector")):
        pairs = _draw_pairs(sampler, slot, indices, STREAM_PRIMARY)
        assert pairs.shape[:2] == (len(indices), 2)
        for i in indices:
            rng = rng_of(STREAM_PRIMARY, i)
            g, f = (_lone_dyadic_draw(rng, n, what) for _ in "gf")
            assert np.array_equal(pairs[i, 0], g) and np.array_equal(pairs[i, 1], f), (slot, i)


@pytest.mark.parametrize("tag", ["ginibre", "haar_spectral"])
def test_stacked_fills_match_lone_draws(tag):
    sampler = Sampler(seed=SEED, dim=5, p=2.0, tag=tag)
    indices = range(37)
    stack = sampler._draw(sampler.generators(STREAM_SECONDARY, indices))[0]
    contractions = sampler.contraction(indices, STREAM_RIGHT)
    for i in indices:
        lone = _lone_draw(SEED, STREAM_SECONDARY, i, 5, tag)
        assert np.array_equal(stack[i], lone) and np.array_equal(
            sampler._draw(sampler.generators(STREAM_SECONDARY, [i]))[0][0], lone), i
        lone = _lone_draw(SEED, STREAM_RIGHT, i, 5, "haar_spectral")
        assert np.array_equal(contractions[i], lone) and np.array_equal(
            sampler.contraction(i, STREAM_RIGHT), lone), i


def test_gaussian_block_prefix_stable():
    s = Sampler(seed=4, dim=4, p=2.0)
    short = next(s.gaussian_rows(10, 4, 10))
    long = next(s.gaussian_rows(25, 4, 25))
    assert np.array_equal(long[:10], short)
    # unit second moment per coordinate
    big = next(s.gaussian_rows(20000, 4, 20000))
    assert np.abs(big).mean() == pytest.approx(math.sqrt(math.pi) / 2.0, abs=0.01)


@pytest.mark.parametrize("rows", [1, 7, 25, 40])
def test_gaussian_rows_concatenate_to_the_block(rows):
    s = Sampler(seed=4, dim=4, p=2.0)
    pieces = list(s.gaussian_rows(25, 3, rows))
    assert [len(piece) for piece in pieces[:-1]] == [rows] * (len(pieces) - 1)
    assert np.array_equal(np.concatenate(pieces), next(s.gaussian_rows(25, 3, 25)))


def _first_draw(tag, i):
    """The first draw of sample i, before any redraw, on the primary stream."""
    sampler = Sampler(seed=2, dim=5, p=2.0, tag=tag)
    return sampler._draw(sampler.generators(STREAM_PRIMARY, [i]))[0][0]


@pytest.mark.parametrize("tag", ["ginibre", "haar_spectral", "rank_one", "sparse"])
def test_chunked_unit_sphere_matches_lone_draws(monkeypatch, tag):
    # 7 samples per fill: 30 samples cross four chunk edges, the last chunk
    # ragged; a threshold at the median norm of first draws redraws about half
    monkeypatch.setattr(metrology, "CHUNK_ENTRIES", 7 * 5**2)
    first = Sampler(seed=2, dim=5, p=2.0, tag=tag).unit_sphere(range(30))
    raw = np.array([schatten_norm(_first_draw(tag, i), 2.0)
                    for i in range(30)])
    sampler = Sampler(seed=2, dim=5, p=2.0, tag=tag, min_norm=float(np.median(raw)))
    redrawn = raw < sampler.min_norm
    assert len({i // 7 for i in np.flatnonzero(redrawn)}) >= 3  # redraws in three chunks
    stack = sampler.unit_sphere(np.arange(30))
    assert stack.shape == (30, 5, 5)
    assert sampler.unit_sphere([]).shape == (0, 5, 5)
    for i in range(30):
        assert np.array_equal(stack[i], sampler.unit_sphere(i)), i
        assert np.array_equal(stack[i], first[i]) != redrawn[i], i


def test_chunk_terms_are_kept_for_drawn_stacks_only():
    chunk = metrology._Chunk(range(3))
    f = chunk.draw("f", lambda: (np.ones((3, 2, 2)), None))
    g = chunk.draw("g", lambda: (np.zeros((3, 2, 2)), None))
    assert chunk.draw("f", lambda: None) is f
    made = []

    def make():
        made.append(1)
        return len(made)

    assert [chunk.term("t", f, make), chunk.term("t", f, make)] == [1, 1]
    assert chunk.term("t", g, make) == 2 and chunk.term("u", f, make) == 3
    derived = f + g
    assert [chunk.term("t", derived, make), chunk.term("t", derived, make)] == [4, 5]
    assert chunk.term("t", f.copy(), make) == 6


def test_chunk_reads_a_factored_draw_and_lets_its_frames_go():
    sampler = Sampler(seed=SEED, dim=4, p=2.0, tag="haar_spectral")
    chunk = metrology._Chunk(range(3))
    drawn = sampler._unit_sphere(range(3), STREAM_PRIMARY)
    frames = [weakref.ref(drawn[1][0]), weakref.ref(drawn[1][2])]
    f = chunk.draw("f", lambda: drawn)
    g = chunk.draw("g", lambda: (np.zeros((3, 4, 4)), None))
    a = chunk.draw("a", lambda: sampler._contraction(range(3), STREAM_LEFT))
    assert chunk.values(g) is None and chunk.form(g) is None and chunk.form(f + g) is None
    assert np.array_equal(chunk.values(f), drawn[1][1])
    del drawn
    assert [ref() for ref in frames] == [None, None]  # the chunk keeps the form, not the frames
    form = chunk.form(f)
    assert chunk.form(f) is form
    assert np.abs(form.reconstruct() - f).max() <= 1e-14
    # a contraction keeps sigma alone
    assert chunk.form(a) is None
    assert np.array_equal(chunk.values(a), sampler._spectral(
        sampler.generators(STREAM_LEFT, range(3)))[2])


# --- the estimators' norm rule ------------------------------------------------


def _norm_cases():
    rng = np.random.default_rng(SEED)
    low_rank = complex_matrix(rng, 6, 2) @ complex_matrix(rng, 2, 6)
    one = rank_one(complex_matrix(rng, 1, 5)[0], complex_matrix(rng, 1, 5)[0])
    return {
        "square": complex_matrix(rng, 6),
        "wide": complex_matrix(rng, 3, 7),
        "tall": complex_matrix(rng, 7, 3),
        "stack": np.stack([complex_matrix(rng, 5, 3) for _ in range(4)]),
        "zero": np.zeros((5, 5), dtype=complex),
        "rank_deficient": low_rank,
        "rank_one": one,
        "huge": 1e150 * complex_matrix(rng, 4),
        "tiny": 1e-150 * complex_matrix(rng, 4),
    }


@pytest.mark.parametrize("case", sorted(_norm_cases()))
def test_hilbert_schmidt_norm_matches_svd_oracle(case):
    m = _norm_cases()[case]
    got, want = _norm(m, 2.0), schatten_norm(m, 2.0)
    assert np.shape(got) == np.shape(want)
    assert np.all(np.abs(np.subtract(got, want)) <= 1e-12 * np.abs(want))


def test_hilbert_schmidt_norm_edges_match_svd_oracle():
    # both routes square their inputs: 1e200 overflows, 1e-200 underflows
    for scale, edge in ((1e200, math.inf), (1e-200, 0.0)):
        m = scale * np.ones((3, 3), dtype=complex)
        with np.errstate(over="ignore"):
            assert _norm(m, 2.0) == schatten_norm(m, 2.0) == edge
    empty = _norm(np.zeros((0, 4, 4), dtype=complex), 2.0)
    assert empty.shape == (0,)
    assert _norm(np.zeros((2, 0, 0), dtype=complex), 2.0).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("p", [0.5, 1.0, math.inf])
def test_norm_rule_is_schatten_norm_off_two(p):
    for case, m in _norm_cases().items():
        assert np.array_equal(_norm(m, p), schatten_norm(m, p)), case


def _counted_svd(monkeypatch, frame_checks=True):
    """The matrices each ``np.linalg.svd`` call is handed, one list a call;
    without ``frame_checks`` the reports' frame checks are stubbed out."""
    calls = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        calls.append(np.reshape(a, (-1,) + np.shape(a)[-2:]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    if not frame_checks:
        monkeypatch.setattr(metrology, "frame_ambiguous", lambda f, tol: False)
    return calls


@pytest.mark.parametrize("n", [4, 8])
def test_shared_pass_takes_no_svd_for_s2_norms(monkeypatch, n):
    # per chunk at p = 2: one SVD per spec evaluation (f + g, f, g, a f,
    # f a, a f b), none for an S^2 norm and none for an operator norm
    # (|a|_inf, |b|_inf come from the draw); then one frame check per report
    calls = _counted_svd(monkeypatch)
    step = metrology.CHUNK_ENTRIES // n**2
    estimate_constants(KPBicentralizer("s", 2.0), list(KINDS),
                       Sampler(seed=SEED, dim=n, p=2.0, tag="ginibre"), step + 1)
    assert len(calls) == 6 * 2 + len(KINDS)


def test_shared_pass_factors_each_sample_once_off_two(monkeypatch):
    # a Q chunk at p = 1 on ginibre: one SVD of each draw of f and g, whose
    # forms and values serve their evaluations and norms, one of f + g and
    # one for the defect's S^1 norm; then one frame check for the report
    calls = _counted_svd(monkeypatch)
    n = 4
    step = metrology.CHUNK_ENTRIES // n**2
    estimate_constant(KPBicentralizer("s", 1.0), "Q",
                      Sampler(seed=SEED, dim=n, p=1.0, tag="ginibre"), step + 1)
    assert len(calls) == 4 * 2 + 1


def test_sparse_chunks_factor_blocks_not_samples(monkeypatch):
    # every sparse sample is factored on its block alone: no SVD of a chunk
    # is handed a sample, raw or normalized, in the shared pass or the fit
    n, count = 8, 70  # two chunks of 64 samples
    sampler = Sampler(seed=SEED, dim=n, p=1.0, tag="sparse")
    samples = {m.tobytes() for stream in (STREAM_PRIMARY, STREAM_SECONDARY)
               for m in (*sampler.unit_sphere(range(count), stream),
                         *sampler._draw(sampler.generators(stream, range(count)))[0])}
    narrow = [(np.abs(m).sum(axis=1) > 0).sum() < n for stream in (STREAM_PRIMARY,
              STREAM_SECONDARY) for m in sampler.unit_sphere(range(count), stream)]
    calls = _counted_svd(monkeypatch, frame_checks=False)
    spec = KPBicentralizer("s", 1.0)
    estimate_constants(spec, list(KINDS), sampler, count)
    fit_morphism(spec, "right", sampler.unit_sphere_chunks(range(count)), q=1.0, p=1.0)
    factored = [m for call in calls for m in call]
    assert len(factored) > 4 * count
    assert not any(m.tobytes() in samples for m in factored)
    # each draw of f (the pass and the fit) and g factors every block narrower than n
    assert sum(len(call) for call in calls if call.shape[-1] < n) == (
        sum(narrow) + sum(narrow[:count]))


# --- estimate_constant -------------------------------------------------------


def test_estimate_right_multiplication_left_constant_vanishes(rng):
    spec = RightMultiplication(complex_matrix(rng, 5))
    rep = estimate_constant(spec, "L", Sampler(seed=1, dim=5, p=2.0), 50,
                            p=2.0, q=2.0)
    assert rep.value <= 1e-12


def test_estimate_linear_lift_is_additive(rng):
    spec = LiftedQuasilinear(LinearMap(complex_matrix(rng, 5)), p=2.0, q=2.0)
    rep = estimate_constant(spec, "Q", Sampler(seed=1, dim=5, p=2.0), 50)
    assert rep.value <= 1e-12


def test_estimate_deterministic_repeat():
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=11, dim=8, p=2.0)
    a = estimate_constant(spec, "L", sampler, 120)
    b = estimate_constant(spec, "L", sampler, 120)
    assert a.value == b.value
    assert a.witness == b.witness
    assert json.dumps(a.to_doc(), sort_keys=True) == json.dumps(b.to_doc(),
                                                                sort_keys=True)


def test_estimate_monotone_in_samples():
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=11, dim=6, p=2.0)
    small = estimate_constant(spec, "Q", sampler, 40)
    large = estimate_constant(spec, "Q", sampler, 80)
    assert large.value >= small.value
    # the shared prefix gives the same witness when the max lives there
    tiny = estimate_constant(spec, "Q", sampler, 40)
    assert tiny.witness["index"] == small.witness["index"]


@pytest.mark.parametrize("kind", ["Q", "L", "R", "B"])
def test_estimate_kinds_finite_and_replayable(kind):
    spec = KPBicentralizer("s", 1.0)
    rep = estimate_constant(spec, kind, Sampler(seed=3, dim=5, p=1.0), 60)
    assert math.isfinite(rep.value) and rep.value > 0
    assert abs(reevaluate_witness(rep) - rep.witness["ratio"]) <= 1e-12
    assert rep.value == rep.witness["ratio"]


def test_estimate_unknown_kind(rng):
    with pytest.raises(InputError):
        estimate_constant(KPBicentralizer("s", 1.0), "X",
                          Sampler(seed=0, dim=4, p=1.0), 10)


def test_estimate_notes_out_of_window_lift():
    inside = LiftedQuasilinear(KPOnH("s"), p=0.5, q=1.0)
    outside = LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0)
    sampler = Sampler(seed=3, dim=4, p=1.0)
    assert "outside" not in estimate_constant(inside, "R", sampler, 5).note
    assert "outside" in estimate_constant(outside, "R", sampler, 5).note


def test_estimate_needs_indices(rng):
    with pytest.raises(InputError):
        estimate_constant(RightMultiplication(complex_matrix(rng, 4)), "L",
                          Sampler(seed=0, dim=4, p=1.0), 10)


def test_report_document_round_trip():
    spec = KPBicentralizer("s", 2.0)
    rep = estimate_constant(spec, "L", Sampler(seed=7, dim=4, p=2.0), 30)
    doc = json.loads(json.dumps(rep.to_doc()))
    again = EstimateReport.from_doc(doc)
    assert again.value == rep.value
    assert abs(reevaluate_witness(again) - again.witness["ratio"]) <= 1e-12


# --- chunked estimation against a per-sample loop -----------------------------

TAGS = ("ginibre", "haar_spectral", "rank_one", "sparse")
KINDS = ("Q", "L", "R", "B")


def _looped_ratio(spec, kind, sampler, i, q, other=None, factored=False):
    """Ratio of sample i written out alone; ``other`` is the second spec of
    a distance.  A matrix drawn as u diag(sigma) v* is evaluated at the
    Schmidt form and normed by the singular values its draw gives (a
    contraction, drawn with sigma alone, only normed), unless ``factored``;
    every other matrix is factored."""
    p = sampler.p
    drawn = {}  # id of each input drawn factored -> (input, its form, its values)

    def draw(method, stream):
        m, factors = getattr(sampler, method)([i], stream)
        m = m[0]
        if factors is not None and not factored:
            u, s, v = (None if x is None else x[0] for x in factors)
            drawn[id(m)] = (m, None if u is None else schmidt_from_factors(u, s, v), s)
        return m

    def ev(spec, m):
        return evaluate(spec, m, DEFAULT_TOL, drawn.get(id(m), (m, None))[1])

    def norm(m, index):
        return _norm(m, index, drawn.get(id(m), (m, None, None))[2])

    if kind == "distance":
        f = draw("_unit_sphere", STREAM_PRIMARY)
        return _norm(ev(spec, f) - ev(other, f), q) / norm(f, p)
    f = draw("_unit_sphere", STREAM_PRIMARY)
    if kind == "Q":
        g = draw("_unit_sphere", STREAM_SECONDARY)
        defect = ev(spec, f + g) - ev(spec, f) - ev(spec, g)
        denom = norm(f, p) + norm(g, p)
    else:
        a = draw("_contraction", STREAM_RIGHT if kind == "R" else STREAM_LEFT)
        denom = norm(a, math.inf) * norm(f, p)
        if kind == "L":
            defect = ev(spec, a @ f) - a @ ev(spec, f)
        elif kind == "R":
            defect = ev(spec, f @ a) - ev(spec, f) @ a
        else:
            b = draw("_contraction", STREAM_RIGHT)
            defect = ev(spec, a @ f @ b) - a @ ev(spec, f) @ b
            denom = denom * norm(b, math.inf)
    return _norm(defect, q) / denom


def _looped_estimate(spec, kind, sampler, n_samples, q, other=None, factored=False):
    """Oracle: the max-over-stream ratio, one sample at a time."""
    best, best_index = -math.inf, None
    for i in range(n_samples):
        ratio = _looped_ratio(spec, kind, sampler, i, q, other, factored)
        if ratio > best:
            best, best_index = ratio, i
    return best, best_index


def _spec_of_kind(kind, n):
    rng = np.random.default_rng(SEED)
    kp = KPBicentralizer("s", 2.0)
    e = np.diag([1.0] * (n - 2) + [0.0, 0.0]).astype(complex)
    return {
        "kp_bicentralizer": kp,
        "lifted_quasilinear": LiftedQuasilinear(
            SumMap((KPOnH("s"), LinearMap(complex_matrix(rng, n)))), p=2.0, q=2.0),
        "lowered": Lowered(kp, s=2.0),
        "localized": Localized(kp, e),
        "right_multiplication": RightMultiplication(complex_matrix(rng, n)),
        "scaled": Scaled(kp, 0.5 - 1.0j),
        "sum": SumSpec((kp, RightMultiplication(complex_matrix(rng, n)))),
    }[kind]


SPEC_KINDS = ("kp_bicentralizer", "lifted_quasilinear", "lowered", "localized",
              "right_multiplication", "scaled", "sum")


@pytest.mark.parametrize("spec_kind", SPEC_KINDS)
@pytest.mark.parametrize("tag", TAGS)
def test_chunked_estimate_matches_per_sample_loop(small_chunks, spec_kind, tag):
    n, n_samples = 6, 40  # chunks of 28, so the stream spans two of them
    spec = _spec_of_kind(spec_kind, n)
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
    exact = spec_kind == "kp_bicentralizer" and tag in ("ginibre", "haar_spectral")
    for kind in KINDS:
        rep = estimate_constant(spec, kind, sampler, n_samples, p=2.0, q=2.0)
        value, index = _looped_estimate(spec, kind, sampler, n_samples, 2.0)
        assert rep.witness["index"] == index, kind
        if exact:
            assert rep.value == value, kind
        else:
            assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-12), kind


@pytest.mark.parametrize("n", [4, 8, 64])
def test_drawn_form_matches_the_factored_oracle(n):
    # each unit-sphere sample drawn factored: its form and norm against
    # schmidt and schatten_norm of the normalized sample
    kp = KPBicentralizer("s", 2.0)
    for tag in TAGS:
        for p in (2.0, 1.0, 0.5):
            m, factors = Sampler(seed=SEED, dim=n, p=p, tag=tag)._unit_sphere(
                range(5), STREAM_PRIMARY)
            if tag in ("ginibre", "rank_one") and p == 2.0:
                assert factors is None  # normed by its entries, factored by evaluate
                continue
            form = schmidt_from_factors(*factors)
            oracle = schmidt(m)
            assert form.shape == oracle.shape and form.rank.tolist() == oracle.rank.tolist()
            assert np.allclose(form.s, oracle.s, rtol=1e-12, atol=0.0), (tag, p)
            assert np.abs(form.reconstruct() - m).max() <= 1e-12 * np.abs(m).max(), (tag, p)
            assert np.array_equal(form.gap < DEFAULT_TOL.gap_rtol,
                                  oracle.gap < DEFAULT_TOL.gap_rtol), (tag, p)
            value = evaluate(kp, m, DEFAULT_TOL, form)
            assert np.abs(value - evaluate(kp, m)).max() <= 1e-12 * np.abs(value).max()
            norms = _norm(m, p, factors[1])
            assert np.allclose(norms, schatten_norm(m, p), rtol=1e-12, atol=0.0), (tag, p)
            assert np.allclose(norms, 1.0, rtol=1e-12, atol=0.0), (tag, p)
    # a contraction keeps sigma alone: its operator norm is max(sigma)
    a, (u, sigma, v) = Sampler(seed=SEED, dim=n, p=2.0)._contraction(range(5), STREAM_LEFT)
    assert u is None and v is None
    assert np.array_equal(_norm(a, math.inf, sigma), sigma.max(axis=1))
    assert np.allclose(sigma.max(axis=1), schatten_norm(a, math.inf), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("n, p", [(4, 2.0), (8, 1.0), (64, 2.0)])
def test_drawn_forms_keep_estimates_on_the_svd_route(n, p):
    # at n = 64 every sample is a chunk of its own
    spec = KPBicentralizer("s", p)
    sampler = Sampler(seed=SEED, dim=n, p=p, tag="haar_spectral")
    n_samples = 3 if n == 64 else 20
    for kind in KINDS:
        rep = estimate_constant(spec, kind, sampler, n_samples)
        value, index = _looped_estimate(spec, kind, sampler, n_samples, p, factored=True)
        assert rep.witness["index"] == index, kind
        assert rep.value == pytest.approx(value, rel=1e-12, abs=0.0), kind


# the second spec of every distance estimate
_OTHER = KPBicentralizer("min_s_1", 2.0)


def _distance(spec, sampler, n_samples):
    return distance_estimate(spec, _OTHER, sampler, n_samples, p=2.0, q=2.0)


@pytest.mark.parametrize("spec_kind", SPEC_KINDS)
@pytest.mark.parametrize("tag", TAGS)
def test_chunked_pair_estimates_match_per_sample_loop(small_chunks, spec_kind, tag):
    n, n_samples = 6, 30  # chunks of 28
    spec = _spec_of_kind(spec_kind, n)
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
    rep = _distance(spec, sampler, n_samples)
    value, i = _looped_estimate(spec, "distance", sampler, n_samples, 2.0, _OTHER)
    assert rep.witness["index"] == i
    if spec_kind == "kp_bicentralizer":
        assert rep.value == value
    else:
        assert rep.value == pytest.approx(value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", [4, 12])
@pytest.mark.parametrize("tag", TAGS)
def test_chunked_pair_estimates_bitwise_across_dims(small_chunks, n, tag):
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
    n_samples = small_chunks // n**2 + 3  # past the first chunk edge
    rep = _distance(spec, sampler, n_samples)
    assert (rep.value, rep.witness["index"]) == _looped_estimate(
        spec, "distance", sampler, n_samples, 2.0, _OTHER)


@pytest.mark.parametrize("kind", KINDS)
def test_chunked_estimate_prefix_stable_across_chunk_edges(small_chunks, kind):
    n = 8
    k = small_chunks // n**2
    spec = KPBicentralizer("s", 1.0)
    sampler = Sampler(seed=5, dim=n, p=1.0, tag="haar_spectral")
    for n_samples in (k - 1, k, k + 1, 2 * k + 1):
        rep = estimate_constant(spec, kind, sampler, n_samples)
        assert (rep.value, rep.witness["index"]) == _looped_estimate(
            spec, kind, sampler, n_samples, 1.0)


def _modulus(kind, dim, seed, n_samples):
    """Report of the probe "modulus_mat" (the KP bicentralizer, indices 2
    and 1) or "modulus_vec" (the KP vector map, indices 2 and 2)."""
    if kind == "modulus_mat":
        return quasinorm_modulus_probe(KPBicentralizer("s", 2.0), pY=2.0, pX=1.0, dim=dim,
                                       seed=seed, n_samples=n_samples)
    return quasinorm_modulus_probe(KPOnH("s"), pY=2.0, pX=2.0, dim=dim, seed=seed,
                                   n_samples=n_samples, slot="vec")


def _stream_report(kind, tag):
    """Report of a kind that ``max_over_stream`` drives, at n = 12 (chunks
    of 7 and 28 samples at 2**10 and 2**12 entries) or, for the vector
    modulus, n = 32 (chunks of 32 and 128)."""
    spec = KPBicentralizer("s", 2.0)
    if kind == "modulus_mat":
        return _modulus(kind, 12, SEED, 30)
    if kind == "modulus_vec":
        return _modulus(kind, 32, SEED, 130)
    sampler = Sampler(seed=SEED, dim=12, p=2.0, tag=tag)
    if kind in KINDS:
        return estimate_constant(spec, kind, sampler, 30)
    return _distance(spec, sampler, 30)


@pytest.mark.parametrize("kind, tag", [
    *((kind, tag) for kind in (*KINDS, "distance") for tag in TAGS),
    ("modulus_mat", "sparse"), ("modulus_vec", "sparse"),
])
def test_reports_invariant_to_chunk_size(monkeypatch, kind, tag):
    docs = []
    for entries in (1, 2**10, 2**12, 2**20):
        monkeypatch.setattr(metrology, "CHUNK_ENTRIES", entries)
        docs.append(_stream_report(kind, tag).to_doc())
    assert all(doc == docs[0] for doc in docs[1:])


@pytest.mark.parametrize("tag", ["rank_one", "sparse"])
def test_stacked_redraws_match_looped_unit_sphere(tag):
    # a threshold at the median norm of first draws redraws about half
    norms = [schatten_norm(_first_draw(tag, i), 2.0)
             for i in range(30)]
    sampler = Sampler(seed=2, dim=5, p=2.0, tag=tag, min_norm=float(np.median(norms)))
    stack = sampler.unit_sphere(range(30))
    looped = [sampler.unit_sphere(i) for i in range(30)]
    assert all(np.array_equal(m, one) for m, one in zip(stack, looped))
    spec = KPBicentralizer("s", 2.0)
    for kind in KINDS:
        rep = estimate_constant(spec, kind, sampler, 30)
        assert (rep.value, rep.witness["index"]) == _looped_estimate(
            spec, kind, sampler, 30, 2.0)


def _factored_at_draw(sampler, i):
    """The matrix that sample i of the primary stream is factored at when
    drawn: a sparse sample's ginibre block, any other sample's draw."""
    rng = sampler.generators(STREAM_PRIMARY, [i])[0]
    if sampler.tag != "sparse":
        return sampler._draw([rng])[0][0]
    rows, _ = dyadic_supports(rng, sampler.dim, 2)
    return complex_matrix(rng, len(rows))


@pytest.mark.parametrize("estimate, tag, p", [
    (lambda spec, sampler: estimate_constant(spec, "L", sampler, 80), "sparse", 2.0),
    (lambda spec, sampler: distance_estimate(spec, spec, sampler, 80), "sparse", 2.0),
    (lambda spec, sampler: estimate_constant(spec, "Q", sampler, 80), "ginibre", 1.0),
], ids=["estimate_constant", "distance_estimate", "ginibre_p1"])
def test_estimate_failure_names_the_sample(monkeypatch, estimate, tag, p):
    # the forced failure hits sample 37 where it is factored, at its draw
    sampler = Sampler(seed=3, dim=4, p=p, tag=tag)
    bad = _factored_at_draw(sampler, 37)
    svd = np.linalg.svd

    def failing_svd(a, *args, **kwargs):
        if np.shape(a)[-2:] == bad.shape and np.all(a == bad, axis=(-2, -1)).any():
            raise np.linalg.LinAlgError("forced failure")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    with pytest.raises(NumericError) as info:
        estimate(KPBicentralizer("s", p), sampler)
    diagnostics = info.value.diagnostics
    assert diagnostics["sample_index"] == 37
    assert (diagnostics["seed"], diagnostics["dim"], diagnostics["tag"]) == (3, 4, tag)


def _poisoned_evaluate(monkeypatch, bad):
    """Make ``evaluate`` non-finite at each matrix of ``bad``, in any stack."""
    evaluate_ = metrology.evaluate

    def poisoned(spec, m, tol, form=None):
        hit = np.zeros(m.shape[:-2], dtype=bool)
        for b in bad:
            hit |= np.all(m == b, axis=(-2, -1))
        return np.where(hit[..., None, None], np.inf, evaluate_(spec, m, tol, form))

    monkeypatch.setattr(metrology, "evaluate", poisoned)


def test_estimate_input_failure_names_the_sample(monkeypatch):
    sampler = Sampler(seed=3, dim=4, p=2.0, tag="sparse")
    _poisoned_evaluate(monkeypatch, [sampler.unit_sphere(37)])  # sample 37's f only
    with pytest.raises(InputError, match="must be finite") as info:
        estimate_constant(KPBicentralizer("s", 2.0), "Q", sampler, 80)
    assert info.value.diagnostics == {"sample_index": 37, "seed": 3, "dim": 4,
                                      "tag": "sparse"}


# --- one shared pass for several kinds ----------------------------------------


@pytest.mark.parametrize("entries", ["small_chunks", 1])
@pytest.mark.parametrize("kinds", ["QLRB", "BRLQ", "LQ", "QQ"])
@pytest.mark.parametrize("tag", TAGS)
def test_shared_pass_matches_kinds_alone(request, monkeypatch, entries, kinds, tag):
    # past the first chunk edge at 2**10 entries (28 samples); at one entry
    # every sample is a chunk of its own
    n_samples = 30
    if entries == "small_chunks":
        request.getfixturevalue("small_chunks")
    else:
        monkeypatch.setattr(metrology, "CHUNK_ENTRIES", entries)
        n_samples = 12
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=SEED, dim=6, p=2.0, tag=tag)
    joint = estimate_constants(spec, list(kinds), sampler, n_samples)
    assert [rep.kind for rep in joint] == list(kinds)
    for kind, rep in zip(kinds, joint):
        assert rep.to_doc() == estimate_constant(spec, kind, sampler, n_samples).to_doc()


def test_shared_pass_evaluates_each_shared_term_once(monkeypatch):
    # per chunk: Q evaluates f + g, f and g; L, R and B only their products
    calls = []
    evaluate_ = metrology.evaluate

    def counted(spec, m, tol, form=None):
        calls.append(m.shape[0])
        return evaluate_(spec, m, tol, form)

    monkeypatch.setattr(metrology, "evaluate", counted)
    sampler = Sampler(seed=SEED, dim=8, p=2.0)
    estimate_constants(KPBicentralizer("s", 2.0), list(KINDS), sampler, 100)
    chunks = -(-100 // (metrology.CHUNK_ENTRIES // 8**2))
    assert len(calls) == 6 * chunks
    assert sum(calls) == 6 * 100


def test_shared_pass_names_a_non_finite_spec_value():
    # a spec document with a non-finite number still scores, and fails
    # where its values do
    spec = Scaled(KPBicentralizer("s", 2.0), complex(math.inf, 0.0))
    with pytest.raises(InputError, match="must be finite") as info:
        estimate_constants(spec, list(KINDS), Sampler(seed=1, dim=4, p=2.0), 10)
    assert info.value.diagnostics == {"sample_index": 0, "seed": 1, "dim": 4,
                                      "tag": "ginibre"}


@pytest.mark.parametrize("kinds", ["QLRB", "BLQ", "LRB"])
def test_shared_pass_failure_names_the_sample(monkeypatch, kinds):
    # only L evaluates the left contraction times f
    sampler = Sampler(seed=3, dim=4, p=2.0, tag="sparse")
    a, f = sampler.contraction(37, STREAM_LEFT), sampler.unit_sphere(37)
    _poisoned_evaluate(monkeypatch, [a @ f])
    with pytest.raises(InputError, match="must be finite") as info:
        estimate_constants(KPBicentralizer("s", 2.0), list(kinds), sampler, 80)
    assert info.value.diagnostics == {"sample_index": 37, "seed": 3, "dim": 4,
                                      "tag": "sparse"}


@pytest.mark.parametrize("kinds, failing", [("QL", "Q"), ("LQ", "L"), ("RLBQ", "L")])
def test_shared_pass_raises_the_first_listed_failure(monkeypatch, kinds, failing):
    # L fails at sample 5 and Q at 60, in chunks of 8 samples: the kinds
    # one after another would raise the failure of the first listed kind
    monkeypatch.setattr(metrology, "CHUNK_ENTRIES", 8 * 4**2)
    sampler = Sampler(seed=3, dim=4, p=2.0, tag="sparse")
    f = sampler.unit_sphere(np.arange(80))
    bad = [sampler.contraction(5, STREAM_LEFT) @ f[5],
           f[60] + sampler.unit_sphere(60, STREAM_SECONDARY)]
    _poisoned_evaluate(monkeypatch, bad)
    spec = KPBicentralizer("s", 2.0)
    with pytest.raises(InputError) as alone:
        estimate_constant(spec, failing, sampler, 80)
    assert alone.value.diagnostics["sample_index"] == {"L": 5, "Q": 60}[failing]
    with pytest.raises(InputError) as info:
        estimate_constants(spec, list(kinds), sampler, 80)
    assert info.value.diagnostics == alone.value.diagnostics


@pytest.mark.parametrize("tag", TAGS)
@pytest.mark.parametrize("kind", KINDS)
def test_replay_reproduces_estimate_bitwise(kind, tag):
    spec = KPBicentralizer("s", 2.0)
    rep = estimate_constant(spec, kind, Sampler(seed=9, dim=5, p=2.0, tag=tag), 50)
    doc = json.loads(json.dumps(rep.to_doc()))
    assert reevaluate_witness(EstimateReport.from_doc(doc)) == rep.value


def _report_of_kind(kind, tag):
    kp = KPBicentralizer("s", 2.0)
    if kind == "modulus_mat":
        return _modulus(kind, 5, 9, 40)
    if kind == "modulus_vec":
        return _modulus(kind, 8, 9, 40)
    if kind == "gamma":  # the canned operator
        return gamma_summing_mc(np.eye(8, dtype=complex), 400, seed=9)
    if kind == "gamma_matrix":
        return gamma_summing_mc(complex_matrix(np.random.default_rng(0), 8)[:5], 400, seed=3)
    if kind == "gamma_twisted":
        from schatlab.twisted import twisted_target

        rng = np.random.default_rng(0)
        table = TwistedTable(y_cols=complex_matrix(rng, 8), x_cols=complex_matrix(rng, 8))
        return gamma_summing_mc(table, 400, seed=3,
                                target=twisted_target(KPOnH("s"), 2.0, 2.0))
    return _distance(kp, Sampler(seed=9, dim=5, p=2.0, tag=tag), 40)


@pytest.mark.parametrize("kind, tag", [
    *(("distance", tag) for tag in TAGS),
    ("modulus_mat", None), ("modulus_vec", None), ("gamma", None),
    ("gamma_matrix", None), ("gamma_twisted", None),
])
def test_replay_reproduces_every_report_kind_bitwise(kind, tag):
    rep = _report_of_kind(kind, tag)
    again = EstimateReport.from_doc(json.loads(json.dumps(rep.to_doc())))
    expected = rep.witness["ratio"] if rep.kind == "gamma" else rep.value
    assert reevaluate_witness(again) == expected


# --- index-only witnesses: replay re-draws the sample -------------------------

RECIPE_KINDS = (*KINDS, "distance", "modulus_mat", "modulus_vec")


def _recorded_ratios(monkeypatch, measure):
    """Reports of ``measure()``, and the ratio its pass scored for every
    (kind, context, sample index), chunk by chunk, with the chunk count;
    the context is its JSON, so the two modulus slots are told apart."""
    seen, chunks = {}, set()
    for kind in (*KINDS, "distance", "modulus"):
        scorer, recipe = metrology.REPORT_KINDS[kind]

        def recording(ctx, tol, kind=kind, scorer=scorer):
            score, key = scorer(ctx, tol), (kind, json.dumps(ctx, sort_keys=True))

            def scored(x, chunk):
                ratios = score(x, chunk)
                chunks.add(chunk.indices.start)
                seen.update({(*key, i): r for i, r in zip(chunk.indices, ratios)})
                return ratios
            return scored
        monkeypatch.setitem(metrology.REPORT_KINDS, kind, (recording, recipe))
    reports = measure()
    monkeypatch.undo()
    return reports, seen, len(chunks)


@pytest.mark.parametrize("n", [1, 5, 8])
@pytest.mark.parametrize("tag", TAGS)
def test_every_sample_redraws_to_its_chunked_ratio(monkeypatch, n, tag):
    # chunks of 4 samples: the 10-sample stream spans 3 of them
    monkeypatch.setattr(metrology, "CHUNK_ENTRIES", 4 * n**2)
    spec, n_samples = KPBicentralizer("s", 2.0), 10
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)

    def measure():
        return [*estimate_constants(spec, list(KINDS), sampler, n_samples),
                _distance(spec, sampler, n_samples),
                *(_modulus(kind, n, SEED, n_samples) for kind in ("modulus_mat", "modulus_vec"))]

    reports, seen, chunks = _recorded_ratios(monkeypatch, measure)
    assert chunks == 3
    assert [rep.kind for rep in reports] == [kind.split("_")[0] for kind in RECIPE_KINDS]
    for rep in reports:
        assert set(rep.witness) <= {"index", "ratio", "frame_ambiguous"}, rep.kind
        doc = json.loads(json.dumps(rep.to_doc()))
        for i in range(n_samples):
            ratio = seen[rep.kind, json.dumps(rep.context, sort_keys=True), i]
            assert not math.isnan(ratio)
            doc.update(value=ratio, witness={**doc["witness"], "index": i, "ratio": ratio})
            assert reevaluate_witness(EstimateReport.from_doc(doc)) == ratio, (rep.kind, i)


@pytest.mark.parametrize("tag", ["rank_one", "sparse"])
def test_replay_redraws_with_the_sampler_min_norm(tag):
    # a threshold at the 90th percentile of first-draw norms redraws most samples
    norms = [_norm(_first_draw(tag, i), 2.0) for i in range(30)]
    min_norm = float(np.quantile(norms, 0.9))
    sampler = Sampler(seed=2, dim=5, p=2.0, tag=tag, min_norm=min_norm)
    spec = KPBicentralizer("s", 2.0)
    reports = [*estimate_constants(spec, list(KINDS), sampler, 30),
               _distance(spec, sampler, 30)]
    moved = 0
    for rep in reports:
        assert rep.context["min_norm"] == min_norm
        doc = json.loads(json.dumps(rep.to_doc()))
        assert reevaluate_witness(EstimateReport.from_doc(doc)) == rep.value, rep.kind
        doc["context"]["min_norm"] = Sampler.min_norm
        moved += reevaluate_witness(EstimateReport.from_doc(doc)) != rep.value
    assert moved  # the recorded threshold, not the default, re-draws the witnesses


@pytest.mark.parametrize("tag", TAGS)
def test_witness_keeps_one_matrix(monkeypatch, tag):
    # 300 samples at n = 4 span two chunks; each report's frame check reads
    # a copy of its winner's f, not a view that keeps the chunk's stacks alive
    checked = []
    monkeypatch.setattr(metrology, "frame_ambiguous", lambda f, tol: checked.append(f))
    n = 4
    sampler = Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
    assert metrology.CHUNK_ENTRIES // n**2 < 300 <= 2 * (metrology.CHUNK_ENTRIES // n**2)
    reports = estimate_constants(KPBicentralizer("s", 2.0), list(KINDS), sampler, 300)
    assert len(checked) == len(reports)
    for rep, f in zip(reports, checked):
        assert f.shape == (n, n) and f.base is None, rep.kind
        i = rep.witness["index"]
        draw = metrology.REPORT_KINDS[rep.kind][1](rep.context, rep.seed)
        redrawn = draw(metrology._Chunk(range(i, i + 1)))["f"][0]
        assert f.dtype == redrawn.dtype and f.tobytes() == redrawn.tobytes(), rep.kind


def _stored_inputs(rep):
    """The inputs of an index-only report's witness sample, drawn apart
    from the recipe, as reports from before index-only witnesses stored them."""
    i, ctx = rep.witness["index"], rep.context

    def unit(stream):
        return Sampler(seed=rep.seed, dim=ctx["dim"], p=ctx["p"],
                       tag=ctx["tag"]).unit_sphere(i, stream)

    if rep.kind == "modulus":  # pairs, each slot's codec, the slot named
        sampler = Sampler(seed=rep.seed, dim=ctx["dim"], p=2.0, tag="sparse")
        encode = mat_to_json if ctx["slot"] == "mat" else vec_to_json
        return {name: {"g": encode(g), "f": encode(f), "slot": ctx["slot"]}
                for name, stream in (("u", STREAM_PRIMARY), ("v", STREAM_SECONDARY))
                for g, f in _draw_pairs(sampler, ctx["slot"], [i], stream)}
    else:
        inputs = {"f": unit(STREAM_PRIMARY)}
    if rep.kind == "Q":
        inputs["g"] = unit(STREAM_SECONDARY)
    contraction = Sampler(seed=rep.seed, dim=ctx["dim"], p=2.0, tag=ctx["tag"]).contraction
    if rep.kind in ("L", "B"):
        inputs["a"] = contraction(i, STREAM_LEFT)
    if rep.kind == "R":
        inputs["a"] = contraction(i, STREAM_RIGHT)
    if rep.kind == "B":
        inputs["b"] = contraction(i, STREAM_RIGHT)
    return {name: mat_to_json(m) for name, m in inputs.items()}


@pytest.mark.parametrize("kind", RECIPE_KINDS)
def test_stored_witness_inputs_are_refused(kind):
    # a witness that stores its sample's inputs, even the right ones, is of
    # the layout before index-only witnesses: replay refuses it, and the same
    # report without them replays
    spec = KPBicentralizer("s", 2.0)
    sampler = Sampler(seed=9, dim=5, p=2.0, tag="rank_one")
    if kind in KINDS:
        rep = estimate_constant(spec, kind, sampler, 20)
    elif kind == "distance":
        rep = _distance(spec, sampler, 20)
    else:
        rep = _report_of_kind(kind, None)
    doc = json.loads(json.dumps(rep.to_doc()))
    assert reevaluate_witness(EstimateReport.from_doc(doc)) == rep.value
    doc["witness"]["inputs"] = _stored_inputs(rep)
    doc["context"].pop("min_norm", None)  # as written before it was recorded
    with pytest.raises(InputError, match="predates index-only witnesses and must be re-run"):
        reevaluate_witness(EstimateReport.from_doc(doc))


def test_replay_refuses_a_witness_outside_the_stream():
    rep = estimate_constant(KPBicentralizer("s", 2.0), "Q", Sampler(seed=9, dim=4, p=2.0), 20)
    for index in (-1, 20, 2.0, "3"):
        bad = EstimateReport.from_doc({**rep.to_doc(), "witness": {**rep.witness,
                                                                   "index": index}})
        with pytest.raises(InputError, match="is not a sample"):
            reevaluate_witness(bad)


@pytest.mark.parametrize("kind", ["Q", "distance", "modulus_mat", "gamma"])
def test_replay_requires_the_witness_ratio_of_a_max(kind):
    if kind == "Q":
        rep = estimate_constant(KPBicentralizer("s", 2.0), "Q", Sampler(seed=9, dim=4, p=2.0), 20)
    else:
        rep = _report_of_kind(kind, "ginibre")
    nudged = replace(rep, value=math.nextafter(rep.value, math.inf))
    if kind == "gamma":  # its value is a mean, not its witness's ratio
        assert reevaluate_witness(nudged) == rep.witness["ratio"]
        return
    with pytest.raises(InputError, match="witness ratio"):
        reevaluate_witness(nudged)


# --- partition invariance: split streams merge to the whole-stream report ----


def _merged_over_parts(reports, cuts):
    """(value, witness index) of each report, its stream scored part by part:
    each part ``[a, b)`` of the cut stream is one ``_Chunk(range(a, b))``,
    drawn by the report's recipe and scored by its kind's scorer, every
    report of the list on the same chunk, as a shared pass scores it; the
    parts merge by first strict maximum, where NaN never wins."""
    best = [(-math.inf, None)] * len(reports)
    for a, b in zip(cuts, cuts[1:]):
        chunk = metrology._Chunk(range(a, b))
        for j, rep in enumerate(reports):
            scorer, recipe = metrology.REPORT_KINDS[rep.kind]
            score = scorer(rep.context, DEFAULT_TOL)
            ratios = score(recipe(rep.context, rep.seed)(chunk), chunk)
            k = int(np.argmax(np.where(np.isnan(ratios), -math.inf, ratios)))
            if ratios[k] > best[j][0]:
                best[j] = (float(ratios[k]), a + k)
    return best


@settings(max_examples=40, deadline=None, derandomize=True)
@given(job=st.sampled_from(["shared", "distance", "modulus_mat", "modulus_vec"]),
       tag=st.sampled_from(TAGS), n=st.integers(1, 5), stream=st.integers(1, 40).flatmap(
           lambda total: st.tuples(st.just(total), st.sets(st.integers(0, total)))))
def test_stream_partition_changes_no_report(job, tag, n, stream):
    total, cuts = stream
    assume(total >= 2 or not job.startswith("modulus"))  # the probe needs two samples
    spec, sampler = KPBicentralizer("s", 2.0), Sampler(seed=SEED, dim=n, p=2.0, tag=tag)
    if job == "shared":
        reports = estimate_constants(spec, list(KINDS), sampler, total)
    elif job == "distance":
        reports = [_distance(spec, sampler, total)]
    else:
        reports = [_modulus(job, n, SEED, total)]
    merged = _merged_over_parts(reports, sorted({0, total, *cuts}))
    for rep, (value, index) in zip(reports, merged):
        assert (value, index) == (rep.value, rep.witness.get("index")), rep.kind
        assert math.copysign(1.0, value) == math.copysign(1.0, rep.value)


# --- distance_estimate -------------------------------------------------------


def test_distance_to_itself_vanishes():
    spec = KPBicentralizer("s", 2.0)
    rep = distance_estimate(spec, spec, Sampler(seed=5, dim=5, p=2.0), 40)
    assert rep.value == 0.0


def test_distance_matches_direct_recomputation(rng):
    base = KPBicentralizer("s", 2.0)
    g = complex_matrix(rng, 5)
    shifted = SumSpec((base, RightMultiplication(g)))
    sampler = Sampler(seed=5, dim=5, p=2.0)
    rep = distance_estimate(base, shifted, sampler, 60)
    direct = max(
        schatten_norm(evaluate(base, f) - evaluate(shifted, f), 2.0)
        / schatten_norm(f, 2.0)
        for f in (sampler.unit_sphere(i, STREAM_PRIMARY) for i in range(60))
    )
    assert rep.value == pytest.approx(direct, rel=1e-12)
    assert rep.value <= schatten_norm(g, math.inf) + 1e-12


# --- fit_morphism ------------------------------------------------------------


def test_fit_recovers_right_multiplication(rng):
    g = complex_matrix(rng, 6)
    spec = RightMultiplication(g)
    sampler = Sampler(seed=8, dim=6, p=2.0)
    samples = [sampler.unit_sphere(i) for i in range(20)]
    fit = fit_morphism(spec, "left", samples, q=2.0, p=2.0)
    assert fit.residual <= 1e-10
    assert np.abs(fit.matrix - g).max() <= 1e-10
    assert not fit.rank_deficient


def test_fit_recovers_left_composition(rng):
    L = complex_matrix(rng, 6)
    spec = LiftedQuasilinear(LinearMap(L), p=2.0, q=2.0)
    sampler = Sampler(seed=8, dim=6, p=2.0)
    samples = [sampler.unit_sphere(i) for i in range(20)]
    fit = fit_morphism(spec, "right", samples, q=2.0, p=2.0)
    assert fit.residual <= 1e-10
    assert np.abs(fit.matrix - L).max() <= 1e-9


def test_fit_trivial_plus_bounded(rng):
    # the bounded part caps the fitted residual up to solver slack
    g = complex_matrix(rng, 6)
    bounded = KPBicentralizer("min_s_1", 2.0)
    spec = SumSpec((RightMultiplication(g), bounded))
    sampler = Sampler(seed=SEED, dim=6, p=2.0)
    samples = [sampler.unit_sphere(i) for i in range(150)]
    bound = max(schatten_norm(evaluate(bounded, f), 2.0)
                / schatten_norm(f, 2.0) for f in samples)
    fit = fit_morphism(spec, "left", samples, q=2.0, p=2.0)
    solver_slack = max(
        schatten_norm(f @ (fit.matrix - g), 2.0) / schatten_norm(f, 2.0)
        for f in samples)
    assert fit.residual <= bound + solver_slack + 1e-12
    assert fit.residual <= bound + 0.1  # the fit stays close to g in practice


def test_fit_rank_deficient_flag(rng):
    spec = RightMultiplication(complex_matrix(rng, 5))
    lone = Sampler(seed=4, dim=5, p=2.0, tag="rank_one").unit_sphere(0)
    fit = fit_morphism(spec, "left", [lone], q=2.0, p=2.0)
    assert fit.rank_deficient


def test_fit_residual_ignores_a_nan_ratio_in_any_order():
    # a zero sample's ratio is 0/0; as in max_over_stream, NaN never wins
    spec = KPBicentralizer("s", 2.0)
    samples = Sampler(seed=1, dim=4, p=2.0).unit_sphere(range(3))
    zero = np.zeros((1, 4, 4), dtype=complex)
    with np.errstate(invalid="ignore"):
        first, last = (fit_morphism(spec, "left", stack, q=2.0, p=2.0)
                       for stack in (np.concatenate([zero, samples]),
                                     np.concatenate([samples, zero])))
    assert math.isnan(first.ratios[0]) and math.isnan(last.ratios[-1])
    assert first.residual == last.residual == max(last.ratios[:-1])


def _looped_fit(spec, side, samples, q, p, tol=DEFAULT_TOL):
    """fit_morphism written out sample by sample: the stacked fit's oracle."""
    mats = [as_matrix(f) for f in samples]
    values = [evaluate(spec, f, tol) for f in mats]
    n = mats[0].shape[1] if side == "left" else mats[0].shape[0]
    gram = np.zeros((n, n), dtype=np.complex128)
    cross = np.zeros((n, n), dtype=np.complex128)
    for f, y in zip(mats, values):
        if side == "left":
            gram += f.conj().T @ f
            cross += f.conj().T @ y
        else:
            gram += f @ f.conj().T
            cross += y @ f.conj().T
    rank_deficient = bool(np.linalg.matrix_rank(gram) < n)
    pinv = np.linalg.pinv(gram)
    morph = pinv @ cross if side == "left" else cross @ pinv
    ratios = []
    for f, y in zip(mats, values):
        approx = f @ morph if side == "left" else morph @ f
        ratios.append(_norm(y - approx, q) / _norm(f, p))
    return morph, tuple(ratios), max(ratios), rank_deficient


_FIT_SPECS = {
    "kp_bicentralizer": lambda n: KPBicentralizer("s", 1.0),
    "lifted_quasilinear": lambda n: LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0),
    "right_multiplication": lambda n: RightMultiplication(
        complex_matrix(np.random.default_rng(n), n)),
}


@pytest.mark.parametrize("kind", sorted(_FIT_SPECS))
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("tag", ["sparse", "ginibre", "rank_one"])
@pytest.mark.parametrize("n, count", [(8, 24), (64, 12), (8, 3), (16, 37)],
                         ids=["n8", "n64", "n8-3-samples", "n16-37-samples"])
def test_stacked_fit_matches_looped_oracle(kind, side, tag, n, count):
    # chunks of CHUNK_ENTRIES entries: n = 8 fits in one, n = 64 takes one
    # sample per chunk, and 37 samples at n = 16 end in a ragged chunk
    spec = _FIT_SPECS[kind](n)
    sampler = Sampler(seed=5, dim=n, p=1.0, tag=tag)
    stack = sampler.unit_sphere(np.arange(count))
    expected = _looped_fit(spec, side, list(stack), q=1.0, p=1.0)
    if tag == "rank_one" and count < n:  # a Gram matrix of rank at most count
        assert expected[3]
    for samples in (stack, list(stack)):
        fit = fit_morphism(spec, side, samples, q=1.0, p=1.0)
        assert np.array_equal(fit.matrix, expected[0])
        assert (fit.ratios, fit.residual, fit.rank_deficient) == expected[1:]


@pytest.mark.parametrize("tag", ["sparse", "ginibre", "rank_one"])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("n, count", [(8, 24), (32, 40), (16, 37)],
                         ids=["n8", "n32", "n16-37-samples"])
def test_fit_on_drawn_chunks_matches_the_plain_stack(tag, p, n, count):
    # the drawn forms and values against the same samples factored by the
    # fit, with more samples than n: an underdetermined fit amplifies ulps
    spec = LiftedQuasilinear(KPOnH("s"), p=p, q=1.0)
    sampler = Sampler(seed=5, dim=n, p=p, tag=tag)
    drawn = fit_morphism(spec, "right", sampler.unit_sphere_chunks(range(count)), q=1.0, p=p)
    plain = fit_morphism(spec, "right", sampler.unit_sphere(range(count)), q=1.0, p=p)
    assert drawn.rank_deficient == plain.rank_deficient
    assert np.abs(drawn.matrix - plain.matrix).max() <= 1e-12 * np.abs(plain.matrix).max()
    assert np.allclose(drawn.ratios, plain.ratios, rtol=1e-12, atol=0.0)
    assert drawn.residual == pytest.approx(plain.residual, rel=1e-12, abs=0.0)
    if tag in ("ginibre", "rank_one") and p == 2.0:  # drawn with no factors
        assert np.array_equal(drawn.matrix, plain.matrix) and drawn.ratios == plain.ratios


@pytest.mark.parametrize("tag", ["sparse", "ginibre", "haar_spectral"])
def test_fit_ratios_prefix_stable_on_drawn_chunks(small_chunks, tag):
    # chunks of 16 samples at n = 8: sample i's ratio against the fitted
    # morphism is that of its lone draw, form and values, at every count
    n = 8
    k = small_chunks // n**2
    spec = LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0)
    sampler = Sampler(seed=5, dim=n, p=1.0, tag=tag)
    for count in (k - 1, k, k + 1, 2 * k + 1):
        fit = fit_morphism(spec, "left", sampler.unit_sphere_chunks(range(count)),
                           q=1.0, p=1.0)
        assert len(fit.ratios) == count
        for i in range(k - 1):
            m, (u, s, v) = sampler._unit_sphere([i], STREAM_PRIMARY)
            y = evaluate(spec, m, DEFAULT_TOL, schmidt_from_factors(u, s, v))
            lone = _norm(y - m @ fit.matrix, 1.0) / _norm(m, 1.0, s)
            assert lone[0] == fit.ratios[i], (count, i)


def _signed_zeros_and_nans():
    # bit patterns a zero test by value would lose: -0.0 in either part, a NaN payload
    words = np.zeros((2, 4, 4, 2), dtype=np.uint64)
    words[0, 0, 1, 0] = words[0, 2, 3, 1] = np.uint64(1 << 63)  # -0.0 real, -0.0 imaginary
    words[1, 1, 1] = np.uint64(1 << 63)  # -0.0 - 0.0j
    words[1, 3, 0, 1] = np.uint64(0x7FF8_0000_0000_0123)  # 0 + NaN(0x123) j
    return words.view(np.complex128)[..., 0]


_PACKED_STACKS = {
    "sparse": lambda: Sampler(seed=5, dim=64, p=1.0, tag="sparse").unit_sphere(range(6)),
    "dense": lambda: Sampler(seed=5, dim=16, p=1.0, tag="ginibre").unit_sphere(range(6)),
    "all-zero": lambda: np.zeros((1, 8, 8), dtype=np.complex128),
    "one-zero-sample": lambda: np.concatenate(
        [np.zeros((1, 8, 8)), Sampler(seed=5, dim=8, p=2.0).unit_sphere(range(2))]),
    "signed-zeros-and-nans": _signed_zeros_and_nans,
    "columns": lambda: Sampler(seed=5, dim=8, p=2.0).unit_sphere(range(5))[..., :1],
    "sparse-columns": lambda: Sampler(seed=5, dim=64, p=1.0,
                                      tag="sparse").unit_sphere(range(6))[..., 3:4],
}


@pytest.mark.parametrize("name", sorted(_PACKED_STACKS))
def test_packed_samples_round_trip_bit_for_bit(name):
    stack = np.ascontiguousarray(_PACKED_STACKS[name]())
    shape, bits, entries = packed = metrology._pack(stack)
    out = metrology._unpack(packed)
    assert out.shape == stack.shape == shape and out.dtype == np.complex128
    assert out.tobytes() == stack.tobytes()
    # one bit per entry, and only the entries that are not +0.0+0.0j
    assert len(bits) == -(-stack.size // 8)
    assert len(entries) == np.count_nonzero(stack.view(np.uint64).reshape(-1, 2).any(axis=1))
    if name == "sparse":  # one dyadic block per sample: most entries are not held
        assert entries.nbytes < stack.nbytes / 2


def test_fit_needs_samples(rng):
    with pytest.raises(InputError):
        fit_morphism(RightMultiplication(complex_matrix(rng, 4)), "left", [],
                     q=2.0, p=2.0)
    with pytest.raises(InputError):
        fit_morphism(RightMultiplication(complex_matrix(rng, 4)), "middle",
                     [np.eye(4)], q=2.0, p=2.0)
    with pytest.raises(InputError):  # a draw of no chunks
        fit_morphism(RightMultiplication(complex_matrix(rng, 4)), "left",
                     Sampler(seed=1, dim=4, p=2.0).unit_sphere_chunks([]), q=2.0, p=2.0)


# --- gamma_summing_mc --------------------------------------------------------


def test_gamma_zero_operator():
    rep = gamma_summing_mc(np.zeros((3, 3)), 500, seed=1)
    assert rep.value == 0.0


def test_gamma_identity_matches_closed_form():
    rep = gamma_summing_mc(np.eye(2, dtype=complex), 40000, seed=SEED)
    assert abs(rep.value - math.sqrt(2.0)) <= 3.0 * rep.stderr
    assert rep.stderr < 0.01


def test_gamma_low_sample_warning():
    rep = gamma_summing_mc(np.eye(2, dtype=complex), 50, seed=1)
    assert "WARNING" in rep.note


def test_gamma_witness_replay(rng):
    rep = gamma_summing_mc(complex_matrix(rng, 5), 400, seed=3)
    assert abs(reevaluate_witness(rep) - rep.witness["ratio"]) <= 1e-12


def test_gamma_twisted_table_replay(rng):
    from schatlab.twisted import twisted_target

    table = TwistedTable(y_cols=complex_matrix(rng, 6),
                         x_cols=complex_matrix(rng, 6))
    target = twisted_target(KPOnH("s"), 2.0, 2.0)
    rep = gamma_summing_mc(table, 400, seed=3, target=target)
    assert math.isfinite(rep.value) and rep.value > 0
    assert abs(reevaluate_witness(rep) - rep.witness["ratio"]) <= 1e-10


def test_gamma_twisted_table_needs_target(rng):
    table = TwistedTable(y_cols=complex_matrix(rng, 4),
                         x_cols=complex_matrix(rng, 4))
    with pytest.raises(InputError):
        gamma_summing_mc(table, 100, seed=0)


def _gamma_operator(name):
    rng = np.random.default_rng(0)
    if name == "identity":
        return np.eye(8, dtype=complex), None
    if name == "matrix":
        return complex_matrix(rng, 5, 8), None
    from schatlab.twisted import twisted_target

    table = TwistedTable(y_cols=complex_matrix(rng, 8), x_cols=complex_matrix(rng, 8))
    return table, twisted_target(KPOnH("s"), 2.0, 2.0)


@pytest.mark.parametrize("name", ["identity", "matrix", "twisted"])
@pytest.mark.parametrize("pieces", ["one-piece", "ragged", "two-samples"])
def test_streamed_gamma_matches_block(name, pieces):
    # the whole Gaussian block scored in one call is the oracle of the
    # piece-by-piece stream: every reported bit must agree; two samples are
    # the fewest with a standard error
    table, target = _gamma_operator(name)
    rows = metrology.CHUNK_ENTRIES // 8
    n_samples = {"one-piece": rows - 100, "ragged": 2 * rows + 17, "two-samples": 2}[pieces]
    rep = gamma_summing_mc(table, n_samples, seed=3, target=target)
    block = next(Sampler(seed=3, dim=8, p=2.0).gaussian_rows(n_samples, 8, n_samples))
    scorer, recipe = metrology.REPORT_KINDS["gamma"]
    assert recipe is None  # the witness row is stored, not re-drawn
    score = scorer(rep.context, DEFAULT_TOL)
    squares = score(block) ** 2
    value = math.sqrt(float(squares.mean()))
    stderr = float(squares.std(ddof=1)) / math.sqrt(n_samples) / (2.0 * value)
    imax = int(np.argmax(score(block)))
    assert (rep.value, rep.stderr) == (value, stderr)
    assert rep.witness == {"index": imax, "inputs_gaussian": vec_to_json(block[imax]),
                           "ratio": float(score(block[imax][None])[0])}


def _traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gamma_memory_is_bounded():
    # 100,000 norms are 0.76 MiB, squared in place, and the standard error
    # is taken in the same buffer with no second array (~1.15 MiB traced);
    # one temporary of that size makes ~1.6 MiB, the whole block and its
    # products ~38 MB
    peak = _traced_peak(lambda: gamma_summing_mc(np.eye(8, dtype=complex), 100_000,
                                                 seed=SEED))
    assert peak <= 1.25 * 2**20


# the canned splitting configuration of the lifted coordinate map
_LIFT_SPLITTING = json.loads((Path(__file__).resolve().parents[1] / "scripts" / "configs"
                              / "splitting_lift.json").read_text(encoding="utf-8"))


def test_splitting_fit_memory_is_bounded():
    # the canned lift at n = 64 with 192 samples: held dense, the samples and
    # their values are 12 MiB each (~25 MiB traced), ~98 MB if fitted whole;
    # held packed, the sparse ones shrink to their blocks (~5.5 MiB traced)
    cfg = parse_config({**_LIFT_SPLITTING, "dims": [64], "samples": 192})
    peak = _traced_peak(lambda: run_experiment(cfg))
    assert peak <= 8 * 2**20


def test_dense_splitting_fit_memory_is_bounded():
    # dense samples pack to themselves plus one mask bit an entry (~25.2 MiB traced)
    cfg = parse_config({**_LIFT_SPLITTING, "dims": [64], "samples": 192, "tag": "ginibre"})
    peak = _traced_peak(lambda: run_experiment(cfg))
    assert peak <= 2 * 192 * 64**2 * (16 + 1 / 8) + 4 * 2**20


def test_gamma_deterministic():
    a = gamma_summing_mc(np.eye(3, dtype=complex), 1000, seed=9)
    b = gamma_summing_mc(np.eye(3, dtype=complex), 1000, seed=9)
    assert a.value == b.value and a.stderr == b.stderr


# --- triviality probes ------------------------------------------------------


def test_splitting_lift_residual_grows():
    # heterogeneous sparse sampling exposes the residual growth of the
    # nontrivial lift; homogeneous Gaussian samples would hide it
    rows = run_experiment(parse_config({**_LIFT_SPLITTING, "dims": [8, 16],
                                        "samples": 40}))["rows"]
    assert rows[1]["residual"] > rows[0]["residual"]


def test_fit_lift_residual_grows_into_larger_index():
    # mixed-width rank-one samples expose growth even into a larger
    # output index; sample counts scale with the dimension so the fit
    # stays overdetermined (a fixed count would let the minimum-norm
    # solution interpolate every rank-one sample at large n)
    lift = LiftedQuasilinear(KPOnH("s"), p=0.5, q=1.0)
    residuals = {}
    for n in (8, 64):
        sampler = Sampler(seed=1, dim=n, p=0.5, tag="rank_one")
        samples = [sampler.unit_sphere(i) for i in range(6 * n)]
        residuals[n] = fit_morphism(lift, "right", samples, q=1.0, p=0.5).residual
    assert residuals[64] > residuals[8]
