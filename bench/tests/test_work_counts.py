"""Pinned LAPACK work per sample, counted by the benchmark's tracer.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest bench/tests -q

The bounds are upper bounds: a change may lower them (and should then
tighten this table) but never raise them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import schatlab  # noqa: E402
from schatlab import metrology  # noqa: E402
from tracer import LAPACK_OPS, TARGETS, Aggregate, Tracer  # noqa: E402

# LAPACK calls per sample of estimate_constant on kp_bicentralizer, keyed by
# (sampler tag, estimate kind); the same at every dimension
PER_SAMPLE_BOUNDS = {
    ("ginibre", "Q"): {"svd": 8, "qr": 0, "eigh": 0, "pinv": 0},
    ("ginibre", "L"): {"svd": 6, "qr": 2, "eigh": 0, "pinv": 0},
    ("ginibre", "R"): {"svd": 6, "qr": 2, "eigh": 0, "pinv": 0},
    ("ginibre", "B"): {"svd": 7, "qr": 4, "eigh": 0, "pinv": 0},
    ("haar_spectral", "Q"): {"svd": 8, "qr": 4, "eigh": 0, "pinv": 0},
    ("haar_spectral", "L"): {"svd": 6, "qr": 4, "eigh": 0, "pinv": 0},
    ("haar_spectral", "R"): {"svd": 6, "qr": 4, "eigh": 0, "pinv": 0},
    ("haar_spectral", "B"): {"svd": 7, "qr": 6, "eigh": 0, "pinv": 0},
}
# the witness's frame_ambiguous check, once per estimate
FRAME_CHECK_BOUNDS = {"svd": 1, "qr": 0, "eigh": 0, "pinv": 0}

SPEC = schatlab.spec_from_doc({"kind": "kp_bicentralizer", "phi": "s", "p": 2.0})


def _counts(tag: str, dims=(4, 64), samples: int = 3) -> dict:
    with Tracer() as tracer:
        for dim in dims:
            sampler = metrology.Sampler(seed=20260810, dim=dim, p=2.0, tag=tag)
            for kind in ("Q", "L", "R", "B"):
                metrology.estimate_constant(SPEC, kind, sampler, samples)
    return Aggregate(tracer.spans).lapack_counts()


@pytest.mark.parametrize("tag", ["ginibre", "haar_spectral"])
def test_lapack_calls_per_sample_within_pinned_bounds(tag):
    counts = _counts(tag)
    for kind in ("Q", "L", "R", "B"):
        entry = counts[(tag, kind)]
        for op in LAPACK_OPS:
            per_sample = entry[op] / entry["samples"]
            assert per_sample <= PER_SAMPLE_BOUNDS[(tag, kind)][op], (tag, kind, op)
            per_estimate = entry["frame_check"][op] / entry["estimates"]
            assert per_estimate <= FRAME_CHECK_BOUNDS[op], (tag, kind, op)


def test_every_binding_is_wrapped_and_restored():
    original = schatlab.matcore.schatten_norm
    with Tracer() as tracer:
        # metrology and twisted hold their own bindings from ``from .matcore import``
        assert metrology.schatten_norm is schatlab.matcore.schatten_norm
        assert metrology.schatten_norm is not original
        assert schatlab.twisted.schatten_norm is schatlab.matcore.schatten_norm
        metrology.schatten_norm(schatlab.rank_one([1, 0], [0, 1]), 2.0)
    assert schatlab.matcore.schatten_norm is original
    assert metrology.schatten_norm is original
    agg = Aggregate(tracer.spans)
    assert agg.calls["matcore.schatten_norm"] == 1
    assert agg.calls["lapack.svd"] == 1


def test_recursive_spans_count_self_time_once():
    lowered = schatlab.spec_from_doc(
        {"kind": "lowered", "s": 2.0,
         "inner": {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}})
    f = metrology.Sampler(seed=1, dim=6, p=1.0).unit_sphere(0)
    with Tracer() as tracer:
        schatlab.evaluate(lowered, f)
    agg = Aggregate(tracer.spans)
    assert agg.calls["centralizers.evaluate"] == 2
    outer = [s for s in agg.spans if s[0] == "centralizers.evaluate" and s[4] < 0]
    assert len(outer) == 1
    assert agg.total_s["centralizers.evaluate"] == pytest.approx(outer[0][3] - outer[0][2])
    assert 0.0 <= agg.self_s["centralizers.evaluate"] <= agg.total_s["centralizers.evaluate"]


def test_missing_target_is_absent_not_fatal(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "TARGETS", TARGETS + (
        ("metrology.gone", "schatlab.metrology", "no_such_function"),
        ("metrology.sampler", "schatlab.metrology", "Sampler.no_such_method"),
    ))
    with Tracer() as tracer:
        pass
    assert "metrology.gone" in tracer.absent
    # one of the sampler's methods still exists, so the metric stays
    assert "metrology.sampler" not in tracer.absent
