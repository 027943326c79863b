import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from schatlab.cli import list_builtins, main, run_config
from schatlab.experiments import ConfigError, parse_config, run_experiment
from schatlab.ioutil import read_csv, read_json
from schatlab.matcore import mat_to_json
from schatlab.metrology import STREAM_LEFT, STREAM_PRIMARY, STREAM_RIGHT, STREAM_SECONDARY, Sampler
from schatlab.seqcore import PHI_TABLE, LipschitzFn


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def constants_config(tmp_path, **overrides):
    doc = {
        "experiment": "constants",
        "spec": {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0},
        "dims": [6],
        "p": 2.0,
        "q": 2.0,
        "kinds": ["L"],
        "seed": 42,
        "samples": 30,
        "output": str(tmp_path / "out"),
    }
    doc.update(overrides)
    return doc


def _cli_env():
    """This environment, with the package on the path of a child process."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}


# --- validation --------------------------------------------------------------


def test_validate_ok(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["validate", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and len(out["config_hash"]) == 64


def test_validate_missing_seed(tmp_path, capsys):
    doc = constants_config(tmp_path)
    del doc["seed"]
    path = write_config(tmp_path, doc)
    assert main(["validate", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "seed"


def test_validate_descending_dims(tmp_path):
    doc = constants_config(tmp_path, dims=[8, 4])
    with pytest.raises(ConfigError):
        parse_config(doc)


def test_validate_rejects_unknown_keys(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(constants_config(tmp_path, extra_field=1))


def test_validate_rejects_bad_index(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(constants_config(tmp_path, p=-2.0))


def test_validate_rejects_kp_phi_not_vanishing_at_origin(tmp_path, monkeypatch):
    # rank-one inputs map to phi(0, 0): the spec is refused when decoded, not when run
    monkeypatch.setitem(PHI_TABLE, "offset", LipschitzFn("offset", lambda s, t: s + 1.0, 1.0,
                                                         vanishes_at_origin=False))
    doc = constants_config(tmp_path, spec={"kind": "kp_bicentralizer", "phi": "offset",
                                           "p": 2.0})
    with pytest.raises(ConfigError) as info:
        parse_config(doc)
    assert info.value.field_name == "spec" and "origin" in str(info.value)


def _rejected_by_cli(tmp_path, capsys, doc, field_name):
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "config" and err["field"] == field_name
    assert not (tmp_path / "out").exists()


def test_validate_rejects_index_s(tmp_path, capsys):
    # no experiment reads a third index, so the configuration has none
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, s=2.0), "s")


def test_validate_rejects_boolean_indices(tmp_path, capsys):
    # true is no index, as it is no integer
    doc = constants_config(tmp_path, p=True, q=True)
    _rejected_by_cli(tmp_path, capsys, doc, "p")


def test_validate_rejects_a_kp_seq_index_whose_flat_vector_underflows(tmp_path, capsys):
    # at p = 0.001 the coordinate 8^(-1000) of the flat unit vector is 0.0
    doc = {"experiment": "growth", "kinds": ["kp_seq"], "p": 0.001, "dims": [4, 8],
           "seed": 1, "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, "p")
    # at p = 0.003 it stays a normal double, and the run gives log(n) / p
    assert main(["run", str(write_config(tmp_path, {**doc, "p": 0.003}))]) == 0
    rows = read_csv(tmp_path / "out" / "results.csv")
    assert [float(row["value"]) for row in rows] == pytest.approx(
        [math.log(n) / 0.003 for n in (4, 8)], rel=1e-12)


def test_validate_rejects_a_localized_non_projection(tmp_path, capsys):
    e = {"rows": 2, "cols": 2, "re": [1.0, 1.0, 0.0, 1.0], "im": [0.0] * 4}
    spec = {"kind": "localized", "inner": {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0},
            "e": e}
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, spec=spec, dims=[2]), "spec")


def test_validate_rejects_unknown_tag(tmp_path, capsys):
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, tag="cauchy"), "tag")


def test_validate_rejects_a_kp_backend_field(tmp_path, capsys):
    # the Schmidt expansion has one route, so a kp document names none
    spec = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0, "backend": "svd"}
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, spec=spec), "spec")


@pytest.mark.parametrize("field_name, value", [
    ("samples", "abc"), ("samples", True), ("dims", "6"), ("dims", [6.0, "x"]),
    ("samples", 2.5), ("p", math.inf), ("q", math.nan),
])
def test_validate_rejects_non_integers(tmp_path, capsys, field_name, value):
    doc = constants_config(tmp_path, **{field_name: value})
    _rejected_by_cli(tmp_path, capsys, doc, field_name)


@pytest.mark.parametrize("field_name, value", [
    ("kinds", None), ("kinds", "L"), ("output", 5), ("output", None),
    ("output", "out\0"), ("phi", None),
])
def test_validate_rejects_mistyped_fields(tmp_path, capsys, field_name, value):
    doc = constants_config(tmp_path, **{field_name: value})
    _rejected_by_cli(tmp_path, capsys, doc, field_name)


_KP = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}
_KP_ON_H = {"kind": "kp_on_h", "phi": "s"}
_EYE6 = {"rows": 6, "cols": 6, "re": [float(i == j) for i in range(6) for j in range(6)],
         "im": [0.0] * 36}


@pytest.mark.parametrize("spec", [
    {"kind": "kp_bicentralizer", "phi": "s"},
    {"kind": "lowered", "s": 2.0},
    {"kind": "scaled", "c": [1], "inner": _KP},
    [_KP],
    {**_KP, "q": 1.0},
    {**_KP, "p": "inf"},
    {"kind": "lowered", "s": 2.0, "inner": {"kind": "right_multiplication", "g": _EYE6}},
    {"kind": "scaled", "inner": _KP, "c": [math.inf, 0]},
], ids=["missing-p", "missing-inner", "short-c", "list", "unknown-field", "kp-infinite-p",
        "lowered-without-inner-index", "non-finite-c"])
def test_validate_rejects_malformed_spec(tmp_path, capsys, spec):
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, spec=spec), "spec")


_G23 = {"rows": 2, "cols": 3, "re": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "im": [0.0] * 6}


@pytest.mark.parametrize("spec, dims, kinds", [
    ({"kind": "right_multiplication", "g": _G23}, [2], ["Q", "L", "R"]),
    ({"kind": "lifted_quasilinear", "qmap": {"kind": "linear", "matrix": _G23},
      "p": 2.0, "q": 2.0}, [3], ["L"]),
], ids=["right_multiplication", "lifted_linear"])
def test_validate_rejects_a_non_square_matrix(tmp_path, capsys, spec, dims, kinds):
    # a matrix the spec multiplies by must be square; refused at decode, not mid-run
    doc = constants_config(tmp_path, spec=spec, dims=dims, kinds=kinds)
    _rejected_by_cli(tmp_path, capsys, doc, "spec")
    path = write_config(tmp_path, doc)
    main(["validate", str(path)])
    assert "must be a square matrix" in json.loads(capsys.readouterr().out)["error"]["message"]


def modulus_vec_config(tmp_path, spec):
    return {"experiment": "modulus", "spec": spec, "slot": "vec", "dims": [4],
            "p": 2.0, "q": 2.0, "seed": 3, "samples": 10,
            "output": str(tmp_path / "out")}


def test_validate_rejects_malformed_vector_map(tmp_path, capsys):
    doc = modulus_vec_config(tmp_path, {"kind": "kp_on_h"})
    _rejected_by_cli(tmp_path, capsys, doc, "spec")


def test_validate_vector_map_fixed_dim_mismatch(tmp_path, capsys):
    linear = {"kind": "linear", "matrix": {"rows": 2, "cols": 2,
                                           "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}}
    _rejected_by_cli(tmp_path, capsys, modulus_vec_config(tmp_path, linear), "dims")


@pytest.mark.parametrize("doc", [[1, 2], "x"])
def test_non_object_config_fails_structured(tmp_path, capsys, doc):
    path = write_config(tmp_path, doc)
    for argv in (["validate", str(path)], ["run", str(path), "--seed", "3"]):
        assert main(argv) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "config"


@pytest.mark.parametrize("operator", [
    {"kind": "identity", "k": "abc"},
    {"kind": "identity", "k": 2.7},
    {"kind": "matrix", "value": {"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]}},
    {"kind": "identity", "k": 2**40},
], ids=["k-text", "k-fraction", "bad-matrix", "k-too-big"])
def test_validate_rejects_bad_gamma_operator(tmp_path, capsys, operator):
    doc = {"experiment": "gamma", "operator": operator, "seed": 1, "samples": 10,
           "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, "operator")


_OPEN_SPEC = {"kind": "sum", "terms": []}  # its signature leaves both indices open


@pytest.mark.parametrize("doc, field_name", [
    ({"experiment": "growth", "dims": [4], "p": "inf", "kinds": ["kp_seq"]}, "p"),
    ({"experiment": "modulus", "spec": _KP_ON_H, "slot": "vec", "dims": [4], "p": 2.0,
      "q": 2.0, "samples": 1}, "samples"),
    ({"experiment": "constants", "spec": _OPEN_SPEC, "dims": [4], "kinds": ["L"]}, "p"),
    ({"experiment": "distance", "spec": _OPEN_SPEC, "spec2": _KP, "dims": [4], "p": 2.0},
     "q"),
], ids=["kp-seq-infinite-p", "modulus-one-sample", "constants-open-indices",
        "distance-open-q"])
def test_validate_rejects_what_the_run_cannot_measure(tmp_path, capsys, doc, field_name):
    doc = {"seed": 1, "samples": 10, **doc, "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, field_name)


def test_validate_rejects_a_dimension_numpy_cannot_hold(tmp_path, capsys):
    # a 2**40 x 2**40 complex matrix exceeds numpy's array-size limit
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, dims=[4, 2**40]), "dims")


def test_validate_rejects_boolean_tolerance(tmp_path, capsys):
    doc = constants_config(tmp_path, tolerances={"zero_rtol": True})
    _rejected_by_cli(tmp_path, capsys, doc, "tolerances")


def test_validate_rejects_the_retired_reconstruction_tolerance(tmp_path, capsys):
    # no factorization is multiplied back and checked, so no tolerance names one
    doc = constants_config(tmp_path, tolerances={"reconstruction_rtol": 1e-10})
    _rejected_by_cli(tmp_path, capsys, doc, "tolerances")


def test_validate_rejects_non_finite_tolerance(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    text = json.dumps(constants_config(tmp_path, tolerances={"slack_atol": 1.0}))
    path.write_text(text.replace('"slack_atol": 1.0', '"slack_atol": 1e400'),
                    encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["field"] == "tolerances"
    assert 'write an infinite index as "inf"' in err["message"]


def test_infinite_index_config_hashes_and_round_trips(tmp_path):
    cfg = parse_config(constants_config(tmp_path, p="inf", q=2.0,
                                        spec={"kind": "sum", "terms": []}))
    assert cfg.p == math.inf
    assert cfg.doc()["p"] == "inf"
    assert parse_config(cfg.doc()).hash() == cfg.hash()


def test_validate_fixed_dim_spec_mismatch(tmp_path):
    doc = constants_config(tmp_path, spec={
        "kind": "right_multiplication",
        "g": {"rows": 4, "cols": 4, "re": [0.0] * 16, "im": [0.0] * 16},
    }, dims=[6])
    with pytest.raises(ConfigError):
        parse_config(doc)


# --- run + determinism -------------------------------------------------------


def test_run_writes_artifacts_and_is_byte_deterministic(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    out_dir = tmp_path / "out"
    first = {name: (out_dir / name).read_bytes()
             for name in ("results.csv", "report.json", "manifest.json")}
    assert main(["run", str(path)]) == 0
    for name, blob in first.items():
        assert (out_dir / name).read_bytes() == blob

    manifest = read_json(out_dir / "manifest.json")
    assert manifest["version"]
    assert manifest["spec_hash"]
    assert manifest["artifacts"] == ["results.csv", "report.json"]
    report = read_json(out_dir / "report.json")
    assert report["config_hash"] == manifest["config_hash"]
    raw = (out_dir / "results.csv").read_text()
    assert raw.startswith(f"# config={manifest['config_hash']}\n")


def test_growth_csv_schema(tmp_path):
    doc = {
        "experiment": "growth",
        "spec": {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0},
        "dims": [8, 16, 32],
        "p": 2.0,
        "q": 2.0,
        "kinds": ["L"],
        "seed": 7,
        "samples": 20,
        "output": str(tmp_path / "growth"),
    }
    cfg = parse_config(doc)
    out = run_config(cfg)
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[1] == "dim,kind,value,samples,seed"
    rows = read_csv(out / "results.csv")
    assert len(rows) == 3
    assert [r["dim"] for r in rows] == ["8", "16", "32"]


def test_growth_kp_seq_matches_closed_form(tmp_path):
    doc = {
        "experiment": "growth",
        "dims": [8, 64],
        "p": 2.0,
        "phi": "s",
        "kinds": ["kp_seq"],
        "seed": 7,
        "output": str(tmp_path / "seq"),
    }
    out = run_config(parse_config(doc))
    rows = read_csv(out / "results.csv")
    for row in rows:
        n = int(row["dim"])
        assert float(row["value"]) == pytest.approx(math.log(n) / 2.0, abs=1e-10)


def test_gamma_experiment(tmp_path):
    doc = {
        "experiment": "gamma",
        "operator": {"kind": "identity", "k": 2},
        "seed": 11,
        "samples": 20000,
        "output": str(tmp_path / "gamma"),
    }
    out = run_config(parse_config(doc))
    report = read_json(out / "report.json")
    rep = report["reports"][0]
    assert abs(rep["value"] - math.sqrt(2.0)) <= 3.0 * rep["stderr"]


def test_splitting_experiment_schema(tmp_path):
    doc = {
        "experiment": "splitting",
        "spec": {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0},
        "dims": [4, 8],
        "p": 2.0,
        "q": 2.0,
        "seed": 3,
        "samples": 16,
        "output": str(tmp_path / "split"),
    }
    out = run_config(parse_config(doc))
    rows = read_csv(out / "results.csv")
    assert set(rows[0]) == {"dim", "residual", "seed", "spec-hash"}
    assert len(rows) == 2


def test_modulus_experiment(tmp_path):
    doc = {
        "experiment": "modulus",
        "spec": {"kind": "sum", "terms": []},
        "dims": [4],
        "p": 2.0,
        "q": 2.0,
        "seed": 3,
        "samples": 40,
        "output": str(tmp_path / "mod"),
    }
    out = run_config(parse_config(doc))
    rows = read_csv(out / "results.csv")
    assert float(rows[0]["value"]) <= 1.0 + 1e-10


def test_distance_experiment(tmp_path):
    spec = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}
    doc = {
        "experiment": "distance",
        "spec": spec,
        "spec2": spec,
        "dims": [5],
        "seed": 3,
        "samples": 10,
        "output": str(tmp_path / "dist"),
    }
    out = run_config(parse_config(doc))
    rows = read_csv(out / "results.csv")
    assert float(rows[0]["value"]) == 0.0


def _rows_and_reports(doc):
    out = run_experiment(parse_config(doc))
    return out["rows"], [rep.to_doc() for rep in out["reports"]]


def test_growth_kinds_read_one_index_pair(tmp_path):
    # the lowered spec's signature is (1, 1): the residual fit reads it as Q does
    doc = {"experiment": "growth", "kinds": ["Q", "residual"], "dims": [4, 8], "seed": 5,
           "samples": 30, "tag": "sparse", "output": str(tmp_path / "out"),
           "spec": {"kind": "lowered", "s": 2.0, "inner": _KP}}
    assert _rows_and_reports(doc) == _rows_and_reports({**doc, "p": 1.0, "q": 1.0})


@pytest.mark.parametrize("doc", [
    {"experiment": "splitting", "spec": _KP, "dims": [4, 8], "side": "right"},
    {"experiment": "modulus", "spec": _KP, "slot": "mat", "dims": [4]},
], ids=["splitting", "modulus"])
def test_sweep_takes_open_indices_from_the_spec(tmp_path, doc):
    doc = {**doc, "seed": 3, "samples": 12, "output": str(tmp_path / "out")}
    assert _rows_and_reports(doc) == _rows_and_reports({**doc, "p": 2.0, "q": 2.0})


def test_validate_rejects_a_residual_fit_at_open_indices(tmp_path, capsys):
    # right_multiplication has no indices of its own, and the configuration gives none
    g = {"rows": 2, "cols": 2, "re": [1.0, 0.0, 0.0, 1.0], "im": [0.0] * 4}
    doc = {"experiment": "growth", "kinds": ["residual"], "dims": [2], "seed": 1,
           "samples": 10, "spec": {"kind": "right_multiplication", "g": g},
           "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, "p")


@pytest.mark.parametrize("operator, dims, field_name", [
    ({"kind": "identity", "k": 8}, [3], "dims"),
    ({"kind": "identity", "k": 8}, [3, 8], "dims"),
    ({"kind": "matrix", "value": {"rows": 2, "cols": 0, "re": [], "im": []}}, [], "operator"),
], ids=["identity-other-dim", "identity-extra-dim", "matrix-no-columns"])
def test_validate_rejects_gamma_dims_unlike_its_operator(tmp_path, capsys, operator, dims,
                                                        field_name):
    doc = {"experiment": "gamma", "operator": operator, "dims": dims, "seed": 1,
           "samples": 10, "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, field_name)


def test_gamma_dims_may_repeat_the_operator_width(tmp_path):
    doc = {"experiment": "gamma", "operator": {"kind": "identity", "k": 8}, "seed": 4,
           "samples": 500, "output": str(tmp_path / "out")}
    rows, reports = _rows_and_reports(doc)
    assert [row["dim"] for row in rows] == [8]
    assert _rows_and_reports({**doc, "dims": [8]}) == (rows, reports)


# --- replay ------------------------------------------------------------------


def test_replay_round_trip(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out" / "report.json")]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["delta"] <= 1e-12


def test_tolerance_overrides_validated_and_applied(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(constants_config(tmp_path, tolerances={"nope": 1e-9}))
    with pytest.raises(ConfigError):
        parse_config(constants_config(tmp_path, tolerances={"zero_rtol": -1.0}))
    from schatlab.experiments import _tol

    cfg = parse_config(constants_config(tmp_path,
                                        tolerances={"zero_rtol": 1e-6}))
    tol = _tol(cfg)
    assert tol.zero_rtol == 1e-6
    assert tol.slack_atol == 1e-8  # untouched defaults survive


def test_spec_by_file_path(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}))
    doc = constants_config(tmp_path, spec=str(spec_path))
    cfg = parse_config(doc)
    out = run_config(cfg)
    assert (out / "results.csv").exists()
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for bad in (tmp_path / "missing.json", binary, "nul\0byte.json"):
        with pytest.raises(ConfigError):
            parse_config(constants_config(tmp_path, spec=str(bad)))


def test_gamma_matrix_operator_fixture(tmp_path):
    from schatlab.matcore import mat_to_json
    import numpy as np

    m = np.diag([1.0, 2.0]).astype(complex)
    doc = {
        "experiment": "gamma",
        "operator": {"kind": "matrix", "value": mat_to_json(m)},
        "seed": 5,
        "samples": 20000,
        "output": str(tmp_path / "gmat"),
    }
    out = run_config(parse_config(doc))
    rep = read_json(out / "report.json")["reports"][0]
    # Euclidean target: the exact value is the Frobenius norm sqrt(5)
    assert abs(rep["value"] - math.sqrt(5.0)) <= 3.0 * rep["stderr"]


def test_run_reports_numeric_failure(tmp_path, capsys, monkeypatch):
    import schatlab.cli as cli
    from schatlab.matcore import NumericError

    def boom(cfg):
        raise NumericError("factorization failed",
                           diagnostics={"sample_index": 3, "seed": 42})

    monkeypatch.setattr(cli, "run_experiment", boom)
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "numeric"
    assert err["diagnostics"]["sample_index"] == 3
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides, sample", [
    ({"kinds": ["Q"], "dims": [4], "p": 0.001}, 0),
    ({"experiment": "modulus", "spec": {"kind": "kp_on_h", "phi": "s"}, "slot": "vec",
      "dims": [4], "p": 1e-300}, 0),
    ({"experiment": "growth", "kinds": ["residual"], "dims": [4], "p": 1e-300}, None),
], ids=["constants", "modulus", "growth-residual"])
def test_run_reports_a_tiny_index_as_numeric(tmp_path, capsys, overrides, sample):
    # the index validates, but an l^p root at it leaves the double range
    path = write_config(tmp_path, constants_config(tmp_path, samples=8, **overrides))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    assert main(["run", str(path)]) == 3
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "numeric" and err["diagnostics"]["index"] == overrides["p"]
    assert err["diagnostics"].get("sample_index") == sample
    assert not (tmp_path / "out").exists()


def test_run_reports_input_failure(tmp_path, capsys, monkeypatch):
    import schatlab.cli as cli
    from schatlab.matcore import InputError

    def bad_input(cfg):
        raise InputError("lowering needs the inner map's input index")

    monkeypatch.setattr(cli, "run_experiment", bad_input)
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "input", "message": "lowering needs the inner map's input index"}
    assert not (tmp_path / "out").exists()


def _kp_scaled_by(*factors):
    spec = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}
    for c in factors:
        spec = {"kind": "scaled", "inner": spec, "c": [c, 0]}
    return spec


def test_run_input_failure_names_the_sample(tmp_path, capsys):
    # 1e308 twice overflows every nonzero value to inf
    doc = constants_config(tmp_path, spec=_kp_scaled_by(1e308, 1e308), dims=[4],
                           samples=20)
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "input" and "finite" in err["message"]
    assert err["diagnostics"] == {"sample_index": 0, "seed": 42, "dim": 4,
                                  "tag": "ginibre"}
    assert not (tmp_path / "out").exists()


def _strict_json(text):
    def reject(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("overrides", [
    {"spec": {"kind": "lifted_quasilinear", "qmap": _KP_ON_H, "p": 1.0, "q": "inf"},
     "p": 1.0, "q": "inf", "kinds": ["Q", "L", "R", "B"]},
    {"spec": {"kind": "lowered", "inner": _KP, "s": "inf"}, "kinds": ["Q", "B"]},
    {"p": "inf", "kinds": ["Q", "L"]},
], ids=["lift-q-inf", "lowered-s-inf", "config-p-inf"])
def test_infinite_index_runs_to_standard_json(tmp_path, capsys, overrides):
    # an infinite index is written "inf" in spec documents, hashes and contexts
    path = write_config(tmp_path, constants_config(tmp_path, dims=[4], samples=20, **overrides))
    assert main(["validate", str(path)]) == 0
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    doc = _strict_json(report.read_text())
    assert "Infinity" not in report.read_text()
    for i, rep in enumerate(doc["reports"]):
        assert "inf" in (rep["context"]["p"], rep["context"]["q"],
                         *rep["context"]["spec"].values())
        assert main(["replay", str(report), "--index", str(i), "--atol", "0"]) == 0
        assert _strict_json(capsys.readouterr().out)["ok"]


def test_replay_refuses_a_retired_kind(tmp_path, capsys):
    # the companion defects are gone: their reports fail structured, naming the kind
    assert main(["run", str(write_config(tmp_path, constants_config(tmp_path)))]) == 0
    report = tmp_path / "out" / "report.json"
    doc = read_json(report)
    for kind in ("covariant", "contravariant"):
        doc["reports"][0]["kind"] = kind
        doc["reports"][0]["context"].update(s=2.0, p2=2.0, r=1.0, q2=2.0, candidate=_KP)
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["replay", str(report), "--atol", "0"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "replay" and repr(kind) in err["message"]
        assert kind not in list_builtins()


def test_replay_infinite_witness_ratio(tmp_path, capsys):
    # the power sums of the Q defect overflow, so the ratio is inf
    doc = constants_config(tmp_path, spec=_kp_scaled_by(1e300), dims=[4],
                           kinds=["Q"], samples=20)
    path = write_config(tmp_path, doc)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    rep = _strict_json(report.read_text())["reports"][0]
    assert rep["value"] == rep["witness"]["ratio"] == "inf"
    assert main(["replay", str(report)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["ok"] and out["delta"] == 0.0
    assert out["recorded"] == out["recomputed"] == "inf"


def test_one_sample_gamma_stderr_is_standard_json(tmp_path, capsys):
    # one sample leaves the delta-method stderr NaN, written "nan" as the CSV writes it
    doc = {"experiment": "gamma", "operator": {"kind": "identity", "k": 2}, "seed": 1,
           "samples": 1, "output": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    rep = _strict_json(report.read_text())["reports"][0]
    assert rep["stderr"] == "nan" and math.isfinite(rep["value"])
    assert main(["replay", str(report), "--atol", "0"]) == 0
    assert _strict_json(capsys.readouterr().out)["ok"]


def test_nan_gamma_report_and_replay_line_are_standard_json(tmp_path, capsys):
    # the squared row norms of 1e308 + 1e308j entries overflow, so the value is NaN
    big = {"rows": 2, "cols": 2, "re": [1e308] * 4, "im": [1e308] * 4}
    doc = {"experiment": "gamma", "operator": {"kind": "matrix", "value": big}, "seed": 1,
           "samples": 20, "output": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    rep = _strict_json(report.read_text())["reports"][0]
    assert rep["value"] == rep["witness"]["ratio"] == "nan"
    main(["replay", str(report), "--atol", "0"])
    out = _strict_json(capsys.readouterr().out)
    assert out["recorded"] == out["recomputed"] == "nan"


def test_nan_gamma_report_replays_with_nan_stderr(tmp_path, capsys):
    # a NaN recomputed from a NaN is reproduced, and a NaN mean has a NaN stderr
    big = {"rows": 2, "cols": 2, "re": [1e308] * 4, "im": [1e308] * 4}
    doc = {"experiment": "gamma", "operator": {"kind": "matrix", "value": big}, "seed": 1,
           "samples": 20, "output": str(tmp_path / "out")}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    rep = _strict_json(report.read_text())["reports"][0]
    assert rep["value"] == rep["stderr"] == "nan"
    assert main(["replay", str(report), "--atol", "0"]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["ok"] and out["delta"] == 0.0


def test_replay_bad_index(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out" / "report.json"),
                 "--index", "5"]) == 2


@pytest.mark.parametrize("text", ["[]", "{}", '{"reports": []}', "3"])
def test_replay_refuses_a_file_without_reports(tmp_path, capsys, text):
    report = tmp_path / "report.json"
    report.write_text(text)
    assert main(["replay", str(report)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "replay" and "out of range of 0 reports" in err["message"]


def _broken_report(tmp_path, capsys, experiment, edit):
    """A report.json of a fresh run, passed through ``edit``."""
    doc = {"constants": constants_config(tmp_path),
           "gamma": {"experiment": "gamma", "operator": {"kind": "identity", "k": 2},
                     "seed": 1, "samples": 10, "output": str(tmp_path / "out")},
           "modulus": modulus_vec_config(tmp_path, _KP_ON_H)}[experiment]
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    report.write_text(json.dumps(edit(read_json(report))))
    return report


def _first(entry):
    """The edit passing the first report of the file through ``entry``."""
    return lambda doc: {**doc, "reports": [entry(doc["reports"][0]), *doc["reports"][1:]]}


def _context(**fields):
    return _first(lambda rep: {**rep, "context": {**rep["context"], **fields}})


@pytest.mark.parametrize("experiment, edit", [
    ("gamma", _first(lambda rep: {**rep, "witness": {k: v for k, v in rep["witness"].items()
                                                     if k != "ratio"}})),
    ("constants", _first(lambda rep: {**rep, "witness": 5})),
    ("constants", _first(lambda rep: {**rep, "value": "abc"})),
    ("constants", _first(lambda rep: {**rep, "samples": None})),
    ("constants", _first(lambda rep: 5)),
    ("constants", _context(dim="x")),
    ("constants", lambda doc: {**doc, "reports": 5}),
    ("constants", _context(p="x")),
    ("constants", _context(min_norm="x")),
    ("gamma", _context(table=5)),
    ("constants", _first(lambda rep: {**rep, "kind": ["L"]})),
    ("modulus", _context(pY="x")),
    ("modulus", _context(map=5)),
    # the layout of modulus witnesses that stored their pairs
    ("modulus", _first(lambda rep: {**rep, "witness": {**rep["witness"], "inputs": 5}})),
    ("constants", _context(dim=True)),
    ("constants", _context(dim=2**70)),
    ("modulus", _context(dim=2**70)),
    ("gamma", _first(lambda rep: {**rep, "witness": {**rep["witness"], "inputs_gaussian": ""}})),
    # the one integer rule: no fraction or bool stands for an integer
    ("constants", _first(lambda rep: {**rep, "samples": 5.9})),
    ("constants", _first(lambda rep: {**rep, "seed": 3.7})),
    ("constants", _first(lambda rep: {**rep, "samples": True})),
    ("constants", _first(lambda rep: {**rep, "witness": {**rep["witness"], "index": True}})),
    ("constants", _first(lambda rep: {**rep, "stream": 0})),
    # a kp document written when the Schmidt expansion had two routes
    ("constants", _context(spec={"kind": "kp_bicentralizer", "phi": "s", "p": 2.0,
                                 "backend": "svd"})),
], ids=["gamma-without-ratio", "witness-number", "value-text", "samples-null",
        "report-number", "dim-text", "reports-number", "p-text", "min-norm-text",
        "gamma-table-number", "kind-list", "modulus-pY-text", "modulus-map-number",
        "modulus-inputs-number", "dim-true", "dim-too-big", "modulus-dim-too-big",
        "gamma-row-empty", "samples-fraction", "seed-fraction", "samples-true",
        "index-true", "unknown-field", "kp-backend"])
def test_replay_refuses_a_malformed_report(tmp_path, capsys, experiment, edit):
    report = _broken_report(tmp_path, capsys, experiment, edit)
    assert main(["replay", str(report)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "replay"


@pytest.mark.parametrize("experiment, key", [
    ("constants", "index"), ("modulus", "index"), ("gamma", "inputs_gaussian")])
def test_replay_names_a_missing_witness_field(tmp_path, capsys, experiment, key):
    edit = _first(lambda rep: {**rep, "witness": {k: v for k, v in rep["witness"].items()
                                                  if k != key}})
    report = _broken_report(tmp_path, capsys, experiment, edit)
    assert main(["replay", str(report), "--atol", "0"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "replay" and repr(key) in err["message"]
    assert err["message"] != repr(key)


def test_replay_refuses_an_unreachable_min_norm(tmp_path, capsys):
    # every draw stays below the threshold; the redraws are capped, so replay
    # fails structured within seconds (a subprocess, so a hang fails the test)
    report = _broken_report(tmp_path, capsys, "constants", _context(min_norm=1e30))
    done = subprocess.run([sys.executable, "-m", "schatlab.cli", "replay", str(report)],
                          capture_output=True, text=True, timeout=60, env=_cli_env())
    assert done.returncode == 2, done.stderr
    err = json.loads(done.stdout)["error"]
    assert err["type"] == "replay" and "min_norm" in err["message"]
    assert "(seed 42, dim 6, tag 'ginibre')" in err["message"]


@pytest.mark.parametrize("field", ["q", "p"])
def test_replay_refuses_a_numeric_failure_structured(tmp_path, capsys, field):
    # no l^p norm is finite at index 0.001: the witness cannot be rescored
    # (a subprocess, so a traceback on stderr fails the test)
    doc = constants_config(tmp_path, dims=[4], kinds=["Q", "L", "R", "B"], seed=1, samples=10)
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    report.write_text(json.dumps(_context(**{field: 1e-3})(read_json(report))))
    done = subprocess.run([sys.executable, "-m", "schatlab.cli", "replay", str(report)],
                          capture_output=True, text=True, timeout=60, env=_cli_env())
    assert (done.returncode, done.stderr) == (2, ""), done.stderr
    err = json.loads(done.stdout)["error"]
    assert len(done.stdout.splitlines()) == 1 and err["type"] == "replay"
    assert "overflows at index p = 0.001" in err["message"] and "diagnostics" in err


@pytest.mark.parametrize("atol", ["nan", "-1"])
def test_replay_refuses_bad_atol(tmp_path, capsys, atol):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out" / "report.json"), "--atol", atol]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "replay" and "--atol" in err["message"]


def test_replay_infinite_atol_accepts(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out" / "report.json"), "--atol", "inf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] and out["delta"] == 0.0


def test_replay_refuses_value_unlike_its_witness(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    doc = read_json(report)
    rep = doc["reports"][0]
    assert rep["value"] == rep["witness"]["ratio"]
    rep["value"] = math.nextafter(rep["value"], math.inf)  # one ulp off
    report.write_text(json.dumps(doc))
    assert main(["replay", str(report), "--atol", "inf"]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "replay" and "witness ratio" in err["message"]


def test_replay_index_only_witnesses(tmp_path, capsys):
    doc = constants_config(tmp_path, kinds=["Q", "L", "R", "B"])
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    for rep in read_json(report)["reports"]:
        assert "inputs" not in rep["witness"] and rep["context"]["min_norm"] == 1e-8
    for i in range(4):
        assert main(["replay", str(report), "--index", str(i), "--atol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]


def _haar_constants(tmp_path, **overrides):
    """Q/L/R/B at n = 8, chunks of 64 samples, and n = 64, one sample a chunk."""
    return constants_config(tmp_path, **{"kinds": ["Q", "L", "R", "B"], "dims": [8, 64],
                                         "tag": "haar_spectral", "samples": 24, **overrides})


def test_haar_spectral_witnesses_replay_bitwise(tmp_path, capsys):
    # replay reads the drawn forms and norms the run read, at both chunkings
    assert main(["run", str(write_config(tmp_path, _haar_constants(tmp_path)))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    reports = read_json(report)["reports"]
    assert [(rep["context"]["dim"], rep["kind"]) for rep in reports] == [
        (dim, kind) for dim in (8, 64) for kind in "QLRB"]
    for i in range(len(reports)):
        assert main(["replay", str(report), "--index", str(i), "--atol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize("tag", ["sparse", "ginibre"])
def test_factored_draws_replay_bitwise(tmp_path, capsys, tag):
    # at p = 1 each sample is factored when drawn, on its block (sparse) or
    # whole (ginibre), and replay reads the forms and values the run read
    doc = _haar_constants(tmp_path, tag=tag, p=1.0, q=1.0,
                          spec={"kind": "kp_bicentralizer", "phi": "s", "p": 1.0})
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    for i in range(len(read_json(report)["reports"])):
        assert main(["replay", str(report), "--index", str(i), "--atol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["ok"]


@pytest.mark.parametrize("dim", [8, 64])
def test_haar_spectral_failure_names_the_sample(tmp_path, capsys, monkeypatch, dim):
    import numpy as np
    import schatlab.metrology as metrology

    bad = Sampler(seed=42, dim=dim, p=2.0, tag="haar_spectral").unit_sphere(5)
    evaluate_ = metrology.evaluate

    def poisoned(spec, m, tol, form=None):
        # non-finite at sample 5's f, in any stack, where it is read by its
        # drawn form: the lone rescore must read that form too to find it
        hit = np.all(m == bad, axis=(-2, -1)) & (form is not None)
        return np.where(hit[..., None, None], np.inf, evaluate_(spec, m, tol, form))

    monkeypatch.setattr(metrology, "evaluate", poisoned)
    doc = _haar_constants(tmp_path, dims=[dim], samples=8)
    assert main(["run", str(write_config(tmp_path, doc))]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "input" and "finite" in err["message"]
    assert err["diagnostics"] == {"sample_index": 5, "seed": 42, "dim": dim,
                                  "tag": "haar_spectral"}
    assert not (tmp_path / "out").exists()


def test_replay_failure_names_recorded_and_current_blas_threads(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    assert main(["run", str(write_config(tmp_path, constants_config(tmp_path)))]) == 0
    capsys.readouterr()
    recorded = {"MKL_NUM_THREADS": None, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    assert read_json(tmp_path / "out" / "manifest.json")["blas_threads"] == recorded
    report = tmp_path / "out" / "report.json"
    assert main(["replay", str(report), "--atol", "0"]) == 0
    assert "blas_threads" not in json.loads(capsys.readouterr().out)
    doc = read_json(report)  # a witness one part in 1e9 off, as another thread count can give
    rep = doc["reports"][0]
    rep["value"] = rep["witness"]["ratio"] = rep["value"] * (1.0 + 1e-9)
    report.write_text(json.dumps(doc))
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert main(["replay", str(report), "--atol", "0"]) == 4
    reply = json.loads(capsys.readouterr().out)
    assert not reply["ok"] and reply["blas_threads"] == {
        "recorded": recorded, "current": {**recorded, "OPENBLAS_NUM_THREADS": "2"}}
    (tmp_path / "out" / "manifest.json").unlink()  # nothing recorded: null
    assert main(["replay", str(report), "--atol", "0"]) == 4
    assert json.loads(capsys.readouterr().out)["blas_threads"]["recorded"] is None


def _with_stored_inputs(doc):
    """A report as written before witnesses kept their index alone: each
    witness carries its sample's inputs, and the context no min_norm."""
    for rep in doc["reports"]:
        ctx, i = rep["context"], rep["witness"]["index"]
        del ctx["min_norm"]
        sampler = Sampler(seed=rep["seed"], dim=ctx["dim"], p=ctx["p"], tag=ctx["tag"])
        inputs = {"f": sampler.unit_sphere(i, STREAM_PRIMARY),
                  "Q": {"g": sampler.unit_sphere(i, STREAM_SECONDARY)},
                  "L": {"a": sampler.contraction(i, STREAM_LEFT)},
                  "R": {"a": sampler.contraction(i, STREAM_RIGHT)},
                  "B": {"a": sampler.contraction(i, STREAM_LEFT),
                        "b": sampler.contraction(i, STREAM_RIGHT)}}
        stored = {"f": inputs["f"], **inputs[rep["kind"]]}
        rep["witness"]["inputs"] = {name: mat_to_json(m) for name, m in stored.items()}
    return doc


def test_replay_refuses_stored_witness_inputs(tmp_path, capsys):
    doc = constants_config(tmp_path, kinds=["Q", "L", "R", "B"], tag="rank_one")
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    report.write_text(json.dumps(_with_stored_inputs(read_json(report))))
    for i in range(4):
        assert main(["replay", str(report), "--index", str(i), "--atol", "inf"]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "replay" and "must be re-run" in err["message"]


def test_replay_accepts_gamma_mean_unlike_its_witness(tmp_path, capsys):
    doc = {"experiment": "gamma", "operator": {"kind": "identity", "k": 4},
           "seed": 5, "samples": 200, "output": str(tmp_path / "gamma")}
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "gamma" / "report.json"
    rep = read_json(report)["reports"][0]
    assert rep["value"] != rep["witness"]["ratio"]  # a mean, not a max
    assert main(["replay", str(report), "--atol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


def test_constants_duplicated_kind_keeps_rows_and_reports(tmp_path):
    out = run_config(parse_config(constants_config(
        tmp_path, kinds=["Q", "L", "Q"], dims=[4, 6])))
    rows = read_csv(out / "results.csv")
    assert [(row["dim"], row["kind"]) for row in rows] == [
        (str(d), k) for d in (4, 6) for k in ("Q", "L", "Q")]
    reports = read_json(out / "report.json")["reports"]
    assert [rep["kind"] for rep in reports] == ["Q", "L", "Q"] * 2
    for first, again in ((0, 2), (3, 5)):
        assert reports[first] == reports[again]
    single = run_config(parse_config(constants_config(
        tmp_path, kinds=["Q", "L"], dims=[4, 6], output=str(tmp_path / "single"))))
    alone = read_json(single / "report.json")["reports"]
    assert [reports[i] for i in (0, 1, 3, 4)] == alone


# --- output path and staged writes -------------------------------------------


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_run_refuses_output_naming_a_file(tmp_path, capsys, monkeypatch, where):
    import schatlab.cli as cli

    def not_run(cfg):
        raise AssertionError("the experiment ran before the output path was checked")

    monkeypatch.setattr(cli, "run_experiment", not_run)
    blocker = tmp_path / "taken"
    blocker.write_text("keep me", encoding="utf-8")
    output = blocker if where == "file" else blocker / "out"
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path), "--output", str(output)]) == 2
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "output" and err["path"] == str(output)
    assert "not a directory" in err["message"]
    assert blocker.read_text(encoding="utf-8") == "keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "taken"]


def _failing_manifest_write(monkeypatch, exc):
    import schatlab.cli as cli

    write_json = cli.write_json

    def failing(path, doc):
        if "manifest" in Path(path).name:
            raise exc
        write_json(path, doc)

    monkeypatch.setattr(cli, "write_json", failing)


@pytest.mark.parametrize("exc", [OSError(28, "No space left on device"),
                                 RuntimeError("interrupted")])
def test_failed_write_leaves_no_new_directory(tmp_path, capsys, monkeypatch, exc):
    _failing_manifest_write(monkeypatch, exc)
    out = tmp_path / "fresh" / "out"
    path = write_config(tmp_path, constants_config(tmp_path, output=str(out)))
    if isinstance(exc, OSError):
        assert main(["run", str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "output" and "No space left" in err["message"]
    else:
        with pytest.raises(RuntimeError):
            main(["run", str(path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_failed_rewrite_keeps_earlier_artifacts(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    out_dir = tmp_path / "out"
    (out_dir / "notes.txt").write_text("mine", encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    _failing_manifest_write(monkeypatch, OSError(28, "No space left on device"))
    assert main(["run", str(path), "--samples", "7"]) == 2
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


# --- fuzzed configuration documents -----------------------------------------

# a valid tiny document of each experiment, which the fuzz test then alters
_FUZZ_TEMPLATES = {
    "constants": {"spec": _KP, "dims": [2, 3], "p": 2.0, "q": 2.0, "kinds": ["Q", "B"]},
    "growth": {"spec": _KP, "dims": [2, 3], "p": 2.0, "kinds": ["residual", "kp_seq", "L"]},
    "gamma": {"operator": {"kind": "identity", "k": 2}},
    "distance": {"spec": _KP, "spec2": {"kind": "kp_bicentralizer", "phi": "t", "p": 2.0},
                 "dims": [2]},
    "splitting": {"spec": _KP, "dims": [2, 3], "p": 2.0, "q": 2.0, "side": "right"},
    "modulus": {"spec": _KP_ON_H, "slot": "vec", "dims": [3], "p": 2.0, "q": 2.0},
}
_DROP = object()  # the field is left out
_INDEX = st.sampled_from([2.0, 1.0, 0.5, "inf", 4, 0, -1.0, "x", None, [2.0], _DROP])
_FUZZ_FIELDS = {
    "experiment": st.sampled_from([*_FUZZ_TEMPLATES, "unknown", 3, _DROP]),
    "seed": st.sampled_from([0, 7, 2**40, -1, 1.5, "7", True, None, _DROP]),
    "dims": st.sampled_from([[2], [3], [2, 3], [3, 2], [0], [], "2", [2.5], None, {}, _DROP]),
    "spec": st.sampled_from([_KP, _KP_ON_H, {"kind": "scaled", "inner": _KP, "c": [2.0, 0]},
                             {"kind": "lifted_quasilinear", "qmap": _KP_ON_H,
                              "p": 1.0, "q": 1.0},
                             {"kind": "unknown"}, "missing-spec.json", 5, None, _DROP]),
    "spec2": st.sampled_from([_KP, {"kind": "unknown"}, [], None, _DROP]),
    "operator": st.sampled_from([{"kind": "identity", "k": 0},
                                 {"kind": "matrix", "value": {"rows": 1, "cols": 2,
                                                              "re": [1.0, 0.0],
                                                              "im": [0.0, 1.0]}},
                                 {"kind": "matrix"}, {"kind": "other"}, [], None, _DROP]),
    "p": _INDEX,
    "q": _INDEX,
    "s": _INDEX,
    "kinds": st.sampled_from([["Q"], ["R", "residual"], ["kp_seq"], ["X"], [], "Q", None,
                              [1], _DROP]),
    "samples": st.sampled_from([1, 2, 3, 0, -1, 2.5, "3", None, _DROP]),
    "tag": st.sampled_from(["haar_spectral", "rank_one", "sparse", "cauchy", 1, _DROP]),
    "side": st.sampled_from(["left", "right", "up", None]),
    "slot": st.sampled_from(["mat", "vec", "x", None]),
    "phi": st.sampled_from(["s", "t", "unknown", 3, None]),
    "tolerances": st.sampled_from([{}, {"rank_rel": 1e-10}, {"bogus": 1.0},
                                   {"rank_rel": -1.0}, [], None]),
}
# "fresh", "nested", "file" and "under-file" name paths in the example's
# directory; "" runs to $SCHATLAB_OUT
_FUZZ_OUTPUTS = st.sampled_from(["fresh", "nested", "file", "under-file", "", 5, None,
                                 "nul\0byte", _DROP])


def _fuzzed_doc(template, changes, output):
    doc = {"experiment": template, "seed": 3, "samples": 2, **_FUZZ_TEMPLATES[template],
           **changes, "output": output}
    return {key: value for key, value in doc.items() if value is not _DROP}


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=st.builds(
    _fuzzed_doc, st.sampled_from(sorted(_FUZZ_TEMPLATES)),
    st.lists(st.sampled_from(sorted(_FUZZ_FIELDS)), max_size=3, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: _FUZZ_FIELDS[key] for key in keys})),
    _FUZZ_OUTPUTS))
def test_fuzzed_config_runs_or_fails_structured(tmp_path_factory, monkeypatch, capsys, doc):
    base = tmp_path_factory.mktemp("fuzz")
    (base / "taken").write_text("keep me", encoding="utf-8")
    outputs = {"fresh": base / "out", "nested": base / "a" / "b", "file": base / "taken",
               "under-file": base / "taken" / "out", "": base / "env"}
    monkeypatch.setenv("SCHATLAB_OUT", str(outputs[""]))
    if doc.get("output") in outputs:
        doc["output"] = str(outputs[doc["output"]])
    path = write_config(base, doc)
    for command in ("validate", "run"):
        status = main([command, str(path)])
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        if status == 0:
            assert result["ok"] is True
            continue
        assert status == 2, result
        assert set(result) == {"error"} and isinstance(result["error"]["message"], str)
        # a configuration that validates fails its run only at the output path
        assert result["error"]["type"] == ("config" if command == "validate" else "output")
        if command == "validate":
            break
    written = sorted(p.name for p in base.rglob("*") if p.is_file())
    if status == 0:
        assert len(written) == 5 and (base / "taken").read_text(encoding="utf-8") == "keep me"
    else:
        assert written == ["cfg.json", "taken"]


# --- flags, env, listing -----------------------------------------------------


def test_flag_overrides(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    override = tmp_path / "elsewhere"
    assert main(["run", str(path), "--output", str(override),
                 "--samples", "10", "--seed", "43"]) == 0
    rows = read_csv(override / "results.csv")
    assert rows[0]["samples"] == "10"
    assert rows[0]["seed"] == "43"


def test_dims_flag_override(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path), "--dims", "4,x"]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["field"] == "dims"
    assert not (tmp_path / "out").exists()
    assert main(["run", str(path), "--dims", "5"]) == 0
    assert [row["dim"] for row in read_csv(tmp_path / "out" / "results.csv")] == ["5"]


def test_env_default_output(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHATLAB_OUT", str(tmp_path / "envout"))
    doc = constants_config(tmp_path)
    doc["output"] = ""
    cfg = parse_config(doc)
    out = run_config(cfg)
    assert out == tmp_path / "envout" / "constants"
    assert (out / "results.csv").exists()


def test_list_builtins_mentions_operations(capsys):
    text = list_builtins()
    for token in ("kp_bicentralizer", "spatial_part", "gamma_summing_mc",
                  "holder_factor", "fit_morphism", "constants"):
        assert token in text
    assert main(["list"]) == 0
    assert "kp_bicentralizer" in capsys.readouterr().out


# --- one parser per process ----------------------------------------------------


def test_parser_is_built_once_per_process(tmp_path, capsys):
    """Every ``main`` call parses with the one parser built on first use.

    The command functions are bound when the parser is built, and they read
    the module globals they call (``run_experiment``, ``write_json``) when
    they run, so the tests that patch those globals still reach them.
    """
    import schatlab.cli as cli

    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path)]) == 0
    assert main(["validate", str(path)]) == 0
    assert main(["replay", str(tmp_path / "out" / "report.json"), "--atol", "0"]) == 0
    assert main(["list"]) == 0
    capsys.readouterr()
    info = cli._parser.cache_info()
    assert info.misses == 1 and info.hits >= 3


def test_run_flags_do_not_reach_the_next_run(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    assert main(["run", str(path), "--seed", "43", "--samples", "10", "--dims", "5",
                 "--tag", "rank_one", "--output", str(tmp_path / "flagged")]) == 0
    assert [(row["seed"], row["samples"], row["dim"])
            for row in read_csv(tmp_path / "flagged" / "results.csv")] == [("43", "10", "5")]
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    (tmp_path / "out").rename(tmp_path / "in-process")
    done = subprocess.run([sys.executable, "-m", "schatlab.cli", "run", str(path)],
                          capture_output=True, text=True, timeout=120, env=_cli_env())
    assert done.returncode == 0, done.stderr
    for name in ("results.csv", "report.json", "manifest.json"):
        assert ((tmp_path / "in-process" / name).read_bytes()
                == (tmp_path / "out" / name).read_bytes()), name


def test_replay_flags_do_not_reach_the_next_replay(tmp_path, capsys):
    doc = constants_config(tmp_path, kinds=["Q", "L"])
    assert main(["run", str(write_config(tmp_path, doc))]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    doc = read_json(report)
    rep = doc["reports"][0]  # a witness 1e-13 off: within the default 1e-12, not within 0
    rep["value"] = rep["witness"]["ratio"] = rep["value"] + 1e-13
    report.write_text(json.dumps(doc))
    assert main(["replay", str(report), "--index", "1", "--atol", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == "L"
    assert main(["replay", str(report), "--atol", "0"]) == 4
    capsys.readouterr()
    assert main(["replay", str(report)]) == 0
    reply = json.loads(capsys.readouterr().out)
    assert reply["kind"] == "Q" and reply["ok"] and 0.0 < reply["delta"] <= 1e-12


@pytest.mark.parametrize("argv", [["run"], ["replay", "report.json", "--index", "x"]],
                         ids=["run-without-config", "index-text"])
def test_parser_exit_leaves_the_next_call_working(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["validate", str(write_config(tmp_path, constants_config(tmp_path)))]) == 0
    assert json.loads(capsys.readouterr().out)["ok"]


# --- fuzzed report documents ---------------------------------------------------

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"
_REPORT_JUNK = (_DROP, None, True, False, 0, -1, 1.5, 2**70, 1e30, "", "x", "inf",
                [], [1], {}, {"x": 1}, 1e-3)


@pytest.fixture(scope="module")
def canned_reports(tmp_path_factory):
    """The first report of each canned configuration that writes reports, run
    at its first dimension with 20 samples."""
    base = tmp_path_factory.mktemp("canned")
    reports = {}
    for name in ("constants_kp", "modulus_z2", "gamma_identity"):
        doc = {**read_json(CONFIG_DIR / f"{name}.json"), "samples": 20,
               "output": str(base / name)}
        if "dims" in doc:
            doc["dims"] = doc["dims"][:1]
        run_config(parse_config(doc))
        reports[name] = read_json(base / name / "report.json")["reports"][0]
    return reports


def _mutated(report: dict, path: tuple, junk) -> dict:
    """A deep copy of ``report`` with the field at ``path`` set to ``junk``."""
    report = json.loads(json.dumps(report))
    *outer, key = path
    parent = report
    for name in outer:
        parent = parent[name]
    if junk is _DROP:
        parent.pop(key, None)
    else:
        parent[key] = junk
    return report


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_report_replays_or_fails_structured(tmp_path_factory, canned_reports, capsys,
                                                   data):
    report = canned_reports[data.draw(st.sampled_from(sorted(canned_reports)))]
    paths = [(key,) for key in report] + [
        (outer, key) for outer in ("context", "witness") for key in report[outer]]
    path = data.draw(st.sampled_from(sorted(paths)))
    junk = data.draw(st.sampled_from(_REPORT_JUNK))
    file = tmp_path_factory.mktemp("fuzz") / "report.json"
    file.write_text(json.dumps({"reports": [_mutated(report, path, junk)]}), encoding="utf-8")
    tracemalloc.start()
    try:
        status = main(["replay", str(file), "--atol", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, (path, junk, peak)  # no junk value makes replay allocate
    result = json.loads(capsys.readouterr().out)
    if status == 2:
        assert set(result) == {"error"} and result["error"]["type"] == "replay", result
        assert isinstance(result["error"]["message"], str)
    else:
        assert status in (0, 4) and result["ok"] is (status == 0), (path, junk, result)


# --- scripts -------------------------------------------------------------------


def test_trend_lifted_row_is_the_canned_splitting_config():
    # the printed trend and the canned splitting artifact are one measurement
    import importlib.util

    path = CONFIG_DIR.parent / "triviality_trend.py"
    spec = importlib.util.spec_from_file_location("triviality_trend", path)
    trend = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trend)
    canned = run_experiment(parse_config(read_json(CONFIG_DIR / "splitting_lift.json")))
    row = trend.residuals(trend.rows()["lifted coordinate map"])
    assert row == [r["residual"] for r in canned["rows"]] and len(row) == len(trend.DIMS)


def test_strict_json_script_refuses_non_standard_tokens(tmp_path):
    # the one strict-JSON check that CI runs on every report.json and manifest.json
    script = CONFIG_DIR.parent / "strict_json.py"
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"value": "inf", "stderr": "nan"}')
    bad.write_text('{"value": Infinity}')

    def check(*paths):
        return subprocess.run([sys.executable, str(script), *map(str, paths)],
                              capture_output=True, text=True, timeout=60)

    done = check(good, good)
    assert done.returncode == 0 and done.stdout == "2 files parse as standard JSON\n"
    for paths in ((good, bad), (tmp_path / "missing.json",), ()):
        assert check(*paths).returncode == 1, paths
    assert "bad.json: non-standard token Infinity" in check(good, bad).stderr
