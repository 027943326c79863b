import json
import math

import pytest

from schatlab.cli import list_builtins, main, run_config
from schatlab.experiments import ConfigError, parse_config
from schatlab.ioutil import read_csv, read_json


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


def _rejected_by_cli(tmp_path, capsys, doc, field_name):
    with pytest.raises(ConfigError):
        parse_config(doc)
    path = write_config(tmp_path, doc)
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().out)["error"]
        assert err["type"] == "config" and err["field"] == field_name
    assert not (tmp_path / "out").exists()


def test_validate_rejects_unknown_tag(tmp_path, capsys):
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, tag="cauchy"), "tag")


def test_validate_rejects_unknown_schmidt_backend(tmp_path, capsys):
    spec = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0, "backend": "qr"}
    _rejected_by_cli(tmp_path, capsys, constants_config(tmp_path, spec=spec), "spec")


@pytest.mark.parametrize("field_name, value", [
    ("samples", "abc"), ("samples", True), ("dims", "6"), ("dims", [6.0, "x"]),
    ("samples", 2.5), ("p", math.inf), ("q", math.nan),
])
def test_validate_rejects_non_integers(tmp_path, capsys, field_name, value):
    doc = constants_config(tmp_path, **{field_name: value})
    _rejected_by_cli(tmp_path, capsys, doc, field_name)


_KP = {"kind": "kp_bicentralizer", "phi": "s", "p": 2.0}
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
], ids=["k-text", "k-fraction", "bad-matrix"])
def test_validate_rejects_bad_gamma_operator(tmp_path, capsys, operator):
    doc = {"experiment": "gamma", "operator": operator, "seed": 1, "samples": 10,
           "output": str(tmp_path / "out")}
    _rejected_by_cli(tmp_path, capsys, doc, "operator")


def test_validate_rejects_boolean_tolerance(tmp_path, capsys):
    doc = constants_config(tmp_path, tolerances={"zero_rtol": True})
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
    bad = constants_config(tmp_path, spec=str(tmp_path / "missing.json"))
    with pytest.raises(ConfigError):
        parse_config(bad)


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


def test_replay_infinite_witness_ratio(tmp_path, capsys):
    # the power sums of the Q defect overflow, so the ratio is inf
    doc = constants_config(tmp_path, spec=_kp_scaled_by(1e300), dims=[4],
                           kinds=["Q"], samples=20)
    path = write_config(tmp_path, doc)
    assert main(["run", str(path)]) == 0
    capsys.readouterr()
    report = tmp_path / "out" / "report.json"
    assert json.loads(report.read_text())["reports"][0]["value"] == "inf"
    assert main(["replay", str(report)]) == 0
    out = _strict_json(capsys.readouterr().out)
    assert out["ok"] and out["delta"] == 0.0
    assert out["recorded"] == out["recomputed"] == "inf"


def test_replay_bad_index(tmp_path, capsys):
    path = write_config(tmp_path, constants_config(tmp_path))
    main(["run", str(path)])
    capsys.readouterr()
    assert main(["replay", str(tmp_path / "out" / "report.json"),
                 "--index", "5"]) == 2


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
    for token in ("kp_bicentralizer", "lower_s", "gamma_summing_mc",
                  "holder_factor", "splitting_distance", "constants"):
        assert token in text
    assert main(["list"]) == 0
    assert "kp_bicentralizer" in capsys.readouterr().out
