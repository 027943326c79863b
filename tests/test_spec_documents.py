"""Golden spec documents: the wire format and its hashes are frozen.

Spec hashes name experiments in every artifact, so the document of each
spec and vector-map kind must stay byte for byte what it was.  The hashes
below were recorded with the per-kind encoders that preceded the field
codec.  Scalars keep their Python type on the wire (an ``int``
coefficient is written ``2``, not ``2.0``), which is part of the hash.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from schatlab.centralizers import (
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
    qmap_from_doc,
    qmap_to_doc,
    spec_from_doc,
    spec_hash,
    spec_to_doc,
    zero_spec,
)
from schatlab.ioutil import doc_hash
from schatlab.matcore import InputError

CONFIG_DIR = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def _mat(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _projection():
    return np.diag([1.0, 0.0, 1.0]).astype(complex)


def _qmap_cases():
    return {
        "kp_on_h": KPOnH("s"),
        "linear": LinearMap(_mat(1, 3)),
        "scaled_map_float": ScaledMap(KPOnH("t"), 0.5),
        "scaled_map_int": ScaledMap(KPOnH("s"), 2),
        "scaled_map_complex": ScaledMap(LinearMap(_mat(2, 3)), 0.5j),
        "sum_map": SumMap((KPOnH("min_s_1"), LinearMap(_mat(3, 3)))),
        "sum_map_empty": SumMap(()),
    }


def _spec_cases():
    kp = KPBicentralizer("s", 2.0)
    every_qmap = SumMap(tuple(_qmap_cases().values()))
    return {
        "kp_bicentralizer": kp,
        "kp_bicentralizer_eig_int_p": KPBicentralizer("t", 1, backend="eig"),
        "lifted_kp_on_h": LiftedQuasilinear(KPOnH("s"), p=1.0, q=1.0),
        "lifted_linear": LiftedQuasilinear(LinearMap(_mat(4, 3)), p=0.5, q=2.0),
        "lowered": Lowered(kp, s=4.0),
        "lowered_p_inner": Lowered(kp, s=4.0, p_inner=2.0),
        "localized": Localized(KPBicentralizer("min_s_1", 1.5), e=_projection()),
        "right_multiplication": RightMultiplication(_mat(5, 3)),
        "scaled_float": Scaled(kp, 2.5),
        "scaled_int": Scaled(kp, 3),
        "scaled_complex": Scaled(kp, 2.0 - 0.5j),
        "sum_empty": zero_spec(),
        "every_kind": SumSpec((
            KPBicentralizer("s", 0.5, backend="eig"),
            Scaled(LiftedQuasilinear(every_qmap, p=1.0, q=2.0), c=2.0 + 1.0j),
            Lowered(Scaled(kp, 1), s=4.0, p_inner=2.0),
            Lowered(Localized(RightMultiplication(_mat(6, 3)), e=_projection()),
                    s=2.0, p_inner=1.0),
            Localized(SumSpec((kp, zero_spec())), e=_projection()),
        )),
    }


GOLDEN_SPECS = {
    "kp_bicentralizer": "496713aab7d3ca54b020e1537781d2f32a42fb2df8de85b36b6e621582b37622",
    "kp_bicentralizer_eig_int_p": "5d1a439239cc27f4be20392f427e0883710c8a991164af52518048b00dd8f9aa",
    "lifted_kp_on_h": "84a634b19c6f084cff279dc93484547118c30c6086f9c05cd4e29ed57f2a5591",
    "lifted_linear": "c76a2970ad40c1ca5645ff601e8c3bd32178378bb4e4fbc0a288f87db6262520",
    "lowered": "753974acc64d701b1a23cbd11ac4bd1837c5adf97c5f3ec37d0b7f7dc0c27c8d",
    "lowered_p_inner": "076154f5fc045e2520b087644c8f4ff2498713b95a9cc4c6215953976e6802e5",
    "localized": "5b866661758b50c59f9e873dda076ecbcd167bc277f2cef70944de0446ed7c98",
    "right_multiplication": "e3807b9591b52a097ffb3eac32da3aeb59bb2e9e657dbc9b66b4a6f7de4a3de5",
    "scaled_float": "f436e557f49904fb21a48fd034ef98767b50c692c6eb5cddcec46c4e2edc571d",
    "scaled_int": "16544e8bcad1058d4e86c10bd99427bac4cb75578dae9a060f1905a73dbcdb0f",
    "scaled_complex": "12205b59fb1756b341bc8648b867f390f8742272228b5540ad0bb6d63492dd52",
    "sum_empty": "bb21cb5825bb7c1fb2abd0e324c4c2149d83d4b493cdaa970ac61f2b029975b9",
    "every_kind": "f8584b99008afad57d9bf5642ad5d1ebefa798cf8a442c740963bc221e66051b",
}

GOLDEN_QMAPS = {
    "kp_on_h": "76c558b1a24f62783dc7f5b356a07d7957e5ad24870340278038f844dfc526ca",
    "linear": "05ab1caf68af61d3a26f5a90d34a7db465ddbef5a7049d719e1eb49d05093466",
    "scaled_map_float": "91c5fbdef15efe816e8790c768ff3fe600600822995fc1eadf8c1121ae118ca8",
    "scaled_map_int": "e217eb640ea4c242367373a5e59a99e2f2b67526e713c9cb007793ca58dc292a",
    "scaled_map_complex": "9c139f82eee5444d71943ead66bd12f923610b266955d304a02bd3e008a58e5c",
    "sum_map": "896660566681f1ccdbf5604ee365e1c49713be4aa8aacadf016d8255005d0f34",
    "sum_map_empty": "bb21cb5825bb7c1fb2abd0e324c4c2149d83d4b493cdaa970ac61f2b029975b9",
}

# spec hashes of the canned configurations (the modulus config carries a
# vector map, hashed through its own document)
GOLDEN_CONFIGS = {
    "constants_kp.json": "496713aab7d3ca54b020e1537781d2f32a42fb2df8de85b36b6e621582b37622",
    "modulus_z2.json": "76c558b1a24f62783dc7f5b356a07d7957e5ad24870340278038f844dfc526ca",
    "splitting_lift.json": "84a634b19c6f084cff279dc93484547118c30c6086f9c05cd4e29ed57f2a5591",
}


def test_golden_cases_cover_every_kind():
    spec_kinds = {spec_to_doc(s)["kind"] for s in _spec_cases().values()}
    qmap_kinds = {qmap_to_doc(m)["kind"] for m in _qmap_cases().values()}
    assert spec_kinds == {"kp_bicentralizer", "lifted_quasilinear", "lowered",
                          "localized", "right_multiplication", "scaled", "sum"}
    assert qmap_kinds == {"kp_on_h", "linear", "scaled", "sum"}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_spec_document_golden_and_round_trip(name):
    spec = _spec_cases()[name]
    doc = spec_to_doc(spec)
    assert spec_hash(spec) == doc_hash(doc) == GOLDEN_SPECS[name]
    assert spec_to_doc(spec_from_doc(doc)) == doc


@pytest.mark.parametrize("name", sorted(GOLDEN_QMAPS))
def test_qmap_document_golden_and_round_trip(name):
    doc = qmap_to_doc(_qmap_cases()[name])
    assert doc_hash(doc) == GOLDEN_QMAPS[name]
    assert qmap_to_doc(qmap_from_doc(doc)) == doc


def test_spec_document_refuses_a_boolean_index():
    with pytest.raises(InputError) as info:
        spec_from_doc({"kind": "kp_bicentralizer", "phi": "s", "p": True})
    assert info.value.diagnostics["field"] == "p"


def test_scalars_keep_their_wire_type():
    doc = spec_to_doc(Scaled(KPBicentralizer("s", 2), 3))
    assert json.dumps(doc, sort_keys=True) == (
        '{"c": [3, 0], "inner": {"backend": "svd", "kind": "kp_bicentralizer", '
        '"p": 2, "phi": "s"}, "kind": "scaled"}')
    assert "p_inner" not in spec_to_doc(Lowered(KPBicentralizer("s", 2.0), s=4.0))


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_canned_config_spec_hashes(name):
    cfg = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    if cfg.get("slot") == "vec":
        doc = qmap_to_doc(qmap_from_doc(cfg["spec"]))
    else:
        doc = spec_to_doc(spec_from_doc(cfg["spec"]))
    assert doc == cfg["spec"] or doc == {"backend": "svd", **cfg["spec"]}
    assert doc_hash(doc) == GOLDEN_CONFIGS[name]
