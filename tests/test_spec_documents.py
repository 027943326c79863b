"""Golden spec documents: the wire format and its hashes are frozen.

Spec hashes name experiments in every artifact, so the document of each
spec and vector-map kind must stay byte for byte what it was.  The hashes
below were recorded with the per-kind encoders that preceded the field
codec; those holding a ``kp_bicentralizer`` node were restated once, when
its ``backend`` field left the document.  Scalars keep their Python type
on the wire (an ``int`` coefficient is written ``2``, not ``2.0``), which
is part of the hash.
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
        "kp_bicentralizer_int_p": KPBicentralizer("t", 1),
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
            KPBicentralizer("s", 0.5),
            Scaled(LiftedQuasilinear(every_qmap, p=1.0, q=2.0), c=2.0 + 1.0j),
            Lowered(Scaled(kp, 1), s=4.0, p_inner=2.0),
            Lowered(Localized(RightMultiplication(_mat(6, 3)), e=_projection()),
                    s=2.0, p_inner=1.0),
            Localized(SumSpec((kp, zero_spec())), e=_projection()),
        )),
    }


GOLDEN_SPECS = {
    "kp_bicentralizer": "b2bd4ba1652a68e783f6a6f99a481f2da0c298ee5d41d4be1b00f2c4536eb585",
    "kp_bicentralizer_int_p": "3996bf9ff4164d4a940f2d1259447957ac7b591a4e9c4f1caf38b7cac0191fac",
    "lifted_kp_on_h": "84a634b19c6f084cff279dc93484547118c30c6086f9c05cd4e29ed57f2a5591",
    "lifted_linear": "c76a2970ad40c1ca5645ff601e8c3bd32178378bb4e4fbc0a288f87db6262520",
    "lowered": "56fdccc4b96f94e936bfb03620b4d11f5e19c596737612b32a394884830a7dee",
    "lowered_p_inner": "b6d1ec6824b5664182b0c669ae2281e6e00d99e01e8fcb2e00e09e317a86481f",
    "localized": "51c6a225ea941ca78c1dfb8d31251d0e6342231655a3e51fb9b995a969f35f6a",
    "right_multiplication": "e3807b9591b52a097ffb3eac32da3aeb59bb2e9e657dbc9b66b4a6f7de4a3de5",
    "scaled_float": "91f5a0efd88f3cdacfdcdbd7410bd2bcad68d68ccd46822d624fc9ea8a45633a",
    "scaled_int": "3c85f6f24c26dd7fcb1628102f655479fbfe3860a400d18539f15aeae450b684",
    "scaled_complex": "1d4d66d03865503f7ba16767aa77fd4bf89645fbc8a804fc3885de481a49dc2f",
    "sum_empty": "bb21cb5825bb7c1fb2abd0e324c4c2149d83d4b493cdaa970ac61f2b029975b9",
    "every_kind": "f426a756796abb843d341404805b9d5a1e14e71ea2c7b46f5147fe2667e0fc66",
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
    "constants_kp.json": "b2bd4ba1652a68e783f6a6f99a481f2da0c298ee5d41d4be1b00f2c4536eb585",
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
        '{"c": [3, 0], "inner": {"kind": "kp_bicentralizer", "p": 2, "phi": "s"}, '
        '"kind": "scaled"}')
    assert "p_inner" not in spec_to_doc(Lowered(KPBicentralizer("s", 2.0), s=4.0))


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_canned_config_spec_hashes(name):
    cfg = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    if cfg.get("slot") == "vec":
        doc = qmap_to_doc(qmap_from_doc(cfg["spec"]))
    else:
        doc = spec_to_doc(spec_from_doc(cfg["spec"]))
    assert doc == cfg["spec"]
    assert doc_hash(doc) == GOLDEN_CONFIGS[name]
