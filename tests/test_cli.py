from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gk3.cli import COMMANDS, GROUPS, _add_commands, build_parser, main
from gk3.intlinalg import matmul, transpose
from gk3.lattices import MAX_SPLIT_RADIUS, k3_lattice
from gk3.mukai import check_gcy, deg2_vector, exponential_class, two_form_class
from gk3.rigidity import MAX_FORMS_DET, MAX_SURVEY_SAMPLES
from gk3.serialize import class_json, dumps_canonical
from test_intlinalg_oracle import dense_gram

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, name: str, body: dict) -> str:
    path = tmp_path / name
    path.write_text(dumps_canonical(body), encoding="utf-8")
    return str(path)


def _run(capsys, argv) -> tuple[int, dict]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _kahler_doc(n: int = 1) -> dict:
    g = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: n})))
    return {"class": class_json(g)}


def _pair_doc() -> dict:
    a = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    b = check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})))
    return {"pair": {"phiA": class_json(a), "phiB": class_json(b)}}


def test_lattice_info(tmp_path, capsys):
    path = _write(tmp_path, "u.json", {"lattice": {"named": "U"}})
    code, out = _run(capsys, ["lattice", "info", path])
    assert code == 0
    assert out == {
        "rank": 2,
        "even": True,
        "signature": [1, 1, 0],
        "det": -1,
        "discriminant": [],
    }


def test_lattice_info_runs_one_elimination(tmp_path, capsys, signature_sizes):
    # the determinant is the last pivot of the signature pass, which runs
    # once for both; no second (Bareiss) elimination is left to run
    path = _write(tmp_path, "g.json", {"lattice": {"gram": [[2, 1, 0], [1, 0, 3], [0, 3, -4]]}})
    code, out = _run(capsys, ["lattice", "info", path])
    assert code == 0 and out["signature"] == [2, 1, 0] and out["det"] == -14
    assert signature_sizes == [3]


def test_lattice_info_accepts_sublattice(tmp_path, capsys):
    body = {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}}
    code, out = _run(capsys, ["lattice", "info", _write(tmp_path, "s.json", body)])
    assert code == 0
    assert out["rank"] == 1 and out["det"] == 2


def test_lattice_reduce2(tmp_path, capsys):
    path = _write(tmp_path, "g.json", {"lattice": {"gram": [[2, 2], [2, 4]]}})
    code, out = _run(capsys, ["lattice", "reduce2", path])
    assert code == 0
    assert out["reduced"] == [[2, 0], [0, 2]]
    assert out["transform"] == [[1, -1], [0, 1]]


def test_lattice_complement(tmp_path, capsys):
    body = {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}}
    code, out = _run(capsys, ["lattice", "complement", _write(tmp_path, "s.json", body)])
    assert code == 0
    assert out["basis"] == [[1, -1]]
    assert out["gram"] == [[-2]]


def test_lattice_complement_rejects_plain_lattice(tmp_path, capsys):
    path = _write(tmp_path, "u.json", {"lattice": {"named": "U"}})
    code, out = _run(capsys, ["lattice", "complement", path])
    assert code == 2
    assert "sublattice" in out["error"]


def test_polarization_document_is_unknown(tmp_path, capsys):
    k = {"ambient": {"named": "K3"}, "basis": [[1, 1] + [0] * 20]}
    body = {"polarization": {"K": k, "L": k, "witnessA": {}, "witnessB": {}}}
    code, out = _run(capsys, ["lattice", "info", _write(tmp_path, "p.json", body)])
    assert code == 2
    assert out == {"error": "at document: unknown key 'polarization'"}


def test_lattice_split_u(tmp_path, capsys):
    path = _write(tmp_path, "k3.json", {"lattice": {"named": "K3"}})
    code, out = _run(capsys, ["lattice", "split-u", path])
    assert code == 0
    assert out["result"] == "split"

    definite = _write(tmp_path, "pd.json", {"lattice": {"named": {"diag": [2, 2]}}})
    code2, out2 = _run(capsys, ["lattice", "split-u", definite])
    assert code2 == 0
    assert out2 == {
        "result": "none",
        "reason": "definite lattice has no nonzero isotropic vector",
    }


def _k3_rows(*supports: dict) -> list[list[int]]:
    return [[support.get(i, 0) for i in range(22)] for support in supports]


@pytest.mark.parametrize(
    "command, rows",
    [
        ("info", _k3_rows({0: 1, 1: 1, 2: 1}, {1: 1, 3: 1}, {6: 1})),
        ("reduce2", _k3_rows({0: 1, 1: 1}, {0: 1, 1: 1, 2: 1, 3: 1})),
        # U + <2> + A2(-1): the complement is a sublattice of the sublattice
        ("split-u", _k3_rows({0: 1}, {1: 1}, {2: 1, 3: 1}, {6: 1}, {7: 1})),
    ],
)
def test_sublattice_prints_as_the_lattice_of_its_induced_gram(tmp_path, capsys, command, rows):
    gram = matmul(matmul(rows, k3_lattice().gram), transpose(rows))
    sub = _write(tmp_path, "s.json", {"sublattice": {"ambient": {"named": "K3"}, "basis": rows}})
    lat = _write(tmp_path, "l.json", {"lattice": {"gram": gram}})
    outs = []
    for path in (sub, lat):
        assert main(["lattice", command, path]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]).get("result", "split") == "split"  # split-u found its plane


def test_class_check(tmp_path, capsys):
    code, out = _run(capsys, ["class", "check", _write(tmp_path, "c.json", _kahler_doc())])
    assert code == 0
    assert out == {"valid": True, "type": "A", "norm": "4"}


def test_class_check_invalid_is_exit_1(tmp_path, capsys):
    bad = {"class": {"deg0": "1", "deg2": ["0"] * 22, "deg4": "1"}}
    code, out = _run(capsys, ["class", "check", _write(tmp_path, "bad.json", bad)])
    assert code == 1
    assert out["error"] == "not isotropic: <phi,phi> = -2"


def test_class_pairing(tmp_path, capsys):
    code, out = _run(capsys, ["class", "pairing", _write(tmp_path, "p.json", _pair_doc())])
    assert code == 0
    assert out["pairing"] == {"re": "0", "im": "0"}


def test_class_bfield(tmp_path, capsys):
    body = dict(_kahler_doc())
    body["bfield"] = ["1/2"] + ["0"] * 21
    code, out = _run(capsys, ["class", "bfield", _write(tmp_path, "b.json", body)])
    assert code == 0
    assert out["class"]["deg2"][0] == {"im": "1", "re": "1/2"}
    assert out["class"]["deg4"] == {"im": "1/2", "re": "-1"}


def test_class_bfield_requires_bfield_key(tmp_path, capsys):
    code, out = _run(capsys, ["class", "bfield", _write(tmp_path, "c.json", _kahler_doc())])
    assert code == 2
    assert "bfield" in out["error"]


def test_class_lpsi(tmp_path, capsys):
    code, out = _run(capsys, ["class", "lpsi", _write(tmp_path, "c.json", _kahler_doc())])
    assert code == 0
    assert out["rank"] == 2
    assert out["reduced"] == [[2, 0], [0, 2]]


def test_class_plane(tmp_path, capsys):
    code, out = _run(capsys, ["class", "plane", _write(tmp_path, "c.json", _kahler_doc())])
    assert code == 0
    assert out["gram"] == [["2", "0"], ["0", "2"]]


def test_gk3_validate(tmp_path, capsys):
    code, out = _run(capsys, ["gk3", "validate", _write(tmp_path, "p.json", _pair_doc())])
    assert code == 0
    assert out["status"] == "Verified"
    assert out["types"] == {"phiA": "A", "phiB": "B"}
    assert out["pi_gram"][0] == ["2", "0", "0", "0"]


def test_gk3_ns_t(tmp_path, capsys):
    code, out = _run(capsys, ["gk3", "ns-t", _write(tmp_path, "p.json", _pair_doc())])
    assert code == 0
    assert out["ns"]["rank"] == 22
    assert out["ns"]["signature"] == [2, 20, 0]
    assert out["ns"]["discriminant"] == [2, 2]
    assert out["t"]["rank"] == 22
    assert "convention" in out


def test_gk3_classify_hk(tmp_path, capsys):
    code, out = _run(capsys, ["gk3", "classify-hk", _write(tmp_path, "p.json", _pair_doc())])
    assert code == 0
    assert out["case"] == "B-with-A"
    assert out["orthogonal"] is True
    assert out["norms_match"] is True


def test_gk3_profile(tmp_path, capsys):
    code, out = _run(capsys, ["gk3", "profile", _write(tmp_path, "p.json", _pair_doc())])
    assert code == 0
    assert out["ns_signature"] == [2, 20, 0]
    assert out["t_signature"] == [2, 20, 0]
    assert out["intersection_rank"] == 20
    assert out["intersection_signature"] == [0, 20, 0]


def test_rigid_complex_and_kahler(tmp_path, capsys):
    path = _write(tmp_path, "p.json", _pair_doc())
    code, out = _run(capsys, ["rigid", "complex", path])
    assert code == 0
    assert out["kind"] == "ComplexRigid"
    assert out["invariant"] == [[2, 0], [0, 2]]

    code2, out2 = _run(capsys, ["rigid", "kahler", path])
    assert code2 == 0
    assert out2["kind"] == "KahlerRigid"
    assert out2["omega_sq"] == "2"


def test_rigid_survey(capsys):
    code, out = _run(capsys, ["rigid", "survey", "--max-det", "4", "--denom-bound", "2"])
    assert code == 0
    assert out["samples"] == 40
    assert out["achieved"] == [[[2, 0], [0, 2]]]
    assert out["missing"] == [[[2, 1], [1, 2]]]
    assert list(out["per_form_witness"]) == ["[[2,0],[0,2]]"]


def test_rigid_forms(capsys):
    code, out = _run(capsys, ["rigid", "forms", "--max-det", "4"])
    assert code == 0
    assert out["forms"] == [[[2, 0], [0, 2]], [[2, 1], [1, 2]]]


# sha256 of the canonical stdout of
# `gk3 rigid survey --max-det 40 --denom-bound 6 --sqrt-d 2`, as printed by
# the 24-wide survey that the Sat(P) survey replaced
SURVEY_40_6_SHA256 = "406c0e7eebbfd44b78459010a6cd6e96c709f158d7c88557a6bb3b9db6e3fb79"


def test_rigid_survey_output_is_pinned(capsys):
    code = main(["rigid", "survey", "--max-det", "40", "--denom-bound", "6", "--sqrt-d", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SURVEY_40_6_SHA256


def test_rigid_forms_and_survey_caps(capsys):
    too_big = str(MAX_FORMS_DET + 1)
    code, out = _run(capsys, ["rigid", "forms", "--max-det", too_big])
    assert code == 1
    assert "MAX_FORMS_DET" in out["error"]
    # refused before the sample count, which would loop over isqrt(max_det)^2 points
    code, out = _run(capsys, ["rigid", "survey", "--max-det", str(10**18), "--denom-bound", "1"])
    assert code == 1
    assert "MAX_FORMS_DET" in out["error"]
    code, out = _run(capsys, ["rigid", "survey", "--max-det", "100", "--denom-bound", "100"])
    assert code == 1
    assert "MAX_SURVEY_SAMPLES" in out["error"]
    code, out = _run(capsys, ["rigid", "forms", "--max-det", str(MAX_FORMS_DET)])
    assert code == 0
    code, out = _run(capsys, ["rigid", "survey", "--max-det", "16", "--denom-bound", "4", "--sqrt-d", "2"])
    assert code == 0
    assert out["samples"] == 1440 <= MAX_SURVEY_SAMPLES


def _sparse_class(deg0, deg2: dict, deg4) -> dict:
    return {"deg0": deg0, "deg2": [deg2.get(i, "0") for i in range(22)], "deg4": deg4}


_R2 = {"a": "0", "b": "1"}  # sqrt(2)

# exp(B + i sqrt2 H) with B = e1/2 + f1/3, H = e1 + f1, and the type B
# period sqrt2 ((e2 + f2) + i (e3 + f3)); both norms are 8
SQRT2_PHI_A = _sparse_class(
    "1",
    {0: {"re": "1/2", "im": _R2}, 1: {"re": "1/3", "im": _R2}},
    {"re": "-11/6", "im": {"a": "0", "b": "5/6"}},
)
SQRT2_PHI_B = _sparse_class("0", {2: _R2, 3: _R2, 4: {"im": _R2}, 5: {"im": _R2}}, "0")
SQRT2_BFIELD = {0: {"a": "1/2", "b": "1"}, 1: {"a": "0", "b": "-1/3"}, 7: "2", 9: {"a": "1", "b": "1"}}

# exp(B + i (e1 + f1)) and exp(B + e3 + 2 f3 + i (e2 + f2)) for
# B = e1/2 - f2/3 + (first E8 generator): an A-with-A pair
RATIONAL_PHI_A = _sparse_class(
    "1", {0: {"re": "1/2", "im": "1"}, 1: {"im": "1"}, 3: "-1/3", 6: "1"}, {"re": "-2", "im": "1/2"}
)
RATIONAL_PHI_B = _sparse_class(
    "1", {0: "1/2", 2: {"im": "1"}, 3: {"re": "-1/3", "im": "1"}, 4: "1", 5: "2", 6: "1"}, {"im": "-1/3"}
)
RATIONAL_BFIELD = {0: "1/2", 5: "-2/3", 6: "1", 21: "3"}

PIN_DOCUMENTS = {
    "sqrt2": (
        {"sqrt_d": 2, "pair": {"phiA": SQRT2_PHI_A, "phiB": SQRT2_PHI_B}},
        {"sqrt_d": 2, "class": SQRT2_PHI_A, "bfield": [SQRT2_BFIELD.get(i, "0") for i in range(22)]},
    ),
    "rational": (
        {"pair": {"phiA": RATIONAL_PHI_A, "phiB": RATIONAL_PHI_B}},
        {"class": RATIONAL_PHI_A, "bfield": [RATIONAL_BFIELD.get(i, "0") for i in range(22)]},
    ),
}
CLASS_COMMANDS = ("check", "pairing", "bfield", "lpsi", "plane")
PAIR_COMMANDS = ("gk3 validate", "gk3 ns-t", "gk3 classify-hk", "gk3 profile", "rigid kahler", "rigid complex")

# sha256 of the canonical stdout of each command on the documents above,
# computed with the per-coordinate class representation
PINNED_STDOUT_SHA256 = {
    "rational": {
        "class check": "f553e0ccb6565e95cfe53b21c158aa67b86826dead1e47b5ca8fa559f983f13e",
        "class pairing": "fb185f6c44ccfd7380c9acb4b4aee9f25d5b66f6d33f53dd21968f3829f38612",
        "class bfield": "a50519b051f5856b875f6909104ae772829ec6da6f93a419eac2b72542d5f0a8",
        "class lpsi": "10d5080dec94932d9d9753972f4387cef003cc14071244be1b0960fccaef3c81",
        "class plane": "10b7fb13708e20748a505e4612cae98ff738a0ee6b0a710f38c964f7e05aabae",
        "gk3 validate": "f751f55031ebd8cd4653bd3a1468e4ce70810f370b192a96e1e52f99ba7010b5",
        "gk3 ns-t": "f32db1ae7f7bf4fa7a49c64df5782437db4bf2706cd5956488fa2842f40e780b",
        "gk3 classify-hk": "b8e9c964470a366404e9cd188fa8238ad3fac158fb07be12c138ecd26f82fbbb",
        "gk3 profile": "fa634d983417ac3f63a168cf7d8c179a3df3c01eef63729799d5b52a3255c09f",
        "rigid kahler": "bb1b3954aa48d375a327dfda40bfe95fa2744763d45e38eea09078ac888b618a",
        "rigid complex": "6fd8b5b3cb8a6d9b36b34cdf4ffb25d64750c2708e20b072212cb5b0bdea5333",
    },
    "sqrt2": {
        "class check": "83c5c63e33f296bb4a7a69aaf79f333f417a948c2ecbbf174a9cacea4ea830b7",
        "class pairing": "fb185f6c44ccfd7380c9acb4b4aee9f25d5b66f6d33f53dd21968f3829f38612",
        "class bfield": "acf1f5af9598f84cd33cbfdec21517d64e54f1c0f4481926e3cfa08ecf847704",
        "class lpsi": "5136866d0ccb85f1956eebb5132d82eb85b5b8ad7e84a264b10d06ac371dfe6d",
        "class plane": "27d876577cece80b4d72d78cf0cb59e6e464d49b623d41bad40b4a70feb49aab",
        "gk3 validate": "13cff074cd1c5c7602cb6be0b461646287017b0bc0a49683b95edad00787c56e",
        "gk3 ns-t": "7168113a20eb075060588fea6f4beb998a91b62461dd92f0d92e9691598ec223",
        "gk3 classify-hk": "6d48b1bfdc956635bf43e305c3097218de4b1e96efd855fb7d08eeac21f72aab",
        "gk3 profile": "fa634d983417ac3f63a168cf7d8c179a3df3c01eef63729799d5b52a3255c09f",
        "rigid kahler": "30d72dcddf7775592a4eb2446448f14ef1cde508d369c37c173dee3ec2646c35",
        "rigid complex": "261ebf95e19eeaa3c72b1ded658c156110b8870038be1e6e6aa227a1984ca690",
    },
}


@pytest.mark.parametrize("doc_name", sorted(PIN_DOCUMENTS))
def test_class_and_pair_commands_are_pinned(tmp_path, capsys, doc_name):
    pair_doc, class_doc = PIN_DOCUMENTS[doc_name]
    pair_path = _write(tmp_path, "pair.json", pair_doc)
    class_path = _write(tmp_path, "class.json", class_doc)
    runs = [(f"class {c}", ["class", c, pair_path if c == "pairing" else class_path]) for c in CLASS_COMMANDS]
    runs += [(c, [*c.split(), pair_path]) for c in PAIR_COMMANDS]
    got = {}
    for label, argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (label, out)
        got[label] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert got == PINNED_STDOUT_SHA256[doc_name]


# sha256 of the canonical stdout of the mirror builder for n = 1..10, and of
# `mirror check` on the two families it emits for n = 1
PINNED_MIRROR_SHA256 = {
    "mirror shioda-inose --n 1": "650ce2643cd1c5fe7870ac63b6683153c5061ad3e0cea74f52d0c0c10f9630c6",
    "mirror shioda-inose --n 2": "02b89c4f546333b8b9da8421c05521039f212573c2d27aafbb77645c87abbda7",
    "mirror shioda-inose --n 3": "df1001f55179c3fdba5ece7d1a4d30f53ec4ac92562680b56d829eaef51f6eba",
    "mirror shioda-inose --n 4": "3057a09ff7827270b9d2d5fec319248a1bc53628b6fb2c9d05857b5efb5c45f1",
    "mirror shioda-inose --n 5": "d6d05e15273ff038302c9fa456e6e7869e466d1670d6530817c79ebf64297721",
    "mirror shioda-inose --n 6": "e617c65e242c739cd6dffcef391febc7de06480c992db89890b5aa3da68fbc12",
    "mirror shioda-inose --n 7": "db92cbe459e323d7d12be30d8ed55cbd36dda7b42764478d4ae63136abce2c42",
    "mirror shioda-inose --n 8": "dd14c3b3d66ff1d442a078ad64837db83a605b867308e2e097b3ffe361f0b717",
    "mirror shioda-inose --n 9": "aa4d92e953085cc018ce0714c959abbc7ae9a596b56c814f22678c541b92391f",
    "mirror shioda-inose --n 10": "4cdad3544d1e3ae13758474c500e32398f12c4e7abdafaf0a64d00524da8b6d8",
    "mirror check": "a7b6d704ebbc42ed83308ed61546ec6c73ce92221964e7c30a1ab28d52978af6",
}

# sha256 of the canonical stdout of `lattice complement` and `mirror dolgachev`
# on the degree-2 K3 sublattice <e1 + f1>
def test_lattice_split_u_of_a_degenerate_lattice(tmp_path, capsys):
    body = {"lattice": {"named": {"sum": ["U", {"diag": [0]}]}}}
    code, out = _run(capsys, ["lattice", "split-u", _write(tmp_path, "u0.json", body)])
    assert code == 0
    assert out == {
        "complement_gram": [[0]],
        "complement_signature": [0, 0, 1],
        "e": [1, 0, 0],
        "f": [0, 1, 0],
        "result": "split",
    }


DEG2_K3_DOC = {"sublattice": {"ambient": {"named": "K3"}, "basis": [[1, 1] + [0] * 20]}}
PINNED_DEG2_SHA256 = {
    "lattice complement": "b3c35c120094964552919c6fe04b589a65d98d65bb5171c68d4e292bd2b9ec31",
    "mirror dolgachev": "f34de5337be57dfe226f6d65556da5a6187afd406842b928c080a97e4c07babe",
}


# sha256 of the canonical stdout of `lattice split-u` on the K3 lattice and on
# U + U(2)
SPLIT_U_DOCS = {
    "K3": {"lattice": {"named": "K3"}},
    "U + U(2)": {"lattice": {"named": {"sum": ["U", {"rescale": {"of": "U", "by": 2}}]}}},
}
PINNED_SPLIT_U_SHA256 = {
    "K3": "7266f25bd724216d02d7dbaaf081b9ec7031f1f7b920a6947feeed21da92b4cf",
    "U + U(2)": "82273669108c2cb3b223591eb17159b002ced3ff29e7847690e56e56af0f4d10",
}


def test_mirror_commands_are_pinned(tmp_path, capsys):
    got = {}
    for n in range(1, 11):
        assert main(["mirror", "shioda-inose", "--n", str(n)]) == 0
        out = capsys.readouterr().out
        got[f"mirror shioda-inose --n {n}"] = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if n == 1:
            families = json.loads(out)
    f1 = _write(tmp_path, "f1.json", {"family": families["family1"]})
    f2 = _write(tmp_path, "f2.json", {"family": families["family2"]})
    assert main(["mirror", "check", f1, f2]) == 0
    got["mirror check"] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == PINNED_MIRROR_SHA256


def test_degree2_complement_and_dolgachev_are_pinned(tmp_path, capsys):
    path = _write(tmp_path, "kp.json", DEG2_K3_DOC)
    got = {}
    for label in PINNED_DEG2_SHA256:
        assert main([*label.split(), path]) == 0
        got[label] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == PINNED_DEG2_SHA256


def test_split_u_is_pinned(tmp_path, capsys):
    got = {}
    for label, body in SPLIT_U_DOCS.items():
        assert main(["lattice", "split-u", _write(tmp_path, "l.json", body)]) == 0
        got[label] = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert got == PINNED_SPLIT_U_SHA256


HUGE_FIELD_TAG = 1000000000000000003  # trial division to its square root never ends


def _gk3(args, timeout: float = 60) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gk3", *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_huge_sqrt_d_header_is_a_schema_error(tmp_path):
    path = _write(tmp_path, "d.json", {"sqrt_d": HUGE_FIELD_TAG, "lattice": {"named": "U"}})
    proc = _gk3(["lattice", "info", path])
    assert proc.returncode == 2
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("at document.sqrt_d:")
    assert "MAX_FIELD_TAG" in error


def test_huge_sqrt_d_flag_is_a_field_tag_error():
    proc = _gk3(["rigid", "survey", "--max-det", "4", "--denom-bound", "1", "--sqrt-d", str(HUGE_FIELD_TAG)])
    assert proc.returncode == 1
    assert "MAX_FIELD_TAG" in json.loads(proc.stdout)["error"]
    proc = _gk3(["rigid", "survey", "--max-det", "4", "--denom-bound", "1", "--sqrt-d", "4"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"] == "field tag must be a squarefree integer >= 2, got 4"


def test_integer_literal_over_the_digit_limit_is_a_schema_error(tmp_path):
    path = tmp_path / "big.json"
    path.write_text('{"lattice": {"diag": [' + "7" * 5001 + "]}}", encoding="utf-8")
    proc = _gk3(["lattice", "info", str(path)])
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("invalid JSON:") and "4300 digits" in error


def test_result_over_the_digit_limit_is_a_json_error(tmp_path):
    body = {"lattice": {"named": {"rescale": {"of": "K3", "by": 10**500}}}}
    proc = _gk3(["lattice", "info", _write(tmp_path, "k3.json", body)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("result not printable:") and "4300 digits" in error


def test_long_value_in_an_error_message_is_named_by_its_size(tmp_path):
    # <phi, phi> = -2 deg0 deg4 has a 6,001-digit denominator, over the print limit
    big = 10**3000
    doc = {"class": {"deg0": f"1/{big}", "deg2": ["0"] * 22, "deg4": f"1/{big + 3}"}}
    path = _write(tmp_path, "c.json", doc)
    proc = _gk3(["class", "check", path])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    error = json.loads(proc.stdout)["error"]
    assert error.startswith("not isotropic: <phi,phi> = <a ") and "-bit value" in error
    assert "4300-digit" in error and len(error) < 200
    start = time.perf_counter()
    assert main(["class", "check", path]) == 1
    assert time.perf_counter() - start < 1.0


def test_rational_over_the_digit_limit_is_a_short_schema_error(tmp_path, capsys):
    doc = {"class": {"deg0": "1/1" + "0" * 4400, "deg2": ["0"] * 22, "deg4": "1"}}
    code = main(["class", "check", _write(tmp_path, "c.json", doc)])
    out = capsys.readouterr().out
    assert code == 2
    assert len(out.encode("utf-8")) < 1024
    error = json.loads(out)["error"]
    assert error.startswith("at document.class.deg0: ") and "limit (4300 digits)" in error


def test_lattice_info_on_a_dense_even_gram_finishes(tmp_path):
    # 6x6 even Gram whose discriminant group is cyclic of order 229717
    gram = [
        [2, -5, -4, -5, 0, 2],
        [-5, 8, 2, -3, -3, 5],
        [-4, 2, 6, -2, -6, 5],
        [-5, -3, -2, 2, 0, -5],
        [0, -3, -6, 0, -6, 2],
        [2, 5, 5, -5, 2, -4],
    ]
    proc = _gk3(["lattice", "info", _write(tmp_path, "g.json", {"lattice": {"gram": gram}})])
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["det"] == -229717
    assert out["discriminant"] == [229717]


# ``lattice info`` on ``dense_gram(1, n)``; the digest pins the whole stdout.
# det and discriminant were checked once against sympy 1.14: det as
# ``Matrix(g).det(method="bareiss")``; at n = 32 and 40 the discriminant as
# the divisors > 1 of ``smith_normal_form(Matrix(g), domain=ZZ)``, and at
# n = 48, where that ran over 5 minutes, as cyclic of order |det|: the
# entries of det * g^-1 (over QQ), the (n-1)-minors, have gcd 1
DENSE_GRAM_INFO = {
    32: (
        868237233350353371324286269810444066046113,
        [3, 289412411116784457108095423270148022015371],
        "b8795e86fae3dca4695d0dc70ddcbd4bfa819988d91770b7a561371d9454f23c",
    ),
    40: (
        47145459456500125322571071653319359153417780371051537,
        [3, 15715153152166708440857023884439786384472593457017179],
        "bd6e8c1b76be69d9fc89e5f1bae11dcaf9fbc1a8f35787234734c6762ce9b3a8",
    ),
    48: (
        4486428008588554703135819278123030336553379644519652240397702671173,
        [4486428008588554703135819278123030336553379644519652240397702671173],
        "b2dfca456902182aeefec9a16a268c77d474b65005437fcb8c24f0750bc71f29",
    ),
}


@pytest.mark.parametrize("n", sorted(DENSE_GRAM_INFO))
def test_lattice_info_on_a_dense_gram_is_pinned_and_fast(tmp_path, n):
    """A Hermite elimination that lets its entries grow takes seconds at
    n = 32 and minutes at n = 40; the timeout makes such a run fail fast."""
    det, discriminant, digest = DENSE_GRAM_INFO[n]
    path = _write(tmp_path, "g.json", {"lattice": {"gram": [list(row) for row in dense_gram(1, n)]}})
    start = time.perf_counter()
    proc = _gk3(["lattice", "info", path], timeout=5)
    assert time.perf_counter() - start < 1.0
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert (out["rank"], out["det"], out["discriminant"]) == (n, det, discriminant)
    assert hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest() == digest


def test_mirror_commands_check_each_polarization_once(tmp_path, capsys, monkeypatch):
    import gk3.mirror

    calls = []
    check = gk3.mirror.check_polarization
    monkeypatch.setattr(
        gk3.mirror, "check_polarization", lambda p, x: calls.append(1) or check(p, x)
    )
    code, out = _run(capsys, ["mirror", "shioda-inose", "--n", "5"])
    assert code == 0 and out["mirror"]["verified"] is True
    assert len(calls) == 2  # one report per family
    f1 = _write(tmp_path, "f1.json", {"family": out["family1"]})
    f2 = _write(tmp_path, "f2.json", {"family": out["family2"]})
    calls.clear()
    code, out = _run(capsys, ["mirror", "check", f1, f2])
    assert code == 0 and out["verified"] is True
    assert len(calls) == 2


def test_mirror_commands_compute_each_ns_and_t_once(tmp_path, capsys, ortho_complement_calls):
    calls = ortho_complement_calls
    code, out = _run(capsys, ["mirror", "shioda-inose", "--n", "5"])
    assert code == 0 and out["mirror"]["verified"] is True
    assert len(calls) <= 4  # NS and T of each member; the polarization slots share them
    f1 = _write(tmp_path, "f1.json", {"family": out["family1"]})
    f2 = _write(tmp_path, "f2.json", {"family": out["family2"]})
    calls.clear()
    code, out = _run(capsys, ["mirror", "check", f1, f2])
    assert code == 0 and out["verified"] is True
    assert len(calls) <= 4  # NS and T of each member


def test_mirror_shioda_inose_and_check(tmp_path, capsys):
    code, out = _run(capsys, ["mirror", "shioda-inose", "--n", "1"])
    assert code == 0
    assert out["t_x_reduced"] == [[2, 0], [0, 2]]
    assert out["ns_dual_reduced"] == [[2, 0], [0, 2]]
    assert out["moduli_dims"] == [[20, 0], [0, 20]]
    assert out["ns_x"]["rank"] == 22
    assert out["ns_x"]["signature"] == [2, 20, 0]
    assert out["mirror"]["verified"] is True
    assert all(p["passed"] for p in out["polarizations"])

    # the emitted family documents feed back into mirror check
    f1 = _write(tmp_path, "f1.json", {"family": out["family1"]})
    f2 = _write(tmp_path, "f2.json", {"family": out["family2"]})
    code2, out2 = _run(capsys, ["mirror", "check", f1, f2])
    assert code2 == 0
    assert out2["verified"] is True
    assert out2["dims"] == [[20, 0], [0, 20]]


def test_family_over_a_foreign_ambient_is_refused(tmp_path, capsys):
    code, out = _run(capsys, ["mirror", "shioda-inose", "--n", "1"])
    assert code == 0
    family = out["family1"]
    family["polarization"]["K"]["ambient"] = {"named": {"rescale": {"of": "Mukai", "by": 2}}}
    f1 = _write(tmp_path, "f1.json", {"family": family})
    f2 = _write(tmp_path, "f2.json", {"family": out["family2"]})
    code, out = _run(capsys, ["mirror", "check", f1, f2])
    assert code == 1
    assert out == {"error": "polarization slot K must live in the Mukai lattice"}


@pytest.mark.parametrize("slot", ["K", "L"])
def test_polarization_slot_over_the_k3_lattice_is_refused(tmp_path, capsys, slot):
    code, out = _run(capsys, ["mirror", "shioda-inose", "--n", "1"])
    assert code == 0
    family = out["family1"]
    identity = [[int(i == j) for j in range(22)] for i in range(22)]
    family["polarization"][slot] = {"ambient": {"named": "K3"}, "basis": identity}
    f1 = _write(tmp_path, "f1.json", {"family": family})
    f2 = _write(tmp_path, "f2.json", {"family": out["family2"]})
    proc = _gk3(["mirror", "check", f1, f2])
    assert proc.returncode == 1
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"error": f"polarization slot {slot} must live in the Mukai lattice"}


def test_split_radius_is_capped(tmp_path):
    k3 = _write(tmp_path, "k3.json", {"lattice": {"named": "K3"}})
    kp = _write(
        tmp_path, "kp.json", {"sublattice": {"ambient": {"named": "K3"}, "basis": [[1, 1] + [0] * 20]}}
    )
    # both searches find a split at once, so an unchecked radius exits 0
    for argv in (["lattice", "split-u", k3], ["mirror", "dolgachev", kp]):
        for big in (MAX_SPLIT_RADIUS + 1, 1000):
            proc = _gk3([*argv, "--radius", str(big)])
            assert proc.returncode == 1
            assert json.loads(proc.stdout) == {
                "error": f"radius {big} is above the limit MAX_SPLIT_RADIUS = {MAX_SPLIT_RADIUS}"
            }
        for bad in ("0", "-5"):
            proc = _gk3([*argv, "--radius", bad])
            assert proc.returncode == 1
            assert json.loads(proc.stdout) == {"error": f"radius must be >= 1, got {bad}"}
        assert _gk3([*argv, "--radius", str(MAX_SPLIT_RADIUS)]).returncode == 0


def test_mirror_dolgachev(tmp_path, capsys):
    code, out = _run(capsys, ["mirror", "dolgachev", _write(tmp_path, "kp.json", DEG2_K3_DOC)])
    assert code == 0
    assert out["result"] == "mirror"
    assert out["duality"]["verdict"] == "GenusInvariantsMatch"


def test_schema_error_paths(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", {"sqrt_d": 4, "lattice": {"named": "U"}})
    code, out = _run(capsys, ["lattice", "info", path])
    assert code == 2
    assert out["error"].startswith("at document.sqrt_d:")

    missing = str(tmp_path / "does-not-exist.json")
    code2, out2 = _run(capsys, ["lattice", "info", missing])
    assert code2 == 2
    assert "cannot read" in out2["error"]


def test_underscored_integer_is_a_schema_error(tmp_path, capsys):
    doc = {"lattice": {"gram": [["1_0", "0"], ["0", "1"]]}}
    code, out = _run(capsys, ["lattice", "info", _write(tmp_path, "u.json", doc)])
    assert code == 2
    assert out == {"error": "at document.lattice.gram[0][0]: not a rational: '1_0'"}


def test_deeply_nested_json_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out = _run(capsys, ["lattice", "info", str(path)])
    assert code == 2
    assert out == {"error": "invalid JSON: nesting too deep"}


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(dumps_canonical({"lattice": {"named": "U"}})))
    code, out = _run(capsys, ["lattice", "info", "-"])
    assert code == 0
    assert out["rank"] == 2


def test_output_is_byte_deterministic(tmp_path):
    path = _write(tmp_path, "p.json", _pair_doc())
    runs = [
        subprocess.run(
            [sys.executable, "-m", "gk3.cli", "gk3", "ns-t", path],
            capture_output=True,
            text=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == 0
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith("\n")


def test_python_dash_m_gk3(tmp_path):
    path = _write(tmp_path, "u.json", {"lattice": {"named": "U"}})
    proc = subprocess.run(
        [sys.executable, "-m", "gk3", "lattice", "info", path], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2



# gk3 modules that every command loads: the parser, the document format and
# the lattice layer under it
_CLI_CORE = {
    "gk3", "gk3.cli", "gk3.errors", "gk3.intlinalg", "gk3.lattices", "gk3.records", "gk3.scalars",
    "gk3.serialize",
}
_LOADED_BY_GROUP = {
    "lattice": _CLI_CORE,
    "class": _CLI_CORE | {"gk3.mukai"},
    "gk3": _CLI_CORE | {"gk3.mukai", "gk3.pairs"},
    "rigid": _CLI_CORE | {"gk3.mukai", "gk3.pairs", "gk3.rigidity"},
    "mirror": _CLI_CORE | {"gk3.mukai", "gk3.pairs", "gk3.mirror"},
}
_RUN_AND_LIST_MODULES = (
    "import sys\n"
    "from gk3.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(sys.modules), file=sys.stderr)\n"
    "sys.exit(code)\n"
)


def _modules_after(code: str, *args) -> set[str]:
    """The modules loaded after running ``code`` in a fresh interpreter,
    which prints them to stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stdout
    return set(proc.stderr.split())


@pytest.mark.parametrize(
    "argv, doc, group",
    [
        # a sublattice with no ambient lives in the Mukai lattice
        (["lattice", "info"], {"sublattice": {"basis": [[1, 1] + [0] * 22]}}, "lattice"),
        (["class", "check"], _kahler_doc(), "class"),
        (["gk3", "ns-t"], _pair_doc(), "gk3"),
        (["rigid", "kahler"], _pair_doc(), "rigid"),
        (["mirror", "shioda-inose", "--n", "1"], None, "mirror"),
        # the forms are the lattice layer's, so this loads what a lattice command does
        (["rigid", "forms", "--max-det", "4"], None, "lattice"),
    ],
    ids=["lattice", "class", "gk3", "rigid", "mirror", "rigid-forms"],
)
def test_a_command_loads_only_its_group_modules(tmp_path, argv, doc, group):
    args = argv if doc is None else [*argv, _write(tmp_path, "d.json", doc)]
    loaded = _modules_after(_RUN_AND_LIST_MODULES, *args)
    assert {m for m in loaded if m.partition(".")[0] == "gk3"} == _LOADED_BY_GROUP[group]
    # start-up pays for neither (gk3.records makes the value types)
    assert not loaded & {"dataclasses", "inspect"}


def _console_script(bin_dir: Path, name: str) -> None:
    """Write the launcher pip generates for ``[project.scripts][name]`` into ``bin_dir``."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"][name]
    module, func = entry.split(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)


def test_console_script_entry_point(tmp_path):
    """The ``gk3`` entry of this checkout's pyproject.toml resolves and runs, without an install."""
    path = _write(tmp_path, "u.json", {"lattice": {"named": "U"}})
    bin_dir = tmp_path / "bin"
    _console_script(bin_dir, "gk3")
    env = dict(os.environ)
    env["PATH"] = os.pathsep.join(filter(None, [str(bin_dir), env.get("PATH")]))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(["gk3", "lattice", "info", path], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2


def _readme_synopsis() -> list[tuple[str, str]]:
    """The (group, command) pairs of the README's `gk3 <group> a|b|c ...` lines."""
    text = (REPO / "README.md").read_text(encoding="utf-8")
    pairs = []
    for group, names in re.findall(r"^gk3 (\S+) (\S+)", text, flags=re.M):
        pairs += [(group, name) for name in names.split("|")]
    return pairs


def test_readme_synopsis_lists_exactly_the_registered_commands():
    pairs = _readme_synopsis()
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(COMMANDS)


_ONE_DOC_OF_EACH_KIND = {
    "lattice": {"lattice": {"named": "U"}},
    "sublattice": {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}},
    "class": _kahler_doc(),
}
_READS_A_DOCUMENT = [
    key
    for key, entry in COMMANDS.items()
    if entry.kinds or any(not flags[0].startswith("-") for flags, _ in entry.arguments)
]


@pytest.mark.parametrize("key", _READS_A_DOCUMENT, ids=" ".join)
def test_every_command_refuses_a_body_kind_it_does_not_accept(tmp_path, capsys, key):
    entry = COMMANDS[key]
    files = 1 if entry.kinds else sum(not f[0].startswith("-") for f, _ in entry.arguments)
    kind = next(k for k in _ONE_DOC_OF_EACH_KIND if k not in entry.kinds)
    path = _write(tmp_path, "d.json", _ONE_DOC_OF_EACH_KIND[kind])
    code, out = _run(capsys, [*key, *[path] * files])
    assert code == 2
    assert out["error"].startswith("this command needs a document with body ")
    assert out["error"].endswith(f", got {kind}")
    if entry.kinds:
        assert out["error"] == (
            f"this command needs a document with body {' or '.join(entry.kinds)}, got {kind}"
        )


@pytest.mark.parametrize("key", list(COMMANDS), ids=" ".join)
def test_every_command_has_help(capsys, key):
    with pytest.raises(SystemExit) as exit_info:
        main([*key, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: gk3 {' '.join(key)}")


# The help texts and argparse errors.  The parser builds the command parsers
# of the invoked group only, so each text is compared with the one from a
# parser with the command parsers of every group: no text may depend on which
# groups were built.  The comparison holds whatever wording a Python version
# gives argparse's own lines; the lines gk3 writes itself are pinned below.
GROUP_HELP = {
    "lattice": "integral lattice utilities",
    "class": "cohomology class operations",
    "gk3": "generalized K3 pair operations",
    "rigid": "rigidity classifiers and the form survey",
    "mirror": "polarizations and mirror constructions",
}
COMMAND_HELP = {
    ("lattice", "info"): "rank, signature, parity, determinant",
    ("lattice", "reduce2"): "Gauss-reduce a rank-2 positive form",
    ("lattice", "complement"): "orthogonal complement of a sublattice",
    ("lattice", "split-u"): "split off a hyperbolic plane summand",
    ("class", "check"): "validate a generalized Calabi-Yau class",
    ("class", "pairing"): "Mukai pairing of the two classes of a pair",
    ("class", "bfield"): "apply the B-field transform in the document",
    ("class", "lpsi"): "smallest saturated sublattice containing the class",
    ("class", "plane"): "period plane of a class with its Gram",
    ("gk3", "validate"): "validate a pair as a generalized K3",
    ("gk3", "ns-t"): "Neron-Severi and transcendental lattices",
    ("gk3", "classify-hk"): "hyperKaehler partner case of a pair",
    ("gk3", "profile"): "signature profile of the two lattices",
    ("rigid", "complex"): "complex rigidity of a pair",
    ("rigid", "kahler"): "Kaehler rigidity of a pair",
    ("rigid", "survey"): "survey achieved rank-2 invariant forms",
    ("rigid", "forms"): "reduced even positive forms up to a determinant",
    ("mirror", "check"): "compare two families as mirror partners",
    ("mirror", "dolgachev"): "classical mirror of a K3 polarization",
    ("mirror", "shioda-inose"): "build the rank-22 mirror pair",
}
HELP_AND_ERRORS = {
    "top-level-help": ["--help"],
    **{f"{group}-help": [group, "--help"] for group in GROUP_HELP},
    **{f"{group}-{name}-help": [group, name, "--help"] for group, name in COMMAND_HELP},
    "unknown-group": ["bogus"],
    "unknown-command": ["lattice", "bogus"],
    "no-group": [],
    "no-command": ["mirror"],
    # the group is read at the first argument that names one
    "group-after-junk": ["bogus", "lattice"],
    "group-name-after-the-command": ["rigid", "forms", "--max-det", "4", "lattice"],
    "no-flag": ["rigid", "forms"],
    "unknown-flag": ["rigid", "forms", "--max-det", "4", "--bogus"],
}


def _parser_with_every_group() -> argparse.ArgumentParser:
    top = build_parser([])
    parser = argparse.ArgumentParser(prog=top.prog, description=top.description)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, text in GROUPS.items():
        _add_commands(groups.add_parser(group, help=text), group)
    return parser


def _exit_texts(capsys, parse, argv) -> tuple[int, str, str]:
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


@pytest.mark.parametrize("argv", list(HELP_AND_ERRORS.values()), ids=list(HELP_AND_ERRORS))
def test_help_and_errors_match_the_parser_with_every_group(capsys, argv):
    got = _exit_texts(capsys, main, argv)
    assert got == _exit_texts(capsys, _parser_with_every_group().parse_args, argv)
    code, out, err = got
    assert (code, bool(out), bool(err)) == ((0, True, False) if "--help" in argv else (2, False, True))


def test_help_shows_the_lines_gk3_writes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help at the terminal width
    assert GROUPS == GROUP_HELP
    assert {key: entry.help for key, entry in COMMANDS.items()} == COMMAND_HELP
    _, top, _ = _exit_texts(capsys, main, ["--help"])
    assert "\nExact computations in the Mukai lattice of a K3 surface.\n" in top
    for group, text in GROUP_HELP.items():
        assert text in top
        _, out, _ = _exit_texts(capsys, main, [group, "--help"])
        for (g, name), help_text in COMMAND_HELP.items():
            assert (help_text in out) == (g == group)


def test_importing_gk3_loads_neither_dataclasses_nor_inspect():
    # each command starts a fresh interpreter; the two cost about 5 ms of it
    loaded = _modules_after(
        "import sys\n"
        "import gk3.cli, gk3.mukai, gk3.pairs, gk3.rigidity, gk3.mirror\n"
        "print(*sorted(sys.modules), file=sys.stderr)\n"
    )
    assert {"gk3.cli", "gk3.mirror", "gk3.rigidity"} <= loaded
    assert not loaded & {"dataclasses", "inspect"}
