from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from gk3.cli import main
from gk3.mukai import check_gcy, deg2_vector, exponential_class, two_form_class
from gk3.serialize import class_json, dumps_canonical


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


def test_mirror_dolgachev(tmp_path, capsys):
    body = {"sublattice": {"ambient": {"named": "K3"}, "basis": [[1, 1] + [0] * 20]}}
    code, out = _run(capsys, ["mirror", "dolgachev", _write(tmp_path, "kp.json", body)])
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


def test_console_script_entry_point(tmp_path):
    path = _write(tmp_path, "u.json", {"lattice": {"named": "U"}})
    proc = subprocess.run(["gk3", "lattice", "info", path], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["rank"] == 2
