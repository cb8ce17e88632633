from __future__ import annotations

import json
from fractions import Fraction

import pytest

from gk3.errors import SchemaError
from gk3.lattices import Sublattice, hyperbolic_plane
from gk3.mukai import (
    MUKAI,
    GenericClass,
    check_gcy,
    deg2_vector,
    exponential_class,
    support_lattice,
    two_form_class,
)
from gk3.scalars import ComplexQuad, QuadScalar, as_quad
from gk3.serialize import (
    class_json,
    dumps_canonical,
    member_json,
    parse_document,
    parse_quad,
    parse_rational,
    quad_json,
    rational_json,
    sublattice_json,
)


def _doc(body: dict) -> str:
    return json.dumps(body)


def test_rational_roundtrip():
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-5", "x") == Fraction(-5)
    assert parse_rational(7, "x") == Fraction(7)
    assert rational_json(Fraction(3, 4)) == "3/4"
    assert rational_json(Fraction(-5)) == "-5"


def test_rational_rejections():
    with pytest.raises(SchemaError, match="at x"):
        parse_rational(1.5, "x")
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_rational("1/0", "x")
    with pytest.raises(SchemaError):
        parse_rational(True, "x")
    with pytest.raises(SchemaError):
        parse_rational("3/4/5", "x")
    # only -?[0-9]+(/[0-9]+)? is a rational; int() alone would take these
    for text in ("1_0", "1/1_0", " 1", "+1", "1/-2", "\u0663", "1/", ""):
        with pytest.raises(SchemaError, match="not a rational"):
            parse_rational(text, "x")


def test_quad_roundtrip():
    q = QuadScalar(Fraction(1, 2), Fraction(3), 2)
    blob = quad_json(q)
    assert blob == {"a": "1/2", "b": "3"}
    assert parse_quad(blob, "x", 2) == q
    assert quad_json(as_quad(5)) == "5"
    assert parse_quad("5", "x", None) == as_quad(5)


def test_quad_needs_header_for_irrational_part():
    with pytest.raises(SchemaError, match="sqrt_d"):
        parse_quad({"a": "0", "b": "1"}, "x", None)


def test_lattice_document_named_and_gram():
    doc = parse_document(_doc({"lattice": {"named": "U"}}))
    assert doc.kind == "lattice"
    assert doc.value.gram == ((0, 1), (1, 0))

    doc2 = parse_document(_doc({"lattice": {"gram": [[2, 0], [0, -2]]}}))
    assert doc2.value.gram == ((2, 0), (0, -2))

    composite = {
        "lattice": {"named": {"sum": ["U", {"rescale": {"of": "U", "by": 2}}, {"diag": [-2]}]}}
    }
    doc3 = parse_document(_doc(composite))
    assert doc3.value.rank == 5
    assert doc3.value.gram[2][3] == 2

    mukai_doc = parse_document(_doc({"lattice": {"named": "Mukai"}}))
    assert mukai_doc.value.gram == MUKAI.gram


def test_sublattice_document_defaults_to_mukai_ambient():
    body = {"sublattice": {"basis": [[1] + [0] * 23]}}
    doc = parse_document(_doc(body))
    assert doc.value.ambient.gram == MUKAI.gram

    explicit = {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}}
    doc2 = parse_document(_doc(explicit))
    assert doc2.value.gram == ((2,),)


def test_class_document_roundtrip():
    g = check_gcy(exponential_class([Fraction(1, 2)] + [0] * 21, deg2_vector({0: 1, 1: 1})))
    text = dumps_canonical({"class": class_json(g)})
    doc = parse_document(text)
    assert doc.kind == "class"
    assert doc.value == g.coh


def test_class_document_roundtrip_with_header():
    omega = tuple(QuadScalar(0, v, 2) for v in deg2_vector({0: 1, 1: 1}))
    g = check_gcy(exponential_class([0] * 22, omega))
    text = dumps_canonical({"sqrt_d": 2, "class": class_json(g)})
    assert parse_document(text).value == g.coh


def test_pair_document_with_generic_member():
    sigma = check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})))
    gen = GenericClass(support_lattice(sigma), "B")
    body = {"pair": {"phiA": class_json(sigma), "phiB": member_json(gen)}}
    doc = parse_document(dumps_canonical(body))
    phi_a, phi_b = doc.value
    assert isinstance(phi_b, GenericClass)
    assert phi_b.support.basis == gen.support.basis


def test_document_body_is_exclusive():
    with pytest.raises(SchemaError, match="exactly one body"):
        parse_document(_doc({"lattice": {"named": "U"}, "sublattice": {"basis": [[1, 0]]}}))
    with pytest.raises(SchemaError, match="exactly one body"):
        parse_document(_doc({"sqrt_d": 2}))


def test_document_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown key"):
        parse_document(_doc({"lattice": {"named": "U"}, "extra": 1}))
    with pytest.raises(SchemaError, match="at document.lattice"):
        parse_document(_doc({"lattice": {"named": "U", "spare": 1}}))


def test_document_error_paths_are_precise():
    with pytest.raises(SchemaError, match=r"at document\.sqrt_d"):
        parse_document(_doc({"sqrt_d": 4, "lattice": {"named": "U"}}))
    bad_class = {
        "class": {"deg0": "1", "deg2": ["0"] * 22, "deg4": {"re": "1/0", "im": "0"}}
    }
    with pytest.raises(SchemaError, match=r"at document\.class\.deg4\.re"):
        parse_document(_doc(bad_class))
    short = {"class": {"deg0": "1", "deg2": ["0"] * 3, "deg4": "0"}}
    with pytest.raises(SchemaError, match=r"at document\.class\.deg2"):
        parse_document(_doc(short))
    with pytest.raises(SchemaError, match=r"at document\.lattice\.gram"):
        parse_document(_doc({"lattice": {"gram": [[1, 2], [3]]}}))


def test_document_rejects_floats_everywhere():
    with pytest.raises(SchemaError, match="floats are not exact"):
        parse_document(_doc({"class": {"deg0": 0.5, "deg2": ["0"] * 22, "deg4": "0"}}))


def test_document_rejects_invalid_json():
    with pytest.raises(SchemaError, match="invalid JSON"):
        parse_document("{not json")


def test_document_bfield():
    body = {"lattice": {"named": "U"}, "bfield": ["1/2"] + ["0"] * 21}
    doc = parse_document(_doc(body))
    assert doc.bfield[0] == as_quad(Fraction(1, 2))
    with pytest.raises(SchemaError, match=r"at document\.bfield"):
        parse_document(_doc({"lattice": {"named": "U"}, "bfield": ["0"] * 3}))


def test_canonical_dumps_is_stable():
    body = {"b": 1, "a": [2, 3]}
    out = dumps_canonical(body)
    assert out == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'
    assert out == dumps_canonical({"a": [2, 3], "b": 1})


def test_sublattice_json_with_named_ambient():
    sub = support_lattice(
        check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    )
    blob = sublattice_json(sub)
    assert blob["ambient"] == {"named": "Mukai"}
    text = dumps_canonical({"sublattice": blob})
    assert parse_document(text).value.basis == sub.basis


def test_sublattice_json_of_another_ambient_writes_its_gram():
    sub = Sublattice(hyperbolic_plane(), ((1, 1),))
    blob = sublattice_json(sub)
    assert blob["ambient"] == {"gram": [[0, 1], [1, 0]]}
    back = parse_document(dumps_canonical({"sublattice": blob})).value
    assert (back.ambient.gram, back.basis) == (sub.ambient.gram, sub.basis)


# classes named like a gk3 value class but defined outside gk3: two in this
# module, one in a module named like gk3's lattices
_FOREIGN = [
    type("QuadScalar", (), {}),
    type("Sublattice", (), {}),
    type("Sublattice", (), {"__module__": "lattices"}),
]


@pytest.mark.parametrize("cls", _FOREIGN, ids=lambda c: f"{c.__module__}.{c.__qualname__}")
def test_a_foreign_class_with_a_gk3_name_is_not_written(cls):
    assert cls.__qualname__ in ("QuadScalar", "Sublattice")
    with pytest.raises(TypeError, match=f"cannot write a {cls.__name__} as JSON"):
        dumps_canonical({"value": cls()})


def test_non_mukai_generic_support_is_rejected():
    body = {
        "pair": {
            "phiA": {"generic": {"ambient": {"named": "U"}, "basis": [[1, 0]]}, "type": "A"},
            "phiB": {"deg0": "0", "deg2": ["0"] * 22, "deg4": "0"},
        }
    }
    with pytest.raises(SchemaError, match=r"at document\.pair\.phiA"):
        parse_document(_doc(body))


_GENERIC_C = {"generic": {"basis": [[1] + [0] * 23]}, "type": "C"}

# hostile documents, each with the exact text of its refusal
_REFUSALS = [
    ({"lattice": {"gram": 5}}, "document.lattice.gram", "expected an array of rows"),
    ({"lattice": {"gram": [5]}}, "document.lattice.gram[0]", "expected an array"),
    ({"class": {"deg0": 1, "deg2": 5, "deg4": 0}}, "document.class.deg2", "expected an array"),
    (
        {"sublattice": {"basis": [[1, 2]]}},
        "document.sublattice.basis[0]",
        "expected 24 entries, got 2",
    ),
    (
        {"class": {"deg0": 1, "deg2": [0], "deg4": 0}},
        "document.class.deg2",
        "expected 22 entries, got 1",
    ),
    ({"lattice": {"gram": [[1, 2]]}}, "document.lattice.gram", "Gram matrix must be square"),
    ({"lattice": {}}, "document.lattice", 'lattice needs exactly one of "gram" or "named"'),
    (
        {"lattice": {"gram": [[1]], "named": "U"}},
        "document.lattice",
        'lattice needs exactly one of "gram" or "named"',
    ),
    (
        {"lattice": {"named": 5}},
        "document.lattice.named",
        "expected a name or a constructor object",
    ),
    (
        {"lattice": {"named": {}}},
        "document.lattice.named",
        "constructor needs exactly one of diag / sum / rescale",
    ),
    (
        {"lattice": {"named": {"diag": [1], "sum": ["U"]}}},
        "document.lattice.named",
        "constructor needs exactly one of diag / sum / rescale",
    ),
    (
        {"lattice": {"named": {"diag": []}}},
        "document.lattice.named.diag",
        "expected a nonempty array of integers",
    ),
    (
        {"lattice": {"named": {"sum": []}}},
        "document.lattice.named.sum",
        "expected a nonempty array of lattice specs",
    ),
    (
        {"lattice": {"named": {"rescale": {"of": "U"}}}},
        "document.lattice.named.rescale",
        "missing key 'by'",
    ),
    ({"class": {"deg0": 1, "deg2": [0] * 22}}, "document.class", "missing key 'deg4'"),
    ({"lattice": 5}, "document.lattice", "expected an object, got int"),
    ([], "document", "expected an object, got list"),
    (
        {"lattice": {"gram": [["1/2"]]}},
        "document.lattice.gram[0][0]",
        "expected an integer, got '1/2'",
    ),
    (
        {"pair": {"phiA": _GENERIC_C, "phiB": _GENERIC_C}},
        "document.pair.phiA.type",
        "expected \"A\" or \"B\", got 'C'",
    ),
    # a ValidationError of the lattice layer, reported at the document path
    (
        {"lattice": {"gram": [[0, 1], [2, 0]]}},
        "document.lattice.gram",
        "Gram matrix must be symmetric",
    ),
    ({"lattice": {"named": "Foo"}}, "document.lattice.named", "unknown named lattice 'Foo'"),
    (
        {"lattice": {"named": {"rescale": {"of": "U", "by": 0}}}},
        "document.lattice.named.rescale.by",
        "rescaling by zero is not a lattice",
    ),
    (
        {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 0], [2, 0]]}},
        "document.sublattice.basis",
        "dependent basis",
    ),
]


@pytest.mark.parametrize(
    "body, path, message", _REFUSALS, ids=[f"{p}: {m}" for _, p, m in _REFUSALS]
)
def test_a_hostile_document_is_refused_at_its_path(body, path, message):
    with pytest.raises(SchemaError) as info:
        parse_document(_doc(body))
    assert str(info.value) == f"at {path}: {message}"


def test_a_refusal_reaches_the_cli_as_exit_2(tmp_path, capsys):
    from gk3.cli import main

    path = tmp_path / "bad.json"
    path.write_text(_doc({"lattice": {"gram": [[1, 2]]}}), encoding="utf-8")
    assert main(["lattice", "info", str(path)]) == 2
    expected = {"error": "at document.lattice.gram: Gram matrix must be square"}
    assert capsys.readouterr().out == dumps_canonical(expected)
