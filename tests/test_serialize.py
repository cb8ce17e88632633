from __future__ import annotations

import json
from fractions import Fraction

import pytest

from gk3.errors import SchemaError
from gk3.lattices import hyperbolic_plane
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
    assert doc2.value.induced_gram == ((2,),)


def test_class_document_roundtrip():
    g = check_gcy(exponential_class([Fraction(1, 2)] + [0] * 21, deg2_vector({0: 1, 1: 1})))
    text = dumps_canonical({"class": class_json(g)})
    doc = parse_document(text)
    assert doc.kind == "class"
    assert doc.value == g.coh


def test_class_document_roundtrip_with_header():
    s2 = QuadScalar(Fraction(0), Fraction(1), 2)
    omega = tuple(s2 * v for v in deg2_vector({0: 1, 1: 1}))
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
    blob = sublattice_json(sub, named_ambient="Mukai")
    assert blob["ambient"] == {"named": "Mukai"}
    text = dumps_canonical({"sublattice": blob})
    assert parse_document(text).value.basis == sub.basis


def test_non_mukai_generic_support_is_rejected():
    body = {
        "pair": {
            "phiA": {"generic": {"ambient": {"named": "U"}, "basis": [[1, 0]]}, "type": "A"},
            "phiB": {"deg0": "0", "deg2": ["0"] * 22, "deg4": "0"},
        }
    }
    with pytest.raises(SchemaError, match=r"at document\.pair\.phiA"):
        parse_document(_doc(body))
