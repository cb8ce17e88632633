from __future__ import annotations

import json
import math
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gk3.errors import ValidationError
from gk3.scalars import (
    MAX_FIELD_TAG,
    ComplexQuad,
    QuadScalar,
    as_quad,
    check_field_tag,
    is_squarefree,
    shown,
)


def _q(a, b=0, d=None):
    return QuadScalar(Fraction(a), Fraction(b), d)


def test_squarefree_predicate():
    assert is_squarefree(2)
    assert is_squarefree(30)
    assert is_squarefree(1)
    assert not is_squarefree(4)
    assert not is_squarefree(12)
    assert not is_squarefree(0)


def test_field_tag_rejects_bad_values():
    for bad in (4, 1, 0, -2, "2", 2.0):
        with pytest.raises(ValidationError):
            check_field_tag(bad)


def test_field_tag_bound_comes_before_trial_division():
    assert check_field_tag(999983) == 999983  # prime, just under the bound
    with pytest.raises(ValidationError, match="MAX_FIELD_TAG"):
        check_field_tag(MAX_FIELD_TAG + 1)  # 101 * 9901, squarefree
    with pytest.raises(ValidationError, match="MAX_FIELD_TAG"):
        check_field_tag(1000000000000000003)


def test_rational_values_drop_the_tag():
    # b == 0 must normalize to a plain rational regardless of the tag passed
    x = _q(3, 0, 5)
    assert x.is_rational
    assert x.d is None
    assert x == _q(3)


def test_mixing_field_tags_is_an_error():
    x, y = _q(1, 1, 2), _q(1, -2, 3)
    for u, v in ((x, y), (y, x)):
        with pytest.raises(ValidationError, match="cannot mix"):
            u * v
    with pytest.raises(ValidationError):
        _q(0, 1, 2) * _q(0, 1, 5)
    assert x != y and x * 0 * y == 0  # a rational zero joins any field


# field arithmetic runs on the integer rows of classes, and in the test
# oracles on ``fieldref.Ref``; none of it belongs on the scalar types
REMOVED = {
    QuadScalar: ("_sum", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__rmul__", "tagged"),
    ComplexQuad: ("__add__", "__mul__", "conjugate"),
}


@pytest.mark.parametrize("cls", REMOVED, ids=lambda c: c.__name__)
def test_scalar_types_define_no_field_arithmetic(cls):
    assert [name for name in REMOVED[cls] if name in vars(cls)] == []


def test_sign_exact_cases():
    # a, b with opposite signs force the a^2 vs d b^2 comparison
    assert _q(3, -2, 2).sign() == 1  # 3 > 2*sqrt(2) since 9 > 8
    assert _q(-3, 2, 2).sign() == -1
    assert _q(2, -1, 5).sign() == -1  # 2 < sqrt(5)
    assert _q(-2, 1, 5).sign() == 1
    assert _q(0).sign() == 0
    assert _q(0, 1, 3).sign() == 1
    assert _q(0, -1, 3).sign() == -1
    assert _q(Fraction(7, 5), -1, 2).sign() == -1  # 49/25 < 2


def test_sign_agrees_with_float_on_random_samples():
    rng = random.Random(20260815)
    for _ in range(1000):
        d = rng.choice([2, 3, 5, 7])
        a = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        b = Fraction(rng.randint(-60, 60), rng.randint(1, 12))
        x = QuadScalar(a, b, d)
        approx = float(a) + float(b) * math.sqrt(d)
        if abs(approx) > 1e-9:
            assert x.sign() == (1 if approx > 0 else -1)
        else:
            # near-zero floats are unreliable; validate against the exact zero test
            assert (x.sign() == 0) == x.is_zero


def test_str_forms():
    assert str(_q(Fraction(1, 2))) == "1/2"
    assert str(_q(0, 1, 2)) == "sqrt(2)"
    assert str(_q(0, -1, 2)) == "-sqrt(2)"
    assert str(_q(1, 2, 3)) == "1 + 2*sqrt(3)"
    assert str(_q(1, -2, 3)) == "1 - 2*sqrt(3)"


def test_coercions():
    assert ComplexQuad(_q(1), _q(1)).is_real is False
    assert ComplexQuad(5).is_real
    assert as_quad(3) == _q(3)
    assert as_quad(Fraction(1, 3)) == _q(Fraction(1, 3))
    assert as_quad(_q(1, 1, 2)) == _q(1, 1, 2)
    assert ComplexQuad(Fraction(2)) == ComplexQuad(_q(2), _q(0))
    with pytest.raises(ValidationError):
        as_quad(0.5)


def test_complex_quad_of_a_complex_value_is_that_value():
    z = ComplexQuad(_q(1), _q(0, 2, 3))
    for im in (0, Fraction(0), _q(0)):
        assert ComplexQuad(z, im) == z
    assert ComplexQuad(z) == z and ComplexQuad(ComplexQuad(1, 2)) == ComplexQuad(1, 2)
    for im in (1, _q(0, 1, 3)):
        with pytest.raises(ValidationError, match="cannot interpret ComplexQuad"):
            ComplexQuad(z, im)


def test_shown_prints_a_value_unless_a_part_is_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    small = (_q(Fraction(-3, 4), 2, 2), ComplexQuad(_q(1, -1, 3), _q(Fraction(5, 7))), 7, Fraction(1, 3))
    for x in small:
        assert shown(x) == str(x)
    top = 10**limit - 1  # the longest printable integer
    assert shown(Fraction(1, top)) == f"1/{top}"
    for x in (10**limit, Fraction(1, 10**limit), _q(0, Fraction(1, 10**limit), 2),
              ComplexQuad(_q(0), _q(-(10**limit)))):
        assert shown(x) == f"<a {(10**limit).bit_length()}-bit value, over the {limit}-digit print limit>"


def test_field_tag_is_checked_once_at_the_boundary(monkeypatch):
    import gk3.scalars
    from gk3.serialize import parse_document

    x, y = _q(1, 2, 999983), _q(Fraction(1, 3), -1, 999983)
    want = _q(Fraction(1, 3) - 2 * 999983, Fraction(-1, 3), 999983)
    calls = []
    squarefree = gk3.scalars.is_squarefree
    monkeypatch.setattr(gk3.scalars, "is_squarefree", lambda n: calls.append(n) or squarefree(n))
    assert x * y == want
    assert calls == []
    root = {"a": "0", "b": "1"}
    doc = {
        "sqrt_d": 999983,
        "class": {"deg0": {"re": root, "im": "1/2"}, "deg2": [root] * 22, "deg4": {"im": root}},
    }
    parsed = parse_document(json.dumps(doc))
    assert parsed.value.field_tag == 999983
    assert calls == [999983]
    with pytest.raises(ValidationError, match="squarefree"):
        QuadScalar(0, 1, 4)


@pytest.mark.parametrize(
    "args", [(0.1,), ("1/2",), (1, 0.5, 2), (Fraction(1, 2), "1", 2), (None,), (True,), (1, False, 2)]
)
def test_quad_scalar_refuses_inexact_parts(args):
    """A float, a string or a bool never becomes a value, as ``as_quad`` and
    ``ComplexQuad`` refuse it."""
    with pytest.raises(ValidationError, match="cannot interpret .* as an exact scalar"):
        QuadScalar(*args)
    bad = args[1] if len(args) == 3 else args[0]
    with pytest.raises(ValidationError, match="cannot interpret .* as an exact scalar"):
        as_quad(bad)
    with pytest.raises(ValidationError, match="cannot interpret .* as an exact scalar"):
        ComplexQuad(1, bad)


# --- the integer normal form against a Fraction-pair reference --------------


def _ref(x, d):
    """(a, b) with x = a + b*sqrt(d), read from a QuadScalar, int or Fraction
    without the class's own arithmetic."""
    if isinstance(x, QuadScalar):
        return Fraction(x.p, x.n), Fraction(x.q, x.n)
    return Fraction(x), Fraction(0)


def _ref_sign(a: Fraction, b: Fraction, d) -> int:
    with localcontext() as ctx:
        ctx.prec = 60
        v = Decimal(a.numerator) / a.denominator
        if b:
            v += Decimal(b.numerator) / b.denominator * Decimal(d).sqrt()
    return (v > 0) - (v < 0)


def _ref_str(a: Fraction, b: Fraction, d) -> str:
    if not b:
        return str(a)
    irr = {1: "", -1: "-"}.get(b, f"{b}*") + f"sqrt({d})"
    return irr if not a else f"{a} {'+' if b > 0 else '-'} {irr.lstrip('-')}"


def _assert_matches(x: QuadScalar, a: Fraction, b: Fraction, d) -> None:
    assert math.gcd(x.p, x.q, x.n) == 1 and x.n > 0
    assert (x.d is None) == (x.q == 0)
    assert (x.a, x.b, x.d) == (a, b, d if b else None)
    assert x.is_zero == (a == 0 and b == 0) and x.is_rational == (b == 0)
    assert x.sign() == _ref_sign(a, b, d)
    assert str(x) == _ref_str(a, b, d)
    assert repr(x) == (f"QuadScalar({a})" if not b else f"QuadScalar({a}, {b}, d={d})")
    if not b:  # equal to, and hashed as, the plain rational
        assert x == a and a == x and hash(x) == hash(a)
        if a.denominator == 1:
            assert x == a.numerator and hash(x) == hash(a.numerator)
        assert x in {a} and a in {x}
    else:
        assert x != a and x == QuadScalar(a, b, d) and hash(x) == hash(QuadScalar(a, b, d))


@st.composite
def _operands(draw, d):
    """A QuadScalar on the tag d (possibly rational), an int or a Fraction."""
    a = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12)))
    kind = draw(st.sampled_from(("quad", "int", "fraction")))
    if kind == "int":
        return a.numerator
    if kind == "fraction":
        return a
    b = Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 12))) if d else 0
    return QuadScalar(a, b, d)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from((None, 2, 3)))
def test_integer_form_matches_a_fraction_pair_reference(data, d):
    x = QuadScalar(*_ref(data.draw(_operands(d)), d), d)  # a QuadScalar side
    y = data.draw(_operands(d))  # any operand type, on either side
    (a1, b1), (a2, b2) = _ref(x, d), _ref(y, d)
    _assert_matches(x, a1, b1, d)
    # integer numerators with a common factor come back in normal form
    _assert_matches(QuadScalar.from_ints(-3 * x.p, -3 * x.q, 3 * x.n, d), -a1, -b1, d)
    z = x * y  # the one product, kept for the rank22 benchmark op
    assert isinstance(z, QuadScalar)
    _assert_matches(z, a1 * a2 + (d or 0) * b1 * b2, a1 * b2 + b1 * a2, d)
    assert (x == y) == ((a1, b1) == (a2, b2))
