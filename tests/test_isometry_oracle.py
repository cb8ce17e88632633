"""Isometry-invariance oracle: every verdict gk3 prints about a pair is a
property of its isometry class (Gritsenko, Hulek and Sankaran, J. Algebra 322,
2009, section 3).

A word of 1-6 integral isometries is drawn: Eichler transvections E(e, a)
with e one of e1, f1, e2, f2, e3, f3 and a in H^2 orthogonal to e, and
integral B-fields exp(B) = E(deg4, -B).  Each fixes deg0, so it keeps the
type of every class.  The word moves a pair by ``move_pair``, and the
rigidity verdicts, the signature profile and the hyperKaehler-partner
classification of the moved pair must equal those of the pair it came from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from gk3.intlinalg import eichler
from gk3.lattices import ortho_complement
from gk3.mirror import build_si_mirror
from gk3.mukai import (
    MUKAI,
    GenericClass,
    bfield_matrix,
    bfield_transform,
    check_gcy,
    deg2_vector,
    exponential_class,
)
from gk3.pairs import classify_hk_pair, move_pair, signature_profile, validate_gk3
from gk3.rigidity import DEFAULT_H1, DEFAULT_H2, is_complex_rigid, is_kahler_rigid
from gk3.scalars import QuadScalar


@st.composite
def _isometry(draw):
    """E(e, a) for a basis vector e of U1 + U2 + U3 (Mukai indices 2..7) and a
    sparse a in H^2 with entries -2..2 and no coefficient on e's partner, or
    exp(B) for a sparse integral B with entries -2..2."""
    coords = draw(st.dictionaries(st.integers(2, 23), st.integers(-2, 2), min_size=1, max_size=4))
    if draw(st.booleans()):
        return bfield_matrix([coords.get(i + 2, 0) for i in range(22)])
    k = draw(st.integers(2, 7))
    e = tuple(int(i == k) for i in range(24))
    a = tuple(0 if i == k ^ 1 else coords.get(i, 0) for i in range(24))
    return eichler(MUKAI.entries, e, a)


_WORDS = st.lists(_isometry(), min_size=1, max_size=6)


def _verdicts(x) -> tuple:
    """Everything gk3 reports about a pair that an isometry must keep."""
    out = (is_kahler_rigid(x), is_complex_rigid(x), signature_profile(x))
    if isinstance(x.phi_a, GenericClass) or isinstance(x.phi_b, GenericClass):
        return out
    c = classify_hk_pair(x.phi_a, x.phi_b)
    return (*out, c.case, c.identities)


def _moved(word, x):
    for g in word:
        x = move_pair(g, x)
    return x


@cache
def _si_members(n: int) -> tuple:
    return tuple((fam.member, _verdicts(fam.member)) for fam in build_si_mirror(n))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 1), _WORDS)
def test_si_member_verdicts_are_isometry_invariant(n, side, word):
    x, want = _si_members(n)[side]
    assert _verdicts(_moved(word, x)) == want


@st.composite
def _kahler_rigid_pairs(draw):
    """exp(B + i omega) with omega = kappa (a H1 + b H2), kappa = 1 or sqrt 2,
    a rational B, and a generic type B partner on its complement, as in the
    criterion-6 samples."""
    a, b = draw(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any))
    sqrt2 = draw(st.booleans())
    omega = tuple(
        QuadScalar(0, a * u + b * v, 2) if sqrt2 else QuadScalar(a * u + b * v)
        for u, v in zip(DEFAULT_H1, DEFAULT_H2)
    )
    ints = st.integers(-3, 3)
    bfield = draw(st.lists(st.builds(Fraction, ints, st.integers(1, 4)), min_size=22, max_size=22))
    cls = check_gcy(exponential_class(bfield, omega))
    return validate_gk3(cls, GenericClass(ortho_complement(cls.support), "B"))


@settings(max_examples=60, deadline=None)
@given(_kahler_rigid_pairs(), _WORDS)
def test_kahler_rigid_pair_verdicts_are_isometry_invariant(x, word):
    want = _verdicts(x)
    assert want[0].kind == "KahlerRigid"
    assert _verdicts(_moved(word, x)) == want


@st.composite
def _a_with_a_pairs(draw):
    """phi_A = exp(i s h0) and phi_B = exp(s (e3 + 2 f3) + i s h1) for
    h_k = e_k + f_k, where B_rel^2 = omega^2 + omega'^2, both moved by one
    rational B-field: partners with every identity holding."""
    s = draw(st.integers(1, 3))
    h = [deg2_vector({2 * i: s, 2 * i + 1: s}) for i in range(2)]
    phi_a = exponential_class([0] * 22, h[0])
    phi_b = exponential_class(deg2_vector({4: s, 5: 2 * s}), h[1])
    fracs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    b = draw(st.lists(fracs, min_size=22, max_size=22))
    return validate_gk3(*(check_gcy(bfield_transform(b, phi)) for phi in (phi_a, phi_b)))


@settings(max_examples=60, deadline=None)
@given(_a_with_a_pairs(), _WORDS)
def test_a_with_a_verdicts_are_isometry_invariant(x, word):
    want = _verdicts(x)
    assert want[3] == "A-with-A" and all(i.holds for i in want[4])
    assert _verdicts(_moved(word, x)) == want
