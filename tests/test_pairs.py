from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gk3.errors import ValidationError
from gk3.lattices import discriminant
from gk3.mukai import (
    K3_GRAM,
    GenericClass,
    bfield_transform,
    check_gcy,
    deg2_vector,
    exponential_class,
    mukai_pairing,
    period_plane,
    support_lattice,
    two_form_class,
)
from gk3.pairs import (
    classify_hk_pair,
    cross_pairings,
    neron_severi,
    signature_profile,
    transcendental,
    transform_pair,
    validate_gk3,
)
from gk3.scalars import QuadScalar

from fieldref import Ref, _join


def _kahler_class(n: int = 1):
    return check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: n})))


def _holomorphic_form(n: int = 1):
    return check_gcy(
        two_form_class(deg2_vector({2: 1, 3: n}), deg2_vector({4: 1, 5: n}))
    )


def test_validate_standard_pair():
    x = validate_gk3(_kahler_class(), _holomorphic_form())
    assert x.status == "Verified"
    diag = [str(x.pi_gram[i][i]) for i in range(4)]
    assert diag == ["2", "2", "2", "2"]
    off = [x.pi_gram[i][j] for i in range(4) for j in range(4) if i != j]
    assert all(v.is_zero for v in off)


def test_validate_accepts_raw_classes():
    raw_a = exponential_class([0] * 22, deg2_vector({0: 1, 1: 1}))
    raw_b = two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))
    assert validate_gk3(raw_a, raw_b).status == "Verified"


def test_validate_rejects_norm_mismatch():
    scaled = check_gcy(_holomorphic_form().coh.scale(2))  # norm 16 vs 4
    with pytest.raises(ValidationError, match="norm mismatch: 4 vs 16"):
        validate_gk3(_kahler_class(), scaled)


def _count_pairings(monkeypatch) -> list:
    import gk3.mukai
    import gk3.pairs

    calls = []
    for module in (gk3.mukai, gk3.pairs):  # the pairing routine and any binding of it
        pairing = getattr(module, "mukai_pairing", None)
        if pairing is not None:
            monkeypatch.setattr(
                module, "mukai_pairing", lambda x, y, f=pairing: calls.append(1) or f(x, y)
            )
    return calls


def _count_blocks(monkeypatch) -> list:
    """Record the shape of each ``pairing_block`` call made through any
    binding of it."""
    import gk3.intlinalg
    import gk3.mukai
    import gk3.pairs

    shapes = []
    block = gk3.intlinalg.pairing_block
    for module in (gk3.intlinalg, gk3.mukai, gk3.pairs):
        monkeypatch.setattr(
            module,
            "pairing_block",
            lambda e, xs, ys: shapes.append((len(xs), len(ys))) or block(e, xs, ys),
        )
    return shapes


def test_validate_makes_only_the_four_cross_pairings(monkeypatch):
    a, b = _kahler_class(), _holomorphic_form()
    calls, blocks = _count_pairings(monkeypatch), _count_blocks(monkeypatch)
    x = validate_gk3(a, b)
    assert x.status == "Verified"
    # the four cross pairings are one 4x4 block of component rows; the rest
    # of the Pi Gram is read off the norm
    assert (calls, blocks) == ([], [(4, 4)])
    blocks.clear()
    assert [str(v) for v in x.pi_gram[0]] == ["2", "0", "0", "0"]
    assert blocks == []


def test_period_plane_forms_no_pairing(monkeypatch):
    g = _kahler_class()
    calls = _count_pairings(monkeypatch)
    assert [[str(v) for v in row] for row in period_plane(g).gram] == [["2", "0"], ["0", "2"]]
    assert calls == []  # the Gram (N/2) I is read off the class's norm


def test_classify_makes_only_the_four_cross_pairings(monkeypatch):
    a, b = _kahler_class(), _holomorphic_form()
    calls, blocks = _count_pairings(monkeypatch), _count_blocks(monkeypatch)
    c = classify_hk_pair(a, b)
    assert c.case == "B-with-A" and c.orthogonal and c.norms_match
    # Re/Im of phi_A against Re/Im of phi_B, from one block of component rows
    assert (calls, blocks) == ([], [(4, 4)])


def test_validate_rejects_crossing_planes():
    # sigma sharing the U block of omega pairs nontrivially with Im phiA
    crossing = check_gcy(
        two_form_class(deg2_vector({0: 1, 1: 1}), deg2_vector({4: 1, 5: 1}))
    )
    with pytest.raises(ValidationError, match="planes not orthogonal"):
        validate_gk3(_kahler_class(), crossing)


def test_generic_member_gives_formal_status():
    sigma = _holomorphic_form()
    ns_prime = neron_severi(validate_gk3(_kahler_class(), sigma))
    x = validate_gk3(GenericClass(ns_prime, "A"), sigma)
    assert x.status == "FormalGeneric"
    assert x.pi_gram is None


def test_cross_pairings_of_orthogonal_pair_vanish():
    values = cross_pairings(_kahler_class(), _holomorphic_form())
    assert all(v.is_zero for v in values)


def test_ns_and_transcendental_of_standard_pair():
    x = validate_gk3(_kahler_class(), _holomorphic_form())
    ns_l = neron_severi(x)
    t_l = transcendental(x)
    assert ns_l.rank == 22
    assert ns_l.signature().as_tuple() == (2, 20, 0)
    assert discriminant(ns_l) == (2, 2)
    assert t_l.rank == 22
    assert t_l.signature().as_tuple() == (2, 20, 0)


def test_swap_duality():
    a, b = _kahler_class(), _holomorphic_form()
    x = validate_gk3(a, b)
    y = validate_gk3(b, a)
    assert neron_severi(y).basis == transcendental(x).basis
    assert transcendental(y).basis == neron_severi(x).basis


def test_signature_profile():
    prof = signature_profile(validate_gk3(_kahler_class(), _holomorphic_form()))
    assert prof.ns_signature == (2, 20, 0)
    assert prof.t_signature == (2, 20, 0)
    assert prof.intersection_rank == 20
    assert prof.intersection_signature == (0, 20, 0)


def test_classify_standard_case():
    x = validate_gk3(_kahler_class(), _holomorphic_form())
    out = classify_hk_pair(x.phi_a, x.phi_b)
    assert out.case == "B-with-A"
    assert out.orthogonal
    assert out.norms_match
    assert out.identities == ()


def test_classify_type_a_partner_identities():
    """Two type A classes are partners when omega, omega' and the relative
    b-field are mutually orthogonal and B_rel^2 = omega^2 + omega'^2."""
    a = _kahler_class()  # omega = e1 + f1
    b_rel = deg2_vector({4: 1, 5: 2})  # square 4 = 2 + 2
    partner = check_gcy(exponential_class(b_rel, deg2_vector({2: 1, 3: 1})))
    x = validate_gk3(a, partner)
    out = classify_hk_pair(x.phi_a, x.phi_b)
    assert out.case == "A-with-A"
    assert out.orthogonal and out.norms_match
    names = [i.name for i in out.identities]
    assert names == [
        "omega wedge omega'",
        "omega wedge B_rel",
        "omega' wedge B_rel",
        "B_rel^2 - omega^2 - omega'^2",
        "|lambda|^2 omega^2 matches",
    ]
    assert all(i.holds for i in out.identities)


def test_classify_reports_broken_identity():
    # b-field square 2 breaks B_rel^2 = omega^2 + omega'^2
    bad = check_gcy(exponential_class(deg2_vector({4: 1, 5: 1}), deg2_vector({2: 1, 3: 1})))
    out = classify_hk_pair(_kahler_class(), bad)
    assert out.case == "A-with-A"
    assert not out.orthogonal
    broken = {i.name: i.holds for i in out.identities}
    assert broken["B_rel^2 - omega^2 - omega'^2"] is False
    assert broken["omega wedge omega'"] is True


def test_classify_rejects_generic_members():
    sigma = _holomorphic_form()
    x = validate_gk3(GenericClass(neron_severi(validate_gk3(_kahler_class(), sigma)), "A"), sigma)
    with pytest.raises(ValidationError, match="explicit"):
        classify_hk_pair(x.phi_a, x.phi_b)


def test_transform_pair_is_equivariant():
    rng = random.Random(59)
    x = validate_gk3(_kahler_class(), _holomorphic_form())
    for _ in range(5):
        b = [rng.randint(-1, 1) for _ in range(22)]
        moved = transform_pair(b, x)
        assert moved.status == "Verified"
        # supports move together, so both complements just get relabeled
        assert neron_severi(moved).signature().as_tuple() == (2, 20, 0)
        prof = signature_profile(moved)
        assert prof.ns_signature == (2, 20, 0)


def test_transform_pair_moves_generic_supports():
    sigma = _holomorphic_form()
    ns_prime = neron_severi(validate_gk3(_kahler_class(), sigma))
    x = validate_gk3(GenericClass(ns_prime, "A"), sigma)
    moved = transform_pair([1] + [0] * 21, x)
    assert moved.status == "FormalGeneric"
    assert isinstance(moved.phi_a, GenericClass)
    assert len(moved.phi_a.support.basis) == 22


def test_transform_pair_moves_explicit_members_as_bfield_transform_does():
    rng = random.Random(61)
    lam = QuadScalar(Fraction(1, 3), Fraction(1, 2), 2)  # denominators and sqrt(2) rows
    pairs = [validate_gk3(_kahler_class(n), _holomorphic_form(n)) for n in (1, 2)]
    pairs.append(validate_gk3(*(m.coh.scale(lam) for m in (pairs[0].phi_a, pairs[0].phi_b))))
    for i in range(100):
        x = pairs[i % 3]
        b = [rng.randint(-5, 5) if rng.random() < 0.5 else 0 for _ in range(22)]
        moved = transform_pair(b, x)
        assert moved.status == "Verified"
        assert moved.phi_a.coh == bfield_transform(b, x.phi_a.coh)
        assert moved.phi_b.coh == bfield_transform(b, x.phi_b.coh)


def test_cross_pairings_are_the_pairings_of_the_parts():
    rng = random.Random(67)
    lam = QuadScalar(Fraction(2, 5), Fraction(1, 3), 2)
    # a partner whose plane crosses phi_A's (nonzero values) and one orthogonal to it
    partners = (
        two_form_class(deg2_vector({0: 1, 1: 1}), deg2_vector({4: 1, 5: 1})),
        _holomorphic_form().coh,
    )
    for i in range(20):
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22)]
        a, c = (
            check_gcy(bfield_transform(b, x.scale(lam)))
            for x in (_kahler_class().coh, partners[i % 2])
        )
        parts = [(x.coh.real_part(), x.coh.imag_part()) for x in (a, c)]
        expected = tuple(mukai_pairing(u, v).re for u in parts[0] for v in parts[1])
        assert cross_pairings(a, c) == expected
        assert any(not v.is_zero for v in expected) == (i % 2 == 0)


def _quad(draw, d, nonzero=False):
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-2, 2)) if d else 0
    if nonzero and not (a or b):
        a = 1
    return QuadScalar(Fraction(a, draw(st.integers(1, 3))), b, d)


def _complex(draw, d) -> Ref:
    """A nonzero complex value over Q(sqrt d)."""
    return Ref.of(_quad(draw, d, nonzero=True)) + Ref((0, 0, 1, 0)) * _quad(draw, d)


@st.composite
def _explicit_pairs(draw):
    """(case, phi_A, phi_B): a B-with-A or A-with-A pair over Q(sqrt d),
    scaled by lambda and lambda u for |u| = 1 and moved by a common
    b-field.  The base pairs have norm 4 s^2 on both sides:
    exp(i s h0) with s (p h1 + q h2) + i s (-q h1 + p h2), p^2 + q^2 = 1,
    or with exp(s (e2 + 2 f2) + i s h1), where B_rel^2 = omega^2 + omega'^2."""
    d = draw(st.sampled_from((None, 2, 3)))
    case = draw(st.sampled_from(("B-with-A", "A-with-A")))
    s = Ref.of(_quad(draw, d, nonzero=True))
    lam = _complex(draw, d)
    r, t = Fraction(draw(st.integers(-4, 4)), 3), Fraction(draw(st.integers(-4, 4)), 3)
    u = Ref(((1 - r * r) / (1 + r * r), 0, 2 * r / (1 + r * r), 0))
    p, q = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
    h = [deg2_vector({2 * i: 1, 2 * i + 1: 1}) for i in range(3)]

    def times_s(vector):
        return [(s * v).quad() for v in vector]

    phi_a = exponential_class([0] * 22, times_s(h[0]))
    if case == "B-with-A":
        phi_b = two_form_class(
            times_s(p * v + q * w for v, w in zip(h[1], h[2])),
            times_s(p * w - q * v for v, w in zip(h[1], h[2])),
        )
    else:
        phi_b = exponential_class(times_s(deg2_vector({4: 1, 5: 2})), times_s(h[1]))
    b = [_quad(draw, draw(st.sampled_from((None, d)))) for _ in range(22)]
    scaled = ((phi_a, lam), (phi_b, lam * u))
    phi_a, phi_b = (bfield_transform(b, x.scale(k.cplx())) for x, k in scaled)
    return case, phi_a, phi_b


@settings(max_examples=40, deadline=None)
@given(_explicit_pairs())
def test_pi_gram_is_half_the_norm(case):
    name, phi_a, phi_b = case
    x = validate_gk3(phi_a, phi_b)
    # the reference Gram of Re A, Im A, Re B, Im B is (N/2) I, and the
    # library's Gram, read off the norm, equals it
    planes = [_ref_plane(member) for member in (x.phi_a, x.phi_b)]
    vectors = planes[0] + planes[1]
    gram = tuple(tuple(_ref_mukai(u, v) for v in vectors) for u in vectors)
    half = Ref.of(x.phi_a.norm) * Fraction(1, 2)
    assert gram == tuple(tuple(half if i == j else 0 for j in range(4)) for i in range(4))
    assert x.pi_gram == gram
    for member, (re, im) in zip((x.phi_a, x.phi_b), planes):
        assert period_plane(member).gram == ((half, 0), (0, half))
        assert period_plane(member).gram == tuple(
            tuple(_ref_mukai(u, v) for v in (re, im)) for u in (re, im)
        )
    out = classify_hk_pair(x.phi_a, x.phi_b)
    assert out.case == name and out.orthogonal and out.norms_match
    assert all(i.holds for i in out.identities)


def _k3_pairing(x, y) -> Ref:
    """x.y in the K3 lattice: each side's Fraction coefficients of 1, sqrt(d),
    i and i sqrt(d) over one common denominator, g u v summed per unit over
    the nonzero Gram entries g in integers, and one Ref made."""
    xs, ys = [Ref.of(u) for u in x], [Ref.of(v) for v in y]
    d = reduce(_join, (r.d for r in xs + ys), None)
    k = d or 0

    def numerators(refs):
        den = lcm(*(c.denominator for r in refs for c in r.c))
        return den, [[c.numerator * (den // c.denominator) for c in r.c] for r in refs]

    (dx, nx), (dy, ny) = numerators(xs), numerators(ys)
    c0 = c1 = c2 = c3 = 0
    for u, row in zip(nx, K3_GRAM):
        if not any(u):
            continue
        u0, u1, u2, u3 = u
        for g, v in zip(row, ny):
            if g and any(v):
                v0, v1, v2, v3 = v
                c0 += g * (u0 * v0 + k * u1 * v1 - u2 * v2 - k * u3 * v3)
                c1 += g * (u0 * v1 + u1 * v0 - u2 * v3 - u3 * v2)
                c2 += g * (u0 * v2 + u2 * v0 + k * (u1 * v3 + u3 * v1))
                c3 += g * (u0 * v3 + u1 * v2 + u2 * v1 + u3 * v0)
    return Ref([Fraction(c, dx * dy) for c in (c0, c1, c2, c3)], d)


def _ref_plane(member) -> tuple[list[Ref], list[Ref]]:
    """Re and Im of a class as 24 real reference coordinates each."""
    coords = [Ref.of(c) for c in member.coh.coords24()]
    return [c.re for c in coords], [c.im for c in coords]


def _ref_mukai(x, y) -> Ref:
    """<(r, D, s), (r', D', s')> = D.D' - r s' - s r' on 24 reference
    coordinates in the Mukai layout (degree 0, degree 4, degree 2)."""
    (r, s, *dx), (r2, s2, *dy) = x, y
    return _k3_pairing(dx, dy) - r * s2 - s * r2


@st.composite
def _type_a_members(draw, d):
    """(lambda, B, omega) for lambda exp(B + i omega): B sparse over Q(sqrt d),
    omega = s0 h0 + s1 h1 + s2 h2 in the positive 3-space of three U copies."""
    lam = _complex(draw, d)
    b = [Fraction(0)] * 22
    for i in draw(st.sets(st.integers(0, 21), max_size=6)):
        b[i] = _quad(draw, draw(st.sampled_from((None, d))))
    s = [Ref.of(_quad(draw, d, nonzero=i == 0)) for i in range(3)]
    hs = zip(*(deg2_vector({2 * i: 1, 2 * i + 1: 1}) for i in range(3)))
    omega = [(s[0] * c0 + s[1] * c1 + s[2] * c2).quad() for c0, c1, c2 in hs]
    return lam, b, omega


@settings(max_examples=40, deadline=None)
@given(st.data(), st.sampled_from((None, 2, 3)))
def test_a_with_a_identity_values_match_the_reference(data, d):
    """phi_A = lambda' exp(B' + i omega') and phi_B = lambda exp(B + i omega),
    not partners in general: each printed value against the K3 pairings."""
    lam_a, b_a, w_a = data.draw(_type_a_members(d))
    lam_b, b_b, w_b = data.draw(_type_a_members(d))
    phi_a = check_gcy(exponential_class(b_a, w_a).scale(lam_a.cplx()))
    phi_b = check_gcy(exponential_class(b_b, w_b).scale(lam_b.cplx()))
    out = classify_hk_pair(phi_a, phi_b)
    assert out.case == "A-with-A"
    b_rel = [Ref.of(u) - v for u, v in zip(b_a, b_b)]
    sq_a, sq_b = _k3_pairing(w_a, w_a), _k3_pairing(w_b, w_b)
    # <phi, conj phi> = 2 |lambda|^2 omega^2
    norm_a, norm_b = ((lam * lam.conj()).re * sq * 2 for lam, sq in ((lam_a, sq_a), (lam_b, sq_b)))
    want = [
        _k3_pairing(w_b, w_a),
        _k3_pairing(w_b, b_rel),
        _k3_pairing(w_a, b_rel),
        _k3_pairing(b_rel, b_rel) - sq_b - sq_a,
        norm_a - norm_b,
    ]
    assert [i.value for i in out.identities] == want
    assert [i.holds for i in out.identities] == [w.is_zero for w in want]
    assert all(isinstance(i.value, QuadScalar) for i in out.identities)
