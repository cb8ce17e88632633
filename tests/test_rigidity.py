from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from gk3.errors import ValidationError
from gk3.lattices import IntegralLattice, gauss_reduce2, ortho_complement, saturation
from gk3.mirror import build_si_mirror
from gk3.mukai import (
    K3_GRAM,
    MUKAI,
    MUKAI_GRAM,
    CohClass,
    GCYClass,
    GenericClass,
    bfield_transform,
    check_gcy,
    deg2_vector,
    exponential_class,
    mukai_pairing,
    support_in,
    support_lattice,
    two_form_class,
)
from gk3.pairs import neron_severi, transcendental, validate_gk3
from gk3.rigidity import (
    DEFAULT_H1,
    DEFAULT_H2,
    SurveyConfig,
    _tail_b_rational,
    is_complex_rigid,
    is_kahler_rigid,
    kahler_rigid_survey,
)
from gk3.scalars import ComplexQuad, QuadScalar, as_quad

from fieldref import Ref

SQRT2 = QuadScalar(Fraction(0), Fraction(1), 2)


def _kahler(n: int = 1):
    return check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: n})))


def _sigma(n: int = 1):
    return check_gcy(
        two_form_class(deg2_vector({2: 1, 3: n}), deg2_vector({4: 1, 5: n}))
    )


def _generic_partner(explicit):
    return GenericClass(ortho_complement(support_lattice(explicit)), "B")


def test_complex_rigid_on_shioda_inose_member():
    fam_x, _ = build_si_mirror(1)
    out = is_complex_rigid(fam_x.member)
    assert out.kind == "ComplexRigid"
    assert out.is_rigid
    assert out.invariant == ((2, 0), (0, 2))
    assert out.b_rational is True
    assert out.b_canonical is False


def test_kahler_rigidity_reads_the_pair_lattices(ortho_complement_calls):
    pair = validate_gk3(_kahler(), _sigma())
    assert is_kahler_rigid(pair).kind == "KahlerRigid"
    assert len(ortho_complement_calls) == 1  # T of the pair
    assert transcendental(pair) is transcendental(pair)
    assert len(ortho_complement_calls) == 1


def test_rank22_case_eliminates_no_signature_above_2x2(signature_sizes):
    MUKAI.signature()  # the ambient's, computed once per process
    signature_sizes.clear()
    bfield = [Fraction(k % 5 - 2, 1 + k % 3) for k in range(22)]
    omega = tuple(as_quad(u + 2 * v) for u, v in zip(DEFAULT_H1, DEFAULT_H2))
    cls = check_gcy(exponential_class(bfield, omega))
    support = support_lattice(cls)
    t = ortho_complement(support)
    report = is_kahler_rigid(validate_gk3(cls, GenericClass(t, "B")))
    assert report.kind == "KahlerRigid"
    assert t.rank == 22 and t.signature().as_tuple() == (2, 20, 0)
    assert signature_sizes and max(signature_sizes) <= 2
    assert "gram" not in t.__dict__


def test_complex_rigid_wrong_type():
    out = is_complex_rigid(validate_gk3(_sigma(), _kahler()))
    assert out.kind == "NotRigid"
    assert out.reason == "phi_B has type A, needs type B"


def test_complex_rigid_rank_gate():
    # both components of sigma pick up an E8 generator under sqrt(2), so
    # the support has rank 4 and the Neron-Severi complement only rank 20
    re = tuple(QuadScalar(a, b, 2) for a, b in zip(deg2_vector({2: 2, 3: 2}), deg2_vector({6: 1})))
    im = tuple(QuadScalar(a, b, 2) for a, b in zip(deg2_vector({4: 2, 5: 2}), deg2_vector({14: 1})))
    wide = check_gcy(two_form_class(re, im))
    assert len(support_lattice(wide).basis) == 4
    x = validate_gk3(check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 2}))), wide)
    out = is_complex_rigid(x)
    assert out.kind == "NotRigid"
    assert out.reason == "rank NS = 20, needs 22"


def test_complex_rigid_generic_needs_explicit_class():
    x = validate_gk3(_kahler(), GenericClass(support_lattice(_sigma()), "B"))
    with pytest.raises(ValidationError, match="explicit phi_B"):
        is_complex_rigid(x)


def test_tail_b_rationality():
    # sigma = sqrt2 ((e2 + f2) + i (e3 + f3)) is isotropic with norm 8; the
    # projection of B is Re(conj(t) sigma) / 4 = sqrt2 (Re t (e2 + f2) +
    # Im t (e3 + f3)) / 4, rational exactly when Re t and Im t lie in sqrt2 Q
    h1, h2 = deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})
    deg2 = [ComplexQuad(QuadScalar(0, u, 2), QuadScalar(0, v, 2)) for u, v in zip(h1, h2)]
    cases = (
        (0, True),
        (SQRT2, True),
        (ComplexQuad(SQRT2, SQRT2), True),
        (1, False),
        (ComplexQuad(1, 1), False),
        (ComplexQuad(1, SQRT2), False),
        (ComplexQuad(SQRT2, 1), False),
    )
    for tail, rational in cases:
        sigma = GCYClass(CohClass(0, deg2, tail))
        assert (sigma.type_tag, sigma.norm) == ("B", as_quad(8))
        assert _tail_b_rational(sigma) is rational


def test_tail_b_rational_needs_a_rational_period_plane():
    # sigma = (h1 + sqrt2 h2) + i (e3 + 3 f3), h_i = e_i + f_i, spans a plane
    # not defined over Q: its degree-2 support has rank 3, outside the
    # precondition.  The rational B = h2 / 2 solves the tail sqrt2, and the
    # projection test still refuses it.
    h1, h2 = deg2_vector({0: 1, 1: 1}), deg2_vector({2: 1, 3: 1})
    im = deg2_vector({4: 1, 5: 3})
    deg2 = [ComplexQuad(QuadScalar(u, v, 2), w) for u, v, w in zip(h1, h2, im)]
    sigma = GCYClass(CohClass(0, deg2, SQRT2))
    assert (sigma.type_tag, sigma.norm) == ("B", as_quad(12))
    assert support_in(sigma.coh.deg2_part()).rank == 3
    b = CohClass(0, [Fraction(v, 2) for v in h2], 0)
    assert mukai_pairing(b, sigma.coh) == sigma.coh.deg4 == ComplexQuad(SQRT2)
    assert _tail_b_rational(sigma) is False


def _solve_tail(g: GCYClass) -> bool:
    """The 2x2 system on the period plane, solved by sympy over Q(sqrt d):
    is the projection alpha Re + beta Im of B rational?"""
    d = g.coh.d
    field = sympy.QQ.algebraic_field(sympy.sqrt(d)) if d else sympy.QQ

    def elt(q: QuadScalar):
        return field.from_sympy(sympy.Rational(q.a) + sympy.Rational(q.b) * sympy.sqrt(q.d or 1))

    deg2, t = g.coh.deg2, g.coh.deg4
    plane = DomainMatrix([[elt(c.re) for c in deg2], [elt(c.im) for c in deg2]], (2, 22), field)
    gram = DomainMatrix.from_Matrix(sympy.Matrix(K3_GRAM)).convert_to(field)
    rhs = DomainMatrix([[elt(t.re)], [elt(t.im)]], (2, 1), field)
    coeffs = (plane * gram * plane.transpose()).lu_solve(rhs)
    projection = (coeffs.transpose() * plane).to_Matrix()
    return all(x.is_rational for x in projection)


@st.composite
def _type_b_classes(draw):
    """mu (E + i F) with E = p h1 + q h2, F = -q h1 + p h2 over Q(sqrt d),
    moved by exp(B) for a rational B (a solvable tail) plus a random tail."""
    d = draw(st.sampled_from((None, 2, 3)))

    def quad(nonzero=False):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-2, 2)) if d else 0
        return QuadScalar(Fraction(a or int(nonzero), draw(st.integers(1, 3))), b, d)

    p, q, mu = quad(nonzero=True), quad(), ComplexQuad(quad(nonzero=True), quad())
    h1, h2 = deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})
    p, q = Ref.of(p), Ref.of(q)
    sigma = two_form_class(
        [(p * v + q * w).quad() for v, w in zip(h1, h2)],
        [(p * w - q * v).quad() for v, w in zip(h1, h2)],
    ).scale(mu)
    b = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))) for _ in range(22)]
    moved = bfield_transform(b, sigma)  # (0, sigma, <B, sigma>)
    tail = ComplexQuad(quad(), quad()) if draw(st.booleans()) else 0
    return GCYClass(CohClass(0, moved.deg2, (Ref.of(moved.deg4) + tail).cplx()))


@settings(max_examples=30, deadline=None)
@given(_type_b_classes())
def test_tail_b_rational_matches_the_plane_solve(g):
    assert g.type_tag == "B"
    assert _tail_b_rational(g) is _solve_tail(g)


def test_kahler_rigid_on_shioda_inose_member():
    _, fam_dual = build_si_mirror(1)
    out = is_kahler_rigid(fam_dual.member)
    assert out.kind == "KahlerRigid"
    assert out.invariant == ((2, 0), (0, 2))
    assert out.b_rational is True
    assert out.b_canonical is True
    assert out.omega_sq == as_quad(2)


def test_kahler_rigid_quadratic_field_case():
    omega = tuple(QuadScalar(0, v, 2) for v in deg2_vector({0: 1, 1: 1}))
    cls = check_gcy(exponential_class([0] * 22, omega))
    out = is_kahler_rigid(validate_gk3(cls, _generic_partner(cls)))
    assert out.kind == "KahlerRigid"
    assert out.invariant == ((2, 0), (0, 4))
    assert out.omega_sq == as_quad(4)
    assert out.b_rational is True


def test_kahler_rigid_wrong_type():
    out = is_kahler_rigid(validate_gk3(_sigma(), _kahler()))
    assert out.kind == "NotRigid"
    assert out.reason == "phi_A has type B, needs type A"


def test_kahler_rigid_rejects_irrational_bfield_by_rank():
    # an irrational b-field inflates the support past rank 2
    b_irr = tuple(QuadScalar(0, v, 2) for v in deg2_vector({0: 1, 1: 1}))
    cls = check_gcy(exponential_class(b_irr, deg2_vector({2: 1, 3: 1})))
    out = is_kahler_rigid(validate_gk3(cls, _generic_partner(cls)))
    assert out.kind == "NotRigid"
    assert out.reason == "rank T = 21, needs 22"


def test_kahler_invariant_under_bfield_shifts():
    base = deg2_vector({0: 1, 1: 1})
    # integral shifts act by a unimodular matrix, so the reduced form is fixed
    cls = check_gcy(exponential_class(deg2_vector({2: 1, 3: 1}), base))
    out = is_kahler_rigid(validate_gk3(cls, _generic_partner(cls)))
    assert out.kind == "KahlerRigid"
    assert out.invariant == ((2, 0), (0, 2))
    # rational shifts move the support lattice but keep it rank 2, even, pd
    for p, q in ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))):
        b = tuple(p * u + q * v for u, v in zip(DEFAULT_H1, DEFAULT_H2))
        shifted = check_gcy(exponential_class(b, base))
        got = is_kahler_rigid(validate_gk3(shifted, _generic_partner(shifted)))
        assert got.kind == "KahlerRigid"
        a, c = got.invariant[0][0], got.invariant[1][1]
        bb = got.invariant[0][1]
        assert a % 2 == 0 and c % 2 == 0
        assert a > 0 and a * c - bb * bb > 0
        assert got.b_rational is True and got.omega_sq == as_quad(2)


def test_survey_config_validation():
    with pytest.raises(ValidationError):
        SurveyConfig(0, 1)
    with pytest.raises(ValidationError):
        SurveyConfig(4, 0)
    with pytest.raises(ValidationError):
        SurveyConfig(4, 1, h1=(1, 2, 3))


def test_survey_small_grid():
    report = kahler_rigid_survey(SurveyConfig(4, 2))
    assert report.samples == 40
    assert report.achieved == (((2, 0), (0, 2)),)
    assert report.missing == (((2, 1), (1, 2)),)
    gram, witness = report.witnesses[0]
    assert gram == ((2, 0), (0, 2))
    # replay the witness and confirm it reproduces the form
    cls = check_gcy(exponential_class(witness.bfield, witness.omega))
    sup = support_lattice(cls)
    assert gauss_reduce2(sup).lattice.gram == gram


def test_survey_is_deterministic():
    a = kahler_rigid_survey(SurveyConfig(4, 2, sqrt_d=(2,)))
    b = kahler_rigid_survey(SurveyConfig(4, 2, sqrt_d=(2,)))
    assert a == b


def test_survey_achieved_forms_are_reduced_fixed_points():
    report = kahler_rigid_survey(SurveyConfig(8, 2, sqrt_d=(2,)))
    assert ((2, 0), (0, 4)) in report.achieved
    for gram in report.achieved:
        assert gauss_reduce2(IntegralLattice(gram)).lattice.gram == gram


@pytest.mark.parametrize("max_det, denom", [(16, 4), (40, 6)])
def test_survey_work_does_not_grow_with_the_grid(max_det, denom, hnf_passes, signature_sizes):
    """The survey eliminates only to saturate <deg0, deg4, H1, H2> once per
    call; each grid point saturates and reduces its support in closed form."""
    report = kahler_rigid_survey(SurveyConfig(max_det, denom, sqrt_d=(2,)))
    assert report.samples > 1_000
    assert len(hnf_passes) == 3  # HNF of the generators, then their saturation
    assert signature_sizes == []


# --- the rank-22 Kaehler case, step by step as the benchmark runs it ---------


def _rank22_cases():
    """12 fixed cases (B, omega0, kappa): kappa = sqrt2 for every third,
    omega0 = a H1 + b H2, and B-fields with 2 to 22 nonzero slots."""
    rng = random.Random(15)
    for i, nonzero in enumerate((2, 11, 20, 7, 16, 3, 12, 22, 9, 18, 5, 14)):
        height = 1 + i % 4
        a, b = rng.randint(0, 3), rng.randint(1, 3)
        bfield = [Fraction(0)] * 22
        for s in rng.sample(range(22), nonzero):
            bfield[s] = Fraction(rng.randint(-height, height), rng.randint(1, height))
        omega0 = [a * u + b * v for u, v in zip(DEFAULT_H1, DEFAULT_H2)]
        yield bfield, omega0, SQRT2 if i % 3 == 0 else as_quad(1)


def _rank22_case(bfield, omega0, kappa):
    """omega = kappa omega0, exp(B + i omega), its support and a generic
    partner on the complement, the pair and its Kaehler verdict."""
    omega = tuple((Ref.of(kappa) * v).quad() for v in omega0)
    cls = check_gcy(exponential_class(bfield, omega))
    support = support_lattice(cls)
    pair = validate_gk3(cls, GenericClass(ortho_complement(support), "B"))
    return cls, pair, is_kahler_rigid(pair)


def _int_pair(gram, x, y) -> int:
    return sum(u * g * v for u, row in zip(x, gram) for g, v in zip(row, y))


def test_rank22_op_sequence_on_fixed_cases():
    for bfield, omega0, kappa in _rank22_cases():
        cls, pair, report = _rank22_case(bfield, omega0, kappa)
        ns, t = neron_severi(pair), transcendental(pair)
        assert (report.kind, report.b_rational) == ("KahlerRigid", True)
        assert pair.status == "FormalGeneric"
        assert (ns.rank, t.rank) == (2, 22)
        kappa_sq = 2 if kappa == SQRT2 else 1
        assert report.omega_sq == kappa_sq * _int_pair(K3_GRAM, omega0, omega0)
        assert all(_int_pair(MUKAI_GRAM, x, y) == 0 for x in t.basis for y in ns.basis)
        assert gauss_reduce2(ns).lattice.gram == report.invariant


def test_neron_severi_of_a_rank22_pair_is_its_support(hnf_passes):
    # the support is a saturation and T a kernel, both their own saturation,
    # so NS = (T^perp) = Sat(support) is the support object itself
    cls, pair, _ = _rank22_case(*next(_rank22_cases()))
    t = transcendental(pair)
    passes = len(hnf_passes)
    ns = neron_severi(pair)
    assert len(hnf_passes) == passes
    assert ns.basis == support_lattice(cls).basis
    s = support_in(cls.coh)
    passes = len(hnf_passes)
    assert saturation(s) is s and saturation(t) is t
    assert len(hnf_passes) == passes
