from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Matrix

import gk3.lattices
import gk3.mukai
from gk3.errors import ValidationError
from gk3.intlinalg import matmul, saturate
from gk3.lattices import IntegralLattice, Sublattice, gauss_reduce2, ortho_complement
from gk3.mukai import (
    DEG2_RANK,
    MUKAI,
    MUKAI_GRAM,
    MUKAI_RANK,
    CohClass,
    GCYClass,
    GenericClass,
    bfield_matrix,
    bfield_transform,
    check_gcy,
    deg2_vector,
    exponential_class,
    mukai_pairing,
    period_plane,
    support_in,
    support_lattice,
    two_form_class,
    type_a_parts,
)
from gk3.scalars import ComplexQuad, QuadScalar, as_quad

from fieldref import Ref


def _unit(index: int) -> CohClass:
    coords = [0] * 24
    coords[index] = 1
    return CohClass(coords[0], coords[2:], coords[1])


def _random_class(rng: random.Random, d: int | None = None) -> CohClass:
    def scalar():
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        b = Fraction(rng.randint(-2, 2)) if d else Fraction(0)
        return ComplexQuad(QuadScalar(a, b, d), QuadScalar(Fraction(rng.randint(-3, 3)), b * 0, d))

    return CohClass(scalar(), tuple(scalar() for _ in range(DEG2_RANK)), scalar())


def _brute_pairing(x: CohClass, y: CohClass) -> Ref:
    xs, ys = x.coords24(), y.coords24()
    acc = Ref()
    for i in range(24):
        for j in range(24):
            if MUKAI_GRAM[i][j]:
                acc = acc + Ref.of(xs[i]) * Ref.of(ys[j]) * MUKAI_GRAM[i][j]
    return acc


def test_ambient_invariants():
    assert MUKAI.rank == 24
    assert MUKAI.signature().as_tuple() == (4, 20, 0)
    assert abs(MUKAI.det()) == 1
    assert MUKAI.is_even


def test_pairing_cross_term():
    assert mukai_pairing(_unit(0), _unit(1)) == ComplexQuad(-1)
    v1 = CohClass(1, [0] * 22, -1)
    assert mukai_pairing(v1, v1) == ComplexQuad(2)


def test_pairing_refuses_a_member_and_names_its_coh():
    member = check_gcy(exponential_class([0] * DEG2_RANK, [as_quad(v) for v in deg2_vector({0: 1, 1: 1})]))
    for args in ((member, member), (member.coh, member), (member, member.coh)):
        with pytest.raises(ValidationError, match=r"got GCYClass; pass its \.coh"):
            mukai_pairing(*args)
    assert mukai_pairing(member.coh, member.coh).is_zero


@pytest.mark.parametrize(
    "build",
    [
        lambda: CohClass(True, [0] * 22, 0),
        lambda: CohClass(0, [0] * 21 + [False], 1),
        lambda: exponential_class([True] + [0] * 21, deg2_vector({0: 1, 1: 1})),
        lambda: exponential_class([0] * 22, deg2_vector({0: True, 1: 1})),
    ],
    ids=["CohClass deg0", "CohClass deg2", "exponential_class B", "exponential_class omega"],
)
def test_classes_refuse_a_bool_coordinate(build):
    with pytest.raises(ValidationError, match="cannot interpret (True|False) as an exact scalar"):
        build()


def test_pairing_matches_dense_gram_expansion():
    rng = random.Random(31)
    for _ in range(25):
        x = _random_class(rng, d=2)
        y = _random_class(rng, d=2)
        assert mukai_pairing(x, y) == _brute_pairing(x, y)
        assert mukai_pairing(x, y) == mukai_pairing(y, x)


def _dense_pairing(gram, u, v) -> Ref:
    """Double sum over every entry of the Gram matrix."""
    acc = Ref()
    for i, row in enumerate(gram):
        for j, g in enumerate(row):
            if g:
                acc = acc + Ref.of(u[i]) * Ref.of(v[j]) * g
    return acc


@st.composite
def _vector_pairs(draw):
    """Two real or complex Q(sqrt d) 24-vectors, sparse, sometimes all zero."""
    d = draw(st.sampled_from((2, 3, 7)))
    is_complex = draw(st.booleans())
    parts = 4 if is_complex else 2  # rational and sqrt(d) parts of Re (and Im)

    def vector():
        if draw(st.integers(0, 4)) == 0:
            nums = [0] * (24 * parts)
        else:
            nums = draw(st.lists(st.integers(-2, 2), min_size=24 * parts, max_size=24 * parts))
        denom = draw(st.integers(1, 3))
        quads = [
            QuadScalar(Fraction(a, denom), Fraction(b, denom), d)
            for a, b in zip(nums[::2], nums[1::2])
        ]
        if is_complex:
            return tuple(ComplexQuad(re, im) for re, im in zip(quads[::2], quads[1::2]))
        return tuple(quads)

    return vector(), vector()


@settings(max_examples=100, deadline=None)
@given(_vector_pairs())
def test_pairing_matches_dense_double_sum(pair):
    u, v = pair
    got = mukai_pairing(_class_of(u), _class_of(v))
    # for real vectors the oracle is real: got.re equals it, got.im is 0
    assert got == _dense_pairing(MUKAI_GRAM, u, v)


def test_support_is_computed_once_per_gcy_class(monkeypatch):
    calls = []
    support_in = gk3.mukai.support_in
    monkeypatch.setattr(
        gk3.mukai, "support_in", lambda x: calls.append(1) or support_in(x)
    )
    g = check_gcy(exponential_class(deg2_vector({0: 1}), deg2_vector({0: 1, 1: 2})))
    first = support_lattice(g)
    assert support_lattice(g) is first
    assert g.support is first
    assert len(calls) == 1


def test_bfield_zero_is_identity():
    rng = random.Random(37)
    x = _random_class(rng)
    assert bfield_transform([0] * 22, x) == x


def test_bfield_on_unit_degree_zero():
    b = deg2_vector({0: 1, 1: 1})  # B^2 = 2
    out = bfield_transform(b, _unit(0))
    assert out.deg0 == ComplexQuad(1)
    assert out.deg4 == ComplexQuad(1)
    assert [c.re for c in out.deg2[:2]] == [as_quad(1), as_quad(1)]


def test_bfield_preserves_pairing_and_composes():
    rng = random.Random(41)
    for _ in range(60):
        b1 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22)]
        b2 = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(22)]
        x = _random_class(rng)
        y = _random_class(rng)
        tx, ty = bfield_transform(b1, x), bfield_transform(b1, y)
        assert mukai_pairing(tx, ty) == mukai_pairing(x, y)
        assert tx.deg0 == x.deg0
        twice = bfield_transform(b2, tx)
        joint = bfield_transform([u + v for u, v in zip(b1, b2)], x)
        assert twice == joint


def test_bfield_matrix_is_unimodular_and_matches_transform():
    rng = random.Random(43)
    for _ in range(20):
        b = [rng.randint(-2, 2) for _ in range(22)]
        m = bfield_matrix(b)
        assert abs(Matrix(m).det()) == 1
        x = _random_class(rng)
        moved = bfield_transform(b, x)
        xs = x.coords24()
        for col in range(24):
            acc = Ref()
            for row in range(24):
                if m[row][col]:
                    acc = acc + Ref.of(xs[row]) * m[row][col]
            assert acc == moved.coords24()[col]


def test_bfield_transports_support():
    from gk3.intlinalg import hnf_basis

    rng = random.Random(47)
    h = deg2_vector({0: 1, 1: 2})
    x = exponential_class([0] * 22, h)
    for _ in range(10):
        b = [rng.randint(-2, 2) for _ in range(22)]
        m = bfield_matrix(b)
        before = support_lattice(x)
        after = support_lattice(bfield_transform(b, x))
        # a unimodular matrix maps saturated lattices to saturated ones,
        # so only HNF normalization separates the two computations
        assert after.basis == hnf_basis(matmul(before.basis, m), 24)


def test_check_gcy_type_a_example():
    g = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    assert g.type_tag == "A"
    assert g.norm == as_quad(4)  # 2 * omega^2


def test_check_gcy_type_b_example():
    sigma = two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))
    g = check_gcy(sigma)
    assert g.type_tag == "B"
    assert g.norm == as_quad(4)


def test_check_gcy_interpolation():
    sigma = two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))
    for t, tag in ((Fraction(1), "A"), (Fraction(-3, 2), "A"), (Fraction(0), "B")):
        phi_t = CohClass(ComplexQuad(t), sigma.deg2, sigma.deg4)
        assert check_gcy(phi_t).type_tag == tag


def test_check_gcy_error_names_the_failed_condition():
    with pytest.raises(ValidationError, match="not isotropic"):
        check_gcy(CohClass(1, [0] * 22, 1))  # <phi,phi> = -2
    with pytest.raises(ValidationError, match="not positive"):
        # real isotropic vector pairs to 0 with its own conjugate
        check_gcy(CohClass(1, [0] * 22, 0))


def test_real_imaginary_split_of_isotropy():
    g = check_gcy(exponential_class(deg2_vector({2: 1}), deg2_vector({0: 1, 1: 3})))
    pp = period_plane(g)
    assert pp.gram[0][0] == pp.gram[1][1]
    assert pp.gram[0][1].is_zero


def test_support_rank2_family():
    for n in range(1, 4):
        h = deg2_vector({0: 1, 1: n})
        sup = support_lattice(check_gcy(exponential_class([0] * 22, h)))
        assert len(sup.basis) == 2
        red = gauss_reduce2(sup)
        assert red.lattice.gram == ((2 * n, 0), (0, 2 * n))


def test_support_sqrt2_case():
    h = deg2_vector({0: 1, 1: 1})
    omega = tuple(QuadScalar(0, v, 2) for v in h)
    g = check_gcy(exponential_class([0] * 22, omega))
    sup = support_lattice(g)
    assert len(sup.basis) == 2
    assert gauss_reduce2(sup).lattice.gram == ((2, 0), (0, 4))


def test_support_rank3_expansion():
    # (1, 0, 0) - sqrt(2) (0, 0, 1) + i sqrt(2) (0, H, 0) spans three
    # rational components even though no exact e^{i eps H} exists
    h = deg2_vector({0: 1, 1: 1})
    deg2 = tuple(ComplexQuad(as_quad(0), QuadScalar(0, v, 2)) for v in h)
    psi = CohClass(ComplexQuad(1), deg2, ComplexQuad(QuadScalar(0, -1, 2)))
    assert len(support_lattice(psi).basis) == 3


def test_support_clears_denominators():
    sup = support_in(CohClass(Fraction(1, 2), [0] * 22, 0))
    assert sup.basis == ((1,) + (0,) * 23,)


def test_class_lies_in_span_of_its_support():
    rng = random.Random(53)
    for _ in range(20):
        x = _random_class(rng, d=rng.choice([None, 2]))
        sup = support_lattice(x)
        assert len(sup.basis) <= 4
        # every nonzero component row lies in the Q-span: adding it keeps the rank
        for row in x.rows:
            if any(row):
                assert Matrix(sup.basis + (row,)).rank() == len(sup.basis)


def test_period_plane_examples():
    g = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    pp = period_plane(g)
    assert [[str(v) for v in row] for row in pp.gram] == [["2", "0"], ["0", "2"]]

    sigma = check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})))
    pp2 = period_plane(sigma)
    assert [[str(v) for v in row] for row in pp2.gram] == [["2", "0"], ["0", "2"]]


def test_period_plane_rejects_real_classes():
    g = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    real_only = CohClass(g.coh.deg0, tuple(ComplexQuad(c.re) for c in g.coh.deg2), g.coh.deg4)
    # a class is checked where it is built, so no real class reaches period_plane
    with pytest.raises(ValidationError, match="not isotropic"):
        GCYClass(real_only)


def test_decompose_type_a_roundtrip():
    b = deg2_vector({2: Fraction(1, 2), 3: 1})
    w = deg2_vector({0: 1, 1: 2})
    g = check_gcy(exponential_class(b, w).scale(3))
    b_out, w_out = type_a_parts(g)
    assert g.coh.deg0 == ComplexQuad(3)
    assert [str(v) for v in b_out.deg2[:4]] == ["0", "0", "1/2", "1"]
    assert [str(v) for v in w_out.deg2[:2]] == ["1", "2"]
    sigma = check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})))
    with pytest.raises(ValidationError, match="type A"):
        type_a_parts(sigma)


def test_deg2_vector_refuses_an_index_outside_0_to_21():
    assert deg2_vector({21: 5})[21] == 5
    for bad in (-1, 22):  # -1 would set index 21
        with pytest.raises(ValidationError, match=rf"index must be an int in 0\.\.21, got {bad}"):
            deg2_vector({bad: 1})


def test_generic_class_validation():
    sigma = check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1})))
    sup = support_lattice(sigma)
    g = GenericClass(sup, "B")
    assert g.type_tag == "B"
    assert g.support is sup
    with pytest.raises(ValidationError, match="type A generic support"):
        GenericClass(sup, "A")
    with pytest.raises(ValidationError, match="positive directions"):
        GenericClass(Sublattice(MUKAI, ((0, 0, 1, 0) + (0,) * 20,)), "B")
    with pytest.raises(ValidationError, match="type tag"):
        GenericClass(sup, "C")


def test_generic_complement_with_one_positive_direction():
    # S = U(-1) + U + U has signature (3, 3), so T = S^⊥ = U + E8(-1)^2 has
    # signature (4, 20) - (3, 3) = (1, 17): read off S, T's Gram never built
    s = Sublattice(MUKAI, tuple(tuple(int(i == j) for i in range(24)) for j in range(6)))
    t = ortho_complement(s)
    with pytest.raises(ValidationError) as err:
        GenericClass(t, "B")
    assert str(err.value) == "generic support needs at least 2 positive directions, got 1"
    assert "gram" not in t.__dict__
    assert t.signature().as_tuple() == (1, 17, 0)


def test_rank22_complement_runs_no_rank_check_and_no_gram_scan(monkeypatch):
    # every basis on the way to T is an HNF basis, independent on sight, and
    # the Mukai Gram is scanned once, into the lattice's own entries
    assert MUKAI.entries is MUKAI.entries
    q_rank, gram_entries = gk3.lattices.q_rank, gk3.lattices.gram_entries
    ranks, scans = [], []
    monkeypatch.setattr(gk3.lattices, "q_rank", lambda m: ranks.append(len(m)) or q_rank(m))
    monkeypatch.setattr(
        gk3.lattices, "gram_entries", lambda g: scans.append(len(g)) or gram_entries(g)
    )
    bfield = [Fraction((i % 5) - 2, 1 + i % 3) for i in range(DEG2_RANK)]
    g = check_gcy(exponential_class(bfield, deg2_vector({0: 1, 1: 1})))
    t = GenericClass(ortho_complement(support_lattice(g)), "B").support
    assert t.rank == 22
    assert ranks == []
    assert scans == []


def test_rank2_support_complement_and_saturation_carry_no_ambient_transform(hnf_passes):
    """T = S^⊥ for a rank-2 support S sweeps the 24 columns of its 2 x 24
    conditions and runs no Hermite elimination; the saturation of the rows
    of S eliminates its nonzero columns (20 of the 24) as rows of 2
    entries, then 2 rows of 24.  No pass carries a 24-column transform or
    inverse."""
    bfield = [Fraction((i % 5) - 2, 1 + i % 3) for i in range(DEG2_RANK)]
    s = support_lattice(check_gcy(exponential_class(bfield, deg2_vector({0: 1, 1: 1}))))
    hnf_passes.clear()
    assert ortho_complement(s).rank == 22
    assert hnf_passes == []
    assert saturate(s.basis, MUKAI_RANK) == s.basis
    assert sum(map(any, zip(*s.basis))) == 20
    assert hnf_passes == [(20, 2), (2, MUKAI_RANK)]


def test_support_of_echelon_rows_runs_two_hermite_passes(hnf_passes):
    """Echelon component rows are independent and go to the saturation as
    they are (2 passes); rows that share a leading column take a Hermite
    pass first.  Both give the same support."""
    echelon = exponential_class(deg2_vector({2: 1}), deg2_vector({0: 1, 1: 1}))
    mixed = echelon.scale(ComplexQuad(1, 1))  # Re and Im both lead at degree 0
    hnf_passes.clear()
    want = support_in(echelon).basis
    assert len(hnf_passes) == 2
    hnf_passes.clear()
    assert support_in(mixed).basis == want
    assert len(hnf_passes) == 3


def test_member_helpers_on_explicit_classes():
    g = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    assert g.type_tag == "A"
    assert g.support.basis == support_lattice(g).basis


# --- the row form against a per-coordinate reference algorithm -------------


def _refs(xs) -> list[Ref]:
    return [Ref.of(x) for x in xs]


def _ref_pairing(xs, ys) -> Ref:
    """Mukai pairing of two 24-coordinate vectors, one reference term per
    nonzero Gram entry."""
    xs, ys = _refs(xs), _refs(ys)
    acc = Ref()
    for i, row in enumerate(MUKAI_GRAM):
        for j, g in enumerate(row):
            if g and not xs[i].is_zero and not ys[j].is_zero:
                acc = acc + xs[i] * ys[j] * g
    return acc


def _ref_bfield(b, xs) -> list[Ref]:
    """exp(B): (r, D, s) -> (r, D + rB, s + <B,D> + r B^2/2) on coordinates."""
    bvec, xs = [Ref(), Ref()] + _refs(b), _refs(xs)
    r = xs[0]
    deg4 = xs[1] + _ref_pairing(bvec, xs) + r * _ref_pairing(bvec, bvec) * Fraction(1, 2)
    return [r, deg4] + [x + r * v for x, v in zip(xs[2:], bvec[2:])]


def _ref_exponential(b, w) -> list[Ref]:
    """exp(B + i omega) = (1, B + i omega, (B + i omega)^2 / 2) on coordinates."""
    i = Ref((0, 0, 1, 0))
    z = [Ref(), Ref()] + [Ref.of(u) + i * Ref.of(v) for u, v in zip(b, w)]
    return [Ref.of(1), _ref_pairing(z, z) * Fraction(1, 2)] + z[2:]


def _ref_support_basis(xs) -> tuple:
    """Saturated span of the four rational component vectors of the coordinates."""
    from gk3.intlinalg import hnf_basis, saturate

    parts = [[c.re.a for c in xs], [c.re.b for c in xs], [c.im.a for c in xs], [c.im.b for c in xs]]
    rows = [v for v in map(_clear_denominators, parts) if any(v)]
    return saturate(hnf_basis(rows, 24), 24) if rows else ()


def _clear_denominators(vec) -> tuple:
    scale = math.lcm(*(v.denominator for v in vec))
    return tuple(int(v * scale) for v in vec)


def _ref_check(xs):
    """check_gcy's verdict on coordinates: (type, norm) or the error message."""
    self_pairing = _ref_pairing(xs, xs)
    if not self_pairing.is_zero:
        return f"not isotropic: <phi,phi> = {self_pairing}"
    norm = _ref_pairing(xs, [Ref.of(c).conj() for c in xs]).re
    if norm.quad().sign() <= 0:
        return f"not positive: <phi,conj phi> = {norm}"
    return ("A" if not xs[0].is_zero else "B", norm)


def _class_of(xs) -> CohClass:
    """The class of 24 coordinates, library scalars or references."""
    xs = [x.cplx() if isinstance(x, Ref) else x for x in xs]
    return CohClass(xs[0], xs[2:], xs[1])


@st.composite
def _scalars(draw, d, real=False):
    den = draw(st.integers(1, 3))
    ra, ia = draw(st.integers(-3, 3)), 0 if real else draw(st.integers(-3, 3))
    rb, ib = (draw(st.integers(-2, 2)), 0 if real else draw(st.integers(-2, 2))) if d else (0, 0)
    re = QuadScalar(Fraction(ra, den), Fraction(rb, den), d)
    return re if real else ComplexQuad(re, QuadScalar(Fraction(ia, den), Fraction(ib, den), d))


@st.composite
def _vectors(draw, d, size, real=False):
    """A sparse or dense vector over Q(sqrt d) (d None: rational)."""
    zero = as_quad(0) if real else ComplexQuad(0)
    if draw(st.booleans()):
        return [draw(_scalars(d, real)) for _ in range(size)]
    slots = draw(st.sets(st.integers(0, size - 1), max_size=6))
    return [draw(_scalars(d, real)) if i in slots else zero for i in range(size)]


@st.composite
def _class_cases(draw):
    d = draw(st.sampled_from((None, 2, 3, 7)))
    xs, ys = draw(_vectors(d, 24)), draw(_vectors(d, 24))
    b = draw(_vectors(draw(st.sampled_from((None, d))), 22, real=True))
    k = draw(_scalars(d))
    return xs, ys, b, k


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((None, 2, 3)),
    st.booleans(),
    st.lists(st.lists(st.integers(-3, 3) | st.just(0), min_size=4, max_size=4), min_size=1, max_size=4),
)
def test_numerators_sum_the_unit_products(d, conj, block):
    """sum p_jk c_j c_k (c_k conjugated when conj) for c = 1, sqrt d, i,
    i sqrt d, in the reference field; sqrt(d) rows are zero when d is None."""
    if d is None:
        block = [[0 if (j | k) & 1 else p for k, p in enumerate(row)] for j, row in enumerate(block)]
    units = [Ref((int(t == 0), int(t == 1), int(t == 2), int(t == 3)), d or 2) for t in range(4)]
    want = Ref()
    for j, row in enumerate(block):
        for k, p in enumerate(row):
            want = want + units[j] * (units[k].conj() if conj else units[k]) * p
    assert Ref(gk3.mukai._numerators(block, d, conj), d or 2) == want


@settings(max_examples=60, deadline=None)
@given(_class_cases())
def test_row_form_matches_the_per_coordinate_algorithm(case):
    xs, ys, b, k = case
    x, y = _class_of(xs), _class_of(ys)
    assert x.coords24() == tuple(xs)
    assert mukai_pairing(x, y) == _ref_pairing(xs, ys)
    assert bfield_transform(b, x) == _class_of(_ref_bfield(b, xs))
    assert x.conjugate() == _class_of([Ref.of(c).conj() for c in xs])
    assert x.scale(k) == _class_of([Ref.of(c) * k for c in xs])
    assert support_in(x).basis == _ref_support_basis(xs)
    w = [c.re for c in ys[2:]]
    assert exponential_class(b, w) == _class_of(_ref_exponential(b, w))
    for cls in (x, exponential_class(b, w), two_form_class(b, w)):
        want = _ref_check(cls.coords24())
        try:
            g = check_gcy(cls)
        except ValidationError as e:
            assert str(e) == want
        else:
            assert (g.type_tag, g.norm) == want


@settings(max_examples=40, deadline=None)
@given(_class_cases())
def test_row_form_is_a_normal_form(case):
    xs, _, b, k = case
    x = _class_of(xs)
    if not k.is_zero:
        # the same value through a common factor and back
        inverse = Ref.of(k).inverse()
        assert inverse * k == 1
        again = x.scale(k).scale(inverse.cplx())
        assert again == x and hash(again) == hash(x)
        assert (again.den, again.d, again.rows) == (x.den, x.d, x.rows)
    shifted = bfield_transform([(-Ref.of(v)).quad() for v in b], bfield_transform(b, x))
    assert shifted == x and hash(shifted) == hash(x)
    assert math.gcd(x.den, *(v for row in x.rows for v in row)) == 1
    assert (x.d is None) == (not any(x.rows[1]) and not any(x.rows[3]))


def test_normal_form_of_a_cancelled_class():
    x = CohClass(Fraction(2, 4), [Fraction(6, 4)] + [0] * 21, QuadScalar(0, 0, 2))
    assert (x.den, x.d) == (2, None)
    assert x.rows[0][:3] == (1, 0, 3)
    assert x == CohClass(Fraction(1, 2), [Fraction(3, 2)] + [0] * 21, 0)


def _h(i: int) -> tuple:
    """e_i + f_i in the i-th copy of U (i = 0, 1, 2), square 2."""
    return deg2_vector({2 * i: 1, 2 * i + 1: 1})


@st.composite
def _type_a_cases(draw):
    """(lambda, B, omega) with lambda non-real, irrational when d is set,
    and omega in the positive 3-space of the three U copies."""
    d = draw(st.sampled_from((None, 2, 3)))
    im = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    lam = ComplexQuad(draw(_scalars(d, real=True)), QuadScalar(im, 1 if d else 0, d))
    b = draw(_vectors(d, 22, real=True))
    s = [draw(_scalars(d, real=True)) for _ in range(3)]
    if all(c.is_zero for c in s):
        s[0] = as_quad(1)
    s = _refs(s)
    omega = [(c0 * s[0] + c1 * s[1] + c2 * s[2]).quad() for c0, c1, c2 in zip(_h(0), _h(1), _h(2))]
    return lam, tuple(b), tuple(omega)


@settings(max_examples=40, deadline=None)
@given(_type_a_cases())
def test_decompose_type_a_recovers_lambda_b_omega(case):
    lam, b, omega = case
    g = check_gcy(exponential_class(b, omega).scale(lam))
    assert g.type_tag == "A"
    assert g.coh.deg0 == lam
    assert type_a_parts(g) == (CohClass(0, b, 0), CohClass(0, omega, 0))


@settings(max_examples=40, deadline=None)
@given(_type_a_cases(), st.booleans())
def test_period_plane_gram_is_half_the_norm(case, type_b):
    lam, b, omega = case
    if type_b:
        # sigma = lambda (w + i w') for w = s0 h0 + s1 h1 and the right-angle
        # turn w' = -s1 h0 + s0 h1: w^2 = w'^2 and w.w' = 0
        s0, s1 = omega[0] or as_quad(1), omega[2]
        zeros = (as_quad(0),) * 18
        minus_s1 = (-Ref.of(s1)).quad()
        w, turned = (s0, s0, s1, s1) + zeros, (minus_s1, minus_s1, s0, s0) + zeros
        g = GCYClass(two_form_class(w, turned).scale(lam))
    else:
        g = GCYClass(exponential_class(b, omega).scale(lam))
    half = Ref.of(g.norm) * Fraction(1, 2)
    assert period_plane(g).gram == ((half, as_quad(0)), (as_quad(0), half))
