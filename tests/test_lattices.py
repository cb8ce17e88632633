from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import gk3.lattices
from gk3.errors import ValidationError
from gk3.intlinalg import (
    _sym_signature,
    freeze,
    gram_entries,
    gram_rows,
    int_kernel,
    matmul,
    saturate,
    snf_divisors,
    transpose,
)
from gk3.lattices import (
    HyperbolicSplit,
    IntegralLattice,
    SplitNotFound,
    Sublattice,
    diag_lattice,
    direct_sum,
    discriminant,
    e8_minus,
    enumerate_reduced_forms,
    find_hyperbolic_split,
    gauss_reduce2,
    hyperbolic_plane,
    invariants_match,
    is_primitive,
    k3_lattice,
    named_lattice,
    ortho_complement,
    rescale,
    saturation,
)
from gk3.mukai import MUKAI


def _random_sublattice(rng: random.Random, ambient: IntegralLattice) -> Sublattice:
    n = ambient.rank
    r = rng.randint(1, n - 1)
    while True:
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(r))
        try:
            return Sublattice(ambient, rows)
        except ValidationError:
            continue


def test_named_constructors():
    u = hyperbolic_plane()
    assert u.gram == ((0, 1), (1, 0))
    assert u.signature().as_tuple() == (1, 1, 0)
    assert u.det() == -1
    assert u.is_even

    e8m = e8_minus()
    assert e8m.rank == 8
    assert e8m.signature().as_tuple() == (0, 8, 0)
    assert e8m.det() == 1
    assert e8m.is_even

    k3 = k3_lattice()
    assert k3.rank == 22
    assert k3.signature().as_tuple() == (3, 19, 0)
    assert k3.is_even

    assert named_lattice("U").gram == u.gram
    assert named_lattice("E8minus").gram == e8m.gram
    assert named_lattice("K3").gram == k3.gram
    with pytest.raises(ValidationError, match="unknown named lattice"):
        named_lattice("nope")


def test_named_mukai_is_the_old_mukai_gram_entry_by_entry():
    """Mukai is U(-1) + K3: the pairing -r s' - s r' on the degree-0 and
    degree-4 units (indices 0 and 1), then the K3 form on indices 2..23."""
    k3 = k3_lattice().gram
    old = [[0] * 24 for _ in range(24)]
    old[0][1] = old[1][0] = -1
    for i in range(22):
        for j in range(22):
            old[2 + i][2 + j] = k3[i][j]
    got = named_lattice("Mukai").gram
    assert [len(row) for row in got] == [24] * 24
    assert [(i, j) for i in range(24) for j in range(24) if got[i][j] != old[i][j]] == []
    assert named_lattice("Mukai") is MUKAI


def test_builders():
    assert diag_lattice((2, -4)).gram == ((2, 0), (0, -4))
    assert rescale(hyperbolic_plane(), 3).gram == ((0, 3), (3, 0))
    s = direct_sum(diag_lattice((2,)), hyperbolic_plane())
    assert s.gram == ((2, 0, 0), (0, 0, 1), (0, 1, 0))


def test_lattice_predicates():
    assert diag_lattice((2, 2)).is_definite
    assert not hyperbolic_plane().is_definite
    assert diag_lattice((1,)).is_even is False
    assert diag_lattice((0,)).is_degenerate


def test_sublattice_rejects_dependent_rows():
    # echelon rows are independent on sight; any other basis is eliminated
    u = hyperbolic_plane()
    for rows in (((1, 1), (2, 2)), ((1, 2), (2, 4)), ((1, 0), (1, 0)), ((0, 0),), ((1, 0), (0, 0))):
        with pytest.raises(ValidationError, match="dependent basis"):
            Sublattice(u, rows)
    assert Sublattice(u, ((0, 1), (1, 0))).rank == 2


@pytest.mark.parametrize("entry", [1.5, 0.9, 2.0, Fraction(3, 2), Fraction(2), True, "1"], ids=repr)
def test_integer_matrices_refuse_entries_that_are_not_int(entry):
    # int() would truncate 1.5 and Fraction(3, 2) to 1 and 0.9 to 0, and pass a bool
    with pytest.raises(ValidationError, match="matrix entries must be int"):
        IntegralLattice(((entry, 0), (0, 1)))
    with pytest.raises(ValidationError, match="matrix entries must be int"):
        Sublattice(hyperbolic_plane(), ((entry, 1),))
    with pytest.raises(ValidationError, match="matrix entries must be int"):
        freeze([[0, 1], [1, entry]])


def test_freeze_keeps_int_rows():
    rows = ((1, -2), (3, 10**40))
    assert freeze(rows) == rows and freeze(rows)[1] is rows[1]
    assert freeze([[1, -2], [3, 10**40]]) == rows
    assert freeze(iter(())) == ()
    assert IntegralLattice([[0, 1], [1, 0]]).gram == ((0, 1), (1, 0))


def test_induced_gram_and_membership():
    u = hyperbolic_plane()
    s = Sublattice(u, ((1, 1),))
    assert s.gram == ((2,),)
    assert s.contains(Sublattice(u, ((2, 2),)))
    assert not s.contains(Sublattice(u, ((1, 0),)))


def test_signature_and_induced_lattice_are_computed_once(monkeypatch):
    calls = []
    sym_signature = gk3.lattices._sym_signature
    monkeypatch.setattr(
        gk3.lattices, "_sym_signature", lambda g: calls.append(g) or sym_signature(g)
    )
    l = direct_sum(hyperbolic_plane(), diag_lattice((2, -6)))
    assert l.signature().as_tuple() == (2, 2, 0)
    assert (l.is_definite, l.is_degenerate, l.is_positive_definite) == (False, False, False)
    assert l.signature().as_tuple() == (2, 2, 0)
    assert len(calls) == 1
    s = Sublattice(l, ((1, 1, 0, 0), (0, 0, 1, 0)))
    assert s.gram is s.gram
    assert s.is_positive_definite and s.is_definite
    assert len(calls) == 2


def test_complement_of_isotropic_span_in_u():
    s = Sublattice(hyperbolic_plane(), ((1, 1),))
    c = ortho_complement(s)
    assert c.basis == ((1, -1),)
    assert c.gram == ((-2,),)


def test_complement_is_computed_once(ortho_complement_calls):
    s = Sublattice(hyperbolic_plane(), ((1, 1),))
    assert ortho_complement(s) is ortho_complement(s)
    assert len(ortho_complement_calls) == 1


def test_complement_in_a_degenerate_ambient_raises_on_every_call():
    # <(2, 0)> has form <4>, not unimodular, so diag(1, 0) need not split off
    # its complement
    s = Sublattice(diag_lattice((1, 0)), ((2, 0),))
    for _ in range(2):
        with pytest.raises(ValidationError, match="degenerate ambient"):
            ortho_complement(s)


def test_complement_of_a_unimodular_sublattice_in_a_degenerate_ambient():
    amb = diag_lattice((1, 0))
    assert ortho_complement(Sublattice(amb, ((1, 0),))).basis == ((0, 1),)
    assert ortho_complement(Sublattice(amb, ())).basis == ((1, 0), (0, 1))


def test_double_complement_shortcut_stays_out_of_a_degenerate_ambient():
    # in U + <0> the radical (0, 0, 1) is S^⊥ for S = U, and its complement
    # is the whole lattice, not Sat(S); its form is degenerate, so it is refused
    amb = direct_sum(hyperbolic_plane(), diag_lattice((0,)))
    s = Sublattice(amb, ((1, 0, 0), (0, 1, 0)))
    c = ortho_complement(s)
    assert c.basis == ((0, 0, 1),)
    with pytest.raises(ValidationError, match="degenerate ambient"):
        ortho_complement(c)
    # nor does its signature come from sig(L) - sig(S), which would lose the
    # zero direction: (1, 1, 1) - (1, 1, 0)
    assert c._complement_of is None
    assert c.signature().as_tuple() == (0, 0, 1)


def test_complement_involution():
    rng = random.Random(23)
    ambient = direct_sum(hyperbolic_plane(), hyperbolic_plane(), diag_lattice((2, -2)))
    entries = gram_entries(ambient.gram)
    for _ in range(100):
        s = _random_sublattice(rng, ambient)
        c = ortho_complement(s)
        cc = ortho_complement(c)
        # in a nondegenerate ambient the double complement is the saturation,
        # whatever the form of s; the shortcut agrees with a fresh kernel
        assert cc.basis == saturation(s).basis
        assert cc.basis == int_kernel(gram_rows(entries, c.basis), ambient.rank)


def test_double_complement_runs_no_kernel(monkeypatch):
    calls = []
    kernel = gk3.lattices.int_kernel
    monkeypatch.setattr(gk3.lattices, "int_kernel", lambda *a: calls.append(1) or kernel(*a))
    s = Sublattice(k3_lattice(), ((1, 1) + (0,) * 20, (0, 0, 2, 0) + (0,) * 18))
    c = ortho_complement(s)
    assert len(calls) == 1
    assert ortho_complement(c).basis == saturation(s).basis
    assert len(calls) == 1


@st.composite
def _nondegenerate_indefinite(draw) -> IntegralLattice:
    n = draw(st.integers(2, 6))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        g[0][0] = 0  # e_0 isotropic, so isotropic and degenerate S can be drawn
    sig, _ = _sym_signature(g)
    assume(sig.n_zero == 0 and sig.n_plus and sig.n_minus)
    return IntegralLattice(g)


@st.composite
def _sublattices(draw) -> Sublattice:
    """Rank 0-5 sublattices of K3, Mukai or a random nondegenerate
    indefinite ambient; isotropic, degenerate and non-primitive ones are
    drawn on purpose."""
    amb = draw(st.sampled_from((k3_lattice(), MUKAI)) | _nondegenerate_indefinite())
    n = amb.rank
    r = draw(st.integers(0, min(5, n - 1)))
    rows = [
        [draw(st.integers(-2, 2)) if draw(st.integers(0, 3)) == 0 else 0 for _ in range(n)]
        for _ in range(r)
    ]
    e0 = [int(i == 0) for i in range(n)]
    if r and amb.gram[0][0] == 0 and draw(st.booleans()):
        rows[0] = e0  # isotropic
        if r > 1 and draw(st.booleans()):
            # a vector of e0^⊥ beside e0 leaves S degenerate
            perp = int_kernel(gram_rows(gram_entries(amb.gram), (e0,)), n)
            rows[1] = list(perp[draw(st.integers(0, len(perp) - 1))])
    if r and draw(st.booleans()):
        rows[-1] = [draw(st.integers(2, 3)) * x for x in rows[-1]]  # non-primitive
    try:
        return Sublattice(amb, rows)
    except ValidationError:  # dependent rows
        assume(False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sublattices())
@example(Sublattice(k3_lattice(), ((1,) + (0,) * 21,)))  # <e> for isotropic e: e in S^⊥
@example(Sublattice(k3_lattice(), ((1,) + (0,) * 21, (0, 0, 1) + (0,) * 19)))
@example(Sublattice(MUKAI, ((0, 0, 2, 2) + (0,) * 20,)))
def test_complement_signature_from_the_complemented_lattice(s):
    c = ortho_complement(s)
    cc = ortho_complement(c)
    assert c.signature() == _sym_signature(c.gram)[0]
    assert cc.signature() == _sym_signature(cc.gram)[0]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sublattices())
@example(Sublattice(k3_lattice(), ((1, 2) + (0,) * 20,)))  # <4>: A(S^⊥) = Z/4
@example(Sublattice(MUKAI, ((0, 0, 2, 2) + (0,) * 20,)))  # not primitive: Sat(S) = <4>
@example(Sublattice(MUKAI, ((1, 1) + (0,) * 22, (0, 0, 1, 3) + (0,) * 20)))
def test_complement_discriminant_from_the_complemented_lattice(s):
    # in K3 and Mukai a complement of the smaller S reads its divisors off
    # Sat(S); in the other ambients it reduces its own Gram
    c = ortho_complement(s)
    assume(not c.is_degenerate)
    assert discriminant(c) == tuple(d for d in snf_divisors(c.gram) if d > 1)


def test_a_complement_reads_its_discriminant_off_the_saturation(snf_sizes):
    k3 = k3_lattice()
    c = ortho_complement(Sublattice(k3, ((2, 4) + (0,) * 20, (0, 0, 1, 1) + (0,) * 18)))
    assert c.rank == 20
    assert discriminant(c) == (2, 4)  # <4> + <2>, as for Sat(S)
    assert snf_sizes == [2]
    # outside a unimodular ambient the groups differ (here S = <2>), so the
    # complement reduces its own Gram, <-2> + <2> + <-6>
    amb = direct_sum(hyperbolic_plane(), diag_lattice((2, -6)))
    assert discriminant(ortho_complement(Sublattice(amb, ((1, 1, 0, 0),)))) == (2, 2, 6)
    assert snf_sizes == [2, 3]


def test_a_complement_eliminates_its_own_gram_only_for_det(signature_sizes):
    u = hyperbolic_plane()
    amb = direct_sum(u, u, diag_lattice((2,)))
    c = ortho_complement(Sublattice(amb, ((1, 1, 0, 0, 0),)))
    assert c.signature().as_tuple() == (2, 2, 0)
    assert signature_sizes == [5, 1]  # the ambient and S, not the complement
    assert c.det() == 4  # <-2> + U + <2>
    assert c.det() == 4
    assert signature_sizes == [5, 1, 4]


def test_saturation_is_two_hnf_passes_and_primitivity_one(hnf_passes):
    rows = tuple(tuple(3 * x for x in row) for row in ((1, 2, 0, 5), (0, 1, 4, -1)))
    assert saturate(rows, 4) == ((1, 0, -8, 7), (0, 1, 4, -1))
    assert len(hnf_passes) == 2  # the elimination and the final normalization
    # primitivity reads the kept saturation; its containment test puts a
    # basis that is not echelon in Hermite form (one pass), an echelon one not
    for basis, passes in ((rows[::-1], 1), (rows, 0)):
        s = Sublattice(diag_lattice((1, 1, 1, 1)), basis)
        saturation(s)
        hnf_passes.clear()
        assert not is_primitive(s)
        assert len(hnf_passes) == passes


def test_primitivity_and_saturation():
    u = hyperbolic_plane()
    doubled = Sublattice(u, ((2, 0),))
    assert not is_primitive(doubled)
    sat = saturation(doubled)
    assert sat.basis == ((1, 0),)
    assert is_primitive(sat)
    assert saturation(sat).basis == sat.basis


def test_discriminant_groups():
    assert discriminant(diag_lattice((2, 2))) == (2, 2)
    assert discriminant(hyperbolic_plane()) == ()
    assert discriminant(diag_lattice((2, 6))) == (2, 6)
    with pytest.raises(ValidationError, match="degenerate"):
        discriminant(diag_lattice((0,)))


def test_gauss_reduction_worked_example():
    red = gauss_reduce2(IntegralLattice(((2, 2), (2, 4))))
    assert red.lattice.gram == ((2, 0), (0, 2))
    u = red.transform
    g = ((2, 2), (2, 4))
    assert matmul(matmul(transpose(u), g), u) == red.lattice.gram


def test_gauss_reduction_fixed_points_and_errors():
    for gram in (((2, 0), (0, 2)), ((2, 1), (1, 2)), ((4, 2), (2, 4))):
        assert gauss_reduce2(IntegralLattice(gram)).lattice.gram == gram
    with pytest.raises(ValidationError, match="positive definite"):
        gauss_reduce2(hyperbolic_plane())
    with pytest.raises(ValidationError, match="rank 2"):
        gauss_reduce2(diag_lattice((2,)))


def test_gauss_reduction_witness_on_random_forms():
    rng = random.Random(29)
    for _ in range(100):
        a = rng.randint(1, 9)
        b = rng.randint(-9, 9)
        c = rng.randint(1, 9)
        g = ((2 * a, b), (b, 2 * c))
        if 4 * a * c - b * b <= 0:
            continue
        red = gauss_reduce2(IntegralLattice(g))
        ra, rb, rc = red.lattice.gram[0][0], red.lattice.gram[0][1], red.lattice.gram[1][1]
        assert 0 <= 2 * rb <= ra <= rc
        u = red.transform
        assert matmul(matmul(transpose(u), g), u) == red.lattice.gram


def test_enumerate_reduced_forms():
    assert enumerate_reduced_forms(3) == (((2, 1), (1, 2)),)
    assert enumerate_reduced_forms(4) == (((2, 0), (0, 2)), ((2, 1), (1, 2)))
    forms = enumerate_reduced_forms(16)
    assert ((2, 0), (0, 4)) in forms
    assert ((4, 2), (2, 4)) in forms
    for g in forms:
        assert gauss_reduce2(IntegralLattice(g)).lattice.gram == g
        assert g[0][0] % 2 == 0 and g[1][1] % 2 == 0
    with pytest.raises(ValidationError):
        enumerate_reduced_forms(0)


def test_invariants_match_verdicts():
    same = invariants_match(diag_lattice((2, 2)), IntegralLattice(((2, 2), (2, 4))))
    assert same.verdict == "Equal2" and same.matched

    diff = invariants_match(hyperbolic_plane(), diag_lattice((2, -2)))
    assert diff.verdict == "Distinguished"
    assert "discriminant" in diff.reason
    assert not diff.matched

    # equal rank-2 genus invariants but distinct reduced forms stay separated
    twelve = invariants_match(diag_lattice((2, 6)), IntegralLattice(((4, 2), (2, 4))))
    assert twelve.verdict == "Distinguished"
    assert "reduced forms" in twelve.reason

    big = invariants_match(
        direct_sum(hyperbolic_plane(), diag_lattice((2,))),
        direct_sum(diag_lattice((2,)), hyperbolic_plane()),
    )
    assert big.verdict == "GenusInvariantsMatch" and big.matched

    assert invariants_match(hyperbolic_plane(), diag_lattice((2,))).verdict == "Distinguished"


def test_invariants_match_compares_degenerate_lattices_modulo_the_radical():
    # <0> + <2> and <0> + <4> agree in rank, signature and parity; their
    # quotients by the radical, <2> and <4>, do not
    diff = invariants_match(diag_lattice((0, 2)), diag_lattice((0, 4)))
    assert diff.verdict == "Distinguished" and diff.reason == "discriminant [2] vs [4]"
    assert not diff.matched
    # the radical may sit anywhere: U(2) + <0> against <0> + U(2)
    u2 = rescale(hyperbolic_plane(), 2)
    same = invariants_match(direct_sum(u2, diag_lattice((0,))), direct_sum(diag_lattice((0,)), u2))
    assert same.verdict == "GenusInvariantsMatch"
    # U is unimodular and <2> + <-2> is not; with a radical added they still differ
    odd = invariants_match(
        direct_sum(diag_lattice((0, 0)), hyperbolic_plane()), diag_lattice((0, 0, 2, -2))
    )
    assert odd.verdict == "Distinguished" and odd.reason == "discriminant [] vs [2, 2]"


def test_split_off_hyperbolic_plane_from_u():
    out = find_hyperbolic_split(hyperbolic_plane())
    assert isinstance(out, HyperbolicSplit)
    assert out.complement.rank == 0


def test_split_rejects_definite_without_search():
    out = find_hyperbolic_split(diag_lattice((2, 2)))
    assert isinstance(out, SplitNotFound)
    assert out.reason == "definite lattice has no nonzero isotropic vector"


def test_split_of_a_degenerate_lattice():
    # the (e, f) plane is U, so even a degenerate lattice splits: U + <0>
    # gives the radical as complement; diag(2, 0) has no usable e
    out = find_hyperbolic_split(direct_sum(hyperbolic_plane(), diag_lattice((0,))))
    assert isinstance(out, HyperbolicSplit)
    assert (out.e, out.f, out.complement.basis) == ((1, 0, 0), (0, 1, 0), ((0, 0, 1),))
    assert out.complement.gram == ((0,),)
    out = find_hyperbolic_split(diag_lattice((2, 0)))
    assert out == SplitNotFound(
        "no primitive isotropic vector of divisibility 1 with support <= 3 within radius 3"
    )


def test_split_radius_exhaustion_message():
    # U(3) has isotropic vectors but none completing to a unimodular pair
    out = find_hyperbolic_split(rescale(hyperbolic_plane(), 3))
    assert isinstance(out, SplitNotFound)
    assert "radius" in out.reason or "isotropic" in out.reason


def test_split_of_rank_21_example():
    amb = direct_sum(diag_lattice((-2,)), hyperbolic_plane(), hyperbolic_plane(), e8_minus(), e8_minus())
    out = find_hyperbolic_split(amb)
    assert isinstance(out, HyperbolicSplit)
    n = out.complement
    expected = direct_sum(diag_lattice((-2,)), hyperbolic_plane(), e8_minus(), e8_minus())
    assert invariants_match(n, expected).matched
    # e, f really span a unimodular hyperbolic pair orthogonal to the complement
    g = amb.gram
    pair = matmul(matmul((out.e, out.f), g), transpose((out.e, out.f)))
    assert pair == ((0, 1), (1, 0))
    cross = matmul(matmul(out.complement.basis, g), transpose((out.e, out.f)))
    assert all(all(v == 0 for v in row) for row in cross)


def test_split_whose_pairing_needs_bezout_steps():
    # e = (1, 0, 0, 0) pairs to (0, 6, 10, 15), whose entries are pairwise
    # not coprime, so a partner f takes two extended-gcd steps
    amb = IntegralLattice(((0, 6, 10, 15), (6, 2, 0, 0), (10, 0, 2, 0), (15, 0, 0, 2)))
    out = find_hyperbolic_split(amb)
    assert isinstance(out, HyperbolicSplit)
    pair = matmul(matmul((out.e, out.f), amb.gram), transpose((out.e, out.f)))
    assert pair == ((0, 1), (1, 0))
    assert (out.e, out.f) == ((1, 0, 0, 0), (-246, -14, 7, 1))


@settings(max_examples=200, deadline=None)
@example([0, 6, 10, 15])
@example([4, 6])
@example([])
@given(st.lists(st.integers(-40, 40), max_size=6))
def test_solve_pairing_one_exactly_when_gcd_is_one(w):
    x = gk3.lattices._solve_pairing_one(w)
    if math.gcd(*w) == 1:
        assert len(x) == len(w) and sum(u * v for u, v in zip(w, x)) == 1
    else:
        assert x is None
