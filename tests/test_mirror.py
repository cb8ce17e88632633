from __future__ import annotations

import sys

import pytest

import gk3.mirror
from gk3.errors import ValidationError
from gk3.intlinalg import _sym_signature, gram_entries, hnf_basis, identity, matmul, q_rank, transpose
from gk3.lattices import (
    Sublattice,
    diag_lattice,
    direct_sum,
    discriminant,
    e8_minus,
    gauss_reduce2,
    hyperbolic_plane,
    invariants_match,
    k3_lattice,
    ortho_complement,
)
from gk3.mirror import (
    Failure,
    DolgachevMirror,
    FamilySpec,
    PolarizationData,
    SI_MIRROR_ISOMETRY,
    build_si_mirror,
    check_polarization,
    dolgachev_mirror,
    mirror_check,
    moduli_dims,
)
from gk3.mukai import CohClass, GenericClass, check_gcy, deg2_vector, exponential_class
from gk3.pairs import neron_severi, transcendental, transform_pair, validate_gk3
from gk3.serialize import dumps_canonical, parse_document

EXPECTED_CLAUSES = (
    "K signature (2, rank-2)",
    "L signature (2, rank-2)",
    "ranks sum to 24",
    "K embedding primitive",
    "L embedding primitive",
    "K and L spans independent",
    "witness A has type A",
    "witness A lies in the K span",
    "witness B has type B",
    "witness B lies in the L span",
    "K inside the Neron-Severi lattice",
    "L inside the transcendental lattice",
)


def test_polarization_clause_names_and_pass():
    fam_x, _ = build_si_mirror(1)
    report = fam_x.report
    assert tuple(c.name for c in report.clauses) == EXPECTED_CLAUSES
    assert report.passed
    assert report.failed_names() == ()
    assert report.joint_index == 4
    assert all(all(v == 0 for v in row) for row in report.kl_pairing)


def test_polarization_detects_swapped_witnesses():
    fam_x, _ = build_si_mirror(1)
    p = fam_x.polarization
    swapped = PolarizationData(p.k_emb, p.l_emb, p.witness_b, p.witness_a)
    report = check_polarization(swapped, fam_x.member)
    assert not report.passed
    failed = set(report.failed_names())
    assert "witness A has type A" in failed
    assert "witness B has type B" in failed


def test_polarization_detects_imprimitive_embedding():
    fam_x, _ = build_si_mirror(1)
    p = fam_x.polarization
    doubled = Sublattice(p.l_emb.ambient, tuple(tuple(2 * v for v in row) for row in p.l_emb.basis))
    report = check_polarization(
        PolarizationData(p.k_emb, doubled, p.witness_a, p.witness_b), fam_x.member
    )
    assert "L embedding primitive" in report.failed_names()


def test_polarization_detects_overlapping_spans():
    fam_x, _ = build_si_mirror(1)
    p = fam_x.polarization
    overlapping = PolarizationData(p.k_emb, p.k_emb, p.witness_a, p.witness_b)
    report = check_polarization(overlapping, fam_x.member)
    failed = set(report.failed_names())
    assert "K and L spans independent" in failed
    assert report.joint_index is None


def test_containment_clauses_on_the_mukai_ambient():
    fam_x, _ = build_si_mirror(1)
    p = fam_x.polarization
    doubled = Sublattice(p.l_emb.ambient, tuple(tuple(2 * v for v in row) for row in p.l_emb.basis))
    # the last two flags are the witness span clauses: a doubled L has the
    # span of L, read as containment in its saturation
    cases = (
        (p.k_emb, p.l_emb, True, True, True, True),
        (p.l_emb, p.k_emb, False, False, False, False),
        (p.k_emb, doubled, True, True, True, True),
    )
    for k, l, k_in_ns, l_in_t, a_in_k, b_in_l in cases:
        report = check_polarization(PolarizationData(k, l, p.witness_a, p.witness_b), fam_x.member)
        verdicts = {c.name: c.ok for c in report.clauses}
        assert verdicts["K inside the Neron-Severi lattice"] is k_in_ns
        assert verdicts["L inside the transcendental lattice"] is l_in_t
        assert verdicts["witness A lies in the K span"] is a_in_k
        assert verdicts["witness B lies in the L span"] is b_in_l


def test_moduli_dimensions():
    fam_x, fam_dual = build_si_mirror(1)
    assert moduli_dims(fam_x.polarization) == (20, 0)
    assert moduli_dims(fam_dual.polarization) == (0, 20)


def test_si_mirror_shape_per_degree():
    for n in (1, 2, 3):
        fam_x, fam_dual = build_si_mirror(n)
        ns = neron_severi(fam_x.member)
        assert ns.rank == 22
        assert ns.signature().as_tuple() == (2, 20, 0)
        assert discriminant(ns) == (2 * n, 2 * n)
        t = transcendental(fam_x.member)
        assert gauss_reduce2(t).lattice.gram == ((2 * n, 0), (0, 2 * n))
        # the dual family swaps the two lattices at invariant level
        ns_dual = neron_severi(fam_dual.member)
        assert gauss_reduce2(ns_dual).lattice.gram == ((2 * n, 0), (0, 2 * n))
        t_dual = transcendental(fam_dual.member)
        assert invariants_match(ns, t_dual).matched


def test_si_families_are_polarized_by_their_members_lattices():
    for fam in build_si_mirror(1):
        assert neron_severi(fam.member) is fam.polarization.k_emb
        assert transcendental(fam.member) is fam.polarization.l_emb


def test_partner_built_from_a_support_shares_the_pair_lattice():
    cls = check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1})))
    pair = validate_gk3(cls, GenericClass(ortho_complement(cls.support), "B"))
    assert transcendental(pair) is pair.phi_b.support


def test_si_mirror_check_passes():
    fam_x, fam_dual = build_si_mirror(2)
    report = mirror_check(fam_x, fam_dual)
    assert report.verified
    assert report.dims == ((20, 0), (0, 20))
    assert report.dims_swap
    assert report.l1_vs_k2.verdict == "Equal2"
    assert report.k1_vs_l2.verdict == "GenusInvariantsMatch"


def test_si_mirror_check_eliminates_no_rank22_gram(signature_sizes):
    # each rank-22 NS or T reads its signature off the rank-2 support it
    # complements; each rank-2 slot eliminates its own Gram
    for n in (1, 2, 3):
        assert mirror_check(*build_si_mirror(n)).verified
    assert signature_sizes and 22 not in signature_sizes


def test_si_pairs_reduce_no_rank22_gram_for_a_discriminant(snf_sizes, capsys):
    # each rank-22 NS or T reads its discriminant off the rank-2 support it
    # complements.  Building and checking the pairs and the CLI handler's
    # ns_x report used to run 90 Smith reductions, all on rank-22 Grams:
    # 4 per mirror_check and 1 per report, for each n
    from gk3.cli import main

    for n in range(1, 11):
        assert mirror_check(*build_si_mirror(n)).verified
        assert main(["mirror", "shioda-inose", "--n", str(n)]) == 0
    capsys.readouterr()
    assert snf_sizes == [2] * 90


def test_dolgachev_mirror_eliminates_neither_perp_nor_n(signature_sizes):
    # kp^⊥ (rank 21) reads its signature off kp; the dual side N^⊥ (rank 3)
    # eliminates its own Gram, not that of N (rank 19)
    for n in (1, 2, 3):
        assert dolgachev_mirror(Sublattice(k3_lattice(), ((1, n) + (0,) * 20,))).duality.matched
    assert set(signature_sizes) <= {1, 3, 22}  # kp, N^⊥ and U + kp, the K3 lattice


def test_mirror_check_distinguishes_wrong_partner():
    fam_x, _ = build_si_mirror(1)
    _, wrong_dual = build_si_mirror(2)
    report = mirror_check(fam_x, wrong_dual)
    assert not report.verified
    assert report.l1_vs_k2.verdict == "Distinguished"


def test_si_certificate_is_an_involution_mapping_exp_ih_onto_sigma():
    g = SI_MIRROR_ISOMETRY
    assert matmul(g, g) == identity(24)
    for n in (1, 2, 3):
        p = build_si_mirror(n)[0].polarization
        exp_h, sigma = p.witness_a.coh, p.witness_b.coh
        assert CohClass.from_rows(exp_h.den, exp_h.d, matmul(exp_h.rows, g)) == sigma


def test_si_builder_checks_one_isometry_and_no_rank22_genus(monkeypatch, signature_sizes, hnf_passes):
    calls = []
    match = gk3.mirror.invariants_match
    monkeypatch.setattr(gk3.mirror, "invariants_match", lambda a, b: calls.append(1) or match(a, b))
    for n in (1, 2, 3):
        families = build_si_mirror(n)
    assert calls == []
    assert 22 not in signature_sizes
    hnf_passes.clear()
    for fam in families:
        check_polarization(fam.polarization, fam.member)
    # per family: the stacked spans; K and L are NS and T, their own
    # saturations, so primitivity runs no pass, and every containment
    # reads coordinates in an echelon basis without elimination
    assert len(hnf_passes) == 2


def test_si_polarization_reads_no_coordinates_for_a_lattice_in_itself(hnf_coords_reads):
    for n in (1, 2, 5):
        for fam in build_si_mirror(n):
            hnf_coords_reads.clear()
            assert check_polarization(fam.polarization, fam.member).passed
            # K and L are the member's NS and T, each its own saturation, and
            # the small slot is a witness's support: primitivity, "K inside
            # NS", "L inside T" and that witness read nothing, and the other
            # witness reads its 2 support rows in the rank-22 slot
            assert hnf_coords_reads == [22, 22]


def test_transform_pair_moves_a_generic_support_with_its_signature(signature_sizes):
    # an isometry keeps the induced Gram: the moved rank-22 support takes the
    # signature of the support it came from and eliminates nothing
    x = build_si_mirror(1)[0].member
    signature_sizes.clear()
    moved = transform_pair([1, 0, 2] + [0] * 18 + [-1], x)
    assert 22 not in signature_sizes
    support = moved.phi_a.support
    assert support.signature() == x.phi_a.support.signature()
    assert support.signature() == _sym_signature(support.gram)[0]


def test_image_of_a_rank22_support_runs_no_hnf_pass(hnf_passes):
    # rows moved by an isometry stay independent, so the image checks no rank
    support = build_si_mirror(1)[0].member.phi_a.support
    hnf_passes.clear()
    moved = support.image(gram_entries(SI_MIRROR_ISOMETRY))
    assert hnf_passes == []
    assert moved == Sublattice(support.ambient, moved.basis)
    assert q_rank(moved.basis) == moved.rank == 22


def test_si_builder_and_transform_pair_make_no_dense_product(monkeypatch):
    calls = []
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gk3" and hasattr(module, "matmul"):
            f = module.matmul
            monkeypatch.setattr(module, "matmul", lambda a, b, f=f: calls.append(1) or f(a, b))
    fam1, _ = build_si_mirror(2)
    p = fam1.polarization
    b = [1, 0, 2] + [0] * 18 + [-1]
    for x in (fam1.member, validate_gk3(p.witness_a, p.witness_b)):
        transform_pair(b, x)
    assert calls == []  # isometries act through gram_rows
    dolgachev_mirror(Sublattice(k3_lattice(), ((1, 1) + (0,) * 20,)))
    assert calls  # its coordinate maps are the dense products left


def test_parsed_family_primitivity_reads_the_kept_saturations(hnf_passes):
    from gk3.cli import _family_json, _family_of

    for fam in build_si_mirror(1):
        doc = parse_document(dumps_canonical({"family": _family_json(fam)}))
        parsed = _family_of(doc)
        neron_severi(parsed.member), transcendental(parsed.member)
        hnf_passes.clear()
        assert check_polarization(parsed.polarization, parsed.member).passed
        # the saturations of K and L (2 passes each), the stacked spans (1)
        # and the saturation of each witness support (2 each: its component
        # rows are echelon and need no pass of their own); primitivity reads
        # the kept saturations, where a Hermite pass of its own per slot
        # made 13
        assert len(hnf_passes) == 9


@pytest.mark.parametrize(
    "flip", [(1, 5, 1), (8, 8, -1), (0, 4, -1)], ids=["deg4-f2 unsigned", "E8 node negated", "deg0-e2 negated"]
)
def test_si_builder_refuses_a_certificate_wrong_in_one_sign(monkeypatch, flip):
    i, j, sign = flip
    g = [list(row) for row in SI_MIRROR_ISOMETRY]
    g[i][j] = g[j][i] = sign
    monkeypatch.setattr(gk3.mirror, "SI_MIRROR_ISOMETRY", tuple(map(tuple, g)))
    with pytest.raises(ValidationError, match="mirror certificate"):
        build_si_mirror(1)


def test_si_builder_refuses_an_isometry_that_maps_sigma_to_exp_minus_ih(monkeypatch):
    # -1 on U3 (Mukai indices 6, 7) first, then g: an isometry that carries NS
    # onto T and T onto NS but sends sigma to exp(-i H), so it swaps no members
    flip = [[(-1 if i in (6, 7) else 1) * (i == j) for j in range(24)] for i in range(24)]
    g = matmul(flip, SI_MIRROR_ISOMETRY)
    x1, x2 = (fam.member for fam in build_si_mirror(1))
    for a, b in ((neron_severi(x1), transcendental(x2)), (transcendental(x1), neron_severi(x2))):
        assert hnf_basis(matmul(a.basis, g), 24) == b.basis
    sigma = x1.phi_b.coh
    moved = CohClass.from_rows(sigma.den, sigma.d, matmul(sigma.rows, g))
    assert moved == x2.phi_a.coh.conjugate()
    monkeypatch.setattr(gk3.mirror, "SI_MIRROR_ISOMETRY", g)
    with pytest.raises(ValidationError, match="mirror certificate does not swap the members"):
        build_si_mirror(1)


def test_si_mirror_rejects_bad_degree():
    with pytest.raises(ValidationError):
        build_si_mirror(0)


def test_dolgachev_mirror_of_degree_2n():
    k3 = k3_lattice()
    for n in (1, 2, 3):
        kp = Sublattice(k3, ((1, n) + (0,) * 20,))
        out = dolgachev_mirror(kp)
        assert isinstance(out, DolgachevMirror)
        assert out.duality.matched
        expected = direct_sum(
            diag_lattice((-2 * n,)), hyperbolic_plane(), e8_minus(), e8_minus()
        )
        assert invariants_match(out.n, expected).matched
        # the extracted pair really is a hyperbolic plane inside the K3 lattice
        pair = matmul(matmul((out.e, out.f), k3.gram), transpose((out.e, out.f)))
        assert pair == ((0, 1), (1, 0))
        cross = matmul(matmul(out.n.basis, k3.gram), transpose((out.e, out.f)))
        assert all(all(v == 0 for v in row) for row in cross)


def test_dolgachev_definite_complement_is_a_hard_failure():
    k3 = k3_lattice()
    m = Sublattice(k3, ((1, 1) + (0,) * 20, (0, 0, 1, 1) + (0,) * 18))
    kp = ortho_complement(m)  # rank 20, signature (1, 19)
    assert kp.signature().as_tuple() == (1, 19, 0)
    out = dolgachev_mirror(kp)
    assert isinstance(out, Failure)
    assert out.reason == "definite complement"


def test_dolgachev_input_validation():
    k3 = k3_lattice()
    with pytest.raises(ValidationError, match="K3 lattice"):
        dolgachev_mirror(Sublattice(hyperbolic_plane(), ((1, 1),)))
    with pytest.raises(ValidationError, match="primitive"):
        dolgachev_mirror(Sublattice(k3, ((2, 2) + (0,) * 20,)))
    with pytest.raises(ValidationError, match=r"signature \(1, t\)"):
        dolgachev_mirror(Sublattice(k3, ((1, -1) + (0,) * 20,)))  # square -2


def test_family_check_shortcut():
    fam_x, _ = build_si_mirror(1)
    assert isinstance(fam_x, FamilySpec)
    assert fam_x.report.passed
