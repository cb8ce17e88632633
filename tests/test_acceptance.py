"""Acceptance gate: nine criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
criterion asserts its exact expected values and its wall-clock bound.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from gk3.intlinalg import (
    gram_entries,
    gram_rows,
    hnf_basis,
    identity,
    int_kernel,
    matmul,
    q_rank,
    saturate,
    sym_signature,
    transpose,
)
from gk3.lattices import (
    IntegralLattice,
    Sublattice,
    diag_lattice,
    direct_sum,
    discriminant,
    e8_minus,
    gauss_reduce2,
    hyperbolic_plane,
    invariants_match,
    ortho_complement,
    saturation,
)
from gk3.mirror import Failure, build_si_mirror, dolgachev_mirror, mirror_check, moduli_dims
from gk3.mukai import (
    MUKAI,
    CohClass,
    GenericClass,
    bfield_matrix,
    bfield_transform,
    check_gcy,
    deg2_vector,
    exponential_class,
    mukai_pairing,
    support_lattice,
    two_form_class,
)
from gk3.pairs import neron_severi, transcendental, transform_pair, validate_gk3
from gk3.rigidity import (
    DEFAULT_H1,
    DEFAULT_H2,
    SurveyConfig,
    is_kahler_rigid,
    kahler_rigid_survey,
)
from gk3.lattices import k3_lattice
from gk3.scalars import ComplexQuad, QuadScalar, as_quad

SQRT2 = QuadScalar(Fraction(0), Fraction(1), 2)


class _Gate:
    def __init__(self, number: int, label: str, bound: float):
        self.number = number
        self.label = label
        self.bound = bound

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.bound else "FAIL"
        print(f"[{self.number}] {status} {self.label} ({elapsed:.2f}s, bound {self.bound:g}s)")
        if exc_type is None:
            assert elapsed < self.bound, f"criterion {self.number} exceeded {self.bound}s"
        return False


def _random_sparse_class(rng: random.Random) -> CohClass:
    def scalar():
        return ComplexQuad(
            QuadScalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3))),
            QuadScalar(Fraction(rng.randint(-3, 3))),
        )

    deg2 = [ComplexQuad(0)] * 22
    for i in rng.sample(range(22), 6):
        deg2[i] = scalar()
    return CohClass(scalar(), tuple(deg2), scalar())


def _random_sparse_bfield(rng: random.Random):
    b = [Fraction(0)] * 22
    for i in rng.sample(range(22), 6):
        b[i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return b


def test_criterion_1_mukai_ambient():
    with _Gate(1, "Mukai ambient: signature (4,20,0), |det| 1, even", 1.0):
        assert MUKAI.signature().as_tuple() == (4, 20, 0)
        assert abs(MUKAI.det()) == 1
        assert MUKAI.is_even


def test_criterion_2_bfield_action():
    with _Gate(2, "B-field action: orthogonal, composes, fixes degree 0 (1000 cases)", 10.0):
        rng = random.Random(20260815)
        for _ in range(1000):
            b1 = _random_sparse_bfield(rng)
            b2 = _random_sparse_bfield(rng)
            x = _random_sparse_class(rng)
            y = _random_sparse_class(rng)
            tx = bfield_transform(b1, x)
            ty = bfield_transform(b1, y)
            assert mukai_pairing(tx, ty) == mukai_pairing(x, y)
            assert tx.deg0 == x.deg0
            joint = bfield_transform([u + v for u, v in zip(b1, b2)], x)
            assert bfield_transform(b2, tx) == joint


def test_criterion_3_support_ranks():
    with _Gate(3, "supports: rank 2 diag(2n,2n) for n=1..10 and the rank-3 expansion", 5.0):
        for n in range(1, 11):
            h = deg2_vector({0: 1, 1: n})
            cls = check_gcy(exponential_class([0] * 22, h))
            sup = support_lattice(cls)
            assert sup.rank == 2
            assert gauss_reduce2(sup).lattice.gram == (
                (2 * n, 0),
                (0, 2 * n),
            )
            # components (1,0,0), (0,0,n), (0,H,0) of the sqrt(2) expansion
            deg2 = tuple(ComplexQuad(as_quad(0), SQRT2 * v) for v in h)
            psi = CohClass(ComplexQuad(1), deg2, ComplexQuad(SQRT2 * as_quad(-n)))
            assert support_lattice(psi).rank == 3


def test_criterion_4_shioda_inose_mirrors():
    with _Gate(4, "rank-22 mirror families for n=1..10: lattices, swap, moduli dims", 30.0):
        for n in range(1, 11):
            fam_x, fam_dual = build_si_mirror(n)
            ns = neron_severi(fam_x.member)
            assert ns.rank == 22
            assert ns.signature().as_tuple() == (2, 20, 0)
            assert discriminant(ns) == (2 * n, 2 * n)
            t = transcendental(fam_x.member)
            assert gauss_reduce2(t).lattice.gram == ((2 * n, 0), (0, 2 * n))
            ns_dual = neron_severi(fam_dual.member)
            t_dual = transcendental(fam_dual.member)
            assert gauss_reduce2(ns_dual).lattice.gram == ((2 * n, 0), (0, 2 * n))
            assert invariants_match(t_dual, ns).matched
            report = mirror_check(fam_x, fam_dual)
            assert report.verified
            assert moduli_dims(fam_x.polarization) == (20, 0)
            assert moduli_dims(fam_dual.polarization) == (0, 20)


def test_criterion_5_dolgachev_compatibility():
    with _Gate(5, "classical mirror of <2n> and the definite hard failure", 10.0):
        k3 = k3_lattice()
        for n in range(1, 6):
            kp = Sublattice(k3, ((1, n) + (0,) * 20,))
            out = dolgachev_mirror(kp)
            expected = direct_sum(
                diag_lattice((-2 * n,)), hyperbolic_plane(), e8_minus(), e8_minus()
            )
            assert not isinstance(out, Failure)
            assert invariants_match(out.n, expected).matched
            assert out.duality.matched
        rank2 = Sublattice(k3, ((1, 1) + (0,) * 20, (0, 0, 1, 1) + (0,) * 18))
        attractive = ortho_complement(rank2)
        out = dolgachev_mirror(attractive)
        assert isinstance(out, Failure)
        assert out.reason == "definite complement"


def test_criterion_6_kahler_rigid_samples():
    with _Gate(6, "200 sampled Kaehler-rigid classes: rank 2, even pd invariants", 30.0):
        rng = random.Random(3)
        for i in range(200):
            kappa = as_quad(1) if i % 3 else SQRT2
            a, b = rng.randint(0, 3), rng.randint(0, 3)
            if a == 0 and b == 0:
                a = 1
            omega = tuple(
                kappa * (a * as_quad(u) + b * as_quad(v))
                for u, v in zip(DEFAULT_H1, DEFAULT_H2)
            )
            bfield = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(22)]
            cls = check_gcy(exponential_class(bfield, omega))
            partner = GenericClass(ortho_complement(support_lattice(cls)), "B")
            report = is_kahler_rigid(validate_gk3(cls, partner))
            assert report.kind == "KahlerRigid"
            assert report.b_rational is True
            assert report.omega_sq.is_rational
            (ga, gb), (_, gc) = report.invariant
            assert ga % 2 == 0 and gc % 2 == 0
            assert ga > 0 and ga * gc - gb * gb > 0


def test_criterion_7_survey_witnesses():
    with _Gate(7, "survey max_det 16, denominators to 4, sqrt 2: achieved forms", 120.0):
        config = SurveyConfig(16, 4, sqrt_d=(2,))
        report = kahler_rigid_survey(config)
        assert ((2, 0), (0, 2)) in report.achieved
        assert ((2, 0), (0, 4)) in report.achieved
        for gram in report.achieved:
            assert gauss_reduce2(IntegralLattice(gram)).lattice.gram == gram
        assert kahler_rigid_survey(config) == report


def test_criterion_8_interpolation():
    with _Gate(8, "t + sigma: type A for rational t != 0, type B at t = 0", 1.0):
        sigma = two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))
        for t in (Fraction(1), Fraction(-2), Fraction(3, 7), Fraction(1, 100)):
            phi_t = CohClass(ComplexQuad(t), sigma.deg2, sigma.deg4)
            assert check_gcy(phi_t).type_tag == "A"
        assert check_gcy(CohClass(ComplexQuad(0), sigma.deg2, sigma.deg4)).type_tag == "B"


def _suite_complement_involution(rng: random.Random) -> int:
    ambient = direct_sum(hyperbolic_plane(), hyperbolic_plane(), diag_lattice((2, -2)))
    done = 0
    while done < 100:
        r = rng.randint(1, 4)
        rows = tuple(tuple(rng.randint(-2, 2) for _ in range(6)) for _ in range(r))
        if q_rank(rows) != r:
            continue
        s = Sublattice(ambient, rows)
        if s.is_degenerate:
            continue
        cc = ortho_complement(ortho_complement(s))
        assert cc.basis == saturation(s).basis
        # the double complement is taken as a saturation; check it by a kernel
        conditions = gram_rows(gram_entries(ambient.gram), ortho_complement(s).basis)
        assert cc.basis == int_kernel(conditions, 6)
        done += 1
    return done


def _suite_saturation_idempotence(rng: random.Random) -> int:
    for _ in range(100):
        c = rng.randint(2, 6)
        while True:
            r = rng.randint(1, c)
            rows = tuple(tuple(rng.randint(-4, 4) for _ in range(c)) for _ in range(r))
            if q_rank(rows) == r:
                break
        s1 = saturate(rows, c)
        assert saturate(s1, c) == s1
    return 100


def _suite_signature_congruence(rng: random.Random) -> int:
    for _ in range(100):
        n = rng.randint(2, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        g = tuple(tuple(row) for row in g)
        u = [list(row) for row in identity(n)]
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                u[i][k] += c * u[j][k]
        u = tuple(tuple(row) for row in u)
        conj = matmul(matmul(u, g), transpose(u))
        assert sym_signature(conj).as_tuple() == sym_signature(g).as_tuple()
    return 100


def _suite_swap_duality(rng: random.Random) -> int:
    base = validate_gk3(
        check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1}))),
        check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))),
    )
    for _ in range(100):
        b = [rng.randint(-1, 1) for _ in range(22)]
        moved = transform_pair(b, base)
        swapped = validate_gk3(moved.phi_b, moved.phi_a)
        assert neron_severi(swapped).basis == transcendental(moved).basis
        assert transcendental(swapped).basis == neron_severi(moved).basis
    return 100


def _suite_bfield_equivariance(rng: random.Random) -> int:
    base = validate_gk3(
        check_gcy(exponential_class([0] * 22, deg2_vector({0: 1, 1: 1}))),
        check_gcy(two_form_class(deg2_vector({2: 1, 3: 1}), deg2_vector({4: 1, 5: 1}))),
    )
    ns0, t0 = neron_severi(base), transcendental(base)
    for _ in range(100):
        b = [rng.randint(-1, 1) for _ in range(22)]
        m = bfield_matrix(b)
        moved = transform_pair(b, base)
        assert neron_severi(moved).basis == hnf_basis(matmul(ns0.basis, m), 24)
        assert transcendental(moved).basis == hnf_basis(matmul(t0.basis, m), 24)
    return 100


def test_criterion_9_property_suites():
    with _Gate(9, "five property suites, 100 randomized instances each", 60.0):
        rng = random.Random(20260815)
        assert _suite_complement_involution(rng) == 100
        assert _suite_saturation_idempotence(rng) == 100
        assert _suite_signature_congruence(rng) == 100
        assert _suite_swap_duality(rng) == 100
        assert _suite_bfield_equivariance(rng) == 100
