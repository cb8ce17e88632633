"""Rigidity classifiers and the Kaehler-rigid form survey.

A pair is complex rigid when phi_B has type B and the generalized
Neron-Severi lattice has full rank 22; its invariant is the reduced Gram
of the rank-2 support of the degree-2 period sigma, a positive definite
even form.  Dually, a pair is Kaehler rigid when phi_A has type A and the
generalized transcendental lattice has rank 22; there the invariant is
the reduced Gram of the rank-2 support of phi_A itself, which for
lambda e^{B + i omega} forces B rational and omega^2 rational.

The survey enumerates exponential classes over a fixed positive 2-plane
with bounded coefficient height and reports which reduced even positive
definite rank-2 forms are achieved as invariants.  Achieving every form
is an open question; the survey reports, it never asserts completeness.
"""

from __future__ import annotations

from math import gcd, isqrt

from .errors import ValidationError
from .intlinalg import (
    IntMat,
    freeze,
    hnf_basis,
    hnf_coords,
    minors_gcd,
    pairing_block,
    saturate2,
)
from .lattices import (
    MAX_FORMS_DET,  # re-exported: the survey's determinant bound too
    Sublattice,
    check_forms_det,
    enumerate_reduced_forms,
    gauss_reduce2,
    reduce_form2,
    saturation,
)
from .mukai import (
    DEG2_RANK,
    DEG2_START,
    DEG4,
    K3,
    MUKAI,
    MUKAI_RANK,
    GCYClass,
    GenericClass,
    _divide_by_lambda,
    _times,
    deg2_vector,
    gcy_verdict,
    support_in,
)
from .pairs import GeneralizedK3, neron_severi, transcendental
from .records import record
from .scalars import QuadScalar, check_field_tag

FULL_RANK = 22  # rank of NS/T certifying rigidity (codimension-2 support)


@record
class RigidityReport:
    """Outcome of a rigidity test.

    The invariant is present exactly when the kind is rigid; it is the
    Gauss-reduced Gram, even and positive definite.  For a Kaehler test
    b_rational and omega_sq describe the decomposition lambda e^{B+i omega},
    omega_sq read off the class's proved norm by the identity
    <phi, conj phi> = 2 |lambda|^2 omega^2.  For a complex test b_rational
    refers to the degree-4 tail divided out by the period, which is only
    canonical up to classes orthogonal to the period (hence b_canonical is
    False there).
    """

    kind: str  # "ComplexRigid" | "KahlerRigid" | "NotRigid"
    reason: str | None = None
    invariant: IntMat | None = None
    b_rational: bool | None = None
    b_canonical: bool | None = None
    omega_sq: QuadScalar | None = None

    @property
    def is_rigid(self) -> bool:
        return self.kind != "NotRigid"


def _plane_rank_checks(x: GeneralizedK3, which: str) -> RigidityReport | None:
    """Shared rank gate on the pair's NS (which = "B") or T (which = "A");
    returns the NotRigid verdict, or None when the rank is full."""
    member, label, lattice = (
        (x.phi_b, "NS", neron_severi(x)) if which == "B" else (x.phi_a, "T", transcendental(x))
    )
    if lattice.rank != FULL_RANK:
        return RigidityReport(
            "NotRigid", reason=f"rank {label} = {lattice.rank}, needs {FULL_RANK}"
        )
    if isinstance(member, GenericClass):
        raise ValidationError(f"invariant needs explicit phi_{which}")
    return None


def is_complex_rigid(x: GeneralizedK3) -> RigidityReport:
    """Test complex rigidity of a pair and extract the rank-2 invariant.

    Requires phi_B of type B and generalized Neron-Severi rank 22; the
    invariant is the reduced Gram of the degree-2 support of the period.
    """
    b = x.phi_b
    if b.type_tag != "B":
        return RigidityReport("NotRigid", reason="phi_B has type A, needs type B")
    verdict = _plane_rank_checks(x, "B")
    if verdict is not None:
        return verdict
    # degree 2 is an orthogonal summand of the Mukai lattice isometric to
    # K3, so this support carries the K3 Gram of sigma's support.  It has
    # rank 2: it is the projection of phi_B's support, of rank 24 - 22 by
    # the gate above, and its real span holds Re sigma and Im sigma,
    # orthogonal with square N/2 > 0
    reduced = gauss_reduce2(support_in(b.coh.deg2_part()))
    return RigidityReport(
        "ComplexRigid",
        invariant=reduced.lattice.gram,
        b_rational=_tail_b_rational(b),
        b_canonical=False,
    )


def _tail_b_rational(b: GCYClass) -> bool:
    """Whether a B with rational projection to the period plane solves deg4 =
    <B, sigma>.  Only for a rank-2 degree-2 support of sigma, which the NS
    rank gate of ``is_complex_rigid`` ensures, is the plane defined over Q
    and this the question whether a rational B solves it; elsewhere it can
    refuse a rational B.

    Only the projection of B to the period plane acts.  sigma is isotropic,
    so the plane's Gram is (N/2) I for the class's norm N = <sigma, conj
    sigma> = (n0 + n1 sqrt d) / n, and the projection is Re(conj(t) sigma)
    / (N/2) for the tail t = deg4.  N (n0 - n1 sqrt d) is rational, so the
    projection is rational exactly when Re(conj(t) sigma) (n0 - n1 sqrt d) is.
    """
    x, n = b.coh, b.norm
    t = [row[DEG4] for row in x.rows]
    tail = _times([row[DEG2_START:] for row in x.rows], (t[0], t[1], -t[2], -t[3]), x.d)
    return not any(_times(tail[:2], (n.p, -n.q, 0, 0), x.d)[1])  # no sqrt(d) part in Re


def is_kahler_rigid(x: GeneralizedK3) -> RigidityReport:
    """Test Kaehler rigidity of a pair and extract the rank-2 invariant.

    Requires phi_A of type A and generalized transcendental rank 22; the
    invariant is the reduced Gram of the support of phi_A.  The report also
    gives the theorem's shape, whether B is rational and omega^2, read off
    phi_A's integer rows and its proved norm (``_kahler_b_omega``): no B or
    omega is built as a class and no Mukai pairing is made.
    """
    a = x.phi_a
    if a.type_tag != "A":
        return RigidityReport("NotRigid", reason="phi_A has type B, needs type A")
    verdict = _plane_rank_checks(x, "A")
    if verdict is not None:
        return verdict
    reduced = gauss_reduce2(a.support)
    b_rational, omega_sq = _kahler_b_omega(a)
    return RigidityReport(
        "KahlerRigid",
        invariant=reduced.lattice.gram,
        b_rational=b_rational,
        b_canonical=True,
        omega_sq=omega_sq,
    )


def _kahler_b_omega(a: GCYClass) -> tuple[bool, QuadScalar]:
    """Whether B is rational, and omega^2, for a type A class
    phi = lambda e^{B + i omega}, read off its integer rows and its norm.

    ``_divide_by_lambda`` gives B + i omega = rows / f, the degree-2 part of
    phi / lambda, over the rational f > 0, so B is rational exactly when the
    sqrt(d) row of Re vanishes.  Isotropy makes phi / lambda = e^{B + i omega},
    and <e^{B + i omega}, e^{B - i omega}> = 2 omega^2, so the norm is
    N = <phi, conj phi> = 2 |lambda|^2 omega^2, where |lambda|^2 =
    (n0 + n1 sqrt d) / den^2: omega^2 = N den^2 (n0 - n1 sqrt d) / 2f.
    """
    x, n = a.coh, a.norm
    n0, n1, f, rows = _divide_by_lambda(x)
    den2 = x.den * x.den
    p, q = den2 * (n.p * n0 - (x.d or 0) * n.q * n1), den2 * (n.q * n0 - n.p * n1)
    return not any(rows[1]), QuadScalar.from_ints(p, q, 2 * n.n * f, x.d)


DEFAULT_H1 = deg2_vector({0: 1, 1: 1})  # e1 + f1, square 2
DEFAULT_H2 = deg2_vector({2: 1, 3: 1})  # e2 + f2, square 2

# Work limit of `rigid survey` next to MAX_FORMS_DET, sized so that the
# largest accepted call ends in well under a minute on 2 CPUs.
MAX_SURVEY_SAMPLES = 100_000  # grid points of one survey (survey_samples)


@record
class SurveyConfig:
    max_det: int
    denominator_bound: int
    sqrt_d: tuple[int, ...] = ()
    h1: tuple[int, ...] = DEFAULT_H1
    h2: tuple[int, ...] = DEFAULT_H2

    def __post_init__(self):
        # ints only: a float, a Fraction or a bool is refused, not truncated
        for value, name in ((self.max_det, "max_det"), (self.denominator_bound, "denominator bound")):
            if type(value) is not int:
                raise ValidationError(f"{name} must be an int, got {value!r}")
            if value < 1:
                raise ValidationError(f"{name} must be >= 1")
        sqrt_d, h1, h2 = freeze((self.sqrt_d, self.h1, self.h2))
        for h, name in ((h1, "h1"), (h2, "h2")):
            if len(h) != DEG2_RANK:
                raise ValidationError(f"{name} must have {DEG2_RANK} integer coordinates")
        object.__setattr__(self, "sqrt_d", sqrt_d)
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)


@record
class SurveyWitness:
    bfield: tuple[QuadScalar, ...]
    omega: tuple[QuadScalar, ...]


@record
class SurveyReport:
    config: SurveyConfig
    achieved: tuple[IntMat, ...]
    missing: tuple[IntMat, ...]
    samples: int
    witnesses: tuple[tuple[IntMat, SurveyWitness], ...]  # parallel to achieved


def _survey_kappas(sqrt_d) -> tuple[int, ...]:
    """kappa^2 for kappa = 1 and each sqrt(d), in sorted order."""
    return (1,) + tuple(check_field_tag(d) for d in sorted(set(sqrt_d)))


def _witness(config: SurveyConfig, k: int, a, b, p, q, denom) -> SurveyWitness:
    """B = (p H1 + q H2) / D and omega = kappa (a H1 + b H2), kappa^2 = k,
    built from their integer coordinates."""
    hs = tuple(zip(config.h1, config.h2))
    make = QuadScalar.from_ints
    bfield = tuple(make(p * u + q * v, 0, denom, None) for u, v in hs)
    w = [a * u + b * v for u, v in hs]
    omega = tuple(make(c, 0, 1, None) if k == 1 else make(0, c, 1, k) for c in w)
    return SurveyWitness(bfield, omega)


def _plane_gram(h1, h2) -> tuple[int, int, int]:
    """(H1^2, H1.H2, H2^2) in the K3 lattice."""
    (g11, g12), (_, g22) = pairing_block(K3.entries, (h1, h2), (h1, h2))
    return g11, g12, g22


def _positive_omegas(config: SurveyConfig) -> list[tuple[int, int]]:
    """(a, b) with omega_0 = a H1 + b H2 of positive square, in grid order."""
    g11, g12, g22 = _plane_gram(config.h1, config.h2)
    amax = isqrt(config.max_det)
    return [
        (a, b)
        for a in range(amax + 1)
        for b in range(amax + 1)
        if (a or b) and a * a * g11 + 2 * a * b * g12 + b * b * g22 > 0
    ]


def survey_samples(config: SurveyConfig) -> int:
    """Grid points a survey covers: kappas x positive omega_0 x sum of D^2."""
    grid = sum(d * d for d in range(1, config.denominator_bound + 1))
    return (1 + len(set(config.sqrt_d))) * len(_positive_omegas(config)) * grid


@record
class _SatCoords:
    """S = Sat(P) for P = <deg0, deg4, H1, H2>: (H1^2, H1.H2, H2^2), the
    generators' integer coordinates in S's HNF basis by columns, and the
    ``gram_entries`` of S's Gram."""

    plane: tuple[int, int, int]
    cols_s: IntMat  # cols_s[j][t]: coordinate j of generator t
    entries_s: tuple


def _sat_coords(h1, h2) -> _SatCoords:
    zeros = (0,) * DEG2_RANK
    gens = ((1, 0) + zeros, (0, 1) + zeros, (0, 0) + tuple(h1), (0, 0) + tuple(h2))
    sat = saturation(Sublattice(MUKAI, hnf_basis(gens, MUKAI_RANK)))
    to_s = [hnf_coords(sat.basis, g) for g in gens]  # gens lie in their saturation
    return _SatCoords(_plane_gram(h1, h2), tuple(zip(*to_s)), sat.entries)


def _gcy_n0(plane, k: int, denom: int, r1, r2) -> int:
    """n0 = r1^2 + 4 k D^2 r2^2 of phi = (r1 + i kappa 2D r2) / (2D^2), kappa^2 = k,
    for rows on (deg0, deg4, H1, H2), after ``check_gcy``'s checks on the
    numerators over (2D^2)^2 of <phi, phi> = r1^2 - 4 k D^2 r2^2 + 4D r1.r2 kappa i."""
    (g11, g12, g22), (x0, x1, x2, x3), (y0, y1, y2, y3) = plane, r1, r2
    gy2, gy3 = g11 * y2 + g12 * y3, g12 * y2 + g22 * y3
    r11 = x2 * (g11 * x2 + g12 * x3) + x3 * (g12 * x2 + g22 * x3) - 2 * x0 * x1
    s = 4 * k * denom * denom * (y2 * gy2 + y3 * gy3 - 2 * y0 * y1)
    im = 4 * denom * (x2 * gy2 + x3 * gy3 - x0 * y1 - x1 * y0)  # 4D r1.r2
    iso = (r11 - s, 0, im, 0) if k == 1 else (r11 - s, 0, 0, im)
    return gcy_verdict(iso, (r11 + s, 0), 2 * denom * denom, None if k == 1 else k)[0]


def _grid_invariant(sc: _SatCoords, k: int, a, b, p, q, denom, max_det=None) -> IntMat | None:
    """Reduced Gram of the support of exp(B + i omega) for
    B = (p/D) H1 + (q/D) H2 and omega = kappa (a H1 + b H2), kappa^2 = k;
    None, with no basis built, when its determinant is above max_det."""
    g11, g12, g22 = sc.plane
    d2 = denom * denom
    w2 = a * a * g11 + 2 * a * b * g12 + b * b * g22  # omega_0^2
    b2 = p * p * g11 + 2 * p * q * g12 + q * q * g22  # D^2 B^2
    bw = p * (a * g11 + b * g12) + q * (a * g12 + b * g22)  # D B.omega_0
    x0, x1, x2, x3 = r1 = (2 * d2, b2 - k * w2 * d2, 2 * p * denom, 2 * q * denom)
    y1, y2, y3 = bw, a * denom, b * denom  # r2 = (0, y1, y2, y3)
    n0 = _gcy_n0(sc.plane, k, denom, r1, (0, y1, y2, y3))
    s1 = [x0 * c0 + x1 * c1 + x2 * c2 + x3 * c3 for c0, c1, c2, c3 in sc.cols_s]
    s2 = [y1 * c1 + y2 * c2 + y3 * c3 for _, c1, c2, c3 in sc.cols_s]
    # det = n0^2 / (16 k D^2 m^2), m = [support : span(r1, r2)] (kahler_rigid_survey)
    if max_det is not None and n0 * n0 > 16 * k * d2 * max_det * minors_gcd(s1, s2) ** 2:
        return None
    support = saturate2(s1, s2)
    (s11, s12), (_, s22) = pairing_block(sc.entries_s, support, support)
    return reduce_form2(s11, s12, s22)[0]


def kahler_rigid_survey(config: SurveyConfig) -> SurveyReport:
    """Enumerate exponential classes on the configured positive 2-plane and
    collect the reduced invariant forms they achieve.

    omega = kappa (a H1 + b H2) with kappa in {1} or sqrt(d); B ranges over
    the (p/D) H1 + (q/D) H2 grid with D up to the denominator bound.  Every
    sampled class has rational B and rational omega^2, so each invariant is
    a rank-2 even positive definite reduced form.  Enumeration order is
    fixed, so the report is deterministic; a missing form is a statement
    about this grid only.

    Every class lies in P = <deg0, deg4, H1, H2>, so the work is done in
    the coordinates of S = Sat(P), the saturation of P in the Mukai
    lattice (rank <= 4; H1 and H2 may be non-primitive or dependent).
    2D^2 Re(exp(B + i omega)) and (D / kappa) Im(exp(B + i omega)) are the
    integer rows (2D^2, D^2 B^2 - kappa^2 omega_0^2 D^2, 2pD, 2qD) and
    (0, D B.omega_0, aD, bD) on the generators (deg0, deg4, H1, H2), with
    omega_0 = a H1 + b H2.  They are checked isotropic and positive on
    three integers, r1^2, r1.r2 and r2^2, with ``check_gcy``'s messages and
    the norm numerator n0 = r1^2 + 4 kappa^2 D^2 r2^2 of ``gcy_norm``, then
    mapped to S-coordinates and saturated there by ``saturate2``, in closed
    form; since S is saturated, that is the class's support in the Mukai
    lattice.  Its Gram [[a, b], [b, c]] is reduced by ``reduce_form2`` on
    its three integers, with no lattice built and no signature
    elimination: a > 0 and ac - b^2 > 0 is the rank-2 positivity test.

    Only a point whose support has determinant <= max_det can give a
    target, since the targets are every reduced even positive form up to
    that bound; the others are not reduced.  The determinant is read
    before any basis is built.  Isotropy gives r1.r2 = 0 and
    r1^2 = 4 kappa^2 D^2 r2^2 = n0 / 2, so span(r1, r2) has determinant
    r1^2 r2^2 = n0^2 / (16 kappa^2 D^2).  Its saturation, the support, has
    index m, the gcd of the 2x2 minors of the two rows in S-coordinates
    (m > 0: Re and Im of a positive class are independent), so determinant
    n0^2 / (16 kappa^2 D^2 m^2); a point above max_det is skipped after its
    isotropy and positivity check.

    ``samples`` counts every grid point covered, but two kinds are not
    recomputed.  A point with gcd(p, q, D) > 1 repeats a B of smaller D
    already visited with the same omega.  A point whose mirror
    (-p mod D, -q mod D) comes first in the (p, q) loop has its invariant:
    iota (-1 on H^2, identity on H^0 + H^4) maps exp(B + i omega) to
    exp(-B - i omega), conjugation (which keeps the span of the Im rows)
    to exp(-B + i omega), and the integral transvection exp(m1 H1 + m2 H2)
    moves -B onto the mirror's B.  Integral isometries keep saturation,
    support Grams, isotropy and positivity, and the first witness of each
    form is always computed, so the report is that of every point.
    Calls above MAX_FORMS_DET or MAX_SURVEY_SAMPLES are refused before
    any enumeration.
    """
    kappas = _survey_kappas(config.sqrt_d)
    check_forms_det(config.max_det)
    samples = survey_samples(config)
    if samples > MAX_SURVEY_SAMPLES:
        raise ValidationError(
            f"survey covers {samples} grid points, above the limit "
            f"MAX_SURVEY_SAMPLES = {MAX_SURVEY_SAMPLES}"
        )
    targets = enumerate_reduced_forms(config.max_det)
    target_set = set(targets)
    found: dict[IntMat, SurveyWitness] = {}
    sc = _sat_coords(config.h1, config.h2)
    omegas = _positive_omegas(config)
    for k in kappas:
        for a, b in omegas:
            for denom in range(1, config.denominator_bound + 1):
                for p in range(denom):
                    for q in range(denom):
                        if gcd(p, q, denom) > 1 or (-p % denom, -q % denom) < (p, q):
                            continue
                        gram = _grid_invariant(sc, k, a, b, p, q, denom, max_det=config.max_det)
                        if gram in target_set and gram not in found:
                            found[gram] = _witness(config, k, a, b, p, q, denom)
    achieved = tuple(g for g in targets if g in found)
    missing = tuple(g for g in targets if g not in found)
    witnesses = tuple((g, found[g]) for g in achieved)
    return SurveyReport(config, achieved, missing, samples, witnesses)
