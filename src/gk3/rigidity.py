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
from .intlinalg import IntMat, freeze, gram_entries, hnf_basis, hnf_coords, pairing_block, saturate2
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
    _times,
    deg2_vector,
    gcy_norm,
    mukai_pairing,
    support_in,
    type_a_parts,
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
    b_rational and omega_sq describe the decomposition lambda e^{B+i omega};
    for a complex test b_rational refers to the degree-4 tail divided out
    by the period, which is only canonical up to classes orthogonal to the
    period (hence b_canonical is False there).
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
    # K3, so this support carries the K3 Gram of sigma's support
    sigma_support = support_in(b.coh.deg2_part())
    if sigma_support.rank != 2:
        return RigidityReport(
            "NotRigid",
            reason=f"degree-2 period support has rank {sigma_support.rank}, needs 2",
        )
    reduced = gauss_reduce2(sigma_support)
    return RigidityReport(
        "ComplexRigid",
        invariant=reduced.lattice.gram,
        b_rational=_tail_b_rational(b),
        b_canonical=False,
    )


def _tail_b_rational(b: GCYClass) -> bool:
    """Whether a B with rational projection to the period plane solves deg4 =
    <B, sigma>.  Only for a rank-2 degree-2 support of sigma, as checked in
    ``is_complex_rigid``, is the plane defined over Q and this the question
    whether a rational B solves it; elsewhere it can refuse a rational B.

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
    invariant is the reduced Gram of the support of phi_A.  The theorem
    shape is verified: the extracted B is rational and omega^2 rational.
    """
    a = x.phi_a
    if a.type_tag != "A":
        return RigidityReport("NotRigid", reason="phi_A has type B, needs type A")
    verdict = _plane_rank_checks(x, "A")
    if verdict is not None:
        return verdict
    reduced = gauss_reduce2(a.support)
    bfield, omega = type_a_parts(a)
    return RigidityReport(
        "KahlerRigid",
        invariant=reduced.lattice.gram,
        b_rational=bfield.field_tag is None,
        b_canonical=True,
        omega_sq=mukai_pairing(omega, omega).re,
    )


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
    """S = Sat(P) for P = <deg0, deg4, H1, H2>: the generators' Gram (with its
    ``gram_entries``), their integer coordinates in S's HNF basis, and the
    ``gram_entries`` of S's Gram."""

    gram_p: IntMat
    entries_p: tuple
    to_s: IntMat
    entries_s: tuple


def _sat_coords(h1, h2) -> _SatCoords:
    g11, g12, g22 = _plane_gram(h1, h2)
    gram_p = ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, g11, g12), (0, 0, g12, g22))
    zeros = (0,) * DEG2_RANK
    gens = ((1, 0) + zeros, (0, 1) + zeros, (0, 0) + tuple(h1), (0, 0) + tuple(h2))
    sat = saturation(Sublattice(MUKAI, hnf_basis(gens, MUKAI_RANK)))
    to_s = tuple(hnf_coords(sat.basis, g) for g in gens)  # gens lie in their saturation
    return _SatCoords(gram_p, gram_entries(gram_p), to_s, sat.entries)


def _exp_rows(r1, r2, k: int, denom: int) -> tuple:
    """Component rows of exp(B + i omega) = (r1 + i kappa 2D r2) / (2D^2),
    kappa^2 = k: Im sits in the rational row for k = 1, else in the sqrt(k) row."""
    im = tuple(2 * denom * v for v in r2)
    zero = (0,) * len(r1)
    return (r1, zero, im, zero) if k == 1 else (r1, zero, zero, im)


def _grid_invariant(sc: _SatCoords, k: int, a, b, p, q, denom) -> IntMat:
    """Reduced Gram of the support of exp(B + i omega) for
    B = (p/D) H1 + (q/D) H2 and omega = kappa (a H1 + b H2), kappa^2 = k."""
    (g11, g12), (_, g22) = sc.gram_p[2][2:], sc.gram_p[3][2:]
    d2 = denom * denom
    w2 = a * a * g11 + 2 * a * b * g12 + b * b * g22  # omega_0^2
    b2 = p * p * g11 + 2 * p * q * g12 + q * q * g22  # D^2 B^2
    bw = p * (a * g11 + b * g12) + q * (a * g12 + b * g22)  # D B.omega_0
    r1 = (2 * d2, b2 - k * w2 * d2, 2 * p * denom, 2 * q * denom)
    r2 = (0, bw, a * denom, b * denom)
    gcy_norm(sc.entries_p, 2 * d2, None if k == 1 else k, _exp_rows(r1, r2, k, denom))
    rank = len(sc.entries_s)
    rows = tuple(
        tuple(sum(x * c[j] for x, c in zip(r, sc.to_s)) for j in range(rank)) for r in (r1, r2)
    )
    support = saturate2(*rows)
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
    omega_0 = a H1 + b H2.  They are checked isotropic and positive by
    ``check_gcy``'s routine on the Gram of the generators, mapped to
    S-coordinates and saturated there by ``saturate2``, in closed form;
    since S is saturated, that is the class's support in the Mukai
    lattice.  Its Gram [[a, b], [b, c]] is reduced by ``reduce_form2`` on
    its three integers, with no lattice built and no signature
    elimination: a > 0 and ac - b^2 > 0 is the rank-2 positivity test.

    ``samples`` counts the grid points covered.  A point with
    gcd(p, q, D) > 1 repeats a B of smaller D already visited with the
    same omega, so it is counted but its invariant is not recomputed.
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
                        if gcd(p, q, denom) > 1:
                            continue
                        gram = _grid_invariant(sc, k, a, b, p, q, denom)
                        if gram in target_set and gram not in found:
                            found[gram] = _witness(config, k, a, b, p, q, denom)
    achieved = tuple(g for g in targets if g in found)
    missing = tuple(g for g in targets if g not in found)
    witnesses = tuple((g, found[g]) for g in achieved)
    return SurveyReport(config, achieved, missing, samples, witnesses)
