"""The survey in Sat(P) coordinates against the 24-wide class pipeline.

The survey computes each invariant on the rank <= 4 saturation of
P = <deg0, deg4, H1, H2>.  These tests recompute invariants the long way,
check_gcy(exponential_class(B, omega)) -> support_lattice -> gauss_reduce2,
per grid point and for whole reports, on planes that are primitive,
non-primitive, dependent and indefinite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gk3.rigidity
from gk3.lattices import enumerate_reduced_forms, gauss_reduce2
from gk3.errors import ValidationError
from gk3.intlinalg import gram_entries, minors_gcd, pairing_block
from gk3.mukai import K3_GRAM, CohClass, check_gcy, deg2_vector, exponential_class, gcy_norm, support_lattice
from gk3.rigidity import (
    MAX_FORMS_DET,
    MAX_SURVEY_SAMPLES,
    SurveyConfig,
    SurveyReport,
    SurveyWitness,
    _exp_rows,
    _grid_invariant,
    _sat_coords,
    _survey_kappas,
    kahler_rigid_survey,
    survey_samples,
)
from gk3.scalars import ComplexQuad, QuadScalar, as_quad

from fieldref import Ref

PLANES = {
    "primitive": (deg2_vector({0: 1, 1: 1}), deg2_vector({2: 1, 3: 1})),
    "bench-shape": (deg2_vector({2: 1, 3: 3}), deg2_vector({4: 1, 5: 2})),
    "non-primitive": (deg2_vector({0: 2, 1: 2}), deg2_vector({2: 1, 3: 1})),
    "both-non-primitive": (deg2_vector({0: 2, 1: 2}), deg2_vector({2: 3, 3: 3})),
    "dependent": (deg2_vector({0: 1, 1: 1}), deg2_vector({0: 1, 1: 1})),
    "dependent-multiple": (deg2_vector({0: 1, 1: 1}), deg2_vector({0: 2, 1: 2})),
    "indefinite": (deg2_vector({0: 1, 1: 1}), deg2_vector({0: 1, 1: -1})),
    "e8": (deg2_vector({0: 1, 1: 2}), deg2_vector({6: 1, 7: 1})),
}


def _kappa(d: int) -> QuadScalar:
    return as_quad(1) if d == 1 else QuadScalar(0, 1, d)


def _classes(h1, h2, kappa, a, b, p, q, denom):
    """B and omega of a grid point as 22 exact scalars each."""
    bfield = tuple(QuadScalar(Fraction(p * u + q * v, denom)) for u, v in zip(h1, h2))
    omega = tuple((Ref.of(kappa) * (a * u + b * v)).quad() for u, v in zip(h1, h2))
    return bfield, omega


def _wide_invariant(bfield, omega):
    support = support_lattice(check_gcy(exponential_class(bfield, omega)))
    assert support.rank == 2
    return gauss_reduce2(support).lattice.gram


def _omega_sq(h1, h2, a, b) -> int:
    w = tuple(a * x + b * y for x, y in zip(h1, h2))
    return pairing_block(gram_entries(K3_GRAM), (w,), (w,))[0][0]


@settings(max_examples=120, deadline=None)
@given(
    plane=st.sampled_from(sorted(PLANES)),
    d=st.sampled_from((1, 2, 3)),
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    denom=st.integers(1, 6),
    data=st.data(),
)
def test_grid_invariant_matches_the_24_wide_pipeline(plane, d, a, b, denom, data):
    h1, h2 = PLANES[plane]
    if _omega_sq(h1, h2, a, b) <= 0:
        return
    p = data.draw(st.integers(0, denom - 1), label="p")
    q = data.draw(st.integers(0, denom - 1), label="q")
    kappa = _kappa(d)
    got = _grid_invariant(_sat_coords(h1, h2), d, a, b, p, q, denom)
    assert got == _wide_invariant(*_classes(h1, h2, kappa, a, b, p, q, denom))


@pytest.mark.parametrize("plane", sorted(PLANES))
def test_grid_invariant_sweep(plane):
    """Every grid point of a small box, for kappa^2 in {1, 2, 3}."""
    h1, h2 = PLANES[plane]
    sc = _sat_coords(h1, h2)
    for d in (1, 2, 3):
        kappa = _kappa(d)
        for a, b in ((1, 0), (0, 1), (1, 1), (2, 1)):
            if _omega_sq(h1, h2, a, b) <= 0:
                continue
            for denom in (1, 2, 3):
                for p in range(denom):
                    q = (p + 1) % denom
                    got = _grid_invariant(sc, d, a, b, p, q, denom)
                    want = _wide_invariant(*_classes(h1, h2, kappa, a, b, p, q, denom))
                    assert got == want, (d, a, b, p, q, denom)


@settings(max_examples=200, deadline=None)
@given(
    plane=st.sampled_from(sorted(PLANES)),
    d=st.sampled_from((1, 2, 3)),
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    denom=st.integers(1, 8),
    data=st.data(),
)
def test_grid_invariant_is_equal_at_minus_b(plane, d, a, b, denom, data):
    """(p, q) and (-p mod D, -q mod D) have isometric supports: iota (-1 on
    H^2), complex conjugation and an integral transvection carry one class
    to the other, so the survey computes one of the two."""
    h1, h2 = PLANES[plane]
    if _omega_sq(h1, h2, a, b) <= 0:
        return
    p = data.draw(st.integers(0, denom - 1), label="p")
    q = data.draw(st.integers(0, denom - 1), label="q")
    sc = _sat_coords(h1, h2)
    got = _grid_invariant(sc, d, a, b, p, q, denom)
    assert got == _grid_invariant(sc, d, a, b, -p % denom, -q % denom, denom)


def test_survey_computes_one_invariant_per_minus_b_orbit(grid_invariants):
    config = SurveyConfig(16, 4, sqrt_d=(2,))
    report = kahler_rigid_survey(config)
    assert report.samples == survey_samples(config) == 1440
    # per (kappa, omega): 1 + 3 + 8/2 + 12/2 of the 1 + 3 + 8 + 12 primitive
    # points, the first of each {(p, q), (-p, -q) mod D} in loop order
    reps = [
        (p, q, denom)
        for denom in range(1, 5)
        for p in range(denom)
        for q in range(denom)
        if gcd(p, q, denom) == 1 and (p, q) <= (-p % denom, -q % denom)
    ]
    assert len(reps) == 14
    heads = sorted({point[:3] for point in grid_invariants})
    assert len(heads) == 2 * 24
    assert grid_invariants == [head + rep for head in heads for rep in reps]


def _det(gram) -> int:
    (a, b), (_, c) = gram
    return a * c - b * b


@settings(max_examples=200, deadline=None)
@given(
    plane=st.sampled_from(sorted(PLANES)),
    d=st.sampled_from((1, 2, 3)),
    a=st.integers(0, 4),
    b=st.integers(0, 4),
    denom=st.integers(1, 6),
    max_det=st.integers(1, 400),
    data=st.data(),
)
def test_grid_invariant_reads_its_determinant_before_the_basis(
    plane, d, a, b, denom, max_det, data
):
    """det = n0^2 / (16 kappa^2 D^2 m^2), read off the 24-wide class: n0 from
    its norm <phi, conj phi> = n0 / (2 D^2)^2, m the index of the span of
    r1 = 2 D^2 Re(phi) and r2 = D Im(phi) / kappa in its saturation.  Above
    max_det the point gives None, at or below it the full invariant."""
    h1, h2 = PLANES[plane]
    if _omega_sq(h1, h2, a, b) <= 0:
        return
    p = data.draw(st.integers(0, denom - 1), label="p")
    q = data.draw(st.integers(0, denom - 1), label="q")
    cls = check_gcy(exponential_class(*_classes(h1, h2, _kappa(d), a, b, p, q, denom)))
    n0 = cls.norm.a * 4 * denom**4
    assert cls.norm.b == 0 and n0.denominator == 1
    rows = cls.coh.rows
    re, im = rows[0], rows[2] if d == 1 else rows[3]
    r1 = [Fraction(2 * denom * denom * v, cls.coh.den) for v in re]
    r2 = [Fraction(denom * v, cls.coh.den) for v in im]
    assert all(v.denominator == 1 for v in r1 + r2)
    m = minors_gcd([int(v) for v in r1], [int(v) for v in r2])
    det = Fraction(int(n0) ** 2, 16 * d * denom**2 * m**2)
    sc = _sat_coords(h1, h2)
    full = _grid_invariant(sc, d, a, b, p, q, denom)
    assert det == _det(full)
    bounded = _grid_invariant(sc, d, a, b, p, q, denom, max_det=max_det)
    assert bounded == (None if det > max_det else full)


def test_criterion7_survey_saturates_only_points_under_the_bound(grid_invariants, monkeypatch):
    """Of the 672 representatives the criterion-7 survey visits, 9 have a
    support of determinant <= 16, and only those build a basis."""
    saturate2 = gk3.rigidity.saturate2
    calls = []
    monkeypatch.setattr(gk3.rigidity, "saturate2", lambda x, y: calls.append(1) or saturate2(x, y))
    kahler_rigid_survey(SurveyConfig(16, 4, sqrt_d=(2,)))
    assert len(grid_invariants) == 672
    assert len(calls) == 9


def _reference_survey(config: SurveyConfig) -> SurveyReport:
    """The survey as a plain 24-wide loop over every grid point."""
    targets = enumerate_reduced_forms(config.max_det)
    found = {}
    samples = 0
    amax = isqrt(config.max_det)
    for kappa in map(_kappa, _survey_kappas(config.sqrt_d)):
        for a in range(amax + 1):
            for b in range(amax + 1):
                if (a == 0 and b == 0) or _omega_sq(config.h1, config.h2, a, b) <= 0:
                    continue
                for denom in range(1, config.denominator_bound + 1):
                    for p in range(denom):
                        for q in range(denom):
                            samples += 1
                            bfield, omega = _classes(config.h1, config.h2, kappa, a, b, p, q, denom)
                            gram = _wide_invariant(bfield, omega)
                            if gram in targets and gram not in found:
                                found[gram] = SurveyWitness(bfield, omega)
    achieved = tuple(g for g in targets if g in found)
    missing = tuple(g for g in targets if g not in found)
    return SurveyReport(config, achieved, missing, samples, tuple((g, found[g]) for g in achieved))


@pytest.mark.parametrize(
    "plane, max_det, denom, sqrt_d",
    [
        ("primitive", 8, 3, (2,)),
        ("bench-shape", 16, 2, (3,)),
        ("non-primitive", 9, 2, (2,)),
        ("both-non-primitive", 24, 2, ()),
        ("dependent", 9, 3, (3,)),
        ("dependent-multiple", 4, 3, (2,)),
        ("indefinite", 9, 2, (2, 3)),
        ("e8", 16, 2, ()),
        ("non-primitive", 16, 4, ()),
    ],
)
def test_survey_report_matches_reference_loop(plane, max_det, denom, sqrt_d):
    h1, h2 = PLANES[plane]
    config = SurveyConfig(max_det, denom, sqrt_d=sqrt_d, h1=h1, h2=h2)
    report = kahler_rigid_survey(config)
    assert report == _reference_survey(config)
    assert report.samples == survey_samples(config)


def test_caps_hold_the_pinned_configurations():
    # criterion 7 and the largest survey shape of the benchmark
    assert survey_samples(SurveyConfig(16, 4, sqrt_d=(2,))) == 1440
    for plane in ("primitive", "bench-shape"):
        h1, h2 = PLANES[plane]
        assert survey_samples(SurveyConfig(24, 5, sqrt_d=(3,), h1=h1, h2=h2)) <= MAX_SURVEY_SAMPLES
    assert 24 <= MAX_FORMS_DET


def _gcy_error(cls) -> str:
    with pytest.raises(ValidationError) as e:
        check_gcy(cls)
    return str(e.value)


def test_integer_gcy_check_reports_as_check_gcy():
    h1, h2 = PLANES["indefinite"]
    sc = _sat_coords(h1, h2)
    # Re = (1, H1/2, -1), Im = sqrt(2) (0, H1, 0): not isotropic
    r1, r2 = (2, -2, 1, 0), (0, 0, 1, 0)
    cls = CohClass(1, [ComplexQuad(Fraction(v, 2), QuadScalar(0, v, 2)) for v in h1], -1)
    with pytest.raises(ValidationError) as e:
        gcy_norm(sc.entries_p, 2, 2, _exp_rows(r1, r2, 2, 1))
    assert str(e.value) == _gcy_error(cls)
    # omega_0 = H2 of square -2: isotropic but not positive
    r1, r2 = (2, 4, 0, 0), (0, 0, 0, 1)
    cls = CohClass(1, [ComplexQuad(0, QuadScalar(0, v, 2)) for v in h2], 2)
    with pytest.raises(ValidationError) as e:
        gcy_norm(sc.entries_p, 2, 2, _exp_rows(r1, r2, 2, 1))
    assert str(e.value) == _gcy_error(cls)
