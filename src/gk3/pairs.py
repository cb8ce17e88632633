"""Generalized K3 surfaces: pairs of generalized Calabi-Yau classes.

A pair (phi_A, phi_B) is a generalized K3 surface when the period planes
of the two classes are pointwise orthogonal (four vanishing cross
pairings, stronger than <phi_A, phi_B> = 0) and the two norms
<phi, conj phi> agree.  The four real vectors then span a positive
definite 4-space Pi: isotropy of each class gives Re^2 = Im^2 = N/2 and
Re.Im = 0, the cross pairings vanish and the norms N agree, so the Gram
of Pi is (N/2) I with N > 0.

From a pair the module computes the generalized Neron-Severi lattice
(the orthogonal complement of the support of phi_B), the generalized
transcendental lattice (the complement of the support of phi_A), their
signature profile, and the classification of which hyperKaehler-partner
case the pair realizes.
"""

from __future__ import annotations

from .errors import ValidationError
from .intlinalg import freeze, hnf_basis, matmul
from .lattices import Sublattice, ortho_complement
from .mukai import (
    MUKAI,
    GCYClass,
    GenericClass,
    Member,
    CohClass,
    bfield_matrix,
    bfield_transform,
    check_gcy,
    mukai_pairing,
    real_gram,
    type_a_parts,
)
from .records import record
from .scalars import QuadScalar, shown


def _coerce_member(x) -> Member:
    if isinstance(x, (GCYClass, GenericClass)):
        return x
    if isinstance(x, CohClass):
        return check_gcy(x)
    raise ValidationError(f"not a generalized Calabi-Yau class: {x!r}")


@record
class PiSpace:
    """The positive 4-space spanned by Re/Im of both classes, with Gram."""

    vectors: tuple[CohClass, ...]  # Re A, Im A, Re B, Im B as real classes
    gram: tuple[tuple[QuadScalar, ...], ...]

    @property
    def cross_pairings(self) -> tuple[QuadScalar, ...]:
        """The off-diagonal block: Re/Im of phi_A against Re/Im of phi_B."""
        g = self.gram
        return (g[0][2], g[0][3], g[1][2], g[1][3])


@record
class GeneralizedK3:
    """A validated pair; phi_A is a hyperKaehler partner of phi_B.

    Its Neron-Severi and transcendental lattices are the complements of
    the member supports.  Each sublattice computes its complement once, so
    NS, T, the Shioda-Inose polarization slots and any partner support
    built from the same support share one lattice object.
    """

    phi_a: Member
    phi_b: Member
    status: str  # "Verified" | "FormalGeneric"
    pi: PiSpace | None


_CROSS_NAMES = (
    ("Re phiA", "Re phiB"),
    ("Re phiA", "Im phiB"),
    ("Im phiA", "Re phiB"),
    ("Im phiA", "Im phiB"),
)


def _pi_space(a: GCYClass, b: GCYClass) -> PiSpace:
    vectors = (a.coh.real_part(), a.coh.imag_part(), b.coh.real_part(), b.coh.imag_part())
    return PiSpace(vectors, real_gram(vectors))


def cross_pairings(a: GCYClass, b: GCYClass) -> tuple[QuadScalar, ...]:
    """The four pairings between Re/Im of phi_A and Re/Im of phi_B, in the
    order of ``PiSpace.cross_pairings``."""
    b_parts = (b.coh.real_part(), b.coh.imag_part())
    return tuple(
        mukai_pairing(u, v).re for u in (a.coh.real_part(), a.coh.imag_part()) for v in b_parts
    )


def validate_gk3(phi_a, phi_b) -> GeneralizedK3:
    """Validate a pair of classes as a generalized K3 surface.

    Explicit/explicit pairs are checked exactly: the four cross pairings
    must vanish and the norms N must agree.  The 4x4 Gram of Pi, whose
    off-diagonal block holds the cross pairings, is built once; once both
    checks pass it is (N/2) I, positive definite.  A pair with a generic
    member only gets support-level checks and is marked FormalGeneric.
    """
    a = _coerce_member(phi_a)
    b = _coerce_member(phi_b)
    if isinstance(a, GenericClass) or isinstance(b, GenericClass):
        return GeneralizedK3(a, b, "FormalGeneric", None)
    pi = _pi_space(a, b)
    for (name_u, name_v), value in zip(_CROSS_NAMES, pi.cross_pairings):
        if not value.is_zero:
            raise ValidationError(f"planes not orthogonal: <{name_u}, {name_v}> = {shown(value)}")
    if a.norm != b.norm:
        raise ValidationError(f"norm mismatch: {shown(a.norm)} vs {shown(b.norm)}")
    return GeneralizedK3(a, b, "Verified", pi)


def neron_severi(x: GeneralizedK3) -> Sublattice:
    """Orthogonal complement of the support of phi_B (HNF-normalized)."""
    return ortho_complement(x.phi_b.support)


def transcendental(x: GeneralizedK3) -> Sublattice:
    """Orthogonal complement of the support of phi_A (HNF-normalized)."""
    return ortho_complement(x.phi_a.support)


@record
class SignatureProfile:
    ns_signature: tuple[int, int, int]
    t_signature: tuple[int, int, int]
    intersection_rank: int
    intersection_signature: tuple[int, int, int]


def signature_profile(x: GeneralizedK3) -> SignatureProfile:
    """Signatures of the Neron-Severi and transcendental lattices and of
    their intersection.  Each side has at most 2 positive directions,
    since the complement of a lattice containing a positive 2-plane sits
    in signature (4, 20)."""
    sig_ns = neron_severi(x).signature()
    sig_t = transcendental(x).signature()
    for label, sig in (("NS", sig_ns), ("T", sig_t)):
        if sig.n_plus > 2:
            raise ValidationError(
                f"{label} lattice has {sig.n_plus} positive directions, expected <= 2"
            )
    supports = x.phi_b.support.basis + x.phi_a.support.basis
    inter = ortho_complement(Sublattice(MUKAI, hnf_basis(supports)))
    sig_i = inter.signature()
    return SignatureProfile(
        sig_ns.as_tuple(), sig_t.as_tuple(), inter.rank, sig_i.as_tuple()
    )


@record
class Identity:
    """One checked cohomological identity with its exact residual value."""

    name: str
    holds: bool
    value: QuadScalar


@record
class HKClassification:
    """Which hyperKaehler-partner case a pair of explicit classes realizes.

    The case label is '<type of phi_B>-with-<type of phi_A>'.  For an
    A-with-A pair the B-field identities are checked with the relative
    B-field of the partner against the base, which is the invariant form
    of the usual normalization that removes the base B-field.
    """

    case: str
    orthogonal: bool
    norms_match: bool
    identities: tuple[Identity, ...]


def classify_hk_pair(phi_a, phi_b) -> HKClassification:
    """Classify two explicit classes by their types; generic members
    cannot be classified."""
    a = _coerce_member(phi_a)
    b = _coerce_member(phi_b)
    if isinstance(a, GenericClass) or isinstance(b, GenericClass):
        raise ValidationError("classification needs explicit classes")
    case = f"{b.type_tag}-with-{a.type_tag}"
    crosses = cross_pairings(a, b)
    orthogonal = all(v.is_zero for v in crosses)
    norms_match = a.norm == b.norm
    identities: list[Identity] = []
    if case == "A-with-A":
        # Gram of B, omega (base phi_B) and B', omega' (partner phi_A);
        # B_rel = B' - B enters by linearity in each slot
        g = real_gram(type_a_parts(b) + type_a_parts(a))
        w_w = g[1][3]
        w_brel = g[1][2] - g[1][0]
        wp_brel = g[3][2] - g[3][0]
        residual = g[2][2] - 2 * g[0][2] + g[0][0] - g[1][1] - g[3][3]
        identities.append(Identity("omega wedge omega'", w_w.is_zero, w_w))
        identities.append(Identity("omega wedge B_rel", w_brel.is_zero, w_brel))
        identities.append(Identity("omega' wedge B_rel", wp_brel.is_zero, wp_brel))
        identities.append(
            Identity("B_rel^2 - omega^2 - omega'^2", residual.is_zero, residual)
        )
        norm_gap = a.norm - b.norm
        identities.append(
            Identity("|lambda|^2 omega^2 matches", norm_gap.is_zero, norm_gap)
        )
    return HKClassification(case, orthogonal, norms_match, tuple(identities))


def transform_pair(b_int, x: GeneralizedK3) -> GeneralizedK3:
    """Apply an integral B-field transform to both members of a pair.

    Explicit members transform as classes; a generic member transforms by
    mapping its support through the (unimodular) matrix of exp(B).
    """
    (b,) = freeze((b_int,))
    m = bfield_matrix(b)

    def move(member: Member) -> Member:
        if isinstance(member, GenericClass):
            new_basis = matmul(member.support.basis, m)
            return GenericClass(Sublattice(MUKAI, new_basis), member.type_tag)
        return check_gcy(bfield_transform(b, member.coh))

    return validate_gk3(move(x.phi_a), move(x.phi_b))
