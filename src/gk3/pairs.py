"""Generalized K3 surfaces: pairs of generalized Calabi-Yau classes.

A pair (phi_A, phi_B) is a generalized K3 surface when the period planes
of the two classes are pointwise orthogonal (four vanishing cross
pairings, stronger than <phi_A, phi_B> = 0) and the two norms
<phi, conj phi> agree.  The four real vectors then span a positive
definite 4-space Pi with Gram (N/2) I, read off the norm N, not paired
out.  Building each class checked <phi, phi> = 0 and N > 0, which give
Re^2 = Im^2 = N/2 and Re.Im = 0; ``validate_gk3`` checks that the four
cross pairings vanish and that the norms agree.

From a pair the module computes the generalized Neron-Severi lattice
(the orthogonal complement of the support of phi_B), the generalized
transcendental lattice (the complement of the support of phi_A), their
signature profile, and the classification of which hyperKaehler-partner
case the pair realizes.
"""

from __future__ import annotations

from math import lcm

from .errors import ValidationError
from .intlinalg import gram_entries, gram_rows, hnf_basis, pairing_block
from .lattices import Sublattice, ortho_complement
from .mukai import (
    MUKAI,
    GCYClass,
    GenericClass,
    Member,
    CohClass,
    _numerators,
    bfield_matrix,
    check_gcy,
    half_norm_gram,
    type_a_parts,
)
from .records import record
from .scalars import QuadScalar, join_tags, shown


def _coerce_member(x) -> Member:
    if isinstance(x, (GCYClass, GenericClass)):
        return x
    if isinstance(x, CohClass):
        return check_gcy(x)
    raise ValidationError(f"not a generalized Calabi-Yau class: {x!r}")


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

    @property
    def pi_gram(self) -> tuple[tuple[QuadScalar, ...], ...] | None:
        """The Gram of Pi, spanned by Re A, Im A, Re B, Im B: (N/2) I for a
        Verified pair (module docstring), None for a FormalGeneric one."""
        return half_norm_gram(self.phi_a.norm, 4) if self.status == "Verified" else None


_CROSS_NAMES = tuple((f"{u} phiA", f"{v} phiB") for u in ("Re", "Im") for v in ("Re", "Im"))


def cross_pairings(a: GCYClass, b: GCYClass) -> tuple[QuadScalar, ...]:
    """The four pairings between Re/Im of phi_A and Re/Im of phi_B, in the
    order of ``_CROSS_NAMES``: the one routine for these four numbers.  Each
    is a 2x2 sub-block of one ``pairing_block`` of the component rows, in
    the units 1 and sqrt(d) over den_A den_B."""
    x, y = a.coh, b.coh
    d, den = join_tags(x.d, y.d), x.den * y.den
    block = pairing_block(MUKAI.entries, x.rows, y.rows)
    return tuple(
        QuadScalar.from_ints(*_numerators([r[k : k + 2] for r in block[j : j + 2]], d)[:2], den, d)
        for j in (0, 2)
        for k in (0, 2)
    )


def validate_gk3(phi_a, phi_b) -> GeneralizedK3:
    """Validate a pair of classes as a generalized K3 surface.

    Explicit/explicit pairs are checked exactly: the four cross pairings
    must vanish and the norms N must agree.  These are the only pairings
    formed: each class proved <phi, phi> = 0 and N > 0 when it was built,
    so once both checks pass the Gram of Pi is (N/2) I, positive definite,
    and ``GeneralizedK3.pi_gram`` reads it off N.  A pair with a generic
    member only gets support-level checks and is marked FormalGeneric.
    """
    a = _coerce_member(phi_a)
    b = _coerce_member(phi_b)
    if isinstance(a, GenericClass) or isinstance(b, GenericClass):
        return GeneralizedK3(a, b, "FormalGeneric")
    for (name_u, name_v), value in zip(_CROSS_NAMES, cross_pairings(a, b)):
        if not value.is_zero:
            raise ValidationError(f"planes not orthogonal: <{name_u}, {name_v}> = {shown(value)}")
    if a.norm != b.norm:
        raise ValidationError(f"norm mismatch: {shown(a.norm)} vs {shown(b.norm)}")
    return GeneralizedK3(a, b, "Verified")


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
        # omega, omega' and B_rel = B' - B (base phi_B, partner phi_A) as the
        # rational and sqrt(d) rows of real classes over one denominator e;
        # each identity is an integer combination of their pairings over e^2
        d = join_tags(a.coh.d, b.coh.d)
        (base_b, w), (part_b, wp) = type_a_parts(b), type_a_parts(a)
        e = lcm(base_b.den, w.den, part_b.den, wp.den)
        w, wp, bp, bb = (
            [[e // v.den * c for c in row] for row in v.rows[:2]] for v in (w, wp, part_b, base_b)
        )
        brel = [[u - v for u, v in zip(r1, r2)] for r1, r2 in zip(bp, bb)]

        def pair(x, y) -> list[int]:
            return _numerators(pairing_block(MUKAI.entries, x, y), d)

        residual = [u - v - t for u, v, t in zip(pair(brel, brel), pair(w, w), pair(wp, wp))]
        for name, (p, q, _, _) in (
            ("omega wedge omega'", pair(w, wp)),
            ("omega wedge B_rel", pair(w, brel)),
            ("omega' wedge B_rel", pair(wp, brel)),
            ("B_rel^2 - omega^2 - omega'^2", residual),
        ):
            identities.append(Identity(name, not (p or q), QuadScalar.from_ints(p, q, e * e, d)))
        m, n = a.norm, b.norm
        gap = QuadScalar.from_ints(m.p * n.n - n.p * m.n, m.q * n.n - n.q * m.n, m.n * n.n, d)
        identities.append(Identity("|lambda|^2 omega^2 matches", gap.is_zero, gap))
    return HKClassification(case, orthogonal, norms_match, tuple(identities))


def move_pair(g, x: GeneralizedK3) -> GeneralizedK3:
    """Move both members of a pair by an integral isometry g of the Mukai
    lattice, rows acting as x -> x g; g is not checked, so it must be one.
    A generic member's support moves as its ``Sublattice.image``, an explicit
    member's four component rows by ``gram_rows`` over their denominator."""
    m = gram_entries(g)

    def move(member: Member) -> Member:
        if isinstance(member, GenericClass):
            return GenericClass(member.support.image(m), member.type_tag)
        c = member.coh
        return check_gcy(CohClass.from_rows(c.den, c.d, gram_rows(m, c.rows)))

    return validate_gk3(move(x.phi_a), move(x.phi_b))


def transform_pair(b_int, x: GeneralizedK3) -> GeneralizedK3:
    """exp(B) on both members of a pair for an integral B: ``move_pair`` by ``bfield_matrix``."""
    return move_pair(bfield_matrix(b_int), x)
