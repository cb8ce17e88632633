"""Lattice polarizations, mirror pairs, and the two standard constructions.

A polarization is a pair of primitively embedded sublattices (K, L) of
the Mukai lattice together with witnesses: a type A generalized
Calabi-Yau class inside the complex span of K and a type B class inside
the span of L.  Two polarized families are mirror partners when the K of
one matches the L of the other at invariant level and the moduli
dimensions (rank K - 2, rank L - 2) swap.  The slots and the members' NS
and T are compared as the sublattices they are, since a sublattice answers
every lattice query; a complement reads its signature off the lattice it
complements, sig(L) - sig(S), when S is the smaller one, so a rank-22
complement of a rank-2 support never eliminates its rank-22 Gram.

Two builders are provided.  The classical construction takes a
hyperbolic summand off the complement of a degree-2 polarization and
fails exactly when the complement is definite, which happens for the
rank-20 attractive surfaces.  The second construction sidesteps that
obstruction by pairing the rank-22 complement of a degree-2 period with
the rank-2 support of a pure Kaehler class, giving a mirror family for
every n at moduli dimensions (20, 0) and (0, 20), certified by one
signed permutation of the Mukai lattice that swaps the two members.
"""

from __future__ import annotations

from functools import cached_property
from math import prod

from .errors import ValidationError
from .intlinalg import IntMat, hnf_basis, matmul, pairing_block
from .lattices import (
    MatchResult,
    Sublattice,
    SplitNotFound,
    check_split_radius,
    direct_sum,
    find_hyperbolic_split,
    gauss_reduce2,
    hyperbolic_plane,
    invariants_match,
    is_primitive,
    ortho_complement,
    saturation,
)
from .mukai import (
    K3,
    GenericClass,
    MUKAI,
    MUKAI_GRAM,
    MUKAI_RANK,
    Member,
    check_gcy,
    deg2_vector,
    exponential_class,
    two_form_class,
)
from .pairs import GeneralizedK3, move_pair, neron_severi, transcendental, validate_gk3
from .records import derived, record


@record
class PolarizationData:
    """Embedded (K, L) with witnesses; slot K hosts type A, slot L type B."""

    k_emb: Sublattice
    l_emb: Sublattice
    witness_a: Member
    witness_b: Member

    def __post_init__(self):
        for name, slot in (("K", self.k_emb), ("L", self.l_emb)):
            if slot.ambient.gram != MUKAI_GRAM:
                raise ValidationError(f"polarization slot {name} must live in the Mukai lattice")


@record
class Clause:
    name: str
    ok: bool
    detail: str | None = None


@record
class PolarizationReport:
    """Per-clause verdicts plus the data the definition leaves to the reader.

    The joint index is the index of K + L inside its saturation when the
    two spans are independent and fill the ambient; the K-L pairing matrix
    is reported because mutual orthogonality is not part of the definition.
    """

    clauses: tuple[Clause, ...]
    joint_index: int | None
    kl_pairing: IntMat
    passed: bool = derived

    def __post_init__(self):
        object.__setattr__(self, "passed", all(c.ok for c in self.clauses))

    def failed_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.clauses if not c.ok)


def check_polarization(p: PolarizationData, x: GeneralizedK3) -> PolarizationReport:
    """Verify the polarization conditions of (K, L) against a member pair.

    Checked by name: slot signatures (2, rank-2) summing to rank 24,
    primitivity of each embedding, independence of the two spans, witness
    types and span memberships, and the containments K inside the
    Neron-Severi lattice and L inside the transcendental lattice of the
    member.  Every membership is ``Sublattice.contains``; a witness lies in
    the span of a slot when its support lies in the slot's saturation.
    The joint saturation index and the K-L pairing matrix are attached
    rather than judged.
    """
    signatures = (
        Clause(f"{n} signature (2, rank-2)", s.n_plus == 2 and s.n_zero == 0, f"got {s.as_tuple()}")
        for n, s in (("K", p.k_emb.signature()), ("L", p.l_emb.signature()))
    )
    rank_sum = p.k_emb.rank + p.l_emb.rank
    stack = hnf_basis(p.k_emb.basis + p.l_emb.basis)
    independent = len(stack) == rank_sum
    type_a, type_b = p.witness_a.type_tag, p.witness_b.type_tag
    clauses = (
        *signatures,
        Clause("ranks sum to 24", rank_sum == 24, f"got {rank_sum}"),
        Clause("K embedding primitive", is_primitive(p.k_emb)),
        Clause("L embedding primitive", is_primitive(p.l_emb)),
        Clause("K and L spans independent", independent),
        Clause("witness A has type A", type_a == "A", f"got {type_a}"),
        Clause("witness A lies in the K span", saturation(p.k_emb).contains(p.witness_a.support)),
        Clause("witness B has type B", type_b == "B", f"got {type_b}"),
        Clause("witness B lies in the L span", saturation(p.l_emb).contains(p.witness_b.support)),
        Clause("K inside the Neron-Severi lattice", neron_severi(x).contains(p.k_emb)),
        Clause("L inside the transcendental lattice", transcendental(x).contains(p.l_emb)),
    )
    # a nonsingular square HNF is upper triangular, so |det| is its pivot product
    joint_index = (
        prod(row[i] for i, row in enumerate(stack)) if (independent and rank_sum == 24) else None
    )
    kl = pairing_block(MUKAI.entries, p.k_emb.basis, p.l_emb.basis)
    return PolarizationReport(clauses, joint_index, kl)


def moduli_dims(p: PolarizationData) -> tuple[int, int]:
    """(rank K - 2, rank L - 2): the dimensions of the two moduli factors."""
    return p.k_emb.rank - 2, p.l_emb.rank - 2


@record
class FamilySpec:
    """A polarization with a designated member pair."""

    polarization: PolarizationData
    member: GeneralizedK3

    @cached_property
    def report(self) -> PolarizationReport:
        """The polarization report of this family, computed once."""
        return check_polarization(self.polarization, self.member)


@record
class MirrorReport:
    """Verdicts for a candidate mirror pair of polarized families, with the
    moduli dimensions and polarization verdicts of the two families; whether
    the dimensions swap and the verdict are read off the other fields."""

    k1_vs_l2: MatchResult
    l1_vs_k2: MatchResult
    ns1_vs_t2: MatchResult
    t1_vs_ns2: MatchResult
    dims: tuple[tuple[int, int], tuple[int, int]]
    dims_swap: bool = derived
    polarizations_passed: tuple[bool, bool]
    verified: bool = derived

    def __post_init__(self):
        swap = self.dims[0] == self.dims[1][::-1]
        matches = self.k1_vs_l2, self.l1_vs_k2, self.ns1_vs_t2, self.t1_vs_ns2
        object.__setattr__(self, "dims_swap", swap)
        object.__setattr__(
            self, "verified", swap and all(self.polarizations_passed) and all(m.matched for m in matches)
        )


def mirror_check(f1: FamilySpec, f2: FamilySpec) -> MirrorReport:
    """Compare two families as candidate mirror partners.

    The K of each family is compared with the L of the other at invariant
    level (exact reduced-form equality in the rank-2 definite case), the
    moduli dimensions must swap, and the Neron-Severi/transcendental
    lattices of the designated members are cross-compared the same way.
    """
    p1, p2 = f1.polarization, f2.polarization
    x1, x2 = f1.member, f2.member
    return MirrorReport(
        k1_vs_l2=invariants_match(p1.k_emb, p2.l_emb),
        l1_vs_k2=invariants_match(p1.l_emb, p2.k_emb),
        ns1_vs_t2=invariants_match(neron_severi(x1), transcendental(x2)),
        t1_vs_ns2=invariants_match(transcendental(x1), neron_severi(x2)),
        dims=(moduli_dims(p1), moduli_dims(p2)),
        polarizations_passed=(f1.report.passed, f2.report.passed),
    )


@record
class Failure:
    reason: str


@record
class DolgachevMirror:
    """The mirror lattice N, a sublattice of the K3 lattice, with its split
    witness and the duality check."""

    n: Sublattice
    e: tuple[int, ...]
    f: tuple[int, ...]
    duality: MatchResult


def dolgachev_mirror(kp: Sublattice, radius: int = 3) -> DolgachevMirror | Failure:
    """Classical mirror of a degree-2 polarization: split U off its complement.

    kp must be a primitive sublattice of the K3 lattice with signature
    (1, t).  The search for the hyperbolic summand is bounded; a definite
    complement (the rank-20 attractive case) is a hard obstruction, while
    exhausting the radius only means no split was found at this bound.
    A radius outside 1..MAX_SPLIT_RADIUS is refused before any work.
    On success the duality invariant check compares kp + U with the
    complement of the embedded mirror lattice.
    """
    check_split_radius(radius)
    if kp.ambient.gram != K3.gram:
        raise ValidationError("mirror construction lives in the K3 lattice")
    if not is_primitive(kp):
        raise ValidationError("polarization sublattice must be primitive")
    sig = kp.signature()
    if sig.n_plus != 1 or sig.n_zero != 0:
        raise ValidationError(
            f"polarization must have signature (1, t), got {sig.as_tuple()}"
        )
    perp = ortho_complement(kp)
    if perp.is_definite:
        return Failure("definite complement")
    split = find_hyperbolic_split(perp, radius=radius)
    if isinstance(split, SplitNotFound):
        return Failure(split.reason)
    n = Sublattice(K3, matmul(split.complement.basis, perp.basis))
    expected = direct_sum(kp, hyperbolic_plane())
    e_amb, f_amb = matmul((split.e, split.f), perp.basis)
    return DolgachevMirror(
        n=n, e=e_amb, f=f_amb, duality=invariants_match(expected, ortho_complement(n))
    )


# g: the signed permutation of the Mukai lattice, acting on rows as x -> x g,
# that swaps coordinate i < 8 with i ^ 4 (deg0 <-> e2, deg4 <-> -f2, e1 <-> e3,
# f1 <-> f3) and fixes the rest.  An involution and an isometry, it maps
# exp(i H) onto sigma in ``build_si_mirror``.
SI_MIRROR_ISOMETRY: IntMat = tuple(
    tuple((-1 if i in (1, 5) else 1) * (j == (i ^ 4 if i < 8 else i)) for j in range(MUKAI_RANK))
    for i in range(MUKAI_RANK)
)


def build_si_mirror(n: int) -> tuple[FamilySpec, FamilySpec]:
    """The mirror pair that works where the classical construction fails.

    For the degree-2 period sigma = (e2 + n f2) + i (e3 + n f3) and the
    Kaehler class exp(i H) with H = e1 + n f1, the member of the first
    family pairs sigma with a generic type A class on the rank-22
    complement of its support; the member of the second family pairs
    exp(i H) with a generic type B class on the rank-22 complement of its
    support.  Each family is polarized by its own member's lattices,
    K = NS and L = T, so the rank-2 slots have Gram diag(2n, 2n).
    Witnesses are exp(i H) (type A) and sigma (type B) for both families.
    The moduli dimensions are (20, 0) and (0, 20).

    The pair is certified by one integer isometry, ``SI_MIRROR_ISOMETRY``:
    it preserves the Mukai pairing and moves the first member onto the second
    with phi_A and phi_B swapped, or the builder raises ValidationError.
    """
    if type(n) is not int or n < 1:  # a float or a bool is refused, not truncated
        raise ValidationError("n must be a positive integer")
    h = deg2_vector({0: 1, 1: n})
    sigma = check_gcy(
        two_form_class(deg2_vector({2: 1, 3: n}), deg2_vector({4: 1, 5: n}))
    )
    exp_h = check_gcy(exponential_class([0] * 22, h))
    x1 = validate_gk3(GenericClass(ortho_complement(sigma.support), "A"), sigma)
    x2 = validate_gk3(exp_h, GenericClass(ortho_complement(exp_h.support), "B"))
    fam1, fam2 = (
        FamilySpec(PolarizationData(neron_severi(x), transcendental(x), exp_h, sigma), x)
        for x in (x1, x2)
    )
    _assert_si_shape(fam1, fam2, n)
    return fam1, fam2


def _assert_si_shape(fam1: FamilySpec, fam2: FamilySpec, n: int) -> None:
    """The builder output, checked by integer products: g is an isometry and
    ``move_pair(g, x1)`` is x2 with its members swapped (saturated supports of
    equal rank are equal when one holds the other), so g swaps NS and T too."""
    x1, x2 = fam1.member, fam2.member
    if gauss_reduce2(transcendental(x1)).lattice.gram != ((2 * n, 0), (0, 2 * n)):
        raise ValidationError("transcendental lattice of X is not diag(2n, 2n)")
    g = SI_MIRROR_ISOMETRY
    if pairing_block(MUKAI.entries, g, g) != MUKAI_GRAM:
        raise ValidationError("mirror certificate is not an isometry of the Mukai lattice")
    y = move_pair(g, x1)
    generic, support = y.phi_a.support, x2.phi_b.support
    if y.phi_b.coh != x2.phi_a.coh or generic.rank != support.rank or not support.contains(generic):
        raise ValidationError("mirror certificate does not swap the members")
    for fam in (fam1, fam2):
        if not fam.report.passed:
            raise ValidationError(f"polarization clauses failed: {fam.report.failed_names()}")
