"""Integral lattices presented by Gram matrices, and sublattices of them.

An ``IntegralLattice`` is a free Z-module with a symmetric integer Gram
matrix; it may be indefinite or degenerate.  A ``Sublattice`` is a tuple of
Q-linearly independent integer rows inside an ambient lattice.  Both are a
``Lattice``: a sublattice answers every lattice query (rank, parity, Gram,
signature, determinant, definiteness) under its induced Gram, which it
builds on first use, so every function here that takes a lattice takes a
sublattice as it is.  A complement reads its signature, and in a
unimodular ambient its discriminant, off the lattice it complements when
that one is the smaller (``ortho_complement``, ``discriminant``).  On top of
these the module provides the standard toolbox: named constructors (the
hyperbolic plane U, the negative definite E8 lattice, diagonal lattices,
direct sums, rescalings, the K3 lattice U^3 + E8(-1)^2), orthogonal
complements, primitivity and saturation, discriminant groups, Gauss
reduction of rank-2 positive definite forms, genus-level invariant
comparison, and a search for hyperbolic-plane direct summands.  A
sublattice computes its complement and saturation once and keeps them; a
saturation and a complement are their own saturation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, compress, count, product
from math import gcd
from operator import mul

from .errors import ValidationError
from .intlinalg import (
    IntMat,
    IntVec,
    _egcd,
    SymDiagResult,
    freeze,
    gram_entries,
    gram_rows,
    hnf_basis,
    hnf_coords,
    int_kernel,
    is_symmetric,
    pairing_block,
    q_rank,
    saturate,
    snf_divisors,
    _sym_signature,
)
from .records import record


class Lattice:
    """The queries of a symmetric integer Gram matrix ``gram``, shared by an
    ``IntegralLattice``, which stores its Gram, and a ``Sublattice``, which
    induces its Gram from the ambient on first use."""

    gram: IntMat

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        # recomputed from the Gram, never stored
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    @cached_property
    def entries(self) -> tuple:
        """The ``gram_entries`` of the Gram, scanned once per lattice."""
        return gram_entries(self.gram)

    @cached_property
    def _elimination(self) -> tuple[SymDiagResult, int]:
        """The signature and the determinant, from one elimination."""
        return _sym_signature(self.gram)  # a Gram is symmetric by construction

    @cached_property
    def _signature(self) -> SymDiagResult:
        return self._elimination[0]

    def signature(self) -> SymDiagResult:
        return self._signature

    def det(self) -> int:
        return self._elimination[1]

    @property
    def is_degenerate(self) -> bool:
        return self.signature().n_zero > 0

    @property
    def is_definite(self) -> bool:
        sig = self.signature()
        return sig.n_zero == 0 and (sig.n_plus == 0 or sig.n_minus == 0)

    @property
    def is_positive_definite(self) -> bool:
        sig = self.signature()
        return sig.n_minus == 0 and sig.n_zero == 0


@record
class IntegralLattice(Lattice):
    """A lattice given by its symmetric integer Gram matrix."""

    gram: IntMat

    def __post_init__(self):
        object.__setattr__(self, "gram", freeze(self.gram))
        if not is_symmetric(self.gram):
            raise ValidationError("Gram matrix must be symmetric")


def hyperbolic_plane() -> IntegralLattice:
    """U: the even unimodular plane [[0,1],[1,0]] of signature (1,1)."""
    return IntegralLattice(((0, 1), (1, 0)))


# E8 Dynkin diagram: chain 0-1-2-3-4-5-6 with node 7 attached to node 2
# (arm lengths 1, 2, 4 around the branch node).
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


def e8_minus() -> IntegralLattice:
    """E8(-1): the negated E8 Cartan matrix, even, unimodular, signature (0,8)."""
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = -2
    for a, b in _E8_EDGES:
        g[a][b] = g[b][a] = 1
    return IntegralLattice(g)


def diag_lattice(entries) -> IntegralLattice:
    """The diagonal lattice <k_1> + ... + <k_r>; each k_i must be an int."""
    ks = tuple(entries)
    zero = (0,) * len(ks)
    return IntegralLattice(tuple(zero[:i] + (k,) + zero[i + 1 :] for i, k in enumerate(ks)))


def direct_sum(*lattices: Lattice) -> IntegralLattice:
    """Orthogonal direct sum, Gram matrices on the block diagonal."""
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return IntegralLattice(g)


def rescale(l: IntegralLattice, k: int) -> IntegralLattice:
    """L(k): the same module with the form multiplied by k (k != 0)."""
    if k == 0:
        raise ValidationError("rescaling by zero is not a lattice")
    return IntegralLattice(tuple(tuple(k * x for x in row) for row in l.gram))


def k3_lattice() -> IntegralLattice:
    """The K3 lattice U^3 + E8(-1)^2, even unimodular of signature (3,19)."""
    u, e8m = hyperbolic_plane(), e8_minus()
    return direct_sum(u, u, u, e8m, e8m)


def _is_echelon(rows, n: int) -> bool:
    """Whether nonzero rows lead at strictly increasing columns, as in an HNF
    basis: then they are independent, and ``hnf_coords`` reads them."""
    leads = [next(compress(count(), row), n) for row in rows]
    return all(a < b for a, b in zip(leads, leads[1:] + [n]))


@record
class Sublattice(Lattice):
    """Q-independent integer rows spanning a sublattice of an ambient lattice,
    itself a lattice under the induced form."""

    ambient: Lattice
    basis: IntMat
    _complement_of = None  # not a field: S, on S^⊥ computed in a nondegenerate ambient

    def __post_init__(self):
        object.__setattr__(self, "basis", freeze(self.basis))
        n = self.ambient.rank
        if any(len(row) != n for row in self.basis):
            raise ValidationError(
                f"sublattice basis rows must have ambient rank {n}"
            )
        if not _is_echelon(self.basis, n) and q_rank(self.basis) != len(self.basis):
            raise ValidationError("dependent basis")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @cached_property
    def gram(self) -> IntMat:
        """The induced Gram, built on first use."""
        return pairing_block(self.ambient.entries, self.basis, self.basis)

    @cached_property
    def _signature(self) -> SymDiagResult:
        s = self._complement_of
        if s is not None and s.rank <= self.rank:  # eliminate the smaller Gram
            sig_s = s.signature()
            if sig_s.n_zero == 0:  # then the ambient is S + S^⊥ over Q
                sig_l = self.ambient.signature()
                return SymDiagResult(sig_l.n_plus - sig_s.n_plus, sig_l.n_minus - sig_s.n_minus, 0)
        return self._elimination[0]

    @cached_property
    def _saturation(self) -> "Sublattice":
        sat = Sublattice(self.ambient, saturate(self.basis, self.ambient.rank))
        sat.__dict__["_saturation"] = sat  # where cached_property keeps it
        return sat

    @cached_property
    def _complement(self) -> "Sublattice":
        if self._complement_of is not None:
            return saturation(self._complement_of)
        amb = self.ambient
        degenerate = amb.is_degenerate
        if degenerate and abs(self.det()) != 1:
            raise ValidationError("degenerate ambient: complement needs a unimodular sublattice")
        comp = Sublattice(amb, int_kernel(gram_rows(amb.entries, self.basis), amb.rank))
        if not degenerate:
            object.__setattr__(comp, "_complement_of", self)
        comp.__dict__["_saturation"] = comp  # a kernel is saturated
        return comp

    def image(self, entries) -> "Sublattice":
        """The image under an ambient isometry with these ``gram_entries``, its
        rows moved by ``gram_rows``.  An isometry is invertible and keeps the
        induced Gram, so the moved rows stay independent and the image takes
        this lattice's signature: it eliminates nothing, and its rows are not
        checked again."""
        moved = object.__new__(Sublattice)  # the fields, without __post_init__'s rank check
        object.__setattr__(moved, "ambient", self.ambient)
        object.__setattr__(moved, "basis", tuple(map(tuple, gram_rows(entries, self.basis))))
        moved.__dict__["_signature"] = self.signature()  # where cached_property keeps it
        return moved

    def contains(self, other: "Sublattice") -> bool:
        """Whether every basis row of ``other`` lies in this lattice, read by
        ``hnf_coords`` in this basis (put in HNF first unless echelon).  For the
        Q-span ask ``saturation(self)``: it is the Q-span's integer points.  A
        sublattice contains itself with no elimination."""
        if other is self:
            return True
        if other.ambient.gram != self.ambient.gram:
            raise ValidationError("containment needs a common ambient lattice")
        basis = self.basis if _is_echelon(self.basis, self.ambient.rank) else hnf_basis(self.basis)
        return all(hnf_coords(basis, row) is not None for row in other.basis)


def ortho_complement(s: Sublattice) -> Sublattice:
    """The full orthogonal complement {x : <x, v> = 0 for all v in s}.

    The returned basis is HNF-normalized, hence canonical; the complement
    is always saturated.  The sublattice computes it once and keeps it.

    In a nondegenerate ambient (S^⊥)^⊥ = Sat(S): it has rank k, contains S
    and is saturated.  So S^⊥ takes its own complement as ``saturation(S)``.
    In a degenerate ambient the radical lies in every complement and the
    rule fails; there a complement is given only when the form of S is
    unimodular, since then the ambient is S + S^⊥.

    The complement also knows its signature without building its Gram:
    sig(S^⊥) = sig(L) - sig(S), with no zero directions.  The rule needs
    a nondegenerate ambient L and a nondegenerate S, since then
    L_Q = S_Q + S^⊥_Q, and it is taken only when S is the smaller lattice
    (rank S <= rank S^⊥), so it never eliminates a larger Gram than the
    complement's own.  Otherwise the signature comes from an elimination
    on the induced Gram: for an isotropic e, <e>^⊥ contains e.
    """
    return s._complement


def is_primitive(s: Sublattice) -> bool:
    """True when s equals its saturation (Q-span ∩ ambient).  s lies in its
    saturation, so this asks whether s contains the saturation it keeps."""
    return s.contains(saturation(s))


def saturation(s: Sublattice) -> Sublattice:
    return s._saturation  # (Q-span of s) ∩ ambient


def discriminant(l: Lattice) -> tuple[int, ...]:
    """Elementary divisors > 1 of the Gram matrix (the discriminant group).

    The product of the divisors is |det|; a unimodular lattice returns ().
    A nondegenerate complement S^⊥ in a unimodular ambient reads them off
    Sat(S) when S is the smaller lattice: the two discriminant groups are
    isomorphic (Nikulin 1979, Prop. 1.6.1), so no larger Gram than the
    complement's own is reduced.
    """
    if l.rank == 0:
        return ()
    if l.is_degenerate:
        raise ValidationError("degenerate lattice has no discriminant group")
    s = l._complement_of if isinstance(l, Sublattice) else None
    if s is not None and s.rank <= l.rank and abs(l.ambient.det()) == 1:
        return discriminant(saturation(s))
    return tuple(d for d in snf_divisors(l.gram) if d > 1)


@record
class ReducedForm:
    """A Gauss-reduced rank-2 positive definite form with its witness."""

    lattice: IntegralLattice
    transform: IntMat  # u with u^T @ gram @ u == reduced gram


def gauss_reduce2(l: Lattice) -> ReducedForm:
    """Unique GL_2(Z)-reduced representative [[a,b],[b,c]], 0 <= 2b <= a <= c.

    Returns the reduced lattice together with u in GL_2(Z) satisfying
    u^T G u = reduced.
    """
    if l.rank != 2:
        raise ValidationError(f"rank-2 reduction needs rank 2, got {l.rank}")
    reduced, u = reduce_form2(l.gram[0][0], l.gram[0][1], l.gram[1][1])
    return ReducedForm(IntegralLattice(reduced), u)


def reduce_form2(a: int, b: int, c: int) -> tuple[IntMat, IntMat]:
    """The Gauss reduction of the form [[a, b], [b, c]] on its integer entries:
    the reduced Gram, and u in GL_2(Z) with u^T G u = reduced.  A rank-2 form
    is positive definite exactly when a > 0 and ac - b^2 > 0."""
    if a <= 0 or a * c <= b * b:
        raise ValidationError("rank-2 reduction needs a positive definite form")
    u00, u01, u10, u11 = 1, 0, 0, 1  # u, changed by column operations
    while True:
        if a > c:
            a, c = c, a
            u00, u01, u10, u11 = u01, u00, u11, u10
            continue
        if not 0 <= 2 * b <= a:
            # shift the second basis vector to put b into (-a/2, a/2]
            k = (2 * b + a) // (2 * a)
            if k:
                c = c - 2 * k * b + k * k * a
                b = b - k * a
                u01, u11 = u01 - k * u00, u11 - k * u10
            if b < 0:
                b = -b
                u01, u11 = -u01, -u11
            continue
        return ((a, b), (b, c)), ((u00, u01), (u10, u11))


# Work limit of `rigid forms` and `rigid survey`, sized so that the largest
# accepted call ends in well under a minute on 2 CPUs.
MAX_FORMS_DET = 10_000  # determinant bound of the enumerated forms


def check_forms_det(max_det: int) -> None:
    """Refuse a determinant bound above MAX_FORMS_DET before any enumeration."""
    if max_det > MAX_FORMS_DET:
        raise ValidationError(
            f"max_det {max_det} is above the limit MAX_FORMS_DET = {MAX_FORMS_DET}"
        )


def enumerate_reduced_forms(max_det: int) -> tuple[IntMat, ...]:
    """All even positive definite reduced forms [[a,b],[b,c]] with
    0 <= 2b <= a <= c and determinant <= max_det, sorted lexicographically."""
    if type(max_det) is not int:
        raise ValidationError(f"max_det must be an int, got {max_det!r}")
    if max_det < 1:
        raise ValidationError("max_det must be >= 1")
    forms = []
    a = 2
    while 3 * a * a <= 4 * max_det:
        for b in range(0, a // 2 + 1):
            c = a
            while a * c - b * b <= max_det:
                forms.append(((a, b), (b, c)))
                c += 2
        a += 2
    return tuple(sorted(forms))


@record
class MatchResult:
    """Outcome of an invariant-level lattice comparison."""

    verdict: str  # "Equal2" | "GenusInvariantsMatch" | "Distinguished"
    reason: str | None = None

    @property
    def matched(self) -> bool:
        return self.verdict != "Distinguished"


def invariants_match(l1: Lattice, l2: Lattice) -> MatchResult:
    """Compare two lattices by computable invariants.

    Rank-2 positive definite pairs are compared by their unique reduced
    forms (an exact isometry test); everything else by rank, signature,
    evenness and discriminant divisors (a genus-level test that cannot
    distinguish non-isometric lattices in the same genus).  A degenerate
    lattice is L = rad(L) + M over Z, so its Smith divisors are those of M
    and zeros: the nonzero ones give the discriminant of L/rad(L).
    """
    if (
        l1.rank == 2
        and l2.rank == 2
        and l1.is_positive_definite
        and l2.is_positive_definite
    ):
        r1 = gauss_reduce2(l1).lattice.gram
        r2 = gauss_reduce2(l2).lattice.gram
        if r1 == r2:
            return MatchResult("Equal2")
        return MatchResult("Distinguished", f"reduced forms {r1} vs {r2}")
    if l1.rank != l2.rank:
        return MatchResult("Distinguished", f"rank {l1.rank} vs {l2.rank}")
    s1, s2 = l1.signature().as_tuple(), l2.signature().as_tuple()
    if s1 != s2:
        return MatchResult("Distinguished", f"signature {s1} vs {s2}")
    if l1.is_even != l2.is_even:
        return MatchResult("Distinguished", "evenness")
    if l1.is_degenerate:
        d1, d2 = (tuple(d for d in snf_divisors(l.gram) if d > 1) for l in (l1, l2))
    else:
        d1, d2 = discriminant(l1), discriminant(l2)
    if d1 != d2:
        return MatchResult("Distinguished", f"discriminant {list(d1)} vs {list(d2)}")
    return MatchResult("GenusInvariantsMatch")


@record
class HyperbolicSplit:
    """A hyperbolic plane summand: e, f with e^2 = f^2 = 0, <e,f> = 1,
    and the orthogonal complement N, so the lattice is U + N."""

    e: IntVec
    f: IntVec
    complement: Sublattice  # N, a sublattice of the split lattice


@record
class SplitNotFound:
    reason: str


def _solve_pairing_one(w) -> list[int] | None:
    """x with sum(w_i x_i) = 1, or None when gcd(w) != 1."""
    n = len(w)
    x = [0] * n
    g = 0
    for i, wi in enumerate(w):
        if wi == 0:
            continue
        if g == 0:
            g = abs(wi)
            x[i] = 1 if wi > 0 else -1
            continue
        g2, s, t = _egcd(g, wi)
        x = [s * v for v in x]
        x[i] += t
        g = g2
        if g == 1:
            break
    if g != 1:
        return None
    return x


# Largest support of a candidate isotropic vector in the split search.
SPLIT_SUPPORT = 3


def _candidate_vectors(rank: int, radius: int):
    """Deterministic enumeration of primitive candidate vectors.

    Ordered by support size, then support positions, then coordinate
    values (small magnitudes first); the first nonzero coordinate is kept
    positive since v and -v span the same line.
    """
    values = [0] * (2 * radius)
    for v in range(1, radius + 1):
        values[2 * (v - 1)] = v
        values[2 * (v - 1) + 1] = -v
    for size in range(1, min(rank, SPLIT_SUPPORT) + 1):
        for pos in combinations(range(rank), size):
            for first in range(1, radius + 1):
                for rest in product(values, repeat=size - 1):
                    coords = (first,) + rest
                    if gcd(*coords) != 1:
                        continue
                    vec = [0] * rank
                    for p, v in zip(pos, coords):
                        vec[p] = v
                    yield tuple(vec)


# Largest accepted search radius.  The search grows with the cube of the
# radius: on U(2) + E8(-2)^2 + U(2), which has no split, radius 8 took
# 6.8 to 7.5 s through the CLI in three runs (2-CPU Intel Xeon VM, Python
# 3.11.7).
MAX_SPLIT_RADIUS = 8


def check_split_radius(radius: int) -> None:
    """Refuse a search radius that is not an int, below 1 or above MAX_SPLIT_RADIUS."""
    if type(radius) is not int:
        raise ValidationError(f"radius must be an int, got {radius!r}")
    if radius < 1:
        raise ValidationError(f"radius must be >= 1, got {radius}")
    if radius > MAX_SPLIT_RADIUS:
        raise ValidationError(
            f"radius {radius} is above the limit MAX_SPLIT_RADIUS = {MAX_SPLIT_RADIUS}"
        )


def find_hyperbolic_split(l: Lattice, radius: int = 3) -> HyperbolicSplit | SplitNotFound:
    """Search for a hyperbolic plane summand of an even lattice.

    Looks for a primitive isotropic vector e of divisibility 1 with
    coordinates bounded by ``radius`` (1 to MAX_SPLIT_RADIUS) and support
    bounded by SPLIT_SUPPORT, completes it to a hyperbolic pair via
    f = f0 - (f0^2/2) e, and returns the orthogonal complement.  Definite
    lattices are rejected up front without any search.  A degenerate lattice
    is searched too: the plane of (e, f) is U, unimodular, so its complement
    is defined and holds the radical.
    """
    check_split_radius(radius)
    if not l.is_even:
        raise ValidationError("odd lattice: hyperbolic split needs an even lattice")
    if l.is_definite:
        return SplitNotFound("definite lattice has no nonzero isotropic vector")
    for e in _candidate_vectors(l.rank, radius):
        (w,) = gram_rows(l.entries, (e,))
        if sum(map(mul, e, w)) != 0:
            continue
        f0 = _solve_pairing_one(w)
        if f0 is None:
            continue  # divisibility > 1
        t = pairing_block(l.entries, (f0,), (f0,))[0][0] // 2  # even lattice, so f0^2 is even
        f = tuple(a - t * b for a, b in zip(f0, e))
        return HyperbolicSplit(tuple(e), f, ortho_complement(Sublattice(l, (e, f))))
    return SplitNotFound(
        "no primitive isotropic vector of divisibility 1"
        f" with support <= {SPLIT_SUPPORT} within radius {radius}"
    )


_NAMED = {"U": hyperbolic_plane(), "E8minus": e8_minus(), "K3": k3_lattice()}
# the degree-0 and degree-4 units span U(-1), then the degree-2 block is K3
_NAMED["Mukai"] = direct_sum(rescale(_NAMED["U"], -1), _NAMED["K3"])


def named_lattice(name: str) -> IntegralLattice:
    """Look up a named lattice: U, E8minus, K3 or Mukai."""
    if name not in _NAMED:
        raise ValidationError(f"unknown named lattice {name!r}")
    return _NAMED[name]
