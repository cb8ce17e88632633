"""Integral lattices presented by Gram matrices, and sublattices of them.

An ``IntegralLattice`` is a free Z-module with a symmetric integer Gram
matrix; it may be indefinite or degenerate.  A ``Sublattice`` is a tuple of
Q-linearly independent integer rows inside an ambient lattice.  On top of
these the module provides the standard toolbox: named constructors (the
hyperbolic plane U, the negative definite E8 lattice, diagonal lattices,
direct sums, rescalings, the K3 lattice U^3 + E8(-1)^2), orthogonal
complements, primitivity and saturation, discriminant groups, Gauss
reduction of rank-2 positive definite forms, genus-level invariant
comparison, and a search for hyperbolic-plane direct summands.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import gcd

from .errors import ValidationError
from .intlinalg import (
    IntMat,
    IntVec,
    _egcd,
    cached_signature,
    SymDiagResult,
    det,
    freeze,
    hnf_basis,
    identity,
    int_kernel,
    in_row_lattice,
    is_symmetric,
    matmul,
    matvec,
    q_rank,
    saturate,
    snf_divisors,
    transpose,
)


@dataclass(frozen=True)
class IntegralLattice:
    """A lattice given by its symmetric integer Gram matrix."""

    gram: IntMat
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "gram", freeze(self.gram))
        if not is_symmetric(self.gram):
            raise ValidationError("Gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    @property
    def is_even(self) -> bool:
        # recomputed from the Gram, never stored
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def signature(self) -> SymDiagResult:
        return cached_signature(self.gram)

    def det(self) -> int:
        return det(self.gram)

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


def hyperbolic_plane() -> IntegralLattice:
    """U: the even unimodular plane [[0,1],[1,0]] of signature (1,1)."""
    return IntegralLattice(((0, 1), (1, 0)), name="U")


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
    return IntegralLattice(freeze(g), name="E8minus")


def diag_lattice(entries) -> IntegralLattice:
    """The diagonal lattice <k_1> + ... + <k_r>."""
    ks = [int(k) for k in entries]
    n = len(ks)
    g = [[ks[i] if i == j else 0 for j in range(n)] for i in range(n)]
    return IntegralLattice(freeze(g))


def direct_sum(*lattices: IntegralLattice) -> IntegralLattice:
    """Orthogonal direct sum, Gram matrices on the block diagonal."""
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lattices:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return IntegralLattice(freeze(g))


def rescale(l: IntegralLattice, k: int) -> IntegralLattice:
    """L(k): the same module with the form multiplied by k (k != 0)."""
    if k == 0:
        raise ValidationError("rescaling by zero is not a lattice")
    return IntegralLattice(tuple(tuple(k * x for x in row) for row in l.gram))


def k3_lattice() -> IntegralLattice:
    """The K3 lattice U^3 + E8(-1)^2, even unimodular of signature (3,19)."""
    u, e8m = hyperbolic_plane(), e8_minus()
    l = direct_sum(u, u, u, e8m, e8m)
    return IntegralLattice(l.gram, name="K3")


@dataclass(frozen=True)
class Sublattice:
    """Q-independent integer rows spanning a sublattice of an ambient lattice."""

    ambient: IntegralLattice
    basis: IntMat

    def __post_init__(self):
        object.__setattr__(self, "basis", freeze(self.basis))
        n = self.ambient.rank
        if any(len(row) != n for row in self.basis):
            raise ValidationError(
                f"sublattice basis rows must have ambient rank {n}"
            )
        if self.basis and q_rank(self.basis) != len(self.basis):
            raise ValidationError("dependent basis")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def induced_gram(self) -> IntMat:
        return matmul(matmul(self.basis, self.ambient.gram), transpose(self.basis))

    def induced_lattice(self) -> IntegralLattice:
        return IntegralLattice(self.induced_gram)

    def contains_vector(self, v) -> bool:
        """Integral membership of an ambient-coordinate vector."""
        if not self.basis:
            return not any(v)
        return in_row_lattice(hnf_basis(self.basis), v)

    def contains(self, other: "Sublattice") -> bool:
        if other.ambient.gram != self.ambient.gram:
            raise ValidationError("containment needs a common ambient lattice")
        return all(self.contains_vector(row) for row in other.basis)


def ortho_complement(s: Sublattice) -> Sublattice:
    """The full orthogonal complement {x : <x, v> = 0 for all v in s}.

    The returned basis is HNF-normalized, hence canonical; the complement
    is always saturated.
    """
    amb = s.ambient
    if amb.is_degenerate:
        raise ValidationError("degenerate ambient")
    if not s.basis:
        return Sublattice(amb, identity(amb.rank))
    conditions = matmul(s.basis, amb.gram)
    return Sublattice(amb, int_kernel(conditions, amb.rank))


def is_primitive(s: Sublattice) -> bool:
    """True when s equals its saturation (Q-span ∩ ambient)."""
    if not s.basis:
        return True
    return saturate(s.basis, s.ambient.rank) == hnf_basis(s.basis)


def saturation(s: Sublattice) -> Sublattice:
    return Sublattice(s.ambient, saturate(s.basis, s.ambient.rank))


def discriminant(l: IntegralLattice) -> tuple[int, ...]:
    """Elementary divisors > 1 of the Gram matrix (the discriminant group).

    The product of the divisors is |det|; a unimodular lattice returns ().
    """
    if l.rank == 0:
        return ()
    if l.is_degenerate:
        raise ValidationError("degenerate lattice has no discriminant group")
    return tuple(d for d in snf_divisors(l.gram) if d > 1)


@dataclass(frozen=True)
class ReducedForm:
    """A Gauss-reduced rank-2 positive definite form with its witness."""

    lattice: IntegralLattice
    transform: IntMat  # u with u^T @ gram @ u == reduced gram


def gauss_reduce2(l: IntegralLattice) -> ReducedForm:
    """Unique GL_2(Z)-reduced representative [[a,b],[b,c]], 0 <= 2b <= a <= c.

    Returns the reduced lattice together with u in GL_2(Z) satisfying
    u^T G u = reduced.
    """
    if l.rank != 2:
        raise ValidationError(f"rank-2 reduction needs rank 2, got {l.rank}")
    if not l.is_positive_definite:
        raise ValidationError("rank-2 reduction needs a positive definite form")
    a, b, c = l.gram[0][0], l.gram[0][1], l.gram[1][1]
    u = [[1, 0], [0, 1]]

    def apply(t):
        # u <- u @ t (column operations on the basis)
        nonlocal u
        u = [
            [u[i][0] * t[0][0] + u[i][1] * t[1][0], u[i][0] * t[0][1] + u[i][1] * t[1][1]]
            for i in range(2)
        ]

    while True:
        if a > c:
            a, c = c, a
            apply([[0, 1], [1, 0]])
            continue
        if not 0 <= 2 * b <= a:
            # shift the second basis vector to put b into (-a/2, a/2]
            k = (2 * b + a) // (2 * a)
            if k:
                c = c - 2 * k * b + k * k * a
                b = b - k * a
                apply([[1, -k], [0, 1]])
            if b < 0:
                b = -b
                apply([[1, 0], [0, -1]])
            continue
        break
    reduced = IntegralLattice(((a, b), (b, c)))
    return ReducedForm(reduced, freeze(u))


def enumerate_reduced_forms(max_det: int) -> tuple[IntMat, ...]:
    """All even positive definite reduced forms [[a,b],[b,c]] with
    0 <= 2b <= a <= c and determinant <= max_det, sorted lexicographically."""
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


@dataclass(frozen=True)
class MatchResult:
    """Outcome of an invariant-level lattice comparison."""

    verdict: str  # "Equal2" | "GenusInvariantsMatch" | "Distinguished"
    reason: str | None = None

    @property
    def matched(self) -> bool:
        return self.verdict != "Distinguished"


def invariants_match(l1: IntegralLattice, l2: IntegralLattice) -> MatchResult:
    """Compare two lattices by computable invariants.

    Rank-2 positive definite pairs are compared by their unique reduced
    forms (an exact isometry test); everything else by rank, signature,
    evenness and discriminant divisors (a genus-level test that cannot
    distinguish non-isometric lattices in the same genus).
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
        return MatchResult("GenusInvariantsMatch")
    d1, d2 = discriminant(l1), discriminant(l2)
    if d1 != d2:
        return MatchResult("Distinguished", f"discriminant {list(d1)} vs {list(d2)}")
    return MatchResult("GenusInvariantsMatch")


@dataclass(frozen=True)
class HyperbolicSplit:
    """A hyperbolic plane summand: e, f with e^2 = f^2 = 0, <e,f> = 1,
    and the orthogonal complement N, so the lattice is U + N."""

    e: IntVec
    f: IntVec
    complement: IntegralLattice
    complement_basis: IntMat


@dataclass(frozen=True)
class SplitNotFound:
    reason: str


def _norm(gram: IntMat, v) -> int:
    total = 0
    for i, vi in enumerate(v):
        if not vi:
            continue
        row = gram[i]
        total += vi * sum(g * vj for g, vj in zip(row, v) if g and vj)
    return total


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


def _candidate_vectors(rank: int, radius: int, max_support: int):
    """Deterministic enumeration of primitive candidate vectors.

    Ordered by support size, then support positions, then coordinate
    values (small magnitudes first); the first nonzero coordinate is kept
    positive since v and -v span the same line.
    """
    values = [0] * (2 * radius)
    for v in range(1, radius + 1):
        values[2 * (v - 1)] = v
        values[2 * (v - 1) + 1] = -v
    for size in range(1, min(rank, max_support) + 1):
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


def find_hyperbolic_split(
    l: IntegralLattice, radius: int = 3, max_support: int = 3
) -> HyperbolicSplit | SplitNotFound:
    """Search for a hyperbolic plane summand of an even lattice.

    Looks for a primitive isotropic vector e of divisibility 1 with
    coordinates bounded by ``radius`` and support bounded by
    ``max_support``, completes it to a hyperbolic pair via
    f = f0 - (f0^2/2) e, and returns the orthogonal complement.  Definite
    lattices are rejected up front without any search.
    """
    if not l.is_even:
        raise ValidationError("odd lattice: hyperbolic split needs an even lattice")
    if l.is_definite:
        return SplitNotFound("definite lattice has no nonzero isotropic vector")
    gram = l.gram
    n = l.rank
    for e in _candidate_vectors(n, radius, max_support):
        if _norm(gram, e) != 0:
            continue
        w = matvec(gram, e)
        f0 = _solve_pairing_one(w)
        if f0 is None:
            continue  # divisibility > 1
        t = _norm(gram, f0) // 2  # even lattice, so f0^2 is even
        f = tuple(a - t * b for a, b in zip(f0, e))
        plane = (e, f)
        conditions = matmul(plane, gram)
        comp_basis = int_kernel(conditions, n)
        comp_gram = matmul(matmul(comp_basis, gram), transpose(comp_basis))
        return HyperbolicSplit(
            e=tuple(e),
            f=f,
            complement=IntegralLattice(comp_gram),
            complement_basis=comp_basis,
        )
    return SplitNotFound(f"no isotropic vector within radius {radius}")


@lru_cache(maxsize=None)
def _named(name: str) -> IntegralLattice:
    if name == "U":
        return hyperbolic_plane()
    if name == "E8minus":
        return e8_minus()
    if name == "K3":
        return k3_lattice()
    raise ValidationError(f"unknown named lattice {name!r}")


def named_lattice(name: str) -> IntegralLattice:
    """Look up a named lattice: U, E8minus or K3 (Mukai lives in gk3.mukai)."""
    return _named(name)
