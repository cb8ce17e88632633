"""The Mukai lattice of a K3 surface and generalized Calabi-Yau classes.

The total integral cohomology H^0 + H^2 + H^4 of a K3 surface carries the
Mukai pairing

    <(r, D, s), (r', D', s')> = D.D' - r s' - s r'

where D.D' is the K3 intersection form on degree 2.  With the fixed basis
order (degree-0 unit, degree-4 unit, then the 22 degree-2 generators
U, U, U, E8(-1), E8(-1)) it is an even unimodular lattice of signature
(4, 20).

A cohomology class here has one exact complex coordinate per basis vector;
a generalized Calabi-Yau class is one with <phi, phi> = 0 and
<phi, conj phi> > 0, of type A when its degree-0 part is nonzero and type
B otherwise.  A real degree-2 class B acts by the exponential transform
(r, D, s) -> (r, D + rB, s + <B,D> + r B^2/2), an isometry that fixes
degree 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import ValidationError
from .intlinalg import IntMat, bilinear, clear_denominators, freeze, hnf_basis, matvec, saturate
from .lattices import IntegralLattice, Sublattice, named_lattice
from .scalars import (
    CQ_ZERO,
    ComplexQuad,
    QuadScalar,
    as_complex,
    as_quad,
    field_tag_of,
    is_positive_definite,
)

DEG2_RANK = 22
MUKAI_RANK = 24

# Mukai coordinate layout: index 0 = degree-0 unit, index 1 = degree-4
# unit, indices 2..23 = degree-2 block in K3-lattice order.
DEG0, DEG4, DEG2_START = 0, 1, 2

K3 = named_lattice("K3")
K3_GRAM = K3.gram


def _mukai_gram() -> IntMat:
    g = [[0] * MUKAI_RANK for _ in range(MUKAI_RANK)]
    g[DEG0][DEG4] = g[DEG4][DEG0] = -1
    for i in range(DEG2_RANK):
        for j in range(DEG2_RANK):
            g[DEG2_START + i][DEG2_START + j] = K3_GRAM[i][j]
    return freeze(g)


MUKAI = IntegralLattice(_mukai_gram(), name="Mukai")
MUKAI_GRAM = MUKAI.gram

# degree-2 index of the i-th basis vector of the three U blocks
U_BLOCKS = ((0, 1), (2, 3), (4, 5))


# nonzero entries (j, g) of each row of the K3 Gram matrix
_K3_ROWS = tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in K3_GRAM)


def k3_pairing(x, y):
    """<x, y> in the K3 lattice for degree-2 vectors of QuadScalar or
    ComplexQuad entries, using only nonzero Gram entries.

    The result has the type of the entries' products, also when every
    term vanishes.
    """
    acc = None
    for xi, row in zip(x, _K3_ROWS):
        if xi.is_zero:
            continue
        for j, g in row:
            yj = y[j]
            if yj.is_zero:
                continue
            term = xi * yj * g
            acc = term if acc is None else acc + term
    return x[0] * y[0] * 0 if acc is None else acc


def _coerce_vec22(entries, kind) -> tuple:
    entries = tuple(entries)
    if len(entries) != DEG2_RANK:
        raise ValidationError(
            f"degree-2 vectors have {DEG2_RANK} coordinates, got {len(entries)}"
        )
    return tuple(kind(v) for v in entries)


@dataclass(frozen=True)
class CohClass:
    """A total cohomology class with exact complex coordinates."""

    deg0: ComplexQuad
    deg2: tuple[ComplexQuad, ...]
    deg4: ComplexQuad

    def __post_init__(self):
        object.__setattr__(self, "deg0", as_complex(self.deg0))
        object.__setattr__(self, "deg2", _coerce_vec22(self.deg2, as_complex))
        object.__setattr__(self, "deg4", as_complex(self.deg4))
        field_tag_of(self.coords24())  # reject mixed square-root tags

    def coords24(self) -> tuple[ComplexQuad, ...]:
        return (self.deg0, self.deg4) + self.deg2

    @property
    def field_tag(self) -> int | None:
        return field_tag_of(self.coords24())

    def real_vector(self) -> tuple[QuadScalar, ...]:
        return tuple(c.re for c in self.coords24())

    def imag_vector(self) -> tuple[QuadScalar, ...]:
        return tuple(c.im for c in self.coords24())

    def conjugate(self) -> "CohClass":
        return CohClass(
            self.deg0.conjugate(),
            tuple(c.conjugate() for c in self.deg2),
            self.deg4.conjugate(),
        )

    def scale(self, k) -> "CohClass":
        k = as_complex(k)
        return CohClass(
            self.deg0 * k, tuple(c * k for c in self.deg2), self.deg4 * k
        )


def coh_class(deg0, deg2, deg4) -> CohClass:
    """Build a class from anything coercible to exact complex scalars."""
    return CohClass(as_complex(deg0), tuple(as_complex(v) for v in deg2), as_complex(deg4))


def mukai_pairing(x, y):
    """The Mukai pairing <x, y> = x2.y2 - x0*y4 - x4*y0 (symmetric, bilinear).

    x and y are classes or 24-coordinate vectors (layout deg0, deg4, deg2)
    of QuadScalar or ComplexQuad entries; the result has the entries' type.
    """
    u = x.coords24() if isinstance(x, CohClass) else x
    v = y.coords24() if isinstance(y, CohClass) else y
    acc = k3_pairing(u[DEG2_START:], v[DEG2_START:])
    return acc - u[DEG0] * v[DEG4] - u[DEG4] * v[DEG0]


def _coerce_real22(b) -> tuple[QuadScalar, ...]:
    out = []
    for v in b:
        if isinstance(v, ComplexQuad):
            if not v.is_real:
                raise ValidationError("b-field must be real")
            v = v.re
        out.append(as_quad(v))
    return _coerce_vec22(out, as_quad)


def bfield_transform(b, x: CohClass) -> CohClass:
    """exp(B): (r, D, s) -> (r, D + rB, s + <B,D> + r B^2 / 2).

    B is a real degree-2 vector; the transform preserves the Mukai pairing
    and fixes the degree-0 component, and exp(B) exp(B') = exp(B + B').
    """
    b = _coerce_real22(b)
    bsq = k3_pairing(b, b)
    bc = tuple(ComplexQuad(v) for v in b)
    r = x.deg0
    new_deg2 = tuple(d + r * bv for d, bv in zip(x.deg2, bc))
    pairing_bd = k3_pairing(bc, x.deg2)
    new_deg4 = x.deg4 + pairing_bd + r * (bsq * Fraction(1, 2))
    return CohClass(r, new_deg2, new_deg4)


def bfield_matrix(b_int) -> IntMat:
    """The 24x24 integer matrix of exp(B) for an integral B (row-vector action).

    Row i is the image of the i-th Mukai basis vector, so a class with
    integer coordinate row x maps to x @ M.  For integral B on an even
    lattice the matrix is unimodular.
    """
    b = tuple(int(v) for v in b_int)
    if len(b) != DEG2_RANK:
        raise ValidationError(f"b-field must have {DEG2_RANK} integer coordinates")
    bsq = bilinear(K3_GRAM, b, b)
    bk = matvec(K3_GRAM, b)  # <B, v> for each generator v (symmetric Gram)
    m = [[0] * MUKAI_RANK for _ in range(MUKAI_RANK)]
    # degree-0 unit -> (1, B, B^2/2)
    m[DEG0][DEG0] = 1
    m[DEG0][DEG4] = bsq // 2
    for j in range(DEG2_RANK):
        m[DEG0][DEG2_START + j] = b[j]
    # degree-4 unit is fixed
    m[DEG4][DEG4] = 1
    # degree-2 generator v -> (0, v, <B, v>)
    for i in range(DEG2_RANK):
        m[DEG2_START + i][DEG2_START + i] = 1
        m[DEG2_START + i][DEG4] = bk[i]
    return freeze(m)


@dataclass(frozen=True)
class GCYClass:
    """A validated generalized Calabi-Yau class with its type tag."""

    coh: CohClass
    type_tag: str  # "A" | "B"
    norm: QuadScalar  # <phi, conj phi>, positive

    @cached_property
    def support(self) -> Sublattice:
        """Smallest saturated sublattice of the Mukai lattice containing coh."""
        return support_in(MUKAI, self.coh.coords24())


def check_gcy(x: CohClass) -> GCYClass:
    """Validate <x,x> = 0 and <x, conj x> > 0; classify as type A or B."""
    self_pairing = mukai_pairing(x, x)
    if not self_pairing.is_zero:
        raise ValidationError(f"not isotropic: <phi,phi> = {self_pairing}")
    norm = mukai_pairing(x, x.conjugate())
    if not norm.is_real:
        raise ValidationError("pairing with the conjugate must be real")
    if norm.re.sign() <= 0:
        raise ValidationError(f"not positive: <phi,conj phi> = {norm.re}")
    tag = "A" if not x.deg0.is_zero else "B"
    return GCYClass(x, tag, norm.re)


@dataclass(frozen=True)
class GenericClass:
    """A symbolic generic member of a family, known only by its support.

    The support is a sublattice S of the Mukai lattice; the class stands
    for a sufficiently general generalized Calabi-Yau structure whose
    smallest rational support is exactly S.
    """

    support: Sublattice
    type_tag: str  # "A" | "B"

    def __post_init__(self):
        if self.support.ambient.gram != MUKAI_GRAM:
            raise ValidationError("generic support must live in the Mukai lattice")
        if self.type_tag not in ("A", "B"):
            raise ValidationError(f"type tag must be 'A' or 'B', got {self.type_tag!r}")
        sig = self.support.induced_lattice().signature()
        if sig.n_plus < 2:
            raise ValidationError(
                f"generic support needs at least 2 positive directions, got {sig.n_plus}"
            )
        if self.type_tag == "A" and not any(row[DEG0] for row in self.support.basis):
            raise ValidationError(
                "type A generic support needs a vector with nonzero degree-0 part"
            )


Member = GCYClass | GenericClass


def support_in(ambient: IntegralLattice, coords) -> Sublattice:
    """Smallest saturated sublattice of ``ambient`` whose complexification
    contains the given complex coordinate vector.

    Each coordinate splits into four rational components (rational and
    sqrt-d parts of the real and imaginary parts); their integer spans are
    saturated, so the rank is at most 4 and can drop when components are
    dependent.
    """
    n = ambient.rank
    comps = {"ra": [], "rb": [], "ia": [], "ib": []}
    for c in coords:
        c = as_complex(c)
        comps["ra"].append(c.re.a)
        comps["rb"].append(c.re.b)
        comps["ia"].append(c.im.a)
        comps["ib"].append(c.im.b)
    rows = []
    for key in ("ra", "rb", "ia", "ib"):
        vec = clear_denominators(comps[key])
        if any(vec):
            rows.append(vec)
    if not rows:
        return Sublattice(ambient, ())
    independent = hnf_basis(rows, n)
    return Sublattice(ambient, saturate(independent, n))


def support_lattice(x: CohClass | GCYClass) -> Sublattice:
    """Smallest saturated sublattice of the Mukai lattice containing x;
    a GCYClass computes it once and keeps it."""
    if isinstance(x, GCYClass):
        return x.support
    return support_in(MUKAI, x.coords24())


def member_support(m: Member) -> Sublattice:
    """The support of an explicit class, or the declared support of a generic one."""
    return m.support


def member_type(m: Member) -> str:
    return m.type_tag


@dataclass(frozen=True)
class PeriodPlane:
    """The oriented positive 2-plane spanned by Re(x) and Im(x)."""

    re: tuple[QuadScalar, ...]
    im: tuple[QuadScalar, ...]
    gram: tuple[tuple[QuadScalar, ...], ...]


def period_plane(g: GCYClass) -> PeriodPlane:
    """Real and imaginary parts of a generalized Calabi-Yau class with
    their 2x2 Gram matrix, which is positive definite."""
    re, im = g.coh.real_vector(), g.coh.imag_vector()
    if _real_dependent(re, im):
        raise ValidationError("degenerate plane: Re and Im are linearly dependent")
    aa = mukai_pairing(re, re)
    ab = mukai_pairing(re, im)
    bb = mukai_pairing(im, im)
    gram = ((aa, ab), (ab, bb))
    if not is_positive_definite(gram):
        raise ValidationError("period plane is not positive definite")
    return PeriodPlane(re, im, gram)


def _real_dependent(u, v) -> bool:
    """Dependence over the real quadratic field of two QuadScalar vectors."""
    iu = next((i for i, x in enumerate(u) if not x.is_zero), None)
    iv = next((i for i, x in enumerate(v) if not x.is_zero), None)
    if iu is None or iv is None:
        return True
    if u[iv].is_zero:
        return False
    lam = v[iv] / u[iv]
    return all((x * lam - y).is_zero for x, y in zip(u, v))


def exponential_class(b, omega, scale=1) -> CohClass:
    """scale * exp(B + i omega) = scale * (1, B + i omega, ((B+i omega)^2)/2).

    B and omega are real degree-2 vectors; the result is a valid type A
    generalized Calabi-Yau class exactly when omega^2 > 0.
    """
    b = _coerce_real22(b)
    w = _coerce_real22(omega)
    half = Fraction(1, 2)
    bsq = k3_pairing(b, b)
    wsq = k3_pairing(w, w)
    bw = k3_pairing(b, w)
    deg2 = tuple(ComplexQuad(bv, wv) for bv, wv in zip(b, w))
    deg4 = ComplexQuad((bsq - wsq) * half, bw)
    out = CohClass(ComplexQuad(1), deg2, deg4)
    if scale != 1:
        out = out.scale(scale)
    return out


def two_form_class(re22, im22, deg4=0) -> CohClass:
    """A degree-2 period sigma = Re + i Im (optionally with a degree-4 tail)."""
    re = _coerce_real22(re22)
    im = _coerce_real22(im22)
    deg2 = tuple(ComplexQuad(a, b) for a, b in zip(re, im))
    return CohClass(CQ_ZERO, deg2, as_complex(deg4))


def deg2_vector(assignments: dict[int, object]) -> tuple:
    """A sparse degree-2 coordinate vector from {index: value}."""
    out = [0] * DEG2_RANK
    for i, v in assignments.items():
        out[int(i)] = v
    return tuple(out)


def decompose_type_a(g: GCYClass) -> tuple[ComplexQuad, tuple[QuadScalar, ...], tuple[QuadScalar, ...]]:
    """Write a type A class as lambda * exp(B + i omega); returns (lambda, B, omega).

    Valid for every type A generalized Calabi-Yau class: isotropy forces
    the degree-4 part to equal (deg2/deg0)^2/2 times deg0.
    """
    if g.type_tag != "A":
        raise ValidationError("decomposition needs a type A class")
    lam = g.coh.deg0
    inv = lam.inverse()
    e = tuple(d * inv for d in g.coh.deg2)
    b = tuple(v.re for v in e)
    w = tuple(v.im for v in e)
    return lam, b, w
