"""The Mukai lattice of a K3 surface and generalized Calabi-Yau classes.

The total integral cohomology H^0 + H^2 + H^4 of a K3 surface carries the
Mukai pairing

    <(r, D, s), (r', D', s')> = D.D' - r s' - s r'

where D.D' is the K3 intersection form on degree 2.  With the fixed basis
order (degree-0 unit, degree-4 unit, then the 22 degree-2 generators
U, U, U, E8(-1), E8(-1)) it is an even unimodular lattice of signature
(4, 20).

A class is four integer rows (rational and sqrt(d) parts of Re and Im)
over one denominator, with one field tag d; all class arithmetic is
integer arithmetic on the rows.  The pairing and the supports take
classes: exact coordinates become one by ``CohClass(deg0, deg2, deg4)``.
A generalized Calabi-Yau class is one with <phi, phi> = 0 and
<phi, conj phi> > 0, of type A when its degree-0 part is nonzero and
type B otherwise.  A real degree-2 class B acts by the exponential
transform (r, D, s) -> (r, D + rB, s + <B,D> + r B^2/2), an isometry
that fixes degree 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import ValidationError
from .intlinalg import IntMat, eichler, freeze, hnf_basis, pairing_block
from .lattices import Sublattice, _is_echelon, named_lattice, saturation
from .records import derived, record
from .scalars import ComplexQuad, QuadScalar, as_quad, join_tags, quad_sign, shown

DEG2_RANK = 22
MUKAI_RANK = 24

# Mukai coordinate layout: index 0 = degree-0 unit, index 1 = degree-4
# unit, indices 2..23 = degree-2 block in K3-lattice order.
DEG0, DEG4, DEG2_START = 0, 1, 2

K3 = named_lattice("K3")
K3_GRAM = K3.gram
MUKAI = named_lattice("Mukai")
MUKAI_GRAM = MUKAI.gram

_ZERO_ROW = (0,) * MUKAI_RANK
_DEG4_UNIT = tuple(int(i == DEG4) for i in range(MUKAI_RANK))


# Component t of a class is the coefficient row of the unit c_t, for
# c = 1, sqrt d, i, i sqrt d; then c_j c_k = _unit(j, k, d) c_(j ^ k).
def _unit(j: int, k: int, d: int | None) -> int:
    return (-1 if j & k & 2 else 1) * (d if j & k & 1 else 1)


def _numerators(block, d: int | None, conj: bool = False) -> list[int]:
    """The four unit coefficients of sum p_jk c_j c_k for the ``pairing_block``
    p of two classes' component rows, with c_k conjugated when conj.  Only
    nonzero entries do work, with ``_unit`` written out and conj(c_k) = -c_k
    for k & 2."""
    out = [0, 0, 0, 0]
    for j, row in enumerate(block):
        if any(row):
            k = 0  # counted by hand: enumerate's pairs cost more than the work
            for p in row:
                if p:
                    m = j & k
                    if m & 1:
                        p *= d
                    if (m & 2) != (conj and k & 2):
                        p = -p
                    out[j ^ k] += p
                k += 1
    return out


def _times(rows, c, d: int | None) -> list[list[int]]:
    """Component rows of rows * (c_0 + c_1 sqrt d + c_2 i + c_3 i sqrt d)."""
    out = [[0] * len(rows[0]) for _ in range(4)]
    for j, row in enumerate(rows):
        if any(row):
            for k, ck in enumerate(c):
                if ck:
                    f = _unit(j, k, d) * ck
                    out[j ^ k] = [a + f * v for a, v in zip(out[j ^ k], row)]
    return out


_quad = QuadScalar.from_ints  # (a + b sqrt d) / den from integer numerators


def _complex(nums, den: int, d: int | None) -> ComplexQuad:
    return ComplexQuad(_quad(nums[0], nums[1], den, d), _quad(nums[2], nums[3], den, d))


def _rows_of(coords) -> tuple[int, int | None, tuple[tuple[int, ...], ...]]:
    """(den, d, rows) of a sequence of exact scalars: the rational and sqrt(d)
    parts of the real and imaginary parts as four integer rows over one
    denominator.  Mixed square-root tags are rejected."""
    parts, d = [], None  # (numerator, denominator) of each part
    for c in coords:
        if isinstance(c, ComplexQuad):
            re, im = c.re, c.im
            d = join_tags(join_tags(d, re.d), im.d)
            parts += ((re.p, re.n), (re.q, re.n), (im.p, im.n), (im.q, im.n))
        elif isinstance(c, (int, Fraction)) and not isinstance(c, bool):
            parts += ((c.numerator, c.denominator), (0, 1), (0, 1), (0, 1))
        else:
            q = as_quad(c)
            d = join_tags(d, q.d)
            parts += ((q.p, q.n), (q.q, q.n), (0, 1), (0, 1))
    den = lcm(*{n for _, n in parts})
    flat = [p * (den // n) for p, n in parts]
    return den, d, tuple(tuple(flat[t::4]) for t in range(4))


@record
class CohClass:
    """A total cohomology class, stored exactly as four integer rows in the
    Mukai layout (rational and sqrt(d) parts of Re, then of Im) over one
    positive denominator, with the field tag d.

    In normal form the gcd of den and all entries is 1 and d is None
    exactly when both sqrt(d) rows vanish, so == and hash are value
    equality.  ``CohClass(deg0, deg2, deg4)`` converts exact coordinates;
    deg0, deg2, deg4 and ``coords24()`` are views built from the rows.
    """

    den: int
    d: int | None
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, deg0, deg2, deg4):
        deg2 = tuple(deg2)
        if len(deg2) != DEG2_RANK:
            raise ValidationError(
                f"degree-2 vectors have {DEG2_RANK} coordinates, got {len(deg2)}"
            )
        self._normalize(*_rows_of((deg0, deg4) + deg2))

    @classmethod
    def from_rows(cls, den: int, d: int | None, rows) -> "CohClass":
        x = object.__new__(cls)
        x._normalize(den, d, rows)
        return x

    def _normalize(self, den, d, rows) -> None:
        g = gcd(den, *rows[0], *rows[1], *rows[2], *rows[3])
        rows = tuple(tuple(v // g for v in row) if g > 1 else tuple(row) for row in rows)
        object.__setattr__(self, "den", den // g)
        object.__setattr__(self, "d", d if any(rows[1]) or any(rows[3]) else None)
        object.__setattr__(self, "rows", rows)

    def _coord(self, i: int) -> ComplexQuad:
        return _complex([row[i] for row in self.rows], self.den, self.d)

    @property
    def deg0(self) -> ComplexQuad:
        return self._coord(DEG0)

    @property
    def deg2(self) -> tuple[ComplexQuad, ...]:
        return tuple(self._coord(i) for i in range(DEG2_START, MUKAI_RANK))

    @property
    def deg4(self) -> ComplexQuad:
        return self._coord(DEG4)

    def coords24(self) -> tuple[ComplexQuad, ...]:
        return tuple(self._coord(i) for i in range(MUKAI_RANK))

    @property
    def field_tag(self) -> int | None:
        return self.d

    def conjugate(self) -> "CohClass":
        ra, rb, ia, ib = self.rows
        return CohClass.from_rows(self.den, self.d, (ra, rb, [-v for v in ia], [-v for v in ib]))

    def real_part(self) -> "CohClass":
        return CohClass.from_rows(self.den, self.d, self.rows[:2] + (_ZERO_ROW, _ZERO_ROW))

    def imag_part(self) -> "CohClass":
        """Im as a real class."""
        return CohClass.from_rows(self.den, self.d, self.rows[2:] + (_ZERO_ROW, _ZERO_ROW))

    def deg2_part(self) -> "CohClass":
        rows = tuple((0, 0) + row[DEG2_START:] for row in self.rows)
        return CohClass.from_rows(self.den, self.d, rows)

    def scale(self, k) -> "CohClass":
        kden, kd, krows = _rows_of((k,))
        d = join_tags(self.d, kd)
        return CohClass.from_rows(self.den * kden, d, _times(self.rows, [r[0] for r in krows], d))


def mukai_pairing(x: CohClass, y: CohClass) -> ComplexQuad:
    """The Mukai pairing <x, y> = x2.y2 - x0*y4 - x4*y0 (symmetric, linear in
    each slot): the 16 integer pairings of the two classes' component rows,
    summed over den * den'.  A member (``GCYClass``) passes its ``.coh``."""
    for v in (x, y):
        if not isinstance(v, CohClass):
            raise ValidationError(
                f"mukai_pairing takes CohClass arguments, got {type(v).__name__}; pass its .coh"
            )
    d = join_tags(x.d, y.d)
    return _complex(_numerators(pairing_block(MUKAI.entries, x.rows, y.rows), d), x.den * y.den, d)


def _real_deg2(vec) -> CohClass:
    """A real degree-2 vector (a b-field or a Kaehler class) as the class (0, vec, 0)."""
    vec = tuple(vec)
    den, d, rows = _rows_of((0, 0) + vec)
    if any(rows[2]) or any(rows[3]):
        raise ValidationError("b-field must be real")
    if len(vec) != DEG2_RANK:
        raise ValidationError(f"degree-2 vectors have {DEG2_RANK} coordinates, got {len(vec)}")
    return CohClass.from_rows(den, d, rows)


def _complexify(re: CohClass, im: CohClass) -> tuple[int, int | None, list[list[int]]]:
    """(den, d, rows) of re + i im for real classes re and im."""
    den = lcm(re.den, im.den)
    fr, fi = den // re.den, den // im.den
    rows = [[f * v for v in row] for f, row in zip((fr, fr, fi, fi), re.rows[:2] + im.rows[:2])]
    return den, join_tags(re.d, im.d), rows


def bfield_transform(b, x: CohClass) -> CohClass:
    """exp(B): (r, D, s) -> (r, D + rB, s + <B,D> + r B^2 / 2).

    B is a real degree-2 vector; the transform preserves the Mukai pairing
    and fixes the degree-0 component, and exp(B) exp(B') = exp(B + B').
    With B over the denominator e, the image is taken over 2 e^2 den.
    """
    bc = _real_deg2(b)
    d = join_tags(x.d, bc.d)
    e = bc.den
    r = [row[DEG0] for row in x.rows]
    rb = _times(bc.rows, r, d)
    # <x, B> and <B, B> share G B; the units commute, so <x, B> has the
    # numerators of <B, x>
    block = pairing_block(MUKAI.entries, x.rows + bc.rows, bc.rows)
    b_x, bsq = _numerators(block[:4], d), _numerators(block[4:], d)
    r_bsq = _times([[v] for v in bsq], r, d)
    rows = []
    for t, (row, rbt) in enumerate(zip(x.rows, rb)):
        out = [2 * e * (e * v + w) for v, w in zip(row, rbt)]
        out[DEG4] += 2 * e * b_x[t] + r_bsq[t][0]
        rows.append(out)
    return CohClass.from_rows(2 * e * e * x.den, d, rows)


def bfield_matrix(b_int) -> IntMat:
    """The 24x24 integer matrix of exp(B) for an integral B (row-vector action).

    Row i is the image of the i-th Mukai basis vector, so a class with
    integer coordinate row x maps to x @ M.  exp(B) is the Eichler
    transvection E(deg4, -B): the degree-4 unit is isotropic and orthogonal
    to degree 2, so the matrix is unimodular.  Coordinates must be ints.
    """
    (b,) = freeze((b_int,))
    if len(b) != DEG2_RANK:
        raise ValidationError(f"b-field must have {DEG2_RANK} integer coordinates")
    return eichler(MUKAI.entries, _DEG4_UNIT, (0, 0) + tuple(-v for v in b))


def gcy_norm(entries, den: int, d: int | None, rows) -> tuple[int, int]:
    """Numerators (a, b) of <phi, conj phi> = (a + b sqrt d) / den^2 for
    phi = sum_t rows[t] c_t / den, after checking <phi, phi> = 0 and
    <phi, conj phi> > 0 as integer identities.

    The Gram matrix is given by its ``gram_entries``; the imaginary part of
    <phi, conj phi> vanishes because the Gram matrix is symmetric.
    """
    block = pairing_block(entries, rows, rows)
    iso = _numerators(block, d)
    if any(iso):
        raise ValidationError(f"not isotropic: <phi,phi> = {shown(_complex(iso, den * den, d))}")
    a, b = _numerators(block, d, conj=True)[:2]
    if quad_sign(a, b, d) <= 0:
        raise ValidationError(f"not positive: <phi,conj phi> = {shown(_quad(a, b, den * den, d))}")
    return a, b


def half_norm_gram(norm: QuadScalar, r: int) -> tuple[tuple[QuadScalar, ...], ...]:
    """(N/2) I of size r for a norm N: the Gram of r real vectors that are
    pairwise orthogonal with square N/2, as Re and Im of a checked class are."""
    half, zero = _quad(norm.p, norm.q, 2 * norm.n, norm.d), _quad(0, 0, 1, None)
    return tuple(tuple(half if i == j else zero for j in range(r)) for i in range(r))


@record
class GCYClass:
    """A generalized Calabi-Yau class.  Building one checks <phi, phi> = 0
    and <phi, conj phi> > 0 and sets the type tag and the norm from coh, so
    no class holds a tag or norm that disagrees with its coh."""

    coh: CohClass
    type_tag: str = derived  # "A" | "B"
    norm: QuadScalar = derived  # <phi, conj phi>, positive

    def __post_init__(self):
        x = self.coh
        norm = _quad(*gcy_norm(MUKAI.entries, x.den, x.d, x.rows), x.den * x.den, x.d)
        object.__setattr__(self, "type_tag", "A" if any(row[DEG0] for row in x.rows) else "B")
        object.__setattr__(self, "norm", norm)

    @cached_property
    def support(self) -> Sublattice:
        """Smallest saturated sublattice of the Mukai lattice containing coh."""
        return support_in(self.coh)


def check_gcy(x: CohClass) -> GCYClass:
    """Validate <x,x> = 0 and <x, conj x> > 0; classify as type A or B."""
    return GCYClass(x)


@record
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
        sig = self.support.signature()
        if sig.n_plus < 2:
            raise ValidationError(
                f"generic support needs at least 2 positive directions, got {sig.n_plus}"
            )
        if self.type_tag == "A" and not any(row[DEG0] for row in self.support.basis):
            raise ValidationError(
                "type A generic support needs a vector with nonzero degree-0 part"
            )


Member = GCYClass | GenericClass


def support_in(x: CohClass) -> Sublattice:
    """Smallest saturated sublattice of the Mukai lattice whose
    complexification contains x.

    The nonzero component rows span it over Q; their integer span is
    saturated, so the rank is at most 4 and can drop when rows are
    dependent.  Echelon rows are independent as they are; only other rows
    take a Hermite pass to drop the dependent ones.
    """
    rows = [row for row in x.rows if any(row)]
    if not _is_echelon(rows, MUKAI_RANK):
        rows = hnf_basis(rows, MUKAI_RANK)
    return saturation(Sublattice(MUKAI, rows))


def support_lattice(x: CohClass | GCYClass) -> Sublattice:
    """Smallest saturated sublattice of the Mukai lattice containing x;
    a GCYClass computes it once and keeps it."""
    if isinstance(x, GCYClass):
        return x.support
    return support_in(x)


@record
class PeriodPlane:
    """The oriented positive 2-plane spanned by Re(x) and Im(x)."""

    re: tuple[QuadScalar, ...]
    im: tuple[QuadScalar, ...]
    gram: tuple[tuple[QuadScalar, ...], ...]


def period_plane(g: GCYClass) -> PeriodPlane:
    """Real and imaginary parts of a generalized Calabi-Yau class with
    their 2x2 Gram matrix, read off the norm without a pairing.  Building
    the class checked <phi, phi> = 0, which gives Re^2 = Im^2 and Re.Im = 0,
    and N = <phi, conj phi> = Re^2 + Im^2 > 0, so the Gram is (N/2) I:
    positive definite for every ``GCYClass``."""
    re, im = g.coh.real_part(), g.coh.imag_part()
    coords = (tuple(c.re for c in v.coords24()) for v in (re, im))
    return PeriodPlane(*coords, half_norm_gram(g.norm, 2))


def exponential_class(b, omega) -> CohClass:
    """exp(B + i omega) = (1, B + i omega, ((B+i omega)^2)/2).

    B and omega are real degree-2 vectors; the result is a valid type A
    generalized Calabi-Yau class exactly when omega^2 > 0.  With
    B + i omega = rows / e, the class is (2e^2, 2e rows, <rows, rows>) / 2e^2.
    """
    e, d, rows = _complexify(_real_deg2(b), _real_deg2(omega))
    sq = _numerators(pairing_block(MUKAI.entries, rows, rows), d)
    rows = [[2 * e * v for v in row] for row in rows]
    rows[0][DEG0] = 2 * e * e
    for row, v in zip(rows, sq):
        row[DEG4] = v
    return CohClass.from_rows(2 * e * e, d, rows)


def two_form_class(re22, im22) -> CohClass:
    """A degree-2 period sigma = Re + i Im."""
    return CohClass.from_rows(*_complexify(_real_deg2(re22), _real_deg2(im22)))


def deg2_vector(assignments: dict[int, object]) -> tuple:
    """A sparse degree-2 coordinate vector from {index: value}; an index is
    an int in 0..21."""
    out = [0] * DEG2_RANK
    for i, v in assignments.items():
        if type(i) is not int or not 0 <= i < DEG2_RANK:
            raise ValidationError(f"degree-2 index must be an int in 0..{DEG2_RANK - 1}, got {i!r}")
        out[i] = v
    return tuple(out)


def type_a_parts(g: GCYClass) -> tuple[CohClass, CohClass]:
    """B and omega of a type A class lambda * exp(B + i omega), as real
    degree-2 classes."""
    if g.type_tag != "A":
        raise ValidationError("decomposition needs a type A class")
    # phi / z = phi conj(z) (n0 - n1 sqrt d) / (n0^2 - d n1^2) for the
    # degree-0 numerators z, with z conj(z) = n0 + n1 sqrt d.  That is
    # totally positive, so its field norm, the new denominator, is > 0.
    x, d = g.coh, g.coh.d
    z = [row[DEG0] for row in x.rows]
    n0, n1 = _numerators([[u * v for v in z] for u in z], d, conj=True)[:2]
    rows = _times(_times(x.rows, (z[0], z[1], -z[2], -z[3]), d), (n0, -n1, 0, 0), d)
    e = CohClass.from_rows(n0 * n0 - (d or 0) * n1 * n1, d, rows).deg2_part()
    return e.real_part(), e.imag_part()
