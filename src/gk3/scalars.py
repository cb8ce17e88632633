"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt d).

A ``QuadScalar`` is a + b*sqrt(d) with rational a, b and a squarefree
integer tag d >= 2; a ``ComplexQuad`` is built from two of them.  They are
the parse, print and result types, and keep only the ring operations
(sum, difference, product), exact sign and equality.  Classes are
integer rows (``mukai``), and every division in Q(sqrt d) happens there,
on the rows: dividing by z multiplies by conj(z) and the Galois conjugate
of z conj(z), which leaves a positive integer denominator.
Rational values carry no tag and combine with anything; combining two
different tags is an error, so a computation never mixes sqrt(2) with
sqrt(3).  A tag is validated once, where a value is built from outside;
arithmetic results inherit the tag of their operands.

The sign of a + b*sqrt(d) is decided exactly by case analysis on the
signs of a and b, falling back to comparing a^2 against d*b^2 when they
disagree; no floating point is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError


def is_squarefree(n: int) -> bool:
    """True when no square > 1 divides n (n >= 1)."""
    if n < 1:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


# Largest accepted field tag d.  The squarefree test is trial division up
# to sqrt(d), so the bound keeps one tag check to at most 1,000 divisions.
MAX_FIELD_TAG = 10**6


def check_field_tag(d: int) -> int:
    if not isinstance(d, int) or isinstance(d, bool) or d < 2:
        raise ValidationError(f"field tag must be a squarefree integer >= 2, got {d!r}")
    if d > MAX_FIELD_TAG:
        raise ValidationError(f"field tag {d} is above the limit MAX_FIELD_TAG = {MAX_FIELD_TAG}")
    if not is_squarefree(d):
        raise ValidationError(f"field tag must be a squarefree integer >= 2, got {d!r}")
    return d


def join_tags(d1: int | None, d2: int | None) -> int | None:
    """The common tag of two values; None stands for a rational value."""
    if d1 is not None and d2 is not None and d1 != d2:
        raise ValidationError(f"cannot mix sqrt({d1}) and sqrt({d2}) values")
    return d1 if d1 is not None else d2


def quad_sign(a, b, d: int | None) -> int:
    """Exact sign in {-1, 0, 1} of a + b*sqrt(d) for rational or integer
    a, b, decided by comparisons only."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # a and b have opposite signs; a^2 = d b^2 cannot happen since
    # sqrt(d) is irrational, so the comparison below is never a tie.
    if (a * a > d * b * b) == (a > 0):
        return 1
    return -1


class QuadScalar:
    """An exact element a + b*sqrt(d) of Q or of a real quadratic field."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int | None = None):
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b == 0:
            d = None  # a rational value lives in every field
        elif d is None:
            raise ValidationError("irrational part requires a square-root tag d")
        else:
            check_field_tag(d)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def tagged(cls, a: Fraction, b: Fraction, d: int | None) -> QuadScalar:
        """a + b*sqrt(d) for Fractions a, b and a tag d that was validated
        before, as another value's tag or by ``check_field_tag``."""
        q = object.__new__(cls)
        object.__setattr__(q, "a", a)
        object.__setattr__(q, "b", b)
        object.__setattr__(q, "d", d if b else None)
        return q

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuadScalar is immutable")

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- coercion and field-tag bookkeeping ------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, QuadScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return QuadScalar(x)
        return None

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadScalar.tagged(self.a + other.a, self.b + other.b, join_tags(self.d, other.d))

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar.tagged(-self.a, -self.b, self.d)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return QuadScalar.tagged(self.a - other.a, self.b - other.b, join_tags(self.d, other.d))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = join_tags(self.d, other.d)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QuadScalar.tagged(a1 * a2 + (d or 0) * b1 * b2, a1 * b2 + b1 * a2, d)

    __rmul__ = __mul__

    # -- exact ordering --------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.d)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.b != 0 and other.b != 0 and self.d != other.d:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    # -- conversions -----------------------------------------------------

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadScalar({self.a})"
        return f"QuadScalar({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"sqrt({self.d})"
        if self.b == 1:
            irr = root
        elif self.b == -1:
            irr = f"-{root}"
        else:
            irr = f"{self.b}*{root}"
        if self.a == 0:
            return irr
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {irr.lstrip('-')}"


def as_quad(x) -> QuadScalar:
    """Coerce an int, Fraction or QuadScalar to a QuadScalar."""
    q = QuadScalar._coerce(x)
    if q is None:
        raise ValidationError(f"cannot interpret {x!r} as an exact scalar")
    return q


class ComplexQuad:
    """A complex number whose real and imaginary parts are QuadScalars."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_quad(re))
        object.__setattr__(self, "im", as_quad(im))

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ComplexQuad is immutable")

    @property
    def is_zero(self) -> bool:
        return self.re.is_zero and self.im.is_zero

    @property
    def is_real(self) -> bool:
        return self.im.is_zero

    def __bool__(self) -> bool:
        return not self.is_zero

    @staticmethod
    def _coerce(x):
        if isinstance(x, ComplexQuad):
            return x
        if isinstance(x, (int, Fraction, QuadScalar)):
            return ComplexQuad(x)
        return None

    def conjugate(self) -> ComplexQuad:
        return ComplexQuad(self.re, -self.im)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ComplexQuad(self.re + other.re, self.im + other.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return ComplexQuad(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"ComplexQuad({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        if self.im.is_zero:
            return str(self.re)
        if self.re.is_zero:
            return f"({self.im})*i"
        return f"({self.re}) + ({self.im})*i"


CQ_ZERO = ComplexQuad(0)


def as_complex(x) -> ComplexQuad:
    """Coerce an int, Fraction, QuadScalar or ComplexQuad to a ComplexQuad."""
    z = ComplexQuad._coerce(x)
    if z is None:
        raise ValidationError(f"cannot interpret {x!r} as an exact complex scalar")
    return z
