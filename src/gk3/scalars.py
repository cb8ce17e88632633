"""Exact scalars: rationals and elements of a real quadratic field Q(sqrt d).

A ``QuadScalar`` is (p + q*sqrt(d)) / n in the normal form n > 0,
gcd(p, q, n) = 1, with a squarefree integer tag d >= 2, None exactly
when q = 0 (the form of class rows, ``mukai``); a = p/n and b = q/n are
Fractions built when read.  A ``ComplexQuad`` is built from two of them;
``ComplexQuad(x)`` takes an int, Fraction or QuadScalar as a real value,
and returns an equal value for a ComplexQuad x.
They are the parse, print and result types, and keep only the ring
operations (integer arithmetic, then one gcd), exact sign and equality.
Division in Q(sqrt d) runs only on class rows (``mukai.type_a_parts``).
Rational values carry no tag and combine with anything; combining two
different tags is an error, so a computation never mixes sqrt(2) with
sqrt(3).  A tag is validated once, where a value is built from outside;
arithmetic results inherit the tag of their operands.

The sign of p + q*sqrt(d) is decided exactly by case analysis on the
signs of p and q, falling back to comparing p^2 against d*q^2 when they
disagree; no floating point is involved anywhere.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

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


def _parts(x):
    """(p, q, n, d) of a QuadScalar, int or Fraction; None for anything else."""
    if isinstance(x, QuadScalar):
        return x.p, x.q, x.n, x.d
    if isinstance(x, (int, Fraction)):
        return x.numerator, 0, x.denominator, None
    return None


class QuadScalar:
    """An exact element (p + q*sqrt(d)) / n of Q or of a real quadratic field."""

    __slots__ = ("p", "q", "n", "d")

    def __init__(self, a=0, b=0, d: int | None = None):
        for x in (a, b):
            if not isinstance(x, (int, Fraction)):  # a float or a string is not exact
                raise ValidationError(f"cannot interpret {x!r} as an exact scalar")
        if b == 0:
            d = None  # a rational value lives in every field
        elif d is None:
            raise ValidationError("irrational part requires a square-root tag d")
        else:
            check_field_tag(d)
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        _fill(self, an * bd, bn * ad, ad * bd, d)

    @classmethod
    def from_ints(cls, p: int, q: int, n: int, d: int | None) -> QuadScalar:
        """(p + q*sqrt(d)) / n for integers, n > 0, and a tag validated before."""
        return _fill(object.__new__(cls), p, q, n, d)

    @classmethod
    def tagged(cls, a, b, d: int | None) -> QuadScalar:
        """a + b*sqrt(d) for ints or Fractions a, b and a validated tag d."""
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        return cls.from_ints(an * bd, bn * ad, ad * bd, d)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("QuadScalar is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.n)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.n)

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    @property
    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic: integer operations, then one gcd ----------------------

    def _sum(self, other, s: int):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        m = self.n
        return QuadScalar.from_ints(
            self.p * n + s * p * m, self.q * n + s * q * m, m * n, join_tags(self.d, d)
        )

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return QuadScalar.from_ints(-self.p, -self.q, self.n, self.d)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, n, d = o
        d = join_tags(self.d, d)
        p1, q1 = self.p, self.q
        return QuadScalar.from_ints(p1 * p + (d or 0) * q1 * q, p1 * q + q1 * p, self.n * n, d)

    __rmul__ = __mul__

    # -- exact ordering --------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.p, self.q, self.d)  # n > 0

    def __eq__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return (self.p, self.q, self.n, self.d) == o  # both in normal form

    def __hash__(self):  # a rational hashes as the equal int or Fraction
        return hash((self.p, self.q, self.n, self.d)) if self.q else hash(self.a)

    # -- conversions -----------------------------------------------------

    def __repr__(self) -> str:
        if not self.q:
            return f"QuadScalar({self.a})"
        return f"QuadScalar({self.a}, {self.b}, d={self.d})"

    def __str__(self) -> str:
        if not self.q:
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


# slot setters that pass the immutability guard, for values being built
_SETTERS = tuple(vars(QuadScalar)[s].__set__ for s in QuadScalar.__slots__)


def _fill(x: QuadScalar, p: int, q: int, n: int, d: int | None) -> QuadScalar:
    """Store (p + q*sqrt(d)) / n, n > 0, in x in normal form."""
    g = gcd(p, q, n)
    for put, v in zip(_SETTERS, (p // g, q // g, n // g, d if q else None)):
        put(x, v)
    return x


def as_quad(x) -> QuadScalar:
    """Coerce an int, Fraction or QuadScalar to a QuadScalar."""
    o = _parts(x)
    if o is None:
        raise ValidationError(f"cannot interpret {x!r} as an exact scalar")
    return x if isinstance(x, QuadScalar) else QuadScalar.from_ints(*o)


class ComplexQuad:
    """A complex number whose real and imaginary parts are QuadScalars."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, ComplexQuad) and as_quad(im).is_zero:
            re, im = re.re, re.im
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


def shown(x) -> str:
    """str(x) for an error message.  When a part of x has more digits than
    Python converts to text (``sys.get_int_max_str_digits``), the size of
    its largest part in bits instead, read without converting."""
    reals = (x.re, x.im) if isinstance(x, ComplexQuad) else (as_quad(x),)
    largest = max(abs(f) for r in reals for v in (r.a, r.b) for f in (v.numerator, v.denominator))
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and largest >= 10**limit:
        return f"<a {largest.bit_length()}-bit value, over the {limit}-digit print limit>"
    return str(x)
