"""An independent reference for Q(sqrt d)(i), for the test oracles.

A ``Ref`` holds the Fraction coefficients of 1, sqrt(d), i and i sqrt(d)
with the tag d, None when both sqrt(d) coefficients vanish.  It reads
library scalars through their public attributes only (``.a``, ``.b``,
``.d``, ``.re``, ``.im``) and never calls their arithmetic, so an oracle
built on it checks gk3 against a second implementation.  A ``Ref``
compares equal to an int, Fraction, ``QuadScalar`` or ``ComplexQuad`` of
the same value.
"""

from __future__ import annotations

from fractions import Fraction

from gk3.scalars import ComplexQuad, QuadScalar


def _join(d1, d2):
    if d1 is not None and d2 is not None and d1 != d2:
        raise ValueError(f"reference values on sqrt({d1}) and sqrt({d2})")
    return d1 if d1 is not None else d2


def _real_mul(x, y, d):
    """(a + b sqrt d)(a' + b' sqrt d) on coefficient pairs."""
    (a, b), (a2, b2) = x, y
    return a * a2 + (d or 0) * b * b2, a * b2 + b * a2


class Ref:
    __slots__ = ("c", "d")
    __hash__ = None

    def __init__(self, c=(0, 0, 0, 0), d: int | None = None):
        self.c = tuple(Fraction(v) for v in c)
        if (self.c[1] or self.c[3]) and d is None:
            raise ValueError("a sqrt(d) coefficient needs a tag d")
        self.d = d if self.c[1] or self.c[3] else None

    @classmethod
    def of(cls, x) -> Ref:
        """The value of a Ref, an int, a Fraction, a QuadScalar or a ComplexQuad."""
        if isinstance(x, Ref):
            return x
        if isinstance(x, ComplexQuad):
            re, im = x.re, x.im
            return cls((re.a, re.b, im.a, im.b), _join(re.d, im.d))
        if isinstance(x, QuadScalar):
            return cls((x.a, x.b, 0, 0), x.d)
        if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
            return cls((x, 0, 0, 0))
        raise TypeError(f"no reference value for {x!r}")

    @property
    def re(self) -> Ref:
        return Ref(self.c[:2] + (0, 0), self.d)

    @property
    def im(self) -> Ref:
        return Ref(self.c[2:] + (0, 0), self.d)

    @property
    def is_zero(self) -> bool:
        return not any(self.c)

    def conj(self) -> Ref:
        c0, c1, c2, c3 = self.c
        return Ref((c0, c1, -c2, -c3), self.d)

    def __neg__(self) -> Ref:
        return Ref([-v for v in self.c], self.d)

    def __add__(self, other) -> Ref:
        o = Ref.of(other)
        return Ref([u + v for u, v in zip(self.c, o.c)], _join(self.d, o.d))

    __radd__ = __add__

    def __sub__(self, other) -> Ref:
        return self + -Ref.of(other)

    def __mul__(self, other) -> Ref:
        o = Ref.of(other)
        d = _join(self.d, o.d)
        xr, xi, yr, yi = self.c[:2], self.c[2:], o.c[:2], o.c[2:]
        rr, ii = _real_mul(xr, yr, d), _real_mul(xi, yi, d)
        ri, ir = _real_mul(xr, yi, d), _real_mul(xi, yr, d)
        return Ref((rr[0] - ii[0], rr[1] - ii[1], ri[0] + ir[0], ri[1] + ir[1]), d)

    __rmul__ = __mul__

    def inverse(self) -> Ref:
        """1/x = conj(x) (n0 - n1 sqrt d) / (n0^2 - d n1^2) for
        x conj(x) = n0 + n1 sqrt d."""
        n0, n1 = (self * self.conj()).c[:2]
        m = n0 * n0 - (self.d or 0) * n1 * n1
        return self.conj() * Ref((n0 / m, -n1 / m, 0, 0), self.d)

    def __eq__(self, other):
        try:
            o = Ref.of(other)
        except TypeError:
            return NotImplemented
        return (self.c, self.d) == (o.c, o.d)

    def quad(self) -> QuadScalar:
        """This real value as a QuadScalar."""
        if not self.im.is_zero:
            raise ValueError(f"{self!r} is not real")
        return QuadScalar(self.c[0], self.c[1], self.d)

    def cplx(self) -> ComplexQuad:
        return ComplexQuad(self.re.quad(), self.im.quad())

    def __str__(self) -> str:
        return str(self.cplx())

    def __repr__(self) -> str:
        return f"Ref({[str(v) for v in self.c]}, d={self.d})"
