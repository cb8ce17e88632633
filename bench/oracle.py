"""Independent reference arithmetic for the benchmark's correctness checks.

Everything here is plain Python integers and ``fractions.Fraction``; no
gk3 code is called, so a check built from these functions does not
depend on the layers being measured.  The lattice conventions (basis
order, E8 labelling) are restated here and compared once per run against
the library's constants by ``check_conventions``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

# E8 Dynkin diagram: chain 0-1-2-3-4-5-6 with node 7 attached to node 2.
_E8_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7))


def _k3_gram() -> tuple[tuple[int, ...], ...]:
    g = [[0] * 22 for _ in range(22)]
    for i in (0, 2, 4):
        g[i][i + 1] = g[i + 1][i] = 1
    for off in (6, 14):
        for i in range(8):
            g[off + i][off + i] = -2
        for a, b in _E8_EDGES:
            g[off + a][off + b] = g[off + b][off + a] = 1
    return tuple(map(tuple, g))


K3_GRAM = _k3_gram()
# Mukai layout: index 0 = degree 0, index 1 = degree 4, then the 22 degree-2 slots.
MUKAI_GRAM = tuple(
    tuple(
        -1 if {i, j} == {0, 1} else (K3_GRAM[i - 2][j - 2] if i >= 2 and j >= 2 else 0)
        for j in range(24)
    )
    for i in range(24)
)


def check_conventions(k3_gram, mukai_gram) -> None:
    """Raise when the library's ambient Grams differ from the ones restated here."""
    if tuple(map(tuple, k3_gram)) != K3_GRAM:
        raise AssertionError("library K3 Gram differs from the reference")
    if tuple(map(tuple, mukai_gram)) != MUKAI_GRAM:
        raise AssertionError("library Mukai Gram differs from the reference")


_NONZERO = {
    id(g): [[(j, v) for j, v in enumerate(row) if v] for row in g] for g in (K3_GRAM, MUKAI_GRAM)
}


def pair(gram, x, y):
    """x^T gram y for gram K3_GRAM or MUKAI_GRAM (exact for int and Fraction entries)."""
    total = 0
    for i, xi in enumerate(x):
        if xi:
            for j, g in _NONZERO[id(gram)][i]:
                if y[j]:
                    total += xi * g * y[j]
    return total


def clear_denominators(vec) -> list[int]:
    den = 1
    for v in vec:
        den = den * Fraction(v).denominator // gcd(den, Fraction(v).denominator)
    ints = [int(Fraction(v) * den) for v in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints] if g > 1 else ints


def _minor_gcd(u, v) -> int:
    g = 0
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(g, u[i] * v[j] - u[j] * v[i])
    return g


def rank2_saturation(u, v) -> tuple[list[int], list[int]]:
    """A basis of (Q u + Q v) ∩ Z^n for independent integer vectors u, v.

    With w1 = u / content(u), the saturation is Z w1 + Z (v + j w1) / m,
    where m is the gcd of the 2x2 minors of (w1, v) and j is the unique
    residue mod m that makes the second vector integral.
    """
    c = 0
    for x in u:
        c = gcd(c, x)
    w1 = [x // c for x in u]
    m = _minor_gcd(w1, v)
    if m == 0:
        raise AssertionError("vectors are dependent")
    for j in range(m):
        if all((y + j * x) % m == 0 for x, y in zip(w1, v)):
            return w1, [(y + j * x) // m for x, y in zip(w1, v)]
    raise AssertionError("no integral lift found")  # impossible for integer input


def reduce2(a: int, b: int, c: int) -> tuple[int, int, int]:
    """GL2(Z)-reduced form of a positive definite [[a, b], [b, c]]: 0 <= 2b <= a <= c."""
    if a <= 0 or a * c - b * b <= 0:
        raise AssertionError(f"form {(a, b, c)} is not positive definite")
    while True:
        k = (2 * b + a) // (2 * a)  # nearest integer to b / a, ties rounded up
        b, c = b - k * a, c - 2 * k * b + k * k * a
        if a > c:
            a, c = c, a
            continue
        return a, abs(b), c


def is_reduced_even_pd(form) -> bool:
    (a, b), (b2, c) = form
    return b == b2 and a % 2 == 0 and c % 2 == 0 and 0 <= 2 * b <= a <= c and a * c - b * b > 0


def reduced_forms(max_det: int) -> list:
    """Every even reduced positive definite form with determinant <= max_det, sorted."""
    out = []
    top = isqrt(4 * max_det // 3) + 1
    for a in range(2, top + 1, 2):
        for b in range(0, a // 2 + 1):
            for c in range(a, max_det + b * b + 1, 2):
                if a * c - b * b > max_det:
                    break
                if is_reduced_even_pd(((a, b), (b, c))):
                    out.append(((a, b), (b, c)))
    return sorted(out)


def det(m) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def exp_class_components(bfield, omega0, kappa_d: int | None):
    """Rational component vectors of exp(B + i kappa omega0) in Mukai coordinates.

    B and omega0 are rational degree-2 vectors and kappa is 1 (kappa_d None)
    or sqrt(kappa_d).  The real part is (1, B, (B^2 - kappa^2 omega0^2) / 2)
    and the imaginary part is kappa (0, omega0, B.omega0); both are rational
    vectors up to the factor kappa, which does not change their span.
    Returns (re, im, omega_sq) with omega_sq = kappa^2 omega0^2.
    """
    k2 = 1 if kappa_d is None else kappa_d
    bsq = pair(K3_GRAM, bfield, bfield)
    wsq = k2 * pair(K3_GRAM, omega0, omega0)
    bw = pair(K3_GRAM, bfield, omega0)
    # Mukai layout: (deg0, deg4, deg2...)
    re = [Fraction(1), (Fraction(bsq) - wsq) / 2] + [Fraction(x) for x in bfield]
    im = [Fraction(0), Fraction(bw)] + [Fraction(x) for x in omega0]
    return re, im, Fraction(wsq)


def exp_class_invariant(bfield, omega0, kappa_d: int | None):
    """Reduced Gram of the saturated support of exp(B + i kappa omega0).

    Returns (form, re, im, omega_sq) with re and im the primitive integer
    vectors along the two components that span the support.
    """
    re, im, omega_sq = exp_class_components(bfield, omega0, kappa_d)
    re, im = clear_denominators(re), clear_denominators(im)
    w1, w2 = rank2_saturation(re, im)
    a, b, c = reduce2(pair(MUKAI_GRAM, w1, w1), pair(MUKAI_GRAM, w1, w2), pair(MUKAI_GRAM, w2, w2))
    return ((a, b), (b, c)), re, im, omega_sq
