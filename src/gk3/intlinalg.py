"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples of Python ints (rows).  Everything here is
pure and deterministic: the Hermite normal form fixes a unique echelon
representative for every row lattice, kernels and saturations are returned
HNF-normalized, and signatures are computed by fraction-free (Bareiss)
symmetric elimination, so neither floating point nor ``Fraction`` ever
enters.

Conventions:

* ``hnf(m)`` returns ``(h, u)`` with ``h = u @ m``, ``u`` unimodular,
  pivots positive and entries above each pivot reduced modulo the pivot.
* ``int_kernel(m)`` is the right kernel ``{x : m @ x^T = 0}`` returned as
  HNF rows; it is automatically saturated.
* ``saturate(m)`` returns the HNF basis of ``(Q-span of rows) ∩ Z^n``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import ValidationError

IntMat = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]


def freeze(rows) -> IntMat:
    return tuple(tuple(int(x) for x in row) for row in rows)


def identity(n: int) -> IntMat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def transpose(m) -> IntMat:
    return tuple(zip(*m)) if m else ()


def matmul(a, b) -> IntMat:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def matvec(m, v) -> IntVec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def is_symmetric(m) -> bool:
    n = len(m)
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i)
    )


def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hnf_reduce(rows: list[list[int]], ncols: int | None = None) -> None:
    """Row-reduce ``rows`` in place to Hermite normal form in their first
    ``ncols`` columns; any later columns (a transform, say) ride along."""
    n = len(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pr = 0
    for col in range(ncols):
        piv = None
        for i in range(pr, n):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        if piv != pr:
            rows[pr], rows[piv] = rows[piv], rows[pr]
        for i in range(pr + 1, n):
            b = rows[i][col]
            if b == 0:
                continue
            a = rows[pr][col]
            if b % a == 0:  # one row operation clears b
                q = b // a
                rows[i] = [y - q * x for x, y in zip(rows[pr], rows[i])]
                continue
            g, s, t = _egcd(a, b)
            p, q = a // g, b // g
            rows[pr], rows[i] = (
                [s * x + t * y for x, y in zip(rows[pr], rows[i])],
                [-q * x + p * y for x, y in zip(rows[pr], rows[i])],
            )
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
        a = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // a
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
        pr += 1
        if pr == n:
            break


def hnf(m, ncols: int | None = None) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.  The transform is carried as extra columns [m | I].
    """
    rows = [list(map(int, r)) for r in m]
    n = len(rows)
    width = len(rows[0]) if rows else 0
    for i, row in enumerate(rows):
        row.extend(int(i == j) for j in range(n))
    _hnf_reduce(rows, width if ncols is None else ncols)
    return freeze(r[:width] for r in rows), freeze(r[width:] for r in rows)


def hnf_basis(m, ncols: int | None = None) -> IntMat:
    """Nonzero rows of the Hermite normal form (a canonical row-lattice basis),
    from the same elimination as ``hnf`` without the transform."""
    rows = [list(map(int, r)) for r in m]
    _hnf_reduce(rows, ncols)
    return tuple(tuple(row) for row in rows if any(row))


def int_kernel(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the integer kernel {x in Z^ncols : m @ x^T = 0}."""
    rows = [tuple(map(int, r)) for r in m]
    if ncols is None:
        if not rows:
            raise ValidationError("kernel of an empty matrix needs an explicit width")
        ncols = len(rows[0])
    if not rows:
        return identity(ncols)
    h, u = hnf(transpose(rows), len(rows))
    ker = [urow for hrow, urow in zip(h, u) if not any(hrow)]
    if not ker:
        return ()
    return hnf_basis(ker, ncols)


def q_rank(m) -> int:
    """Rank over Q of an integer matrix."""
    return len(hnf_basis(m)) if m else 0


def saturate(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the saturation (Q-span of rows) ∩ Z^ncols.

    The rows must be Q-linearly independent.
    """
    rows = [tuple(map(int, r)) for r in m]
    if ncols is None:
        if not rows:
            raise ValidationError("saturation of an empty matrix needs an explicit width")
        ncols = len(rows[0])
    if not rows:
        return ()
    if q_rank(rows) != len(rows):
        raise ValidationError("dependent basis")
    ker = int_kernel(rows, ncols)
    if not ker:
        return identity(ncols)
    return int_kernel(ker, ncols)


def snf_divisors(m) -> tuple[int, ...]:
    """Smith normal form elementary divisors d_1 | d_2 | ... (zeros last).

    The list has min(rows, cols) entries; zeros account for rank deficit.
    """
    a = [list(map(int, r)) for r in m]
    n = len(a)
    c = len(a[0]) if a else 0
    size = min(n, c)
    t = 0
    while t < size:
        piv = None
        for i in range(t, n):
            for j in range(t, c):
                v = a[i][j]
                if v != 0 and (piv is None or abs(v) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            a[t], a[i0] = a[i0], a[t]
        if j0 != t:
            for row in a:
                row[t], row[j0] = row[j0], row[t]
        while True:
            changed = False
            for i in range(t + 1, n):
                q = a[i][t] // a[t][t]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                if a[i][t] != 0:
                    a[t], a[i] = a[i], a[t]
                    changed = True
            for j in range(t + 1, c):
                q = a[t][j] // a[t][t]
                if q:
                    for row in a:
                        row[j] -= q * row[t]
                if a[t][j] != 0:
                    for row in a:
                        row[t], row[j] = row[j], row[t]
                    changed = True
            if not changed:
                break
        # pivot must divide every remaining entry; if not, fold the bad row in
        piv_val = a[t][t]
        bad = None
        for i in range(t + 1, n):
            for j in range(t + 1, c):
                if a[i][j] % piv_val:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        t += 1
    divs = [abs(a[i][i]) if i < t else 0 for i in range(size)]
    # normalize the divisibility chain (gcd up, lcm down)
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            x, y = divs[i], divs[j]
            g = gcd(x, y)
            l = lcm(x, y) if g else 0
            divs[i], divs[j] = g, l
    nonzero = sorted(d for d in divs if d)
    return tuple(nonzero) + (0,) * (len(divs) - len(nonzero))


def det(m) -> int:
    """Signed determinant of a square integer matrix (Bareiss, exact)."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValidationError("determinant needs a square matrix")
    if n == 0:
        return 1
    a = [list(map(int, r)) for r in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    swap = i
                    break
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SymDiagResult:
    """Counts of positive, negative and zero diagonal entries after a
    rational congruence diagonalization of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

    @property
    def rank(self) -> int:
        return self.n_plus + self.n_minus

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def _sym_zero_pivot(t: list[list[int]]) -> bool:
    """Make the leading diagonal entry of a symmetric block nonzero by a
    congruence; False when its whole row is zero.

    ``t`` holds the upper triangle, ``t[j][l - j]`` being entry ``(j, l)``.
    """
    m = len(t)
    swap = next((j for j in range(1, m) if t[j][0]), None)
    if swap is not None:
        a = [[t[min(j, l)][abs(l - j)] for l in range(m)] for j in range(m)]
        a[0], a[swap] = a[swap], a[0]
        for row in a:
            row[0], row[swap] = row[swap], row[0]
        t[:] = [row[j:] for j, row in enumerate(a)]
        return True
    off = next((l for l in range(1, m) if t[0][l]), None)
    if off is None:
        return False
    # fold row/column `off` into 0; with a zero diagonal the new leading
    # entry is 2*a[0][off] != 0
    t[0][0] = 2 * t[0][off]
    for l in range(1, m):
        t[0][l] += t[min(off, l)][abs(l - off)]
    return True


def sym_signature(g) -> SymDiagResult:
    """Signature of a symmetric integer matrix via exact congruence.

    Fraction-free symmetric (Bareiss) elimination over Z on the upper
    triangle of the trailing block.  With pivot ``p`` and previous pivot
    ``prev`` each step sets ``a[j][l] = (a[j][l]*p - a[j][0]*a[0][l]) // prev``,
    which always divides exactly; the rational pivot is ``p / prev``, so its
    sign is ``sign(p) * sign(prev)``.  A zero pivot is resolved by a
    symmetric swap with a later nonzero diagonal entry or, when the trailing
    diagonal is all zero, by folding a partner row/column in, which is the
    standard split of a hyperbolic 2x2 block.  Both are congruences of the
    trailing block alone, so exact division still holds.
    """
    if not is_symmetric(g):
        raise ValidationError("matrix not symmetric")
    t = [[int(x) for x in row[i:]] for i, row in enumerate(g)]
    n_plus = n_minus = n_zero = 0
    prev = 1
    while t:
        if t[0][0] == 0 and not _sym_zero_pivot(t):
            n_zero += 1
            del t[0]
            continue
        top = t.pop(0)
        p = top[0]
        if (p > 0) == (prev > 0):
            n_plus += 1
        else:
            n_minus += 1
        for j, row in enumerate(t, 1):
            c = top[j]
            t[j - 1] = [(x * p - c * y) // prev for x, y in zip(row, top[j:])]
        prev = p
    return SymDiagResult(n_plus, n_minus, n_zero)


@lru_cache(maxsize=None)
def cached_signature(gram: IntMat) -> SymDiagResult:
    return sym_signature(gram)


def in_row_lattice(basis_hnf, x) -> bool:
    """Membership of an integer vector in the row lattice spanned by an
    HNF basis (independent echelon rows with positive pivots)."""
    rem = list(map(int, x))
    for row in basis_hnf:
        piv = next((j for j, v in enumerate(row) if v), None)
        if piv is None:
            continue
        q, r = divmod(rem[piv], row[piv])
        if r:
            return False
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return not any(rem)


def in_q_span(rows, x) -> bool:
    """Membership of an integer vector in the Q-span of integer rows."""
    base = [tuple(map(int, r)) for r in rows]
    if not any(x):
        return True
    if not base:
        return False
    return q_rank(base) == q_rank(base + [tuple(map(int, x))])


def clear_denominators(vec) -> IntVec:
    """Scale a rational vector by the lcm of denominators to an integer one."""
    scale = lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (scale // v.denominator) for v in vec)
