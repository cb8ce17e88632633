"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples of Python ints (rows).  Everything here is
pure and deterministic: the Hermite normal form fixes a unique echelon
representative for every row lattice, kernels and saturations are returned
HNF-normalized, and signatures are computed by fraction-free (Bareiss)
symmetric elimination, whose last pivot is the determinant, so neither
floating point nor ``Fraction`` ever enters.

Conventions:

* ``hnf(m)`` returns ``(h, u)`` with ``h = u @ m``, ``u`` unimodular,
  pivots positive and entries above each pivot reduced modulo the pivot.
* ``int_kernel(m)`` is the right kernel ``{x : m @ x^T = 0}`` returned as
  HNF rows; it is automatically saturated.  It eliminates m^T with its
  rows (the coordinates) in reverse order and reads each kernel row back
  forwards.  Pivots then come from the last coordinates and each kernel
  row leads at its own coordinate, so the closing ``hnf_basis`` reorders
  the rows and reduces above the pivots instead of eliminating again.  A
  pivot search that swaps rows past a zero of m can break that pattern;
  the closing HNF still runs in full, so the result never rests on it.
* ``saturate(m)`` returns the HNF basis of ``(Q-span of rows) ∩ Z^n`` for
  k independent rows.  One elimination U m^T = [H; 0] over the k columns
  of m^T carries ``inv = U^-T`` (each row operation E is applied to it as
  E^-T, O(n) per operation); then m = H^T (U^-T)[:k], and the first k rows
  of U^-T, part of a basis of Z^n, span the saturation.  ``saturate2(x, y)``
  gives a basis of the same lattice for k = 2 in closed form, with no
  elimination.
* ``pairing_block(gram_entries(g), xs, ys)`` is ``xs @ g @ ys^T`` and
  ``gram_rows(gram_entries(g), ys)`` holds ``g @ y`` for each row ``y``:
  the one sparse routine through which every Gram form is applied.
* ``snf_divisors(m)`` returns the ``min(rows, cols)`` Smith divisors
  ``d_1 | d_2 | ...``, positive, zeros last; they come from the same HNF
  elimination, applied alternately to the rows and the columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, lcm
from operator import mul

from .errors import ValidationError

IntMat = tuple[tuple[int, ...], ...]
IntVec = tuple[int, ...]


def freeze(rows) -> IntMat:
    """rows as a tuple of tuples.  An entry whose type is not int (bool,
    float and Fraction included) is refused, never truncated."""
    m = tuple(map(tuple, rows))
    bad = {*map(type, chain.from_iterable(m))} - {int}
    if bad:
        raise ValidationError(f"matrix entries must be int, got {min(t.__name__ for t in bad)}")
    return m


def identity(n: int) -> IntMat:
    zero = (0,) * n
    return tuple(zero[:i] + (1,) + zero[i + 1 :] for i in range(n))


def transpose(m) -> IntMat:
    return tuple(zip(*m)) if m else ()


def matmul(a, b) -> IntMat:
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def gram_entries(gram) -> tuple:
    """The nonzero entries (j, g) of each row of a symmetric Gram matrix."""
    return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in gram)


def gram_rows(entries, ys) -> list[list[int]]:
    """G y for each row y, with the symmetric G given by its ``gram_entries``;
    zero coordinates of y cost nothing."""
    out = []
    for y in ys:
        w = [0] * len(entries)
        for yj, row in zip(y, entries):
            if yj:
                for i, g in row:
                    w[i] += g * yj
        out.append(w)
    return out


def pairing_block(entries, xs, ys) -> IntMat:
    """The block x G y^T for every row x of xs and y of ys, with G given by
    its ``gram_entries``; a zero row on either side costs nothing."""
    live = [k for k, y in enumerate(ys) if any(y)]
    gys = gram_rows(entries, [ys[k] for k in live])
    zero = (0,) * len(ys)
    out = []
    for x in xs:
        if any(x):
            row = [0] * len(ys)
            for k, w in zip(live, gys):
                row[k] = sum(map(mul, x, w))
            out.append(tuple(row))
        else:
            out.append(zero)
    return tuple(out)


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


def _hnf_reduce(rows: list[list[int]], ncols: int | None = None, inv=None) -> int:
    """Row-reduce ``rows`` in place to Hermite normal form in their first
    ``ncols`` columns; any later columns (a transform, say) ride along.
    Returns the number of pivots.

    ``inv``, when given, is a square list of rows, one per row of ``rows``,
    that starts as I: each row operation E on ``rows`` is applied to it as
    E^-T, so it ends as U^-T for the transform U with U @ rows_in = rows_out.
    """
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
            if inv is not None:
                inv[pr], inv[piv] = inv[piv], inv[pr]
        for i in range(pr + 1, n):
            b = rows[i][col]
            if b == 0:
                continue
            a = rows[pr][col]
            if b % a == 0:  # one row operation clears b
                q = b // a
                rows[i] = [y - q * x for x, y in zip(rows[pr], rows[i])]
                if inv is not None:
                    inv[pr] = [x + q * y for x, y in zip(inv[pr], inv[i])]
                continue
            g, s, t = _egcd(a, b)
            p, q = a // g, b // g
            rows[pr], rows[i] = (
                [s * x + t * y for x, y in zip(rows[pr], rows[i])],
                [-q * x + p * y for x, y in zip(rows[pr], rows[i])],
            )
            if inv is not None:  # [[s, t], [-q, p]]^-T = [[p, q], [-t, s]]
                inv[pr], inv[i] = (
                    [p * x + q * y for x, y in zip(inv[pr], inv[i])],
                    [-t * x + s * y for x, y in zip(inv[pr], inv[i])],
                )
        if rows[pr][col] < 0:
            rows[pr] = [-x for x in rows[pr]]
            if inv is not None:
                inv[pr] = [-x for x in inv[pr]]
        a = rows[pr][col]
        for i in range(pr):
            q = rows[i][col] // a
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[pr])]
                if inv is not None:
                    inv[pr] = [y + q * x for x, y in zip(inv[i], inv[pr])]
        pr += 1
        if pr == n:
            break
    return pr


def hnf(m, ncols: int | None = None) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.  The transform is carried as extra columns [m | I].
    """
    rows = list(map(list, freeze(m)))
    n = len(rows)
    width = len(rows[0]) if rows else 0
    for row, e in zip(rows, identity(n)):
        row.extend(e)
    _hnf_reduce(rows, width if ncols is None else ncols)
    return freeze(r[:width] for r in rows), freeze(r[width:] for r in rows)


def hnf_basis(m, ncols: int | None = None) -> IntMat:
    """Nonzero rows of the Hermite normal form (a canonical row-lattice basis),
    from the same elimination as ``hnf`` without the transform."""
    rows = list(map(list, freeze(m)))
    _hnf_reduce(rows, ncols)
    return tuple(tuple(row) for row in rows if any(row))


def int_kernel(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the integer kernel {x in Z^ncols : m @ x^T = 0}."""
    rows = freeze(m)
    if ncols is None:
        if not rows:
            raise ValidationError("kernel of an empty matrix needs an explicit width")
        ncols = len(rows[0])
    if not rows:
        return identity(ncols)
    # reverse coordinate order in, and back out (module docstring)
    h, u = hnf(transpose(rows)[::-1], len(rows))
    ker = [urow[::-1] for hrow, urow in zip(h, u) if not any(hrow)][::-1]
    if not ker:
        return ()
    return hnf_basis(ker, ncols)


def q_rank(m) -> int:
    """Rank over Q of an integer matrix."""
    return len(hnf_basis(m)) if m else 0


def saturate(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the saturation (Q-span of rows) ∩ Z^ncols.

    The rows must be Q-linearly independent.  One elimination of m^T
    carries U^-T, whose first k rows span the saturation (module docstring).
    """
    rows = freeze(m)
    if not rows:
        if ncols is None:
            raise ValidationError("saturation of an empty matrix needs an explicit width")
        return ()
    k = len(rows)
    inv = list(identity(len(rows[0])))  # its rows are replaced, never mutated
    if _hnf_reduce([list(c) for c in zip(*rows)], k, inv) != k:
        raise ValidationError("dependent basis")
    return hnf_basis(inv[:k])


def saturate2(x, y) -> IntMat:
    """A basis (v1, v2) of the saturation of two independent integer vectors,
    in closed form, not in HNF.  v1 = x / content(x) is primitive; with m the
    gcd of the 2x2 minors of (v1, y), which is 0 exactly for a dependent pair,
    and c a Bezout vector of v1 (c.v1 = 1), v2 = (y - (c.y) v1) / m."""
    m = 0
    for i, (xi, yi) in enumerate(zip(x, y)):
        for xj, yj in zip(x[i + 1 :], y[i + 1 :]):
            m = gcd(m, xi * yj - xj * yi)
    if not m:
        raise ValidationError("dependent basis")
    # c, one coordinate at a time: c.x = g = content(x) on the coordinates
    # so far, so c.v1 = 1 at the end; only t = c.y is kept
    g = t = 0
    for xj, yj in zip(x, y):
        g, s, r = _egcd(g, xj)
        t = s * t + r * yj
    m //= g  # the minors of (x, y) are content(x) times those of (v1, y)
    v1 = tuple(v // g for v in x)
    return v1, tuple((b - t * a) // m for a, b in zip(v1, y))


def snf_divisors(m) -> tuple[int, ...]:
    """Smith normal form elementary divisors d_1 | d_2 | ... (zeros last).

    The list has min(rows, cols) entries; zeros account for rank deficit.
    The matrix is brought to diagonal form by alternating row Hermite forms
    of it and of its transpose (Kannan and Bachem, 1979), and the diagonal
    is then normalized into a divisibility chain.
    """
    size = min(len(m), len(m[0])) if m else 0
    a = hnf_basis(m)
    # Terminates: each pass makes the leading pivot the gcd of the previous
    # leading row, so it never grows, and it stays put only when it divides
    # that row, in which case the pass clears its row and column for good;
    # the same then holds for the trailing block.
    while any(x for i, row in enumerate(a) for j, x in enumerate(row) if j != i):
        a = hnf_basis(transpose(a))
    divs = [a[i][i] for i in range(len(a))] + [0] * (size - len(a))
    # normalize the divisibility chain (gcd up, lcm down)
    for i in range(len(divs)):
        for j in range(i + 1, len(divs)):
            x, y = divs[i], divs[j]
            g = gcd(x, y)
            l = lcm(x, y) if g else 0
            divs[i], divs[j] = g, l
    nonzero = sorted(d for d in divs if d)
    return tuple(nonzero) + (0,) * (len(divs) - len(nonzero))


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
    g = freeze(g)
    if not is_symmetric(g):
        raise ValidationError("matrix not symmetric")
    return _sym_signature(g)[0]


def _sym_signature(g) -> tuple[SymDiagResult, int]:
    """``sym_signature`` of a symmetric Gram with ``int`` entries, and its
    determinant: the last fraction-free pivot is det g (Bareiss, Math. Comp.
    22, 1968), since each swap and fold is a congruence by a matrix of
    determinant +-1.  It is 0 when a zero direction was dropped, 1 for rank 0.
    """
    t = [list(row[i:]) for i, row in enumerate(g)]
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
    return SymDiagResult(n_plus, n_minus, n_zero), 0 if n_zero else prev


def hnf_coords(basis_hnf, x) -> IntVec | None:
    """Integer coordinates of x in echelon rows (strictly increasing leading
    columns, as in an HNF basis), or None when x is outside their row lattice."""
    rem = list(freeze((x,))[0])
    coords = []
    for row in basis_hnf:
        piv = next(j for j, v in enumerate(row) if v)
        q, r = divmod(rem[piv], row[piv])
        if r:
            return None
        coords.append(q)
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return None if any(rem) else tuple(coords)

