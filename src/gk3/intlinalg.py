"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples of Python ints (rows).  Everything here is
pure and deterministic: the Hermite normal form fixes a unique echelon
representative for every row lattice, kernels and saturations are returned
HNF-normalized, and signatures are computed by fraction-free (Bareiss)
symmetric elimination, whose last pivot is the determinant, so neither
floating point nor ``Fraction`` ever enters.

Conventions:

* One row insertion does every Hermite elimination: ``_insert`` clears
  each row's leading entry by a multiple of the basis row at that column,
  or by one extended-gcd step that also replaces it, and keeps the row at
  an empty column.  ``_store`` reduces each kept row at the later pivots,
  which bounds the entries (Kannan and Bachem, SIAM J. Comput. 8, 1979);
  the filled pivots are kept in a list, so empty columns cost nothing.
  ``_hermite`` inserts all rows and reduces every kept row once more at
  the end, for ``hnf``, ``hnf_basis`` and ``saturate`` (so ``q_rank`` and
  ``snf_divisors``); ``int_kernel`` inserts its columns one at a time.
* ``hnf(m)`` returns ``(h, u)`` with ``h = u @ m``, ``u`` unimodular,
  pivots positive and entries above each pivot reduced modulo the pivot.
  It, ``hnf_basis``, ``int_kernel`` and ``saturate`` refuse ragged rows
  and a row width other than the ``ncols`` they are given.
* ``int_kernel(m)`` is the right kernel ``{x : m @ x^T = 0}`` returned as
  HNF rows; it is automatically saturated.  One sweep over the columns M_j
  of the k x n matrix, right to left, keeps the echelon basis (in k
  coordinates) of the Z-span of the columns passed, each basis row
  carrying its integer combination of those columns.  A column outside
  their Q-span is a non-pivot of the kernel and is inserted.  Otherwise
  d_j, the least positive integer with d_j M_j in that span, gives the
  kernel row d_j e_j - (the combination), and M_j is inserted when
  d_j > 1.  The pivots are exactly the columns
  where the rank of the trailing block does not rise, so these rows are
  the HNF of the kernel once a closing pass reduces every row at the
  pivots with d_j > 1; at the other pivots no combination has an entry.
* ``saturate(m)`` returns the HNF basis of ``(Q-span of rows) ∩ Z^n`` for
  k independent rows: Sat(S) = Γ* m, with Γ the Z-span of the columns of m
  in Z^k.  So with C the HNF of the nonzero columns, z = C^-T m comes by
  forward substitution with exact division, and the HNF of z closes.
  ``saturate2(x, y)`` gives a basis of the same lattice for k = 2 in
  closed form, with no elimination; ``minors_gcd(x, y)`` is the index of
  the span in it.
* ``pairing_block(gram_entries(g), xs, ys)`` is ``xs @ g @ ys^T`` and
  ``gram_rows(gram_entries(g), ys)`` holds ``y @ g`` for each row ``y``, for
  any square g (``g @ y`` when g is symmetric): the one sparse routine
  through which every Gram form and every integral isometry is applied.
  ``eichler(entries, e, a)`` is the matrix of an Eichler transvection.
* ``snf_divisors(m)`` returns the ``min(rows, cols)`` Smith divisors
  ``d_1 | d_2 | ...``, positive, zeros last; they come from the same
  elimination, applied alternately to the rows and the columns.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, combinations
from math import gcd, lcm
from operator import mul

from .errors import ValidationError
from .records import record

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
    """The nonzero entries (j, g) of each row of a matrix.  For a square G
    (a Gram matrix or an isometry) they are what ``gram_rows`` takes to give
    y G for any square G, G y when G is symmetric."""
    return tuple(tuple((j, g) for j, g in enumerate(row) if g) for row in gram)


def gram_rows(entries, ys) -> list[list[int]]:
    """y G for each row y, with the square G given by its ``gram_entries``
    (G y when G is symmetric); zero coordinates of y cost nothing."""
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


def eichler(entries, e, a) -> IntMat:
    """The row-action matrix of the Eichler transvection E(e, a)x = x - <a,x>e
    + <e,x>a - (<a,a>/2)<e,x>e, an integral isometry for an isotropic e and an
    a orthogonal to e under the Gram with these ``gram_entries`` (Gritsenko,
    Hulek and Sankaran, J. Algebra 322, 2009, section 3).  Row i is
    b_i + <e,b_i>(a - (<a,a>/2)e) - <a,b_i>e, so only the rows and columns
    that e and a touch are written."""
    ge, ga = gram_rows(entries, (e, a))
    aa = sum(map(mul, a, ga))
    if sum(map(mul, e, ge)) or sum(map(mul, a, ge)) or aa % 2:
        raise ValidationError("E(e, a) needs <e,e> = <e,a> = 0 and <a,a> even")
    half = aa // 2
    v, ve = gram_entries(([x - half * y for x, y in zip(a, e)], e))  # nonzero entries
    out = []
    for i, (s, t) in enumerate(zip(ge, ga)):
        row = [0] * len(e)
        row[i] = 1
        for j, x in v if s else ():
            row[j] += s * x
        for j, x in ve if t else ():
            row[j] -= t * x
        out.append(tuple(row))
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


def _checked(m, ncols: int | None = None) -> tuple[IntMat, int | None]:
    """``freeze(m)`` and its row width (``ncols`` when m has no rows).
    Ragged rows, or a width other than ``ncols``, are refused by name."""
    rows = freeze(m)
    widths = sorted({*map(len, rows)})
    if len(widths) > 1:
        raise ValidationError(f"ragged matrix: rows of widths {', '.join(map(str, widths))}")
    if widths and ncols is not None and widths[0] != ncols:
        raise ValidationError(f"rows of width {widths[0]} where ncols = {ncols}")
    return rows, widths[0] if widths else ncols


def hnf(m, ncols: int | None = None) -> tuple[IntMat, IntMat]:
    """Row-style Hermite normal form.

    Returns (h, u) with h = u @ m, u unimodular.  Pivots are positive,
    entries above a pivot are reduced into [0, pivot), zero rows sink to
    the bottom.  The transform is carried as extra columns [m | I]; the rows
    of u under the zero rows of h span its left kernel.
    """
    rows, width = _checked(m, ncols)
    width = width or 0
    kept, zero = _hermite([row + e for row, e in zip(rows, identity(len(rows)))], width)
    rows = kept + zero
    return tuple(tuple(r[:width]) for r in rows), tuple(tuple(r[width:]) for r in rows)


def hnf_basis(m, ncols: int | None = None) -> IntMat:
    """Nonzero rows of the Hermite normal form (a canonical row-lattice basis),
    from the same elimination as ``hnf`` without the transform."""
    rows, width = _checked(m, ncols)
    return tuple(map(tuple, _hermite(rows, width or 0)[0]))


def _store(basis: list, pivots: list, c: int, row) -> None:
    """Keep ``row`` as the basis row at pivot c, its entries at the later
    pivots reduced; ``pivots`` lists the filled slots, ascending, so the
    empty ones cost nothing.  The row's combination's nonzero (column,
    coefficient) pairs are read into the second slot on first use
    (``int_kernel``)."""
    i = bisect_right(pivots, c)
    for l in pivots[i:]:
        b = basis[l][0]
        q = row[l] // b[l]
        if q:
            row = [y - q * z for y, z in zip(row, b)]
    if basis[c] is None:
        pivots.insert(i, c)
    basis[c] = [row, None]


def _insert(basis: list, pivots: list, rows) -> list:
    """Add each row to the echelon basis with one slot per leading column,
    ``len(basis)`` of them, the filled ones listed in ``pivots``; any later
    entries of a row ride along.  Returns what is left of the rows that
    come to zero in those columns."""
    zero = []
    for w in rows:
        for c in range(len(basis)):
            x = w[c]
            if not x:
                continue
            b = basis[c]
            if b is None:
                _store(basis, pivots, c, w if x > 0 else [-y for y in w])
                break
            b = b[0]
            a = b[c]
            if x % a == 0:
                q = x // a
                w = [y - q * z for y, z in zip(w, b)]
            else:
                g, s, t = _egcd(a, x)
                p, q = a // g, x // g
                _store(basis, pivots, c, [s * y + t * z for y, z in zip(b, w)])
                w = [p * z - q * y for y, z in zip(b, w)]
        else:
            zero.append(w)
    return zero


def _hermite(rows, width: int) -> tuple[list, list]:
    """Row-style Hermite elimination of ``rows`` in their first ``width``
    columns, any later ones riding along: the rows go into the echelon
    basis (``_insert``), and a closing pass reduces every kept row at the
    later pivots.  Returns the kept rows in pivot order, which are the HNF,
    and what is left of the rows that came to zero."""
    basis, pivots = [None] * width, []
    zero = _insert(basis, pivots, rows)
    for c in reversed(pivots):
        _store(basis, pivots, c, basis[c][0])
    return [basis[c][0] for c in pivots], zero


def int_kernel(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the integer kernel {x in Z^ncols : m @ x^T = 0}, from
    one right-to-left sweep over the columns (module docstring)."""
    rows, n = _checked(m, ncols)
    if n is None:
        raise ValidationError("kernel of an empty matrix needs an explicit width")
    if not rows:
        return identity(n)
    k = len(rows)
    basis, pivots = [None] * k, []
    ker, lifted = {}, []  # kernel rows by leading column, n - 1 down to 0
    for j in range(n - 1, -1, -1):
        # the least d with d M_j in the span, and the basis rows it takes
        w = [row[j] for row in rows]
        d, coef = 1, []
        for c in range(k):
            x = w[c]
            if not x:
                continue
            b = basis[c]
            if b is None:  # outside the Q-span: j is no pivot
                break
            b = b[0]
            a = b[c]
            f = a // gcd(a, x)
            if f > 1:
                d *= f
                x *= f
                w = [f * y for y in w]
                coef = [(l, f * q) for l, q in coef]
            q = x // a
            coef.append((c, q))
            w = [y - q * z for y, z in zip(w, b)]
        else:
            row = [0] * n
            row[j] = d
            for c, q in coef:
                b = basis[c]
                if b[1] is None:
                    b[1] = [(i, y) for i, y in enumerate(b[0][k:]) if y]
                for i, y in b[1]:
                    row[i] -= q * y
            ker[j] = row
            if d == 1:
                continue
            lifted.append((j, d))
        w = [row[j] for row in rows] + [0] * n
        w[k + j] = 1
        _insert(basis, pivots, (w,))
    for c, d in reversed(lifted):
        nz = [(l, y) for l, y in enumerate(ker[c]) if y]
        for j, row in ker.items():
            q = row[c] // d if j < c else 0
            if q:
                for l, y in nz:
                    row[l] -= q * y
    return tuple(map(tuple, reversed(ker.values())))


def q_rank(m) -> int:
    """Rank over Q of an integer matrix."""
    return len(hnf_basis(m)) if m else 0


def saturate(m, ncols: int | None = None) -> IntMat:
    """HNF basis of the saturation (Q-span of rows) ∩ Z^ncols.

    The rows must be Q-linearly independent.  The saturation is Γ* m, Γ
    the Z-span of the columns of m (module docstring).
    """
    rows, n = _checked(m, ncols)
    if n is None:
        raise ValidationError("saturation of an empty matrix needs an explicit width")
    k = len(rows)
    c = _hermite([col for col in zip(*rows) if any(col)], k)[0]
    if len(c) != k:
        raise ValidationError("dependent basis")
    # C^T z = m, C^T lower triangular, solved row by row
    z = []
    for i, row in enumerate(rows):
        for l in range(i):
            t = c[l][i]
            if t:
                row = [y - t * x for y, x in zip(row, z[l])]
        p = c[i][i]
        z.append([y // p for y in row] if p != 1 else row)
    return tuple(map(tuple, _hermite(z, n)[0]))


def minors_gcd(x, y) -> int:
    """The gcd of the 2x2 minors of (x, y): the index of span(x, y) in its
    saturation for an independent pair, 0 exactly for a dependent one."""
    return gcd(*[a * d - b * c for (a, c), (b, d) in combinations(zip(x, y), 2)])


def saturate2(x, y) -> IntMat:
    """A basis (v1, v2) of the saturation of two independent integer vectors,
    in closed form, not in HNF.  v1 = x / content(x) is primitive; with m the
    ``minors_gcd`` of (v1, y) and c a Bezout vector of v1 (c.v1 = 1),
    v2 = (y - (c.y) v1) / m."""
    m = minors_gcd(x, y)
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


@record
class SymDiagResult:
    """Counts of positive, negative and zero diagonal entries after a
    rational congruence diagonalization of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int

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
        # swap rows and columns 0 and `swap` in place on the triangle: only
        # entries in row 0, column `swap` and row `swap` move; (0, swap) stays
        t0, ts = t[0], t[swap]
        t0[0], ts[0] = ts[0], t0[0]
        for j in range(1, swap):
            t0[j], t[j][swap - j] = t[j][swap - j], t0[j]
        for l in range(swap + 1, m):
            t0[l], ts[l - swap] = ts[l - swap], t0[l]
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
    piv = 0
    for row in basis_hnf:
        while not row[piv]:  # leading columns increase: scan on from the last one
            piv += 1
        q, r = divmod(rem[piv], row[piv])
        if r:
            return None
        coords.append(q)
        if q:
            rem = [a - q * b for a, b in zip(rem, row)]
    return None if any(rem) else tuple(coords)

