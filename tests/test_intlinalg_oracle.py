"""Differential tests of gk3.intlinalg against sympy as an independent oracle.

Hypothesis draws small integer matrices; sympy 1.14 computes the same
object by its own algorithms.  Symmetric Grams are drawn to include
degenerate ones and ones with hyperbolic (zero-diagonal) blocks, so the
swap, fold and zero-row branches of ``sym_signature`` all run.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import gcd, log2, prod

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy import QQ, ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

import gk3.intlinalg
from gk3.errors import ValidationError
from gk3.intlinalg import (
    gram_entries,
    gram_rows,
    hnf,
    hnf_basis,
    identity,
    int_kernel,
    matmul,
    pairing_block,
    saturate,
    saturate2,
    snf_divisors,
    sym_signature,
    transpose,
)
from gk3.lattices import IntegralLattice, Sublattice, is_primitive, k3_lattice, saturation
from gk3.mirror import dolgachev_mirror

# a dense even Gram on which a smallest-pivot-and-swap Smith elimination
# never finishes: its clearing passes grow the entries without bound
DENSE_EVEN_GRAM = (
    (2, -5, -4, -5, 0, 2),
    (-5, 8, 2, -3, -3, 5),
    (-4, 2, 6, -2, -6, 5),
    (-5, -3, -2, 2, 0, -5),
    (0, -3, -6, 0, -6, 2),
    (2, 5, 5, -5, 2, -4),
)

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
ENTRY = st.integers(-9, 9)


@st.composite
def int_matrices(draw, square: bool = False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    m = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # a row that depends on the others, so rank deficits are common
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))
        m[draw(st.integers(0, rows - 1))] = [
            sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(cols)
        ]
    return tuple(map(tuple, m))


def _unimodular(draw, n: int):
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 2 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j:
            c = draw(st.integers(-2, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


def _direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(b)] = row
        at += len(b)
    return out


@st.composite
def symmetric_grams(draw):
    """Random, zero-diagonal, hyperbolic-sum and degenerate Grams, each
    optionally hidden by a unimodular congruence."""
    kind = draw(st.sampled_from(("random", "zero_diagonal", "hyperbolic", "degenerate")))
    n = draw(st.integers(1, 6))
    if kind == "degenerate":
        # rank at most r < n: the pull-back of an r-dimensional form
        r = draw(st.integers(0, n - 1))
        a = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(r)]
        s = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                s[i][j] = s[j][i] = draw(ENTRY)
        g = matmul(matmul(transpose(a), s), a) if r else [[0] * n for _ in range(n)]
    else:
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = 0 if (kind != "random" and i == j) else draw(ENTRY)
        if kind == "hyperbolic":
            u_blocks = [[[0, 1], [1, 0]]] * draw(st.integers(1, 2))
            zeros = [[[0]]] * draw(st.integers(0, 2))
            g = _direct_sum(u_blocks + [g] + zeros)
    if draw(st.booleans()):
        u = _unimodular(draw, len(g))
        g = matmul(matmul(u, g), transpose(u))
    return tuple(map(tuple, g))


def _in_integer_span(basis: Matrix, vec: Matrix) -> bool:
    """Each column of vec is an integer combination of the (independent)
    columns of basis: its least-squares coordinates, exact over Q, are
    integers and fit."""
    b, v = (a.to_DM().convert_to(QQ) for a in (basis, vec))
    bt = b.transpose()
    x = (bt * b).inv() * (bt * v)
    return b * x == v and all(c.is_integer for c in x.to_Matrix())


def _q_rank(rows) -> int:
    """Rank over Q by sympy's dense elimination over QQ, which stays fast on
    24-wide integer rows where ``Matrix.rank`` does not."""
    return Matrix(rows).to_DM().convert_to(QQ).rank() if rows else 0


@SETTINGS
@given(int_matrices())
def test_hnf_basis_spans_sympy_row_lattice(m):
    basis = hnf_basis(m)
    ours = Matrix(basis).T if basis else Matrix.zeros(len(m[0]), 0)
    theirs = hermite_normal_form(Matrix(m).T)
    assert ours.shape == theirs.shape
    for k in range(ours.shape[1]):
        assert _in_integer_span(theirs, ours[:, k])
        assert _in_integer_span(ours, theirs[:, k])


@SETTINGS
@given(int_matrices())
def test_hnf_transform_is_unimodular(m):
    h, u = hnf(m)
    assert Matrix(u) * Matrix(m) == Matrix(h)
    assert abs(Matrix(u).det()) == 1
    assert tuple(row for row in h if any(row)) == hnf_basis(m)


@SETTINGS
@given(int_matrices())
@example(  # sympy: 1, 1, 1, 1, 2, 72970
    (
        (-9, -5, -4, -4, 3, -6),
        (-2, 3, -4, 0, 2, 7),
        (-5, 3, -6, 3, 2, -2),
        (-9, -6, -3, 3, -7, -9),
        (9, 2, 2, 3, -6, -5),
        (-4, -3, -3, 5, -2, 7),
    )
)
@example(DENSE_EVEN_GRAM)  # sympy: 1, 1, 1, 1, 1, 229717
def test_snf_divisors_match_sympy(m):
    s = smith_normal_form(Matrix(m), domain=ZZ)
    theirs = [abs(s[i, i]) for i in range(min(s.shape))]
    theirs = sorted(d for d in theirs if d) + [0] * theirs.count(0)
    assert list(snf_divisors(m)) == theirs


@st.composite
def nonsingular_matrices(draw):
    """Dense square matrices, n <= 12, entries -9..9, with det != 0."""
    n = draw(st.integers(1, 12))
    m = tuple(tuple(draw(st.lists(ENTRY, min_size=n, max_size=n))) for _ in range(n))
    assume(Matrix(m).det() != 0)
    return m


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(nonsingular_matrices())
def test_nonsingular_hnf_and_snf_match_sympy(m):
    """sympy's column HNF of the transpose, with rows and columns reversed
    before and after, is the row HNF; its Smith form gives the divisors."""
    theirs = hermite_normal_form(Matrix(m)[::-1, ::-1].T).T[::-1, ::-1]
    assert hnf_basis(m) == tuple(map(tuple, theirs.tolist()))
    s = smith_normal_form(Matrix(m), domain=ZZ)
    assert list(snf_divisors(m)) == sorted(abs(s[i, i]) for i in range(len(m)))
    h, u = hnf(m)
    assert Matrix(u) * Matrix(m) == Matrix(h)
    assert abs(Matrix(u).det()) == 1


@SETTINGS
@given(symmetric_grams())
@example(())
@example(((0, 1), (1, 0)))
@example(((0, 2, 3), (2, 0, 1), (3, 1, 0)))
@example(((0, 0, 1), (0, 0, 0), (1, 0, 0)))
def test_lattice_det_matches_sympy(g):
    """The determinant read off the signature elimination, on random,
    zero-diagonal (the fold path) and degenerate Grams; rank 0 gives 1."""
    assert IntegralLattice(g).det() == Matrix(g).det()


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@SETTINGS
@given(symmetric_grams())
@example(((0, 1), (1, 0)))
@example(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 2)))
@example(((0, 0, 1), (0, 0, 0), (1, 0, 0)))
@example(((0, 2, 3), (2, 0, 1), (3, 1, 0)))
@example(((0, 0), (0, 0)))
def test_signature_matches_descartes_count(g):
    """The characteristic polynomial of a symmetric matrix has only real
    roots, so Descartes' rule of signs counts its positive and negative
    roots exactly."""
    coeffs = [int(c) for c in Matrix(g).charpoly().all_coeffs()]  # x^n first
    n = len(g)
    n_zero = n - max(k for k, c in enumerate(coeffs) if c)
    at_minus_x = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    expected = (_sign_changes(coeffs), _sign_changes(at_minus_x), n_zero)
    assert sym_signature(g).as_tuple() == expected


@SETTINGS
@given(symmetric_grams())
@example(((0, 1, 2, 3, 4), (1, 0, 5, 6, 7), (2, 5, 0, 8, 9), (3, 6, 8, 2, 1), (4, 7, 9, 1, 0)))
@example(((0, 2, 3), (2, 0, 1), (3, 1, 0)))
def test_zero_pivot_is_the_congruence_on_the_full_matrix(g):
    """On a zero leading entry, ``_sym_zero_pivot`` leaves the upper triangle
    of C g C^T: C swaps 0 with the first s of nonzero g[s][s], else adds the
    first row `off` with nonzero g[0][off] to row 0; no C when row 0 is zero."""
    n = len(g)
    g = [list(row) for row in g]
    g[0][0] = 0  # the pivot runs only on a zero leading entry
    t = [row[i:] for i, row in enumerate(g)]
    c = [list(row) for row in identity(n)]
    s = next((j for j in range(1, n) if g[j][j]), None)
    off = next((l for l in range(1, n) if g[0][l]), None)
    if s is not None:
        c[0], c[s] = c[s], c[0]
    elif off is not None:
        c[0][off] = 1
    assert gk3.intlinalg._sym_zero_pivot(t) == (s is not None or off is not None)
    want = matmul(matmul(c, g), transpose(c))
    assert t == [list(row[i:]) for i, row in enumerate(want)]


@st.composite
def grams_with_rows(draw):
    """A symmetric Gram with two lists of rows of its size, each possibly
    empty and with zero rows mixed in."""
    g = draw(symmetric_grams())
    n = len(g)
    row = st.one_of(st.just([0] * n), st.lists(ENTRY, min_size=n, max_size=n))
    return g, draw(st.lists(row, max_size=4)), draw(st.lists(row, max_size=4))


def _rows_matrix(rows, n: int) -> Matrix:
    return Matrix(rows) if rows else Matrix.zeros(0, n)


@SETTINGS
@given(grams_with_rows())
@example((((0, 1), (1, 0)), [], [[1, 2]]))
@example((((0, 1), (1, 0)), [[0, 0], [3, -1]], []))
def test_pairing_block_and_gram_rows_match_sympy(case):
    g, xs, ys = case
    n = len(g)
    entries = gram_entries(g)
    x, y = _rows_matrix(xs, n), _rows_matrix(ys, n)
    assert [list(r) for r in pairing_block(entries, xs, ys)] == (x * Matrix(g) * y.T).tolist()
    assert gram_rows(entries, ys) == (Matrix(g) * y.T).T.tolist()


@st.composite
def squares_with_rows(draw):
    """A square integer matrix, symmetric or not, with rows of its size."""
    g = draw(int_matrices(square=True))
    return g, draw(st.lists(st.lists(ENTRY, min_size=len(g), max_size=len(g)), max_size=4))


@SETTINGS
@given(squares_with_rows())
@example((((0, 1), (0, 0)), [[1, 2]]))  # y G = (0, 1), where G y = (2, 0)
def test_gram_rows_is_the_row_action_of_any_square_matrix(case):
    """y G for every row y, symmetric G or not: the contract by which one
    sparse routine applies an isometry as well as a Gram form."""
    g, ys = case
    assert [tuple(r) for r in gram_rows(gram_entries(g), ys)] == list(matmul(ys, g))


@st.composite
def row_bases(draw):
    """k <= n rows of width n <= 24, sparse or dense, often with a hidden
    common factor or a non-primitive combination, and sometimes dependent."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(1, n))
    entry = st.one_of(st.just(0), ENTRY) if draw(st.booleans()) else ENTRY
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        m[i] = [draw(st.integers(2, 5)) * x for x in m[i]]
    if k > 1 and draw(st.booleans()):
        m[0] = [2 * x + 3 * y for x, y in zip(m[0], m[1])]
    return tuple(map(tuple, m))


def _maximal_minor_gcd(rows) -> int:
    a = Matrix(rows)
    k, n = a.shape
    return gcd(*(int(a[:, list(cols)].det()) for cols in combinations(range(n), k)))


def _column_index(rows) -> int:
    """[Z^k : Γ] for the Z-span Γ of the columns of k independent rows, from
    sympy's Hermite form: the gcd of the maximal minors, without the minors."""
    return abs(int(hermite_normal_form(Matrix(rows)).det()))


@SETTINGS
@given(row_bases())
@example(((0, 0),))
@example(((1, 1), (2, 2)))
@example(((3, 6, 0, 15), (0, 3, 12, -3)))
def test_saturate_and_is_primitive_match_sympy(m):
    n, k = len(m[0]), len(m)
    if _q_rank(m) < k:
        with pytest.raises(ValidationError, match="dependent basis"):
            saturate(m, n)
        return
    sat = saturate(m, n)
    assert len(sat) == k
    basis = Matrix(sat).T
    assert _in_integer_span(basis, Matrix(m).T)
    assert _q_rank(m + sat) == k
    assert _column_index(sat) == 1
    assert hnf_basis(sat) == sat
    # the saturation as the kernel of the kernel
    kernel = int_kernel(m, n)
    assert sat == (int_kernel(kernel, n) if kernel else identity(n))
    s = Sublattice(IntegralLattice(identity(n)), m)
    assert is_primitive(s) == (_column_index(m) == 1) == (hnf_basis(m) == sat)


@SETTINGS
@given(row_bases())
@example(((2, 4, 6),))
@example(((1, 0, 0), (0, 1, 0)))
@example(((3, 6, 0, 15), (0, 3, 12, -3)))
def test_saturation_is_the_dual_column_lattice_times_m(m):
    """Sat(S) = Γ* m for the Z-span Γ of the columns of m: with W a basis of
    Γ (sympy's Hermite form, as columns), the rows of W^-1 m are integral
    and span the saturation, and [Sat(S) : S] = [Z^k : Γ]."""
    k = len(m)
    assume(_q_rank(m) == k)
    w = hermite_normal_form(Matrix(m))
    a = Matrix(m).to_DM().convert_to(QQ)
    z = (w.to_DM().convert_to(QQ).inv() * a).to_Matrix()
    assert all(x.is_integer for x in z)
    sat = saturate(m)
    assert hnf_basis([[int(x) for x in z.row(i)] for i in range(k)]) == sat
    # m = x sat, and |det x| is the index of S in Sat(S)
    b = Matrix(sat).to_DM().convert_to(QQ)
    x = a * b.transpose() * (b * b.transpose()).inv()
    assert abs(x.det()) == abs(w.det())


@st.composite
def row_pairs(draw):
    """Two rows of width 2..24, often sparse, with a common factor in one row
    or both, or a non-primitive combination, and sometimes dependent."""
    n = draw(st.integers(2, 24))
    entry = st.one_of(st.just(0), ENTRY) if draw(st.booleans()) else ENTRY
    x, y = (draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(2))
    for row in (x, y):
        if draw(st.booleans()):
            row[:] = [draw(st.integers(2, 6)) * v for v in row]
    if draw(st.booleans()):
        y = [2 * a + 3 * b for a, b in zip(x, y)]
    if draw(st.integers(0, 4)) == 0:
        y = [draw(st.integers(-3, 3)) * v for v in x]
    return tuple(x), tuple(y)


@SETTINGS
@given(row_pairs())
@example(((0, 0), (1, 2)))
@example(((2, 4), (3, 6)))
@example(((6, 10, 0, 15), (0, 0, 0, 0)))
@example(((4, 6, 0), (2, 0, 4)))
def test_saturate2_matches_saturate(pair):
    """saturate2 spans the lattice saturate computes, and refuses the same
    pairs with the same error."""
    x, y = pair
    n = len(x)
    if Matrix(pair).rank() < 2:
        with pytest.raises(ValidationError) as want:
            saturate(pair, n)
        with pytest.raises(ValidationError) as got:
            saturate2(x, y)
        assert str(got.value) == str(want.value) == "dependent basis"
        return
    v1, v2 = saturate2(x, y)
    assert hnf_basis((v1, v2)) == saturate(pair, n)
    assert gcd(*v1) == 1 and all(a * gcd(*x) == b for a, b in zip(v1, x))


@st.composite
def membership_cases(draw):
    """(m, x): k <= 4 independent rows of width n <= 6 (entries -6..6) and a
    nonzero vector, often an integer combination of the rows divided by 2 or
    3 where that stays integral, so that it lies in the span but perhaps not
    in the lattice."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, min(n, 4)))
    m = tuple(tuple(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))) for _ in range(k))
    assume(Matrix(m).rank() == k)
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        x = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
        q = draw(st.sampled_from((1, 2, 3)))
        if all(v % q == 0 for v in x):
            x = [v // q for v in x]
    else:
        x = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n))
    assume(any(x))
    return m, tuple(x)


@SETTINGS
@given(membership_cases())
@example((((2, 2),), (1, 1)))
@example((((1, 2, 0), (0, 3, 3)), (1, 5, 3)))
@example((((1, 2, 0), (0, 3, 3)), (1, 3, 1)))
def test_contains_matches_minor_gcd_and_rank_oracles(case):
    m, x = case
    k = len(m)
    in_span = Matrix(m + (x,)).rank() == k
    # x = sum c_i m_i over Q; by Cramer, replacing row i by x scales every
    # maximal minor by c_i, so c_i is an integer iff the gcd stays divisible
    g = _maximal_minor_gcd(m)
    in_lattice = in_span and all(
        _maximal_minor_gcd(m[:i] + (x,) + m[i + 1 :]) % g == 0 for i in range(k)
    )
    amb = IntegralLattice(identity(len(x)))
    s, t = Sublattice(amb, m), Sublattice(amb, (x,))
    assert s.contains(t) == in_lattice
    assert Sublattice(amb, hnf_basis(m)).contains(t) == in_lattice  # an echelon basis
    assert saturation(s).contains(t) == in_span


# G v for the two support rows v of exp(B + i omega) in the Mukai lattice,
# with B = ((i % 5) - 2) / (1 + i % 3) on every degree-2 slot i and
# omega = e1 + f1: the condition matrix of a rank-22 complement
RANK22_CONDITIONS = (
    (-4, -18, -123, -150, 18, 0, -12, 18, 36, -12, 33, -84)
    + (66, -6, -6, -12, -60, 75, -36, 9, -18, -30, 42, 27),
    (-5, 0, -2, -2) + (0,) * 20,
)


def dense_rows(seed: int, k: int, n: int = 24) -> tuple:
    """k rows of width n, each entry ``r.randint(-9, 9)`` for
    ``r = random.Random(seed)``, filled row by row: the pinned dense inputs."""
    r = random.Random(seed)
    return tuple(tuple(r.randint(-9, 9) for _ in range(n)) for _ in range(k))


def dense_gram(seed: int, n: int) -> tuple:
    """A dense even symmetric n x n Gram: ``r = random.Random(seed)`` fills
    it row by row over j >= i, each entry ``r.randint(-9, 9)``; on the
    diagonal that draw is replaced by ``2 * r.randint(-4, 4)``."""
    r = random.Random(seed)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = r.randint(-9, 9)
            if i == j:
                v = 2 * r.randint(-4, 4)
            g[i][j] = g[j][i] = v
    return tuple(map(tuple, g))


def _dolgachev_conditions() -> tuple:
    """The 19x22 condition matrix G v of ``mirror dolgachev`` for <2>: the
    K3 Gram applied to the basis of the mirror lattice N, whose complement
    the duality check takes."""
    k3 = k3_lattice()
    n = dolgachev_mirror(Sublattice(k3, ((1, 1) + (0,) * 20,))).n
    return tuple(map(tuple, gram_rows(k3.entries, n.basis)))


DOLGACHEV_CONDITIONS = _dolgachev_conditions()


@st.composite
def kernel_inputs(draw):
    """(m, n): k rows of width n <= 24, k up to n + 2 and so sometimes past
    it, sparse or dense, often with a dependent row, a zero row or zero
    columns; k = 0 leaves the width."""
    n = draw(st.integers(1, 24))
    k = draw(st.integers(0, n + 2))
    entry = st.one_of(st.just(0), ENTRY) if draw(st.booleans()) else ENTRY
    m = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    if k > 1 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        m[draw(st.integers(0, k - 1))] = [
            sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)
        ]
    if k and draw(st.booleans()):
        m[draw(st.integers(0, k - 1))] = [0] * n
    for j in draw(st.sets(st.integers(0, n - 1), max_size=3)):
        for row in m:
            row[j] = 0
    return tuple(map(tuple, m)), n


def _forward_kernel(m, n: int):
    """The kernel read off the HNF transform of m^T in forward coordinate
    order, then HNF-normalized."""
    if not m:
        return identity(n)
    h, u = hnf(transpose(m), len(m))
    kernel = [urow for hrow, urow in zip(h, u) if not any(hrow)]
    return hnf_basis(kernel, n) if kernel else ()


def _is_hnf(rows) -> bool:
    """Nonzero rows whose leading entries are positive, in strictly
    increasing columns, with every entry above a leading entry in [0, it)."""
    leads = [next((j for j, x in enumerate(row) if x), None) for row in rows]
    if None in leads or leads != sorted(set(leads)):
        return False
    return all(
        0 <= rows[i][j] < rows[l][j] for l, j in enumerate(leads) for i in range(l)
    ) and all(row[j] > 0 for row, j in zip(rows, leads))


@SETTINGS
@given(kernel_inputs())
@example(((), 3))
@example((((0, 0, 0), (0, 0, 0)), 3))
@example((((1, 2, 3), (2, 4, 6), (0, 0, 1), (5, 0, 0)), 3))
@example((RANK22_CONDITIONS, 24))
@example((DOLGACHEV_CONDITIONS, 22))
@example((dense_rows(1, 22), 24))
def test_int_kernel_matches_sympy(case):
    """The kernel rows annihilate m, number n - rank m, span a primitive
    lattice (sympy's Hermite form of their columns is I) and are in HNF:
    so they are the one HNF basis of the kernel."""
    m, n = case
    kernel = int_kernel(m, n)
    assert len(kernel) == n - _q_rank(m)
    if m and kernel:
        assert (Matrix(m) * Matrix(kernel).T).is_zero_matrix
    if kernel:
        assert _column_index(kernel) == 1
    assert _is_hnf(kernel)
    assert saturate(kernel, n) == kernel
    assert hnf_basis(kernel, n) == kernel
    assert kernel == _forward_kernel(m, n)


@pytest.mark.parametrize("seed", range(1, 7))
def test_dense_kernel_keeps_its_column_basis_within_the_hadamard_bound(monkeypatch, seed):
    """Every row the kernel sweep keeps for the column lattice has its k
    coordinates reduced at the later pivots, so on dense 22 x 24 inputs they
    stay below the Hadamard bound of m: unreduced, they passed 19,000 bits."""
    m = dense_rows(seed, 22)
    bound = log2(prod(sum(x * x for x in row) for row in m)) / 2
    store, kept = gk3.intlinalg._store, []

    def record(basis, pivots, c, row):
        store(basis, pivots, c, row)
        kept.append(max(map(abs, basis[c][0][: len(basis)])))

    monkeypatch.setattr(gk3.intlinalg, "_store", record)
    assert len(int_kernel(m, 24)) == 2
    assert len(kept) >= 22
    assert max(kept).bit_length() <= bound


@pytest.mark.parametrize("n", [24, 32])
@pytest.mark.parametrize("seed", range(1, 4))
def test_dense_hermite_keeps_its_rows_within_the_hadamard_bound(monkeypatch, seed, n):
    """Every row the Hermite elimination keeps is reduced at the later pivots
    as it is inserted, so on dense Grams it stays below the Hadamard bound
    of the input: stored unreduced and reduced only by the closing pass,
    the rows passed 3,000 bits at n = 24 and 500,000 at n = 32."""
    g = dense_gram(seed, n)
    bound = log2(prod(sum(x * x for x in row) for row in g)) / 2
    store, kept = gk3.intlinalg._store, []

    def record(basis, pivots, c, row):
        store(basis, pivots, c, row)
        kept.append(max(map(abs, basis[c][0])))

    monkeypatch.setattr(gk3.intlinalg, "_store", record)
    assert len(hnf_basis(g)) == n
    assert len(kept) >= n
    assert max(kept).bit_length() <= bound
