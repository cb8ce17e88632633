"""Differential tests of gk3.intlinalg against sympy as an independent oracle.

Hypothesis draws small integer matrices; sympy 1.14 computes the same
object by its own algorithms.  Symmetric Grams are drawn to include
degenerate ones and ones with hyperbolic (zero-diagonal) blocks, so the
swap, fold and zero-row branches of ``sym_signature`` all run.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix, eye
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from gk3.errors import ValidationError
from gk3.intlinalg import (
    _hnf_reduce,
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
from gk3.lattices import IntegralLattice, Sublattice, is_primitive, saturation

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
    """vec is an integer combination of the (independent) columns of basis."""
    try:
        sol, params = basis.gauss_jordan_solve(vec)
    except ValueError:
        return False
    assert params.shape[0] == 0
    return all(x.is_integer for x in sol)


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


@SETTINGS
@given(int_matrices())
@example(((1, 0, 0), (0, 1, 0)))
@example(((2, 4, 6),))
def test_carried_inverse_is_the_inverse_transpose(m):
    rows = [list(r) + [int(i == j) for j in range(len(m))] for i, r in enumerate(m)]
    inv = list(identity(len(m)))
    pivots = _hnf_reduce(rows, len(m[0]), inv)
    u = Matrix([r[len(m[0]) :] for r in rows])
    assert pivots == Matrix(m).rank()
    assert u.T * Matrix(inv) == eye(len(m))


@st.composite
def row_bases(draw):
    """k <= n rows of width n, often with a hidden common factor or a
    non-primitive combination, and sometimes dependent."""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n))
    m = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(k)]
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


@SETTINGS
@given(row_bases())
@example(((0, 0),))
@example(((1, 1), (2, 2)))
@example(((3, 6, 0, 15), (0, 3, 12, -3)))
def test_saturate_and_is_primitive_match_sympy(m):
    n, k = len(m[0]), len(m)
    if Matrix(m).rank() < k:
        with pytest.raises(ValidationError, match="dependent basis"):
            saturate(m, n)
        return
    sat = saturate(m, n)
    assert len(sat) == k
    basis = Matrix(sat).T
    assert all(_in_integer_span(basis, Matrix(row)) for row in m)
    assert Matrix(m + sat).rank() == k
    assert _maximal_minor_gcd(sat) == 1
    assert hnf_basis(sat) == sat
    # the saturation as the kernel of the kernel, the route it replaces
    kernel = int_kernel(m, n)
    assert sat == (int_kernel(kernel, n) if kernel else identity(n))
    s = Sublattice(IntegralLattice(identity(n)), m)
    assert is_primitive(s) == (_maximal_minor_gcd(m) == 1) == (hnf_basis(m) == sat)


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


@st.composite
def kernel_inputs(draw):
    """(m, n): k <= 6 rows of width n <= 9, often with a dependent row, a
    zero row or zero columns; k > n happens, and k = 0 leaves the width."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(0, 6))
    m = [draw(st.lists(ENTRY, min_size=n, max_size=n)) for _ in range(k)]
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


@SETTINGS
@given(kernel_inputs())
@example(((), 3))
@example((((0, 0, 0), (0, 0, 0)), 3))
@example((((1, 2, 3), (2, 4, 6), (0, 0, 1), (5, 0, 0)), 3))
@example((RANK22_CONDITIONS, 24))
def test_int_kernel_matches_sympy(case):
    m, n = case
    kernel = int_kernel(m, n)
    assert len(kernel) == n - (Matrix(m).rank() if m else 0)
    if m and kernel:
        assert (Matrix(m) * Matrix(kernel).T).is_zero_matrix
    assert saturate(kernel, n) == kernel
    assert hnf_basis(kernel, n) == kernel
    assert kernel == _forward_kernel(m, n)
