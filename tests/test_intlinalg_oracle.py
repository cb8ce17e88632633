"""Differential tests of gk3.intlinalg against sympy as an independent oracle.

Hypothesis draws small integer matrices; sympy 1.14 computes the same
object by its own algorithms.  Symmetric Grams are drawn to include
degenerate ones and ones with hyperbolic (zero-diagonal) blocks, so the
swap, fold and zero-row branches of ``sym_signature`` all run.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from sympy import ZZ, Matrix
from sympy.matrices.normalforms import hermite_normal_form, smith_normal_form

from gk3.intlinalg import det, hnf, hnf_basis, matmul, snf_divisors, sym_signature, transpose

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
def test_snf_divisors_match_sympy(m):
    s = smith_normal_form(Matrix(m), domain=ZZ)
    theirs = [abs(s[i, i]) for i in range(min(s.shape))]
    theirs = sorted(d for d in theirs if d) + [0] * theirs.count(0)
    assert list(snf_divisors(m)) == theirs


@SETTINGS
@given(int_matrices(square=True))
def test_det_matches_sympy(m):
    assert det(m) == Matrix(m).det()


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
