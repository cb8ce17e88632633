from __future__ import annotations

import random
from fractions import Fraction

import pytest
from sympy import Matrix

from gk3.errors import ValidationError
from gk3.intlinalg import (
    hnf,
    hnf_basis,
    hnf_coords,
    identity,
    int_kernel,
    matmul,
    q_rank,
    saturate,
    snf_divisors,
    sym_signature,
    transpose,
)
from gk3.lattices import IntegralLattice, Sublattice, saturation
from gk3.mukai import MUKAI_GRAM


def _random_unimodular(rng: random.Random, n: int):
    """Product of random elementary row operations applied to the identity."""
    m = [list(row) for row in identity(n)]
    if n == 1:
        return ((rng.choice([-1, 1]),),)
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        for k in range(n):
            m[i][k] += c * m[j][k]
    return tuple(tuple(row) for row in m)


def test_hnf_worked_example():
    h, u = hnf(((2, 4), (1, 3)))
    assert h == ((1, 1), (0, 2))
    assert matmul(u, ((2, 4), (1, 3))) == h
    assert abs(Matrix(u).det()) == 1


def test_hnf_fixed_points():
    eye = identity(3)
    assert hnf(eye)[0] == eye
    assert hnf(((0, 0),))[0] == ((0, 0),)


def test_hnf_idempotent_on_random_matrices():
    rng = random.Random(7)
    for _ in range(100):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-9, 9) for _ in range(c)) for _ in range(r))
        h1, _ = hnf(m)
        h2, _ = hnf(h1)
        assert h2 == h1


def test_snf_worked_examples():
    assert snf_divisors(((2, 0), (0, 2))) == (2, 2)
    assert snf_divisors(((0, 1), (1, 0))) == (1, 1)
    assert snf_divisors(((2, 1), (1, 2))) == (1, 3)


def test_snf_divisibility_chain_and_det_product():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        divisors = snf_divisors(m)
        nonzero = [x for x in divisors if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        d = Matrix(m).det()
        if d:
            prod = 1
            for x in nonzero:
                prod *= x
            assert prod == abs(d)
        else:
            assert 0 in divisors


def test_kernel_worked_examples():
    assert int_kernel(((1, 1),), 2) == ((1, -1),)
    assert int_kernel(((1, 0), (0, 1)), 2) == ()
    assert int_kernel(((0, 0), (0, 0)), 2) == ((1, 0), (0, 1))


def test_kernel_rows_annihilate_and_are_saturated():
    rng = random.Random(13)
    for _ in range(100):
        r, c = rng.randint(1, 3), rng.randint(2, 5)
        m = tuple(tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r))
        k = int_kernel(m, c)
        for row in k:
            assert all(sum(a * b for a, b in zip(mr, row)) == 0 for mr in m)
        if k:
            assert saturate(k, c) == k
        assert len(k) == c - q_rank(m)


def test_saturate_worked_examples():
    assert saturate(((2, 0), (0, 2)), 2) == ((1, 0), (0, 1))
    assert saturate(((1, 0),), 2) == ((1, 0),)
    assert saturate(((2, 2),), 2) == ((1, 1),)


def test_saturate_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent basis"):
        saturate(((1, 1), (2, 2)), 2)


def test_saturate_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        c = rng.randint(2, 5)
        r = rng.randint(1, c)
        while True:
            m = tuple(tuple(rng.randint(-5, 5) for _ in range(c)) for _ in range(r))
            if q_rank(m) == r:
                break
        s1 = saturate(m, c)
        assert saturate(s1, c) == s1


def test_signature_worked_examples():
    assert sym_signature(((0, 1), (1, 0))).as_tuple() == (1, 1, 0)
    assert sym_signature(((6,),)).as_tuple() == (1, 0, 0)
    assert sym_signature(MUKAI_GRAM).as_tuple() == (4, 20, 0)


def test_signature_rejects_asymmetric_input():
    with pytest.raises(ValueError):
        sym_signature(((0, 1), (2, 0)))


def test_signature_congruence_invariance():
    rng = random.Random(19)
    for _ in range(100):
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        g = tuple(tuple(row) for row in g)
        u = _random_unimodular(rng, n)
        conj = matmul(matmul(u, g), transpose(u))
        assert sym_signature(conj).as_tuple() == sym_signature(g).as_tuple()


def test_counts_sum_to_dimension():
    res = sym_signature(((1, 0, 0), (0, 0, 0), (0, 0, -2)))
    assert res.as_tuple() == (1, 1, 1)
    assert res.n_plus + res.n_minus + res.n_zero == 3


def test_membership_helpers():
    basis, _ = hnf(((2, 0), (0, 3)))
    assert hnf_coords(basis, (4, 3)) == (2, 1)
    assert hnf_coords(basis, (1, 0)) is None
    plane = IntegralLattice(identity(2))
    s = Sublattice(plane, ((2, 2),))
    half = Sublattice(plane, ((1, 1),))
    assert s.contains(Sublattice(plane, ((4, 4),)))
    assert not s.contains(half)
    # membership in the Q-span is membership in the saturation
    assert saturation(s).contains(half)
    assert not saturation(s).contains(Sublattice(plane, ((1, 0),)))


def test_hnf_basis_drops_dependent_rows():
    assert hnf_basis(((1, 1), (2, 2), (0, 1)), 2) == ((1, 0), (0, 1))


@pytest.mark.parametrize("entry", [1.5, 0.9, Fraction(3, 2), True])
@pytest.mark.parametrize(
    "call",
    [hnf, hnf_basis, int_kernel, saturate, sym_signature, lambda m: hnf_coords(m, m[0])],
    ids=["hnf", "hnf_basis", "int_kernel", "saturate", "sym_signature", "hnf_coords"],
)
def test_entry_points_refuse_entries_that_are_not_int(call, entry):
    # int() would truncate: hnf_basis(((1.5, 2), (0.9, 1))) gave the identity
    with pytest.raises(ValidationError, match="matrix entries must be int"):
        call(((entry, 0), (0, 1)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: int_kernel([[1, 2], [1, 2, 3]], 3), "ragged matrix: rows of widths 2, 3"),
        (lambda: int_kernel([[1, 2, 3]], 2), "rows of width 3 where ncols = 2"),
        (lambda: saturate([[2, 4, 6]], 2), "rows of width 3 where ncols = 2"),
        (lambda: saturate([[2, 4], [1, 2, 3]]), "ragged matrix: rows of widths 2, 3"),
        (lambda: hnf_basis([[1, 2], [3]]), "ragged matrix: rows of widths 1, 2"),
        (lambda: hnf_basis([[1, 2]], 3), "rows of width 2 where ncols = 3"),
        (lambda: hnf([[1], [2, 3]]), "ragged matrix: rows of widths 1, 2"),
        (lambda: hnf([[1, 2]], 1), "rows of width 2 where ncols = 1"),
    ],
    ids=[
        "int_kernel-ragged", "int_kernel-width", "saturate-width", "saturate-ragged",
        "hnf_basis-ragged", "hnf_basis-width", "hnf-ragged", "hnf-width",
    ],
)
def test_entry_points_refuse_ragged_rows_and_a_mismatched_width(call, message):
    # int_kernel([[1, 2], [1, 2, 3]], 3) gave the kernel ((2, -1),) of the
    # 2-wide truncation, and hnf_basis([[1, 2], [3]]) an IndexError
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


def test_a_width_given_with_no_rows_is_the_width():
    assert int_kernel((), 2) == identity(2)
    assert saturate((), 3) == ()
    assert hnf_basis((), 4) == ()
