from __future__ import annotations

import pytest

import gk3.intlinalg
import gk3.lattices
import gk3.rigidity
from gk3.lattices import Sublattice


@pytest.fixture
def ortho_complement_calls(monkeypatch) -> list:
    """Count orthogonal complement computations: wraps the function behind
    ``Sublattice._complement``, so reads of a kept complement do not count;
    the returned list grows by one per computation."""
    prop = Sublattice.__dict__["_complement"]
    compute = prop.func
    calls = []
    monkeypatch.setattr(prop, "func", lambda s: calls.append(1) or compute(s))
    return calls


@pytest.fixture
def hnf_passes(monkeypatch) -> list:
    """Record each Hermite elimination: wraps ``intlinalg._hermite``, the one
    row insertion that every HNF, saturation and primitivity test runs (a
    kernel runs none: ``int_kernel`` inserts its columns one at a time into
    the same echelon basis, with no pass of its own).  The returned list
    grows by ``(rows, width)`` per pass, the width counting any columns that
    ride along, so ``len`` counts the passes."""
    hermite = gk3.intlinalg._hermite
    shapes = []

    def record(rows, width):
        shapes.append((len(rows), len(rows[0]) if rows else 0))
        return hermite(rows, width)

    monkeypatch.setattr(gk3.intlinalg, "_hermite", record)
    return shapes


@pytest.fixture
def grid_invariants(monkeypatch) -> list:
    """Record each invariant a survey computes: wraps
    ``rigidity._grid_invariant``, which ``kahler_rigid_survey`` calls once
    per grid point it does not skip; the returned list grows by
    ``(k, a, b, p, q, denom)`` per call, and keyword arguments such as
    ``max_det`` are passed through unrecorded."""
    grid_invariant = gk3.rigidity._grid_invariant
    points = []

    def record(sc, *point, **kw):
        points.append(point)
        return grid_invariant(sc, *point, **kw)

    monkeypatch.setattr(gk3.rigidity, "_grid_invariant", record)
    return points


@pytest.fixture
def signature_sizes(monkeypatch) -> list:
    """Record the size of each signature elimination: wraps
    ``lattices._sym_signature``, which every lattice's and sublattice's
    ``signature()`` runs when it eliminates; the returned list grows by
    ``len(gram)`` per call."""
    sym_signature = gk3.lattices._sym_signature
    sizes = []
    monkeypatch.setattr(
        gk3.lattices, "_sym_signature", lambda g: sizes.append(len(g)) or sym_signature(g)
    )
    return sizes


@pytest.fixture
def snf_sizes(monkeypatch) -> list:
    """Record the size of each Smith reduction behind a discriminant: wraps
    ``lattices.snf_divisors``; the returned list grows by ``len(gram)`` per
    call."""
    snf_divisors = gk3.lattices.snf_divisors
    sizes = []
    monkeypatch.setattr(
        gk3.lattices, "snf_divisors", lambda g: sizes.append(len(g)) or snf_divisors(g)
    )
    return sizes


@pytest.fixture
def hnf_coords_reads(monkeypatch) -> list:
    """Record each coordinate read behind a containment: wraps the binding of
    ``intlinalg.hnf_coords`` in ``lattices``, through which
    ``Sublattice.contains`` reads every row it tests; the returned list grows
    by the rank of the basis read in, once per row."""
    hnf_coords = gk3.lattices.hnf_coords
    ranks = []
    monkeypatch.setattr(
        gk3.lattices,
        "hnf_coords",
        lambda basis, x: ranks.append(len(basis)) or hnf_coords(basis, x),
    )
    return ranks
