from __future__ import annotations

import pytest

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
