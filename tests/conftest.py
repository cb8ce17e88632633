from __future__ import annotations

import sys

import pytest


@pytest.fixture
def ortho_complement_calls(monkeypatch) -> list:
    """Count calls of ``ortho_complement`` through its binding in every loaded
    gk3 module; the returned list grows by one per call."""
    import gk3.cli  # noqa: F401  (loads every module that binds it)

    calls = []
    for name, module in list(sys.modules.items()):
        f = getattr(module, "ortho_complement", None) if name.split(".")[0] == "gk3" else None
        if f is not None:
            monkeypatch.setattr(module, "ortho_complement", lambda s, f=f: calls.append(1) or f(s))
    return calls
