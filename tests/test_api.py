from __future__ import annotations

from types import ModuleType

import gk3


def test_all_lists_each_public_name_once():
    assert len(gk3.__all__) == len(set(gk3.__all__))
    assert [name for name in gk3.__all__ if not hasattr(gk3, name)] == []
    # every name the package imports is exported, so a removed one cannot linger
    imported = {
        name
        for name, value in vars(gk3).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert imported == set(gk3.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from gk3 import *", namespace)
    assert set(gk3.__all__) <= set(namespace)
