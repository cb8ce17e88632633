from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import gk3

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_each_public_name_once():
    assert len(gk3.__all__) == len(set(gk3.__all__))
    assert [name for name in gk3.__all__ if not hasattr(gk3, name)] == []
    # the package binds no public name itself: each export is looked up in
    # its home module, so a name removed there cannot linger as an export
    bound = {
        name
        for name, value in vars(gk3).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert bound == set()


def test_each_export_is_its_home_module_object():
    wrong = []
    for name in gk3.__all__:
        home = importlib.import_module(f"gk3.{gk3._HOME[name]}")
        value = getattr(gk3, name)
        if value is not vars(home).get(name):
            wrong.append(name)
        elif callable(value) and value.__module__ != home.__name__:
            wrong.append(name)  # imported there, not defined there
    assert wrong == []


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'gk3' has no attribute 'induced_lattice'"):
        gk3.induced_lattice


def test_dir_lists_the_exports():
    assert dir(gk3) == sorted(gk3.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from gk3 import *", namespace)
    namespace.pop("__builtins__")
    assert namespace == {name: getattr(gk3, name) for name in gk3.__all__}


def test_import_gk3_loads_no_submodule():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, gk3; print(*sorted(m for m in sys.modules if m.startswith('gk3')))",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["gk3"]
