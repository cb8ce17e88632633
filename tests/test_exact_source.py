"""README promises no floating point anywhere in gk3; this scans the source
for the ways a float gets in: a float literal, true division, a float()
call and the math functions that return floats.  A second scan keeps
``dataclasses`` out of gk3: it imports ``inspect``, and every command pays
for both at start-up (``gk3.records`` makes the value types instead)."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gk3"
EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}  # int in, int out


def _float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        at = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"{at}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"{at}: true division")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"{at}: float()")  # isinstance(x, float) names float without calling it
        elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
            found += [f"{at}: {node.module}.{a.name}" for a in node.names if a.name not in EXACT_MATH]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("math", "cmath")
            and node.attr not in EXACT_MATH
        ):
            found.append(f"{at}: {node.value.id}.{node.attr}")
    return found


def test_the_scan_finds_each_float_source():
    source = "\n".join(
        [
            "x = 0.5",
            "y = 1j",
            "z = a / b",
            "z /= 2",
            "w = float(v)",
            "from math import sqrt, isqrt, log",
            "r = math.log2(n) + cmath.sqrt(n)",
            "ok = isinstance(v, float) or a // b or math.isqrt(n)",
        ]
    )
    assert sorted(_float_uses(source)) == [
        "line 1: literal 0.5",
        "line 2: literal 1j",
        "line 3: true division",
        "line 4: true division",
        "line 5: float()",
        "line 6: math.log",
        "line 6: math.sqrt",
        "line 7: cmath.sqrt",
        "line 7: math.log2",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_has_no_floating_point(path):
    assert _float_uses(path.read_text()) == []


def _dataclasses_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"line {node.lineno}: {n}" for n in names if n.partition(".")[0] == "dataclasses"]
    return found


def test_the_scan_finds_each_dataclasses_import():
    source = "\n".join(
        [
            "import dataclasses",
            "from dataclasses import dataclass, field",
            "import json, dataclasses as dc",
            "from .records import record",
            "x = 'dataclasses'",
        ]
    )
    assert _dataclasses_imports(source) == [
        "line 1: dataclasses",
        "line 2: dataclasses",
        "line 3: dataclasses",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_imports_no_dataclasses(path):
    assert _dataclasses_imports(path.read_text()) == []
