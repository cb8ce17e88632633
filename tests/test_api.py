from __future__ import annotations

import importlib
import os
import subprocess
import sys
from fractions import Fraction
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
    # induced_lattice, PiSpace and the second names of CohClass,
    # type_a_parts and ComplexQuad were removed
    for name in ("induced_lattice", "coh_class", "decompose_type_a", "as_complex", "PiSpace"):
        with pytest.raises(AttributeError, match=f"module 'gk3' has no attribute '{name}'"):
            getattr(gk3, name)


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


_H = (1, 1) + (0,) * 20  # e1 + f1, the default positive plane's first vector


@pytest.mark.parametrize(
    "call",
    [
        lambda: gk3.diag_lattice([2.5, -2]),
        lambda: gk3.diag_lattice([Fraction(5, 2)]),
        lambda: gk3.diag_lattice([True]),
        lambda: gk3.bfield_matrix([0.5] + [0] * 21),
        lambda: gk3.bfield_matrix([1.9] + [0] * 21),
        lambda: gk3.transform_pair([1.9] + [0] * 21, gk3.build_si_mirror(1)[0].member),
        lambda: gk3.build_si_mirror(1.5),
        lambda: gk3.build_si_mirror(True),
        lambda: gk3.SurveyConfig(4, 2, sqrt_d=(2.7,)),
        lambda: gk3.SurveyConfig(4, 2, h1=(1.5,) + _H[1:]),
        lambda: gk3.SurveyConfig(4, 2, h2=(Fraction(1),) + _H[1:]),
        lambda: gk3.kahler_rigid_survey(gk3.SurveyConfig(4.5, 1)),
        lambda: gk3.SurveyConfig(4, 1.5),
        lambda: gk3.SurveyConfig(Fraction(9, 2), 1),
        lambda: gk3.SurveyConfig(True, 1),
        lambda: gk3.find_hyperbolic_split(gk3.k3_lattice(), radius=2.5),
        lambda: gk3.find_hyperbolic_split(gk3.k3_lattice(), radius=True),
        lambda: gk3.dolgachev_mirror(gk3.Sublattice(gk3.k3_lattice(), (_H,)), radius=2.5),
        lambda: gk3.enumerate_reduced_forms(4.5),
        lambda: gk3.deg2_vector({1.5: 1}),
        lambda: gk3.deg2_vector({True: 1}),
    ],
    ids=[
        "diag_lattice-float", "diag_lattice-Fraction", "diag_lattice-bool",
        "bfield_matrix-0.5", "bfield_matrix-1.9", "transform_pair-1.9",
        "build_si_mirror-1.5", "build_si_mirror-bool",
        "SurveyConfig-sqrt_d", "SurveyConfig-h1", "SurveyConfig-h2",
        "kahler_rigid_survey-max_det-4.5", "SurveyConfig-denominator_bound-1.5",
        "SurveyConfig-max_det-Fraction", "SurveyConfig-max_det-bool",
        "find_hyperbolic_split-2.5", "find_hyperbolic_split-bool", "dolgachev_mirror-2.5",
        "enumerate_reduced_forms-4.5", "deg2_vector-1.5", "deg2_vector-bool",
    ],
)
def test_entry_points_refuse_numbers_that_are_not_int(call):
    # int() would truncate: diag_lattice([2.5, -2]) was <2> + <-2>,
    # bfield_matrix([1.9, ...]) read B_0 = 1, build_si_mirror(1.5) built n = 1,
    # enumerate_reduced_forms(4.5) listed the forms up to 4 and deg2_vector
    # set index 1 for 1.5; a bool ran as 1
    with pytest.raises(gk3.ValidationError, match=r"\bint"):
        call()
