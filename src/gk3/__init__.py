"""Exact arithmetic in the Mukai lattice of a K3 surface.

Generalized Calabi-Yau classes over Q(sqrt d), B-field transforms,
generalized Neron-Severi and transcendental lattices, rigidity
classifiers, and lattice-level mirror constructions, all in exact
integer and rational arithmetic.

``import gk3`` loads no submodule: each public name below is imported
from its home module on first use (PEP 562), so ``gk3.mirror_check``
loads the mirror layer and what it needs, and ``gk3.hnf`` only the
integer linear algebra.  A submodule is imported as usual, by
``import gk3.mukai``.
"""

import importlib

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "errors": "SchemaError ValidationError",
        "scalars": "ComplexQuad QuadScalar as_quad check_field_tag is_squarefree",
        "intlinalg": (
            "SymDiagResult hnf hnf_basis int_kernel saturate snf_divisors sym_signature"
        ),
        "lattices": (
            "HyperbolicSplit IntegralLattice Lattice MatchResult ReducedForm SplitNotFound"
            " Sublattice diag_lattice direct_sum discriminant e8_minus enumerate_reduced_forms"
            " find_hyperbolic_split gauss_reduce2 hyperbolic_plane invariants_match"
            " is_primitive k3_lattice named_lattice ortho_complement rescale saturation"
        ),
        "mukai": (
            "MUKAI CohClass GCYClass GenericClass PeriodPlane bfield_matrix bfield_transform"
            " check_gcy deg2_vector exponential_class"
            " mukai_pairing period_plane support_lattice two_form_class"
        ),
        "pairs": (
            "GeneralizedK3 HKClassification SignatureProfile classify_hk_pair"
            " cross_pairings neron_severi signature_profile transcendental transform_pair"
            " validate_gk3"
        ),
        "rigidity": (
            "RigidityReport SurveyConfig SurveyReport is_complex_rigid is_kahler_rigid"
            " kahler_rigid_survey"
        ),
        "mirror": (
            "DolgachevMirror Failure FamilySpec MirrorReport PolarizationData"
            " PolarizationReport build_si_mirror check_polarization dolgachev_mirror"
            " mirror_check moduli_dims"
        ),
    }.items()
    for name in names.split()
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return __all__
