"""JSON documents: exact parsing and canonical serialization.

Every scalar travels as an exact string "p/q" (or "p"), never a float;
an element of Q(sqrt d) is an object {"a": "p/q", "b": "p/q"} whose d
comes from the document header {"sqrt_d": d}.  A document carries the
header plus exactly one body payload (lattice, sublattice, class, pair
or family) and optionally a "bfield" vector.  Unknown keys
are rejected, and every schema error names the JSON path of the first
violation.  Serialization is canonical: sorted keys, fixed indentation,
rationals always in lowest terms, so equal values produce identical
bytes.  ``dumps_canonical`` writes gk3 values by type (scalars, classes,
sublattices, pairs) and any other record as an object of its
fields, so a record's field names are its JSON keys.

The module loads only the lattice layer: a class or pair document imports
the class types where it builds them, and a writer is found by the
qualified name of a value's class, so finding one imports nothing.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import SchemaError, ValidationError
from .intlinalg import IntMat, freeze
from .lattices import IntegralLattice, Sublattice, diag_lattice, direct_sum, named_lattice, rescale
from .records import record
from .scalars import ComplexQuad, QuadScalar, check_field_tag

if TYPE_CHECKING:
    from .mukai import CohClass, GCYClass, GenericClass, Member
    from .pairs import GeneralizedK3

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
BODY_KINDS = ("lattice", "sublattice", "class", "pair", "family")


@record
class Document:
    sqrt_d: int | None
    kind: str
    value: object
    bfield: tuple[QuadScalar, ...] | None = None


def _fail(path: str, message: str):
    raise SchemaError(f"at {path}: {message}")


def _expect_object(node, path: str, allowed: tuple[str, ...], required: tuple[str, ...] = ()):
    if not isinstance(node, dict):
        _fail(path, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in node:
            _fail(path, f"missing key {key!r}")
    return node


def parse_rational(node, path: str) -> Fraction:
    if isinstance(node, bool):
        _fail(path, "expected a rational, got a boolean")
    if isinstance(node, int):
        return Fraction(node)
    if isinstance(node, float):
        _fail(path, "floats are not exact; use a \"p/q\" string")
    if not isinstance(node, str):
        _fail(path, f"expected a rational, got {type(node).__name__}")
    if not _RATIONAL.fullmatch(node):
        _fail(path, f"not a rational: {node!r}")
    num, sep, den = node.partition("/")
    try:
        p = int(num)
        q = int(den) if sep else 1
    except ValueError:  # well formed, so a part is beyond int()'s digit limit
        limit = sys.get_int_max_str_digits()
        _fail(path, f"a rational with a part over the limit ({limit} digits): {node[:24]!r}...")
    if q == 0:
        _fail(path, "zero denominator")
    return Fraction(p, q)


def parse_quad(node, path: str, sqrt_d: int | None) -> QuadScalar:
    """An exact real scalar; sqrt_d is the header's tag, which
    ``parse_document`` has already validated."""
    if isinstance(node, dict):
        _expect_object(node, path, ("a", "b"), ("a",))
        a = parse_rational(node["a"], f"{path}.a")
        b = parse_rational(node.get("b", 0), f"{path}.b")
        if b and sqrt_d is None:
            _fail(f"{path}.b", "irrational coefficient needs a sqrt_d header")
        return QuadScalar.tagged(a, b, sqrt_d)
    return QuadScalar(parse_rational(node, path))


def parse_cplx(node, path: str, sqrt_d: int | None) -> ComplexQuad:
    if isinstance(node, dict) and ("re" in node or "im" in node):
        _expect_object(node, path, ("re", "im"))
        re = parse_quad(node.get("re", 0), f"{path}.re", sqrt_d)
        im = parse_quad(node.get("im", 0), f"{path}.im", sqrt_d)
        return ComplexQuad(re, im)
    return ComplexQuad(parse_quad(node, path, sqrt_d))


def parse_int(node, path: str) -> int:
    value = parse_rational(node, path)
    if value.denominator != 1:
        _fail(path, f"expected an integer, got {node!r}")
    return int(value)


def parse_int_matrix(node, path: str, width: int | None = None) -> IntMat:
    if not isinstance(node, list):
        _fail(path, "expected an array of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            _fail(f"{path}[{i}]", "expected an array")
        if width is not None and len(row) != width:
            _fail(f"{path}[{i}]", f"expected {width} entries, got {len(row)}")
        if rows and len(row) != len(rows[0]):
            _fail(f"{path}[{i}]", "ragged matrix")
        rows.append(tuple(parse_int(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(rows)


def parse_lattice(node, path: str) -> IntegralLattice:
    _expect_object(node, path, ("gram", "named"))
    if ("gram" in node) == ("named" in node):
        _fail(path, 'lattice needs exactly one of "gram" or "named"')
    if "gram" in node:
        gram = parse_int_matrix(node["gram"], f"{path}.gram")
        if len(gram) and len(gram) != len(gram[0]):
            _fail(f"{path}.gram", "Gram matrix must be square")
        try:
            return IntegralLattice(freeze(gram))
        except ValidationError as e:
            _fail(f"{path}.gram", str(e))
    return _parse_named(node["named"], f"{path}.named")


def _parse_named(node, path: str) -> IntegralLattice:
    if isinstance(node, str):
        try:
            return named_lattice(node)
        except ValidationError as e:
            _fail(path, str(e))
    if not isinstance(node, dict):
        _fail(path, "expected a name or a constructor object")
    _expect_object(node, path, ("diag", "sum", "rescale"))
    if len(node) != 1:
        _fail(path, "constructor needs exactly one of diag / sum / rescale")
    if "diag" in node:
        entries = node["diag"]
        if not isinstance(entries, list) or not entries:
            _fail(f"{path}.diag", "expected a nonempty array of integers")
        return diag_lattice(parse_int(v, f"{path}.diag[{i}]") for i, v in enumerate(entries))
    if "sum" in node:
        parts = node["sum"]
        if not isinstance(parts, list) or not parts:
            _fail(f"{path}.sum", "expected a nonempty array of lattice specs")
        return direct_sum(
            *(_parse_named(p, f"{path}.sum[{i}]") for i, p in enumerate(parts))
        )
    spec = node["rescale"]
    _expect_object(spec, f"{path}.rescale", ("of", "by"), ("of", "by"))
    base = _parse_named(spec["of"], f"{path}.rescale.of")
    k = parse_int(spec["by"], f"{path}.rescale.by")
    try:
        return rescale(base, k)
    except ValidationError as e:
        _fail(f"{path}.rescale.by", str(e))


def parse_sublattice(node, path: str) -> Sublattice:
    _expect_object(node, path, ("ambient", "basis"), ("basis",))
    ambient = (
        parse_lattice(node["ambient"], f"{path}.ambient")
        if "ambient" in node
        else named_lattice("Mukai")
    )
    basis = parse_int_matrix(node["basis"], f"{path}.basis", ambient.rank)
    try:
        return Sublattice(ambient, basis)
    except ValidationError as e:
        _fail(f"{path}.basis", str(e))


def parse_class(node, path: str, sqrt_d: int | None) -> CohClass:
    from .mukai import DEG2_RANK, CohClass

    _expect_object(node, path, ("deg0", "deg2", "deg4"), ("deg0", "deg2", "deg4"))
    deg2_node = node["deg2"]
    if not isinstance(deg2_node, list):
        _fail(f"{path}.deg2", "expected an array")
    if len(deg2_node) != DEG2_RANK:
        _fail(f"{path}.deg2", f"expected {DEG2_RANK} entries, got {len(deg2_node)}")
    deg0 = parse_cplx(node["deg0"], f"{path}.deg0", sqrt_d)
    deg2 = tuple(
        parse_cplx(v, f"{path}.deg2[{i}]", sqrt_d) for i, v in enumerate(deg2_node)
    )
    deg4 = parse_cplx(node["deg4"], f"{path}.deg4", sqrt_d)
    try:
        return CohClass(deg0, deg2, deg4)
    except ValidationError as e:
        _fail(path, str(e))


def parse_member(node, path: str, sqrt_d: int | None) -> CohClass | GenericClass:
    from .mukai import GenericClass

    if isinstance(node, dict) and "generic" in node:
        _expect_object(node, path, ("generic", "type"), ("generic", "type"))
        support = parse_sublattice(node["generic"], f"{path}.generic")
        type_tag = node["type"]
        if type_tag not in ("A", "B"):
            _fail(f"{path}.type", f'expected "A" or "B", got {type_tag!r}')
        try:
            return GenericClass(support, type_tag)
        except ValidationError as e:
            _fail(f"{path}.generic", str(e))
    return parse_class(node, path, sqrt_d)


def parse_pair(node, path: str, sqrt_d: int | None):
    _expect_object(node, path, ("phiA", "phiB"), ("phiA", "phiB"))
    phi_a = parse_member(node["phiA"], f"{path}.phiA", sqrt_d)
    phi_b = parse_member(node["phiB"], f"{path}.phiB", sqrt_d)
    return phi_a, phi_b


def parse_polarization(node, path: str, sqrt_d: int | None):
    _expect_object(
        node, path, ("K", "L", "witnessA", "witnessB"), ("K", "L", "witnessA", "witnessB")
    )
    k_emb = parse_sublattice(node["K"], f"{path}.K")
    l_emb = parse_sublattice(node["L"], f"{path}.L")
    witness_a = parse_member(node["witnessA"], f"{path}.witnessA", sqrt_d)
    witness_b = parse_member(node["witnessB"], f"{path}.witnessB", sqrt_d)
    return k_emb, l_emb, witness_a, witness_b


def parse_family(node, path: str, sqrt_d: int | None):
    _expect_object(node, path, ("polarization", "member"), ("polarization", "member"))
    pol = parse_polarization(node["polarization"], f"{path}.polarization", sqrt_d)
    member = parse_pair(node["member"], f"{path}.member", sqrt_d)
    return pol, member


_BODY_PARSERS = {
    "lattice": lambda node, path, d: parse_lattice(node, path),
    "sublattice": lambda node, path, d: parse_sublattice(node, path),
    "class": parse_class,
    "pair": parse_pair,
    "family": parse_family,
}


def parse_document(text: str) -> Document:
    """Parse and schema-check a JSON document; exact scalars throughout."""
    try:
        root = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal over 4,300 digits
        raise SchemaError(f"invalid JSON: {e}") from None
    except RecursionError:
        raise SchemaError("invalid JSON: nesting too deep") from None
    _expect_object(root, "document", ("sqrt_d", "bfield") + BODY_KINDS)
    sqrt_d = None
    if root.get("sqrt_d") is not None:
        sqrt_d = parse_int(root["sqrt_d"], "document.sqrt_d")
        try:
            check_field_tag(sqrt_d)
        except ValidationError as e:
            _fail("document.sqrt_d", str(e))
    bodies = [k for k in BODY_KINDS if k in root]
    if len(bodies) != 1:
        _fail("document", f"expected exactly one body of {list(BODY_KINDS)}, got {bodies}")
    kind = bodies[0]
    value = _BODY_PARSERS[kind](root[kind], f"document.{kind}", sqrt_d)
    bfield = None
    if "bfield" in root:
        from .mukai import DEG2_RANK

        node = root["bfield"]
        if not isinstance(node, list) or len(node) != DEG2_RANK:
            _fail("document.bfield", f"expected {DEG2_RANK} real scalars")
        bfield = tuple(
            parse_quad(v, f"document.bfield[{i}]", sqrt_d) for i, v in enumerate(node)
        )
    return Document(sqrt_d, kind, value, bfield)


# ---------------------------------------------------------------------------
# canonical serialization


def rational_json(x: Fraction) -> str:
    return str(Fraction(x))  # "p/q" in lowest terms, or "p"


def quad_json(q: QuadScalar):
    if q.is_rational:
        return rational_json(q.a)
    return {"a": rational_json(q.a), "b": rational_json(q.b)}


def cplx_json(c: ComplexQuad):
    return {"re": quad_json(c.re), "im": quad_json(c.im)}


def class_json(x: CohClass | GCYClass) -> dict:
    from .mukai import GCYClass

    if type(x) is GCYClass:
        x = x.coh
    return {
        "deg0": cplx_json(x.deg0),
        "deg2": [cplx_json(v) for v in x.deg2],
        "deg4": cplx_json(x.deg4),
    }


def sublattice_json(s: Sublattice) -> dict:
    """A sublattice over the Mukai lattice names its ambient; any other
    ambient is written as its Gram."""
    ambient = (
        {"named": "Mukai"}
        if s.ambient.gram == named_lattice("Mukai").gram
        else {"gram": [list(row) for row in s.ambient.gram]}
    )
    return {"ambient": ambient, "basis": [list(row) for row in s.basis]}


def member_json(m: Member | CohClass) -> dict:
    from .mukai import GenericClass

    if isinstance(m, GenericClass):
        return {"generic": sublattice_json(m.support), "type": m.type_tag}
    return class_json(m)


def pair_json(x: GeneralizedK3) -> dict:
    return {"phiA": member_json(x.phi_a), "phiB": member_json(x.phi_b)}


# keyed by the qualified name of the exact class, so that no writer needs
# the module of its class loaded
_WRITERS = {
    "gk3.scalars.QuadScalar": quad_json,
    "gk3.scalars.ComplexQuad": cplx_json,
    "gk3.mukai.CohClass": class_json,
    "gk3.mukai.GCYClass": class_json,
    "gk3.mukai.GenericClass": member_json,
    "gk3.lattices.Sublattice": sublattice_json,
    "gk3.pairs.GeneralizedK3": pair_json,
}


def _by_type(x):
    """JSON form of a value the json module cannot write: a gk3 value by its
    writer above, any other record as a dict of its fields."""
    cls = type(x)
    write = _WRITERS.get(f"{cls.__module__}.{cls.__qualname__}")
    if write is not None:
        return write(x)
    names = getattr(x, "_fields", None)
    if names is not None:
        return {name: getattr(x, name) for name in names}
    raise TypeError(f"cannot write a {type(x).__name__} as JSON")


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: sorted keys, two-space indent, no floats;
    gk3 values and records are written by ``_by_type``."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_by_type) + "\n"
