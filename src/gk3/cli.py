"""Command-line front end.

One command per invocation.  Each command is declared once, by the
``@command`` decorator that fills ``COMMANDS``: its group, name, help, the
body kinds of the document it reads (none for a command that reads no
document) and its other arguments.  ``build_parser`` and ``main`` only read
that table.  ``main`` loads the document named by the file argument (a
JSON file in the formats of the serialize module, or "-" for standard
input), refuses a body kind the entry does not list, and calls the
handler.  A handler returns library values and records, which
``dumps_canonical`` writes by type as canonical JSON on standard output.
Only the lattice layer and the document format are imported up front; a
class, gk3, rigid or mirror handler imports the library names it calls in
its own body, so a command loads no modules of another group (``rigid
forms`` needs only the lattice layer), and ``build_parser`` builds the
command parsers of the invoked group only.
Exit codes: 0 success, 1 domain validation failure (the report names the
violated condition), 2 parse or schema error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import SchemaError, ValidationError
from .lattices import (
    Lattice, SplitNotFound, Sublattice, check_forms_det, discriminant, enumerate_reduced_forms,
    find_hyperbolic_split, gauss_reduce2, ortho_complement,
)
from .serialize import Document, dumps_canonical, parse_document

if TYPE_CHECKING:
    from .mirror import FamilySpec


class Command(NamedTuple):
    handler: Callable  # (document or None, parsed arguments) -> report
    help: str
    kinds: tuple[str, ...]  # body kinds of the FILE document; () for no document
    arguments: tuple  # (flags, options) pairs for add_argument


GROUPS = {
    "lattice": "integral lattice utilities",
    "class": "cohomology class operations",
    "gk3": "generalized K3 pair operations",
    "rigid": "rigidity classifiers and the form survey",
    "mirror": "polarizations and mirror constructions",
}
COMMANDS: dict[tuple[str, str], Command] = {}


def command(group: str, name: str, help: str, kinds: tuple[str, ...], *arguments):
    """Declare the handler of ``gk3 group name``."""

    def register(handler):
        COMMANDS[group, name] = Command(handler, help, kinds, arguments)
        return handler

    return register


def arg(*flags, **options):
    return flags, options


LATTICES = ("lattice", "sublattice")
RADIUS = arg("--radius", type=int, default=3, help="isotropic search bound")
MAX_DET = arg("--max-det", type=int, required=True)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise SchemaError(f"cannot read {path}: {e.strerror}") from None


def _load(path: str, kinds: tuple[str, ...]) -> Document:
    doc = parse_document(_read_text(path))
    if doc.kind not in kinds:
        raise SchemaError(
            f"this command needs a document with body {' or '.join(kinds)}, got {doc.kind}"
        )
    return doc


def _lattice_report(l: Lattice) -> dict:
    return {
        "rank": l.rank,
        "even": l.is_even,
        "signature": l.signature().as_tuple(),
        "det": l.det(),
        "discriminant": None if l.is_degenerate else discriminant(l),
    }


def _sublattice_report(s: Sublattice) -> dict:
    sig = s.signature()
    return {
        "basis": s.basis,
        "gram": s.gram,
        "rank": s.rank,
        "signature": sig.as_tuple(),
        "discriminant": None if sig.n_zero else discriminant(s),
    }


# --- lattice group ---------------------------------------------------------


@command("lattice", "info", "rank, signature, parity, determinant", LATTICES)
def _(doc, args):
    return _lattice_report(doc.value)


@command("lattice", "reduce2", "Gauss-reduce a rank-2 positive form", LATTICES)
def _(doc, args):
    reduced = gauss_reduce2(doc.value)
    return {"reduced": reduced.lattice.gram, "transform": reduced.transform}


@command("lattice", "complement", "orthogonal complement of a sublattice", ("sublattice",))
def _(doc, args):
    return _sublattice_report(ortho_complement(doc.value))


@command("lattice", "split-u", "split off a hyperbolic plane summand", LATTICES, RADIUS)
def _(doc, args):
    split = find_hyperbolic_split(doc.value, radius=args.radius)
    if isinstance(split, SplitNotFound):
        return {"result": "none", "reason": split.reason}
    return {
        "result": "split",
        "e": split.e,
        "f": split.f,
        "complement_gram": split.complement.gram,
        "complement_signature": split.complement.signature().as_tuple(),
    }


# --- class group -----------------------------------------------------------


@command("class", "check", "validate a generalized Calabi-Yau class", ("class",))
def _(doc, args):
    from .mukai import check_gcy

    g = check_gcy(doc.value)
    return {"valid": True, "type": g.type_tag, "norm": g.norm}


@command("class", "pairing", "Mukai pairing of the two classes of a pair", ("pair",))
def _(doc, args):
    from .mukai import GenericClass, mukai_pairing

    x, y = doc.value
    if isinstance(x, GenericClass) or isinstance(y, GenericClass):
        raise ValidationError("pairing needs explicit classes")
    return {"pairing": mukai_pairing(x, y)}


@command("class", "bfield", "apply the B-field transform in the document", ("class",))
def _(doc, args):
    from .mukai import bfield_transform

    if doc.bfield is None:
        raise SchemaError('this command needs a "bfield" key in the document')
    return {"class": bfield_transform(doc.bfield, doc.value)}


@command("class", "lpsi", "smallest saturated sublattice containing the class", ("class",))
def _(doc, args):
    from .mukai import support_lattice

    support = support_lattice(doc.value)
    report = _sublattice_report(support)
    report["reduced"] = None
    if support.rank == 2:
        try:
            report["reduced"] = gauss_reduce2(support).lattice.gram
        except ValidationError:
            pass  # indefinite or degenerate rank-2 support: no reduced form
    return report


@command("class", "plane", "period plane of a class with its Gram", ("class",))
def _(doc, args):
    from .mukai import check_gcy, period_plane

    return period_plane(check_gcy(doc.value))


# --- gk3 group -------------------------------------------------------------


@command("gk3", "validate", "validate a pair as a generalized K3", ("pair",))
def _(doc, args):
    from .pairs import validate_gk3

    pair = validate_gk3(*doc.value)
    return {
        "status": pair.status,
        "types": {"phiA": pair.phi_a.type_tag, "phiB": pair.phi_b.type_tag},
        "pi_gram": pair.pi_gram,
    }


@command("gk3", "ns-t", "Neron-Severi and transcendental lattices", ("pair",))
def _(doc, args):
    from .pairs import neron_severi, transcendental, validate_gk3

    pair = validate_gk3(*doc.value)
    return {
        "status": pair.status,
        "ns": _sublattice_report(neron_severi(pair)),
        "t": _sublattice_report(transcendental(pair)),
        "convention": (
            "the transcendental lattice is the orthogonal complement of the"
            " support of phiA, not the complement of the Neron-Severi lattice"
        ),
    }


@command("gk3", "classify-hk", "hyperKaehler partner case of a pair", ("pair",))
def _(doc, args):
    from .pairs import classify_hk_pair

    return classify_hk_pair(*doc.value)


@command("gk3", "profile", "signature profile of the two lattices", ("pair",))
def _(doc, args):
    from .pairs import signature_profile, validate_gk3

    return signature_profile(validate_gk3(*doc.value))


# --- rigid group -----------------------------------------------------------


@command("rigid", "complex", "complex rigidity of a pair", ("pair",))
def _(doc, args):
    from .pairs import validate_gk3
    from .rigidity import is_complex_rigid

    return is_complex_rigid(validate_gk3(*doc.value))


@command("rigid", "kahler", "Kaehler rigidity of a pair", ("pair",))
def _(doc, args):
    from .pairs import validate_gk3
    from .rigidity import is_kahler_rigid

    return is_kahler_rigid(validate_gk3(*doc.value))


@command(
    "rigid", "survey", "survey achieved rank-2 invariant forms", (), MAX_DET,
    arg("--denom-bound", type=int, required=True),
    arg("--sqrt-d", type=int, action="append", default=None),
)
def _(doc, args):
    from .rigidity import SurveyConfig, kahler_rigid_survey

    report = kahler_rigid_survey(
        SurveyConfig(args.max_det, args.denom_bound, tuple(args.sqrt_d or ()))
    )
    return {
        "achieved": report.achieved,
        "missing": report.missing,
        "samples": report.samples,
        "per_form_witness": {
            json.dumps(gram, separators=(",", ":")): {"b": w.bfield, "omega": w.omega}
            for gram, w in report.witnesses
        },
    }


@command("rigid", "forms", "reduced even positive forms up to a determinant", (), MAX_DET)
def _(doc, args):
    check_forms_det(args.max_det)
    return {"forms": enumerate_reduced_forms(args.max_det)}


# --- mirror group ----------------------------------------------------------


def _family_of(doc: Document) -> FamilySpec:
    from .mirror import FamilySpec, PolarizationData
    from .mukai import CohClass, check_gcy
    from .pairs import validate_gk3

    (k_emb, l_emb, *witnesses), pair = doc.value
    witnesses = [check_gcy(w) if isinstance(w, CohClass) else w for w in witnesses]
    return FamilySpec(PolarizationData(k_emb, l_emb, *witnesses), validate_gk3(*pair))


@command(
    "mirror", "check", "compare two families as mirror partners", (),
    arg("file1", help="first family document"),
    arg("file2", help="second family document"),
)
def _(doc, args):
    from .mirror import mirror_check

    f1 = _family_of(_load(args.file1, ("family",)))
    f2 = _family_of(_load(args.file2, ("family",)))
    return mirror_check(f1, f2)


@command("mirror", "dolgachev", "classical mirror of a K3 polarization", ("sublattice",), RADIUS)
def _(doc, args):
    from .mirror import DolgachevMirror, dolgachev_mirror

    result = dolgachev_mirror(doc.value, radius=args.radius)
    if isinstance(result, DolgachevMirror):
        return {
            "result": "mirror",
            "n_gram": result.n.gram,
            "n_basis": result.n.basis,
            "e": result.e,
            "f": result.f,
            "duality": result.duality,
        }
    return {"result": "failure", "reason": result.reason}


def _family_json(fam: FamilySpec) -> dict:
    pol = fam.polarization
    return {
        "polarization": {
            "K": pol.k_emb,
            "L": pol.l_emb,
            "witnessA": pol.witness_a,
            "witnessB": pol.witness_b,
        },
        "member": fam.member,
    }


@command(
    "mirror", "shioda-inose", "build the rank-22 mirror pair", (),
    arg("--n", type=int, required=True, help="degree parameter, n >= 1"),
)
def _(doc, args):
    from .mirror import build_si_mirror, mirror_check, moduli_dims
    from .pairs import neron_severi, transcendental

    fam1, fam2 = build_si_mirror(args.n)
    t1 = gauss_reduce2(transcendental(fam1.member))
    ns2 = gauss_reduce2(neron_severi(fam2.member))
    return {
        "n": args.n,
        "moduli_dims": [moduli_dims(fam1.polarization), moduli_dims(fam2.polarization)],
        "t_x_reduced": t1.lattice.gram,
        "ns_dual_reduced": ns2.lattice.gram,
        "ns_x": _lattice_report(neron_severi(fam1.member)),
        "polarizations": [fam1.report, fam2.report],
        "mirror": mirror_check(fam1, fam2),
        "family1": _family_json(fam1),
        "family2": _family_json(fam2),
    }


# --- parser ----------------------------------------------------------------


def build_parser(argv) -> argparse.ArgumentParser:
    """The parser of every group, with the command parsers of the group that
    ``argv`` invokes only.  The invoked group is the first argument that
    names one: the top level takes no other positional, so an earlier
    argument is an error whatever is built."""
    parser = argparse.ArgumentParser(
        prog="gk3",
        description="Exact computations in the Mukai lattice of a K3 surface.",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    invoked = next((a for a in argv if a in GROUPS), None)
    for group, text in GROUPS.items():
        group_parser = groups.add_parser(group, help=text)
        if group == invoked:
            _add_commands(group_parser, group)
    return parser


def _add_commands(group_parser: argparse.ArgumentParser, group: str) -> None:
    """Give ``group_parser`` the command parsers of ``group``."""
    commands = group_parser.add_subparsers(dest="command", required=True)
    for (g, name), entry in COMMANDS.items():
        if g == group:
            p = commands.add_parser(name, help=entry.help)
            if entry.kinds:
                p.add_argument("file", help='input JSON document (or "-" for stdin)')
            for flags, options in entry.arguments:
                p.add_argument(*flags, **options)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv).parse_args(argv)
    entry = COMMANDS[args.group, args.command]
    try:
        doc = _load(args.file, entry.kinds) if entry.kinds else None
        report = entry.handler(doc, args)
    except (SchemaError, ValidationError) as e:
        sys.stdout.write(dumps_canonical({"error": str(e)}))
        return 2 if isinstance(e, SchemaError) else 1
    try:
        text = dumps_canonical(report)
    except ValueError as e:  # an integer over 4,300 digits has no decimal form
        sys.stdout.write(dumps_canonical({"error": f"result not printable: {e}"}))
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
