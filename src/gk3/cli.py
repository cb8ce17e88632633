"""Command-line front end.

One command per invocation; input documents are JSON files (or "-" for
standard input) in the formats of the serialize module; output is a
canonical JSON report on standard output.  Exit codes: 0 success,
1 domain validation failure (the report names the violated condition),
2 parse or schema error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SchemaError, ValidationError
from .lattices import (
    IntegralLattice,
    SplitNotFound,
    Sublattice,
    discriminant,
    find_hyperbolic_split,
    gauss_reduce2,
    ortho_complement,
)
from .mukai import (
    CohClass,
    GenericClass,
    bfield_transform,
    check_gcy,
    mukai_pairing,
    period_plane,
    support_lattice,
)
from .pairs import (
    classify_hk_pair,
    neron_severi,
    signature_profile,
    transcendental,
    validate_gk3,
)
from .rigidity import (
    SurveyConfig,
    check_forms_det,
    enumerate_reduced_forms,
    is_complex_rigid,
    is_kahler_rigid,
    kahler_rigid_survey,
)
from .mirror import (
    DolgachevMirror,
    FamilySpec,
    PolarizationData,
    build_si_mirror,
    dolgachev_mirror,
    mirror_check,
    moduli_dims,
)
from .serialize import (
    Document,
    class_json,
    cplx_json,
    dumps_canonical,
    int_matrix_json,
    member_json,
    pair_json,
    parse_document,
    quad_json,
    quad_matrix_json,
    quad_vector_json,
    sublattice_json,
)

import json


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


def _as_lattice(doc: Document) -> IntegralLattice:
    if doc.kind == "sublattice":
        return doc.value.induced_lattice()
    return doc.value


def _lattice_report(l: IntegralLattice) -> dict:
    report = {
        "rank": l.rank,
        "even": l.is_even,
        "signature": list(l.signature().as_tuple()),
        "det": l.det(),
    }
    report["discriminant"] = None if l.is_degenerate else list(discriminant(l))
    return report


def _sublattice_report(s: Sublattice) -> dict:
    ind = s.induced_lattice()
    sig = s.signature()
    return {
        "basis": int_matrix_json(s.basis),
        "gram": int_matrix_json(ind.gram),
        "rank": s.rank,
        "signature": list(sig.as_tuple()),
        "discriminant": None if sig.n_zero else list(discriminant(ind)),
    }


def _match_json(m) -> dict:
    return {"verdict": m.verdict, "reason": m.reason}


# --- lattice group ---------------------------------------------------------


def cmd_lattice_info(args) -> dict:
    doc = _load(args.file, ("lattice", "sublattice"))
    return _lattice_report(_as_lattice(doc))


def cmd_lattice_reduce2(args) -> dict:
    doc = _load(args.file, ("lattice", "sublattice"))
    reduced = gauss_reduce2(_as_lattice(doc))
    return {
        "reduced": int_matrix_json(reduced.lattice.gram),
        "transform": int_matrix_json(reduced.transform),
    }


def cmd_lattice_complement(args) -> dict:
    doc = _load(args.file, ("sublattice",))
    return _sublattice_report(ortho_complement(doc.value))


def cmd_lattice_split_u(args) -> dict:
    doc = _load(args.file, ("lattice", "sublattice"))
    split = find_hyperbolic_split(_as_lattice(doc), radius=args.radius)
    if isinstance(split, SplitNotFound):
        return {"result": "none", "reason": split.reason}
    return {
        "result": "split",
        "e": list(split.e),
        "f": list(split.f),
        "complement_gram": int_matrix_json(split.complement.gram),
        "complement_signature": list(split.complement.signature().as_tuple()),
    }


# --- class group -----------------------------------------------------------


def cmd_class_check(args) -> dict:
    doc = _load(args.file, ("class",))
    g = check_gcy(doc.value)
    return {"valid": True, "type": g.type_tag, "norm": quad_json(g.norm)}


def cmd_class_pairing(args) -> dict:
    doc = _load(args.file, ("pair",))
    x, y = doc.value
    if isinstance(x, GenericClass) or isinstance(y, GenericClass):
        raise ValidationError("pairing needs explicit classes")
    return {"pairing": cplx_json(mukai_pairing(x, y))}


def cmd_class_bfield(args) -> dict:
    doc = _load(args.file, ("class",))
    if doc.bfield is None:
        raise SchemaError('this command needs a "bfield" key in the document')
    moved = bfield_transform(doc.bfield, doc.value)
    return {"class": class_json(moved)}


def cmd_class_lpsi(args) -> dict:
    doc = _load(args.file, ("class",))
    support = support_lattice(doc.value)
    report = _sublattice_report(support)
    report["reduced"] = None
    if support.rank == 2:
        try:
            report["reduced"] = int_matrix_json(
                gauss_reduce2(support.induced_lattice()).lattice.gram
            )
        except ValidationError:
            pass  # indefinite or degenerate rank-2 support: no reduced form
    return report


def cmd_class_plane(args) -> dict:
    doc = _load(args.file, ("class",))
    plane = period_plane(check_gcy(doc.value))
    return {
        "re": quad_vector_json(plane.re),
        "im": quad_vector_json(plane.im),
        "gram": quad_matrix_json(plane.gram),
    }


# --- gk3 group -------------------------------------------------------------


def _pair_of(doc: Document):
    phi_a, phi_b = doc.value
    return validate_gk3(phi_a, phi_b)


def cmd_gk3_validate(args) -> dict:
    doc = _load(args.file, ("pair",))
    pair = _pair_of(doc)
    return {
        "status": pair.status,
        "types": {"phiA": pair.phi_a.type_tag, "phiB": pair.phi_b.type_tag},
        "pi_gram": None if pair.pi is None else quad_matrix_json(pair.pi.gram),
    }


def cmd_gk3_ns_t(args) -> dict:
    doc = _load(args.file, ("pair",))
    pair = _pair_of(doc)
    return {
        "status": pair.status,
        "ns": _sublattice_report(neron_severi(pair)),
        "t": _sublattice_report(transcendental(pair)),
        "convention": (
            "the transcendental lattice is the orthogonal complement of the"
            " support of phiA, not the complement of the Neron-Severi lattice"
        ),
    }


def cmd_gk3_classify_hk(args) -> dict:
    doc = _load(args.file, ("pair",))
    phi_a, phi_b = doc.value
    result = classify_hk_pair(phi_a, phi_b)
    return {
        "case": result.case,
        "orthogonal": result.orthogonal,
        "norms_match": result.norms_match,
        "identities": [
            {"name": i.name, "holds": i.holds, "value": quad_json(i.value)}
            for i in result.identities
        ],
    }


def cmd_gk3_profile(args) -> dict:
    doc = _load(args.file, ("pair",))
    profile = signature_profile(_pair_of(doc))
    return {
        "ns_signature": list(profile.ns_signature),
        "t_signature": list(profile.t_signature),
        "intersection_rank": profile.intersection_rank,
        "intersection_signature": list(profile.intersection_signature),
    }


# --- rigid group -----------------------------------------------------------


def _rigidity_json(r) -> dict:
    return {
        "kind": r.kind,
        "reason": r.reason,
        "invariant": None if r.invariant is None else int_matrix_json(r.invariant),
        "b_rational": r.b_rational,
        "b_canonical": r.b_canonical,
        "omega_sq": None if r.omega_sq is None else quad_json(r.omega_sq),
    }


def cmd_rigid_complex(args) -> dict:
    doc = _load(args.file, ("pair",))
    return _rigidity_json(is_complex_rigid(_pair_of(doc)))


def cmd_rigid_kahler(args) -> dict:
    doc = _load(args.file, ("pair",))
    return _rigidity_json(is_kahler_rigid(_pair_of(doc)))


def cmd_rigid_survey(args) -> dict:
    config = SurveyConfig(
        max_det=args.max_det,
        denominator_bound=args.denom_bound,
        sqrt_d=tuple(args.sqrt_d or ()),
    )
    report = kahler_rigid_survey(config)
    witnesses = {}
    for gram, w in report.witnesses:
        key = json.dumps(int_matrix_json(gram), separators=(",", ":"))
        witnesses[key] = {
            "b": quad_vector_json(w.bfield),
            "omega": quad_vector_json(w.omega),
        }
    return {
        "achieved": [int_matrix_json(g) for g in report.achieved],
        "missing": [int_matrix_json(g) for g in report.missing],
        "samples": report.samples,
        "per_form_witness": witnesses,
    }


def cmd_rigid_forms(args) -> dict:
    check_forms_det(args.max_det)
    return {"forms": [int_matrix_json(g) for g in enumerate_reduced_forms(args.max_det)]}


# --- mirror group ----------------------------------------------------------


def _family_of(doc: Document) -> FamilySpec:
    (k_emb, l_emb, witness_a, witness_b), (phi_a, phi_b) = doc.value
    if isinstance(witness_a, CohClass):
        witness_a = check_gcy(witness_a)
    if isinstance(witness_b, CohClass):
        witness_b = check_gcy(witness_b)
    pol = PolarizationData(k_emb, l_emb, witness_a, witness_b)
    return FamilySpec(pol, validate_gk3(phi_a, phi_b))


def _polarization_json(report) -> dict:
    return {
        "passed": report.passed,
        "clauses": [
            {"name": c.name, "ok": c.ok, "detail": c.detail} for c in report.clauses
        ],
        "joint_index": report.joint_index,
        "kl_pairing": int_matrix_json(report.kl_pairing),
    }


def _mirror_json(report) -> dict:
    return {
        "verified": report.verified,
        "k1_vs_l2": _match_json(report.k1_vs_l2),
        "l1_vs_k2": _match_json(report.l1_vs_k2),
        "dims": [list(report.dims_1), list(report.dims_2)],
        "dims_swap": report.dims_swap,
        "ns1_vs_t2": _match_json(report.ns1_vs_t2),
        "t1_vs_ns2": _match_json(report.t1_vs_ns2),
        "polarizations_passed": [
            report.polarization_1_passed,
            report.polarization_2_passed,
        ],
    }


def cmd_mirror_check(args) -> dict:
    f1 = _family_of(_load(args.file1, ("family",)))
    f2 = _family_of(_load(args.file2, ("family",)))
    return _mirror_json(mirror_check(f1, f2))


def cmd_mirror_dolgachev(args) -> dict:
    doc = _load(args.file, ("sublattice",))
    result = dolgachev_mirror(doc.value, radius=args.radius)
    if isinstance(result, DolgachevMirror):
        return {
            "result": "mirror",
            "n_gram": int_matrix_json(result.n.gram),
            "n_basis": int_matrix_json(result.n_basis),
            "e": list(result.e),
            "f": list(result.f),
            "duality": _match_json(result.duality),
        }
    return {"result": "failure", "reason": result.reason}


def _family_json(fam: FamilySpec) -> dict:
    pol = fam.polarization
    return {
        "polarization": {
            "K": sublattice_json(pol.k_emb),
            "L": sublattice_json(pol.l_emb),
            "witnessA": member_json(pol.witness_a),
            "witnessB": member_json(pol.witness_b),
        },
        "member": pair_json(fam.member),
    }


def cmd_mirror_shioda_inose(args) -> dict:
    fam1, fam2 = build_si_mirror(args.n)
    t1 = gauss_reduce2(transcendental(fam1.member).induced_lattice())
    ns2 = gauss_reduce2(neron_severi(fam2.member).induced_lattice())
    ns1 = neron_severi(fam1.member).induced_lattice()
    return {
        "n": args.n,
        "moduli_dims": [
            list(moduli_dims(fam1.polarization)),
            list(moduli_dims(fam2.polarization)),
        ],
        "t_x_reduced": int_matrix_json(t1.lattice.gram),
        "ns_dual_reduced": int_matrix_json(ns2.lattice.gram),
        "ns_x": _lattice_report(ns1),
        "polarizations": [
            _polarization_json(fam1.report),
            _polarization_json(fam2.report),
        ],
        "mirror": _mirror_json(mirror_check(fam1, fam2)),
        "family1": _family_json(fam1),
        "family2": _family_json(fam2),
    }


# --- parser ----------------------------------------------------------------


def _add_file(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", help='input JSON document (or "-" for stdin)')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gk3",
        description="Exact computations in the Mukai lattice of a K3 surface.",
    )
    groups = parser.add_subparsers(dest="group", required=True)

    lattice = groups.add_parser("lattice", help="integral lattice utilities")
    lat_cmds = lattice.add_subparsers(dest="command", required=True)
    p = lat_cmds.add_parser("info", help="rank, signature, parity, determinant")
    _add_file(p)
    p.set_defaults(handler=cmd_lattice_info)
    p = lat_cmds.add_parser("reduce2", help="Gauss-reduce a rank-2 positive form")
    _add_file(p)
    p.set_defaults(handler=cmd_lattice_reduce2)
    p = lat_cmds.add_parser("complement", help="orthogonal complement of a sublattice")
    _add_file(p)
    p.set_defaults(handler=cmd_lattice_complement)
    p = lat_cmds.add_parser("split-u", help="split off a hyperbolic plane summand")
    _add_file(p)
    p.add_argument("--radius", type=int, default=3, help="isotropic search bound")
    p.set_defaults(handler=cmd_lattice_split_u)

    cls = groups.add_parser("class", help="cohomology class operations")
    cls_cmds = cls.add_subparsers(dest="command", required=True)
    p = cls_cmds.add_parser("check", help="validate a generalized Calabi-Yau class")
    _add_file(p)
    p.set_defaults(handler=cmd_class_check)
    p = cls_cmds.add_parser("pairing", help="Mukai pairing of the two classes of a pair")
    _add_file(p)
    p.set_defaults(handler=cmd_class_pairing)
    p = cls_cmds.add_parser("bfield", help="apply the B-field transform in the document")
    _add_file(p)
    p.set_defaults(handler=cmd_class_bfield)
    p = cls_cmds.add_parser("lpsi", help="smallest saturated sublattice containing the class")
    _add_file(p)
    p.set_defaults(handler=cmd_class_lpsi)
    p = cls_cmds.add_parser("plane", help="period plane of a class with its Gram")
    _add_file(p)
    p.set_defaults(handler=cmd_class_plane)

    pair = groups.add_parser("gk3", help="generalized K3 pair operations")
    pair_cmds = pair.add_subparsers(dest="command", required=True)
    p = pair_cmds.add_parser("validate", help="validate a pair as a generalized K3")
    _add_file(p)
    p.set_defaults(handler=cmd_gk3_validate)
    p = pair_cmds.add_parser("ns-t", help="Neron-Severi and transcendental lattices")
    _add_file(p)
    p.set_defaults(handler=cmd_gk3_ns_t)
    p = pair_cmds.add_parser("classify-hk", help="hyperKaehler partner case of a pair")
    _add_file(p)
    p.set_defaults(handler=cmd_gk3_classify_hk)
    p = pair_cmds.add_parser("profile", help="signature profile of the two lattices")
    _add_file(p)
    p.set_defaults(handler=cmd_gk3_profile)

    rigid = groups.add_parser("rigid", help="rigidity classifiers and the form survey")
    rigid_cmds = rigid.add_subparsers(dest="command", required=True)
    p = rigid_cmds.add_parser("complex", help="complex rigidity of a pair")
    _add_file(p)
    p.set_defaults(handler=cmd_rigid_complex)
    p = rigid_cmds.add_parser("kahler", help="Kaehler rigidity of a pair")
    _add_file(p)
    p.set_defaults(handler=cmd_rigid_kahler)
    p = rigid_cmds.add_parser("survey", help="survey achieved rank-2 invariant forms")
    p.add_argument("--max-det", type=int, required=True)
    p.add_argument("--denom-bound", type=int, required=True)
    p.add_argument("--sqrt-d", type=int, action="append", default=None)
    p.set_defaults(handler=cmd_rigid_survey)
    p = rigid_cmds.add_parser("forms", help="reduced even positive forms up to a determinant")
    p.add_argument("--max-det", type=int, required=True)
    p.set_defaults(handler=cmd_rigid_forms)

    mirror = groups.add_parser("mirror", help="polarizations and mirror constructions")
    mirror_cmds = mirror.add_subparsers(dest="command", required=True)
    p = mirror_cmds.add_parser("check", help="compare two families as mirror partners")
    p.add_argument("file1", help="first family document")
    p.add_argument("file2", help="second family document")
    p.set_defaults(handler=cmd_mirror_check)
    p = mirror_cmds.add_parser("dolgachev", help="classical mirror of a K3 polarization")
    _add_file(p)
    p.add_argument("--radius", type=int, default=3, help="isotropic search bound")
    p.set_defaults(handler=cmd_mirror_dolgachev)
    p = mirror_cmds.add_parser("shioda-inose", help="build the rank-22 mirror pair")
    p.add_argument("--n", type=int, required=True, help="degree parameter, n >= 1")
    p.set_defaults(handler=cmd_mirror_shioda_inose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.handler(args)
    except SchemaError as e:
        sys.stdout.write(dumps_canonical({"error": str(e)}))
        return 2
    except ValidationError as e:
        sys.stdout.write(dumps_canonical({"error": str(e)}))
        return 1
    try:
        text = dumps_canonical(report)
    except ValueError as e:  # an integer over 4,300 digits has no decimal form
        sys.stdout.write(dumps_canonical({"error": f"result not printable: {e}"}))
        return 1
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
