"""The three benchmark workloads: seeded inputs, one op, and its checks.

Every workload exposes ``item(i)`` (the i-th input, a pure function of the
seed and i), ``run(item)`` (the timed call into gk3), ``check(item,
result)`` (``None`` or a failure message, computed with ``oracle`` in
plain integer arithmetic) and ``units(item, result)`` (how many ops the
call completed: survey samples, rank-22 cases or CLI commands).

survey   Kaehler-rigid survey calls near the criterion-7 shape.  Call 3,
         the last call of the first round, is the criterion-7
         configuration itself in every run; the other calls each use their
         own positive plane (h1, h2), so no survey call is served from
         another call's cache entries and every run is cold.
rank22   Kaehler-rigid cases of criterion-6 shape with B-fields of mixed
         density and height, so rank-22 integer linear algebra dominates.
cli      One gk3 process per command: a fixed corpus of README commands
         plus seeded documents, about a tenth of them meant to fail.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt
from pathlib import Path

import oracle

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
CLI_BOOT = "import sys; from gk3.cli import main; sys.exit(main())"


def canonical(obj) -> str:
    """The CLI's canonical JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def quad_text(a, b=0):
    """JSON form of a + b sqrt(d), as the CLI prints it."""
    a, b = Fraction(a), Fraction(b)
    return str(a) if b == 0 else {"a": str(a), "b": str(b)}


def _quad_parts(q) -> tuple[Fraction, Fraction, int | None]:
    """(a, b, d) of a gk3 QuadScalar, read through its public attributes."""
    return Fraction(q.a), Fraction(q.b), q.d


def _u_vector(block_coeffs: dict[int, tuple[int, int]]) -> list[int]:
    """Degree-2 vector with (e, f) coefficients in the given U blocks."""
    v = [0] * 22
    for blk, (e, f) in block_coeffs.items():
        v[2 * blk], v[2 * blk + 1] = e, f
    return v


# ---------------------------------------------------------------------------
# survey


class SurveyWorkload:
    name = "survey"
    timeout_s = 90
    # Calls run in rounds of one call per template; a run ends on a round
    # boundary, so every run has the same mix of call shapes.
    # (max_det range, denominator bound, sqrt_d); max_det stays inside one
    # isqrt class, so the seed moves the targets but not the sample count.
    TEMPLATES = (((16, 24), 3, ()), ((4, 8), 5, ()), ((9, 15), 3, (3,)), ((16, 16), 4, (2,)))
    round_size = len(TEMPLATES)
    trace_ops = round_size
    rss_ops = round_size
    # (n1, n2) of the plane h1 = e + n1 f, h2 = e' + n2 f' for the k-th call;
    # the seed picks the two U blocks and the order, which is an isometry.
    PLANES = tuple((n1, s - n1) for s in range(3, 9) for n1 in range(1, s))

    def __init__(self, seed: int, gk3, workdir: Path, golden: dict | None):
        self.seed = seed
        self.gk3 = gk3
        self.golden = golden or {}

    def item(self, i: int) -> dict:
        if i == len(self.TEMPLATES) - 1:  # the criterion-7 configuration, default plane
            return {"i": i, "max_det": 16, "denom": 4, "sqrt_d": (2,), "n": (1, 1), "blocks": (0, 1)}
        rng = random.Random(self.seed * 1_000_003 + i)
        (lo, hi), denom, sqrt_d = self.TEMPLATES[i % len(self.TEMPLATES)]
        n = self.PLANES[i % len(self.PLANES)]
        return {
            "i": i,
            "max_det": rng.randint(lo, hi),
            "denom": denom,
            "sqrt_d": sqrt_d,
            "n": n if rng.random() < 0.5 else n[::-1],
            "blocks": tuple(rng.sample(range(3), 2)),
        }

    def golden_key(self, item) -> str:
        """The criterion-7 call has one digest for every seed; others are per seed."""
        return "criterion7" if item["n"] == (1, 1) else f"{self.seed}:{item['i']}"

    @staticmethod
    def plane(item) -> tuple[list[int], list[int]]:
        (n1, n2), (b1, b2) = item["n"], item["blocks"]
        return _u_vector({b1: (1, n1)}), _u_vector({b2: (1, n2)})

    def run(self, item):
        rig = self.gk3.rigidity
        h1, h2 = self.plane(item)
        config = rig.SurveyConfig(
            item["max_det"], item["denom"], sqrt_d=item["sqrt_d"], h1=tuple(h1), h2=tuple(h2)
        )
        return rig.kahler_rigid_survey(config)

    def units(self, item, report) -> int:
        return report.samples

    @staticmethod
    def render(report) -> str:
        """Canonical text of a survey report, in the layout of `gk3 rigid survey`."""
        witnesses = {}
        for gram, w in report.witnesses:
            key = json.dumps([list(r) for r in gram], separators=(",", ":"))
            witnesses[key] = {
                "b": [quad_text(*_quad_parts(q)[:2]) for q in w.bfield],
                "omega": [quad_text(*_quad_parts(q)[:2]) for q in w.omega],
            }
        return canonical(
            {
                "achieved": [[list(r) for r in g] for g in report.achieved],
                "missing": [[list(r) for r in g] for g in report.missing],
                "samples": report.samples,
                "per_form_witness": witnesses,
            }
        )

    def expected_samples(self, item) -> int:
        h1, h2 = self.plane(item)
        amax = isqrt(item["max_det"])
        positive = 0
        for a in range(amax + 1):
            for b in range(amax + 1):
                w = [a * x + b * y for x, y in zip(h1, h2)]
                if (a or b) and oracle.pair(oracle.K3_GRAM, w, w) > 0:
                    positive += 1
        grid = sum(d * d for d in range(1, item["denom"] + 1))
        return (1 + len(item["sqrt_d"])) * positive * grid

    def check(self, item, report) -> str | None:
        if report.samples != self.expected_samples(item):
            return f"samples {report.samples} != {self.expected_samples(item)}"
        forms = oracle.reduced_forms(item["max_det"])
        achieved = [tuple(map(tuple, g)) for g in report.achieved]
        missing = [tuple(map(tuple, g)) for g in report.missing]
        if sorted(achieved + missing) != forms or achieved != sorted(achieved) or missing != sorted(missing):
            return "achieved and missing do not partition the reduced forms"
        if [tuple(map(tuple, g)) for g, _ in report.witnesses] != achieved:
            return "witnesses are not parallel to the achieved forms"
        for gram, w in report.witnesses:
            if not oracle.is_reduced_even_pd(gram):
                return f"form {gram} is not reduced, even and positive definite"
            bfield, omega0, kappa_d = [], [], None
            for q in w.bfield:
                a, b, _ = _quad_parts(q)
                if b:
                    return "irrational B-field in a witness"
                bfield.append(a)
            for q in w.omega:
                a, b, d = _quad_parts(q)
                if a and b:
                    return "omega is not kappa times a rational vector"
                if b:
                    kappa_d = d
                omega0.append(b if b else a)
            if kappa_d is not None and any(_quad_parts(q)[0] for q in w.omega):
                return "omega mixes rational and irrational coordinates"
            inv = oracle.exp_class_invariant(bfield, omega0, kappa_d)[0]
            if inv != tuple(map(tuple, gram)):
                return f"witness reproduces {inv}, not {gram}"
        key = self.golden_key(item)
        want = self.golden.get(key)
        if want is not None and sha256(self.render(report)) != want:
            return f"survey call {key} differs from its golden digest"
        return None


# ---------------------------------------------------------------------------
# rank22


class Rank22Workload:
    name = "rank22"
    timeout_s = 30
    round_size = 12  # one case of each (kappa, density, height) stratum
    trace_ops = 10 * round_size
    rss_ops = 10 * round_size
    # B-field slots drawn for case i % 12, from sparse (2) to dense (22).
    # Case time grows with the density; evenly spread densities keep the
    # case times free of a gap at their median, where op_p50_ms would jump
    # between two clusters from run to run.  The order keeps density
    # independent of kappa (i % 3) and height (i % 4).
    SLOTS = (2, 11, 20, 7, 16, 3, 12, 22, 9, 18, 5, 14)

    def __init__(self, seed: int, gk3, workdir: Path, golden: dict | None):
        self.seed = seed
        self.gk3 = gk3
        self.h1 = _u_vector({0: (1, 1)})
        self.h2 = _u_vector({1: (1, 1)})

    def item(self, i: int) -> dict:
        rng = random.Random(self.seed * 1_000_003 + i)
        kappa_d = 2 if i % 3 == 0 else None
        height = 1 + i % 4
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a == 0 and b == 0:
            a = 1
        slots = rng.sample(range(22), self.SLOTS[i % self.round_size])
        bfield = [Fraction(0)] * 22
        for s in slots:
            bfield[s] = Fraction(rng.randint(-height, height), rng.randint(1, height))
        omega0 = [a * x + b * y for x, y in zip(self.h1, self.h2)]
        return {"i": i, "bfield": bfield, "omega0": omega0, "kappa_d": kappa_d}

    def run(self, item):
        g = self.gk3
        QuadScalar, as_quad = g.scalars.QuadScalar, g.scalars.as_quad
        kappa = as_quad(1) if item["kappa_d"] is None else QuadScalar(0, 1, item["kappa_d"])
        omega = tuple(kappa * as_quad(v) for v in item["omega0"])
        cls = g.mukai.check_gcy(g.mukai.exponential_class(item["bfield"], omega))
        support = g.mukai.support_lattice(cls)
        partner = g.mukai.GenericClass(g.lattices.ortho_complement(support), "B")
        pair = g.pairs.validate_gk3(cls, partner)
        report = g.rigidity.is_kahler_rigid(pair)
        return pair, report, g.pairs.neron_severi(pair), g.pairs.transcendental(pair)

    def units(self, item, result) -> int:
        return 1

    def check(self, item, result) -> str | None:
        pair, report, ns, t = result
        if report.kind != "KahlerRigid" or report.b_rational is not True:
            return f"verdict {report.kind}, b_rational {report.b_rational}"
        inv, re, im, omega_sq = oracle.exp_class_invariant(item["bfield"], item["omega0"], item["kappa_d"])
        a, b, _ = _quad_parts(report.omega_sq)
        if b or a != omega_sq:
            return f"omega^2 {report.omega_sq} != {omega_sq}"
        if tuple(map(tuple, report.invariant)) != inv:
            return f"invariant {report.invariant} != {inv}"
        if pair.status != "FormalGeneric" or ns.rank != 2 or t.rank != 22:
            return f"status {pair.status}, NS rank {ns.rank}, T rank {t.rank}"
        for row in t.basis:
            if oracle.pair(oracle.MUKAI_GRAM, row, re) or oracle.pair(oracle.MUKAI_GRAM, row, im):
                return "a T basis vector is not orthogonal to the support"
        u, v = ns.basis
        gram = [oracle.pair(oracle.MUKAI_GRAM, x, y) for x, y in ((u, u), (u, v), (v, v))]
        if oracle.reduce2(*gram) != (inv[0][0], inv[0][1], inv[1][1]):
            return "NS does not carry the invariant form"
        return None


# ---------------------------------------------------------------------------
# cli


def _exp_class_doc(bfield, omega0, kappa_d) -> dict:
    """Document of exp(B + i kappa omega0) as `class` JSON, kappa = sqrt(kappa_d) or 1."""
    re, im, _ = oracle.exp_class_components(bfield, omega0, kappa_d)

    def imag(x):
        return quad_text(0, x) if kappa_d else quad_text(x)

    doc = {
        "class": {
            "deg0": "1",
            "deg2": [{"re": quad_text(r), "im": imag(m)} for r, m in zip(re[2:], im[2:])],
            "deg4": {"re": quad_text(re[1]), "im": imag(im[1])},
        }
    }
    if kappa_d:
        doc["sqrt_d"] = kappa_d
    return doc


def _pair_doc() -> dict:
    a = _exp_class_doc([0] * 22, _u_vector({0: (1, 1)}), None)["class"]
    re, im = _u_vector({1: (1, 1)}), _u_vector({2: (1, 1)})
    b = {
        "deg0": {"re": "0", "im": "0"},
        "deg2": [{"re": quad_text(x), "im": quad_text(y)} for x, y in zip(re, im)],
        "deg4": {"re": "0", "im": "0"},
    }
    return {"pair": {"phiA": a, "phiB": b}}


def _k3_sub(rows) -> dict:
    return {"sublattice": {"ambient": {"named": "K3"}, "basis": [list(r) for r in rows]}}


class Cmd:
    """One CLI command: argv (file names are keys of ``docs``), expectations, check."""

    def __init__(self, name, argv, docs=None, exit_code=0, check=None, error=None, golden=False):
        self.name = name
        self.argv = argv
        self.docs = docs or {}
        self.exit_code = exit_code
        self.check = check
        self.error = error  # prefix the JSON error must start with
        self.golden = golden


def _fixed_corpus() -> list[Cmd]:
    kahler = _exp_class_doc([0] * 22, _u_vector({0: (1, 1)}), None)
    bfield_doc = dict(kahler, bfield=["1/2"] + ["0"] * 21)
    deg2 = _k3_sub([_u_vector({0: (1, 1)})])
    cmds = [
        Cmd("lattice-info-U", ["lattice", "info", "@d"], {"d": {"lattice": {"named": "U"}}}),
        Cmd("lattice-info-sub", ["lattice", "info", "@d"], {"d": {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}}}),
        Cmd("lattice-info-K3", ["lattice", "info", "@d"], {"d": {"lattice": {"named": "K3"}}}),
        Cmd("lattice-info-Mukai", ["lattice", "info", "@d"], {"d": {"lattice": {"named": "Mukai"}}}),
        Cmd("lattice-reduce2", ["lattice", "reduce2", "@d"], {"d": {"lattice": {"gram": [[2, 2], [2, 4]]}}}),
        Cmd("lattice-complement-U", ["lattice", "complement", "@d"], {"d": {"sublattice": {"ambient": {"named": "U"}, "basis": [[1, 1]]}}}),
        Cmd("lattice-complement-K3", ["lattice", "complement", "@d"], {"d": deg2}),
        Cmd("lattice-split-u-K3", ["lattice", "split-u", "@d"], {"d": {"lattice": {"named": "K3"}}}),
        Cmd("lattice-split-u-definite", ["lattice", "split-u", "@d"], {"d": {"lattice": {"named": {"diag": [2, 2]}}}}),
        Cmd("class-check", ["class", "check", "@d"], {"d": kahler}),
        Cmd("class-pairing", ["class", "pairing", "@d"], {"d": _pair_doc()}),
        Cmd("class-bfield", ["class", "bfield", "@d"], {"d": bfield_doc}),
        Cmd("class-lpsi", ["class", "lpsi", "@d"], {"d": kahler}),
        Cmd("class-plane", ["class", "plane", "@d"], {"d": kahler}),
        Cmd("gk3-validate", ["gk3", "validate", "@d"], {"d": _pair_doc()}),
        Cmd("gk3-ns-t", ["gk3", "ns-t", "@d"], {"d": _pair_doc()}),
        Cmd("gk3-profile", ["gk3", "profile", "@d"], {"d": _pair_doc()}),
        Cmd("gk3-classify-hk", ["gk3", "classify-hk", "@d"], {"d": _pair_doc()}),
        Cmd("rigid-complex", ["rigid", "complex", "@d"], {"d": _pair_doc()}),
        Cmd("rigid-kahler", ["rigid", "kahler", "@d"], {"d": _pair_doc()}),
        Cmd("rigid-forms-4", ["rigid", "forms", "--max-det", "4"]),
        Cmd("mirror-dolgachev", ["mirror", "dolgachev", "@d"], {"d": deg2}),
        Cmd("error-sqrt-d", ["lattice", "info", "@d"], {"d": {"sqrt_d": 4, "lattice": {"named": "U"}}}, 2, error="at document.sqrt_d:"),
        Cmd("error-isotropy", ["class", "check", "@d"], {"d": {"class": {"deg0": "1", "deg2": ["0"] * 22, "deg4": "1"}}}, 1, error="not isotropic: <phi,phi> = -2"),
        Cmd("error-no-bfield", ["class", "bfield", "@d"], {"d": kahler}, 2, error='this command needs a "bfield" key'),
        Cmd("error-plain-complement", ["lattice", "complement", "@d"], {"d": {"lattice": {"named": "U"}}}, 2, error="this command needs a document with body sublattice"),
        Cmd("error-missing-file", ["lattice", "info", "@missing"], {}, 2, error="cannot read"),
        Cmd("error-dolgachev-signature", ["mirror", "dolgachev", "@d"], {"d": _k3_sub([_u_vector({0: (1, 1)}), _u_vector({1: (1, 1)})])}, 1, error="polarization must have signature (1, t)"),
    ]
    mirrors = []
    for n in range(1, 11):
        mirrors.append(Cmd(f"mirror-si-{n}", ["mirror", "shioda-inose", "--n", str(n)], check=_si_check(n)))
        mirrors.append(Cmd(f"mirror-check-{n}", ["mirror", "check", f"@f1_{n}", f"@f2_{n}"], check=_mirror_check_check))
    cmds = _interleave(cmds, mirrors)
    for c in cmds:
        c.golden = True
    return cmds


def _interleave(a: list, b: list) -> list:
    """Merge two lists evenly, keeping the order inside each, so that every
    prefix of the result holds about the same share of each list."""
    out, i, j = [], 0, 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and i * len(b) <= j * len(a)):
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return out


def _si_check(n: int):
    def check(out: dict, files: "CliWorkload") -> str | None:
        d = [[2 * n, 0], [0, 2 * n]]
        if out["t_x_reduced"] != d or out["ns_dual_reduced"] != d or out["moduli_dims"] != [[20, 0], [0, 20]]:
            return "shioda-inose lattices or moduli dimensions are wrong"
        if out["mirror"]["verified"] is not True or not all(p["passed"] for p in out["polarizations"]):
            return "shioda-inose mirror is not verified"
        files.write_doc(f"f1_{n}", {"family": out["family1"]})
        files.write_doc(f"f2_{n}", {"family": out["family2"]})
        return None

    return check


def _mirror_check_check(out: dict, files) -> str | None:
    if out["verified"] is not True or out["dims"] != [[20, 0], [0, 20]]:
        return "mirror check of the emitted families does not verify"
    return None


class CliWorkload:
    name = "cli"
    timeout_s = 30
    round_size = 1  # the corpus is interleaved evenly, so any prefix is mixed
    trace_ops = 40
    SEEDED_PER_KIND = 8

    def __init__(self, seed: int, gk3, workdir: Path, golden: dict | None, trace_out: Path | None = None):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden or {}
        self.trace_out = trace_out
        rng = random.Random(seed)
        self.corpus = _interleave(_fixed_corpus(), self._seeded(rng))
        self.rss_ops = len(self.corpus)
        for cmd in self.corpus:
            for key, doc in cmd.docs.items():
                self.write_doc(f"{cmd.name}.{key}", doc)

    @staticmethod
    def path(key: str) -> str:
        """File name of a document, relative to the work directory the commands run in."""
        return f"{key}.json"

    def write_doc(self, key: str, doc: dict) -> None:
        with open(self.workdir / self.path(key), "w", encoding="utf-8") as fh:
            fh.write(canonical(doc))

    def item(self, i: int) -> Cmd:
        return self.corpus[i % len(self.corpus)]

    def argv(self, cmd: Cmd) -> list[str]:
        out = []
        for a in cmd.argv:
            if a.startswith("@"):
                key = a[1:]
                out.append(self.path(f"{cmd.name}.{key}" if key in cmd.docs else key))
            else:
                out.append(a)
        return out

    def run(self, cmd: Cmd):
        if self.trace_out is None:
            prefix = [sys.executable, "-c", CLI_BOOT]
        else:
            prefix = [sys.executable, str(BENCH_DIR / "clitrace.py"), str(self.trace_out)]
        proc = subprocess.run(
            prefix + self.argv(cmd),
            cwd=self.workdir,
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=self.timeout_s,
        )
        return proc

    def units(self, cmd, proc) -> int:
        return 1

    def check(self, cmd: Cmd, proc) -> str | None:
        if proc.returncode != cmd.exit_code:
            return f"{cmd.name}: exit {proc.returncode}, expected {cmd.exit_code}: {proc.stderr[-300:]}"
        if "Traceback" in proc.stderr:
            return f"{cmd.name}: traceback on stderr"
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            return f"{cmd.name}: stdout is not JSON"
        if canonical(out) != proc.stdout:
            return f"{cmd.name}: stdout is not canonical JSON"
        if cmd.exit_code:
            if set(out) != {"error"} or not out["error"].startswith(cmd.error):
                return f"{cmd.name}: unexpected error {out}"
        elif cmd.check is not None:
            msg = cmd.check(out, self)
            if msg:
                return f"{cmd.name}: {msg}"
        if cmd.golden:
            want = self.golden.get(cmd.name)
            if want is not None and sha256(proc.stdout) != want:
                return f"{cmd.name}: output differs from its golden digest"
        return None

    # -- seeded documents ---------------------------------------------------

    def _seeded(self, rng: random.Random) -> list[Cmd]:
        kinds = (
            self._lattice_info,
            self._reduce2,
            self._class_check,
            self._lpsi,
            self._bfield,
            self._forms,
            self._dolgachev,
            self._complement,
            self._error,
        )
        out = []
        for j in range(self.SEEDED_PER_KIND):
            for kind in kinds:
                out.append(kind(rng, f"s{len(out)}", j))
        return out

    @staticmethod
    def _random_exp(rng):
        slots = rng.sample(range(22), rng.randint(0, 4))
        bfield = [Fraction(0)] * 22
        for s in slots:
            bfield[s] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        a, b = rng.randint(0, 2), rng.randint(0, 2)
        if a == 0 and b == 0:
            b = 1
        n1, n2 = rng.randint(1, 3), rng.randint(1, 3)
        omega0 = [a * x + b * y for x, y in zip(_u_vector({0: (1, n1)}), _u_vector({2: (1, n2)}))]
        kappa_d = rng.choice((None, 2, 3))
        return bfield, omega0, kappa_d

    def _lattice_info(self, rng, name, j):
        parts, rank, pos, neg, det, even = [], 0, 0, 0, 1, True
        for _ in range(rng.randint(1, 4)):
            kind = rng.randrange(4)
            if kind == 0:
                parts.append("U"); rank += 2; pos += 1; neg += 1; det *= -1
            elif kind == 1:
                parts.append("E8minus"); rank += 8; neg += 8
            elif kind == 2:
                k = rng.choice((-6, -4, -3, -2, -1, 1, 2, 3, 4, 6))
                parts.append({"diag": [k]}); rank += 1; det *= k; even &= k % 2 == 0
                pos += k > 0; neg += k < 0
            else:
                m = rng.choice((-3, -2, 2, 3, 4))
                parts.append({"rescale": {"of": "U", "by": m}}); rank += 2; pos += 1; neg += 1; det *= -m * m

        def check(out, _):
            if (out["rank"], out["even"], out["det"], out["signature"]) != (rank, even, det, [pos, neg, 0]):
                return f"lattice info {out} disagrees with the construction"
            divs, prod = out["discriminant"], 1
            for x, y in zip(divs, divs[1:]):
                if y % x:
                    return "discriminant divisors do not divide each other"
            for x in divs:
                prod *= x
            return None if prod == abs(det) else "discriminant order is not |det|"

        return Cmd(name, ["lattice", "info", "@d"], {"d": {"lattice": {"named": {"sum": parts}}}}, check=check)

    def _reduce2(self, rng, name, j):
        a = rng.choice((2, 4, 6, 8))
        b = rng.randint(0, a // 2)
        c = a + 2 * rng.randint(0, 5)
        g = [[a, b], [b, c]]
        for _ in range(3):  # congruence by random elementary unimodular moves
            k = rng.randint(-2, 2)
            if rng.random() < 0.5:  # x1 += k x2
                g = [[g[0][0] + 2 * k * g[0][1] + k * k * g[1][1], g[0][1] + k * g[1][1]], [g[0][1] + k * g[1][1], g[1][1]]]
            else:
                g = [[g[0][0], g[0][1] + k * g[0][0]], [g[0][1] + k * g[0][0], g[1][1] + 2 * k * g[0][1] + k * k * g[0][0]]]
        want = [[a, b], [b, c]]

        def check(out, _):
            t = out["transform"]
            tg = [[sum(t[k][i] * g[k][l] for k in range(2)) for l in range(2)] for i in range(2)]
            tgt = [[sum(tg[i][l] * t[l][j2] for l in range(2)) for j2 in range(2)] for i in range(2)]
            if out["reduced"] != want or tgt != want:
                return f"reduce2 of {g}: {out}, expected {want}"
            return None

        return Cmd(name, ["lattice", "reduce2", "@d"], {"d": {"lattice": {"gram": g}}}, check=check)

    def _class_check(self, rng, name, j):
        bfield, omega0, kappa_d = self._random_exp(rng)

        def check(out, _):
            _, _, wsq = oracle.exp_class_components(bfield, omega0, kappa_d)
            if out != {"valid": True, "type": "A", "norm": quad_text(2 * wsq)}:
                return f"class check {out}, expected norm {2 * wsq}"
            return None

        return Cmd(name, ["class", "check", "@d"], {"d": _exp_class_doc(bfield, omega0, kappa_d)}, check=check)

    def _lpsi(self, rng, name, j):
        bfield, omega0, kappa_d = self._random_exp(rng)

        def check(out, _):
            inv = oracle.exp_class_invariant(bfield, omega0, kappa_d)[0]
            if out["rank"] != 2 or out["reduced"] != [list(r) for r in inv]:
                return f"lpsi rank {out['rank']} reduced {out['reduced']}, expected {inv}"
            return None

        return Cmd(name, ["class", "lpsi", "@d"], {"d": _exp_class_doc(bfield, omega0, kappa_d)}, check=check)

    def _bfield(self, rng, name, j):
        bfield, omega0, kappa_d = self._random_exp(rng)
        doc = _exp_class_doc([0] * 22, omega0, kappa_d)
        doc["bfield"] = [quad_text(x) for x in bfield]

        def check(out, _):
            want = _exp_class_doc(bfield, omega0, kappa_d)["class"]
            want["deg0"] = {"re": "1", "im": "0"}
            return None if out == {"class": want} else "B-field transform differs from exp(B + i omega)"

        return Cmd(name, ["class", "bfield", "@d"], {"d": doc}, check=check)

    def _forms(self, rng, name, j):
        max_det = rng.randint(5, 60)

        def check(out, _):
            want = [[list(r) for r in f] for f in oracle.reduced_forms(max_det)]
            return None if out == {"forms": want} else f"forms up to {max_det} differ"

        return Cmd(name, ["rigid", "forms", "--max-det", str(max_det)], check=check)

    def _dolgachev(self, rng, name, j):
        n = rng.randint(1, 5)
        v = _u_vector({rng.randrange(3): (1, n)})

        def check(out, _):
            if out["result"] != "mirror" or out["duality"]["verdict"] == "Distinguished":
                return f"dolgachev of <{2 * n}>: {out['result']}"
            g = out["n_gram"]
            if len(g) != 19 or any(g[i][i] % 2 for i in range(19)) or abs(oracle.det(g)) != 2 * n:
                return "mirror lattice is not even of rank 19 with |det| 2n"
            return None

        return Cmd(name, ["mirror", "dolgachev", "@d"], {"d": _k3_sub([v])}, check=check)

    def _complement(self, rng, name, j):
        v = [0] * 22
        for s in rng.sample(range(8), 3):
            v[s] = rng.randint(-3, 3)
        if not any(v):
            v[0] = 1

        def check(out, _):
            basis = out["basis"]
            if out["rank"] != 21 or len(basis) != 21:
                return f"complement rank {out['rank']}"
            if any(oracle.pair(oracle.K3_GRAM, row, v) for row in basis):
                return "complement basis is not orthogonal"
            if out["gram"] != [[oracle.pair(oracle.K3_GRAM, x, y) for y in basis] for x in basis]:
                return "complement Gram is wrong"
            return None

        return Cmd(name, ["lattice", "complement", "@d"], {"d": _k3_sub([v])}, check=check)

    def _error(self, rng, name, j):
        kind = j % 5
        if kind == 0:
            k = rng.choice((-3, -1, 2, 5))
            doc = {"class": {"deg0": "1", "deg2": ["0"] * 22, "deg4": str(k)}}
            return Cmd(name, ["class", "check", "@d"], {"d": doc}, 1, error=f"not isotropic: <phi,phi> = {-2 * k}")
        if kind == 1:
            d = rng.choice((4, 8, 9, 12, 18, 20))
            return Cmd(name, ["lattice", "info", "@d"], {"d": {"sqrt_d": d, "lattice": {"named": "U"}}}, 2, error="at document.sqrt_d:")
        if kind == 2:
            m = rng.randint(2, 5)
            doc = {"lattice": {"gram": [[2, m + 1], [m + 1, 2]]}}
            return Cmd(name, ["lattice", "reduce2", "@d"], {"d": doc}, 1, error="rank-2 reduction needs a positive definite form")
        if kind == 3:
            n = rng.choice((21, 23, 24))
            doc = {"class": {"deg0": "1", "deg2": ["0"] * n, "deg4": "0"}}
            return Cmd(name, ["class", "check", "@d"], {"d": doc}, 2, error=f"at document.class.deg2: expected 22 entries, got {n}")
        doc = {"class": {"deg0": 0.5, "deg2": ["0"] * 22, "deg4": "0"}}
        return Cmd(name, ["class", "check", "@d"], {"d": doc}, 2, error="at document.class.deg0: floats are not exact")


WORKLOADS = {w.name: w for w in (SurveyWorkload, Rank22Workload, CliWorkload)}


def import_gk3():
    """Import gk3 and the modules the in-process workloads call."""
    import gk3
    import gk3.lattices
    import gk3.mukai
    import gk3.pairs
    import gk3.rigidity
    import gk3.scalars

    oracle.check_conventions(gk3.mukai.K3_GRAM, gk3.mukai.MUKAI_GRAM)
    return gk3


def env_with_src(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env
