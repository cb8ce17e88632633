"""Per-layer tracing of gk3 from outside the package.

``Tracer.install`` wraps the public functions named in ``SPANNED`` and
``COUNTED``.  A module that did ``from .intlinalg import hnf_basis`` holds
its own binding of the function, so the wrapper replaces every attribute
of every loaded ``gk3.*`` module that is the original object, not only the
one in the home module.

A span records name, start, end, parent span and op id.  Self time is a
span's duration minus the time covered by its child spans.  The
``lru_cache`` statistics are read from outside as ``cache_info()`` deltas;
a cache that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

SPANNED = {
    "gk3.intlinalg": ("hnf", "hnf_basis", "int_kernel", "saturate", "snf_divisors", "det", "sym_signature"),
    "gk3.lattices": ("ortho_complement", "discriminant", "gauss_reduce2", "invariants_match", "find_hyperbolic_split"),
    "gk3.mukai": ("exponential_class", "check_gcy", "support_in", "bfield_transform", "mukai_pairing"),
    "gk3.pairs": ("validate_gk3", "neron_severi", "transcendental"),
    "gk3.rigidity": ("kahler_rigid_survey", "is_kahler_rigid"),
    "gk3.mirror": ("build_si_mirror", "mirror_check", "dolgachev_mirror", "check_polarization"),
    "gk3.serialize": ("parse_document", "dumps_canonical"),
}
COUNTED = {"gk3.scalars": ("check_field_tag",)}
CACHES = {
    "cached_signature": "gk3.intlinalg",
    "cached_det": "gk3.intlinalg",
    "_support_cached": "gk3.mukai",
    "_sparse_rows": "gk3.mukai",
    "_named": "gk3.lattices",
}
MAX_SPANS = 50_000  # spans kept for the trace file; aggregates cover every call


def _entry_bits(x) -> int:
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, (tuple, list)):
        return max((_entry_bits(y) for y in x), default=0)
    return 0


def _arg_key(args, kwargs):
    return tuple(tuple(a) if isinstance(a, list) else a for a in args) + tuple(sorted(kwargs.items()))


class Tracer:
    """Span and counter recorder; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.spans: list[list] = []
        self.stack: list[list] = []  # [span id, child seconds]
        self.op = -1
        self.counts: dict[str, int] = {}
        self.max_entry_bits = 0
        self.exp_keys: set = set()
        self.absent: list[str] = []
        self._cache_start: dict[str, tuple[int, int] | None] = {}
        self._caches: dict = {}

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        mods = [m for name, m in list(sys.modules.items()) if name == "gk3" or name.startswith("gk3.")]
        for modname, fnames in SPANNED.items():
            home = sys.modules.get(modname)
            for fname in fnames:
                key = f"{modname[4:]}.{fname}"
                orig = getattr(home, fname, None) if home else None
                if orig is None:
                    self.absent.append(key)
                    continue
                self._rebind(mods, orig, self._span_wrapper(orig, key))
        for modname, fnames in COUNTED.items():
            home = sys.modules.get(modname)
            for fname in fnames:
                key = f"{modname[4:]}.{fname}.calls"
                orig = getattr(home, fname, None) if home else None
                if orig is None:
                    self.absent.append(key)
                    continue
                self._rebind(mods, orig, self._count_wrapper(orig, key))
        self._count_constructions()
        for cname, modname in CACHES.items():
            fn = getattr(sys.modules.get(modname), cname, None)
            if fn is None or not hasattr(fn, "cache_info"):
                self._cache_start[cname] = None
                continue
            info = fn.cache_info()
            self._caches[cname] = fn
            self._cache_start[cname] = (info.hits, info.misses)

    @staticmethod
    def _rebind(mods, orig, wrapper) -> None:
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapper)

    def _count_constructions(self) -> None:
        cls = getattr(sys.modules.get("gk3.scalars"), "QuadScalar", None)
        init = vars(cls).get("__init__") if cls is not None else None
        if init is None:
            self.absent.append("scalars.QuadScalar.constructed")
            return
        cls.__init__ = self._count_wrapper(init, "scalars.QuadScalar.constructed")

    def _count_wrapper(self, fn, key):
        counts = self.counts
        counts[key] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, key):
        idx = len(self.names)
        self.names.append(key)
        self.calls.append(0)
        self.self_s.append(0.0)
        measure_bits = key.startswith("intlinalg.")
        keep_args = key == "mukai.exponential_class"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, spans = tracer.stack, tracer.spans
            if measure_bits and args:
                tracer.max_entry_bits = max(tracer.max_entry_bits, _entry_bits(args[0]))
            if keep_args:
                tracer.exp_keys.add(_arg_key(args, kwargs))
            parent = stack[-1][0] if stack else -1
            sid = len(spans) if len(spans) < MAX_SPANS else -1
            start = perf_counter()
            if sid >= 0:
                spans.append([idx, start, None, parent, tracer.op])
            frame = [sid, 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                tracer.calls[idx] += 1
                tracer.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if sid >= 0:
                    spans[sid][2] = end
            if measure_bits:
                tracer.max_entry_bits = max(tracer.max_entry_bits, _entry_bits(out))
            return out

        return wrapper

    # -- results ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates as plain JSON data (mergeable across processes)."""
        caches = {}
        for cname, start in self._cache_start.items():
            if start is None:
                caches[cname] = None
                continue
            info = self._caches[cname].cache_info()
            caches[cname] = [info.hits - start[0], info.misses - start[1]]
        exp_calls = self.calls[self.names.index("mukai.exponential_class")] if "mukai.exponential_class" in self.names else 0
        return {
            "layers": {n: [c, s] for n, c, s in zip(self.names, self.calls, self.self_s)},
            "counts": dict(self.counts),
            "max_entry_bits": self.max_entry_bits,
            "exp_calls": exp_calls,
            "exp_distinct": len(self.exp_keys),
            "caches": caches,
            "absent": list(self.absent),
        }

    def span_rows(self) -> list[list]:
        """Finished spans as [name, start, end, parent span, op id]."""
        return [
            [self.names[idx], start, end, parent, op]
            for idx, start, end, parent, op in self.spans
            if end is not None
        ]


def merge(total: dict | None, part: dict) -> dict:
    """Sum two snapshots; used for the per-command snapshots of the cli workload."""
    if total is None:
        total = json.loads(json.dumps(part))
        total["import_n"] = int("import_s" in part)
        return total
    for name, (c, s) in part["layers"].items():
        t = total["layers"].setdefault(name, [0, 0.0])
        t[0] += c
        t[1] += s
    for name, c in part["counts"].items():
        total["counts"][name] = total["counts"].get(name, 0) + c
    total["max_entry_bits"] = max(total["max_entry_bits"], part["max_entry_bits"])
    total["exp_calls"] += part["exp_calls"]
    total["exp_distinct"] += part["exp_distinct"]  # distinct within each process
    for cname, hm in part["caches"].items():
        if hm is None:
            total["caches"].setdefault(cname, None)
            continue
        cur = total["caches"].get(cname) or [0, 0]
        total["caches"][cname] = [cur[0] + hm[0], cur[1] + hm[1]]
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))
    if "import_s" in part:
        total["import_s"] = total.get("import_s", 0.0) + part["import_s"]
        total["import_n"] = total.get("import_n", 0) + 1
    return total
