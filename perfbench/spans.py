"""Spans around the public functions of each betaring layer.

Wrappers are installed from here, by replacing each function in FUNCTIONS
in every betaring module namespace that binds it (so calls between modules
are seen too), and each method in METHODS (Catalog.identify,
Catalog.from_json, PermGroup.generate, ...) on its class.  The program's
files are not changed.

A span records name, start, end and parent; spans stay in memory and are
summarized (and written out) when the pass ends.  A span name's first
component is its layer.  A layer's self time is the duration of its spans
minus the time covered by their children, so the self times of all layers,
with the benchmark's own "bench.op" spans around each call, sum to the
traced pass time.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array

# (module, attribute, span name)
FUNCTIONS = [
    ("catalog", "get_catalog", "catalog.get_catalog"),
    ("catalog", "build_catalog", "catalog.build_catalog"),
    ("catalog", "identify", "catalog.api"),
    ("catalog", "table_of_marks", "catalog.api"),
    ("catalog", "enumerate_classes", "catalog.api"),
    ("catalog", "mark", "catalog.api"),
    ("perms", "direct_embed", "perms.other"),
    ("perms", "wreath", "perms.other"),
    ("perms", "mixed_wreath", "perms.other"),
    ("perms", "orbit_partition", "perms.other"),
    ("perms", "normalizer_order", "perms.other"),
    ("perms", "are_conjugate", "perms.other"),
    ("perms", "all_subgroups", "perms.other"),
    ("bring", "product", "bring.product"),
    ("bring", "diagonal", "bring.diagonal"),
    ("bring", "star", "bring.star"),
    ("bring", "star_effective", "bring.star"),
    ("bring", "star_basis", "bring.star"),
    ("bring", "eval_z", "bring.eval"),
    ("bring", "eval_burnside", "bring.eval"),
    ("bring", "beta_upper", "bring.other"),
    ("bring", "beta_regular", "bring.other"),
    ("adams", "solve_psi_K", "adams.solve_psi_K"),
    ("adams", "psi_upper", "adams.psi"),
    ("adams", "psi_partition", "adams.psi"),
    ("adams", "check_prop_adams", "adams.other"),
    ("adams", "check_gcd", "adams.other"),
    ("symfunc", "lin", "symfunc.lin"),
    ("symfunc", "lin2", "symfunc.lin"),
    ("symfunc", "plethysm", "symfunc.plethysm"),
    ("symfunc", "coproduct", "symfunc.coproduct"),
    ("symfunc", "cycle_index", "symfunc.other"),
    ("symfunc", "generator_check", "symfunc.other"),
    ("symfunc", "power_sum_mod2_congruence", "symfunc.other"),
    ("burnside", "beta_on_gset", "burnside.beta"),
    ("burnside", "beta2_on_gsets", "burnside.beta"),
    ("burnside", "beta_on_element", "burnside.beta"),
    ("burnside", "beta_virtual", "burnside.beta"),
    ("burnside", "orbit_decompose", "burnside.other"),
    ("burnside", "induce", "burnside.other"),
    ("burnside", "group_catalog", "burnside.other"),
    ("witt", "delta_m", "witt.other"),
    ("witt", "delta_m_dual_route_agrees", "witt.other"),
    ("witt", "eps_product", "witt.other"),
    ("checks", "run_suites", "checks.run_suites"),
    ("checks", "check_ag_axioms", "checks.suite"),
    ("checks", "check_operator_ring", "checks.suite"),
    ("checks", "check_adams", "checks.suite"),
    ("checks", "check_polya", "checks.suite"),
    ("checks", "check_witt", "checks.suite"),
    ("checks", "check_mod2", "checks.suite"),
    ("checks", "check_gcd_suite", "checks.suite"),
]

# (module, class, method, span name)
METHODS = [
    ("catalog", "Catalog", "identify", "catalog.identify"),
    ("catalog", "Catalog", "from_json", "catalog.from_json"),
    ("perms", "PermGroup", "generate", "perms.generate"),
    ("perms", "PermGroup", "from_elements", "perms.other"),
    ("bring", "BElement", "basis", "bring.other"),
    ("witt", "WittVector", "__mul__", "witt.mul"),
    ("witt", "WittVector", "__add__", "witt.other"),
]

LAYERS = ("bench", "catalog", "perms", "bring", "adams", "symfunc", "burnside", "witt", "checks")


class Tracer:
    def __init__(self):
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.failed = bytearray()
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.failed.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, ok: bool):
        self.end[idx] = time.perf_counter()
        if not ok:
            self.failed[idx] = 1
        self._stack.pop()

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def wrap(self, fn, name: str):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                self.close(idx, ok)

        return traced

    def wrap_identify(self, fn):
        """Catalog.identify, with the first call on each catalog named apart:
        it pays for the lazily built group table."""
        plain = self.wrap(fn, "catalog.identify")
        first = self.wrap(fn, "catalog.identify.first")
        seen: set[int] = set()

        @functools.wraps(fn)
        def traced(cat, h):
            if self.on and id(cat) not in seen:
                seen.add(id(cat))
                return first(cat, h)
            return plain(cat, h)

        return traced

    def install(self):
        """Install the wrappers; betaring and betaring.checks must be imported."""
        modules = [m for name, m in sys.modules.items() if name == "betaring" or name.startswith("betaring.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[f"betaring.{modname}"], attr)
            wrapped = self.wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for modname, clsname, attr, name in METHODS:
            cls = getattr(sys.modules[f"betaring.{modname}"], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif name == "catalog.identify":
                setattr(cls, attr, self.wrap_identify(raw))
            else:
                setattr(cls, attr, self.wrap(raw, name))

    def summary(self, paused_between=lambda start, end: 0.0) -> dict:
        """Per-layer metrics of all spans recorded.  paused_between(start,
        end) gives the time the program was interrupted (by calibration
        samples) inside an interval; it is taken out of every span, so no
        layer is charged for it."""
        n = len(self.name)
        names = self.names
        dur = [
            self.end[i] - self.start[i] - paused_between(self.start[i], self.end[i]) for i in range(n)
        ]
        child = [0.0] * n
        children: dict[int, list[int]] = {}
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                children.setdefault(p, []).append(i)
        self_by_layer = {layer: 0.0 for layer in LAYERS}
        stats: dict[str, list] = {}  # span name -> [calls, failed, inclusive s, self s]
        for i in range(n):
            name = names[self.name[i]]
            self_s = dur[i] - child[i]
            self_by_layer[name.split(".", 1)[0]] += self_s
            entry = stats.setdefault(name, [0, 0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.failed[i]
            entry[3] += self_s
            # inclusive time counts a recursive call (psi_upper, star) once
            p = self.parent[i]
            while p >= 0 and self.name[p] != self.name[i]:
                p = self.parent[p]
            if p < 0:
                entry[2] += dur[i]
        gid = self._ids.get("catalog.get_catalog")
        build_id = self._ids.get("catalog.build_catalog")
        load_id = self._ids.get("catalog.from_json")
        cat = {"build": [0, 0, 0.0], "load": [0, 0, 0.0], "hit": [0, 0, 0.0]}
        for i in range(n):
            if self.name[i] != gid:
                continue
            kids = {self.name[c] for c in children.get(i, ())}
            kind = "build" if build_id in kids else "load" if load_id in kids else "hit"
            cat[kind][0] += 1
            cat[kind][1] += self.failed[i]
            cat[kind][2] += dur[i]

        def s(name, k):
            return stats.get(name, [0, 0, 0.0, 0.0])[k]

        lookups = sum(v[0] for v in cat.values())
        out = {
            "catalog.build.count": cat["build"][0],
            "catalog.build.failed": cat["build"][1],
            "catalog.build.s": cat["build"][2],
            "catalog.load.count": cat["load"][0],
            "catalog.load.failed": cat["load"][1],
            "catalog.load.s": cat["load"][2],
            "catalog.memo_hit_ratio": cat["hit"][0] / lookups if lookups else 0.0,
            "catalog.identify.calls": s("catalog.identify", 0) + s("catalog.identify.first", 0),
            "catalog.identify.failed": s("catalog.identify", 1) + s("catalog.identify.first", 1),
            "catalog.identify.s": s("catalog.identify", 2) + s("catalog.identify.first", 2),
            "catalog.identify.first_s": s("catalog.identify.first", 2),
            "perms.generate.calls": s("perms.generate", 0),
            "perms.generate.failed": s("perms.generate", 1),
            "perms.generate.s": s("perms.generate", 2),
        }
        for op in ("product", "diagonal", "star", "eval"):
            out[f"bring.{op}.calls"] = s(f"bring.{op}", 0)
            out[f"bring.{op}.failed"] = s(f"bring.{op}", 1)
            out[f"bring.{op}.self_s"] = s(f"bring.{op}", 3)
        for op, span in (("solve_psi_K", "adams.solve_psi_K"), ("psi", "adams.psi")):
            out[f"adams.{op}.calls"] = s(span, 0)
            out[f"adams.{op}.failed"] = s(span, 1)
            out[f"adams.{op}.s"] = s(span, 2)
        for op in ("lin", "plethysm", "coproduct"):
            out[f"symfunc.{op}.calls"] = s(f"symfunc.{op}", 0)
            out[f"symfunc.{op}.failed"] = s(f"symfunc.{op}", 1)
            out[f"symfunc.{op}.s"] = s(f"symfunc.{op}", 2)
        out["witt.mul.calls"] = s("witt.mul", 0)
        out["witt.mul.failed"] = s("witt.mul", 1)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_by_layer[layer]
        out["trace.wall_s"] = sum(dur[i] for i in range(n) if self.parent[i] < 0)
        out["trace.spans"] = n
        return out

    def dump(self, path):
        with gzip.open(path, "wt") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "parent": self.parent.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "failed": list(self.failed),
                },
                fh,
            )


class _Span:
    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid
        self.idx = -1

    def __enter__(self):
        if self.tracer.on:
            self.idx = self.tracer.open(self.nid)
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.idx >= 0:
            self.tracer.close(self.idx, exc_type is None)
