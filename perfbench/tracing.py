"""Layer tracing of toricfrob from outside the library.

``Tracer.install`` replaces the public functions at each module boundary of
``toricfrob`` with wrappers that record a span (name, parent, start, end) and
the counters of that layer, then call the original and return its result
unchanged.  Every module namespace that holds the original is patched, so
calls between library modules are seen too.  ``Tracer.uninstall`` puts the
originals back.

The exact kernels of ``linalg`` run up to ~200k times per question, so they
get no span of their own: their calls, time and matrix cells are aggregated
per kernel, and their time is charged to the span that called them.

A layer's self time is the time of its spans minus the time of their child
spans and of the kernels they called.  The self times of all layers plus
``run.client_s`` (the client's own per-question code) add up to the traced
wall time, up to the gaps between questions.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path

_END, _KERNEL = 3, 4

# Self-time metrics that partition the traced wall time.
SELF_TIME_METRICS = (
    "fan.build_s",
    "catalog.self_s",
    "frobenius.residue_s",
    "frobenius.certify_self_s",
    "cohomology.self_s",
    "ext.self_s",
    "structure.self_s",
    "cech.self_s",
    "linalg.solve_rational.s",
    "linalg.rank_rational.s",
    "linalg.rank_mod_p.s",
    "run.client_s",
)

# Span name -> the self-time metric its self time is charged to.
_SELF_METRIC = {
    "run.question": "run.client_s",
    "fan.build_fan": "fan.build_s",
    "fan.constructor": "fan.build_s",
    "catalog.run": "catalog.self_s",
    "frobenius.decompose": "frobenius.residue_s",
    "frobenius.certify": "frobenius.certify_self_s",
    "cohomology.class": "cohomology.self_s",
    "cohomology.divisor": "cohomology.self_s",
    "ext.table": "ext.self_s",
    "ext.verdict": "ext.self_s",
    "structure.jet": "structure.self_s",
    "cech.incidence": "cech.self_s",
}

# Constructors in ``toricfrob.fan`` and ``toricfrob.varieties`` that build a
# fan; together with ``build_fan`` they make up the fan layer.
_FAN_BUILDERS = {
    "fan": ("product_fan", "blowup_fan", "projectivization_fan"),
    "varieties": (
        "projective_space",
        "projective_line",
        "projective_plane",
        "product",
        "p1xp1",
        "hirzebruch_one",
        "del_pezzo",
        "projective_bundle",
        "named_variety",
    ),
}

# rank_mod_p is counted apart for each of its two callers.
_MOD_P_KERNELS = ("linalg.rank_mod_p.structure", "linalg.rank_mod_p.cech")
_KERNELS = ("linalg.solve_rational", "linalg.rank_rational") + _MOD_P_KERNELS

_COUNTS = (
    "fan.build_calls",
    "catalog.run_calls",
    "frobenius.decompose_calls",
    "frobenius.distinct_questions",
    "frobenius.characters",
    "frobenius.certify_calls",
    "cohomology.class_calls",
    "cohomology.distinct_classes",
    "cohomology.recomputed_classes",
    "ext.table_calls",
    "ext.verdict_calls",
    "ext.pairs",
    "structure.jet_calls",
    "cech.incidence_calls",
)

_MODULES = (
    "fan",
    "varieties",
    "catalog",
    "frobenius",
    "cohomology",
    "ext",
    "structure",
    "cech",
    "linalg",
)


def _shape(mat):
    """Rows and columns of a list of rows or a 2-D array."""
    return len(mat), len(mat[0]) if len(mat) else 0


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans = []  # [name, parent index, start, end, kernel seconds]
        self.counts = Counter()
        # kernel name -> Counter of calls, s, cells, max_cells, certify_s
        self.kernels = {name: Counter() for name in _KERNELS}
        self._stack = []
        self._certify_depth = 0
        self._patches = []
        # id(fan) -> (fan, value key); holding the fan keeps its id unique
        # for the tracer's life, across install and uninstall.
        self._fan_keys = {}
        self._seen = {}  # counter name -> set of keys

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        self.spans[sid][_END] = time.perf_counter()
        self._stack.pop()

    def question(self, fn):
        """Run ``fn`` as one root span of the benchmark's own code."""
        sid = self._open("run.question")
        try:
            return fn()
        finally:
            self._close(sid)

    def _span(self, name, fn, count=None, before=None, after=None):
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            if before:
                before(*args, **kwargs)
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, name, fn):
        stats = self.kernels[name]

        def wrapper(mat, *args, **kwargs):
            rows, cols = _shape(mat)
            start = time.perf_counter()
            try:
                return fn(mat, *args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                stats["calls"] += 1
                stats["s"] += dt
                stats["cells"] += rows * cols
                stats["max_cells"] = max(stats["max_cells"], rows * cols)
                if self._certify_depth:
                    stats["certify_s"] += dt
                if self._stack:
                    self.spans[self._stack[-1]][_KERNEL] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ----------------------------------------------------------

    def _fan_key(self, fan):
        entry = self._fan_keys.get(id(fan))
        if entry is None:
            entry = (fan, (fan.rays, fan.max_cones))
            self._fan_keys[id(fan)] = entry
        return entry[1]

    def _first(self, name, key) -> bool:
        seen = self._seen.setdefault(name, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _on_decompose(self, fan, divisor, order, *args, **kwargs):
        self.counts["frobenius.characters"] += order.q**fan.dim
        key = (self._fan_key(fan), tuple(divisor), order.q)
        if self._first("decompose", key):
            self.counts["frobenius.distinct_questions"] += 1

    def _on_class(self, fan, cls):
        key = (self._fan_key(fan), cls)
        new_on_instance = self._first("class_on_instance", (id(fan), cls))
        if self._first("class", key):
            self.counts["cohomology.distinct_classes"] += 1
        elif new_on_instance:
            self.counts["cohomology.recomputed_classes"] += 1

    def _on_table(self, report):
        self.counts["ext.pairs"] += len(report.per_pair)

    # -- installation ------------------------------------------------------

    def _patch(self, mods, original, wrapper, only=None):
        for mod in mods:
            if only is not None and mod.__name__.rsplit(".", 1)[-1] not in only:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, tf):
        """Wrap the public functions of every layer of the package ``tf``."""
        mods = [tf] + [
            importlib.import_module(f"{tf.__name__}.{name}") for name in _MODULES
        ]
        fan_mod, linalg = mods[1], mods[-1]
        self._patch(mods, fan_mod.build_fan,
                    self._span("fan.build_fan", fan_mod.build_fan, "fan.build_calls"))
        for mod_name, names in _FAN_BUILDERS.items():
            mod = importlib.import_module(f"{tf.__name__}.{mod_name}")
            for name in names:
                fn = getattr(mod, name)
                self._patch(mods, fn, self._span("fan.constructor", fn))
        self._patch(mods, tf.catalog_run,
                    self._span("catalog.run", tf.catalog_run, "catalog.run_calls"))
        self._patch(mods, tf.frobenius_decompose, self._span(
            "frobenius.decompose", tf.frobenius_decompose,
            "frobenius.decompose_calls", before=self._on_decompose))
        self._patch(mods, tf.verify_projection_formula, self._certify(
            tf.verify_projection_formula))
        self._patch(mods, tf.cohomology_of_class, self._span(
            "cohomology.class", tf.cohomology_of_class, "cohomology.class_calls",
            before=self._on_class))
        self._patch(mods, tf.cohomology,
                    self._span("cohomology.divisor", tf.cohomology))
        self._patch(mods, tf.ext_table, self._span(
            "ext.table", tf.ext_table, "ext.table_calls", after=self._on_table))
        self._patch(mods, tf.tilting_verdict, self._span(
            "ext.verdict", tf.tilting_verdict, "ext.verdict_calls"))
        self._patch(mods, tf.delpezzo_jet_check, self._span(
            "structure.jet", tf.delpezzo_jet_check, "structure.jet_calls"))
        self._patch(mods, tf.incidence_cohomology, self._span(
            "cech.incidence", tf.incidence_cohomology, "cech.incidence_calls"))
        for kernel in ("solve_rational", "rank_rational"):
            fn = getattr(linalg, kernel)
            self._patch(mods, fn, self._kernel(f"linalg.{kernel}", fn),
                        only=("cohomology",))
        for parent in ("structure", "cech"):
            self._patch(mods, linalg.rank_mod_p,
                        self._kernel(f"linalg.rank_mod_p.{parent}", linalg.rank_mod_p),
                        only=(parent,))

    def _certify(self, fn):
        inner = self._span("frobenius.certify", fn, "frobenius.certify_calls")

        def wrapper(*args, **kwargs):
            self._certify_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._certify_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time of every span, summed into its layer metric."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for sid, (name, _, start, end, kernel) in enumerate(self.spans):
            out[_SELF_METRIC[name]] += end - start - child[sid] - kernel
        k = self.kernels
        out["linalg.solve_rational.s"] = k["linalg.solve_rational"]["s"]
        out["linalg.rank_rational.s"] = k["linalg.rank_rational"]["s"]
        out["linalg.rank_mod_p.s"] = sum(k[name]["s"] for name in _MOD_P_KERNELS)
        return out

    def metrics(self) -> dict:
        """Every per-layer metric of the traced pass, by name."""
        out = self.self_times()
        out["frobenius.certify_s"] = sum(
            end - start
            for name, _, start, end, _ in self.spans
            if name == "frobenius.certify"
        )
        for name in _COUNTS:
            out[name] = self.counts[name]
        calls = self.counts["frobenius.decompose_calls"]
        out["frobenius.ask_ratio"] = (
            self.counts["frobenius.distinct_questions"] / calls if calls else 0.0
        )
        k = self.kernels
        for name in ("linalg.solve_rational", "linalg.rank_rational"):
            out[f"{name}.calls"] = k[name]["calls"]
            out[f"{name}.certify_s"] = k[name]["certify_s"]
        out["linalg.rank_rational.cells"] = k["linalg.rank_rational"]["cells"]
        mod_p = [k[name] for name in _MOD_P_KERNELS]
        out["linalg.rank_mod_p.calls"] = sum(m["calls"] for m in mod_p)
        out["linalg.rank_mod_p.cells"] = sum(m["cells"] for m in mod_p)
        out["linalg.rank_mod_p.max_cells"] = max(m["max_cells"] for m in mod_p)
        out["linalg.rank_mod_p.bytes_computed"] = 8 * out["linalg.rank_mod_p.cells"]
        for name in _MOD_P_KERNELS:
            for key in ("calls", "s", "cells", "max_cells"):
                out[f"{name}.{key}"] = k[name][key]
            out[f"{name}.bytes_computed"] = 8 * k[name]["cells"]
        return out

    def write(self, path: Path) -> None:
        """Write every span and counter as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "span_fields": ["name", "parent", "start", "end", "kernel_s"],
            "spans": self.spans,
            "counts": dict(self.counts),
            "kernels": {k: dict(v) for k, v in self.kernels.items()},
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))
