"""Outside-in tracing: spans around the public functions of tricontact's layers.

Each wrapped function is replaced at the module attribute through which its
callers look it up (`assemble` imports `solve_contacts` by name, so the
wrapper goes on `tricontact.assemble.solve_contacts`).  A span records its
name, start, end and parent; spans stay in memory until the run writes them
out.  A span's self time is its duration minus the time its child spans
cover, and it counts toward the layer of its nearest wrapped ancestor when
that ancestor is a verifier check, so constructor code the verifier calls
(the face gap) is charged to the check that called it.

Kernel call counts come from a separate pass (`kernel_counts`), so that
their wrappers do not inflate the layer times.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager


def _count_solve(counts: Counter, result) -> None:
    counts["solver.solve_contacts_calls"] += 1
    counts["solver.restarts"] += getattr(result, "restarts_used", 0)
    counts["solver.iterations"] += getattr(result, "iterations", 0)


def _count_pieces(counts: Counter, result) -> None:
    counts["planar.pieces"] += len(getattr(result, "pieces", ()))


def _count_call(key: str):
    def count(counts: Counter, _result) -> None:
        counts[key] += 1
    return count


# (module, attribute, span name, self-time metric, counter fed by the result)
SPANS = (
    ("tricontact.assemble", "represent", "assemble.represent", "assemble.represent_self_s", None),
    ("tricontact.planar", "decompose", "planar.decompose", "planar.decompose_s", _count_pieces),
    ("tricontact.assemble", "solve_stacked", "solver.solve_stacked", "solver.solve_stacked_s", None),
    ("tricontact.assemble", "solve_contacts", "solver.solve_contacts", "solver.solve_contacts_s",
     _count_solve),
    ("tricontact.assemble", "exactify", "solver.exactify", "solver.exactify_s", None),
    ("tricontact.assemble", "robustify", "solver.robustify", "solver.robustify_s", None),
    ("tricontact.perturb", "remove_all", "perturb.remove_all", "perturb.remove_all_s", None),
    ("tricontact.perturb", "find_bad_triples", "perturb.find_bad_triples",
     "perturb.find_bad_triples_s", None),
    ("tricontact.perturb", "face_gap_with_roles", "perturb.face_gap", "perturb.face_gap_s", None),
    ("tricontact.verify", "full_report", "verify.full_report", "verify.full_report_self_s", None),
    ("tricontact.verify", "intersection_graph", "verify.intersection_graph",
     "verify.intersection_graph_s", _count_call("verify.intersection_graph_calls")),
    ("tricontact.verify", "check_simple", "verify.check_simple", "verify.check_simple_s", None),
    ("tricontact.verify", "check_boundary", "verify.check_boundary", "verify.check_boundary_s", None),
    ("tricontact.verify", "check_face_condition", "verify.check_face_condition",
     "verify.check_face_condition_s", None),
    ("tricontact.verify", "extract_drawing", "verify.extract_drawing", "verify.extract_drawing_s",
     None),
    ("tricontact.verify", "count_crossings", "verify.count_crossings", "verify.count_crossings_s",
     None),
)

# Functions counted but not timed: (module, attribute, counter).
COUNTERS = (
    ("tricontact.perturb", "select_bad", "perturb.triple_rounds"),  # once per removal round
)

# Geometry kernels counted in the separate pass: (function name, counter).
KERNELS = (
    ("signed_height", "geometry.signed_height_calls"),
    ("segment_intersection_kind", "geometry.segment_intersection_kind_calls"),
)

BENCH_SPAN = "bench.instance"  # one operation; its self time is the benchmark's own code
ROOT_STAGE = "verify."         # spans below a verifier span count toward that span's layer


class _Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []
        self.absent: list[str] = []

    def get(self, module: str, attr: str):
        try:
            fn = getattr(importlib.import_module(module), attr, None)
        except ImportError:
            fn = None
        if fn is None:
            self.absent.append(f"{module}.{attr}")
        return fn

    def set(self, module: str, attr: str, fn) -> None:
        mod = importlib.import_module(module)
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, fn)

    def restore(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)


class Tracer:
    """Spans and counts of the traced rounds of one run."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent index or None, start, end]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def _counter(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        patches = _Patches()
        try:
            for module, attr, name, _metric, count in SPANS:
                fn = patches.get(module, attr)
                if fn is not None:
                    patches.set(module, attr, self._wrap(name, fn, count))
            for module, attr, key in COUNTERS:
                fn = patches.get(module, attr)
                if fn is not None:
                    patches.set(module, attr, self._counter(key, fn))
            self.absent = patches.absent
            yield self
        finally:
            patches.restore()

    def self_times(self) -> dict[str, float]:
        """Self time per layer metric, plus `bench` for the benchmark's own
        code inside operations and `wall` for the operations' whole time."""
        child = [0.0] * len(self.spans)
        layer: list[str] = []
        for name, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
                up = layer[parent]
                layer.append(up if up.startswith(ROOT_STAGE) and not name.startswith(ROOT_STAGE)
                             else name)
            else:
                layer.append(name)
        metric = {name: m for _mod, _attr, name, m, _count in SPANS}
        out = {m: 0.0 for m in metric.values()}
        out["bench"] = out["wall"] = 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            own = end - start - child[i]
            if layer[i] == BENCH_SPAN:
                out["bench"] += own
                if parent is None:
                    out["wall"] += end - start
            else:
                out[metric[layer[i]]] += own
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            for name, parent, start, end in self.spans:
                f.write(json.dumps({"name": name, "parent": parent,
                                    "start": start, "end": end}) + "\n")


@contextmanager
def kernel_counts(counts: Counter):
    """Count calls of the geometry kernels under every module name that binds
    them, for the duration of the block."""
    patches = _Patches()
    try:
        for fname, key in KERNELS:
            fn = patches.get("tricontact.geometry", fname)
            if fn is None:
                continue

            def counted(*args, _fn=fn, _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            for mod_name, mod in sorted(sys.modules.items()):
                if mod_name.startswith("tricontact") and getattr(mod, fname, None) is fn:
                    patches.set(mod_name, fname, counted)
        yield patches.absent
    finally:
        patches.restore()
