"""Per-layer tracing of sumprod from outside the program.

A layer is a sumprod module. A call crosses into layer L when it goes through
a function of module L that is bound in another sumprod module's namespace
(`from .repfn import rep_function`) or in the package namespace. `install`
replaces exactly those foreign bindings with wrappers, so calls inside a
module stay unwrapped and the program's own code is not edited.

`SpanTracer` records one span per crossing and the per-layer work counters
(counted for calls that return; a refused table does no work). `PeakTracer`
records tracemalloc peaks and is used in a pass of its own, because
tracemalloc slows Python-level allocation and would inflate self times.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict

MODULES = ("field", "setalgebra", "repfn", "energy", "regularize", "counting",
           "families", "verify", "suite", "report", "cli")
# `field` is left out on purpose: ElemSet construction happens inside every
# caller, so its time stays in the caller's self time. `report` holds only
# dataclasses and `cli` is driven by no workload.
TIMED_LAYERS = ("setalgebra", "repfn", "energy", "regularize", "counting",
                "families", "verify", "suite")
PEAK_LAYERS = ("repfn", "regularize")

# repfn entry points that build a table over A x B: (A, B, op, ...)
TABLE_MAKERS = ("rep_function", "count_spectrum", "_flat_sorted_int",
                  "_object_table")
# table builds made directly by these are one refinement round each
ROUND_OWNERS = ("xue_regularize", "regu_iterate")

COUNTERS = ("repfn.pairs", "repfn.div_inverses", "repfn.object_path_calls",
            "setalgebra.pairs", "families.search_steps", "regularize.rounds",
            "counting.triples", "suite.cells", "suite.cells_failed",
            "suite.files_written", "suite.bytes_written")


def install(sumprod, wrap) -> list:
    """Rebind every foreign binding of a timed-layer function to wrap(fn, layer).

    Returns (module, name, original) triples for `uninstall`.
    """
    modules = [sumprod] + [importlib.import_module(f"{sumprod.__name__}.{m}")
                           for m in MODULES]
    wrappers = {}
    patched = []
    for mod in modules:
        for name, obj in list(vars(mod).items()):
            if not inspect.isfunction(obj) or obj.__module__ == mod.__name__:
                continue
            owner, _, layer = obj.__module__.partition(".")
            if owner != sumprod.__name__ or layer not in TIMED_LAYERS:
                continue
            if obj not in wrappers:
                wrappers[obj] = wrap(obj, layer)
            setattr(mod, name, wrappers[obj])
            patched.append((mod, name, obj))
    return patched


def uninstall(patched: list) -> None:
    for mod, name, obj in patched:
        setattr(mod, name, obj)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def content_key(S) -> bytes:
    """Digest of a set's contents; ElemSet.__hash__ would build a tuple."""
    data = S.ints.tobytes() if S.ints is not None else repr(S.elements()).encode()
    return hashlib.blake2b(data, digest_size=16).digest() + \
        S.field.describe().encode()


class SpanTracer:
    """Spans (name, layer, start, end, parent, op) plus per-layer counters.

    Time spent in the tracer's own bookkeeping is measured and kept out of
    every span, so for one pass, with outside_s the traced wall time spent
    outside every span (the benchmark's own loop):
        sum(self_s over layers) + bookkeeping_s + outside_s == traced wall.
    run.py adds trace.wall_s, trace.outside_s and trace.overhead_ratio
    (traced wall / wall of an untraced pass in the same run).
    """

    def __init__(self):
        self.op_id = None
        self.spans = []
        self.stack = []              # open frames: [span index, child_s]
        self.depth = Counter()       # open spans per layer
        self.calls = Counter()
        self.busy_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.root_s = 0.0            # full extent of outermost spans
        self.bookkeeping_s = 0.0
        self.counts = Counter()
        self.unique = defaultdict(dict)   # layer -> {content key: pairs}
        self.keyed_calls = Counter()

    # -- counters taken at the layer boundary, for calls that returned ---------

    def _count(self, name, layer, args, kwargs, parent):
        if layer == "repfn" and name in TABLE_MAKERS:
            A, B = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 1, "B")
            op = _arg(args, kwargs, 2, "op")
            pairs = len(A) * len(B)
            self.counts["repfn.pairs"] += pairs
            if op == "div":
                self.counts["repfn.div_inverses"] += len(B)
            if A.ints is None or B.ints is None:
                self.counts["repfn.object_path_calls"] += 1
            self._key("repfn", (content_key(A), content_key(B), op), pairs)
            if parent is not None:
                if parent[1] == "setalgebra":
                    self.counts["setalgebra.pairs"] += pairs
                if parent[0] in ROUND_OWNERS:
                    self.counts["regularize.rounds"] += 1
        elif layer == "setalgebra":
            A = _arg(args, kwargs, 0, "A")
            if name == "combine":
                B = _arg(args, kwargs, 1, "B")
                key = (content_key(A), content_key(B), _arg(args, kwargs, 2, "op"))
            else:
                spec = _arg(args, kwargs, 1, "spec")
                key = (content_key(A), spec.k, spec.l)
            self._key("setalgebra", key, 0)
        elif name == "f_collision_count":
            self.counts["counting.triples"] += len(_arg(args, kwargs, 0, "X")) \
                * len(_arg(args, kwargs, 1, "Y")) * len(_arg(args, kwargs, 2, "Z"))
        elif name == "local_search_min_ratio":
            self.counts["families.search_steps"] += _arg(args, kwargs, 1, "steps")

    def _key(self, layer, key, pairs):
        self.keyed_calls[layer] += 1
        self.unique[layer][key] = pairs

    def _suite_done(self, args, kwargs, manifest):
        config = _arg(args, kwargs, 0, "config")
        if manifest is None:   # run_suite raised: one failed cell
            self.counts["suite.cells"] += 1
            self.counts["suite.cells_failed"] += 1
        else:
            self.counts["suite.cells"] += len(manifest.cells)
            self.counts["suite.cells_failed"] += sum(
                1 for c in manifest.cells if c["status"] == "error")
        if os.path.isdir(config.out_dir):
            for entry in os.scandir(config.out_dir):
                if entry.is_file():
                    self.counts["suite.files_written"] += 1
                    self.counts["suite.bytes_written"] += entry.stat().st_size

    # -- spans --------------------------------------------------------------------

    def wrap(self, fn, layer):
        name = fn.__name__
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            parent = self.stack[-1] if self.stack else None
            index = len(self.spans)
            nested = self.depth[layer] > 0
            self.spans.append([name, layer, 0.0, 0.0,
                               parent[0] if parent else None, self.op_id])
            frame = [index, 0.0]
            self.stack.append(frame)
            self.depth[layer] += 1
            result = None
            returned = False
            t1 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t2 = clock()
                self.stack.pop()
                self.depth[layer] -= 1
                span = self.spans[index]
                span[2], span[3] = t1, t2
                self.calls[layer] += 1
                self.self_s[layer] += (t2 - t1) - frame[1]
                if not nested:
                    self.busy_s[layer] += t2 - t1
                if returned:
                    self._count(name, layer, args, kwargs,
                                self.spans[parent[0]] if parent else None)
                if name == "run_suite":
                    self._suite_done(args, kwargs, result)
                t3 = clock()
                self.bookkeeping_s += (t1 - t0) + (t3 - t2)
                if parent is not None:
                    parent[1] += t3 - t0
                else:
                    self.root_s += t3 - t0
        return traced

    def layer_metrics(self) -> dict:
        out = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.busy_s"] = self.busy_s[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTERS:
            out[name] = self.counts[name]
        for layer in ("repfn", "setalgebra"):
            calls = self.keyed_calls[layer]
            uniq = self.unique[layer]
            out[f"{layer}.unique_call_ratio"] = len(uniq) / calls if calls else 1.0
        pairs = self.counts["repfn.pairs"]
        out["repfn.unique_pairs_ratio"] = \
            sum(self.unique["repfn"].values()) / pairs if pairs else 1.0
        out["trace.spans"] = len(self.spans)
        out["trace.bookkeeping_s"] = self.bookkeeping_s
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "layer": layer,
                                     "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


class PeakTracer:
    """Largest tracemalloc peak above the starting level within one call.

    tracemalloc runs only while a call into a PEAK_LAYERS layer is open. It
    still slows every Python allocation inside those calls (a modular
    inverse for a div table costs ~100x more under it), which is why this
    pass is separate from the timed ones.
    """

    def __init__(self):
        self.peak_bytes = Counter()
        self.stack = []   # open frames: [bytes at entry, peak so far]

    def wrap(self, fn, layer):
        if layer not in PEAK_LAYERS:
            return fn

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack:
                current, peak = tracemalloc.get_traced_memory()
                self.stack[-1][1] = max(self.stack[-1][1], peak)
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
                current = 0
            frame = [current, current]
            self.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                self.stack.pop()
                frame[1] = max(frame[1], peak)
                self.peak_bytes[layer] = max(self.peak_bytes[layer],
                                             frame[1] - frame[0])
                if self.stack:
                    self.stack[-1][1] = max(self.stack[-1][1], frame[1])
                    tracemalloc.reset_peak()
                else:
                    tracemalloc.stop()
        return traced

    def layer_metrics(self) -> dict:
        return {f"{layer}.peak_bytes": self.peak_bytes[layer]
                for layer in PEAK_LAYERS}
