"""Run one `haartest` CLI op with the package's public functions timed.

Usage: python3 perfbench/tracer.py OUT_PREFIX OP_ID -- <haartest CLI args>

The package is not changed. Before the CLI starts, every public (no leading
underscore) module-level function of each `haartest` module, and every
public method of the classes those modules define, is replaced by a wrapper
that records a span: name, start, end, parent span, thread and op id. The
wrapper is patched into every `haartest` namespace that imported the name,
since e.g. `characteristics` does `from .operators import kernel_matrix`.
Span stacks are kept per thread, because `cli.run_characteristics` runs pairs
in a thread pool; a pool thread's outermost span takes the main thread's
current span as its parent. Spans stay in memory and are written out at exit
to OUT_PREFIX.spans.json. OUT_PREFIX.summary.json gets their per-function and
per-layer self times (`summarize`), the `cache_info()` deltas of the lru
caches and the `nbytes` of the distinct arrays the dense-matrix makers
returned.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
import types
import weakref
from collections import defaultdict
from functools import cached_property

LAYERS = ("dyadic", "measure", "haar", "operators", "characteristics",
          "experiments", "frames", "cli")

# lru-cached functions whose hits and misses are read from outside.
CACHED = ("operators.kernel_matrix", "haar.cached_system")

# Functions that return dense arrays: the nbytes of each distinct array they return is
# summed. This is memory allocated, not memory traffic.
DENSE_ARRAYS = ("operators.kernel_matrix", "haar.HaarSystem.values_matrix")


class Tracer:
    """Span recorder for one op. Create it, `install()` it, then run the CLI."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list = []  # (span id, parent id, name, start, end, thread)
        self.wrapped: list = []
        self.cache_start: dict = {}
        self._originals: dict = {}
        self._ids = itertools.count()
        self._stacks: dict = {}
        self._main = threading.main_thread().ident
        self._arrays: dict = defaultdict(dict)  # name -> {id(array): weakref}
        self._nbytes: dict = defaultdict(int)
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        stacks, spans, ids, main = self._stacks, self.spans, self._ids, self._main
        note_array = self._note_array if name in DENSE_ARRAYS else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = threading.get_ident()
            stack = stacks.get(ident)
            if stack is None:
                stack = stacks.setdefault(ident, [])
            parent = stack[-1] if stack else None
            if parent is None and ident != main:
                try:
                    parent = stacks.get(main, [None])[-1]
                except IndexError:
                    parent = None
            sid = next(ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, ident))
            if note_array is not None:
                note_array(name, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        self.wrapped.append(name)
        return traced

    def _note_array(self, name: str, result) -> None:
        nbytes = getattr(result, "nbytes", None)
        if nbytes is None:
            return
        with self._lock:
            seen = self._arrays[name]
            ref = seen.get(id(result))
            if ref is not None and ref() is result:
                return
            seen[id(result)] = weakref.ref(result)
            self._nbytes[name] += int(nbytes)

    def install(self) -> None:
        """Wrap every public function and method of the `haartest` modules."""
        replacements: dict = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"haartest.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(name, obj)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    replacements[id(obj)] = (obj, self.wrap(name, obj))
                    self._originals[name] = obj
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "haartest" or modname.startswith("haartest.")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        for name in CACHED:
            fn = self._originals.get(name)
            if fn is not None and hasattr(fn, "cache_info"):
                self.cache_start[name] = fn.cache_info()

    def _wrap_class(self, prefix: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(member, types.FunctionType):
                setattr(cls, attr, self.wrap(name, member))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, member.__func__)))
            elif isinstance(member, cached_property):
                member.func = self.wrap(name, member.func)

    def caches(self) -> dict:
        out = {}
        for name, before in self.cache_start.items():
            after = self._originals[name].cache_info()
            out[name] = {"hits": after.hits - before.hits,
                         "misses": after.misses - before.misses}
        return out

    def dump(self, prefix: str) -> None:
        with open(f"{prefix}.spans.json", "w") as fh:
            json.dump({"op_id": self.op_id, "spans": self.spans}, fh, separators=(",", ":"))
        summary = {"op_id": self.op_id, "wrapped": sorted(self.wrapped),
                   "caches": self.caches(), "array_bytes": dict(self._nbytes),
                   **summarize(self.spans)}
        with open(f"{prefix}.summary.json", "w") as fh:
            json.dump(summary, fh)


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list) -> dict:
    """Per-function and per-layer call counts, wall and self times.

    A span's self time is its duration minus the part of it that its child
    spans cover, children in pool threads included (their overlap counts
    once). A layer's `self_s` sums its spans' self times. A function's
    `self_s` is its time in its own layer: its duration minus the part
    covered by calls into other layers, so `kernel_matrix` keeps the
    `points_matrix` build it delegates to.
    """
    # Spans are appended when they end, so children precede their parents.
    layer_of = {sid: name.split(".", 1)[0] for sid, _, name, _, _, _ in spans}
    children: dict = defaultdict(list)
    same_layer: dict = defaultdict(float)
    functions: dict = defaultdict(lambda: {"calls": 0, "wall_s": 0.0, "self_s": 0.0})
    layers: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid, parent, name, start, end, _ in spans:
        own = (end - start) - _covered(children.pop(sid, []))
        in_layer = own + same_layer.pop(sid, 0.0)
        layer = layer_of[sid]
        if parent is not None:
            children[parent].append((start, end))
            if layer_of.get(parent) == layer:
                same_layer[parent] += in_layer
        layers[layer]["calls"] += 1
        layers[layer]["self_s"] += own
        fn = functions[name]
        fn["calls"] += 1
        fn["wall_s"] += end - start
        fn["self_s"] += in_layer
    return {"functions": dict(functions), "layers": dict(layers)}


def main(argv: list) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py OUT_PREFIX OP_ID -- <haartest CLI args>", file=sys.stderr)
        return 2
    prefix, op_id, cli_args = argv[0], argv[1], argv[3:]
    tracer = Tracer(op_id)
    tracer.install()
    cli = importlib.import_module("haartest.cli")
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
