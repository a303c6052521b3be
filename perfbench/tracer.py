"""Spans around the library's public functions, installed from outside.

The CLI imports library names directly (`from .evolution import simulate`),
so a wrapper is bound to every `latticeheat.*` module attribute that refers to
the wrapped function, not only in the module that defines it. Functions that
run once per step are aggregated per (op, parent, name) instead of recording
one span per call. Spans stay in memory and are written out at the end.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("cli", "evolution", "domain", "spectral", "majorant")
PER_STEP = {
    "domain.neighbor_mean_interior",
    "spectral.apply_M",
    "evolution.step_nonlinear",
    "majorant.majorant_field",
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class _Frame:
    __slots__ = ("name", "span_id", "child_s")

    def __init__(self, name, span_id):
        self.name = name
        self.span_id = span_id
        self.child_s = 0.0


class Tracer:
    """Records spans and per-step aggregates for one traced pass."""

    def __init__(self, observers):
        # observers: name -> fn(tracer, args, result) that adds counts
        self.observers = observers
        self.spans = []  # (span_id, name, start, end, parent_id, op_id, self_s)
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (op, parent, name) -> calls, s, self s
        self.counts = defaultdict(int)  # (op_id, key) -> count
        self.samples = {}  # reference-loop inputs collected by observers
        self.op_id = None
        self._ids = itertools.count()
        self._stack: list[_Frame] = []
        self._patches = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"latticeheat.{layer}"]
            for attr, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        # Module attributes, and values of module-level dicts such as a
        # command table, that refer to a wrapped function.
        namespaces = []
        for name, module in list(sys.modules.items()):
            if name == "latticeheat" or name.startswith("latticeheat."):
                namespaces.append(vars(module))
                namespaces += [v for v in vars(module).values() if type(v) is dict]
        for namespace in namespaces:
            for key, obj in list(namespace.items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((namespace, key, obj))
                    namespace[key] = wrappers[id(obj)][1]

    def uninstall(self) -> None:
        for namespace, key, obj in reversed(self._patches):
            namespace[key] = obj
        self._patches.clear()

    def count(self, key: str, value: int = 1) -> None:
        self.counts[(self.op_id, key)] += value

    def _wrap(self, name, fn):
        stack = self._stack
        aggregate = name in PER_STEP
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = None if aggregate else next(self._ids)
            frame = _Frame(name, span_id)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent.child_s += duration
                self_s = duration - frame.child_s
                if aggregate:
                    entry = self.agg[(self.op_id, parent.name if parent else None, name)]
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += self_s
                else:
                    self.spans.append(
                        (span_id, name, start, end, parent.span_id if parent else None,
                         self.op_id, self_s)
                    )
            if observe is not None:
                try:
                    observe(self, args, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    self.count("observer_errors")
            return result

        return wrapper

    def totals(self):
        """name -> [calls, total s, self s] over spans and aggregates."""
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for _sid, name, start, end, _parent, _op, self_s in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += self_s
        for (_op, _parent, name), (calls, total, self_s) in self.agg.items():
            row = out[name]
            row[0] += calls
            row[1] += total
            row[2] += self_s
        return out

    def write(self, path: Path, ops) -> None:
        doc = {
            "ops": ops,
            "spans": [list(s) for s in self.spans],
            "aggregates": [[*key, *val] for key, val in self.agg.items()],
            "counts": [[op, key, v] for (op, key), v in self.counts.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))
