"""In-memory span tracer over the public functions of the repisac modules.

``Tracer.install`` replaces every binding of each public function defined in
one of the layer modules, in every repisac module namespace: ``harness`` and
``detector`` reach ``run_sensing_trial``, ``redraw_nuisance`` and the rest
through ``from``-imports, so wrapping only the defining module would miss
those calls. ``uninstall`` puts the originals back.

A span is (function, parent span, start, end, failed). Spans are kept in
memory, packed into arrays after each study, and written out once at the end.
A span's self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("scenario", "channel", "precoding", "propagation", "detector",
          "comm_metrics", "harness")


def _repisac_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "repisac" or name.startswith("repisac.")) and m is not None]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.exceptions: Counter = Counter()  # (function, exception class) -> count
        self._wrappers: dict = {}    # original function -> wrapper
        self._rebound: list = []     # (module, attribute, original)
        self._spans: list = []
        self._stack = [-1]
        self._chunks: list[dict] = []
        self._offset = 0

    # -- binding ---------------------------------------------------------------

    def install(self) -> None:
        for module in _repisac_modules():
            for attr, value in list(vars(module).items()):
                if not isinstance(value, types.FunctionType):
                    continue
                layer = value.__module__.rpartition(".")[2]
                if layer not in LAYERS or value.__name__.startswith("_"):
                    continue
                if value not in self._wrappers:
                    self._wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, self._wrappers[value])
                self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self._spans, self._stack, time.perf_counter
        exceptions = self.exceptions

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name_id, parent, start, clock(), True)
                stack.pop()
                exceptions[(name, type(exc).__name__)] += 1
                raise
            spans[index] = (name_id, parent, start, clock(), False)
            stack.pop()
            return result

        return traced

    # -- storage ---------------------------------------------------------------

    def flush(self) -> None:
        """Pack the spans recorded so far into arrays (call between studies)."""
        if not self._spans:
            return
        name_id, parent, start, end, failed = zip(*self._spans)
        parent = np.asarray(parent, dtype=np.int64)
        parent[parent >= 0] += self._offset
        self._chunks.append({"name_id": np.asarray(name_id, dtype=np.int32),
                             "parent": parent,
                             "start": np.asarray(start), "end": np.asarray(end),
                             "failed": np.asarray(failed, dtype=bool)})
        self._offset += len(self._spans)
        self._spans.clear()

    def arrays(self) -> dict:
        self.flush()
        keys = ("name_id", "parent", "start", "end", "failed")
        if not self._chunks:
            return {k: np.zeros(0) for k in keys}
        return {k: np.concatenate([c[k] for c in self._chunks]) for k in keys}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names, dtype=str), **self.arrays())

    # -- aggregation -----------------------------------------------------------

    def per_function(self) -> dict[str, dict]:
        """Self seconds, calls and failed calls of every traced function."""
        a = self.arrays()
        n_names = len(self.names)
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        ids = a["name_id"].astype(np.int64)
        self_s = np.bincount(ids, weights=dur - child, minlength=n_names)
        calls = np.bincount(ids, minlength=n_names)
        failed = np.bincount(ids, weights=a["failed"].astype(float), minlength=n_names)
        return {name: {"self_s": float(self_s[i]), "calls": int(calls[i]),
                       "failed": int(failed[i])}
                for i, name in enumerate(self.names)}
