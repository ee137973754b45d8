"""Outside-in span tracer for bisloop's layers.

The program is not edited.  Each layer function is replaced, on every bisloop
module that holds it, by a wrapper that records one span: name, start, end,
parent span and request id.  Callers look these names up in their module's
globals at call time, so ``engine.run_closed_loop`` calling ``step_rk4``
reaches the wrapper.  Spans stay in flat arrays in memory until the run ends.
"""

from __future__ import annotations

import statistics
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans of wrapped calls; one Tracer per run, reset between passes."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._request = [-1]
        self._patched: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def reset(self):
        """Drop all spans; wrappers keep working because the arrays are cleared in place."""
        for a in (self.name, self.parent, self.request_id, self.start, self.end):
            del a[:]

    def set_request(self, request_id: int):
        self._request[0] = request_id

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        idx = self.names.index(name)
        names, parents, requests = self.name, self.parent, self.request_id
        starts, ends, stack, request = self.start, self.end, self._stack, self._request
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(idx)
            parents.append(stack[-1])
            requests.append(request[0])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package: str, layers: dict[str, tuple[str, ...]]):
        """Wrap package.<module>.<function> for each layer, everywhere it is bound."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        self.absent = []
        try:
            for module_name, functions in layers.items():
                home = sys.modules.get(f"{package}.{module_name}")
                for fn_name in functions:
                    original = getattr(home, fn_name, None)
                    if original is None:
                        self.absent.append(f"{module_name}.{fn_name}")
                        continue
                    wrapper = self.wrap(original, f"{module_name}.{fn_name}")
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patched.append((m, attr, value))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, value in reversed(self._patched):
                setattr(m, attr, value)
            self._patched.clear()

    def wrapper_cost(self, calls: int = 100_000, repeats: int = 5) -> float:
        """Median seconds a wrapper adds to one call, measured on a no-op."""
        def noop():
            return None

        traced = self.wrap(noop, "trace.noop")
        clock = time.perf_counter
        costs = []
        for _ in range(repeats):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            t2 = clock()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
            self.reset()
        return statistics.median(costs)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds); self = duration minus child durations."""
        name = np.frombuffer(self.name, dtype=np.intc)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=duration[child], minlength=len(duration))
        self_time = duration - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        seconds = np.bincount(name, weights=self_time, minlength=k)
        return {n: (int(calls[i]), float(seconds[i])) for i, n in enumerate(self.names)}

    def save(self, path):
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.intc),
                 parent=np.frombuffer(self.parent, dtype=np.intc),
                 request=np.frombuffer(self.request_id, dtype=np.intc),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
