"""Span tracer for the benchmark's traced runs.

Every public function of the layer modules is wrapped at every module
attribute that binds it (``expdamp.response.solve_eigen`` and
``expdamp.bounds.solve_eigen`` share one wrapper), so calls made inside
the package are traced as well as the benchmark's own calls.  Spans are
kept in memory as tuples and written out once, when the run ends.

A span is ``(name, start_ns, end_ns, parent, op, points, error)``:
``parent`` is the index of the enclosing span (-1 for an op's root span),
``points`` the length of a returned trajectory, report or array (0 for
anything else) and ``error`` the class name of an exception that left
the call, or None.
"""

from __future__ import annotations

import inspect
import json
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

LAYERS = ("model", "eigen", "history", "response", "bounds", "oracle", "cli")
ROOT_NAME = "bench.op"


def _points(result) -> int:
    if isinstance(result, np.ndarray):
        return int(result.size)
    x = getattr(result, "x", None)  # Trajectory
    if isinstance(x, np.ndarray):
        return len(x)
    t = getattr(result, "t", None)  # BoundReport
    if isinstance(t, np.ndarray):
        return len(t)
    return 0


class Tracer:
    """Wraps the package's public functions while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._op = -1
        self._wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"expdamp.{layer}"]
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    self._wrappers[id(fn)] = self._wrap(fn, f"{layer}.{name}")
        self._patches = []
        for mod_name, module in sorted(sys.modules.items()):
            if module is None or not (mod_name == "expdamp" or mod_name.startswith("expdamp.")):
                continue
            for attr, value in vars(module).items():
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value, wrapper))

    @property
    def bindings(self) -> int:
        return len(self._patches)

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            points, error = 0, None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                points = _points(result)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op, points, error)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op, with the wrappers installed inside it."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self.install()
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self.uninstall()
            self._stack.pop()
            self.spans[index] = (ROOT_NAME, start, end, -1, op_id, 0, None)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                name, start, end, parent, op, points, error = span
                fh.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end, "parent": parent,
                    "op": op, "points": points, "error": error,
                }) + "\n")


def self_times(spans):
    """Self time of every span in ns: its duration minus its children's.

    Returns (self_ns, worst) where worst is the largest violation found of
    nesting (a child outside its parent, or overlapping its previous
    sibling), in ns; a well-formed trace has worst == 0.
    """
    self_ns = [end - start for _, start, end, _, _, _, _ in spans]
    last_child_end = {}
    worst = 0
    for name, start, end, parent, op, _, _ in spans:
        if parent < 0:
            continue
        _, p_start, p_end, _, p_op, _, _ = spans[parent]
        self_ns[parent] -= end - start
        worst = max(worst, p_start - start, end - p_end, last_child_end.get(parent, start) - start)
        if p_op != op:
            worst = max(worst, end - start)
        last_child_end[parent] = end
    return self_ns, worst


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
