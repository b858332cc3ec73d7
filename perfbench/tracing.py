"""Span tracer for the benchmark's traced run.

The tracer wraps lagdde's public functions from outside the package: every
module namespace that holds a wrapped function gets the wrapper, so names
bound by ``from .linalg import gauss_solve`` are traced too. Spans are kept
in flat arrays with a parent link; self time is a span's duration minus
the durations of its direct children. A function that does not exist is
simply not wrapped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute or Class.method, layer key); "*" wraps every public
# function the module defines.
TARGETS = (
    ("lagdde.basis", "*", "basis"),
    ("lagdde.linalg", "gauss_solve", "linalg.gauss_solve"),
    ("lagdde.linalg", "condition_estimate", "linalg.condition"),
    ("lagdde.collocation", "solve_linear", "collocation.solve"),
    ("lagdde.collocation", "solve_nonlinear", "collocation.solve"),
    ("lagdde.collocation", "evaluate", "collocation.eval"),
    ("lagdde.collocation", "evaluate_derivative", "collocation.eval"),
    ("lagdde.collocation", "History.value", "collocation.history"),
    ("lagdde.accuracy", "residual", "accuracy.residual"),
    ("lagdde.accuracy", "error_report", "accuracy.report"),
    ("lagdde.accuracy", "error_norms", "accuracy.report"),
    ("lagdde.accuracy", "sample_points", "accuracy.report"),
    ("lagdde.accuracy", "convergence_study", "accuracy.report"),
    ("lagdde.reference", "rk4_method_of_steps", "reference.rk4"),
    ("lagdde.reference", "Trajectory.__call__", "reference.lookup"),
    ("lagdde.config", "parse_config", "config.parse"),
    ("lagdde.config", "build_problem", "config.parse"),
    ("lagdde.config", "Expression.__call__", "config.expr"),
    ("lagdde.cli", "main", "cli.run"),
)

KEYS = tuple(dict.fromkeys(key for _, _, key in TARGETS))


def _picard_result(counts, name, result):
    if name == "solve_nonlinear":
        counts["collocation.picard_iters"] += getattr(result, "iterations", 0)


def _picard_error(counts, name, err):
    if name == "solve_nonlinear":
        counts["collocation.picard_iters"] += getattr(err, "iterations", 0)


def _rk4_result(counts, name, result):
    grid = getattr(result, "t", None)
    if grid is not None:
        counts["reference.rk4.steps"] += len(grid) - 1


# per-key hooks that turn a call's result or exception into counts
_ON_RESULT = {"collocation.solve": _picard_result, "reference.rk4": _rk4_result}
_ON_ERROR = {"collocation.solve": _picard_error}


class Tracer:
    """Records one span per call of a wrapped lagdde function."""

    def __init__(self):
        self.active = False
        self.key_ids = {key: i for i, key in enumerate(KEYS)}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.kind = array("H")
        self.counts = Counter()
        self._stack = []
        self._restore = []

    def _wrap(self, fn, key, name):
        kind = self.key_ids[key]
        on_result = _ON_RESULT.get(key)
        on_error = _ON_ERROR.get(key)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(self.kind)
            self.parent.append(stack[-1] if stack else -1)
            self.kind.append(kind)
            self.end.append(0.0)
            stack.append(index)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if on_error is not None:
                    on_error(self.counts, name, err)
                raise
            finally:
                self.end[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self.counts, name, result)
            return result

        return traced

    def install(self):
        """Wrap every target that exists in the loaded lagdde modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "lagdde" or n.startswith("lagdde."))]
        for module_name, attr, key in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            if attr == "*":
                names = [n for n, f in inspect.getmembers(module, inspect.isfunction)
                         if not n.startswith("_") and f.__module__ == module_name]
            else:
                names = [attr]
            for name in names:
                if "." in name:
                    self._wrap_method(module, name, key)
                else:
                    self._wrap_function(modules, module, name, key)

    def _wrap_function(self, modules, module, name, key):
        fn = getattr(module, name, None)
        if not callable(fn):
            return
        traced = self._wrap(fn, key, name)
        for mod in modules:
            for bound, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, bound, traced)
                    self._restore.append((mod, bound, fn))

    def _wrap_method(self, module, name, key):
        cls_name, method = name.split(".")
        cls = getattr(module, cls_name, None)
        fn = vars(cls).get(method) if cls is not None else None
        if fn is None:
            return
        setattr(cls, method, self._wrap(fn, key, name))
        self._restore.append((cls, method, fn))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.active = False

    @contextmanager
    def paused(self):
        """Call lagdde untraced, e.g. while checking a job's output."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def layer_metrics(self) -> dict[str, float]:
        """Calls and self time per layer key, plus the counted quantities."""
        kind = np.frombuffer(self.kind, dtype=np.uint16).copy()
        parent = np.frombuffer(self.parent, dtype=np.int64).copy()
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        children = np.zeros(len(kind))
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        self_time = dur - children

        out = {}
        for key, kid in self.key_ids.items():
            mask = kind == kid
            out[f"{key}.calls"] = int(mask.sum())
            out[f"{key}.self_ms"] = float(self_time[mask].sum() * 1e3)

        cond = self.key_ids["linalg.condition"]
        gauss = np.flatnonzero(kind == self.key_ids["linalg.gauss_solve"])
        useful = 0
        for i in gauss:
            j = parent[i]
            while j >= 0 and kind[j] != cond:
                j = parent[j]
            useful += j < 0
        out["linalg.useful_solve_ratio"] = useful / len(gauss) if len(gauss) else 0.0
        out["collocation.picard_iters"] = self.counts["collocation.picard_iters"]
        out["reference.rk4.steps"] = self.counts["reference.rk4.steps"]
        return out
