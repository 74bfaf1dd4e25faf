"""Span tracing from outside the program.

``Tracer.install`` rebinds every public function of the layer modules, and
every public method of the classes they define, to a timing shim, in every
layer module that binds the name (``attack`` imports ``gen_frame`` from
``phy``, for example).  A span is (name, start_ns, end_ns, parent, op): the
span that was open when it started is its parent, and ``op`` is the
benchmark operation it belongs to (None outside operations).  Spans stay
in memory until ``write``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = ("iqfile", "onset", "stamping", "fbest", "defense", "phy", "attack", "demod")
OP = "op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple] = []

    def _shim(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, time.perf_counter_ns(), parent, self._op)
                stack.pop()

        return shim

    def install(self) -> None:
        mods = {m: importlib.import_module(f"lorastamp.{m}") for m in LAYERS}
        shims = {}

        def shim_for(fn, name):
            if fn not in shims:
                shims[fn] = self._shim(name, fn)
            return shims[fn]

        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__.startswith("lorastamp."):
                    name = f"{obj.__module__.split('.')[-1]}.{obj.__name__}"
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, shim_for(obj, name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._restore.append((obj, meth, fn))
                            setattr(obj, meth, shim_for(fn, f"{obj.__module__.split('.')[-1]}.{obj.__qualname__}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[idx] = (OP, start, time.perf_counter_ns(), -1, op_id)
            self._stack.pop()
            self._op = None

    def write(self, path: Path) -> None:
        with path.open("w") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")


def self_times(spans: list[tuple]) -> list[int]:
    """Duration of each span minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def shim_cost_ns(n: int = 50_000) -> float:
    """Per-call cost of a shim, from timing a shimmed and a bare no-op."""
    def noop():
        return None

    shimmed = Tracer()._shim("noop", noop)
    costs = []
    for fn in (noop, shimmed):
        start = time.perf_counter_ns()
        for _ in range(n):
            fn()
        costs.append(time.perf_counter_ns() - start)
    return (costs[1] - costs[0]) / n
