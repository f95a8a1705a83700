"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of the bcm1d layers from outside the
package: every module-level function of ``cli``, ``recon``, ``control``,
``extension``, ``solver`` and ``identity`` whose name has no leading
underscore is replaced, in every ``bcm1d`` module that binds it, by a
wrapper that records a span (name, start, end, parent, run id) and bumps the
layer's counters.  Nothing is written until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import Counter
from typing import Callable

LAYERS = ("cli", "recon", "control", "extension", "solver", "identity")

# hook(counts, bound_arguments, result) for functions whose work is counted
Hook = Callable[[Counter, inspect.BoundArguments, object], None]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.counts: Counter = Counter()
        self._spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self._spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self._spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def enclosing(self, names) -> bool:
        """Whether one of the open spans has one of ``names``."""
        return any(self._spans[i][0] in names for i in self._stack)

    def wrap(self, name: str, fn, hook: Hook | None = None):
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[name] += 1
            if hook is not None:
                hook(self.counts, sig.bind(*args, **kwargs), result)
            return result

        return traced

    def spans(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run_id": self.run_id}
            for n, s, e, p in self._spans
        ]


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out = []
    for i, sp in enumerate(spans):
        covered, reach = 0.0, sp["start"]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out.append(sp["end"] - sp["start"] - covered)
    return out


def install(tracer: Tracer, hooks: dict[str, Hook]) -> int:
    """Wrap every public layer function; returns how many were wrapped."""
    wrapped = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bcm1d.{layer}")
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapped[obj] = tracer.wrap(name, obj, hooks.get(name))
    for modname, mod in list(sys.modules.items()):
        if modname != "bcm1d" and not modname.startswith("bcm1d."):
            continue
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
    return len(wrapped)
