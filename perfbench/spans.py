"""Span tracing of rydgan's public functions, installed from outside src/.

A Tracer wraps every public function of each layer module. Modules import
names directly (`from .sim import evolve`), so the wrapper is installed in
every rydgan namespace that holds the original object, and uninstall puts
the originals back. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

LAYERS = ("sim", "pulses", "generator", "data", "discriminator", "neldermead",
          "training", "metrics", "cli")

# span fields
NAME, START, END, PARENT, INFO = range(5)


def span_name(layer: str, func_name: str) -> str:
    """`cli.cmd_fit_pca` is reported as `cli.fit-pca`, everything else as is."""
    if layer == "cli" and func_name.startswith("cmd_"):
        func_name = func_name[4:].replace("_", "-")
    return f"{layer}.{func_name}"


def wrappable(package) -> dict:
    """{original function: span name} for every public layer function."""
    targets = {}
    for layer in LAYERS:
        module = sys.modules[f"{package.__name__}.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                targets[obj] = span_name(layer, name)
    return targets


def namespaces(package) -> list:
    """The package and every loaded submodule: where callers look names up."""
    prefix = package.__name__ + "."
    return [package] + [m for n, m in sorted(sys.modules.items())
                        if n.startswith(prefix) and m is not None]


class Tracer:
    """Wraps public rydgan functions and records nested spans in memory."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.nm_runs = []          # (iterations, evaluations, max_iters)
        self._stack = []
        self._saved = []

    def install(self):
        targets = wrappable(self.package)
        wrappers = {func: self._wrap(func, name) for func, name in targets.items()}
        for module in namespaces(self.package):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, func, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        call = self._nelder_mead(func) if name == "neldermead.nelder_mead" else func

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            info = None
            if name == "pulses.evaluate":
                info = int(np.size(args[1] if len(args) > 1 else kwargs["t"]))
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, info])
            stack.append(index)
            start = clock()
            try:
                return call(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][START] = start
                spans[index][END] = end

        return wrapper

    def _nelder_mead(self, func):
        """Spans the objective too, and records how each run stopped."""
        signature = inspect.signature(func)

        def call(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            bound.arguments["objective"] = self._wrap(
                bound.arguments["objective"], "neldermead.objective")
            result = func(*bound.args, **bound.kwargs)
            self.nm_runs.append((result.iterations, result.evaluations,
                                 bound.arguments["max_iters"]))
            return result

        return call

    def write(self, path: str, origin: float):
        """One JSON object per span, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, info) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "parent": parent,
                                    "start": start - origin,
                                    "end": end - origin, "info": info}) + "\n")


def self_times(spans) -> list:
    """Per span: its duration minus the part of it that child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for span, kids in zip(spans, children):
        covered, cursor = 0.0, span[START]
        for j in sorted(kids, key=lambda k: spans[k][START]):
            lo = max(spans[j][START], cursor)
            hi = min(spans[j][END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span[END] - span[START] - covered)
    return out


def outermost(spans) -> list:
    """Flags spans not nested inside a span of the same name (recursion)."""
    flags = []
    for span in spans:
        parent, flag = span[PARENT], True
        while parent >= 0:
            if spans[parent][NAME] == span[NAME]:
                flag = False
                break
            parent = spans[parent][PARENT]
        flags.append(flag)
    return flags


def summarize(spans) -> dict:
    """{name: {calls, s, self_s, durations, points}} over all spans.

    calls, s and durations count outermost spans only, so a recursive call
    is one call; self_s sums every span, so nothing is counted twice.
    """
    selfs = self_times(spans)
    tops = outermost(spans)
    out = {}
    for span, own, top in zip(spans, selfs, tops):
        entry = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                            "durations": [], "points": 0})
        entry["self_s"] += own
        if span[INFO] is not None:
            entry["points"] += span[INFO]
        if top:
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["s"] += duration
            entry["durations"].append(duration)
    return out
