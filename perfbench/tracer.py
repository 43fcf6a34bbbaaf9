"""Span and counter recorder for the benchmark's traced run.

``Tracer.install()`` wraps the public functions of each secantflow layer
module (and a few boundary methods) from outside the program: every module
attribute that names the original function, including names other modules
imported directly such as ``resolution.secant_plane``, is replaced by the
wrapper.  No file of the program changes.

Each call records one span: name, start, end and the span open when it
started (its parent).  Spans stay in memory; ``summary()`` reduces them to
per-layer counts and self times, and ``dump()`` writes them out at exit.
A span's self time is its duration minus the durations of its child
spans, which nest inside it because the program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from time import perf_counter_ns

LAYERS = ("linalg", "series", "polynomials", "curve", "secant", "morse",
          "localmodel", "resolution", "serialize", "cli")

# Boundary methods, wrapped on their class.  Poly arithmetic stays
# unwrapped: its time counts as self time of the caller.
METHODS = {
    "curve": ("HyperellipticCurve", ("is_on_curve", "point", "y_series")),
    "polynomials": ("Poly", ("root_multiplicity", "rational_roots")),
}

# lru caches read with cache_info() after the run: metric prefix -> (module, name)
CACHES = {
    "curve.y_series": ("curve", "_y_series_cached"),
    "secant.jet_block": ("secant", "_jet_block"),
    "secant.twist_section_space": ("secant", "twist_section_space"),
    "resolution.canonical_class": ("resolution", "_canonical_class"),
}


def _rref_cells(m, *_args, **_kwargs) -> int:
    return len(m) * (len(m[0]) if m else 0)


CELLS = {"linalg.rref": _rref_cells}

# What makes two calls the same piece of work: the arguments of a plane
# build, the critical point a downward limit arrives at (a chain DAG node).
DISTINCT = {
    "secant.secant_plane": lambda args, result: args,
    "resolution.downward_limit": lambda args, result: result,
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if ((inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []      # (name index, start ns, end ns, parent index)
        self._stack: list[int] = []
        self.cells: dict[str, int] = {}
        self.distinct: dict[str, set] = {}
        self.modules: dict = {}

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack
        cells = CELLS.get(name)
        distinct = DISTINCT.get(name)
        if cells:
            self.cells[name] = 0
        if distinct:
            seen = self.distinct[name] = set()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cells:
                self.cells[name] += cells(*args, **kwargs)
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i] = (name_id, t0, perf_counter_ns(), parent)
                stack.pop()
            if distinct:
                seen.add(distinct(args, result))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer's boundary and rebind each name that refers to
        an original, in every loaded secantflow module."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"secantflow.{layer}")
            self.modules[layer] = module
            for attr, fn in list(_public_functions(module)):
                replaced[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
            cls_name, methods = METHODS.get(layer, (None, ()))
            for attr in methods:
                cls = getattr(module, cls_name)
                setattr(cls, attr, self._wrap(f"{layer}.{attr}",
                                              vars(cls)[attr]))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "secantflow" and not mod_name.startswith("secantflow."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

    def summary(self) -> dict:
        """Counts per span name, self seconds per layer, the work ratios
        and the cache hit ratios.  Plain numbers, so that summaries of
        several processes can be added."""
        n = len(self.spans)
        child_ns = [0] * n
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(LAYERS, 0)
        for i, (name_id, t0, t1, _) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name.split(".", 1)[0]] += t1 - t0 - child_ns[i]
        caches = {}
        for prefix, (layer, attr) in CACHES.items():
            ci = _original(vars(self.modules[layer])[attr]).cache_info()
            caches[prefix] = [ci.hits, ci.misses]
        return {
            "calls": calls,
            "cells": dict(self.cells),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "self_s": {k: v / 1e9 for k, v in self_ns.items()},
            "caches": caches,
        }

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh,
                      separators=(",", ":"))


def _original(fn):
    """The lru-cache object behind a (possibly wrapped) module attribute."""
    while not hasattr(fn, "cache_info"):
        fn = fn.__wrapped__
    return fn
