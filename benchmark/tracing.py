"""Spans around the package's public functions, installed from outside.

Each target is wrapped once and the wrapper replaces the original wherever
a ``pgsos`` module holds a reference to it, which is where its callers look
it up (``from .lp import solve_transport`` leaves a reference in
``pgsos.metric``).  A span records its name, start, end and the span that
was open when it started.  Calls are counted on every entry; a call made
while a span of the same function is already open is counted but not
timed, so recursive wrappers contribute only their outermost span.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (module, function) pairs; a target the package no longer has is skipped
# and its metrics read 0.
FUNCTIONS = [
    ("lp", "solve_transport"), ("lp", "simplex_min"),
    ("metric", "bisim_distance"), ("metric", "hausdorff"),
    ("terms", "term_key"), ("terms", "substitute"),
    ("semantics", "explore_fragment"),
    ("denotation", "lfp_denotations"),
    ("multiplicity", "genset_normalize"), ("multiplicity", "p_leq"),
    ("multiplicity", "da"),
    ("continuity", "is_uniformly_continuous"),
    ("cli", "main"),
    ("frontend", "parse_spec"), ("frontend", "parse_term"),
    ("oracle", "evaluate_sample"),
]
METHODS = [("denotation", "Denotations", "genset")]


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []       # (name, start, end, parent index)
        self.stack: list[int] = []
        self.open: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._seen_lfp: set[int] = set()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, observe=None):
        def traced(*args, **kwargs):
            self.count(name + ".calls")
            if self.open.get(name):
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                self.spans.append(None)
                parent = self.stack[-1] if self.stack else -1
                self.stack.append(index)
                self.open[name] = 1
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self.stack.pop()
                    self.open[name] = 0
                    self.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # counters read off arguments and results at the same boundaries
    def _transport(self, args, _result) -> None:
        if len(args) >= 3 and len(args[1]) == 2 and len(args[2]) == 2:
            self.count("lp.transport_2x2.calls")

    def _explore(self, _args, result) -> None:
        self.count("semantics.states", len(result.states))

    def _lfp(self, _args, result) -> None:
        # the package caches fixpoints; count iterations of new ones only
        if id(result) not in self._seen_lfp:
            self._seen_lfp.add(id(result))
            self.count("denotation.iterations", result.iterations)

    def install(self) -> None:
        observers = {"lp.solve_transport": self._transport,
                     "semantics.explore_fragment": self._explore,
                     "denotation.lfp_denotations": self._lfp}
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "pgsos" or n.startswith("pgsos.")]
        for module_name, fn_name in FUNCTIONS:
            module = importlib.import_module(f"pgsos.{module_name}")
            original = getattr(module, fn_name, None)
            if original is None:
                continue
            name = f"{module_name}.{fn_name}"
            wrapper = self.wrap(name, original, observers.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
        for module_name, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"pgsos.{module_name}"),
                          cls_name, None)
            if cls is not None and hasattr(cls, meth):
                setattr(cls, meth, self.wrap(f"{module_name}.{meth}",
                                             getattr(cls, meth)))

    def totals(self) -> dict[str, float]:
        """Counts, plus ``<name>.s`` (span time) and ``<name>.self_s``
        (span time not covered by child spans) per function."""
        out: dict[str, float] = dict(self.counts)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name + ".s"] = out.get(name + ".s", 0.0) + end - start
            out[name + ".self_s"] = (out.get(name + ".self_s", 0.0)
                                     + end - start - covered[i])
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
