"""Spans around calls into dagcover's layers, recorded from outside the program.

`Tracer.installed()` swaps each layer's public function, in every
dagcover module that holds it, for a wrapper that records a span
(name, start, end, parent, op) and the counts read off the result.
Spans stay in memory until `write` dumps them.  Leaving the context
puts the original functions back, so untraced rounds run the program
unchanged.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional


def _greedy_counts(sol) -> dict:
    return {"groups": sol.size, "rejected": sum(sol.assignment), "copies": len(sol.assignment)}


def _exact_counts(res) -> dict:
    return {"nodes": res.nodes, "copies": len(res.solution.assignment)}


# (function name, modules to patch or None for every dagcover module, layer, counts)
LAYERS: tuple[tuple[str, Optional[tuple[str, ...]], str, Callable], ...] = (
    ("sample_digraph", None, "sample", lambda g: {"edges": g.edge_count}),
    ("enumerate_copies", None, "enumerate", lambda cs: {"copies": len(cs)}),
    ("union_graph", None, "union_dag", lambda g: {}),
    # is_dag also checks every pattern; only the sweep's copy-union test counts
    ("is_dag", ("dagcover.experiments",), "union_dag", lambda ok: {"acyclic": int(ok)}),
    ("tau_lower_clique", None, "clique", lambda size: {"size_sum": size}),
    ("tau_greedy", None, "greedy", _greedy_counts),
    ("tau_exact", None, "exact", _exact_counts),
    ("fractional_arboricity", None, "mincut.arboricity", lambda r: {}),
    ("maximal_density", None, "mincut.density", lambda r: {}),
    ("is_totally_balanced", None, "mincut.balance", lambda r: {}),
    ("skewness_exact", None, "skewness", lambda r: {}),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, layer: str, fn: Callable, counts: Callable) -> Callable:
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            sid = len(self.spans)
            span = Span(layer, time.perf_counter(), 0.0, parent, self._op)
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += span.end - span.start
            span.counts = counts(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        import dagcover

        patched: list[tuple[object, str, Callable]] = []
        try:
            for name, where, layer, counts in LAYERS:
                original = getattr(dagcover, name)
                wrapper = self._wrap(layer, original, counts)
                modules = where or [m for m in sys.modules if m.split(".")[0] == "dagcover"]
                for mod_name in modules:
                    mod = sys.modules[mod_name]
                    if getattr(mod, name, None) is original:
                        patched.append((mod, name, original))
                        setattr(mod, name, wrapper)
            yield self
        finally:
            for mod, name, original in reversed(patched):
                setattr(mod, name, original)

    @contextmanager
    def op(self):
        """Root span of one benchmark op; layer spans inside it point to it."""
        self._op = len(self.spans)
        span = Span("op", time.perf_counter(), 0.0, None, self._op)
        self.spans.append(span)
        self._stack.append(self._op)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def write(self, path) -> None:
        rows = [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "op": s.op, "counts": s.counts}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
