"""Span tracing from outside the program, for the per-layer numbers.

``Tracer.install`` replaces, for the life of one traced run, the public names
that ``ctxcert.cli`` and ``ctxcert.analyze`` import, the public
``QuantumSystem`` methods that do real work, and two private functions that
locate the order table and the CLI summary.  Every call then records a span
(name, start, end, parent, operation id).  ``ExactMatrix.mul`` and
``FloatMatrix.mul`` are too hot for spans: they are counted and timed only,
and that time is taken out of the self time of the span that made the call.
Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

# Span name -> where the wrapped callable lives.  The layer is the prefix.
TARGETS = {
    "cli.main": [("ctxcert.cli", "main")],
    "cli.build_system": [("ctxcert.cli", "_Source.build_system")],
    "cli.summary": [("ctxcert.cli", "_system_summary")],
    "io.parse": [
        ("ctxcert.cli", "scenario_from_path"),
        ("ctxcert.cli", "state_from_path"),
    ],
    "io.cache_load": [("ctxcert.cli", "load_cached_system")],
    "io.cache_store": [("ctxcert.cli", "store_cached_system")],
    "systems.closure": [("ctxcert.cli", "generate_system"), ("ctxcert.systems", "generate_system")],
    "systems.order": [("ctxcert.systems", "QuantumSystem._ensure_leq")],
    "systems.atom_indices": [("ctxcert.systems", "QuantumSystem.atom_indices")],
    "systems.audit": [("ctxcert.systems", "QuantumSystem.verify_epba")],
    "graphs.atom_graph": [("ctxcert.systems", "QuantumSystem.atom_graph")],
    "graphs.zero_one": [("ctxcert.analyze", "enumerate_zero_one_states")],
    "analyze.classify": [
        ("ctxcert.cli", "classify_experiment"),
        ("ctxcert.analyze", "classify_experiment"),
    ],
    "analyze.zero_one_states": [
        ("ctxcert.cli", "zero_one_states"),
        ("ctxcert.analyze", "zero_one_states"),
    ],
    "analyze.embed": [("ctxcert.analyze", "scenario_classical")],
    "analyze.certify": [("ctxcert.analyze", "is_noncontextual")],
    "simplex.solve": [("ctxcert.analyze", "solve_standard")],
}
MUL_OWNERS = [("ctxcert.linalg", "ExactMatrix"), ("ctxcert.linalg", "FloatMatrix")]
# Lazily built QuantumSystem state: once the attribute is set, a call only reads
# it, and no span is recorded.  (If a later change renames the attribute, every
# call gets a span: more spans, same totals.)
CACHED_IN = {
    "systems.order": "_leq_rows",
    "systems.atom_indices": "_labels",
    "graphs.atom_graph": "_atom_graph",
}


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    mul_at_start: float = 0.0
    mul_inside: float = 0.0
    child_time: float = 0.0
    child_mul: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def stage_s(self) -> float:
        """Duration minus child spans; matrix products made directly stay in."""
        return self.duration - self.child_time

    @property
    def self_s(self) -> float:
        """Duration minus child spans and minus matrix products made directly."""
        return self.stage_s - (self.mul_inside - self.child_mul)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    op: str = "-"
    mul_calls: int = 0
    mul_s: float = 0.0
    counts: dict = field(default_factory=dict)
    graphs_seen: dict = field(default_factory=dict)  # id -> graph, kept alive so ids stay unique
    _restore: list = field(default_factory=list)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for name, places in TARGETS.items():
            for module_name, attr in places:
                owner = importlib.import_module(module_name)
                *path, last = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
                if original is None:
                    continue  # renamed by a later change: the span is simply absent
                self._patch(owner, last, original, self._wrap(name, original))
        for module_name, cls_name in MUL_OWNERS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            self._patch(cls, "mul", cls.__dict__["mul"], self._wrap_mul(cls.__dict__["mul"]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, replacement) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _wrap(self, name: str, fn):
        cached_in = CACHED_IN.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if cached_in and getattr(args[0], cached_in, None) is not None:
                return fn(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self._count(name, args, result)
            return result

        return wrapper

    def _wrap_mul(self, fn):
        @functools.wraps(fn)
        def mul(a, b):
            t0 = time.perf_counter()
            out = fn(a, b)
            self.mul_s += time.perf_counter() - t0
            self.mul_calls += 1
            return out

        return mul

    # -- spans ------------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.op, parent, time.perf_counter(), mul_at_start=self.mul_s))
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.mul_inside = self.mul_s - span.mul_at_start
        self.stack.pop()
        if span.parent is not None:
            parent = self.spans[span.parent]
            parent.child_time += span.end - span.start
            parent.child_mul += span.mul_inside

    def ancestors(self, index: int):
        parent = self.spans[index].parent
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent].parent

    # -- work counts --------------------------------------------------------------

    def _add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _count(self, name: str, args, result) -> None:
        if name == "systems.closure":
            n = len(result)
            self._add("systems.elements", n)
            self._add("systems.closure_pairs", n * (n - 1) // 2)
        elif name == "systems.order":
            n = len(args[0].elements)
            self._add("systems.order_builds", 1)
            self._add("systems.order_pairs", n * n)
        elif name == "graphs.atom_graph":
            if id(result) not in self.graphs_seen:
                self.graphs_seen[id(result)] = result
                self._add("graphs.atoms", len(result.vertices))
                self._add("graphs.edges", len(result.edges))
                self._add("graphs.contexts", len(result.maximal_cliques()))
        elif name == "graphs.zero_one":
            self._add("graphs.s01", len(result))
        elif name == "simplex.solve":
            a, _, c = args[:3]
            self._add("simplex.calls", 1)
            self._add("analyze.lp_rows", len(a))
            self._add("analyze.lp_cols", len(c))
        elif name == "io.cache_store":
            from ctxcert.io import cache_path_for

            self._add("io.cache_bytes", cache_path_for(args[0]).stat().st_size)

    # -- summaries ------------------------------------------------------------------

    def stage_time(self, name: str) -> float:
        return sum(s.stage_s for s in self.spans if s.name == name)

    def layer_self_time(self, layer: str) -> float:
        return sum(s.self_s for s in self.spans if s.name.split(".")[0] == layer)

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows), encoding="utf-8")
