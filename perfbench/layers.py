"""Per-layer metrics and the two trace predictions, computed from spans.

A stage time (``*_s`` named after a stage) is the time inside that stage's
spans minus the time in nested spans; matrix products it makes itself stay
in.  A layer's ``self_s`` also takes the products out: they are
``linalg.self_s``.
"""

from __future__ import annotations

from spans import Tracer

STAGES = {
    "io.parse_s": "io.parse",
    "io.cache_store_s": "io.cache_store",
    "io.cache_load_s": "io.cache_load",
    "systems.closure_s": "systems.closure",
    "systems.order_s": "systems.order",
    "systems.audit_s": "systems.audit",
    "graphs.atom_graph_s": "graphs.atom_graph",
    "graphs.zero_one_s": "graphs.zero_one",
    "analyze.embed_s": "analyze.embed",
    "analyze.certify_s": "analyze.certify",
    "simplex.solve_s": "simplex.solve",
}
COUNTS = [
    "io.cache_bytes",
    "systems.elements",
    "systems.closure_pairs",
    "systems.order_builds",
    "systems.order_pairs",
    "graphs.atoms",
    "graphs.edges",
    "graphs.contexts",
    "graphs.s01",
    "analyze.lp_rows",
    "analyze.lp_cols",
    "simplex.calls",
]
LAYERS = ["cli", "io", "systems", "graphs", "analyze", "simplex"]
UNITS = {
    **{name: "s" for name in STAGES},
    **{name: "count" for name in COUNTS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "io.cache_bytes": "bytes",
    "cli.start_s": "s",
    "cli.outside_timings_s": "s",
    "cli.warm_lift_s": "s",
    "cli.warm_lift_outside_timings_s": "s",
    "cli.warm_lift_order_audit_s": "s",
    "systems.order_builds_per_cold_run": "count",
    "systems.order_builds_in_summary": "count",
    "systems.order_builds_in_cache_store": "count",
    "linalg.mul_calls": "count",
    "linalg.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# Operations whose CLI run closes an exact scenario file and writes the cache.
EXACT_COLD = ("ceg:cold", "ceg17:cold", "peres:cold", "ceg-lift:cold")


def _outside_timings(tracer: Tracer, main_index: int) -> float:
    """cli.main time not covered by the report's ``timings``: ``build_s`` is the
    build_system call, ``analyze_s`` the zero_one_states + classify calls."""
    main = tracer.spans[main_index]
    covered = sum(
        s.duration
        for s in tracer.spans
        if s.parent == main_index
        and s.name in ("cli.build_system", "analyze.zero_one_states", "analyze.classify")
    )
    return main.duration - covered


def _order_builds(tracer: Tracer, ops: tuple[str, ...]) -> list[list[str]]:
    """For each order-table build inside the named operations, its ancestors' names."""
    return [
        [a.name for a in tracer.ancestors(i)]
        for i, s in enumerate(tracer.spans)
        if s.name == "systems.order" and s.op.split("#")[0] in ops
    ]


def _warm_lift(tracer: Tracer) -> tuple[float, float, float]:
    """Warm ceg-lift CLI runs: total time, time outside ``timings``, and the part
    of that spent building the order table and in verify_epba."""
    lift = [i for i, s in enumerate(tracer.spans) if s.name == "cli.main" and s.op.startswith("ceg-lift:warm#")]
    order_audit = sum(
        s.duration
        for i, s in enumerate(tracer.spans)
        if s.op.startswith("ceg-lift:warm#")
        and s.name in ("systems.order", "systems.audit")
        and "cli.build_system" not in [a.name for a in tracer.ancestors(i)]
    )
    total = sum(tracer.spans[i].duration for i in lift)
    return total, sum(_outside_timings(tracer, i) for i in lift), order_audit


def per_layer(tracer: Tracer, ops, start_s: float, traced_wall: float, untraced_wall: float) -> dict:
    out: dict = {"cli.start_s": start_s}
    for metric, span in STAGES.items():
        out[metric] = tracer.stage_time(span)
    for name in COUNTS:
        out[name] = tracer.counts.get(name, 0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.layer_self_time(layer)
    out["linalg.mul_calls"] = tracer.mul_calls
    out["linalg.self_s"] = tracer.mul_s

    mains = [i for i, s in enumerate(tracer.spans) if s.name == "cli.main" and s.op != "setup"]
    out["cli.outside_timings_s"] = sum(_outside_timings(tracer, i) for i in mains)
    (
        out["cli.warm_lift_s"],
        out["cli.warm_lift_outside_timings_s"],
        out["cli.warm_lift_order_audit_s"],
    ) = _warm_lift(tracer)
    builds = _order_builds(tracer, EXACT_COLD)
    cold_runs = sum(1 for op in ops if op.kind in EXACT_COLD)
    out["systems.order_builds_per_cold_run"] = len(builds) / cold_runs if cold_runs else 0
    out["systems.order_builds_in_summary"] = sum("cli.summary" in a for a in builds)
    out["systems.order_builds_in_cache_store"] = sum("io.cache_store" in a for a in builds)

    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.spans"] = len(tracer.spans)
    return out


def predictions(tracer: Tracer, workload: str) -> list[str]:
    """Confirm or refute the two predictions read from the CLI code."""
    if workload != "ks-cli":
        return []
    builds = _order_builds(tracer, EXACT_COLD)
    runs = {s.op for s in tracer.spans if s.op.split("#")[0] in EXACT_COLD and s.name == "cli.main"}
    per_run = len(builds) / len(runs) if runs else 0
    where = {}
    for ancestors in builds:
        place = next((a for a in ancestors if a in ("cli.build_system", "io.cache_store", "cli.summary")), "other")
        where[place] = where.get(place, 0) + 1
    count = "CONFIRMED" if per_run == 2 else "REFUTED"
    place = "CONFIRMED" if where.get("cli.summary", 0) == len(runs) else "REFUTED"
    lines = [
        f"prediction 1, the cold file path builds the order table twice, the second time "
        f"inside _system_summary: count {count}, place {place} ({per_run:g} builds per cold "
        f"run; builds by enclosing span: {where})"
    ]
    total, outside, order_audit = _warm_lift(tracer)
    if total:
        share = order_audit / total
        verdict = "CONFIRMED" if share >= 0.5 and order_audit <= outside else "REFUTED"
        lines.append(
            f"prediction 2, a warm ceg-lift run spends most of its time in the order table "
            f"and verify_epba outside timings: {verdict} (traced run {total:.3f} s, outside "
            f"timings {outside:.3f} s, order table + audit outside timings {order_audit:.3f} s "
            f"= {share:.0%} of the run)"
        )
    return lines
