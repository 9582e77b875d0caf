"""Command-line front end.

Subcommands: build, analyze, graph, ks-check, zero-one.  Scenarios are builtin
names (ceg, ceg17, ceg-lift, ceg-gen12, kcbs) or JSON files: a builtin name
wins, and a token with a directory part or a suffix is a path, so ``catalog``
is loaded only for a bare token.  Either resolves once to an ``io.Scenario``
and takes one build path: cache load (files only) or closure, atom labels,
cache store after a closure.  Reports render as text or JSON; the text form is
derived from the JSON form only, and exit codes are a function of the JSON
report alone (0 classical, 10 nonclassical scenario with noncontextual state,
20 contextual, 1 error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import prod
from pathlib import Path

from . import __version__
from .analyze import (
    CLASSICAL,
    CONTEXTUAL,
    NONCLASSICAL_SCENARIO_ONLY,
    classify_experiment,
    kcbs_value,
    zero_one_states,
)
from .errors import INFO, WARNING, CtxcertError, ScenarioFormatError, basic_config, log
from .graphs import DEFAULT_SEARCH_BUDGET, PBAState, component_listings
from .io import (
    load_cached_system,
    scenario_from_path,
    state_from_path,
    store_cached_system,
)
from .linalg import DEFAULT_TOL, FLOAT
from .systems import DEFAULT_MAX_ELEMENTS, QuantumSystem, generate_system
from .vectorsets import ks_assignment_search

EXIT_BY_LABEL = {CLASSICAL: 0, NONCLASSICAL_SCENARIO_ONLY: 10, CONTEXTUAL: 20}


class _Source:
    """A scenario argument resolved once: the scenario, builtin or file, and
    the file whose ``.ctxcache`` serves the build.  A file is read once, and
    its cache is keyed on the sha256 of the bytes that were parsed.  There is
    no cache for a builtin, under ``--backend`` or ``--tolerance`` (they
    change the parse, and the key covers the file's bytes only), or with
    ``--no-cache``.  The cache holds the closed system only; atom names come
    from the scenario, the same way on a cold and a warm run."""

    def __init__(self, args):
        self.token = token = args.scenario
        self.max_elements = args.max_elements
        self.cache_for: Path | None = None
        path = Path(token)
        builtin = None
        if path.name == token and not path.suffix:  # every builtin name is bare
            from .catalog import BUILTINS
            builtin = BUILTINS.get(token)
        if builtin is not None:
            self.scenario = builtin.scenario()
            backend = self.scenario.vector_set.backend
            if args.backend and args.backend != backend:
                raise ScenarioFormatError(f"builtin {token!r} is fixed to the {backend!r} backend")
            if args.tolerance is not None:
                raise ScenarioFormatError(
                    f"builtin {token!r} carries its own tolerance; --tolerance applies "
                    "to scenario files"
                )
            return
        if not path.exists():
            from .catalog import BUILTINS
            raise ScenarioFormatError(
                f"{token!r} is neither a builtin ({', '.join(sorted(BUILTINS))}) "
                "nor an existing file"
            )
        self.scenario = scenario_from_path(path, backend=args.backend, tolerance=args.tolerance)
        if not (args.no_cache or args.backend or args.tolerance is not None):
            self.cache_for = path

    def build_system(self) -> QuantumSystem:
        """The cached system, or the closure of the generators (then cached),
        with the atoms that scenario labels denote named by them.  Naming
        raises on a bad label before the cache is written, so a run that
        fails there leaves no cache."""
        cached = None
        if self.cache_for is not None:
            cached = load_cached_system(self.cache_for, self.scenario, self.max_elements)
            if cached is not None:
                log(__name__, INFO, "loaded system from cache beside %s", self.cache_for)
        system = cached or generate_system(self.scenario.generators, self.max_elements)
        system = system.with_atom_labels(self.scenario.labels)
        if self.cache_for is not None and cached is None:
            store_cached_system(self.cache_for, self.scenario, system)
        return system


def _system_summary(system: QuantumSystem) -> dict:
    graph = system.atom_graph()
    report = system.verify_epba()
    return {
        "dimension": system.dim,
        "backend": system.backend,
        "elements": len(system),
        "atoms": len(system.atom_indices()),
        "maximal_contexts": len(graph.maximal_cliques()),
        "lep": "holds" if report.lep_holds else f"violated {report.lep_violation}",
        "transitivity": (
            "holds" if report.transitivity_holds else f"violated {report.transitivity_violation}"
        ),
    }


def _start(args) -> tuple[_Source, dict]:
    """The resolved scenario argument and the report every command starts from."""
    source = _Source(args)
    vs = source.scenario.vector_set
    return source, {
        "tool": {"name": "ctxcert", "version": __version__},
        "scenario": {
            "source": source.token,
            "dimension": vs.dim,
            "backend": vs.backend,
            "tolerance": repr(vs.tol) if vs.backend == FLOAT else None,
        },
        "budgets": {
            "max_elements": args.max_elements,
            "search_nodes": args.budget,
        },
        "timings": {},
    }


def _certificate_payload(cert) -> dict:
    if cert.verdict == "NONCONTEXTUAL":
        return {
            "verdict": cert.verdict,
            "weights": {str(k): str(w) for k, w in sorted(cert.weights.items())},
        }
    if cert.empty_s01:
        return {
            "verdict": cert.verdict,
            "empty_s01": True,
            "note": "no deterministic states exist, so no NCHV model exists",
        }
    ineq = cert.inequality
    return {
        "verdict": cert.verdict,
        "inequality": {
            "atom_order": list(ineq.atom_order),
            "coefficients": {v: c for v, c in ineq.coeffs.items() if c != 0},
            "bound": ineq.bound,
            "text": str(ineq),
        },
        "violation": str(cert.violation),
    }


def _state_for(system: QuantumSystem, spec) -> PBAState:
    if spec.density is not None:
        return system.state_from_density(spec.density)
    graph = system.atom_graph()
    unknown = sorted(set(spec.atom_values) - set(graph.vertices))
    if unknown:
        raise ScenarioFormatError(f"atoms: the system has no atoms named {unknown}")
    tol = max(system.tol, DEFAULT_TOL)
    return PBAState(graph, spec.atom_values, backend=system.backend, tol=tol)


def cmd_build(args) -> int:
    source, report = _start(args)
    t0 = time.perf_counter()
    system = source.build_system()
    report["timings"]["build_s"] = time.perf_counter() - t0
    report["system"] = _system_summary(system)
    t0 = time.perf_counter()
    count = prod(map(len, component_listings(system.atom_graph(), args.budget)[0]))
    report["timings"]["zero_one_s"] = time.perf_counter() - t0
    report["zero_one"] = {"count": count}
    _emit(args, report)
    return 0


def cmd_analyze(args) -> int:
    source, report = _start(args)
    t0 = time.perf_counter()
    system = source.build_system()
    report["timings"]["build_s"] = time.perf_counter() - t0
    report["system"] = _system_summary(system)

    vs = source.scenario.vector_set
    spec = state_from_path(Path(args.state), vs.backend, vs.tol, vs.dim)
    state = _state_for(system, spec)

    t0 = time.perf_counter()
    classification = classify_experiment(system, state, budget=args.budget)
    report["timings"]["analyze_s"] = time.perf_counter() - t0

    report["zero_one"] = {"count": classification.embedding.s01_count}
    report["scenario_verdict"] = {
        "embeddable": classification.embedding.embeddable,
        "witness": list(classification.embedding.witness)
        if classification.embedding.witness
        else None,
        "reason": classification.embedding.reason,
    }
    report["state_verdict"] = _certificate_payload(classification.certificate)
    report["classification"] = classification.label
    graph = system.atom_graph()
    if all(f"P{i}" in graph.vertices for i in range(5)):
        report["kcbs"] = {"value": str(kcbs_value(state)), "bound": 2}
    _emit(args, report)
    return EXIT_BY_LABEL[classification.label]


def cmd_graph(args) -> int:
    source, report = _start(args)
    t0 = time.perf_counter()
    system = source.build_system()
    report["timings"]["build_s"] = time.perf_counter() - t0
    graph = system.atom_graph()
    report["graph"] = {
        "vertices": len(graph.vertices),
        "edges": len(graph.edges),
    }
    if args.dot:
        try:
            Path(args.dot).write_text(graph.to_dot(), encoding="utf-8")
        except OSError as exc:
            raise ScenarioFormatError(f"{args.dot}: cannot write ({exc.strerror})") from None
        report["graph"]["dot_path"] = args.dot
    else:
        report["graph"]["dot"] = graph.to_dot()
    _emit(args, report)
    return 0


def cmd_ks_check(args) -> int:
    source, report = _start(args)
    vs = source.scenario.vector_set
    t0 = time.perf_counter()
    result = ks_assignment_search(vs, args.budget)
    report["timings"]["search_s"] = time.perf_counter() - t0
    report["ks_check"] = {
        "vectors": len(vs),
        "complete_bases": sum(1 for b in vs.bases if b.complete),
        "deficient_bases": sum(1 for b in vs.bases if not b.complete),
        "found": result.found,
        "nodes": result.nodes,
        "assignment": result.assignment if result.found else None,
        "exhaustive": not result.found,
    }
    _emit(args, report)
    return 0


def cmd_zero_one(args) -> int:
    source, report = _start(args)
    t0 = time.perf_counter()
    system = source.build_system()
    s01 = zero_one_states(system, args.budget)
    masks = s01.masks  # built on this read, so inside the timing
    report["timings"]["total_s"] = time.perf_counter() - t0
    graph = system.atom_graph()
    # Each state's names in sorted order, read from its mask.
    names = [(v, graph.mask([v])) for v in sorted(graph.vertices)]
    report["zero_one"] = {
        "count": len(masks),
        "atom_order": list(graph.vertices),
        "states": [[v for v, bit in names if mask & bit] for mask in masks],
    }
    _emit(args, report)
    return 0


# -- rendering ----------------------------------------------------------------


def _render_text(report: dict) -> str:
    lines = [f"ctxcert {report['tool']['version']}"]
    sc = report["scenario"]
    lines.append(
        f"scenario: {sc['source']} (dimension {sc['dimension']}, backend {sc['backend']}"
        + (f", tolerance {sc['tolerance']}" if sc.get("tolerance") else "")
        + ")"
    )
    if "system" in report:
        s = report["system"]
        lines.append(
            f"system: elements: {s['elements']}, atoms: {s['atoms']}, "
            f"maximal contexts: {s['maximal_contexts']}"
        )
        lines.append(f"LEP: {s['lep']}; transitivity: {s['transitivity']}")
    if "zero_one" in report:
        lines.append(f"0-1 states: {report['zero_one']['count']}")
        if "states" in report["zero_one"]:
            for ones in report["zero_one"]["states"]:
                lines.append("  ones: " + (", ".join(ones) if ones else "(none)"))
    if "scenario_verdict" in report:
        v = report["scenario_verdict"]
        if v["embeddable"]:
            lines.append("scenario: embeddable into a Boolean algebra")
        else:
            lines.append(
                f"scenario: not embeddable (witness {tuple(v['witness'])}; {v['reason']})"
            )
    if "state_verdict" in report:
        cert = report["state_verdict"]
        lines.append(f"state: {cert['verdict']}")
        if "inequality" in cert:
            lines.append(f"  separating inequality: {cert['inequality']['text']}")
            lines.append(f"  violation: {cert['violation']}")
        if "weights" in cert:
            ws = ", ".join(f"state {k}: {w}" for k, w in cert["weights"].items())
            lines.append(f"  weights: {ws}")
        if cert.get("empty_s01"):
            lines.append(f"  {cert['note']}")
    if "kcbs" in report:
        lines.append(
            f"pentagon value: {report['kcbs']['value']} (noncontextual bound {report['kcbs']['bound']})"
        )
    if "classification" in report:
        lines.append(f"classification: {report['classification']}")
    if "ks_check" in report:
        k = report["ks_check"]
        lines.append(
            f"vectors: {k['vectors']}, complete bases: {k['complete_bases']}, "
            f"deficient: {k['deficient_bases']}"
        )
        if k["found"]:
            ones = sorted(n for n, v in k["assignment"].items() if v == 1)
            lines.append(f"assignment found ({k['nodes']} nodes); ones: {', '.join(ones)}")
        else:
            lines.append(f"no assignment (exhaustive, {k['nodes']} nodes)")
    if "graph" in report:
        g = report["graph"]
        lines.append(f"atom graph: {g['vertices']} vertices, {g['edges']} edges")
        if "dot_path" in g:
            lines.append(f"wrote DOT to {g['dot_path']}")
    return "\n".join(lines) + "\n"


def _emit(args, report: dict) -> None:
    if args.format == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report), end="")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", help="builtin name or scenario JSON path")
    parser.add_argument(
        "--backend",
        choices=("exact", "float"),
        help="override the scenario file's backend (default: inferred)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        help="override the float-backend tolerance of a scenario file",
    )
    parser.add_argument(
        "--max-elements",
        type=int,
        default=DEFAULT_MAX_ELEMENTS,
        help="closure element cap (default %(default)s)",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_SEARCH_BUDGET,
        help="search node cap (default %(default)s)",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument(
        "--no-cache", action="store_true", help="skip the .ctxcache beside scenario files"
    )
    parser.add_argument("-v", "--verbose", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxcert",
        description="certify classicality, noncontextuality and contextuality "
        "of projective measurement scenarios",
    )
    parser.add_argument("--version", action="version", version=f"ctxcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build the system and print its summary")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="full pipeline: scenario + state -> classification")
    _add_common(p)
    p.add_argument("--state", required=True, help="state JSON path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph", help="export the atom graph")
    _add_common(p)
    p.add_argument("--dot", help="write DOT to this path")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("ks-check", help="search for a deterministic assignment")
    _add_common(p)
    p.set_defaults(func=cmd_ks_check)

    p = sub.add_parser("zero-one", help="list the deterministic states")
    _add_common(p)
    p.set_defaults(func=cmd_zero_one)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    basic_config(
        level=INFO if args.verbose else WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except CtxcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
