#!/usr/bin/env python3
"""Check that a warm run (system read from the .ctxcache) reports what a cold
run reports.

Writes the CEG scenario as a JSON file and the maximally mixed state beside it
in a temporary directory, runs ``ctxcert analyze --format json`` twice (cold,
which writes the cache, then warm, which reads it) and exits 1 unless the warm
run read the cache and the two reports are equal apart from ``timings``.  The
CEG analyze report names no atom, so ``ctxcert graph`` is compared too, warm
against ``--no-cache``: its DOT text names every atom.  It also exits 1 unless
the cached system holds exactly the keys of format version 2, and unless a
cache rewritten as version 1 is ignored with its reason logged, rewritten, and
the report is again the cold one.  Standard library only:

    PYTHONPATH=src python scripts/warm_cache_check.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from ctxcert.catalog import BUILTINS

V2_KEYS = ["backend", "dimension", "elements", "format", "tolerance", "version"]


def _entry(x) -> dict:
    re, im = x if isinstance(x, tuple) else (x, 0)
    return {"re": str(re), "im": str(im)}


def scenario_doc(vs) -> dict:
    return {
        "dimension": vs.dim,
        "vectors": [
            {"name": name, "entries": [_entry(x) for x in vec]}
            for name, vec in zip(vs.names, vs.vectors)
        ],
        "bases": [[vs.names[i] for i in b.indices] for b in vs.bases],
    }


def run(*argv: str) -> tuple[dict, str]:
    """The JSON report of ``ctxcert argv`` without ``timings``, and the INFO log."""
    proc = subprocess.run(
        [sys.executable, "-m", "ctxcert.cli", *argv, "--format", "json", "--verbose"],
        capture_output=True,
        text=True,
    )
    if proc.returncode == 1:
        sys.exit(f"ctxcert {argv[0]} failed: {proc.stderr.strip()}")
    report = json.loads(proc.stdout)
    report.pop("timings")
    return report, proc.stderr


def main() -> int:
    vs = BUILTINS["ceg"].vector_set()
    d = vs.dim
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp, "ceg.json")
        scenario.write_text(json.dumps(scenario_doc(vs)), encoding="utf-8")
        state = Path(tmp, "mixed.json")
        density = [[{"re": f"1/{d}" if i == j else "0"} for j in range(d)] for i in range(d)]
        state.write_text(json.dumps({"density": density}), encoding="utf-8")
        cold, _ = run("analyze", str(scenario), "--state", str(state))
        cache = Path(tmp, "ceg.json.ctxcache")
        if not cache.exists():
            sys.exit("the cold run wrote no cache")
        stored = json.loads(cache.read_text(encoding="utf-8"))
        if sorted(stored["system"]) != V2_KEYS or stored["system"]["version"] != 2:
            sys.exit(f"the cached system is not format version 2: {sorted(stored['system'])}")
        warm, log = run("analyze", str(scenario), "--state", str(state))
        warm_graph, graph_log = run("graph", str(scenario))
        fresh_graph, _ = run("graph", str(scenario), "--no-cache")
        stored["system"]["version"] = 1
        cache.write_text(json.dumps(stored), encoding="utf-8")
        after_v1, v1_log = run("analyze", str(scenario), "--state", str(state))
        rewritten = json.loads(cache.read_text(encoding="utf-8"))
    for text in (log, graph_log):
        if "loaded system from cache" not in text:
            sys.exit(f"a warm run did not read the cache:\n{text}")
    if "version: expected 2, got 1" not in v1_log or "loaded system from cache" in v1_log:
        sys.exit(f"a version 1 cache was not ignored with its reason:\n{v1_log}")
    if rewritten["system"]["version"] != 2:
        sys.exit("the version 1 cache was not rewritten")
    if cold != warm or warm_graph != fresh_graph or after_v1 != cold:
        print("cold and warm reports differ", file=sys.stderr)
        return 1
    print(f"cold and warm reports agree: {cold['classification']}, {cold['system']['elements']} elements")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
