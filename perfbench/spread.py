#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and its
quartile spread (Q3 - Q1 over the median) against the bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads ks-cli hull-lp --seeds 1-10 [--trace 1] [--out FILE]

Runs go one at a time.  ``--out`` writes the medians, spreads and run
results as JSON.  Exits 1 when a spread other than setup_s's reaches its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    result.update(exit=proc.returncode, run_s=time.perf_counter() - t0, seed=seed)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return result


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        out[name] = {"median": median, "spread": spread, "bound": bounds.get(name)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]} if not args.trace else {}
    report, wide = {}, False
    for workload in args.workloads:
        results = [run_once(workload, s, spec["run_seconds"], args.trace) for s in _seeds(args.seeds)]
        bad = [r["seed"] for r in results if r["exit"] != 0 or not r.get("correct")]
        summary = summarize([r for r in results if r.get("metrics")], bounds)
        runs = [
            {k: r.get(k) for k in ("seed", "exit", "correct", "run_s")}
            | {"values": {n: m["value"] for n, m in r.get("metrics", {}).items()}}
            for r in results
        ]
        report[workload] = {"summary": summary, "runs": runs}
        longest = max(r["run_s"] for r in results)
        print(f"{workload}: {len(results)} runs, longest {longest:.1f} s, failed seeds {bad}")
        for name, row in summary.items():
            bound = row["bound"]
            flag = ""
            if bound is not None and name != "setup_s" and row["spread"] >= bound:
                flag, wide = "  OVER BOUND", True
            elif bound is not None and row["spread"] >= bound / 3:
                flag = "  over a third of the bound"
            shown = f"{bound:g}" if bound is not None else "-"
            print(f"  {name:<40} median {row['median']:<12.6g} spread {row['spread']:.4f} bound {shown}{flag}")
        wide = wide or bool(bad)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
