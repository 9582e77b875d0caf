#!/usr/bin/env python3
"""Benchmark of the ctxcert pipeline: closure, atoms, 0-1 states, certificates.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ks-cli --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``ks-cli``    the real ``ctxcert analyze`` CLI, one subprocess at a time, on
                CEG, CEG17 and Peres-24 (cold, then warm from the cache) and
                CEG with ``--backend float``.
* ``hull-lp``   ``classify_experiment`` in-process on KCBS white-noise states,
                Yu-Oh states and the k-bases family at k=3.
* ``s01-embed`` ``scenario_classical(system, zero_one_states(system))`` on the
                k-bases family at k=4 to k=6, plus a k=9 0-1 listing.

Operations of one pass run in order, and whole passes (at least two) repeat
for about ``--seconds``.  Every operation is checked against the known answers
in ``answers.py``.  Each operation's latency is its mean time over the
passes, each time scaled to a reference speed (see ``REF_S``).  ``wall_s`` (and
``cold_s``/``warm_s``, ``verdicts_per_s``) sums these, and the latency
percentiles are taken over them.

With ``--trace 0`` the last line is the JSON result with the end-to-end
metrics.  With ``--trace 1`` two rounds of an untraced and a traced pass run
in-process (``ks-cli`` through ``ctxcert.cli.main``), with the heavy
operations added (ceg-lift, hull k=4, embedding k=7; see ``workloads.py``),
and the result holds the per-layer metrics and the tracing overhead.  Spans
go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("ks-cli", "hull-lp", "s01-embed")
SETUP_REPEATS = 9
START_REPEATS = 5
TRACE_ROUNDS = 2

# A shared host's speed is not steady: the same pure-Python work flips
# between two speeds about 1.7x apart every second or so, and the share of
# slow time drifts over minutes (CPU time moves with wall time; steal time is
# nil), longer than a run can wait out.  So a run also times a fixed
# pure-Python reference loop, REF_CHUNKS times between operations and around
# each setup, and scales every timed operation or setup by REF_S / (the
# loop's mean time just before and just after it): it reads as the time at
# the speed where the loop takes REF_S.  The loop does no ctxcert work, so a
# change to the program moves the scaled times as it moves the raw ones.  The
# raw wall time and the scale are printed in the run table.
REF_S = 1.6e-3  # the loop's mean on a 2-vCPU shared x86-64 VM, Python 3.11
REF_CHUNKS = 8

END_TO_END_UNITS = {
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "verdict_p50_s": "s",
    "verdict_tail_s": "s",
    "cold_s": "s",
    "warm_s": "s",
    "correct_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _reference_loop() -> None:
    """Rational sums and dict updates, the interpreter work of ctxcert's exact kernels."""
    total = Fraction(0)
    for i in range(1, 300):
        total += Fraction(1, i * i + 1)
    counts: dict[int, int] = {}
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i


def _reference_s() -> float:
    t0 = time.perf_counter()
    for _ in range(REF_CHUNKS):
        _reference_loop()
    return (time.perf_counter() - t0) / REF_CHUNKS


def _checkout_ready() -> bool:
    return (SRC / "ctxcert" / "__init__.py").is_file() and (SRC / "ctxcert" / "cli.py").is_file()


def _setup(workload: str, rng, tmp: Path, traced: bool):
    import workloads as w

    if workload == "ks-cli":
        runner = w.inprocess_runner if traced else w.subprocess_runner(SRC, tmp)
        return w.setup_ks_cli(rng, tmp, runner, traced)
    if workload == "hull-lp":
        return w.setup_hull_lp(rng, traced)
    return w.setup_s01_embed(rng, traced)


def _timed_setup(workload: str, seed: int, tmp: Path, traced: bool, repeats: int):
    """Set up ``repeats`` times from the same seed; return the last, and each
    time scaled by the reference loop around it."""
    scaled, prepared = [], None
    for i in range(repeats):
        where = tmp / f"setup{i}"
        where.mkdir(parents=True)
        before = _reference_s()
        t0 = time.perf_counter()
        prepared = _setup(workload, random.Random(seed), where, traced)
        raw = time.perf_counter() - t0
        scaled.append(raw * 2 * REF_S / (before + _reference_s()))
    return prepared, scaled


class Tally:
    """Per-kind latency samples plus correctness and error counts.  With
    ``scaled``, ``samples`` holds the times scaled to REF_S and ``raw`` the
    times as measured."""

    def __init__(self, scaled: bool = False):
        self.samples: dict[str, list[float]] = {}
        self.raw: dict[str, list[float]] = {}
        self.scaled = scaled
        self._before: float | None = None  # the reference loop's time since the last operation
        self.attempted = self.incorrect = self.errors = 0

    def run(self, op, tracer=None) -> None:
        if self.scaled and self._before is None:
            self._before = _reference_s()
        self.attempted += 1
        if tracer is not None:
            tracer.op = f"{op.kind}#{self.attempted}"
        t0 = time.perf_counter()
        try:
            bad = op.run()
        except Exception:  # one failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.errors += 1
            self._before = None
            return
        raw = time.perf_counter() - t0
        self.raw.setdefault(op.kind, []).append(raw)
        if self.scaled:
            after = _reference_s()
            raw, self._before = raw * 2 * REF_S / (self._before + after), after
        self.samples.setdefault(op.kind, []).append(raw)
        if bad:
            self.incorrect += 1
            for line in bad:
                print(f"MISMATCH {line}", file=sys.stderr)


def _measure(ops, seconds: float) -> tuple[Tally, float]:
    """Whole passes, so every operation gets the same number of samples: at
    least two, and then as many as fit ``seconds`` best (a pass starts only if
    it would end less than half a pass late)."""
    tally = Tally(scaled=True)
    start = time.perf_counter()
    passes = 0
    while True:
        _pass(ops, tally)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= 2 and elapsed + elapsed / passes / 2 > seconds:
            return tally, elapsed


TAIL_PERCENTILE = 90


def _percentile(values: list[float], q: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered) / 100), 1) - 1]


def _end_to_end(workload: str, ops, tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    # Every sample of a kind is the same work, so the mean is taken over all of them.
    typical = {kind: statistics.fmean(v) for kind, v in tally.samples.items()}
    unscaled = sum(statistics.fmean(tally.raw[op.kind]) for op in ops if op.kind in tally.raw)
    per_op = [typical.get(op.kind, math.nan) for op in ops]
    wall = sum(per_op)
    cold = sum(m for op, m in zip(ops, per_op) if op.kind.endswith(":cold"))
    warm = sum(m for op, m in zip(ops, per_op) if op.kind.endswith(":warm"))
    if workload != "ks-cli":  # in-process: no cache, no process start; the pass is all warm
        cold, warm = wall, wall
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "ks-cli" else resource.RUSAGE_SELF)
    values = {
        "wall_s": wall,
        "verdicts_per_s": len(ops) / wall,
        "verdict_p50_s": _percentile(per_op, 50),
        "verdict_tail_s": _percentile(per_op, TAIL_PERCENTILE),
        "cold_s": cold,
        "warm_s": warm,
        "correct_ratio": (tally.attempted - tally.incorrect - tally.errors) / tally.attempted,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": rss.ru_maxrss / 1024,
    }
    samples = [len(v) for v in tally.samples.values()]
    info = {
        "latency_operations": len(per_op),
        "tail_percentile": TAIL_PERCENTILE,
        "samples_per_kind_min": min(samples),
        "error_ratio": tally.errors / tally.attempted,
        "operations_per_pass": len(ops),
        "passes": round(tally.attempted / len(ops), 2),
        "wall_unscaled_s": unscaled,
        "speed_scale": wall / unscaled,
    }
    return values, info


def _cli_start_s(tmp: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctxcert.cli"], cwd=tmp, env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _pass(ops, tally: Tally, tracer=None) -> float:
    t0 = time.perf_counter()
    for op in ops:
        tally.run(op, tracer)
    return time.perf_counter() - t0


def _traced(workload: str, seed: int, tmp: Path) -> tuple[dict, Tally, object]:
    """TRACE_ROUNDS rounds of an untraced and a traced in-process pass, each on
    a fresh setup; the per-layer numbers come from the last traced pass, the
    overhead from the fastest pass of each kind."""
    import layers
    from spans import Tracer

    start_s = _cli_start_s(tmp)
    tally = Tally()
    untraced, traced = [], []
    for round_ in range(TRACE_ROUNDS):
        plain, _ = _timed_setup(workload, seed, tmp / f"untraced{round_}", True, 1)
        untraced.append(_pass(plain.ops, tally))
        tracer = Tracer()
        tracer.install()
        try:
            tracer.op = "setup"
            prepared, _ = _timed_setup(workload, seed, tmp / f"traced{round_}", True, 1)
            traced.append(_pass(prepared.ops, tally, tracer))
        finally:
            tracer.uninstall()
    metrics = layers.per_layer(tracer, prepared.ops, start_s, min(traced), min(untraced))
    return metrics, tally, tracer


def _print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<40} {shown:>14} {units.get(name, '')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _checkout_ready():
        print(f"error: no ctxcert sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ctxcert

    if Path(ctxcert.__file__).resolve().parent != (SRC / "ctxcert").resolve():
        print(f"error: imported ctxcert from {ctxcert.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # One CPU for this process and the CLI runs it starts, so that the
    # reference loop and the work it scales share that CPU's contention.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            import layers

            metrics, tally, tracer = _traced(args.workload, args.seed, tmp)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            _print_table(f"per-layer metrics, {args.workload}, seed {args.seed}", metrics, layers.UNITS)
            for line in layers.predictions(tracer, args.workload):
                print(line)
            units = layers.UNITS
        else:
            prepared, setup_times = _timed_setup(args.workload, args.seed, tmp, False, SETUP_REPEATS)
            tally, measured = _measure(prepared.ops, args.seconds)
            metrics, info = _end_to_end(args.workload, prepared.ops, tally, setup_times)
            _print_table(f"end-to-end metrics, {args.workload}, seed {args.seed}", metrics, END_TO_END_UNITS)
            _print_table("run", {**info, "measured_s": measured}, {"measured_s": "s"})
            _print_table("work per pass", {k: json.dumps(v) for k, v in prepared.counts.items()}, {})
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = tally.errors + tally.incorrect
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
