"""The three workloads.  ``setup`` builds the inputs (and, in-process, the
systems and 0-1 states) and returns the operations of one pass.  Each
operation runs once and returns the list of its mismatches against the known
answers; an empty list means correct.

With ``traced`` a pass also holds the heavy operations (ceg-lift, hull k=4,
embedding k=7) that take several seconds each.  The timed runs leave them out:
on a shared machine a single multi-second sample is as noisy as the machine,
while an operation of a second or less repeats often enough in a run for its
fastest time to be steady.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import answers
import inputs

CLI_TIMEOUT_S = 60
CONTEXTUAL_EXIT = 20


@dataclass
class Op:
    kind: str  # operations of one kind are the same work; medians are taken per kind
    run: Callable[[], list[str]]


@dataclass
class Prepared:
    ops: list[Op]
    counts: dict = field(default_factory=dict)  # structural work counts, for the report


class CliError(RuntimeError):
    """The CLI exited 1 or printed no report."""


# -- ks-cli ------------------------------------------------------------------------


def subprocess_runner(src: Path, cwd: Path):
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(argv: list[str]) -> tuple[int, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "ctxcert.cli", *argv],
            cwd=cwd,
            env=env,
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout

    return run


def inprocess_runner(argv: list[str]) -> tuple[int, str]:
    """``ctxcert.cli.main`` in this process, looked up at call time so that a
    tracer's replacement is the one that runs."""
    import ctxcert.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = ctxcert.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _without_timings(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "timings"}


KS_FILES = [("ceg", 4), ("ceg17", 4), ("peres", 4)]
KS_TRACED_FILES = [("ceg-lift", 5)]


def setup_ks_cli(rng, tmp: Path, runner, traced: bool = False) -> Prepared:
    files = KS_FILES + KS_TRACED_FILES if traced else KS_FILES
    inputs.ceg17_removed_ray_is_implied()
    families = {name: inputs.catalog_family(name) for name in ("ceg", "ceg17", "ceg-lift")}
    families["peres"] = inputs.peres24()
    if inputs.peres_lattice_size(families["peres"][0]) != answers.KNOWN["peres"]["elements"]:
        raise inputs.InputError("Peres lattice count disagrees with the known answer")
    states = {
        d: inputs.write_json(tmp / f"mixed{d}.json", inputs.density_doc(inputs.maximally_mixed(d)))
        for d in (4, 5)
    }
    float_state = inputs.write_json(
        tmp / "mixed4-float.json", inputs.density_doc(inputs.maximally_mixed(4), decimal=True)
    )
    scenario = {}
    for name, _ in files:
        rays, bases = inputs.scramble(rng, *families[name])
        scenario[name] = inputs.write_json(tmp / f"{name}.json", inputs.scenario_doc(rays, bases))

    code, out = runner(["--version"])
    if code != 0 or "ctxcert" not in out:
        raise CliError(f"the CLI does not start (exit {code})")

    reports: dict[str, dict] = {}
    digests: dict[str, str] = {}

    def cache_of(name: str) -> Path:
        path = scenario[name]
        return path.with_name(path.name + ".ctxcache")

    def analyze(argv: list[str]) -> dict:
        code, out = runner(["analyze", *argv, "--format", "json"])
        if code == 1 or not out.strip():
            raise CliError(f"analyze {' '.join(argv)} exited {code}")
        report = json.loads(out)
        if code != CONTEXTUAL_EXIT:
            report["_exit_mismatch"] = code
        return report

    def exit_mismatch(name: str, report: dict) -> list[str]:
        code = report.pop("_exit_mismatch", None)
        return [] if code is None else [f"{name}: exit code {code}, expected {CONTEXTUAL_EXIT}"]

    def cold(name: str, d: int) -> Callable[[], list[str]]:
        def run() -> list[str]:
            cache = cache_of(name)
            bad = [f"{name}: cache exists before the cold run"] if cache.exists() else []
            report = analyze([str(scenario[name]), "--state", str(states[d])])
            bad += exit_mismatch(name, report)
            if not cache.exists():
                bad.append(f"{name}: the cold run wrote no cache")
                digests.pop(name, None)
            else:
                digests[name] = _digest(cache)
            reports[name] = report
            return bad + answers.cli_report_mismatches(name, report)

        return run

    def warm(name: str, d: int) -> Callable[[], list[str]]:
        def run() -> list[str]:
            cache = cache_of(name)
            if name not in digests or not cache.exists():
                return [f"{name}: no cache before the warm run"]
            report = analyze([str(scenario[name]), "--state", str(states[d])])
            bad = exit_mismatch(name, report)
            if _digest(cache) != digests.pop(name):
                bad.append(f"{name}: the warm run changed the cache")
            if _without_timings(report) != _without_timings(reports[name]):
                bad.append(f"{name}: the warm report differs from the cold report")
            cache.unlink()
            return bad + answers.cli_report_mismatches(name, report)

        return run

    def float_ceg() -> list[str]:
        cache = cache_of("ceg")
        bad = [] if not cache.exists() else ["ceg-float: a cache exists before the run"]
        report = analyze([str(scenario["ceg"]), "--backend", "float", "--state", str(float_state)])
        bad += exit_mismatch("ceg-float", report)
        if cache.exists():
            bad.append("ceg-float: the float override wrote a cache")
        return bad + answers.cli_report_mismatches("ceg-float", report, reports.get("ceg"))

    ops = []
    for name, d in KS_FILES:
        ops.append(Op(f"{name}:cold", cold(name, d)))
        ops.append(Op(f"{name}:warm", warm(name, d)))
    ops.append(Op("ceg-float:cold", float_ceg))
    for name, d in files[len(KS_FILES) :]:
        ops.append(Op(f"{name}:cold", cold(name, d)))
        ops.append(Op(f"{name}:warm", warm(name, d)))
    return Prepared(ops, {"scenario_files": len(files), "cli_runs_per_pass": len(ops)})


# -- in-process helpers ---------------------------------------------------------


def _system(rays):
    """Closure through module attributes, so that a tracer's wrappers run."""
    from ctxcert import linalg, systems

    return systems.generate_system([linalg.projector_from_vector(r) for r in rays])


def _density(rho):
    from ctxcert.linalg import DensityMatrix, ExactMatrix

    return DensityMatrix(ExactMatrix.from_entries(rho))


def _k_bases_system(rng, k: int):
    """The scrambled k-bases system, its element and atom counts checked."""
    system = _system(inputs.scramble(rng, *inputs.k_bases(k))[0])
    want = answers.k_bases_counts(k)
    seen = {"elements": len(system), "atoms": len(system.atom_graph().vertices)}
    if seen != {key: want[key] for key in seen}:
        raise inputs.InputError(f"k-bases k={k}: {seen}, expected {want}")
    return system


# -- hull-lp -------------------------------------------------------------------


HULL_RANDOM_STATES = 5
KCBS_EACH_SIDE = 4


def setup_hull_lp(rng, traced: bool = False) -> Prepared:
    from ctxcert import analyze
    from ctxcert.catalog import kcbs_state, kcbs_system
    from ctxcert.linalg import DensityMatrix

    ops: list[Op] = []
    counts: dict = {}

    def classify_op(kind: str, system, state, s01, expect: Callable) -> Op:
        def run() -> list[str]:
            return expect(analyze.classify_experiment(system, state, s01))

        return Op(kind, run)

    kcbs = kcbs_system()
    kcbs_s01 = analyze.zero_one_states(kcbs)
    psi = kcbs_state()
    noise = DensityMatrix.maximally_mixed(3, backend="float")
    for w in inputs.kcbs_noise_grid(rng, KCBS_EACH_SIDE, KCBS_EACH_SIDE):
        state = kcbs.state_from_density(DensityMatrix.mixture([1 - w, w], [psi, noise]))
        want = answers.kcbs_verdict(w)

        def expect(c, w=w, want=want):
            got = c.certificate.verdict
            return [] if got == want else [f"kcbs w={w}: {got}, expected {want}"]

        ops.append(classify_op(f"kcbs:w={w}", kcbs, state, kcbs_s01, expect))
    counts["kcbs"] = {"elements": len(kcbs), "zero_one": len(kcbs_s01)}

    yu_oh = _system(inputs.scramble(rng, *inputs.yu_oh13())[0])
    yu_oh_s01 = analyze.zero_one_states(yu_oh)
    counts["yu-oh"] = {"elements": len(yu_oh), "atoms": len(yu_oh.atom_indices()), "zero_one": len(yu_oh_s01)}

    def yu_oh_expect(c):
        got = c.certificate.verdict
        return [] if got == "CONTEXTUAL" else [f"yu-oh: {got}, expected CONTEXTUAL"]

    def k_expect(k):
        def expect(c):
            if c.embedding.embeddable and c.certificate.verdict == "NONCONTEXTUAL":
                return []
            return [f"k={k}: embeddable={c.embedding.embeddable} {c.certificate.verdict}"]

        return expect

    rhos = [("mixed", inputs.maximally_mixed(3))]
    rhos += [(f"random{i}", inputs.random_rational_density(rng)) for i in range(HULL_RANDOM_STATES)]
    for tag, rho in rhos:
        ops.append(classify_op(f"yu-oh:{tag}", yu_oh, yu_oh.state_from_density(_density(rho)), yu_oh_s01, yu_oh_expect))

    for k, states in ((3, rhos), (4, rhos[:1])) if traced else ((3, rhos),):
        system = _k_bases_system(rng, k)
        s01 = analyze.zero_one_states(system)
        if len(s01) != 3**k:
            raise inputs.InputError(f"k-bases k={k}: {len(s01)} 0-1 states, expected {3**k}")
        counts[f"k={k}"] = answers.k_bases_counts(k)
        for tag, rho in states:
            state = system.state_from_density(_density(rho))
            ops.append(classify_op(f"k={k}:{tag}", system, state, s01, k_expect(k)))
    return Prepared(ops, counts)


# -- s01-embed -------------------------------------------------------------------


# Verdicts per pass at each k.  k=6 carries most of the time; the cheaper k=4
# and k=5 verdicts give the latency percentiles enough operations.  The median
# of the 15 per-operation latencies is a k=5 verdict (ranks 4-9) and their p90
# (rank 14) a k=6 verdict, wherever the k=9 listing falls among those.
EMBED_REPEATS = {4: 3, 5: 6, 6: 5}
EMBED_TRACED = {7: 1}
LISTING_K = 9


def setup_s01_embed(rng, traced: bool = False) -> Prepared:
    from ctxcert import analyze

    ops: list[Op] = []
    counts: dict = {}
    repeats = {**EMBED_REPEATS, LISTING_K: 1, **(EMBED_TRACED if traced else {})}
    for k in repeats:
        want = answers.k_bases_counts(k)
        system = _k_bases_system(rng, k)
        counts[f"k={k}"] = want

        if k == LISTING_K:

            def listing(system=system, k=k, want=want) -> list[str]:
                n = len(analyze.zero_one_states(system))
                return [] if n == want["zero_one"] else [f"k={k}: {n} 0-1 states, expected {want}"]

            ops.append(Op(f"k={k}:listing", listing))
            continue

        def verdict(system=system, k=k, want=want) -> list[str]:
            s01 = analyze.zero_one_states(system)
            report = analyze.scenario_classical(system, s01)
            if len(s01) == want["zero_one"] and report.embeddable:
                return []
            return [f"k={k}: {len(s01)} 0-1 states, embeddable={report.embeddable}"]

        ops.extend(Op(f"k={k}:verdict", verdict) for _ in range(repeats[k]))
    return Prepared(ops, counts)
