"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import pytest

from ctxcert.analyze import (
    CONTEXTUAL,
    NONCLASSICAL_SCENARIO_ONLY,
    NONCONTEXTUAL,
    classify_experiment,
    is_noncontextual,
    kcbs_value,
    scenario_classical,
    zero_one_states,
)
from ctxcert.certify import clique_reduction
from ctxcert.catalog import (
    BUILTINS,
    b2_pasted,
    ceg_prime,
    ceg_set,
    kcbs_state,
    kcbs_system,
    three_observables,
    twelve_generators,
)
from ctxcert.graphs import PBAState, ZeroOneState, enumerate_zero_one_states
from ctxcert.linalg import (
    DensityMatrix,
    commutes,
    complement,
    join,
    meet,
    quantum_state_eval,
)
from ctxcert.systems import generate_system, systems_equal
from ctxcert.vectorsets import ks_assignment_search

from certificate_helpers import coefficient_vector, solve_pivots
from test_analyze import caratheodory_member, grid_member, wheel_graph, wheel_state


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    print(f"[PASS] criterion {number}: {description}")


def test_criterion_1_ceg_has_no_assignment():
    with criterion(1, "18-vector CEG set admits no deterministic assignment (< 5 s)"):
        t0 = time.perf_counter()
        result = ks_assignment_search(ceg_set())
        elapsed = time.perf_counter() - t0
        assert not result.found
        assert elapsed < 5.0


def test_criterion_2_ceg_prime_assignment_and_identical_system(q_ceg):
    with criterion(
        2, "CEG' has an assignment yet closes to the same deterministic-state-free system (< 2 min)"
    ):
        t0 = time.perf_counter()
        vs = ceg_prime()
        assert len(vs) == 17
        search = ks_assignment_search(vs)
        assert search.found
        prime_system = BUILTINS["ceg17"].system()
        s01 = zero_one_states(prime_system)
        assert s01 == []
        assert systems_equal(prime_system, q_ceg)
        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0


def test_criterion_3_twelve_generators(q_ceg):
    with criterion(3, "twelve rank-2 generators regenerate the CEG system exactly"):
        gens = twelve_generators()
        assert len(gens) == 12
        assert all(g.backend == "exact" for g in gens)
        q12 = generate_system(gens)
        assert q12.backend == "exact"
        assert systems_equal(q12, q_ceg)


def test_criterion_4_lifted_system(q_lift):
    with criterion(
        4, "lifted CEG: deterministic states exist (all on the new ray) but embedding fails"
    ):
        s01 = zero_one_states(q_lift)
        assert len(s01) >= 1
        assert all(s.ones == frozenset({"kprime"}) for s in s01)
        report = scenario_classical(q_lift, s01)
        assert not report.embeddable
        classification = classify_experiment(q_lift, s01[0].as_state(), s01)
        assert classification.label == NONCLASSICAL_SCENARIO_ONLY


def test_criterion_5_kcbs_quantum_violation():
    with criterion(
        5,
        "pentagon quantum state: value sqrt(5) within 1e-9, contextual, "
        "inequality (1,1,1,1,1,0,0,0,0,0) <= 2 (< 1 s)",
    ):
        t0 = time.perf_counter()
        system = kcbs_system()
        state = system.state_from_density(kcbs_state())
        value = kcbs_value(state)
        assert abs(value - math.sqrt(5)) < 1e-9
        s01 = zero_one_states(system)
        cert = is_noncontextual(state, s01)
        assert cert.verdict == CONTEXTUAL
        assert coefficient_vector(cert.inequality) == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
        assert cert.inequality.bound == 2
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0


def test_criterion_6_kcbs_noncontextual_bound(q_kcbs, kcbs_s01):
    with criterion(6, "deterministic pentagon bound is exactly 2 over exactly 11 states"):
        values = [kcbs_value(s.as_state()) for s in kcbs_s01]
        assert max(values) == 2
        assert len(kcbs_s01) == 11
        # Oracle: brute-force independent sets of the plain 5-cycle.
        adj = {i: {(i - 1) % 5, (i + 1) % 5} for i in range(5)}
        independent = [
            frozenset(c)
            for mask in range(32)
            for c in [[i for i in range(5) if mask >> i & 1]]
            if all(j not in adj[i] for i in c for j in c)
        ]
        assert len(independent) == 11
        pentagon_supports = {
            frozenset(i for i in range(5) if s.value(f"P{i}")) for s in kcbs_s01
        }
        assert pentagon_supports == set(independent)


def test_criterion_7_three_measurements(q_kcbs):
    with criterion(
        7, "three observables cover the pentagon; marginals determine states (1000 samples)"
    ):
        obs = three_observables((1, 2, 3), (1, 2, 3), (1, -1))
        observed = set()
        for o in obs:
            observed.update(o.event_labels)
        assert {"P0", "P1", "P2", "P3", "P4"} <= observed

        graph = q_kcbs.atom_graph()
        red = clique_reduction(graph)
        assert set(red.free) == {"P0", "P1", "P2", "P3", "P4"}
        rng = random.Random(2718)
        samples = 0
        while samples < 1000:
            margins = [Fraction(rng.randint(0, 64), 128) for _ in range(5)]
            if any(margins[i] + margins[(i + 1) % 5] > 1 for i in range(5)):
                continue
            samples += 1
            values = {f"P{i}": margins[i] for i in range(5)}
            for i in range(5):
                j = (i + 1) % 5
                values[f"P{i}{j}"] = 1 - margins[i] - margins[j]
            state = PBAState(graph, values)
            # The generic equality solver reconstructs the same completion
            # from the pentagon marginals alone: the extension is unique.
            solved = solve_pivots(red, {v: margins[int(v[1])] for v in red.free})
            assert all(solved[v] == values[v] for v in graph.vertices)


def test_criterion_8_b2_counterexample():
    with criterion(8, "pasted counterexample: order fails at (a1, c, a2|c), exclusivity at (a1, a2)"):
        b2 = b2_pasted()
        transitivity = b2.check_transitivity()
        assert not transitivity.holds
        assert transitivity.violation == ("a1", "c", "a2|c")
        lep = b2.check_lep()
        assert not lep.holds
        assert lep.violation == ("a1", "a2")


def _random_density(rng) -> DensityMatrix:
    pures = []
    weights = []
    for _ in range(3):
        vec = [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(3)]
        pures.append(DensityMatrix.from_pure_vector(vec, backend="float"))
        weights.append(rng.random())
    total = sum(weights)
    return DensityMatrix.mixture([w / total for w in weights], pures)


def test_criterion_9_property_suites(q_kcbs, kcbs_s01):
    with criterion(
        9,
        "state axioms (100 densities, 1e-8), monotonicity (100 states), "
        "decomposition independence (100 elements), LP vs oracle (50 instances)",
    ):
        rng = random.Random(31415)
        elements = q_kcbs.elements
        mats = [p.mat for p in elements]
        commuting_pairs = [
            (i, j)
            for i, j in combinations(range(len(elements)), 2)
            if mats[i].mul(mats[j]).approx_equal(mats[j].mul(mats[i]))
        ]

        # State axioms for Born-rule states of random densities.
        for _ in range(100):
            rho = _random_density(rng)
            zero_val = quantum_state_eval(rho, elements[q_kcbs.zero_index])
            assert abs(zero_val) <= 1e-8
            i, j = commuting_pairs[rng.randrange(len(commuting_pairs))]
            p, q = elements[i], elements[j]
            assert commutes(p, q)
            lhs = quantum_state_eval(rho, join(p, q)) + quantum_state_eval(rho, meet(p, q))
            rhs = quantum_state_eval(rho, p) + quantum_state_eval(rho, q)
            assert abs(lhs - rhs) <= 1e-8
            assert (
                abs(quantum_state_eval(rho, complement(p)) - (1 - quantum_state_eval(rho, p)))
                <= 1e-8
            )

        # Monotonicity across all comparable pairs for random graph states.
        from test_systems import random_pentagon_state

        for _ in range(100):
            state = random_pentagon_state(q_kcbs, rng)
            extended = q_kcbs.extend_state(state)
            for i in range(len(elements)):
                for j in range(len(elements)):
                    if q_kcbs.leq_idx(i, j):
                        assert extended.eval_index(i) <= extended.eval_index(j)

        # Decomposition independence on 100 random elements.
        state = random_pentagon_state(q_kcbs, rng)
        for _ in range(100):
            idx = rng.randrange(len(elements))
            values = {
                sum(state.value(q_kcbs.atom_label(a)) for a in decomposition)
                for decomposition in q_kcbs.decompositions(idx)
            }
            assert len(values) == 1

        # LP verdict versus independent membership oracles on 50 instances.
        from ctxcert.graphs import ExclusivityGraph

        graph_pool = [
            ExclusivityGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]),
            ExclusivityGraph(
                ["a", "b", "c", "d", "e"],
                [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
            ),
            ExclusivityGraph(["a", "b", "c"], [("a", "b"), ("b", "c")]),
            wheel_graph(),
        ]
        instances = 0
        while instances < 50:
            g = graph_pool[rng.randrange(len(graph_pool))]
            s01 = enumerate_zero_one_states(g)
            assert 1 <= len(s01) <= 6
            if "hub" in g._index and rng.random() < 0.6:
                t = Fraction(rng.randint(0, 8), 16)
                p = wheel_state(t)
                denominator = None
            else:
                denominator = rng.randint(2, 6)
                distinct = rng.sample(range(len(s01)), min(len(s01), rng.randint(1, 3)))
                support = [rng.choice(distinct) for _ in range(denominator)]
                values = {
                    v: Fraction(sum(s01[k].value(v) for k in support), denominator)
                    for v in g.vertices
                }
                p = PBAState(g, values)
            cert = is_noncontextual(p, s01)
            member = caratheodory_member(
                s01, {v: Fraction(p.value(v)) for v in g.vertices}, g.vertices
            )
            assert (cert.verdict == NONCONTEXTUAL) == member
            if denominator is not None:
                assert cert.verdict == NONCONTEXTUAL
                assert grid_member(
                    s01,
                    {v: Fraction(p.value(v)) for v in g.vertices},
                    g.vertices,
                    denominator,
                    max_support=min(3, len(s01)),
                )
            instances += 1


def test_criterion_10_deterministic_reports(tmp_path):
    with criterion(10, "repeated analyses emit byte-identical reports modulo timings"):
        psi = tmp_path / "psi.json"
        psi.write_text(json.dumps({"vector": [{"re": "0"}, {"re": "0"}, {"re": "1"}]}))
        dumps = []
        for _ in range(2):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "ctxcert.cli",
                    "analyze",
                    "kcbs",
                    "--state",
                    str(psi),
                    "--format",
                    "json",
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 20
            doc = json.loads(proc.stdout)
            doc.pop("timings")
            dumps.append(json.dumps(doc, sort_keys=True))
        assert dumps[0] == dumps[1]
