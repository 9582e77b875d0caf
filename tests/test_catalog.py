"""Built-in fixtures: load-time guards, pinned contexts, observable bundles."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from certificate_helpers import solve_pivots
from ctxcert.analyze import zero_one_states
from ctxcert.catalog import (
    BUILTINS,
    Observable,
    ceg_set,
    kcbs_state,
    kcbs_vectors,
    three_observables,
    twelve_generator_cover,
    twelve_generators,
)
from ctxcert.errors import DegenerateCoefficients
from ctxcert.graphs import PBAState
from ctxcert.isomorphism import graphs_isomorphic
from ctxcert.linalg import join, quantum_state_eval
from ctxcert.systems import systems_equal


def test_builtin_registry_names():
    assert set(BUILTINS) == {"ceg", "ceg17", "ceg-lift", "ceg-gen12", "kcbs"}


def test_twelve_generator_cover_contains_pinned_context():
    cover = twelve_generator_cover()
    assert len(cover) == 6
    assert 0 in cover  # the basis generated by (1,0,0,0),(0,1,0,0),(0,0,1,1),(0,0,1,-1)


def test_twelve_generators_shape():
    gens = twelve_generators()
    assert len(gens) == 12
    assert all(g.rank == 2 for g in gens)
    # The pinned context emits exactly the advertised pair.
    vs = ceg_set()
    p1 = join(vs.projector("(1,0,0,0)"), vs.projector("(0,1,0,0)"))
    p2 = join(vs.projector("(0,1,0,0)"), vs.projector("(0,0,1,1)"))
    assert gens[0] == p1
    assert gens[1] == p2


def test_twelve_generator_system_matches_ceg(q_ceg, q_twelve):
    assert systems_equal(q_twelve, q_ceg)


def test_atom_graphs_of_equal_systems_isomorphic(q_ceg, q_twelve):
    ok, _ = graphs_isomorphic(q_ceg.atom_graph(), q_twelve.atom_graph())
    assert ok


def test_ceg_prime_system_identical(q_ceg, q_ceg_prime):
    assert systems_equal(q_ceg_prime, q_ceg)


def test_kcbs_ring_within_tolerance():
    vs = kcbs_vectors()
    for i in range(5):
        u = vs.vectors[i]
        v = vs.vectors[(i + 1) % 5]
        inner = sum(a * b for a, b in zip(u, v))
        assert abs(inner) < 1e-9


def test_kcbs_state_born_values():
    vs = kcbs_vectors()
    rho = kcbs_state()
    for name in vs.names:
        p = vs.projector(name)
        assert quantum_state_eval(rho, p) == pytest.approx(1 / math.sqrt(5), abs=1e-9)


def test_kcbs_atom_graph_is_pentagon_with_completions(q_kcbs):
    g = q_kcbs.atom_graph()
    for i in range(5):
        j = (i + 1) % 5
        assert g.has_edge(f"P{i}", f"P{j}")
        assert g.has_edge(f"P{i}{j}", f"P{i}")
        assert g.has_edge(f"P{i}{j}", f"P{j}")
    assert len(g.edges) == 15


def test_three_observables_cover_the_pentagon():
    obs = three_observables((1, 2, 3), (1, 2, 3), (1, -1))
    seen = set()
    for o in obs:
        seen.update(o.event_labels)
    assert {"P0", "P1", "P2", "P3", "P4"} <= seen
    for o in obs:
        total = o.projectors[0]
        for p in o.projectors[1:]:
            total = join(total, p)
        assert total.is_identity()


def test_three_observables_reject_degenerate_outcomes():
    with pytest.raises(DegenerateCoefficients):
        three_observables((1, 1, 3), (1, 2, 3), (1, -1))
    with pytest.raises(DegenerateCoefficients):
        three_observables((1, 2, 3), (1, 2, 3), (2, 2))


def test_dichotomic_observable_shape():
    obs = three_observables(c=(1.0, -1.0))
    c_obs = obs[2]
    assert isinstance(c_obs, Observable)
    assert len(c_obs.projectors) == 2
    assert c_obs.projectors[0].rank == 1 and c_obs.projectors[1].rank == 2


def test_pentagon_marginals_determine_the_state(q_kcbs):
    # Two graph states agreeing on P0..P4 agree everywhere: the triangle
    # normalizations force every completion value.
    rng = random.Random(4)
    g = q_kcbs.atom_graph()
    for _ in range(100):
        margins = [rng.uniform(0, 1) for _ in range(5)]
        if any(margins[i] + margins[(i + 1) % 5] > 1 for i in range(5)):
            continue
        values = {f"P{i}": margins[i] for i in range(5)}
        for i in range(5):
            j = (i + 1) % 5
            values[f"P{i}{j}"] = 1 - margins[i] - margins[j]
        state = PBAState(g, values, backend="float")
        # Any alternative value on a completion breaks the clique equation.
        for i in range(5):
            j = (i + 1) % 5
            perturbed = dict(values)
            perturbed[f"P{i}{j}"] += 0.25
            with pytest.raises(Exception):
                PBAState(g, perturbed, backend="float")
        # Re-derive through the generic clique solver and compare.
        from ctxcert.certify import clique_reduction

        red = clique_reduction(g)
        solved = solve_pivots(red, 
            {v: Fraction(values[v]).limit_denominator(10**9) for v in red.free}
        )
        for v in g.vertices:
            assert float(solved[v]) == pytest.approx(values[v], abs=1e-8)


def test_zero_one_state_counts_by_builtin(q_ceg, q_ceg_prime, q_twelve, q_lift, q_kcbs):
    assert len(zero_one_states(q_ceg)) == 0
    assert len(zero_one_states(q_ceg_prime)) == 0
    assert len(zero_one_states(q_twelve)) == 0
    assert len(zero_one_states(q_lift)) == 1
    assert len(zero_one_states(q_kcbs)) == 11
