"""Certification layer: embeddability, hull membership, classification."""

from __future__ import annotations

import gc
import hashlib
import math
import random
import weakref
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctxcert import analyze, certify, graphs, simplex
from ctxcert.analyze import (
    CLASSICAL,
    CONTEXTUAL,
    NONCLASSICAL_SCENARIO_ONLY,
    NONCONTEXTUAL,
    SeparatingInequality,
    classify_experiment,
    is_noncontextual,
    kcbs_value,
    scenario_classical,
    zero_one_states,
)
from ctxcert.catalog import kcbs_state
from ctxcert.certify import (
    _limit_denominator,
    _membership_lp,
    _north_west_corner,
    _primitive_inequality,
    clique_reduction,
    rationalize_state,
)
from ctxcert.errors import CertificateError, MissingAtom, NotAGraphState
from ctxcert.graphs import ExclusivityGraph, PBAState, enumerate_zero_one_states
from ctxcert.linalg import DensityMatrix, ExactMatrix, FloatMatrix, Projector, projector_from_vector
from ctxcert.systems import QuantumSystem, generate_system

from certificate_helpers import coefficient_vector, evaluate, integer_ray, integer_target
from test_components import _densities, _system, k_bases_rays, yu_oh_plus_rays
from test_simplex import YU_OH_RAYS
from test_systems import diag, random_pentagon_state


def wheel_graph(n=5):
    """Odd cycle plus an apex joined to every rim vertex; one 0-1 state."""
    rim = [f"r{i}" for i in range(n)]
    edges = [(rim[i], rim[(i + 1) % n]) for i in range(n)]
    edges += [("hub", r) for r in rim]
    return ExclusivityGraph(rim + ["hub"], edges)


def wheel_state(t: Fraction, n=5) -> PBAState:
    values = {f"r{i}": t for i in range(n)}
    values["hub"] = 1 - 2 * t
    return PBAState(wheel_graph(n), values)


# -- clique reduction -------------------------------------------------------


def test_clique_reduction_frees_the_pentagon(q_kcbs):
    red = clique_reduction(q_kcbs.atom_graph())
    assert red.free == ("P0", "P1", "P2", "P3", "P4")
    assert set(red.pivots) == {"P01", "P12", "P23", "P34", "P40"}


def test_clique_reduction_eliminates_once_per_graph(kcbs_quantum_state, kcbs_s01):
    certify._eliminate.cache_clear()
    for _ in range(3):
        assert is_noncontextual(kcbs_quantum_state, kcbs_s01) is not None
        rationalize_state(kcbs_quantum_state)
        clique_reduction(kcbs_quantum_state.graph)
    assert certify._eliminate.cache_info().misses == 1


def test_clique_reduction_is_kept_per_vertex_order():
    wheel = wheel_graph()
    reversed_wheel = ExclusivityGraph(list(reversed(wheel.vertices)), wheel.edges)
    assert wheel == reversed_wheel
    for _ in range(2):
        red, other = clique_reduction(wheel), clique_reduction(reversed_wheel)
        assert (red.graph, red.free) == (wheel, ("r0",))
        assert other.graph is reversed_wheel and other.free == ("hub",)


def test_rationalize_float_state(q_kcbs, kcbs_quantum_state):
    exact = rationalize_state(kcbs_quantum_state)
    graph = q_kcbs.atom_graph()
    assert sorted(exact) == sorted(graph.vertices)
    assert all(type(x) is Fraction for x in exact.values())
    for clique in graph.maximal_cliques():
        assert sum(exact[v] for v in clique) == 1
    for v in graph.vertices:
        assert abs(float(exact[v]) - kcbs_quantum_state.value(v)) < 1e-9


def _float_densities(rng, count):
    """Full-rank float densities I/6 + (P(u) + P(v))/4, with u and v drawn
    from the cube [-1, 1]^3: no transcendental function, so the same floats
    on every platform."""
    out = []
    for _ in range(count):
        rho = [[(i == j) / 6 for j in range(3)] for i in range(3)]
        for _ in range(2):
            u = [rng.uniform(-1, 1) for _ in range(3)]
            norm = sum(x * x for x in u)
            for i in range(3):
                for j in range(3):
                    rho[i][j] += u[i] * u[j] / (4 * norm)
        out.append(DensityMatrix(FloatMatrix.from_entries(rho)))
    return out


def _float_target_cases(q_kcbs):
    """The 21-point KCBS noise grid and 20 random Yu-Oh float states."""
    psi, noise = kcbs_state(), DensityMatrix.maximally_mixed(3, backend="float")
    states = [
        q_kcbs.state_from_density(DensityMatrix.mixture([1 - k / 20, k / 20], [psi, noise]))
        for k in range(21)
    ]
    yu_oh = generate_system([projector_from_vector(r, backend="float") for r in YU_OH_RAYS])
    states += [yu_oh.state_from_density(rho) for rho in _float_densities(random.Random(23), 20)]
    return states


# sha256 of the targets of ``_float_target_cases``, each as its list of
# (atom, numerator, denominator) in vertex order, as the values of the
# exact ``PBAState`` that ``rationalize_state`` returned before it returned
# the values alone.
FLOAT_TARGETS_DIGEST = "ca0968b7222263c3250d1d7be8247e8cc66efbaa7f14652d336e66489f671d4a"


def _targets_digest(targets):
    digest = hashlib.sha256()
    for graph, values in targets:
        row = [(v, values[v].numerator, values[v].denominator) for v in graph.vertices]
        digest.update(repr(row).encode())
    return digest.hexdigest()


def test_float_targets_are_exact_states(q_kcbs):
    """Every clique sums to 1 exactly, every free atom is within 1e-9 of the
    float, and the values are those recorded."""
    targets = []
    for p in _float_target_cases(q_kcbs):
        exact = rationalize_state(p)
        assert p.backend == "float" and sorted(exact) == sorted(p.graph.vertices)
        assert all(type(x) is Fraction for x in exact.values())
        for clique in p.graph.maximal_cliques():
            assert sum(exact[v] for v in clique) == 1
        for v in clique_reduction(p.graph).free:
            assert abs(float(exact[v]) - p.value(v)) <= 1e-9
        targets.append((p.graph, exact))
    assert len(targets) == 41
    assert _targets_digest(targets) == FLOAT_TARGETS_DIGEST


@settings(max_examples=500, deadline=None)
@given(
    st.floats(allow_nan=False, allow_infinity=False),
    st.one_of(st.sampled_from([1, 2, 3, 7, 10**6, 10**12]), st.integers(1, 2**70)),
)
@example(5e-324, 10**12)  # the least subnormal
@example(-2.2250738585072014e-308, 10**12)  # the least normal, negated
@example(0.1, 10**12)
@example(-0.375, 8)  # its own denominator, at the bound
@example(0.75, 2)  # 1/2 and 1 are equally close: the convergent 1 wins
@example(0.25, 2)  # 0 and 1/2 are equally close: the convergent 0 wins
@example(-0.875, 4)  # -1 and -3/4 are equally close: the convergent -1 wins
@example(1e300, 10**12)
def test_limit_denominator_matches_fraction(x, bound):
    got = _limit_denominator(x, bound)
    assert type(got) is Fraction and got == Fraction(x).limit_denominator(bound)


def _copying_target(p):
    """The certificate target as ``rationalize_state`` made it for an exact
    state before it returned its values as they are: every value copied
    into a new, re-validated state."""
    if p.backend != "exact":
        return _TARGET(p)
    values = {v: Fraction(p.value(v)) for v in p.graph.vertices}
    return _TARGET(PBAState(p.graph, values, backend="exact"))


_TARGET = certify._target


def test_rationalize_returns_an_exact_state_as_it_is():
    p = _yu_oh_quantum_state()
    assert p.backend == "exact"
    exact = rationalize_state(p)
    assert exact == p.values
    assert all(exact[v] is p.value(v) for v in p.graph.vertices)


def test_exact_classification_does_not_revalidate_the_state(monkeypatch, q_kcbs, kcbs_quantum_state):
    """Neither an exact state nor the rationalized target of a float one is
    validated again by a verdict."""
    system = _yu_oh_plus(0)
    p = system.state_from_density(DensityMatrix.maximally_mixed(3))
    calls = []
    real = graphs.is_state

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(graphs, "is_state", counting)
    assert classify_experiment(system, p).label == CONTEXTUAL
    assert calls == []
    assert kcbs_quantum_state.backend == "float"
    assert classify_experiment(q_kcbs, kcbs_quantum_state).label == CONTEXTUAL
    assert calls == []


def test_certificates_do_not_depend_on_copying_exact_states(monkeypatch):
    system = _yu_oh_plus(0)
    states = [system.state_from_density(rho) for rho in _densities(random.Random(41), 119)]
    got = [classify_experiment(system, p) for p in states]
    copied = []
    monkeypatch.setattr(certify, "_target", lambda p: copied.append(p) or _copying_target(p))
    assert got == [classify_experiment(system, p) for p in states]
    assert len(copied) == len(states) and all(c is p for c, p in zip(copied, states))


# -- membership certificates -----------------------------------------------


def _walked_coupling(marginals):
    """The north-west-corner walk on one vector: a point mass as a second
    vector takes nothing from the walk but its key."""
    (m,) = marginals
    coupling, den = _north_west_corner([m, ({0: 1}, 1)])
    return [(keys[:1], w) for keys, w in coupling], den


def _yu_oh_mixtures(system, rng, count):
    """Random mixtures of three of the Yu-Oh 0-1 states, with rational
    weights: noncontextual states whose weights spread over several states."""
    graph, s01 = system.atom_graph(), zero_one_states(system)
    out = []
    for _ in range(count):
        picks = rng.sample(s01, 3)
        w = [Fraction(rng.randint(1, 9)) for _ in picks]
        total = sum(w)
        values = {v: sum(x * lam.value(v) for x, lam in zip(w, picks)) / total for v in graph.vertices}
        out.append(PBAState(graph, values))
    return out


def test_a_single_marginal_is_its_own_coupling(monkeypatch, q_kcbs):
    """On the KCBS noise grid and 120 seeded Yu-Oh states the coupling of the
    one component's weights is the walk's, and so is every classification."""
    yu_oh = _yu_oh_plus(0)
    cases = [(q_kcbs, p) for p in _float_target_cases(q_kcbs)[:21]]
    cases += [(yu_oh, p) for p in _yu_oh_mixtures(yu_oh, random.Random(25), 120)]
    seen = []

    def recording(marginals):
        seen.append(marginals)
        return _north_west_corner(marginals)

    monkeypatch.setattr(certify, "_north_west_corner", recording)
    got = [classify_experiment(system, p) for system, p in cases]
    assert len(seen) == 12 + 120 and all(len(m) == 1 for m in seen)
    assert sum(len(m[0][0]) > 1 for m in seen) > 100
    for m in seen:
        assert _north_west_corner(m) == _walked_coupling(m)
    monkeypatch.setattr(certify, "_north_west_corner", _walked_coupling)
    assert got == [classify_experiment(system, p) for system, p in cases]


def _certificate_cases(q_kcbs):
    """The 41-point KCBS float noise grid, 120 Yu-Oh quantum states, 120
    noncontextual Yu-Oh mixtures, and I/3 and five random states on k = 3
    unrelated bases (three components)."""
    psi, noise = kcbs_state(), DensityMatrix.maximally_mixed(3, backend="float")
    cases = [
        (q_kcbs, q_kcbs.state_from_density(DensityMatrix.mixture([1 - k / 40, k / 40], [psi, noise])))
        for k in range(41)
    ]
    yu_oh = _yu_oh_plus(0)
    cases += [(yu_oh, yu_oh.state_from_density(rho)) for rho in _densities(random.Random(41), 119)]
    cases += [(yu_oh, p) for p in _yu_oh_mixtures(yu_oh, random.Random(25), 120)]
    k3 = _system(k_bases_rays(3))
    cases += [(k3, k3.state_from_density(rho)) for rho in _densities(random.Random(3), 5)]
    return cases


# sha256 of the reprs of the classifications of ``_certificate_cases``, in
# order, one per line: their weights, inequalities and violations.
CERTIFICATES_DIGEST = "abde70d3ff05a65c5cde7185d0b8757e40b08d4a82460cca99566898b8d13a02"


def test_certificates_are_those_recorded(q_kcbs):
    cases = _certificate_cases(q_kcbs)
    assert len(cases) == 41 + 120 + 120 + 6
    results = [classify_experiment(system, p) for system, p in cases]
    assert {r.certificate.verdict for r in results} == {CONTEXTUAL, NONCONTEXTUAL}
    digest = hashlib.sha256("\n".join(map(repr, results)).encode()).hexdigest()
    assert digest == CERTIFICATES_DIGEST


def test_each_zero_one_state_is_noncontextual(kcbs_s01):
    lam = kcbs_s01[4]
    cert = is_noncontextual(lam.as_state(), kcbs_s01)
    assert cert.verdict == NONCONTEXTUAL
    assert cert.weights == {4: Fraction(1)}


def test_uniform_mixture_is_noncontextual(q_kcbs, kcbs_s01):
    graph = q_kcbs.atom_graph()
    values = {
        v: Fraction(sum(s.value(v) for s in kcbs_s01), len(kcbs_s01)) for v in graph.vertices
    }
    p = PBAState(graph, values)
    cert = is_noncontextual(p, kcbs_s01)
    assert cert.verdict == NONCONTEXTUAL
    # Any returned convex representation must reproduce the state exactly.
    for v in graph.vertices:
        mixed = sum(w * kcbs_s01[k].value(v) for k, w in cert.weights.items())
        assert mixed == values[v]


def test_kcbs_quantum_state_is_contextual(kcbs_s01, kcbs_quantum_state):
    cert = is_noncontextual(kcbs_quantum_state, kcbs_s01)
    assert cert.verdict == CONTEXTUAL
    ineq = cert.inequality
    assert coefficient_vector(ineq) == (1, 1, 1, 1, 1, 0, 0, 0, 0, 0)
    assert ineq.bound == 2
    assert str(ineq) == "p(P0) + p(P1) + p(P2) + p(P3) + p(P4) <= 2"
    assert float(cert.violation) == pytest.approx(math.sqrt(5) - 2, abs=1e-9)


def test_empty_s01_reports_contextual_by_vacuity(kcbs_quantum_state):
    cert = is_noncontextual(kcbs_quantum_state, [])
    assert cert.verdict == CONTEXTUAL
    assert cert.empty_s01 and cert.inequality is None


def test_wheel_point_outside_hull_flips_verdict():
    g = wheel_graph()
    s01 = enumerate_zero_one_states(g)
    assert len(s01) == 1  # only the hub can fire
    inside = wheel_state(Fraction(0))
    assert is_noncontextual(inside, s01).verdict == NONCONTEXTUAL
    for t in (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)):
        cert = is_noncontextual(wheel_state(t), s01)
        assert cert.verdict == CONTEXTUAL
        lam_vals = {v: Fraction(s01[0].value(v)) for v in g.vertices}
        assert evaluate(cert.inequality, lam_vals) <= cert.inequality.bound
        point = {v: wheel_state(t).value(v) for v in g.vertices}
        assert evaluate(cert.inequality, point) > cert.inequality.bound


def test_factorizability_of_noncontextual_weights(q_kcbs, kcbs_s01):
    # Every 0-1 state in the support of a certificate behaves like a truth
    # assignment: its value on a meet is the product of the values.
    rng = random.Random(13)
    graph = q_kcbs.atom_graph()
    values = {
        v: Fraction(sum(s.value(v) for s in kcbs_s01), len(kcbs_s01)) for v in graph.vertices
    }
    cert = is_noncontextual(PBAState(graph, values), kcbs_s01)
    mats = [p.mat for p in q_kcbs.elements]
    commuting = [
        (i, j)
        for i, j in combinations(range(len(mats)), 2)
        if mats[i].mul(mats[j]).approx_equal(mats[j].mul(mats[i]))
    ]
    pairs = rng.sample(commuting, 50)
    for k in cert.weights:
        lam = q_kcbs.extend_state(kcbs_s01[k].as_state())
        for i, j in pairs:
            meet_idx = q_kcbs.index_of(Projector(mats[i].mul(mats[j])))
            assert lam.eval_index(meet_idx) == lam.eval_index(i) * lam.eval_index(j)


# -- independent membership oracle -------------------------------------------


def caratheodory_member(states, values, vertices) -> bool:
    """Exact membership in conv(states) by enumerating affinely independent
    support sets and solving the barycentric system by elimination.  Fully
    independent of the simplex code path."""
    target = [Fraction(values[v]) for v in vertices] + [Fraction(1)]
    m = len(states)
    columns = [
        [Fraction(s.value(v)) for v in vertices] + [Fraction(1)] for s in states
    ]
    for size in range(1, m + 1):
        for combo in combinations(range(m), size):
            # Solve sum_k w_k columns[k] = target exactly.
            rows = len(target)
            mat = [[columns[k][r] for k in combo] + [target[r]] for r in range(rows)]
            piv_rows = []
            r = 0
            for col in range(size):
                pivot = next((i for i in range(r, rows) if mat[i][col] != 0), None)
                if pivot is None:
                    break
                mat[r], mat[pivot] = mat[pivot], mat[r]
                piv = mat[r][col]
                mat[r] = [v / piv for v in mat[r]]
                for i in range(rows):
                    if i != r and mat[i][col] != 0:
                        f = mat[i][col]
                        mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
                piv_rows.append(col)
                r += 1
            if len(piv_rows) < size:
                continue  # affinely dependent subset; a smaller one suffices
            if any(mat[i][-1] != 0 for i in range(r, rows)):
                continue  # inconsistent
            w = [mat[i][-1] for i in range(size)]
            if all(x >= 0 for x in w):
                return True
    return False


def grid_weight_combinations(m, denominator):
    """All weight vectors with the given denominator; the brute-force grid."""
    def rec(left, remaining):
        if left == 1:
            yield (remaining,)
            return
        for k in range(remaining + 1):
            for rest in rec(left - 1, remaining - k):
                yield (k,) + rest

    for numerators in rec(m, denominator):
        yield [Fraction(k, denominator) for k in numerators]


def test_lp_matches_independent_oracle_on_wheel_family():
    g = wheel_graph()
    s01 = enumerate_zero_one_states(g)
    for t in (Fraction(0), Fraction(1, 8), Fraction(1, 3), Fraction(1, 2)):
        p = wheel_state(t)
        verdict = is_noncontextual(p, s01).verdict
        member = caratheodory_member(s01, {v: p.value(v) for v in g.vertices}, g.vertices)
        assert (verdict == NONCONTEXTUAL) == member


def grid_member(states, values, vertices, denominator, max_support=3) -> bool:
    """Brute-force grid membership: search weight vectors with the given
    denominator over all supports up to max_support."""
    for size in range(1, max_support + 1):
        for support in combinations(range(len(states)), size):
            for ws in grid_weight_combinations(size, denominator):
                if all(
                    sum(w * states[k].value(v) for w, k in zip(ws, support)) == values[v]
                    for v in vertices
                ):
                    return True
    return False


def test_lp_matches_grid_oracle_on_random_mixtures(q_kcbs, kcbs_s01):
    rng = random.Random(99)
    graph = q_kcbs.atom_graph()
    for _ in range(10):
        denominator = rng.randint(2, 6)
        support = rng.sample(range(len(kcbs_s01)), rng.randint(1, 3))
        raw = [0] * len(support)
        for _ in range(denominator):
            raw[rng.randrange(len(support))] += 1
        weights = [Fraction(k, denominator) for k in raw]
        values = {
            v: sum(w * kcbs_s01[k].value(v) for w, k in zip(weights, support))
            for v in graph.vertices
        }
        p = PBAState(graph, values)
        cert = is_noncontextual(p, kcbs_s01)
        assert cert.verdict == NONCONTEXTUAL
        assert grid_member(kcbs_s01, values, graph.vertices, denominator)


# -- scenario embeddability ---------------------------------------------------


def test_boolean_cube_is_embeddable():
    q = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    report = scenario_classical(q)
    assert report.embeddable and report.s01_count == 3


def test_kcbs_scenario_is_embeddable(q_kcbs, kcbs_s01):
    assert scenario_classical(q_kcbs, kcbs_s01).embeddable


def test_ceg_not_embeddable(q_ceg):
    report = scenario_classical(q_ceg)
    assert not report.embeddable
    assert report.witness == ("0", "1")
    assert report.s01_count == 0


def test_lift_witness_is_new_ray_and_identity(q_lift):
    report = scenario_classical(q_lift)
    assert not report.embeddable
    assert report.witness == ("kprime", "1")


@pytest.mark.parametrize("system", ["q_kcbs", "q_lift"])
def test_embedding_agrees_with_extended_states(request, system):
    # Reference: every element's value on every 0-1 state, by extending the
    # state through the element's atomic decomposition.
    q = request.getfixturevalue(system)
    s01 = zero_one_states(q)
    extended = [q.extend_state(lam.as_state()) for lam in s01]
    fingerprints = [tuple(e.eval_index(i) for e in extended) for i in range(len(q))]
    report = scenario_classical(q, s01)
    assert report.embeddable == (len(set(fingerprints)) == len(q))
    if report.witness:
        lo, hi = (
            next(i for i in range(len(q)) if q.element_name(i) == name)
            for name in report.witness
        )
        assert lo != hi and fingerprints[lo] == fingerprints[hi]


def test_embedding_rejects_states_of_another_graph(q_kcbs):
    with pytest.raises(NotAGraphState):
        scenario_classical(q_kcbs, enumerate_zero_one_states(wheel_graph()))


# -- classification -----------------------------------------------------------


def test_boolean_cube_classifies_classical():
    q = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    s01 = zero_one_states(q)
    result = classify_experiment(q, s01[0].as_state(), s01)
    assert result.label == CLASSICAL
    assert result.scenario_classical and result.state_noncontextual


def test_lift_classifies_scenario_only(q_lift):
    s01 = zero_one_states(q_lift)
    result = classify_experiment(q_lift, s01[0].as_state(), s01)
    assert result.label == NONCLASSICAL_SCENARIO_ONLY


def test_kcbs_classifies_contextual(q_kcbs, kcbs_s01, kcbs_quantum_state):
    result = classify_experiment(q_kcbs, kcbs_quantum_state, kcbs_s01)
    assert result.label == CONTEXTUAL
    assert result.scenario_classical  # the scenario itself embeds fine


def test_classify_invariant_under_relabelling(q_kcbs, kcbs_s01, kcbs_quantum_state):
    # The verdict depends on the structure, not on atom names: transport the
    # state through a relabelling and reclassify at graph level.
    from ctxcert.isomorphism import graphs_isomorphic

    g = q_kcbs.atom_graph()
    mapping = {v: f"x{i}" for i, v in enumerate(g.vertices)}
    h = g.relabel(mapping)
    ok, witness = graphs_isomorphic(g, h)
    assert ok
    transported = PBAState(
        h,
        {witness[v]: kcbs_quantum_state.value(v) for v in g.vertices},
        backend="float",
    )
    s01_h = enumerate_zero_one_states(h)
    cert = is_noncontextual(transported, s01_h)
    assert cert.verdict == CONTEXTUAL


# -- headline value -------------------------------------------------------------


def test_kcbs_value_examples(q_kcbs, kcbs_s01, kcbs_quantum_state):
    assert kcbs_value(kcbs_quantum_state) == pytest.approx(math.sqrt(5), abs=1e-9)
    zero = {v: 0.0 for v in q_kcbs.atom_graph().vertices}
    zero.update({f"P{i}{(i + 1) % 5}": 1.0 for i in range(5)})
    p = PBAState(q_kcbs.atom_graph(), zero, backend="float")
    assert kcbs_value(p) == 0.0
    assert max(kcbs_value(s.as_state()) for s in kcbs_s01) == 2


def test_kcbs_value_missing_atom():
    g = ExclusivityGraph(["a", "b"], [("a", "b")])
    p = PBAState(g, {"a": Fraction(1), "b": Fraction(0)})
    with pytest.raises(MissingAtom):
        kcbs_value(p)


def _fraction_primitive_inequality(atom_order, y, states):
    """The 0-1 maximum with a Fraction product per vertex and state, then the
    integer scaling: ``_primitive_inequality`` before it scaled y first."""
    bound = max(
        sum(y.get(v, Fraction(0)) * lam.value(v) for v in atom_order) for lam in states
    )
    scale = 1
    for d in [y[v].denominator for v in y] + [bound.denominator]:
        scale = scale * d // math.gcd(scale, d)
    ints = {v: int(y.get(v, Fraction(0)) * scale) for v in atom_order}
    g = 0
    for c in [abs(c) for c in ints.values() if c] + [abs(int(bound * scale))]:
        g = math.gcd(g, c)
    g = g or 1
    return SeparatingInequality(
        atom_order=tuple(atom_order),
        coeffs={v: c // g for v, c in ints.items()},
        bound=int(bound * scale) // g,
    )


def _yu_oh_quantum_state():
    system = generate_system([projector_from_vector(r) for r in YU_OH_RAYS])
    return system.state_from_density(DensityMatrix.maximally_mixed(3))


@pytest.mark.parametrize("name", ["kcbs", "yu-oh"])
def test_primitive_inequality_matches_fraction_reference(name, kcbs_quantum_state):
    p = kcbs_quantum_state if name == "kcbs" else _yu_oh_quantum_state()
    s01 = enumerate_zero_one_states(p.graph)
    target = integer_target({v: Fraction(p.value(v)) for v in p.graph.vertices})
    weights, y = _membership_lp(p.graph, s01.masks, clique_reduction(p.graph).free, *target)
    assert weights is None
    got = _primitive_inequality(p.graph, s01.masks, y)
    assert got == _fraction_primitive_inequality(p.graph.vertices, y, s01)
    assert got == is_noncontextual(p, s01).inequality
    rng = random.Random(11)
    for _ in range(50):
        y = {
            v: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
            for v in p.graph.vertices
            if rng.random() < 0.7
        }
        got = _primitive_inequality(p.graph, s01.masks, integer_ray(y))
        assert got == _fraction_primitive_inequality(p.graph.vertices, y, s01)


# -- contextual re-verification ----------------------------------------------------


def _yu_oh_plus(k):
    """Yu-Oh alone (connected), or with k unrelated bases (k + 1 components)."""
    return _system(YU_OH_RAYS if k == 0 else yu_oh_plus_rays(k))


def _lhs(ineq, lam):
    return sum(c * lam.value(v) for v, c in ineq.coeffs.items())


def _tampered(ineq, bound=0, coeff=None):
    coeffs = dict(ineq.coeffs)
    if coeff is not None:
        coeffs[coeff] += 1
    return SeparatingInequality(ineq.atom_order, coeffs, ineq.bound + bound)


@pytest.mark.parametrize("k", [0, 1], ids=["yu-oh", "yu-oh+1"])
def test_contextual_reverification_rejects_a_tampered_inequality(monkeypatch, k):
    """Lowering the bound by one, or raising a coefficient by one on an atom
    that a bound-attaining 0-1 state sets, makes the inequality fail on that
    state; the substitution check must say so, not return a verdict."""
    system = _yu_oh_plus(k)
    p = system.state_from_density(DensityMatrix.maximally_mixed(3))
    ineq = is_noncontextual(p).inequality
    assert len(p.graph.components) == k + 1
    tight = [lam for lam in zero_one_states(system) if _lhs(ineq, lam) == ineq.bound]
    raisable = [v for v, c in ineq.coeffs.items() if c and any(lam.value(v) for lam in tight)]
    assert raisable
    real = certify._primitive_inequality
    for change in [{"bound": -1}] + [{"coeff": v} for v in raisable]:
        monkeypatch.setattr(
            certify, "_primitive_inequality", lambda *args: _tampered(real(*args), **change)
        )
        with pytest.raises(CertificateError, match="^inequality fails on a 0-1 state$"):
            is_noncontextual(p)
        with pytest.raises(CertificateError, match="^inequality fails on a 0-1 state$"):
            classify_experiment(system, p)
    monkeypatch.setattr(certify, "_primitive_inequality", real)
    assert is_noncontextual(p).inequality == ineq


def test_inequality_bound_is_the_zero_one_maximum_on_random_yu_oh_states():
    system = _yu_oh_plus(0)
    s01 = zero_one_states(system)
    for rho in _densities(random.Random(20), 20)[1:]:
        cert = classify_experiment(system, system.state_from_density(rho)).certificate
        assert cert.verdict == CONTEXTUAL
        assert cert.inequality.bound == max(_lhs(cert.inequality, lam) for lam in s01)


# -- the decomposition table -------------------------------------------------------


def _yu_oh_linked_projectors():
    """Yu-Oh and a basis whose rays are orthogonal to some of it: the system
    is not embeddable, and its witness is a pair of named atoms."""
    rays = YU_OH_RAYS + [(1, 2, 3), (2, -1, 0), (3, 6, -5)]
    return [projector_from_vector(r) for r in rays]


def test_decomposition_table_follows_the_atom_names():
    projectors = _yu_oh_linked_projectors()
    labels = {f"r{i}": p for i, p in reversed(list(enumerate(projectors)))}
    original = generate_system(projectors)
    rho = DensityMatrix.maximally_mixed(3)
    before = classify_experiment(original, original.state_from_density(rho)).embedding
    assert not before.embeddable
    copy = original.with_atom_labels(labels)
    fresh = generate_system(projectors).with_atom_labels(labels)
    got = classify_experiment(copy, copy.state_from_density(rho)).embedding
    assert got == scenario_classical(fresh)
    assert got.witness != before.witness
    assert scenario_classical(original) == before
    assert copy.decomposition_masks() == fresh.decomposition_masks()
    assert copy.decomposition_masks() != original.decomposition_masks()


def test_classification_decomposes_each_element_once(monkeypatch):
    system = _yu_oh_plus(0)
    calls = []
    real = QuantumSystem.decompositions

    def counting(self, index):
        calls.append(index)
        return real(self, index)

    monkeypatch.setattr(QuantumSystem, "decompositions", counting)
    for rho in _densities(random.Random(5), 4):
        classify_experiment(system, system.state_from_density(rho))
    assert sorted(calls) == list(range(len(system)))


def test_embedding_report_is_kept_per_naming_and_listing(monkeypatch):
    """Fingerprints are computed once per naming and listing: a repeated
    verdict reuses the report, another listing or a renamed copy does not,
    not even a copy whose atoms keep their bits."""
    projectors = _yu_oh_linked_projectors()
    system = generate_system(projectors)
    assert len(system.atom_graph().components) == 1
    separations = []
    real = analyze._separate

    def counting(system, listings):
        separations.append(system)
        return real(system, listings)

    monkeypatch.setattr(analyze, "_separate", counting)
    rho = DensityMatrix.maximally_mixed(3)
    p = system.state_from_density(rho)
    s01 = zero_one_states(system)
    first = classify_experiment(system, p, s01).embedding
    assert classify_experiment(system, p, s01).embedding is first
    assert separations == [system]

    # Atoms renamed in element order keep their bits, so the listing's masks
    # are the parent's; only the names, and so the witness, differ.
    renamed = {f"a{k}": system.elements[i] for k, i in enumerate(system.atom_indices())}
    copy = system.with_atom_labels(renamed)
    same = zero_one_states(copy)
    assert [lam.mask for lam in same] == [lam.mask for lam in s01]
    got = classify_experiment(copy, copy.state_from_density(rho), same).embedding
    assert separations[1:] == [copy]  # and not the parent's report
    assert got == scenario_classical(generate_system(projectors).with_atom_labels(renamed))
    assert got.witness != first.witness
    assert classify_experiment(system, p, s01).embedding is first

    part = s01[::2]
    count = len(separations)
    report = classify_experiment(system, p, part).embedding
    assert separations[count:] == [system] and report.s01_count == len(part)
    assert report == scenario_classical(generate_system(projectors), part)

    labels = {f"r{i}": q for i, q in reversed(list(enumerate(projectors)))}
    copy = system.with_atom_labels(labels)
    count = len(separations)
    got = classify_experiment(copy, copy.state_from_density(rho)).embedding
    assert separations[count:] == [copy]
    assert got == scenario_classical(generate_system(projectors).with_atom_labels(labels))
    assert got.witness != first.witness


def test_embedding_memo_keeps_no_system_alive():
    """The report is kept per system object, and a system dropped after its
    verdict takes its entry with it."""
    analyze._embeddings.clear()
    system = generate_system(_yu_oh_linked_projectors())
    classify_experiment(system, system.state_from_density(DensityMatrix.maximally_mixed(3)))
    assert list(analyze._embeddings) == [system]
    alive = weakref.ref(system)
    del system
    gc.collect()
    assert alive() is None
    assert len(analyze._embeddings) == 0


@pytest.mark.parametrize(
    "tamper, message",
    [
        (lambda x: tuple(2 * w for w in x), "weights are not a probability vector"),
        (lambda x: (x[0] - sum(x), x[1] + sum(x)) + x[2:], "weights are not a probability vector"),
        (lambda x: (sum(x),) + (0,) * (len(x) - 1), "weights fail to reproduce"),
    ],
)
def test_tampered_weights_end_in_certificate_error(monkeypatch, q_kcbs, tamper, message):
    """The LP only proposes weights; substitution decides.  The levels are
    numerators over D * Q, and their sum is that denominator, so ``sum(x)``
    is a weight of 1."""
    p = q_kcbs.state_from_density(DensityMatrix.maximally_mixed(3, backend="float"))
    assert is_noncontextual(p).verdict == NONCONTEXTUAL
    real = certify.feasible_point

    def tampered(a, b):
        res = real(a, b)
        assert {type(w) for w in res.x} == {int}
        return simplex.LPResult(res.status, tamper(res.x), res.pivots, None, res.den)

    monkeypatch.setattr(certify, "feasible_point", tampered)
    with pytest.raises(CertificateError, match=message):
        is_noncontextual(p)
