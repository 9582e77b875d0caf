"""Exclusivity graphs: cliques, states, 0-1 enumeration, isomorphism."""

from __future__ import annotations

import contextlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcert.errors import MissingVertex, NotAGraphState, SearchBudgetExceeded
from ctxcert.graphs import (
    ExclusivityGraph,
    PBAState,
    ZeroOneSearch,
    ZeroOneState,
    enumerate_zero_one_states,
    is_state,
)
from ctxcert.isomorphism import graphs_isomorphic


def cycle(n, prefix="v"):
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = [(verts[i], verts[(i + 1) % n]) for i in range(n)]
    return ExclusivityGraph(verts, edges)


def path(n, prefix="v"):
    verts = [f"{prefix}{i}" for i in range(n)]
    edges = [(verts[i], verts[i + 1]) for i in range(n - 1)]
    return ExclusivityGraph(verts, edges)


def kcbs_graph():
    verts = [f"P{i}" for i in range(5)] + [f"P{i}{(i + 1) % 5}" for i in range(5)]
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        edges += [(f"P{i}", f"P{j}"), (f"P{i}{j}", f"P{i}"), (f"P{i}{j}", f"P{j}")]
    return ExclusivityGraph(verts, edges)


def test_pentagon_cliques_are_edges():
    g = cycle(5)
    cliques = g.maximal_cliques()
    assert len(cliques) == 5
    assert all(len(c) == 2 for c in cliques)


def test_triangle_single_clique():
    g = ExclusivityGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert g.maximal_cliques() == (("a", "b", "c"),)


def test_kcbs_graph_cliques_are_five_triangles():
    g = kcbs_graph()
    cliques = g.maximal_cliques()
    assert len(cliques) == 5
    assert all(len(c) == 3 for c in cliques)
    assert ("P0", "P01", "P1") in cliques


def test_graph_rejects_loops_and_unknown_vertices():
    with pytest.raises(ValueError):
        ExclusivityGraph(["a"], [("a", "a")])
    with pytest.raises(MissingVertex):
        ExclusivityGraph(["a"], [("a", "b")])


def test_is_state_examples():
    g = kcbs_graph()
    half = {v: (Fraction(1, 2) if v.startswith("P") and len(v) == 2 else Fraction(0)) for v in g.vertices}
    assert is_state(g, half)
    third = {v: Fraction(1, 3) for v in g.vertices}
    assert is_state(g, third)
    ones = {v: Fraction(1) for v in cycle(5).vertices}
    assert not is_state(cycle(5), ones)
    with pytest.raises(MissingVertex):
        is_state(g, {"P0": 1})


def test_pba_state_rejects_out_of_range():
    g = ExclusivityGraph(["a", "b"], [("a", "b")])
    with pytest.raises(NotAGraphState):
        PBAState(g, {"a": Fraction(2), "b": Fraction(-1)})


def test_float_nan_value_is_not_a_state():
    g = ExclusivityGraph(["a", "b"], [("a", "b")])
    nan = float("nan")
    with pytest.raises(NotAGraphState):
        PBAState(g, {"a": 1.0, "b": nan}, backend="float")
    assert not is_state(g, {"a": nan, "b": 1.0}, backend="float")


def test_zero_one_state_validation():
    g = kcbs_graph()
    ZeroOneState.from_ones(g, frozenset({"P0", "P2", "P34"}))
    with pytest.raises(NotAGraphState):
        ZeroOneState.from_ones(g, frozenset({"P0", "P1"}))  # adjacent
    with pytest.raises(NotAGraphState):
        ZeroOneState.from_ones(g, frozenset())  # empty cliques


def test_enumerate_triangle():
    g = ExclusivityGraph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    states = enumerate_zero_one_states(g)
    assert len(states) == 3
    assert sorted(tuple(sorted(s.ones)) for s in states) == [("a",), ("b",), ("c",)]


def test_enumerate_kcbs_eleven():
    assert len(enumerate_zero_one_states(kcbs_graph())) == 11


def test_enumerate_matches_pentagon_independent_sets():
    # Oracle: brute-force independent sets of the 5-cycle extend uniquely.
    pent = [f"P{i}" for i in range(5)]
    adj = {i: {(i - 1) % 5, (i + 1) % 5} for i in range(5)}
    independent = []
    for mask in range(32):
        chosen = [i for i in range(5) if mask >> i & 1]
        if all(j not in adj[i] for i in chosen for j in chosen):
            independent.append(frozenset(chosen))
    states = enumerate_zero_one_states(kcbs_graph())
    got = {frozenset(i for i in range(5) if f"P{i}" in s.ones) for s in states}
    assert got == set(independent)
    assert len(independent) == 11


def test_enumerate_odd_cycle_has_no_states():
    assert enumerate_zero_one_states(cycle(5)) == []


def test_every_enumerated_state_is_a_state():
    g = kcbs_graph()
    for s in enumerate_zero_one_states(g):
        assert is_state(g, {v: s.value(v) for v in g.vertices})


def test_budget_exceeded():
    g = kcbs_graph()
    with pytest.raises(SearchBudgetExceeded):
        enumerate_zero_one_states(g, budget=3)


@pytest.mark.parametrize(
    "system, budget",
    [("q_kcbs", 21), ("q_ceg", 16), ("q_ceg_prime", 16), ("q_lift", 18), ("q_twelve", 17)],
)
def test_smallest_passing_budget_is_pinned(request, system, budget):
    # The node counts of the builtin listings; a change to the search that
    # moves them changes what --budget means.
    graph = request.getfixturevalue(system).atom_graph()
    enumerate_zero_one_states(graph, budget=budget)
    with pytest.raises(SearchBudgetExceeded):
        enumerate_zero_one_states(graph, budget=budget - 1)


def test_edgeless_graph_is_settled_by_the_first_propagation():
    # Six singleton groups, as the maximal cliques of six isolated vertices.
    # The propagation after the first decision examines every group and
    # forces all the other variables to 1.
    groups = [(i,) for i in range(6)]
    search = ZeroOneSearch(6, [[] for _ in range(6)], groups, range(6), 2)
    assert list(search) == [(1,) * 6]
    with pytest.raises(SearchBudgetExceeded):
        list(ZeroOneSearch(6, [[] for _ in range(6)], groups, range(6), 1))


def test_edgeless_graph_lists_per_component():
    # Six one-vertex components of 2 search nodes each, plus 1 node for the
    # one product state.
    g = ExclusivityGraph([f"v{i}" for i in range(6)], [])
    assert len(g.components) == 6
    states = enumerate_zero_one_states(g, budget=13)
    assert [s.ones for s in states] == [frozenset(g.vertices)]
    with pytest.raises(SearchBudgetExceeded) as err:
        enumerate_zero_one_states(g, budget=12)
    assert (err.value.nodes, err.value.budget) == (13, 12)


def test_deep_search_ends_in_budget_error_not_recursion_error():
    # 1,100 disjoint edges: 2^1100 states, and a first state 1,100 decisions
    # deep, past the interpreter's default recursion limit.
    g = ExclusivityGraph(
        [f"v{i}" for i in range(2200)], [(f"v{2 * i}", f"v{2 * i + 1}") for i in range(1100)]
    )
    with pytest.raises(SearchBudgetExceeded):
        enumerate_zero_one_states(g, budget=3000)
    pairs = [(2 * i, 2 * i + 1) for i in range(1100)]
    search = ZeroOneSearch(2200, [[i ^ 1] for i in range(2200)], pairs, range(2200), 3000)
    first = next(iter(search))
    assert first == tuple(1 - i % 2 for i in range(2200))
    assert search.nodes == 1101


def brute_force_zero_one(g):
    verts = g.vertices
    out = []
    for bits in itertools.product((0, 1), repeat=len(verts)):
        ones = frozenset(v for v, b in zip(verts, bits) if b)
        if all(len(ones.intersection(c)) == 1 for c in g.maximal_cliques()):
            out.append(bits)
    return sorted(out)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    verts = [f"v{i}" for i in range(n)]
    pairs = list(itertools.combinations(verts, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return ExclusivityGraph(verts, edges)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_enumeration_matches_brute_force(g):
    # Sparse draws leave isolated vertices, which are one-vertex cliques.
    assert [s.as_tuple() for s in enumerate_zero_one_states(g)] == brute_force_zero_one(g)


def set_based_zero_one_check(graph, ones) -> None:
    """The set-based validation ``ZeroOneState`` made before its bitmasks."""
    unknown = ones - set(graph.vertices)
    if unknown:
        raise MissingVertex(f"unknown vertices {sorted(unknown)}")
    for u, v in graph.edges:
        if u in ones and v in ones:
            raise NotAGraphState(f"adjacent vertices {u!r}, {v!r} both set to 1")
    for clique in graph.maximal_cliques():
        if sum(1 for v in clique if v in ones) != 1:
            raise NotAGraphState(f"clique {clique} does not contain exactly one 1")


def _outcome(check, *args):
    try:
        check(*args)
    except (MissingVertex, NotAGraphState) as exc:
        return type(exc)
    return None


@given(small_graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_zero_one_state_check_matches_set_based_check(g, data):
    # Enumerated states are valid; random subsets, and names outside the
    # graph, exercise each way to fail.
    valid = [s.ones for s in enumerate_zero_one_states(g)]
    candidates = list(g.vertices) + ["w0", "w1"]
    subsets = [frozenset(data.draw(st.lists(st.sampled_from(candidates)))) for _ in range(4)]
    for ones in valid[:3] + subsets:
        expected = _outcome(set_based_zero_one_check, g, ones)
        assert _outcome(ZeroOneState.from_ones, g, ones) == expected
        if expected is NotAGraphState and any(
            u in ones and v in ones for u, v in g.edges
        ):
            with pytest.raises(NotAGraphState, match="adjacent vertices"):
                ZeroOneState.from_ones(g, ones)


@st.composite
def disjoint_unions(draw):
    """Two or three ``small_graphs`` on disjoint names, with their vertices
    in a drawn order so that the parts' bits may interleave; also each
    part's listing of the names set to 1."""
    parts = draw(st.lists(small_graphs(), min_size=2, max_size=3))
    verts, edges, listings = [], [], []
    for j, part in enumerate(parts):
        name = {v: f"g{j}{v}" for v in part.vertices}
        verts += name.values()
        edges += [(name[u], name[v]) for u, v in part.edges]
        listings.append([{name[v] for v in s.ones} for s in enumerate_zero_one_states(part)])
    return ExclusivityGraph(draw(st.permutations(verts)), edges), listings


@given(disjoint_unions())
@settings(max_examples=150, deadline=None)
def test_product_listing_matches_set_based_check(union):
    g, listings = union
    s01 = enumerate_zero_one_states(g)
    for s in s01:
        set_based_zero_one_check(g, s.ones)
    products = {frozenset().union(*choice) for choice in itertools.product(*listings)}
    assert [s.mask for s in s01] == sorted({s.mask for s in s01})
    assert {s.ones for s in s01} == products


def test_zero_one_state_equality_on_one_graph_and_on_equal_graphs():
    edges = [("a", "b"), ("c", "d")]
    g = ExclusivityGraph("abcd", edges)
    same = ExclusivityGraph("abcd", edges)
    other_order = ExclusivityGraph("bacd", edges)
    ac = ZeroOneState.from_ones(g, {"a", "c"})
    assert ac == ZeroOneState(g, ac.mask) and ac != ZeroOneState.from_ones(g, {"b", "c"})
    # Equal but distinct graphs compare by names, whatever their bit orders.
    for h in (same, other_order):
        assert h is not g and h == g
        twin = ZeroOneState.from_ones(h, {"a", "c"})
        assert twin == ac and hash(twin) == hash(ac)
        assert ZeroOneState.from_ones(h, {"a", "d"}) != ac
    bc = ZeroOneState.from_ones(other_order, {"b", "c"})
    assert bc.mask == ac.mask and bc != ac
    triangle = ExclusivityGraph("abc", [("a", "b"), ("b", "c"), ("a", "c")])
    assert ZeroOneState.from_ones(triangle, {"a"}) != ZeroOneState.from_ones(g, {"a", "c"})
    assert ac != ac.mask and ac != ac.ones


def test_isomorphic_relabelled_cycle():
    g1 = cycle(5)
    mapping = {f"v{i}": f"w{(3 * i + 1) % 5}" for i in range(5)}
    g2 = g1.relabel(mapping)
    ok, witness = graphs_isomorphic(g1, g2)
    assert ok
    for u, v in g1.edges:
        assert g2.has_edge(witness[u], witness[v])


def test_cycle_vs_path_not_isomorphic():
    ok, witness = graphs_isomorphic(cycle(5), path(5))
    assert not ok and witness is None


def test_same_degrees_not_isomorphic():
    # C6 versus two triangles: both 2-regular on 6 vertices.
    g1 = cycle(6)
    verts = ["a", "b", "c", "d", "e", "f"]
    edges = [("a", "b"), ("b", "c"), ("a", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
    g2 = ExclusivityGraph(verts, edges)
    ok, _ = graphs_isomorphic(g1, g2)
    assert not ok


def test_isomorphism_search_depth_is_not_bounded_by_recursion():
    # 600 disjoint edges: the search maps 1,200 vertices one position deeper
    # each, past the interpreter's default recursion limit.
    verts = [f"v{i}" for i in range(1200)]
    g = ExclusivityGraph(verts, [(verts[i], verts[i + 1]) for i in range(0, 1200, 2)])
    rng = random.Random(17)
    names = [f"w{i}" for i in range(1200)]
    rng.shuffle(names)
    mapping = dict(zip(verts, names))
    rng.shuffle(names)
    h = ExclusivityGraph(names, [(mapping[u], mapping[v]) for u, v in g.edges])
    ok, witness = graphs_isomorphic(g, h)
    assert ok
    assert sorted(witness.values()) == sorted(h.vertices)
    assert {frozenset((witness[u], witness[v])) for u, v in g.edges} == {frozenset(e) for e in h.edges}


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=25, deadline=None)
def test_state_count_invariant_under_relabelling(seed):
    rng = random.Random(seed)
    g = kcbs_graph()
    names = list(g.vertices)
    permuted = names[:]
    rng.shuffle(permuted)
    mapping = dict(zip(names, permuted))
    h = g.relabel(mapping)
    ok, witness = graphs_isomorphic(g, h)
    assert ok
    sg = enumerate_zero_one_states(g)
    sh = enumerate_zero_one_states(h)
    assert len(sg) == len(sh)
    transported = {frozenset(witness[v] for v in s.ones) for s in sg}
    assert transported == {s.ones for s in sh}


def test_dot_export_sorted_and_verbatim():
    g = ExclusivityGraph(["b", "a", "c"], [("b", "a"), ("c", "b")])
    dot = g.to_dot()
    lines = dot.strip().splitlines()
    assert lines[0] == "graph atoms {"
    assert lines[1:4] == ['  "a";', '  "b";', '  "c";']
    assert lines[4:6] == ['  "a" -- "b";', '  "b" -- "c";']
    assert lines[-1] == "}"


# A quoted DOT ID as ``to_dot`` writes it: every backslash starts one of the
# pairs \\ and \", each standing for its second character.
DOT_ID = re.compile(r'"((?:\\[\\"]|[^"\\])*)"')
DOT_ESCAPE = re.compile(r'\\([\\"])')


def dot_statements(dot: str) -> tuple[list[str], list[tuple[str, str]]]:
    """The vertex names and edges of ``to_dot`` text; every body line must be
    one quoted ID or two joined by one ``--``."""
    lines = dot.splitlines()
    assert lines[0].startswith("graph ") and lines[-1] == "}"
    vertices, edges = [], []
    for line in lines[1:-1]:
        ids = [DOT_ESCAPE.sub(r"\1", m) for m in DOT_ID.findall(line)]
        shape = DOT_ID.sub("ID", line)
        assert shape in ("  ID;", "  ID -- ID;"), line
        if len(ids) == 1:
            vertices.append(ids[0])
        else:
            edges.append(tuple(ids))
    return vertices, edges


def test_dot_escapes_quotes_in_names():
    name = 'a" -- "x'
    g = ExclusivityGraph([name, "b", "c"], [(name, "b"), ("b", "c")])
    dot = g.to_dot()
    assert '  "a\\" -- \\"x";' in dot.splitlines()
    vertices, edges = dot_statements(dot)
    assert sorted(vertices) == sorted(g.vertices)
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in g.edges}


def test_dot_escapes_backslashes_before_quotes():
    names = ["a\\", "b", 'c\\"']
    g = ExclusivityGraph(names, [("a\\", "b"), ("b", 'c\\"')])
    lines = g.to_dot().splitlines()
    assert lines[1:4] == ['  "a\\\\";', '  "b";', '  "c\\\\\\"";']
    assert lines[4] == '  "a\\\\" -- "b";'
    vertices, edges = dot_statements(g.to_dot())
    assert vertices == names
    assert {frozenset(e) for e in edges} == {frozenset(e) for e in g.edges}


# -- networkx as an independent oracle -------------------------------------------

BUILTIN_FIXTURES = {
    "ceg": "q_ceg",
    "ceg17": "q_ceg_prime",
    "ceg-lift": "q_lift",
    "ceg-gen12": "q_twelve",
    "kcbs": "q_kcbs",
}


def _random_graph(rng, n, p):
    verts = [f"v{i}" for i in range(n)]
    edges = [(u, v) for u, v in itertools.combinations(verts, 2) if rng.random() < p]
    return ExclusivityGraph(verts, edges)


def _to_nx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def _shuffled(rng, g):
    names = list(g.vertices)
    permuted = [f"w{i}" for i in range(len(names))]
    rng.shuffle(permuted)
    return g.relabel(dict(zip(names, permuted)))


def _assert_isomorphism_matches_nx(nx, g, h):
    ok, witness = graphs_isomorphic(g, h)
    assert ok == nx.is_isomorphic(_to_nx(nx, g), _to_nx(nx, h))
    if ok:
        assert sorted(witness) == sorted(g.vertices)
        assert sorted(witness.values()) == sorted(h.vertices)
        mapped = {frozenset((witness[u], witness[v])) for u, v in g.edges}
        assert mapped == {frozenset(e) for e in h.edges}
    else:
        assert witness is None
    return ok


def _assert_cliques_match_nx(nx, g):
    want = sorted(tuple(sorted(c)) for c in nx.find_cliques(_to_nx(nx, g)))
    assert list(g.maximal_cliques()) == want


def test_random_graph_cliques_and_isomorphism_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(20261018)
    verdicts = set()
    for _ in range(150):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        _assert_cliques_match_nx(nx, g)
        assert _assert_isomorphism_matches_nx(nx, g, _shuffled(rng, g))
        # Same degree sequence, often not isomorphic: the hard negatives.
        swapped = _to_nx(nx, g)
        if swapped.number_of_edges() >= 2 and n >= 4:
            with contextlib.suppress(nx.NetworkXException):
                nx.double_edge_swap(swapped, nswap=2, max_tries=100, seed=rng.randrange(10**6))
        rewired = ExclusivityGraph(g.vertices, swapped.edges)
        verdicts.add(_assert_isomorphism_matches_nx(nx, g, _shuffled(rng, rewired)))
        other = _random_graph(rng, n, rng.choice([0.3, 0.5]))
        verdicts.add(_assert_isomorphism_matches_nx(nx, g, other))
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(BUILTIN_FIXTURES))
def test_builtin_atom_graphs_match_networkx(name, request):
    nx = pytest.importorskip("networkx")
    g = request.getfixturevalue(BUILTIN_FIXTURES[name]).atom_graph()
    _assert_cliques_match_nx(nx, g)
    rng = random.Random(name)
    assert _assert_isomorphism_matches_nx(nx, g, _shuffled(rng, g))
    for other in sorted(BUILTIN_FIXTURES):
        _assert_isomorphism_matches_nx(
            nx, g, request.getfixturevalue(BUILTIN_FIXTURES[other]).atom_graph()
        )
