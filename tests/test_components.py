"""Certification per connected component of the atom graph, checked against
the full 0-1 listing on small products: k unrelated bases of R^3 (k <= 4, and
k = 3 with the bases' rays interleaved) and the Yu-Oh rays with up to two
unrelated bases added.  The ladder's connected rungs are decided by one LP."""

from __future__ import annotations

import importlib.util
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Mapping, Sequence

import pytest

from ctxcert import analyze, certify, cli, graphs
from ctxcert.analyze import (
    CONTEXTUAL,
    NONCONTEXTUAL,
    classify_experiment,
    is_noncontextual,
    scenario_classical,
    zero_one_states,
)
from ctxcert.catalog import BUILTINS, kcbs_state
from ctxcert.certify import _membership_lp, _product_index, clique_reduction
from ctxcert.errors import (
    IncompleteListing,
    MissingVertex,
    NotAGraphState,
    SearchBudgetExceeded,
)
from ctxcert.graphs import (
    ExclusivityGraph,
    ProductListing,
    ZeroOneState,
    _search_zero_one,
    component_listings,
    enumerate_zero_one_states,
)
from ctxcert.linalg import DensityMatrix, ExactMatrix, projector_from_vector
from ctxcert.simplex import feasible_point
from ctxcert.systems import generate_system

from certificate_helpers import component_zero_one_states, evaluate, integer_ray, integer_target
from test_graphs import set_based_zero_one_check
from test_io_cli import run_cli

# The ray generators of the CI ladder script, shared rather than copied.
_spec = importlib.util.spec_from_file_location(
    "component_ladder", Path(__file__).resolve().parents[1] / "scripts" / "component_ladder.py"
)
ladder = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ladder)
AXES, closed_rays, unrelated_bases = ladder.AXES, ladder.closed_rays, ladder.unrelated_bases


def k_bases_rays(k):
    return AXES + unrelated_bases(k - 1, AXES)


def yu_oh_plus_rays(k):
    """The bases first, so that the Yu-Oh component, the contextual one under
    I/3, comes last in the vertex order."""
    return unrelated_bases(k, closed_rays(ladder.YU_OH)) + ladder.YU_OH


def _system(rays):
    """The closure, with the atom of each ray named r0, r1, ... in ray order,
    as the CLI names them; that is the vertex order of the atom graph."""
    projectors = [projector_from_vector(r) for r in rays]
    system = generate_system(projectors)
    return system.with_atom_labels({f"r{i}": p for i, p in enumerate(projectors)})


def interleaved_rays(k):
    """The k bases' rays in round-robin order, so that the components'
    vertices, and their bits, interleave."""
    return ladder.round_robin(k_bases_rays(k))


FAMILIES = {f"k={k}": (k_bases_rays, k) for k in (1, 2, 3, 4)}
FAMILIES["k=3-interleaved"] = (interleaved_rays, 3)
FAMILIES.update({f"yu-oh+{k}": (yu_oh_plus_rays, k) for k in (0, 1, 2)})


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family(request):
    make, k = FAMILIES[request.param]
    system = _system(make(k))
    return request.param, k, system, zero_one_states(system)


def _densities(rng, count):
    """I/3 and full-rank rational densities I/6 + (P(u) + P(v))/4."""
    rays = [r for r in product(range(-2, 3), repeat=3) if any(r)]
    out = [DensityMatrix.maximally_mixed(3)]
    for _ in range(count):
        rho = [[Fraction(i == j, 6) for j in range(3)] for i in range(3)]
        for _ in range(2):
            v = rng.choice(rays)
            norm = ladder.dot(v, v)
            for i, j in product(range(3), repeat=2):
                rho[i][j] += Fraction(v[i] * v[j], 4 * norm)
        out.append(DensityMatrix(ExactMatrix.from_entries(rho)))
    return out


# -- components and listings ------------------------------------------------------


def test_builtins_are_their_own_only_component():
    for name in ("kcbs", "ceg", "ceg-lift"):
        graph = BUILTINS[name].system().atom_graph()
        assert graph.components == (graph,) and graph.components[0] is graph


def test_components_split_the_products(family):
    name, k, system, _ = family
    graph = system.atom_graph()
    sizes = [len(part.vertices) for part in graph.components]
    if name.startswith("k="):
        assert sizes == [3] * k
    else:
        assert sorted(sizes) == sorted([25] + [3] * k)
    vertices = [v for part in graph.components for v in part.vertices]
    assert sorted(vertices) == sorted(graph.vertices)
    firsts = [graph.vertices.index(part.vertices[0]) for part in graph.components]
    assert firsts == sorted(firsts)
    for part in graph.components:
        assert list(part.vertices) == [v for v in graph.vertices if v in part.vertices]
        assert part.edges == {e for e in graph.edges if e[0] in part.vertices}
        assert part.components == (part,)


def test_component_listings_multiply_to_the_full_listing(family):
    _, _, system, s01 = family
    graph = system.atom_graph()
    listings = component_zero_one_states(graph)
    assert math.prod(map(len, listings)) == len(s01)
    products = {
        frozenset().union(*(lam.ones for lam in choice)) for choice in product(*listings)
    }
    assert products == {lam.ones for lam in s01}
    for part, listing in zip(graph.components, listings):
        assert listing == enumerate_zero_one_states(part)


def test_masks_are_in_the_graph_bit_order(family):
    """Vertex i of n is bit 1 << n - 1 - i, so a mask is its value tuple
    read in binary and masks ascend as value tuples do; components keep
    their parent's bits, so a product state's mask is the sum of its
    factors' masks; any other bit is a MissingVertex."""
    _, _, system, s01 = family
    graph = system.atom_graph()
    n = len(graph.vertices)
    assert [graph.mask([v]) for v in graph.vertices] == [1 << n - 1 - i for i in range(n)]
    for part in graph.components:
        assert [part.mask([v]) for v in part.vertices] == [graph.mask([v]) for v in part.vertices]
    masks = [lam.mask for lam in s01]
    assert masks == [int("".join(map(str, lam.as_tuple())), 2) for lam in s01]
    assert masks == sorted(set(masks))
    listings = component_zero_one_states(graph)
    for choice in product(*listings):
        ones = frozenset().union(*(lam.ones for lam in choice))
        assert ZeroOneState.from_ones(graph, ones).mask == sum(lam.mask for lam in choice)
    lam = s01[-1]
    for stray in (lam.mask | 1 << n, -1, -lam.mask, ~lam.mask):
        with pytest.raises(MissingVertex):
            ZeroOneState(graph, stray)
    if len(graph.components) > 1:
        with pytest.raises(MissingVertex):
            ZeroOneState(graph.components[0], lam.mask)
    with pytest.raises(MissingVertex):
        ZeroOneState.from_ones(graph, lam.ones | {"nowhere"})


def test_component_searches_share_one_budget():
    graph = _system(k_bases_rays(3)).atom_graph()
    nodes = sum(_search_zero_one(part, 10**6, 0)[1] for part in graph.components)
    assert len(component_zero_one_states(graph, budget=nodes)) == 3
    with pytest.raises(SearchBudgetExceeded) as err:
        component_zero_one_states(graph, budget=nodes - 1)
    assert (err.value.nodes, err.value.budget) == (nodes, nodes - 1)


def test_listing_memo_holds_every_budget(monkeypatch):
    """A verdict keeps its graph's component listings with the nodes they
    took.  A verdict within that budget searches no more; one below it
    searches again and fails with the node count of a cold search, and the
    memo outlives the failure."""
    system = _system(k_bases_rays(3))
    graph = system.atom_graph()
    p = system.state_from_density(DensityMatrix.maximally_mixed(3))
    nodes = sum(_search_zero_one(part, 10**6, 0)[1] for part in graph.components)
    with pytest.raises(SearchBudgetExceeded) as cold:
        classify_experiment(system, p, budget=nodes - 1)
    assert graph._listings is None
    first = classify_experiment(system, p, budget=nodes)
    searched = []
    real = graphs._search_zero_one

    def counting(part, budget, spent):
        searched.append(part)
        return real(part, budget, spent)

    monkeypatch.setattr(graphs, "_search_zero_one", counting)
    assert classify_experiment(system, p, budget=nodes) == first
    assert is_noncontextual(p) == first.certificate and searched == []
    with pytest.raises(SearchBudgetExceeded) as warm:
        classify_experiment(system, p, budget=nodes - 1)
    assert (warm.value.nodes, warm.value.budget) == (cold.value.nodes, cold.value.budget)
    assert (cold.value.nodes, cold.value.budget) == (nodes, nodes - 1)
    assert searched and searched[0] is graph.components[0]
    searched.clear()
    assert classify_experiment(system, p, budget=nodes) == first and searched == []


def test_listing_memo_is_kept_per_graph_object():
    """An equal graph with its vertices, and so its bits, in another order
    does not receive the memoised listings, and gets its own verdict."""
    system = _system(k_bases_rays(3))
    graph = system.atom_graph()
    flipped = ExclusivityGraph(list(reversed(graph.vertices)), graph.edges)
    assert flipped == graph and flipped.mask(["r0"]) != graph.mask(["r0"])
    p = system.state_from_density(_densities(random.Random(7), 1)[1])
    assert is_noncontextual(p).verdict == NONCONTEXTUAL and graph._listings is not None
    assert flipped._listings is None
    q = analyze.PBAState(flipped, dict(p.values))
    cert = is_noncontextual(q)
    assert flipped._listings[0] == tuple(enumerate_zero_one_states(part).masks for part in flipped.components)
    assert flipped._listings is not graph._listings
    s01 = enumerate_zero_one_states(flipped)
    assert sum(cert.weights.values()) == 1
    for v in flipped.vertices:
        assert sum(w * s01[k].value(v) for k, w in cert.weights.items()) == p.value(v)


@pytest.mark.parametrize("name", ["kcbs", "k=3"])
def test_one_search_serves_every_listing_of_a_graph(name, monkeypatch, capsys):
    """After one listing of a system, a second listing, a verdict and the
    CLI's build count of that system construct no search."""
    system = BUILTINS["kcbs"].system() if name == "kcbs" else _system(k_bases_rays(3))
    s01 = zero_one_states(system)
    searches = []

    class Counting(graphs.ZeroOneSearch):
        def __init__(self, *args, **kwargs):
            searches.append(args[0])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(graphs, "ZeroOneSearch", Counting)
    assert zero_one_states(system) == s01
    p = system.state_from_density(DensityMatrix.maximally_mixed(3, backend=system.backend))
    assert classify_experiment(system, p).embedding.s01_count == len(s01)
    monkeypatch.setattr(cli._Source, "build_system", lambda source: system)
    code, out, _ = run_cli(["build", "kcbs", "--format", "json"], capsys)
    assert (code, json.loads(out)["zero_one"]["count"]) == (0, len(s01))
    assert searches == []


def test_the_search_checks_every_mask_it_keeps(monkeypatch):
    """A search that yielded an assignment with two 1s in one triangle would
    not be kept: each found mask is checked on every clique."""

    class Broken(graphs.ZeroOneSearch):
        def __iter__(self):
            yield (1,) * len(self.assign)

    monkeypatch.setattr(graphs, "ZeroOneSearch", Broken)
    graph = _system(k_bases_rays(2)).atom_graph()
    with pytest.raises(NotAGraphState, match="adjacent vertices"):
        enumerate_zero_one_states(graph)
    assert graph._listings is None


@pytest.mark.parametrize("name", ["kcbs", "k=3"])
def test_a_kept_listing_trips_each_budget_where_a_fresh_graph_does(name):
    """Just below the kept search nodes the listing searches again and fails
    with a fresh graph's count; on a product graph the product charge trips
    at the budget where it trips on a fresh graph."""
    system = BUILTINS["kcbs"].system() if name == "kcbs" else _system(k_bases_rays(3))
    graph = system.atom_graph()
    count = len(zero_one_states(system))
    spent = component_listings(graph)[1]
    charge = count if len(graph.components) > 1 else 0

    def outcome(g, budget):
        try:
            return len(enumerate_zero_one_states(g, budget))
        except SearchBudgetExceeded as exc:
            return exc.nodes, exc.budget

    for budget in (spent - 1, spent, spent + charge - 1, spent + charge):
        fresh = ExclusivityGraph(graph.vertices, graph.edges)
        assert outcome(graph, budget) == outcome(fresh, budget), budget
    assert outcome(graph, spent - 1) == (spent, spent - 1)
    if charge:
        assert outcome(graph, spent + charge - 1) == (spent + charge, spent + charge - 1)
    assert outcome(graph, spent + charge) == count


def test_listing_charges_one_node_per_product_state(family, monkeypatch):
    """The charge comes before any product: a failed listing reads no factor
    listing, so it builds no product mask and no state on the graph.  The
    graph is a fresh copy, so that its component searches run here."""
    _, _, system, s01 = family
    graph = ExclusivityGraph(system.atom_graph().vertices, system.atom_graph().edges)
    nodes = sum(_search_zero_one(part, 10**6, 0)[1] for part in graph.components)
    if len(graph.components) > 1:
        nodes += len(s01)
    built, read = [], []

    def recording(state_graph, mask, _validated=False):
        built.append(state_graph)
        return ZeroOneState(state_graph, mask, _validated)

    class Listing(list):
        def __iter__(self):
            read.append(self)
            return super().__iter__()

    def search(component, budget, spent):
        states, found = _search_zero_one(component, budget, spent)
        return Listing(states), found

    monkeypatch.setattr(graphs, "ZeroOneState", recording)
    monkeypatch.setattr(graphs, "_search_zero_one", search)
    listing = enumerate_zero_one_states(graph, budget=nodes)
    assert len(listing) == len(s01) and all(lam.graph is graph for lam in listing)
    built.clear()
    read.clear()
    with pytest.raises(SearchBudgetExceeded) as err:
        enumerate_zero_one_states(graph, budget=nodes - 1)
    assert (err.value.nodes, err.value.budget) == (nodes, nodes - 1)
    assert read == [] and all(g is not graph for g in built)
    monkeypatch.undo()
    assert listing == s01


@pytest.mark.parametrize(
    "rays",
    [k_bases_rays(k) for k in (3, 4, 5, 6)] + [interleaved_rays(3)],
    ids=[f"k={k}" for k in (3, 4, 5, 6)] + ["k=3-interleaved"],
)
def test_product_listing_passes_the_set_based_check(rays):
    """The masks, built on the first read and kept, are the sorted sums of
    one component mask per component, and each state passes the check."""
    graph = _system(rays).atom_graph()
    s01 = enumerate_zero_one_states(graph)
    assert len(s01) == 3 ** (len(rays) // 3)
    assert s01.masks == sorted(map(sum, product(*component_listings(graph)[0])))
    assert s01.masks is s01.masks
    for lam in s01:
        set_based_zero_one_check(graph, lam.ones)


def test_product_listing_checks_the_components_once(monkeypatch):
    """The products are not checked one by one, so components that do not
    split the graph's cliques and vertices stop the listing.  Here each
    component's own states stay valid: one component is left with no
    cliques, or one is taken twice."""
    graph = _system(interleaved_rays(3)).atom_graph()
    part = graph.components[1]
    monkeypatch.setattr(part, "_clique_masks", ())
    with pytest.raises(NotAGraphState, match="cliques are not the graph's"):
        enumerate_zero_one_states(graph)
    monkeypatch.undo()
    first = graph.components[0]
    monkeypatch.setattr(graph, "components", (first, first) + graph.components[1:])
    with pytest.raises(NotAGraphState, match="share a vertex"):
        enumerate_zero_one_states(graph)
    monkeypatch.undo()
    assert len(enumerate_zero_one_states(graph)) == 27


def test_twelve_bases_are_counted_and_judged_without_their_listing():
    """531,441 product states are counted, embedded and certified without a
    product mask: the eager sorted list of them alone takes about 32 MB."""
    system = _system(k_bases_rays(12))
    third = system.state_from_density(DensityMatrix.maximally_mixed(3))
    tracemalloc.start()
    try:
        count = len(zero_one_states(system))
        report = scenario_classical(system, zero_one_states(system))
        verdict = classify_experiment(system, third)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (count, report.embeddable, report.s01_count) == (3**12, True, 3**12)
    assert verdict.certificate.verdict == NONCONTEXTUAL
    assert peak < 2 * 2**20, peak


def test_components_are_checked_once_per_graph_object(monkeypatch):
    """Repeat listings of one graph check its components once; an equal
    graph object checks its own."""
    checked = []
    real = graphs._check_components

    def counting(graph):
        checked.append(graph)
        real(graph)

    monkeypatch.setattr(graphs, "_check_components", counting)
    graph = _system(k_bases_rays(3)).atom_graph()
    for _ in range(3):
        assert len(enumerate_zero_one_states(graph)) == 27
    assert len(checked) == 1 and checked[0] is graph
    fresh = ExclusivityGraph(graph.vertices, graph.edges)
    assert enumerate_zero_one_states(fresh) == enumerate_zero_one_states(graph)
    assert len(checked) == 2 and checked[1] is fresh


def test_product_index_is_the_index_in_the_sorted_listing(family):
    _, _, system, s01 = family
    graph = system.atom_graph()
    listings = component_zero_one_states(graph)
    masks = component_listings(graph)[0]
    where = {lam.ones: i for i, lam in enumerate(s01)}
    for choice in product(*(range(len(listing)) for listing in listings)):
        ones = frozenset().union(*(l[c].ones for l, c in zip(listings, choice)))
        assert _product_index(graph, masks, choice) == where[ones]


# -- verdicts against the full listing ----------------------------------------------


def _full_tableau_bland(rows: list[list[int]], basis: list[int]) -> int:
    """Bland's rule on the full fraction-free tableau D * B^-1 [A | b] and,
    last, its reduced-cost row, updated in place until no reduced cost is
    negative; returns the final denominator D.  Every column is carried, the
    basic ones as D times a unit vector, so this loop is independent of the
    condensed one in ``simplex``."""
    m = len(basis)
    width = len(rows[m]) - 1
    den = 1
    while True:
        # Basic columns have reduced cost 0, so the first negative entry is
        # the first improving nonbasic column.
        c = next((j for j in range(width) if rows[m][j] < 0), -1)
        if c < 0:
            return den
        r = -1
        for i in range(m):
            if rows[i][c] > 0 and (
                r < 0
                or rows[i][-1] * rows[r][c] < rows[r][-1] * rows[i][c]
                or (rows[i][-1] * rows[r][c] == rows[r][-1] * rows[i][c] and basis[i] < basis[r])
            ):
                r = i
        assert r >= 0, "the objective is unbounded below"
        p, prow = rows[r][c], rows[r]
        for i, line in enumerate(rows):
            if i != r:
                rows[i] = [(p * v - line[c] * w) // den for v, w in zip(line, prow)]
        den = p
        basis[r] = c


def _separation_lp(
    free: Sequence[str],
    states: Sequence[ZeroOneState],
    target: Mapping[str, Fraction],
):
    """Maximize y.target - c over valid inequalities with |y| <= 1 on the free
    coordinates; optimum 0 certifies hull membership.

    Variables: s_v = y_v + 1 in [0, 2], slack u_v, split c = cp - cm, and one
    slack per state row.  This box-normalised LP, one row per listed state,
    is the full-listing reference for the verdicts and inequalities that the
    membership LP gives per component.
    """
    nf = len(free)
    m = len(states)
    ncols = 2 * nf + 2 + m
    a: list[list[int]] = []
    b: list[int] = []
    for k, lam in enumerate(states):
        row = [0] * ncols
        for i, v in enumerate(free):
            row[i] = lam.value(v)
        row[2 * nf] = -1  # cp
        row[2 * nf + 1] = 1  # cm
        row[2 * nf + 2 + k] = 1  # slack
        a.append(row)
        b.append(sum(row[:nf]))
    for i in range(nf):
        row = [0] * ncols
        row[i] = 1
        row[nf + i] = 1
        a.append(row)
        b.append(2)
    c: list = [0] * ncols
    for i, v in enumerate(free):
        c[i] = target[v]
    c[2 * nf] = -1
    c[2 * nf + 1] = 1
    # Every b is >= 0 and every row has its own unit column, a slack per
    # state row and u_v per box row, so the slack basis is feasible: one
    # phase of Bland's rule on the reduced costs of min -c, no artificials.
    basis = [2 * nf + 2 + k for k in range(m)] + [nf + i for i in range(nf)]
    # The cost row of min -c, scaled to integers by the lcm of c's denominators.
    scale = math.lcm(*(Fraction(v).denominator for v in c))
    rows = [row + [rhs] for row, rhs in zip(a, b)] + [[-int(Fraction(v) * scale) for v in c] + [0]]
    den = _full_tableau_bland(rows, basis)
    x = [Fraction(0)] * ncols
    for line, col in zip(rows, basis):
        x[col] = Fraction(line[-1], den)
    y = {v: x[i] - 1 for i, v in enumerate(free)}
    bound = x[2 * nf] - x[2 * nf + 1]
    violation = sum(u * v for u, v in zip(c, x)) - sum(target[v] for v in free)
    return y, bound, violation


def _reference(system, s01, target):
    """The verdict of the separation LP on the full listing of the graph, and
    its inequality; where it finds no cutting plane, the membership LP on the
    full listing must find weights."""
    graph = system.atom_graph()
    free = clique_reduction(graph).free
    y, _, violation = _separation_lp(free, s01, target)
    if violation > 0:
        return CONTEXTUAL, certify._primitive_inequality(graph, s01.masks, integer_ray(y))
    weights, _ = _membership_lp(graph, s01.masks, free, *integer_target(target))
    assert weights is not None
    return NONCONTEXTUAL, None


def _targets(system, s01, rng):
    """I/3 and the barycentre of the 0-1 states; on listings of up to 81
    states, where the full LPs are fast, random densities and the midpoint of
    the first two as well."""
    graph = system.atom_graph()
    small = len(s01) <= 81
    yield from (system.state_from_density(rho) for rho in _densities(rng, 3 if small else 0))
    barycentre = {v: Fraction(sum(l.value(v) for l in s01), len(s01)) for v in graph.vertices}
    yield analyze.PBAState(graph, barycentre)
    if not small:
        return
    mixed = system.state_from_density(DensityMatrix.maximally_mixed(3))
    half = {v: (mixed.value(v) + barycentre[v]) / 2 for v in graph.vertices}
    yield analyze.PBAState(graph, half)


def test_decomposed_verdicts_match_the_full_listing(family):
    name, _, system, s01 = family
    graph = system.atom_graph()
    listings = component_zero_one_states(graph)
    free_sizes = [len(clique_reduction(part).free) for part in graph.components]
    verdicts = set()
    for i, p in enumerate(_targets(system, s01, random.Random(name))):
        target = {v: Fraction(p.value(v)) for v in graph.vertices}
        want, full_inequality = _reference(system, s01, target)
        result = classify_experiment(system, p)
        cert = result.certificate
        assert cert.verdict == want
        assert result.embedding.s01_count == len(s01)
        assert is_noncontextual(p, s01) == cert == is_noncontextual(p)
        verdicts.add(cert.verdict)
        if cert.verdict == NONCONTEXTUAL:
            assert sum(cert.weights.values()) == 1
            for v in graph.vertices:
                assert sum(w * s01[k].value(v) for k, w in cert.weights.items()) == target[v]
            # Each component's support has at most |free| + 1 states.
            bound = sum(f + 1 for f in free_sizes) - (len(free_sizes) - 1)
            assert len(cert.weights) <= bound
            assert list(cert.weights) == sorted(cert.weights)
        else:
            ineq = cert.inequality
            values = [evaluate(ineq, {v: Fraction(lam.value(v)) for v in graph.vertices}) for lam in s01]
            assert max(values) == ineq.bound
            assert evaluate(ineq, target) > ineq.bound
            assert cert.violation == evaluate(ineq, target) - ineq.bound
            supports = [
                i for i, part in enumerate(graph.components)
                if any(ineq.coeffs.get(v) for v in part.vertices)
            ]
            assert len(supports) == 1
            if i == 0:  # I/3: the inequality of the full LP, violated by 1/3
                assert ineq == full_inequality and cert.violation == Fraction(1, 3)
    if name.startswith("k="):
        assert verdicts == {NONCONTEXTUAL}
    else:
        assert verdicts == {CONTEXTUAL, NONCONTEXTUAL}


# name: (components, 0-1 states, verdict, inequality) under the KCBS state,
# or under I/3.
ONE_LP = {
    "kcbs": (1, 11, CONTEXTUAL, "p(P0) + p(P1) + p(P2) + p(P3) + p(P4) <= 2"),
    "yu-oh": (1, 24, CONTEXTUAL, "p(r9) + p(r10) + p(r11) + p(r12) <= 1"),
    "k=3": (3, 27, NONCONTEXTUAL, None),
    "linked k=6": (1, 377, NONCONTEXTUAL, None),
    "yu-oh+3 linked": (1, 440, CONTEXTUAL, "p(r9) + p(r10) + p(r11) + p(r12) <= 1"),
}


def _one_lp_case(name):
    if name == "kcbs":
        system = BUILTINS["kcbs"].system()
        return system, system.state_from_density(kcbs_state())
    rays = {
        "yu-oh": lambda: ladder.YU_OH,
        "k=3": lambda: k_bases_rays(3),
        "linked k=6": lambda: AXES + ladder.linked_bases(5, AXES, AXES[2]),
        "yu-oh+3 linked": lambda: ladder.YU_OH
        + ladder.linked_bases(3, closed_rays(ladder.YU_OH), ladder.YU_OH[0]),
    }[name]()
    system = _system(rays)
    return system, system.state_from_density(DensityMatrix.maximally_mixed(3))


@pytest.mark.parametrize("name", sorted(ONE_LP))
def test_certify_solves_one_lp_per_component_at_most(name, monkeypatch):
    """One membership LP per component, over all its 0-1 states: its
    weights, or its Farkas ray as the inequality.  The ladder's connected
    rungs, linked k = 6 and Yu-Oh + 3 linked, take one LP each."""
    system, p = _one_lp_case(name)
    graph = system.atom_graph()
    calls = []

    def recording(*args):
        calls.append(args)
        return feasible_point(*args)

    monkeypatch.setattr(certify, "feasible_point", recording)
    result = classify_experiment(system, p)
    cert = result.certificate
    components, count, verdict, text = ONE_LP[name]
    got = (len(graph.components), result.embedding.s01_count, cert.verdict, len(calls))
    assert got == (components, count, verdict, components)
    if text is not None:
        assert str(cert.inequality) == text
        return
    s01 = zero_one_states(system)
    for v in graph.vertices:
        assert sum(w * s01[k].value(v) for k, w in cert.weights.items()) == p.value(v)


def _full_listing_embedding(system, s01):
    """Embeddability and witness from every element's values on every state
    of the full listing, each state extended through the decompositions."""
    extended = [system.extend_state(lam.as_state()) for lam in s01]
    groups = {}
    for i in range(len(system)):
        groups.setdefault(tuple(e.eval_index(i) for e in extended), []).append(i)
    collided = [g for g in groups.values() if len(g) > 1]
    if not collided:
        return True, None
    chosen = next((g for g in collided if system.identity_index in g), min(collided, key=min))
    return False, (system.element_name(min(chosen)), system.element_name(max(chosen)))


def test_decomposed_embedding_matches_the_full_listing(family):
    _, _, system, s01 = family
    report = scenario_classical(system)
    assert report == scenario_classical(system, s01)
    assert (report.embeddable, report.witness) == _full_listing_embedding(system, s01)
    assert report.s01_count == len(s01)


def _r5_basis():
    """Columns of a product of two integer Householder reflections of R^5."""

    def householder(v):
        n = ladder.dot(v, v)
        return [[n * (i == j) - 2 * v[i] * v[j] for j in range(5)] for i in range(5)]

    a, b = householder((1, 2, 3, 4, 5)), householder((2, -1, 1, 3, -2))
    m = [[ladder.dot(a[i], [b[k][j] for k in range(5)]) for j in range(5)] for i in range(5)]
    return [[m[i][j] for i in range(5)] for j in range(5)]


@pytest.mark.parametrize("basis_first", [True, False])
def test_constant_elements_collide_across_components(basis_first):
    """ceg-lift beside an unrelated basis of R^5.  The lift's one 0-1 state
    makes kprime 1 and the other lift atoms 0 on every state, so they collide
    with 1 and 0 also where those lie in the basis's component."""
    lift = BUILTINS["ceg-lift"].scenario()
    basis = [projector_from_vector(c) for c in _r5_basis()]
    system = generate_system(basis + list(lift.generators))
    basis_labels = {f"b{i}": p for i, p in enumerate(basis)}
    lift_labels = {n: p for n, p in lift.labels.items() if system.contains(p)}
    if basis_first:
        system = system.with_atom_labels({**basis_labels, **lift_labels})
    else:
        system = system.with_atom_labels({**lift_labels, **basis_labels})
    graph = system.atom_graph()
    assert [len(part.vertices) for part in graph.components] == (
        [5, 25] if basis_first else [25, 5]
    )
    s01 = zero_one_states(system)
    report = scenario_classical(system)
    assert (report.embeddable, report.witness) == _full_listing_embedding(system, s01)
    assert report.witness[1] == "1" and report.s01_count == len(s01) == 5


# -- a given listing on a graph of several components ----------------------------------


def test_incomplete_listing_is_a_typed_error():
    system = _system(k_bases_rays(2))
    s01 = zero_one_states(system)
    p = system.state_from_density(DensityMatrix.maximally_mixed(3))
    for bad in (s01[:-1], s01[:-1] + s01[:1], [], list(reversed(s01))[1:]):
        with pytest.raises(IncompleteListing):
            is_noncontextual(p, bad)
        with pytest.raises(IncompleteListing):
            scenario_classical(system, bad)
        with pytest.raises(IncompleteListing):
            classify_experiment(system, p, bad)
    reordered = list(reversed(s01))
    cert = is_noncontextual(p, reordered)
    assert cert.verdict == NONCONTEXTUAL
    for v in system.atom_graph().vertices:
        assert sum(w * reordered[k].value(v) for k, w in cert.weights.items()) == p.value(v)


def test_weights_index_a_given_listing_in_its_own_order(family):
    """A complete listing in any order: each weight's key is the position of
    its state in that listing, on every path that takes a listing."""
    name, _, system, s01 = family
    graph = system.atom_graph()
    shuffled = list(s01)
    random.Random(name).shuffle(shuffled)
    barycentre = {v: Fraction(sum(l.value(v) for l in s01), len(s01)) for v in graph.vertices}
    p = analyze.PBAState(graph, barycentre)
    cert = is_noncontextual(p, shuffled)
    assert cert.verdict == NONCONTEXTUAL
    assert classify_experiment(system, p, shuffled).certificate == cert
    for v in graph.vertices:
        assert sum(w * shuffled[k].value(v) for k, w in cert.weights.items()) == barycentre[v]
    if len(graph.components) == 1:
        return  # the LPs ran on the shuffled listing itself
    # The component LPs do not see the given order: the same mixture, rekeyed.
    position = {lam.ones: i for i, lam in enumerate(shuffled)}
    sorted_keys = {position[s01[k].ones]: w for k, w in is_noncontextual(p).weights.items()}
    assert cert.weights == sorted_keys


def test_product_listing_reads_as_the_eager_list(family):
    """The listing reads as the list of sorted product states it stands for:
    its length, a state at either end, a slice, two iterations, and equality
    in both directions.  Every graph, connected or not, lists lazily."""
    _, _, system, s01 = family
    graph = system.atom_graph()
    masks = [sum(lam.mask for lam in choice) for choice in product(*component_zero_one_states(graph))]
    eager = [ZeroOneState(graph, mask, True) for mask in sorted(masks)]
    assert isinstance(s01, ProductListing)
    assert len(s01) == len(eager)
    assert (s01[0], s01[-1], s01[2:5]) == (eager[0], eager[-1], eager[2:5])
    assert list(s01) == eager and list(s01) == eager
    assert s01 == eager and eager == s01
    assert s01 != eager[:-1] and eager[1:] != s01
    assert all(lam.graph is graph for lam in s01)


def test_verdicts_agree_on_every_form_of_the_listing(family):
    """The listing, a list of its states and no listing give equal reports.
    The states are I/3 and five random densities of the form the hull-lp
    benchmark classifies; on k = 3 bases they are its verdicts' states."""
    name, _, system, s01 = family
    forms = (s01, list(s01), None)
    for rho in _densities(random.Random(name), 5):
        p = system.state_from_density(rho)
        first, *rest = (classify_experiment(system, p, form) for form in forms)
        assert rest == [first, first]
    first, *rest = (scenario_classical(system, form) for form in forms)
    assert rest == [first, first]


def test_only_the_graphs_own_product_listing_is_trusted():
    """The listing of an equal graph with reversed vertices is checked state
    by state, and its weights index it.  A hand-built listing on the graph
    itself, with a state missing or its masks out of order, raises
    IncompleteListing rather than key a weight to another state."""
    system = _system(k_bases_rays(3))
    graph = system.atom_graph()
    s01 = zero_one_states(system)
    p = system.state_from_density(_densities(random.Random(3), 1)[1])
    flipped = ExclusivityGraph(list(reversed(graph.vertices)), graph.edges)
    moved = enumerate_zero_one_states(flipped)
    assert isinstance(moved, ProductListing) and set(moved) == set(s01) and moved != s01
    cert = is_noncontextual(p, moved)
    assert cert.verdict == NONCONTEXTUAL and len(cert.weights) > 1
    assert cert == is_noncontextual(p, list(moved))
    assert classify_experiment(system, p, moved).certificate == cert
    for v in graph.vertices:
        assert sum(w * moved[k].value(v) for k, w in cert.weights.items()) == p.value(v)
    missing = ProductListing(graph, s01.masks[1:])
    for bad in (missing, ProductListing(graph, s01.masks[::-1])):
        with pytest.raises(IncompleteListing):
            is_noncontextual(p, bad)
        with pytest.raises(IncompleteListing):
            classify_experiment(system, p, bad)
    with pytest.raises(IncompleteListing):
        scenario_classical(system, missing)


@pytest.mark.parametrize("name", ["kcbs", "ceg-lift", "k=2"])
def test_a_listing_on_a_reordered_equal_graph_is_read_by_name(name):
    """The graph's own listing, given as states of an equal graph in reversed
    vertex order: their masks name other vertices in the atom graph, yet the
    reports are those of the graph's own listing."""
    system = _system(k_bases_rays(2)) if name == "k=2" else BUILTINS[name].system()
    graph = system.atom_graph()
    s01 = zero_one_states(system)
    reversed_graph = ExclusivityGraph(graph.vertices[::-1], graph.edges)
    moved = [ZeroOneState.from_ones(reversed_graph, lam.ones) for lam in s01]
    assert moved == s01 and [lam.mask for lam in moved] != [lam.mask for lam in s01]
    assert scenario_classical(system, moved) == scenario_classical(system, s01)
    # A mixture with weight k + 1 on state k, so that no symmetry of the
    # graph maps the mixture to itself.
    total = len(s01) * (len(s01) + 1) // 2
    point = {
        v: Fraction(sum((k + 1) * lam.value(v) for k, lam in enumerate(s01)), total)
        for v in graph.vertices
    }
    p = analyze.PBAState(graph, point)
    cert = is_noncontextual(p, s01)
    assert cert.verdict == NONCONTEXTUAL and is_noncontextual(p, moved) == cert
    assert classify_experiment(system, p, moved) == classify_experiment(system, p, s01)
    # The state itself on the reordered graph: certified on the atom graph's listing.
    p_moved = analyze.PBAState(reversed_graph, point)
    assert classify_experiment(system, p_moved) == classify_experiment(system, p)


def test_empty_listing_of_a_connected_graph_is_still_empty_s01(kcbs_quantum_state):
    cert = is_noncontextual(kcbs_quantum_state, [])
    assert cert.empty_s01 and cert.verdict == CONTEXTUAL


def test_a_component_without_zero_one_states_empties_the_product():
    """A triangle beside a pentagon: exactly one 1 on each edge of an odd
    cycle is impossible, so the product has no 0-1 state at all."""
    rim = [f"v{i}" for i in range(5)]
    graph = ExclusivityGraph(
        ["x", "y", "z", *rim],
        [("x", "y"), ("y", "z"), ("x", "z")] + [(rim[i], rim[(i + 1) % 5]) for i in range(5)],
    )
    assert [len(listing) for listing in component_zero_one_states(graph)] == [3, 0]
    values = {"x": Fraction(1, 3), "y": Fraction(1, 3), "z": Fraction(1, 3)}
    values.update({v: Fraction(1, 2) for v in rim})
    p = analyze.PBAState(graph, values)
    for s01 in (None, []):
        cert = is_noncontextual(p, s01)
        assert cert.verdict == CONTEXTUAL and cert.empty_s01


def test_a_last_component_without_states_stops_the_listing_before_any_product(monkeypatch):
    """Triangles listed before a pentagon: the empty pentagon listing ends the
    listing at the component nodes, and no triangle listing is read to build
    a product."""
    k = 6
    tri = [[f"t{i}{c}" for c in "xyz"] for i in range(k)]
    rim = [f"v{i}" for i in range(5)]
    edges = [(a, b) for x, y, z in tri for a, b in ((x, y), (y, z), (x, z))]
    edges += [(rim[i], rim[(i + 1) % 5]) for i in range(5)]
    graph = ExclusivityGraph([v for t in tri for v in t] + rim, edges)
    read = []

    class Listing(list):
        def __iter__(self):
            read.append(self)
            return super().__iter__()

    def search(component, budget, spent):
        states, nodes = _search_zero_one(component, budget, spent)
        return Listing(states), nodes

    monkeypatch.setattr(graphs, "_search_zero_one", search)
    listings = component_zero_one_states(graph)
    assert [len(listing) for listing in listings] == [3] * k + [0]
    nodes = sum(_search_zero_one(part, 10**6, 0)[1] for part in graph.components)
    read.clear()
    assert enumerate_zero_one_states(graph, budget=nodes) == []
    assert read == []


# -- the CLI ----------------------------------------------------------------------------


def _scenario_file(path, rays):
    names = [f"r{i}" for i in range(len(rays))]
    doc = {
        "dimension": 3,
        "vectors": [
            {"name": n, "entries": [str(x) for x in r]} for n, r in zip(names, rays)
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _mixed_state_file(path):
    rho = [["1/3" if i == j else "0" for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"density": rho}), encoding="utf-8")
    return path


def test_cli_weights_index_the_zero_one_listing(tmp_path, capsys):
    scenario = _scenario_file(tmp_path / "k3.json", k_bases_rays(3))
    state = _mixed_state_file(tmp_path / "mixed.json")
    argv = [str(scenario), "--no-cache", "--format", "json"]
    code, out, _ = run_cli(["analyze", *argv, "--state", str(state)], capsys)
    report = json.loads(out)
    assert (code, report["classification"], report["zero_one"]["count"]) == (0, "CLASSICAL", 27)
    weights = {int(k): Fraction(w) for k, w in report["state_verdict"]["weights"].items()}
    assert len(weights) <= 3 * 3 - 2
    code, out, _ = run_cli(["zero-one", *argv], capsys)
    listing = json.loads(out)["zero_one"]
    assert len(listing["states"]) == 27
    for atom in listing["atom_order"]:
        mass = sum(w for k, w in weights.items() if atom in listing["states"][k])
        assert mass == Fraction(1, 3)
    code, out, _ = run_cli(["build", *argv], capsys)
    assert json.loads(out)["zero_one"]["count"] == 27


def test_cli_budget_counts_every_component(tmp_path, capsys):
    scenario = _scenario_file(tmp_path / "k3.json", k_bases_rays(3))
    graph = _system(k_bases_rays(3)).atom_graph()
    nodes = sum(_search_zero_one(part, 10**6, 0)[1] for part in graph.components)
    argv = ["build", str(scenario), "--no-cache"]
    assert run_cli([*argv, "--budget", str(nodes)], capsys)[0] == 0
    code, out, err = run_cli([*argv, "--budget", str(nodes - 1)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: search explored {nodes} nodes, budget {nodes - 1}\n"


# -- scipy's HiGHS as an independent float oracle -----------------------------------


def _hull_member(linprog, s01, values, vertices) -> bool:
    """Feasibility of w >= 0, sum w = 1, sum w_k lam_k = values in floats."""
    a_eq = [[float(lam.value(v)) for lam in s01] for v in vertices] + [[1.0] * len(s01)]
    b_eq = [float(values[v]) for v in vertices] + [1.0]
    res = linprog([0.0] * len(s01), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status in (0, 2), res.message
    return res.status == 0


def _oracle_cases():
    from ctxcert.catalog import kcbs_system

    kcbs = kcbs_system()
    noise = DensityMatrix.maximally_mixed(3, backend="float")
    w_star = (math.sqrt(5) - 2) / (math.sqrt(5) - 5 / 3)
    for w in (0.0, 0.1, 0.2, 0.3, 0.38, 0.45, 0.6, 0.8, 1.0):
        assert abs(w - w_star) >= 0.02
        rho = DensityMatrix.mixture([1 - w, w], [kcbs_state(), noise])
        yield f"kcbs w={w}", kcbs, kcbs.state_from_density(rho)
    for name, (make, k) in sorted(FAMILIES.items()):
        if name == "yu-oh+0":
            continue
        system = _system(make(k))
        for i, rho in enumerate(_densities(random.Random(name), 3)):
            yield f"{name} rho{i}", system, system.state_from_density(rho)


def test_hull_verdicts_against_scipy_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    seen = set()
    for name, system, p in _oracle_cases():
        s01 = zero_one_states(system)
        cert = is_noncontextual(p)
        vertices = system.atom_graph().vertices
        if cert.verdict == CONTEXTUAL:
            # At least 1e-6 outside: the violated facet has integer
            # coefficients, so its distance is violation / |c|.
            norm = math.sqrt(sum(c * c for c in cert.inequality.coeffs.values()))
            assert cert.violation >= 1e-6 * norm, name
        else:
            # At least 1e-6 inside: a k-bases hull is a product of simplices,
            # whose facets are p(atom) >= 0.  KCBS states stay 0.02 in w from
            # the pentagon facet.
            assert name.startswith("kcbs") or min(p.values.values()) >= 1e-6, name
        assert _hull_member(linprog, s01, p.values, vertices) == (cert.verdict == NONCONTEXTUAL), name
        seen.add((name.split()[0], cert.verdict))
    assert {("kcbs", CONTEXTUAL), ("kcbs", NONCONTEXTUAL), ("yu-oh+1", CONTEXTUAL)} <= seen
