"""Exclusivity graphs of atoms, their states, and 0-1 state enumeration.

A finite exclusive structure is determined by this graph, so scenario-level
questions (state spaces, deterministic assignments) are answered here on
plain vertex/edge data; isomorphism is in ``ctxcert.isomorphism``.  The 0-1
listing of a graph is one decision made here: each component's ascending
masks are searched once per graph object (``component_listings``), and every
graph's listing is a ``ProductListing`` of them.  Its length is the product
of their lengths; the sorted product masks are built only when a state or the
masks are read, and states only when read.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import MissingVertex, NotAGraphState, Record, SearchBudgetExceeded, set_field
from .linalg import DEFAULT_TOL, EXACT, FLOAT

DEFAULT_SEARCH_BUDGET = 1_000_000


class ExclusivityGraph:
    """Finite simple graph on named atoms; maximal cliques are the contexts.

    A vertex set is a mask: vertex i of n is bit ``1 << n - 1 - i``, so masks
    sort as value tuples.  ``components`` holds the connected components as
    graphs on their vertices in this graph's order, with their bits here,
    ordered by first vertex.  A connected graph is its own only component.
    """

    __slots__ = (
        "vertices",
        "edges",
        "components",
        "_adj",
        "_cliques",
        "_index",
        "_bit",
        "_mask",
        "_clique_masks",
        "_listings",
        "_products_checked",
    )

    def __init__(self, vertices: Sequence[str], edges: Iterable[tuple[str, str]], _bit=None):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        self._index = {v: i for i, v in enumerate(self.vertices)}
        norm = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in self._index or v not in self._index:
                raise MissingVertex(f"edge ({u!r}, {v!r}) references unknown vertex")
            norm.add((u, v) if u <= v else (v, u))
        self.edges = frozenset(norm)
        self._adj = {v: set() for v in self.vertices}
        for u, v in self.edges:
            self._adj[u].add(v)
            self._adj[v].add(u)
        self._cliques = self._maximal_cliques()
        self._bit = _bit or {v: 1 << len(self.vertices) - 1 - i for i, v in enumerate(self.vertices)}
        self._mask = sum(self._bit.values())
        self._clique_masks = tuple(self.mask(c) for c in self._cliques)
        self._listings = None  # component_listings' memo
        self._products_checked = False  # _check_components has passed
        self.components = self._split()

    def _split(self) -> tuple["ExclusivityGraph", ...]:
        # Every vertex lies in a maximal clique, so the components are the
        # unions of chains of overlapping cliques.
        parts: list[int] = []
        for clique in self._clique_masks:
            merged = clique
            for part in [m for m in parts if m & clique]:
                merged |= part
                parts.remove(part)
            parts.append(merged)
        if len(parts) <= 1:
            return (self,)
        parts.sort(reverse=True)  # disjoint, so by first vertex
        return tuple(
            ExclusivityGraph(
                [v for v in self.vertices if self._bit[v] & part],
                [(u, v) for u, v in self.edges if self._bit[u] & part],
                {v: b for v, b in self._bit.items() if b & part},
            )
            for part in parts
        )

    def mask(self, names: Iterable[str]) -> int:
        """The mask of the named vertices; an unknown name raises ``MissingVertex``."""
        try:
            return sum(self._bit[v] for v in set(names))
        except KeyError as exc:
            raise MissingVertex(f"unknown vertex {exc.args[0]!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        return ((u, v) if u <= v else (v, u)) in self.edges

    def _maximal_cliques(self) -> tuple[tuple[str, ...], ...]:
        # Bron-Kerbosch with pivoting; output is sorted for determinism.
        adj = {self._index[v]: {self._index[w] for w in self._adj[v]} for v in self.vertices}
        found: list[tuple[int, ...]] = []

        def expand(r: set[int], p: set[int], x: set[int]) -> None:
            if not p and not x:
                found.append(tuple(sorted(r)))
                return
            pivot = max(p | x, key=lambda u: len(adj[u] & p))
            for v in sorted(p - adj[pivot]):
                expand(r | {v}, p & adj[v], x & adj[v])
                p.remove(v)
                x.add(v)

        expand(set(), set(range(len(self.vertices))), set())
        named = [tuple(sorted(self.vertices[i] for i in c)) for c in found]
        return tuple(sorted(named))

    def maximal_cliques(self) -> tuple[tuple[str, ...], ...]:
        return self._cliques

    def relabel(self, mapping: Mapping[str, str]) -> "ExclusivityGraph":
        verts = [mapping[v] for v in self.vertices]
        edges = [(mapping[u], mapping[v]) for u, v in self.edges]
        return ExclusivityGraph(verts, edges)

    def to_dot(self, name: str = "atoms") -> str:
        """Graphviz DOT text: vertices then edges, both in lexicographic order.
        Each vertex is a quoted ID, with ``\\`` in its name escaped as ``\\\\``,
        then ``"`` as ``\\"``."""
        ids = {v: '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' for v in self.vertices}
        lines = [f"graph {name} {{"]
        for v in sorted(self.vertices):
            lines.append(f"  {ids[v]};")
        for u, v in sorted(self.edges):
            lines.append(f"  {ids[u]} -- {ids[v]};")
        lines.append("}")
        return "\n".join(lines) + "\n"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExclusivityGraph)
            and set(self.vertices) == set(other.vertices)
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.vertices), self.edges))

    def __repr__(self) -> str:
        return f"ExclusivityGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


class PBAState(Record):
    """Probability assignment to atoms with unit mass on every maximal clique:
    every value in [0, 1], within ``tol`` on the float backend."""

    __slots__ = ("graph", "values", "backend", "tol")

    def __init__(
        self,
        graph: ExclusivityGraph,
        values: Mapping[str, object],
        backend: str = EXACT,
        tol: float = DEFAULT_TOL,
    ):
        set_field(self, "graph", graph)
        set_field(self, "values", values)
        set_field(self, "backend", backend)
        set_field(self, "tol", tol)
        slack = 0 if backend == EXACT else tol
        for v in graph.vertices:
            if v not in values:
                raise MissingVertex(f"no value for vertex {v!r}")
            val = values[v]
            if not -slack <= val <= 1 + slack:  # NaN fails too
                raise NotAGraphState(f"value {val} at {v!r} outside [0, 1]")
        if not is_state(graph, values, backend=backend, tol=tol):
            raise NotAGraphState("clique sums differ from 1")

    def value(self, vertex: str):
        try:
            return self.values[vertex]
        except KeyError:
            raise MissingVertex(vertex) from None

    def as_tuple(self) -> tuple:
        return tuple(self.values[v] for v in self.graph.vertices)


def is_state(
    graph: ExclusivityGraph,
    values: Mapping[str, object],
    backend: str = EXACT,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Check the defining clique-normalization of a graph state."""
    for v in graph.vertices:
        if v not in values:
            raise MissingVertex(f"no value for vertex {v!r}")
    for clique in graph.maximal_cliques():
        total = sum(values[v] for v in clique)
        if backend == FLOAT:
            if not abs(total - 1.0) < tol * max(1, len(clique)):  # NaN fails too
                return False
        elif total != 1:
            return False
    return True


def _check_zero_one(graph: ExclusivityGraph, mask: int) -> None:
    """Raise unless ``mask`` sets exactly one vertex of every maximal clique.

    Clique counts on bitmasks.  Every edge lies in a maximal clique, so two
    adjacent 1s also break a clique; the adjacent pair is looked for, to name
    it, only once a clique is broken."""
    if mask & ~graph._mask:  # a negative mask too
        raise MissingVertex(f"mask {mask:#x} has bits outside the graph")
    for clique, bits in zip(graph._cliques, graph._clique_masks):
        if (bits & mask).bit_count() != 1:
            for u, v in sorted(graph.edges):
                if mask & graph._bit[u] and mask & graph._bit[v]:
                    raise NotAGraphState(f"adjacent vertices {u!r}, {v!r} both set to 1")
            raise NotAGraphState(f"clique {clique} does not contain exactly one 1")


class ZeroOneState:
    """Deterministic state: exactly one atom fires in every maximal clique.
    ``mask`` holds the atoms set to 1, in ``graph``'s bit order.

    The constructor checks every clique; ``_validated=True`` skips that, for
    the product listing, whose states are proven valid once per graph
    object."""

    __slots__ = ("graph", "mask")

    def __init__(self, graph: ExclusivityGraph, mask: int, _validated: bool = False):
        self.graph = graph
        self.mask = mask
        if not _validated:
            _check_zero_one(graph, mask)

    @classmethod
    def from_ones(cls, graph: ExclusivityGraph, ones: Iterable[str]) -> "ZeroOneState":
        return cls(graph, graph.mask(ones))

    @property
    def ones(self) -> frozenset[str]:
        return frozenset(v for v, bit in self.graph._bit.items() if self.mask & bit)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ZeroOneState):
            return False
        if self.graph is other.graph:
            return self.mask == other.mask
        # Equal graphs may give a vertex different bits, but not other names.
        return (self.graph, self.ones) == (other.graph, other.ones)

    def __hash__(self) -> int:
        return hash(self.ones)

    def __repr__(self) -> str:
        return f"ZeroOneState(graph={self.graph!r}, mask={self.mask})"

    def value(self, vertex: str) -> int:
        if vertex not in self.graph._bit:
            raise MissingVertex(vertex)
        return 1 if self.mask & self.graph._bit[vertex] else 0

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(1 if self.mask & bit else 0 for bit in self.graph._bit.values())

    def as_state(self, backend: str = EXACT, tol: float = DEFAULT_TOL) -> PBAState:
        one = Fraction(1) if backend == EXACT else 1.0
        zero = Fraction(0) if backend == EXACT else 0.0
        vals = {v: one if self.mask & bit else zero for v, bit in self.graph._bit.items()}
        return PBAState(self.graph, vals, backend=backend, tol=tol)


class ZeroOneSearch:
    """Backtracking over 0/1 assignments to ``n`` variables.

    A 1 zeroes its ``adjacency`` neighbours, and every group in ``groups``
    holds exactly one 1.  Variables are decided in ``order``, trying 1 before
    0; iterating yields each complete assignment (a tuple indexed by
    variable) as it is found, and ``nodes`` counts the search nodes entered
    so far.  More than ``budget`` nodes raises ``SearchBudgetExceeded``.  A
    search is iterated once.

    ``seed`` pins chosen variables before the search; when it conflicts with
    the constraints nothing is yielded and ``nodes`` stays 0.

    Propagation, to a fixpoint: a group with a 1 zeroes its other members, a
    group with one undecided member and no 1 forces that member to 1, and a
    group of 0s fails.  Each variable watches its groups, so after a change
    only the groups of changed variables are examined again.  The first
    propagation (of the seed, or of a decision at the root) examines every
    group, since no earlier fixpoint exists for it to build on.
    """

    def __init__(
        self,
        n: int,
        adjacency: Sequence[Sequence[int]],
        groups: Sequence[Sequence[int]],
        order: Sequence[int],
        budget: int,
        seed: Mapping[int, int] | None = None,
    ):
        self.adjacency = adjacency
        self.groups = groups
        self.watch: list[list[int]] = [[] for _ in range(n)]
        for gi, group in enumerate(groups):
            for v in group:
                self.watch[v].append(gi)
        self.order = order
        self.budget = budget
        self.seed = seed
        self.assign = [-1] * n
        self.nodes = 0

    def _set(self, v: int, value: int, trail: list[int]) -> bool:
        assign = self.assign
        assign[v] = value
        trail.append(v)
        if value == 1:
            for w in self.adjacency[v]:
                if assign[w] == 1:
                    return False
                if assign[w] == -1:
                    assign[w] = 0
                    trail.append(w)
        return True

    def _examine(self, group: Sequence[int], trail: list[int]) -> bool:
        assign = self.assign
        ones = 0
        free = []
        for v in group:
            if assign[v] == 1:
                ones += 1
            elif assign[v] == -1:
                free.append(v)
        if ones > 1:
            return False
        if ones == 1:
            for v in free:
                assign[v] = 0
            trail.extend(free)
            return True
        if len(free) == 1:
            return self._set(free[0], 1, trail)
        return bool(free)

    def _propagate(self, trail: list[int], everything: bool) -> bool:
        if everything and not all(self._examine(g, trail) for g in self.groups):
            return False
        # The trail doubles as the queue: a vertex appended while it is being
        # walked has its groups examined in turn.
        for v in trail:
            for gi in self.watch[v]:
                if not self._examine(self.groups[gi], trail):
                    return False
        return True

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        if self.seed:
            trail: list[int] = []
            for v, value in self.seed.items():
                if not self._set(v, value, trail):
                    return
            if not self._propagate(trail, everything=True):
                return
        assign, order = self.assign, self.order
        # Depth-first with an explicit stack, so the depth is not bounded by
        # the interpreter's recursion limit.  A frame is one decision: its
        # position in ``order``, the next value to try (1, 0, then -1 for
        # none left), and the trail of the value now being explored.
        stack: list[list] = []
        pos = 0
        while True:
            self.nodes += 1
            if self.nodes > self.budget:
                raise SearchBudgetExceeded(self.nodes, self.budget)
            while pos < len(order) and assign[order[pos]] != -1:
                pos += 1
            if pos == len(order):
                yield tuple(assign)
            else:
                stack.append([pos, 1, []])
            while stack:
                frame = stack[-1]
                for w in frame[2]:
                    assign[w] = -1
                value = frame[1]
                if value < 0:
                    stack.pop()
                    continue
                frame[1] = value - 1
                trail = frame[2] = []
                root = len(stack) == 1
                if self._set(order[frame[0]], value, trail) and self._propagate(
                    trail, everything=root
                ):
                    pos = frame[0] + 1
                    break
            else:
                return


class ProductListing(Sequence):
    """The 0-1 states of ``graph`` as ``masks``, their ascending masks on
    ``graph``.  A state is built when it is read, a slice is a list of
    states, and the listing equals the list of its states.  ``analyze``
    trusts the masks only of a listing on the very graph object.

    A listing of ``factors``, one ascending mask listing per component, has
    their product's length, and builds its ``masks``, the sorted sums of one
    mask per factor, on the first read of a state or of the masks; it keeps
    them.  Given ``masks`` are held as they are."""

    __slots__ = ("graph", "_masks", "_factors")

    def __init__(self, graph: ExclusivityGraph, masks: Sequence[int] | None = None, factors=()):
        self.graph = graph
        self._masks = masks
        self._factors = factors

    @property
    def masks(self) -> Sequence[int]:
        if self._masks is None:
            masks = [0]
            for listing in self._factors:
                masks = [mask + factor for mask in masks for factor in listing]
            masks.sort()
            self._masks = masks
        return self._masks

    def __len__(self) -> int:
        return prod(map(len, self._factors)) if self._masks is None else len(self._masks)

    def __getitem__(self, i):
        # _validated=True, passed by position, which is cheaper per call than a keyword.
        if isinstance(i, slice):
            return [ZeroOneState(self.graph, mask, True) for mask in self.masks[i]]
        return ZeroOneState(self.graph, self.masks[i], True)

    def __iter__(self) -> Iterator[ZeroOneState]:
        return (ZeroOneState(self.graph, mask, True) for mask in self.masks)

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, ProductListing)) else NotImplemented


def enumerate_zero_one_states(
    graph: ExclusivityGraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> ProductListing:
    """All 0-1 states, sorted by mask, so by the value tuple in vertex order.

    An empty result is meaningful: it is the defining property of a
    Kochen-Specker scenario.  A connected graph lists its one component's
    masks.  Otherwise the states are the products of one state per component
    (``component_listings``), whose mask is the sum of the factors'; listing
    them costs one search node per product state beyond the component nodes,
    charged here, before any mask exists, whether or not a state is ever
    read.  The listing holds the component listings and builds the product
    masks when they are read.  The factors are checked states, so
    ``_check_components``, run once per graph object, proves every product
    valid at once.
    """
    listings, spent = component_listings(graph, budget)
    if len(listings) == 1:
        return ProductListing(graph, listings[0])
    if not all(listings):
        return ProductListing(graph, [])
    total = spent + prod(map(len, listings))
    if total > budget:
        raise SearchBudgetExceeded(total, budget)
    if not graph._products_checked:
        _check_components(graph)
        graph._products_checked = True
    return ProductListing(graph, factors=listings)


def _check_components(graph: ExclusivityGraph) -> None:
    """Raise ``NotAGraphState`` unless the components' vertex masks partition
    the graph's and their clique masks are exactly the graph's.  Then each
    clique lies in one component and meets only that factor's bits, so a sum
    of one 0-1 state per component is a 0-1 state of the graph."""
    parts = graph.components
    covered = 0
    for part in parts:
        if part._mask & covered:
            raise NotAGraphState("components share a vertex")
        covered |= part._mask
    cliques = sorted(bits for part in parts for bits in part._clique_masks)
    if covered != graph._mask or cliques != sorted(graph._clique_masks):
        raise NotAGraphState("the components' cliques are not the graph's")


def component_listings(
    graph: ExclusivityGraph, budget: int = DEFAULT_SEARCH_BUDGET
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The ascending 0-1 masks of each of ``graph.components``, on the
    graph's bits, and the search nodes they took against one ``budget``.
    The 0-1 states of the graph are the products of one state per
    component, so their number is the product of the listing lengths.

    The result is kept on the graph object (not on an equal graph, whose
    bits may differ) and served to any budget as large.  A smaller budget
    searches again, so it fails as on a fresh graph, and the kept listings
    outlive the failure.
    """
    if graph._listings is None or budget < graph._listings[1]:
        listings, spent = [], 0
        for component in graph.components:
            masks, nodes = _search_zero_one(component, budget, spent)
            listings.append(masks)
            spent += nodes
        graph._listings = tuple(listings), spent
    return graph._listings


def _search_zero_one(
    graph: ExclusivityGraph, budget: int, spent: int
) -> tuple[tuple[int, ...], int]:
    """The ascending masks of the 0-1 states of the connected ``graph``, each
    checked by ``_check_zero_one``, and the search nodes entered, with
    ``spent`` nodes of ``budget`` already used by earlier searches.
    Variables are decided by descending degree; every node visits both
    values, so the node count does not depend on which value comes first."""
    verts = graph.vertices
    n = len(verts)
    if n == 0:
        return (), 0
    index = graph._index
    cliques = [tuple(index[v] for v in c) for c in graph.maximal_cliques()]
    adj = [sorted(index[w] for w in graph._adj[v]) for v in verts]
    order = sorted(range(n), key=lambda i: (-len(adj[i]), verts[i]))
    search = ZeroOneSearch(n, adj, cliques, order, budget - spent)
    bits = tuple(graph._bit.values())
    try:
        masks = sorted(sum(b for b, x in zip(bits, found) if x) for found in search)
    except SearchBudgetExceeded as exc:
        raise SearchBudgetExceeded(spent + exc.nodes, budget) from None
    for mask in masks:
        _check_zero_one(graph, mask)
    return tuple(masks), search.nodes
