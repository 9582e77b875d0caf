"""Classicality and contextuality verdicts with self-verifying certificates.

A state is noncontextual exactly when it is a convex mixture of the scenario's
0-1 states.  One exact LP decides it: its solution is the weights, and when
it has none, the Farkas ray of its phase 1 is a separating inequality.  Both
are carried on integers, over the target's denominator, up to the report.
A scenario is classical exactly when distinct elements are separated by 0-1
states, i.e. the canonical map into subsets of deterministic assignments is
injective.

Both verdicts are decided per connected component of the atom graph.  The
0-1 states of the graph are the products of one 0-1 state per component, so
the hull of them is the product of the components' hulls, and the product
listing is never built here: its count is the product of the component
counts.  Only the graph's own ``ProductListing``, when a caller passes it,
has its masks read, once per listing object, to key NONCONTEXTUAL weights.
A connected graph is its own only component.  Each component's 0-1 states
are its ascending masks from ``graphs.component_listings``, searched once
per graph object, and every step reads those masks; a ``ZeroOneState`` is
built only to convert a listing that a caller passed in.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .errors import (
    CertificateError,
    IncompleteListing,
    MissingAtom,
    NotAGraphState,
    Record,
    set_field,
)
from .graphs import (
    DEFAULT_SEARCH_BUDGET,
    ExclusivityGraph,
    PBAState,
    ProductListing,
    ZeroOneState,
    component_listings,
    enumerate_zero_one_states,
)
from .linalg import EXACT, FLOAT
from .simplex import OPTIMAL, feasible_point
from .systems import QuantumSystem

RATIONALIZE_MAX_DENOMINATOR = 10**12

CLASSICAL = "CLASSICAL"
NONCLASSICAL_SCENARIO_ONLY = "NONCLASSICAL_SCENARIO_ONLY"
CONTEXTUAL = "CONTEXTUAL"
NONCONTEXTUAL = "NONCONTEXTUAL"


# -- clique equality reduction --------------------------------------------------


class EqualityReduction(Record):
    """RREF of the clique normalization equalities over the atom coordinates.

    Pivot columns are chosen from the back of the atom order, so the free
    coordinates concentrate on the first atoms (the generator side).  Each row
    reads: value(pivot) = const - sum coeff * value(free atom).
    """

    __slots__ = ("graph", "pivots", "free", "rows")

    def __init__(
        self,
        graph: ExclusivityGraph,
        pivots: tuple[str, ...],
        free: tuple[str, ...],
        rows: tuple[tuple[str, tuple[tuple[str, Fraction], ...], Fraction], ...],
    ):
        set_field(self, "graph", graph)
        set_field(self, "pivots", pivots)
        set_field(self, "free", free)
        set_field(self, "rows", rows)


def clique_reduction(graph: ExclusivityGraph) -> EqualityReduction:
    return EqualityReduction(graph, *_eliminate(graph.vertices, graph.maximal_cliques()))


@lru_cache(maxsize=64)
def _eliminate(verts: tuple[str, ...], cliques: tuple[tuple[str, ...], ...]):
    """Pivots, free coordinates and rows of the reduction, computed once per
    vertex order and clique set.  The order is part of the key because
    ``free`` depends on it, while ``ExclusivityGraph`` equality ignores it;
    the maximal cliques determine the edges."""
    cols = list(reversed(verts))
    col_pos = {v: i for i, v in enumerate(cols)}
    width = len(cols) + 1
    matrix: list[list[Fraction]] = []
    for clique in cliques:
        row = [Fraction(0)] * width
        for v in clique:
            row[col_pos[v]] = Fraction(1)
        row[-1] = Fraction(1)
        matrix.append(row)

    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(len(cols)):
        pivot_row = next((i for i in range(r, len(matrix)) if matrix[i][c] != 0), None)
        if pivot_row is None:
            continue
        matrix[r], matrix[pivot_row] = matrix[pivot_row], matrix[r]
        piv = matrix[r][c]
        matrix[r] = [v / piv for v in matrix[r]]
        for i in range(len(matrix)):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [v - f * p for v, p in zip(matrix[i], matrix[r])]
        pivots.append((r, c))
        r += 1
    for i in range(r, len(matrix)):
        if matrix[i][-1] != 0:
            raise NotAGraphState("clique equalities are inconsistent; no state exists")

    pivot_cols = {c for _, c in pivots}
    free = tuple(v for v in verts if col_pos[v] not in pivot_cols)
    rows = []
    for row_i, c in pivots:
        coeffs = tuple(
            (cols[j], matrix[row_i][j])
            for j in range(len(cols))
            if j != c and matrix[row_i][j] != 0
        )
        rows.append((cols[c], coeffs, matrix[row_i][-1]))
    return tuple(cols[c] for _, c in pivots), free, tuple(rows)


@lru_cache(maxsize=64)
def _integer_rows(verts: tuple[str, ...], cliques: tuple[tuple[str, ...], ...]):
    """``_eliminate``'s free coordinates, and its rows times one integer s:
    s * value(pivot) = const - sum coeff * value(free atom), all ints."""
    _, free, rows = _eliminate(verts, cliques)
    s = lcm(*(x.denominator for _, coeffs, const in rows for x in (const, *dict(coeffs).values())))
    ints = tuple((v, tuple((u, int(c * s)) for u, c in coeffs), int(const * s)) for v, coeffs, const in rows)
    return free, s, ints


def rationalize_state(p: PBAState) -> dict[str, Fraction]:
    """The exact atom values that certificates are checked against, one per
    vertex of ``p.graph``: an exact state's own values.  A float state's free
    coordinates are rationalized by continued fractions and its dependent
    ones solved exactly from the clique equalities, so every maximal clique
    sums to 1 exactly; they may stray outside [0, 1] by the rationalization
    error, and the LP decides honestly either way."""
    if p.backend == EXACT:
        return dict(zip(p.graph.vertices, _exact_values(p)))
    t, q = _target(p)
    return {v: Fraction(n, q) for v, n in t.items()}


def _exact_values(p: PBAState) -> list[Fraction]:
    """An exact state's values in vertex order, as ``Fraction``s; a value
    that is one already is kept as it is."""
    return [x if type(x) is Fraction else Fraction(x) for x in p.as_tuple()]


def _target(p: PBAState) -> tuple[dict[str, int], int]:
    """``rationalize_state(p)`` as integer numerators t over one Q: the lcm
    of an exact state's denominators, or of a float state's rounded free
    atoms times the scale of the integer rows that give the others."""
    if p.backend == EXACT:
        values = _exact_values(p)
        q = lcm(*(x.denominator for x in values))
        return {v: x.numerator * (q // x.denominator) for v, x in zip(p.graph.vertices, values)}, q
    graph = p.graph
    free, scale, rows = _integer_rows(graph.vertices, graph.maximal_cliques())
    rounded = [_limit_denominator(float(p.value(v)), RATIONALIZE_MAX_DENOMINATOR) for v in free]
    q = lcm(*(x.denominator for x in rounded))
    t = {v: x.numerator * (q // x.denominator) for v, x in zip(free, rounded)}
    for pivot, coeffs, const in rows:
        t[pivot] = const * q - sum(c * t[v] for v, c in coeffs)
    for v in free:
        t[v] *= scale
    return t, q * scale


def _limit_denominator(x: float, bound: int) -> Fraction:
    """``Fraction(x).limit_denominator(bound)`` on the integers of
    ``x.as_integer_ratio()``: the closest fraction to x with denominator at
    most ``bound``, found among the last convergent of x's continued fraction
    within the bound and the best semiconvergent after it.  A tie goes to
    the convergent, as in ``limit_denominator``; distances are compared by
    cross-multiplication."""
    n, d = x.as_integer_ratio()
    if d <= bound:
        return Fraction(n, d)
    p0, q0, p1, q1 = 0, 1, 1, 0
    u, v = n, d
    while True:
        a = u // v
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        u, v = v, u - a * v
    k = (bound - q0) // q1
    p2, q2 = p0 + k * p1, q0 + k * q1
    # |p/q - n/d| = |p*d - n*q| / (q*d), and d is common to both.
    if abs(p1 * d - n * q1) * q2 <= abs(p2 * d - n * q2) * q1:
        return Fraction(p1, q1)
    return Fraction(p2, q2)


# -- certificates ---------------------------------------------------------------


class SeparatingInequality(Record):
    """Integer inequality sum coeff*p(atom) <= bound valid on every 0-1 state."""

    __slots__ = ("atom_order", "coeffs", "bound")

    def __init__(self, atom_order: tuple[str, ...], coeffs: Mapping[str, int], bound: int):
        set_field(self, "atom_order", atom_order)
        set_field(self, "coeffs", coeffs)
        set_field(self, "bound", bound)

    def __str__(self) -> str:
        terms = []
        for v in self.atom_order:
            c = self.coeffs.get(v, 0)
            if c == 0:
                continue
            if c == 1:
                terms.append(f"p({v})")
            elif c == -1:
                terms.append(f"-p({v})")
            else:
                terms.append(f"{c}*p({v})")
        lhs = " + ".join(terms).replace("+ -", "- ") if terms else "0"
        return f"{lhs} <= {self.bound}"


class NCCertificate(Record):
    """Either convex weights over 0-1 states or a separating inequality."""

    __slots__ = ("verdict", "weights", "inequality", "empty_s01", "violation")

    def __init__(
        self,
        verdict: str,
        weights: Mapping[int, Fraction] | None = None,
        inequality: SeparatingInequality | None = None,
        empty_s01: bool = False,
        violation: Fraction | None = None,
    ):
        set_field(self, "verdict", verdict)
        set_field(self, "weights", weights)
        set_field(self, "inequality", inequality)
        set_field(self, "empty_s01", empty_s01)
        set_field(self, "violation", violation)
        if verdict == NONCONTEXTUAL and weights is None:
            raise CertificateError("noncontextual verdict without weights")
        if verdict == CONTEXTUAL and inequality is None and not empty_s01:
            raise CertificateError("contextual verdict without inequality")


class EmbeddingReport(Record):
    """Injectivity of the map from elements to their supporting 0-1 states."""

    __slots__ = ("embeddable", "witness", "reason", "s01_count")

    def __init__(
        self,
        embeddable: bool,
        witness: tuple[str, str] | None = None,
        reason: str | None = None,
        s01_count: int = 0,
    ):
        set_field(self, "embeddable", embeddable)
        set_field(self, "witness", witness)
        set_field(self, "reason", reason)
        set_field(self, "s01_count", s01_count)


class Classification(Record):
    __slots__ = ("embedding", "certificate")

    def __init__(self, embedding: EmbeddingReport, certificate: NCCertificate):
        set_field(self, "embedding", embedding)
        set_field(self, "certificate", certificate)

    @property
    def scenario_classical(self) -> bool:
        return self.embedding.embeddable

    @property
    def state_noncontextual(self) -> bool:
        return self.certificate.verdict == NONCONTEXTUAL

    @property
    def label(self) -> str:
        if not self.state_noncontextual:
            return CONTEXTUAL
        return CLASSICAL if self.scenario_classical else NONCLASSICAL_SCENARIO_ONLY


# -- zero-one states and embeddability ------------------------------------------


def zero_one_states(system: QuantumSystem, budget: int = DEFAULT_SEARCH_BUDGET) -> ProductListing:
    """Deterministic states of the system, computed on its atom graph."""
    return enumerate_zero_one_states(system.atom_graph(), budget)


def _listings(
    graph: ExclusivityGraph,
    s01: Sequence[ZeroOneState] | None,
    budget: int,
) -> tuple[tuple[Sequence[int], ...], ProductListing | list[int] | None]:
    """The 0-1 masks of each of ``graph.components``, and the masks in whose
    order a product of one state per listing has its position: those of
    ``s01`` on ``graph``, or None when that position is ``_product_index``.

    A given ``s01`` is converted state by state to ``graph``'s bits and, on
    a connected graph, is the listing: any subset in any order.  Otherwise
    the components' masks are ``component_listings`` within ``budget``, and
    a given ``s01`` must hold the product of the component counts in
    distinct states.  A ``ProductListing`` on ``graph`` itself is checked
    only for its length, which reads no mask, and is returned as it is: its
    masks ascend, and ``_certify`` reads them only to key weights.
    """
    trusted = isinstance(s01, ProductListing) and s01.graph is graph
    if s01 is not None and not trusted:
        if any(lam.graph is not graph and lam.graph != graph for lam in s01):
            raise NotAGraphState("0-1 state defined on a different graph")
        s01 = [
            lam.mask if lam.graph is graph else ZeroOneState.from_ones(graph, lam.ones).mask
            for lam in s01
        ]
        if len(graph.components) == 1:
            return (s01,), None
    listings = component_listings(graph, budget)[0]
    if s01 is None:
        return listings, None
    count = prod(map(len, listings))
    distinct = len(s01) if trusted else len(set(s01))
    if len(s01) != count or distinct != count:
        raise IncompleteListing(
            f"{len(s01)} listed 0-1 states ({distinct} distinct); the graph has {count}"
        )
    return listings, s01


def scenario_classical(
    system: QuantumSystem, s01: Sequence[ZeroOneState] | None = None
) -> EmbeddingReport:
    """Decide Boolean embeddability by separating elements with 0-1 states."""
    return _embedding(system, _listings(system.atom_graph(), s01, DEFAULT_SEARCH_BUDGET)[0])


_embeddings: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _embedding(system: QuantumSystem, listings: Sequence[Sequence[int]]) -> EmbeddingReport:
    """The report of ``_separate``, kept in ``_embeddings`` per system object,
    weakly, with the masks of the listings it was asked about last.  It
    depends on nothing else: the decomposition table, the names and the
    masks' bit order are those of the system's naming, fixed once the object
    is built; a renamed copy is another object."""
    key = tuple(map(tuple, listings))
    memo = _embeddings.get(system)
    if memo is None or memo[0] != key:
        memo = _embeddings[system] = (key, _separate(system, listings))
    return memo[1]


def _separate(system: QuantumSystem, listings: Sequence[Sequence[int]]) -> EmbeddingReport:
    """Separate elements with the 0-1 masks of each component.

    An element's value on a 0-1 state is the number of its decomposition
    atoms the state sets to 1: the bit count of the meet of the two masks.  A
    decomposition is a set of pairwise orthogonal, hence adjacent, atoms, so
    it lies in one component and the element's values are read on that
    component's states.  The component and the mask of each element depend
    on the system alone, so they are read from its table
    (``QuantumSystem.decomposition_masks``), built once per naming.
    Elements of two components agree on every product state only if both are
    constant, so a constant value is one group across components, and any
    other fingerprint a group within its component.
    """
    count = prod(map(len, listings))
    if not count:
        return EmbeddingReport(
            embeddable=False,
            witness=("0", "1"),
            reason="no deterministic state exists, so 0 and 1 get the same image",
            s01_count=0,
        )
    groups: dict[object, list[int]] = {}
    for i, (c, mask) in enumerate(system.decomposition_masks()):
        fp = tuple((mask & state).bit_count() for state in listings[c])
        groups.setdefault(fp[0] if min(fp) == max(fp) else (c, fp), []).append(i)
    collided = [g for g in groups.values() if len(g) > 1]
    if not collided:
        return EmbeddingReport(embeddable=True, s01_count=count)
    chosen = next(
        (g for g in collided if system.identity_index in g),
        min(collided, key=lambda g: min(g)),
    )
    lo, hi = min(chosen), max(chosen)
    return EmbeddingReport(
        embeddable=False,
        witness=(system.element_name(lo), system.element_name(hi)),
        reason="distinct elements agree on every deterministic state",
        s01_count=count,
    )


# -- the membership LP --------------------------------------------------------


def _membership_lp(
    graph: ExclusivityGraph,
    masks: Sequence[int],
    free: Sequence[str],
    t: Mapping[str, int],
    q: int,
) -> tuple[tuple[dict[int, int], int] | None, dict[str, int] | None]:
    """Weights w >= 0 with sum 1 whose mixture of the 0-1 states ``masks``
    of ``graph`` meets the
    target t / q on the free coordinates, as integer numerators over their
    denominator D * q, and None; or, when no such weights exist, None and the
    integer Farkas ray y of phase 1 over the free coordinates.

    The rows are (free atoms, 1) with rhs (t, q), so y.A <= 0 < y.b reads:
    sum y_v lam(v) <= -y_1 on every state, while sum y_v t(v) / q > -y_1.
    The ray is a separating inequality.
    """
    a = [[1 if mask & graph._bit[v] else 0 for mask in masks] for v in free]
    a.append([1] * len(masks))
    b = [t[v] for v in free]
    b.append(q)
    res = feasible_point(a, b)
    if res.status == OPTIMAL:
        return ({k: w for k, w in enumerate(res.x) if w}, res.den * q), None
    return None, dict(zip(free, res.farkas))


def _primitive_inequality(
    graph: ExclusivityGraph, masks: Sequence[int], y: Mapping[str, int]
) -> SeparatingInequality:
    """Tighten the integer ray y to the maximum over the 0-1 states
    ``masks`` of ``graph``, and divide by the gcd; the atom order is the
    graph's.

    Each state's value is an integer sum over its ones: for each
    coefficient, the coefficient times the bit count of the state's mask on
    the atoms that carry it.
    """
    ints = {v: y.get(v, 0) for v in graph.vertices}
    by_coeff: dict[int, int] = {}
    for v, c in ints.items():
        if c:
            by_coeff[c] = by_coeff.get(c, 0) | graph._bit[v]
    bound = max(sum(c * (mask & m).bit_count() for c, m in by_coeff.items()) for mask in masks)
    g = gcd(*ints.values()) or 1  # the bound is a sum of coefficients, so g divides it too
    return SeparatingInequality(
        atom_order=graph.vertices,
        coeffs={v: c // g for v, c in ints.items()},
        bound=bound // g,
    )


def is_noncontextual(
    p: PBAState, s01: Sequence[ZeroOneState] | None = None
) -> NCCertificate:
    """Decide membership of p in the convex hull of the 0-1 states.

    Float states are rationalized first so the LP is exact.  One membership
    LP runs per component: its weights are coupled into the NONCONTEXTUAL
    weights, and the Farkas ray of the first infeasible one is the CONTEXTUAL
    inequality.  Both certificate kinds are re-verified against the original
    values before returning.
    Without ``s01`` each component's 0-1 states are searched.  A listing
    given for a connected graph is used as it is; on a graph of several
    components it must be complete, or ``IncompleteListing`` is raised.  The
    NONCONTEXTUAL weights are keyed by position in ``s01``, or without it in
    the sorted listing of ``zero_one_states``.
    """
    graph = p.graph
    return _certify(p, graph, *_listings(graph, s01, DEFAULT_SEARCH_BUDGET))


def _certify(
    p: PBAState,
    graph: ExclusivityGraph,
    listings: Sequence[Sequence[int]],
    s01: ProductListing | list[int] | None,
) -> NCCertificate:
    """The membership LP on each component in turn; its weights, coupled into
    weights over the graph's 0-1 states, or the first component's Farkas ray.

    A CONTEXTUAL certificate is the inequality of that ray, with coefficient
    0 on every other atom: an inequality valid on one component's states is
    valid on their products.  A NONCONTEXTUAL certificate's weights are
    keyed by the position in ``s01`` of the state's mask, the sum of its
    factors' masks: found by bisection in a ``ProductListing``'s masks, and
    confirmed there, or in a list of masks by lookup, or without ``s01`` by
    ``_product_index``.
    """
    if not all(listings):
        # The hull is empty: no hidden-variable model exists, and no honest
        # inequality can witness that, so the certificate says so explicitly.
        return NCCertificate(verdict=CONTEXTUAL, empty_s01=True)

    t, q = _target(p)
    marginals = []
    for part, masks in zip(graph.components, listings):
        weights, ray = _membership_lp(graph, masks, clique_reduction(part).free, t, q)
        if ray is not None:
            ineq = _primitive_inequality(graph, masks, ray)
            violation = _verify_contextual(graph, masks, ineq, t, q, p)
            return NCCertificate(verdict=CONTEXTUAL, inequality=ineq, violation=violation)
        marginals.append(weights)

    coupling, den = _north_west_corner(marginals)
    mixture = [(w, sum(masks[k] for masks, k in zip(listings, choice))) for choice, w in coupling]
    _verify_noncontextual(graph, mixture, den, t, q, p)
    if s01 is None:
        keys = [_product_index(graph, listings, choice) for choice, _ in coupling]
    elif isinstance(s01, ProductListing):
        masks = s01.masks
        keys = [bisect_left(masks, mask) for _, mask in mixture]
        if [masks[k] for k in keys if k < len(masks)] != [mask for _, mask in mixture]:
            raise IncompleteListing("a 0-1 state is missing from the sorted masks")
    else:
        position = {mask: i for i, mask in enumerate(s01)}
        keys = [position[mask] for _, mask in mixture]
    weights = dict(sorted(zip(keys, (Fraction(w, den) for w, _ in mixture))))
    return NCCertificate(verdict=NONCONTEXTUAL, weights=weights, violation=Fraction(0))


def _north_west_corner(
    marginals: Sequence[tuple[Mapping[int, int], int]],
) -> tuple[list[tuple[tuple[int, ...], int]], int]:
    """Couple probability vectors, integer numerators over a denominator
    each, by the north-west-corner rule, over the lcm of the denominators.

    Walk each vector's support in key order; give the tuple of current keys
    the least weight any of them has left, and step past every key whose
    weight is used up.  Each step uses up a key, and the last step all m of
    them, so the coupling has at most sum |supp_i| - (m - 1) entries, and
    its marginals are the vectors.  One vector is its own coupling.
    """
    if len(marginals) == 1:
        return [((k,), w) for k, w in marginals[0][0].items()], marginals[0][1]
    den = lcm(*(d for _, d in marginals))
    supports = [[(k, w * (den // d)) for k, w in m.items()] for m, d in marginals]
    pos = [0] * len(supports)
    left = [support[0][1] for support in supports]
    out = []
    while all(k < len(support) for k, support in zip(pos, supports)):
        step = min(left)
        out.append((tuple(support[k][0] for k, support in zip(pos, supports)), step))
        for c, support in enumerate(supports):
            left[c] -= step
            if left[c] == 0:
                pos[c] += 1
                if pos[c] < len(support):
                    left[c] = support[pos[c]][1]
    return out, den


def _product_index(
    graph: ExclusivityGraph,
    listings: Sequence[Sequence[int]],
    choice: Sequence[int],
) -> int:
    """The index of the sum of the masks ``listing[k] for k in choice`` in the
    sorted 0-1 listing of ``graph`` (``zero_one_states``), without building
    that listing.  A connected graph's state keeps its index in its listing.

    The listing is sorted by the value tuple in vertex order, so the states
    before this one are those that first differ from it at a vertex t where
    they read 0 and it reads 1.  For each such t they number the states of
    t's component that agree with it before t and read 0 at t, times the
    states of each other component that agree with it before t.
    """
    if len(listings) == 1:
        return choice[0]
    component = {v: c for c, part in enumerate(graph.components) for v in part.vertices}
    chosen = [listing[k] for listing, k in zip(listings, choice)]
    alive = list(listings)
    total = prod(map(len, alive))
    index = 0
    for v in graph.vertices:
        c = component[v]
        bit = graph.mask((v,))
        one = chosen[c] & bit
        agree = [mask for mask in alive[c] if (mask & bit) == one]
        rest = total // len(alive[c])
        if one:
            index += (len(alive[c]) - len(agree)) * rest
        total = rest * len(agree)
        alive[c] = agree
    return index


def _verify_contextual(
    graph: ExclusivityGraph,
    masks: Sequence[int],
    ineq: SeparatingInequality,
    t: Mapping[str, int],
    q: int,
    original: PBAState,
) -> Fraction:
    """Check that ``ineq`` holds on every 0-1 state ``masks`` of ``graph``
    and fails on the rationalized target t / q and on a float ``original``,
    and return its exact violation on the target.  Each state's value is
    summed term by term over the graph's bits, apart from the grouped bit
    counts that computed the bound."""
    terms = [(graph._bit[v], c) for v, c in ineq.coeffs.items() if c]
    for mask in masks:
        if sum(c for bit, c in terms if mask & bit) > ineq.bound:
            raise CertificateError("inequality fails on a 0-1 state")
    excess = sum(c * t[v] for v, c in ineq.coeffs.items() if c) - ineq.bound * q
    if excess <= 0:
        raise CertificateError("inequality does not separate the rationalized state")
    if original.backend == FLOAT:
        float_lhs = sum(
            c * float(original.value(v)) for v, c in ineq.coeffs.items() if c != 0
        )
        if float_lhs <= ineq.bound:
            raise CertificateError("inequality does not separate the original state")
    return Fraction(excess, q)


def _verify_noncontextual(
    graph: ExclusivityGraph,
    mixture: Sequence[tuple[int, int]],
    den: int,
    t: Mapping[str, int],
    q: int,
    original: PBAState,
) -> None:
    """Check that the mixture, pairs of a weight's integer numerator over
    ``den`` and the mask of a 0-1 state of ``graph``, is a probability
    vector whose mixture reproduces the rationalized target t / q on every
    atom of the graph.  An atom's mixture is an int ``mix`` over ``den``, and
    ``mix / den``, an int true division, is its correctly rounded float."""
    if sum(n for n, _ in mixture) != den or any(n < 0 for n, _ in mixture):
        raise CertificateError("weights are not a probability vector")
    for v in graph.vertices:
        bit = graph._bit[v]
        mix = sum(n for n, mask in mixture if mask & bit)
        if mix * q != t[v] * den:
            raise CertificateError(f"weights fail to reproduce the state at {v!r}")
        if original.backend == FLOAT:
            if abs(mix / den - float(original.value(v))) > 10 * original.tol:
                raise CertificateError(
                    f"weights drift from the original float value at {v!r}"
                )


# -- headline quantities -----------------------------------------------------


def kcbs_value(p: PBAState, atoms: Sequence[str] = ("P0", "P1", "P2", "P3", "P4")):
    """Sum of the pentagon atom probabilities; at most 2 for noncontextual states."""
    missing = [a for a in atoms if a not in p.values]
    if missing:
        raise MissingAtom(f"state lacks atoms {missing}")
    return sum(p.value(a) for a in atoms)


def classify_experiment(
    system: QuantumSystem,
    p: PBAState,
    s01: Sequence[ZeroOneState] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Classification:
    """Combine the scenario verdict and the state verdict into one label.

    Both read the same component listings (``_listings``); the number of 0-1
    states is ``embedding.s01_count``."""
    graph = system.atom_graph()
    if p.graph is not graph and p.graph != graph:
        raise NotAGraphState("state is defined on a different atom graph")
    listings, s01 = _listings(graph, s01, budget)
    return Classification(_embedding(system, listings), _certify(p, graph, listings, s01))
