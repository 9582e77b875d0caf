"""The certificate LP of the state verdict, which ``analyze`` loads on the
first verdict whose every component has a 0-1 state.

One exact LP per component decides membership in the hull of its 0-1 states:
its solution is the weights, and when it has none, the Farkas ray of its
phase 1 is a separating inequality.  Both are carried on integers, over the
denominator Q of the target t / Q (``_target``), up to the report, and both
are re-verified by substitution before they are returned.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Mapping, Sequence

from .analyze import CONTEXTUAL, NONCONTEXTUAL, NCCertificate, SeparatingInequality
from .errors import CertificateError, IncompleteListing, NotAGraphState, Record, set_field
from .graphs import ExclusivityGraph, PBAState, ProductListing
from .linalg import EXACT, FLOAT
from .simplex import OPTIMAL, feasible_point

RATIONALIZE_MAX_DENOMINATOR = 10**12


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


def certify(
    p: PBAState,
    graph: ExclusivityGraph,
    listings: Sequence[Sequence[int]],
    s01: ProductListing | list[int] | None,
) -> NCCertificate:
    """The membership LP on each component in turn, given a nonempty 0-1
    listing of each; its weights, coupled into weights over the graph's 0-1
    states, or the first component's Farkas ray.

    A CONTEXTUAL certificate is the inequality of that ray, with coefficient
    0 on every other atom: an inequality valid on one component's states is
    valid on their products.  A NONCONTEXTUAL certificate's weights are
    keyed by the position in ``s01`` of the state's mask, the sum of its
    factors' masks: found by bisection in a ``ProductListing``'s masks, and
    confirmed there, or in a list of masks by lookup, or without ``s01`` by
    ``_product_index``.
    """
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
