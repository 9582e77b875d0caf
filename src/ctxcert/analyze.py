"""Classicality and contextuality verdicts with self-verifying certificates.

A state is noncontextual exactly when it is a convex mixture of the scenario's
0-1 states; membership and separation are both decided by exact rational LPs.
A scenario is classical exactly when distinct elements are separated by 0-1
states, i.e. the canonical map into subsets of deterministic assignments is
injective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence

from .errors import CertificateError, MissingAtom, NotAGraphState
from .graphs import (
    DEFAULT_SEARCH_BUDGET,
    ExclusivityGraph,
    PBAState,
    ZeroOneState,
    enumerate_zero_one_states,
)
from .linalg import EXACT, FLOAT
from .simplex import OPTIMAL, solve_standard
from .systems import QuantumSystem

RATIONALIZE_MAX_DENOMINATOR = 10**12

CLASSICAL = "CLASSICAL"
NONCLASSICAL_SCENARIO_ONLY = "NONCLASSICAL_SCENARIO_ONLY"
CONTEXTUAL = "CONTEXTUAL"
NONCONTEXTUAL = "NONCONTEXTUAL"


# -- clique equality reduction --------------------------------------------------


@dataclass(frozen=True)
class EqualityReduction:
    """RREF of the clique normalization equalities over the atom coordinates.

    Pivot columns are chosen from the back of the atom order, so the free
    coordinates concentrate on the first atoms (the generator side).  Each row
    reads: value(pivot) = const - sum coeff * value(free atom).
    """

    graph: ExclusivityGraph
    pivots: tuple[str, ...]
    free: tuple[str, ...]
    rows: tuple[tuple[str, tuple[tuple[str, Fraction], ...], Fraction], ...]

    def solve_pivots(self, free_values: Mapping[str, Fraction]) -> dict[str, Fraction]:
        out = dict(free_values)
        for pivot, coeffs, const in self.rows:
            out[pivot] = const - sum(c * out[v] for v, c in coeffs)
        return out


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


def rationalize_state(p: PBAState) -> PBAState:
    """Exact-rational stand-in for a float state.

    Free coordinates are rationalized by continued fractions; dependent
    coordinates are then solved exactly from the clique equalities, so the
    result is a genuine graph state rather than an almost-state.
    """
    if p.backend == EXACT:
        values = {v: Fraction(p.value(v)) for v in p.graph.vertices}
        return PBAState(p.graph, values, backend=EXACT)
    red = clique_reduction(p.graph)
    free_vals = {
        v: Fraction(float(p.value(v))).limit_denominator(RATIONALIZE_MAX_DENOMINATOR)
        for v in red.free
    }
    values = red.solve_pivots(free_vals)
    # Dependent coordinates may pick up boundary noise of the order of the
    # rationalization error; the LP decides honestly either way.
    return PBAState(p.graph, values, backend=EXACT, range_checked=False)


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class SeparatingInequality:
    """Integer inequality sum coeff*p(atom) <= bound valid on every 0-1 state."""

    atom_order: tuple[str, ...]
    coeffs: Mapping[str, int]
    bound: int

    def coefficient_vector(self) -> tuple[int, ...]:
        return tuple(self.coeffs.get(v, 0) for v in self.atom_order)

    def evaluate(self, values: Mapping[str, object]):
        return sum(c * values[v] for v, c in self.coeffs.items() if c != 0)

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


@dataclass(frozen=True)
class NCCertificate:
    """Either convex weights over 0-1 states or a separating inequality."""

    verdict: str
    weights: Mapping[int, Fraction] | None = None
    inequality: SeparatingInequality | None = None
    empty_s01: bool = False
    violation: Fraction | None = None

    def __post_init__(self):
        if self.verdict == NONCONTEXTUAL and self.weights is None:
            raise CertificateError("noncontextual verdict without weights")
        if self.verdict == CONTEXTUAL and self.inequality is None and not self.empty_s01:
            raise CertificateError("contextual verdict without inequality")


@dataclass(frozen=True)
class EmbeddingReport:
    """Injectivity of the map from elements to their supporting 0-1 states."""

    embeddable: bool
    witness: tuple[str, str] | None = None
    reason: str | None = None
    s01_count: int = 0


@dataclass(frozen=True)
class Classification:
    scenario_classical: bool
    state_noncontextual: bool
    label: str
    embedding: EmbeddingReport
    certificate: NCCertificate

    def __post_init__(self):
        expect = _label(self.scenario_classical, self.state_noncontextual)
        if self.label != expect:
            raise CertificateError(f"label {self.label} contradicts flags")


def _label(scenario_classical: bool, state_noncontextual: bool) -> str:
    if not state_noncontextual:
        return CONTEXTUAL
    if scenario_classical:
        return CLASSICAL
    return NONCLASSICAL_SCENARIO_ONLY


# -- zero-one states and embeddability ------------------------------------------


def zero_one_states(
    system: QuantumSystem, budget: int = DEFAULT_SEARCH_BUDGET
) -> list[ZeroOneState]:
    """Deterministic states of the system, computed on its atom graph."""
    return enumerate_zero_one_states(system.atom_graph(), budget)


def scenario_classical(
    system: QuantumSystem,
    s01: Sequence[ZeroOneState] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> EmbeddingReport:
    """Decide Boolean embeddability by separating elements with 0-1 states.

    An element's value on a 0-1 state is the number of its decomposition
    atoms the state sets to 1, so each decomposition and each state's ones
    become one bitmask over atom positions, and each value one bit count.
    """
    if s01 is None:
        s01 = zero_one_states(system, budget)
    if not s01:
        return EmbeddingReport(
            embeddable=False,
            witness=("0", "1"),
            reason="no deterministic state exists, so 0 and 1 get the same image",
            s01_count=0,
        )
    graph = system.atom_graph()
    bit = {label: 1 << k for k, label in enumerate(graph.vertices)}
    ones = []
    for lam in s01:
        if lam.graph is not graph and lam.graph != graph:
            raise NotAGraphState("state is defined on a different atom graph")
        ones.append(sum(bit[v] for v in lam.ones))
    masks = [
        sum(bit[system.atom_label(a)] for a in system.decompose(i))
        for i in range(len(system.elements))
    ]
    fingerprints = [tuple((mask & one).bit_count() for one in ones) for mask in masks]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, fp in enumerate(fingerprints):
        groups.setdefault(fp, []).append(i)
    collided = [g for g in groups.values() if len(g) > 1]
    if not collided:
        return EmbeddingReport(embeddable=True, s01_count=len(s01))
    chosen = next(
        (g for g in collided if system.identity_index in g),
        min(collided, key=lambda g: min(g)),
    )
    lo, hi = min(chosen), max(chosen)
    return EmbeddingReport(
        embeddable=False,
        witness=(system.element_name(lo), system.element_name(hi)),
        reason="distinct elements agree on every deterministic state",
        s01_count=len(s01),
    )


# -- the membership / separation LPs --------------------------------------------


def _state_fraction_values(p: PBAState) -> dict[str, Fraction]:
    return {v: Fraction(p.value(v)) for v in p.graph.vertices}


def _separation_lp(
    free: Sequence[str],
    states: Sequence[ZeroOneState],
    target: Mapping[str, Fraction],
):
    """Maximize y.target - c over valid inequalities with |y| <= 1 on the free
    coordinates; optimum 0 certifies hull membership.

    Variables: s_v = y_v + 1 in [0, 2], slack u_v, split c = cp - cm, and one
    slack per state row.
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
    res = solve_standard(a, b, c, maximize=True)
    if res.status != OPTIMAL:
        raise CertificateError(f"separation LP ended with status {res.status}")
    y = {v: res.x[i] - 1 for i, v in enumerate(free)}
    bound = res.x[2 * nf] - res.x[2 * nf + 1]
    violation = res.value - sum(target[v] for v in free)
    return y, bound, violation


def _membership_lp(
    free: Sequence[str],
    states: Sequence[ZeroOneState],
    target: Mapping[str, Fraction],
) -> dict[int, Fraction]:
    m = len(states)
    a: list[list[int]] = []
    b: list[Fraction] = []
    for v in free:
        a.append([states[k].value(v) for k in range(m)])
        b.append(target[v])
    a.append([1] * m)
    b.append(Fraction(1))
    res = solve_standard(a, b, [0] * m)
    if res.status != OPTIMAL:
        raise CertificateError(
            "membership LP infeasible although separation found no cutting plane"
        )
    return {k: w for k, w in enumerate(res.x) if w != 0}


def _primitive_inequality(
    atom_order: Sequence[str],
    y: Mapping[str, Fraction],
    states: Sequence[ZeroOneState],
) -> SeparatingInequality:
    """Tighten the bound to the 0-1 maximum and scale to integers with gcd 1.

    y is scaled to integers by the lcm of its denominators first, so each
    state's value is an integer sum over its ones.
    """
    scale = 1
    for w in y.values():
        scale = scale * w.denominator // gcd(scale, w.denominator)
    ints = {v: y[v].numerator * (scale // y[v].denominator) if v in y else 0 for v in atom_order}
    bound = max(sum(ints[v] for v in lam.ones) for lam in states)
    g = 0
    for c in ints.values():
        g = gcd(g, c)
    g = g or 1  # the bound is a sum of coefficients, so g divides it too
    return SeparatingInequality(
        atom_order=tuple(atom_order),
        coeffs={v: c // g for v, c in ints.items()},
        bound=bound // g,
    )


def is_noncontextual(p: PBAState, s01: Sequence[ZeroOneState]) -> NCCertificate:
    """Decide membership of p in the convex hull of the 0-1 states.

    Float states are rationalized first so the LP is exact; both certificate
    kinds are re-verified against the original values before returning.
    """
    graph = p.graph
    if not s01:
        # The hull is empty: no hidden-variable model exists, and no honest
        # inequality can witness that, so the certificate says so explicitly.
        return NCCertificate(verdict=CONTEXTUAL, empty_s01=True)
    for lam in s01:
        if lam.graph != graph:
            raise NotAGraphState("0-1 state defined on a different graph")

    exact = rationalize_state(p)
    target = _state_fraction_values(exact)
    red = clique_reduction(graph)

    y, bound, violation = _separation_lp(red.free, s01, target)
    if violation > 0:
        ineq = _primitive_inequality(graph.vertices, y, s01)
        _verify_contextual(ineq, s01, exact, p)
        exact_violation = ineq.evaluate(target) - ineq.bound
        return NCCertificate(
            verdict=CONTEXTUAL, inequality=ineq, violation=exact_violation
        )

    weights = _membership_lp(red.free, s01, target)
    _verify_noncontextual(weights, s01, exact, p)
    return NCCertificate(verdict=NONCONTEXTUAL, weights=weights, violation=Fraction(0))


def _verify_contextual(
    ineq: SeparatingInequality,
    s01: Sequence[ZeroOneState],
    exact: PBAState,
    original: PBAState,
) -> None:
    for lam in s01:
        if ineq.evaluate({v: Fraction(lam.value(v)) for v in lam.graph.vertices}) > ineq.bound:
            raise CertificateError("inequality fails on a 0-1 state")
    target = _state_fraction_values(exact)
    if ineq.evaluate(target) <= ineq.bound:
        raise CertificateError("inequality does not separate the rationalized state")
    if original.backend == FLOAT:
        float_lhs = sum(
            c * float(original.value(v)) for v, c in ineq.coeffs.items() if c != 0
        )
        if float_lhs <= ineq.bound:
            raise CertificateError("inequality does not separate the original state")


def _verify_noncontextual(
    weights: Mapping[int, Fraction],
    s01: Sequence[ZeroOneState],
    exact: PBAState,
    original: PBAState,
) -> None:
    total = sum(weights.values())
    if total != 1 or any(w < 0 for w in weights.values()):
        raise CertificateError("weights are not a probability vector")
    graph = exact.graph
    for v in graph.vertices:
        mix = sum(w * s01[k].value(v) for k, w in weights.items())
        if mix != Fraction(exact.value(v)):
            raise CertificateError(f"weights fail to reproduce the state at {v!r}")
        if original.backend == FLOAT:
            if abs(float(mix) - float(original.value(v))) > 10 * original.tol:
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
    """Combine the scenario verdict and the state verdict into one label."""
    if s01 is None:
        s01 = zero_one_states(system, budget)
    embedding = scenario_classical(system, s01)
    certificate = is_noncontextual(p, s01)
    state_noncontextual = certificate.verdict == NONCONTEXTUAL
    return Classification(
        scenario_classical=embedding.embeddable,
        state_noncontextual=state_noncontextual,
        label=_label(embedding.embeddable, state_noncontextual),
        embedding=embedding,
        certificate=certificate,
    )
