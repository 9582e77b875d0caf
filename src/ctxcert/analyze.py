"""Classicality and contextuality verdicts with self-verifying certificates.

A state is noncontextual exactly when it is a convex mixture of the scenario's
0-1 states; ``ctxcert.certify`` decides it with exact LPs and re-verifies the
certificate.  That module, and ``simplex`` with it, loads on the first state
verdict that needs an LP: a Kochen-Specker set has no 0-1 state, so its
verdict is CONTEXTUAL without one, and a process that judges only such sets
compiles neither.  A scenario is classical exactly when distinct elements are
separated by 0-1 states, i.e. the canonical map into subsets of deterministic
assignments is injective.

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
from fractions import Fraction
from math import prod
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
from .systems import QuantumSystem

CLASSICAL = "CLASSICAL"
NONCLASSICAL_SCENARIO_ONLY = "NONCLASSICAL_SCENARIO_ONLY"
CONTEXTUAL = "CONTEXTUAL"
NONCONTEXTUAL = "NONCONTEXTUAL"


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


# -- the state verdict -------------------------------------------------------


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
    """The state verdict on the component listings: CONTEXTUAL with
    ``empty_s01`` when a component has no 0-1 state, since the hull is
    empty, and otherwise ``certify.certify``'s certificate.  The certificate
    module, and ``simplex`` with it, load on the first such verdict."""
    if not all(listings):
        # The hull is empty: no hidden-variable model exists, and no honest
        # inequality can witness that, so the certificate says so explicitly.
        return NCCertificate(verdict=CONTEXTUAL, empty_s01=True)
    return _lp_certificate(p, graph, listings, s01)


def _lp_certificate(p, graph, listings, s01) -> NCCertificate:
    """Load ``certify`` and bind this name to ``certify.certify``, so that
    later verdicts call it without an import statement."""
    global _lp_certificate
    from .certify import certify as _lp_certificate

    return _lp_certificate(p, graph, listings, s01)


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
