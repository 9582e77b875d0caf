"""Concrete event algebras of projectors, generated by closure.

``generate_system`` saturates a generator list under complement and under
meet/join of commuting pairs.  The closed system knows its atoms, its atom
graph, and how to extend an atom-level state to every element.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Mapping, Sequence

from .errors import (
    BackendMismatch,
    ClosureBudgetExceeded,
    DimensionMismatch,
    NoDecomposition,
    NotAGraphState,
    NotAnElement,
    UnknownElement,
)
from .graphs import ExclusivityGraph, PBAState
from .linalg import (
    CO_ORTHOGONAL,
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    ORTHOGONAL,
    UNDECIDED,
    DensityMatrix,
    ExactMatrix,
    FloatMatrix,
    Projector,
    commuting_product,
    exact_pair_relation,
    identity_projector,
    matrix_orthogonal,
    quantum_state_eval,
    zero_projector,
)

log = logging.getLogger(__name__)

DEFAULT_MAX_ELEMENTS = 100_000
PROGRESS_EVERY = 1000


class _Pool:
    """Deduplicating index of projector matrices.

    Exact matrices key exactly.  A float matrix keys on its grid cell
    (``FloatMatrix.grid_key``).  On a miss, the lowest-index pooled matrix
    within tolerance is returned, as a scan of the whole pool would find it:
    when every pooled matrix shares the query's tolerance, only the cells
    that the +-tol box around the query touches (``FloatMatrix.near_keys``)
    can hold one, so only their matrices are confirmed with
    ``approx_equal``.  This relies on each key mapping to one matrix, which
    holds because the closure inserts a matrix only after its own key
    missed.  Mixed tolerances, or more than
    ``MAX_STRADDLING`` coordinates near a cell edge (2**8 cells), fall back
    to the scan.
    """

    MAX_STRADDLING = 8

    def __init__(self, backend: str):
        self.backend = backend
        self._by_key: dict = {}
        self._mats: list = []
        self._tols: set = set()

    def lookup(self, mat) -> int | None:
        key = mat.key()
        hit = self._by_key.get(key)
        if hit is not None or self.backend != FLOAT:
            return hit
        keys = mat.near_keys(self.MAX_STRADDLING) if self._tols <= {mat.tol} else None
        if keys is None:
            candidates = range(len(self._mats))
        else:
            candidates = sorted(idx for idx in map(self._by_key.get, keys) if idx is not None)
        for idx in candidates:
            if mat.approx_equal(self._mats[idx]):
                return idx
        return None

    def insert(self, mat) -> int:
        idx = len(self._mats)
        self._mats.append(mat)
        self._by_key[mat.key()] = idx
        if self.backend == FLOAT:
            self._tols.add(mat.tol)
        return idx


@dataclass(frozen=True)
class EpbaReport:
    """Exhaustive exclusivity and transitivity audit of a closed system."""

    lep_holds: bool
    transitivity_holds: bool
    pairs_checked: int
    chains_checked: int
    lep_violation: tuple | None = None
    transitivity_violation: tuple | None = None

    @property
    def holds(self) -> bool:
        return self.lep_holds and self.transitivity_holds


# -- order audits on bit rows ---------------------------------------------------
#
# Shared by quantum and pasted systems: ``rows[i]`` has bit j set iff element
# i <= element j, and ``comp[i]`` is the index of the complement of element i.


def order_atoms(rows: Sequence[int], zero: int) -> list[int]:
    """Atoms, the minimal nonzero elements, in index order."""
    covered = 0
    for j, row in enumerate(rows):
        if j != zero:
            covered |= row & ~(1 << j)
    return [i for i in range(len(rows)) if i != zero and not covered >> i & 1]


def neg_image(rows: Sequence[int], comp: Sequence[int]) -> list[int]:
    """Bit c of entry j is set iff j <= comp[c].

    Elements i and j are exclusive (some c has i <= c and j <= comp[c])
    exactly when ``rows[i] & neg_image[j]`` is nonzero.
    """
    return [sum(1 << c for c, k in enumerate(comp) if row >> k & 1) for row in rows]


def first_lep_violation(
    rows: Sequence[int], neg: Sequence[int], compatible: Callable[[int, int], bool]
) -> tuple[tuple[int, int] | None, int]:
    """First pair i < j, in index order, that is exclusive but not
    ``compatible``, and the number of pairs examined up to it."""
    n = len(rows)
    pairs = 0
    for i in range(n):
        row = rows[i]
        for j in range(i + 1, n):
            if row & neg[j] and not compatible(i, j):
                return (i, j), pairs + j - i
        pairs += n - 1 - i
    return None, pairs


def first_transitivity_violation(
    rows: Sequence[int],
) -> tuple[tuple[int, int, int] | None, int]:
    """First chain i <= j <= k with i not below k, in index order, and the
    number of pairs i <= j examined up to it."""
    chains = 0
    for i, row_i in enumerate(rows):
        m = row_i
        while m:
            j = (m & -m).bit_length() - 1
            m &= m - 1
            chains += 1
            bad = rows[j] & ~row_i
            if bad:
                return (i, j, (bad & -bad).bit_length() - 1), chains
    return None, chains


class QuantumSystem:
    """A finite, closed set of projectors with cached order structure."""

    def __init__(
        self,
        elements: Sequence[Projector],
        generators: Sequence[Projector],
        atom_labels: Mapping[str, Projector] | None = None,
    ):
        if not elements:
            raise NotAnElement("empty system")
        self.dim = elements[0].dim
        self.backend = elements[0].backend
        self.tol = elements[0].tol
        self.elements = tuple(sorted(elements, key=lambda p: p.sort_key()))
        self.generators = tuple(generators)
        self._pool = _Pool(self.backend)
        for p in self.elements:
            self._pool.insert(p.mat)
        self.zero_index = self.index_of(zero_projector(self.dim, self.backend, self.tol))
        self.identity_index = self.index_of(identity_projector(self.dim, self.backend, self.tol))
        self._leq_rows: list[int] | None = None
        self._comp: list[int] | None = None
        self._atom_indices: list[int] | None = None
        self._atom_graph: ExclusivityGraph | None = None
        self._atom_labels_arg = dict(atom_labels or {})
        self._labels: list[str] | None = None
        self._names: dict[int, str] = {}

    def with_atom_labels(self, atom_labels: Mapping[str, Projector]) -> "QuantumSystem":
        """The same system with its atoms named by ``atom_labels``.

        The order table and the complement map do not depend on names, so the
        copy shares them instead of building them again.
        """
        other = QuantumSystem(self.elements, self.generators, atom_labels)
        other._leq_rows = self._leq_rows
        other._comp = self._comp
        return other

    # -- membership -----------------------------------------------------------

    def index_of(self, p: Projector) -> int:
        idx = self._pool.lookup(p.mat)
        if idx is None:
            raise NotAnElement(f"{p!r} is not an element of this system")
        return idx

    def contains(self, p: Projector) -> bool:
        return self._pool.lookup(p.mat) is not None

    def __len__(self) -> int:
        return len(self.elements)

    # -- order structure --------------------------------------------------------

    def _ensure_leq(self) -> list[int]:
        """Bit rows of the order: bit j of row i is set iff element i <= j.

        Exact: one integer dot product per pair of distinct ranks, since
        P <= Q iff tr(PQ) = rank P and tr(PQ) = tr(QP); distinct elements of
        equal rank are never ordered.  Float: one ``trace_mul`` per unordered
        pair screens both directions, as ``matrix_leq`` screens one: i <= j
        is rejected when rank i > rank j or |Re tr - rank i| >= (d+1)*tol,
        which an entrywise-approximate PQ = P rules out.  Each direction the
        screen keeps is confirmed entry by entry against P
        (``FloatMatrix.mul_near``), as before.
        """
        if self._leq_rows is not None:
            return self._leq_rows
        n = len(self.elements)
        rows = [1 << i for i in range(n)]
        mats = [p.mat for p in self.elements]
        ranks = [p.rank for p in self.elements]
        if self.backend == EXACT:
            dens = [m.den for m in mats]
            for i in range(n):
                mi, ri, di = mats[i], ranks[i], dens[i]
                for j in range(i + 1, n):
                    rj = ranks[j]
                    if ri == rj:
                        continue
                    num = mi.trace_num(mats[j])
                    if ri < rj:
                        if num == ri * di * dens[j]:
                            rows[i] |= 1 << j
                    elif num == rj * di * dens[j]:
                        rows[j] |= 1 << i
        else:
            for i in range(n):
                mi, ri = mats[i], ranks[i]
                for j in range(i + 1, n):
                    mj, rj = mats[j], ranks[j]
                    bound = (self.dim + 1) * max(mi.tol, mj.tol)
                    t = mi.trace_mul(mj).real
                    if ri <= rj and abs(t - ri) < bound and mi.mul_near(mj, mi):
                        rows[i] |= 1 << j
                    if rj <= ri and abs(t - rj) < bound and mj.mul_near(mi, mj):
                        rows[j] |= 1 << i
        self._leq_rows = rows
        return rows

    def _ensure_comp(self) -> list[int]:
        if self._comp is None:
            ident = (
                ExactMatrix.identity(self.dim)
                if self.backend == EXACT
                else FloatMatrix.identity(self.dim, self.tol)
            )
            comp = []
            for p in self.elements:
                idx = self._pool.lookup(ident.sub(p.mat))
                if idx is None:
                    raise NotAnElement("system is not closed under complement")
                comp.append(idx)
            self._comp = comp
        return self._comp

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self._ensure_leq()[i] >> j & 1)

    def complement_index(self, i: int) -> int:
        return self._ensure_comp()[i]

    # -- atoms -----------------------------------------------------------------

    def atom_indices(self) -> list[int]:
        """Atom element indices, labeled atoms first (the atom-graph order)."""
        self._ensure_labels()
        return self._atom_indices

    def _ensure_labels(self) -> list[str]:
        if self._labels is not None:
            return self._labels
        atoms = order_atoms(self._ensure_leq(), self.zero_index)
        assigned: dict[int, str] = {}
        ordered: list[int] = []
        for name, proj in self._atom_labels_arg.items():
            idx = self.index_of(proj)
            if idx not in atoms:
                raise NotAnElement(f"label {name!r} does not name an atom")
            if idx in assigned:
                raise UnknownElement(f"atom labeled twice: {assigned[idx]!r}, {name!r}")
            assigned[idx] = name
            ordered.append(idx)
        rest = [i for i in atoms if i not in assigned]
        rest.sort(key=lambda i: self.elements[i].sort_key())
        for k, idx in enumerate(rest):
            assigned[idx] = f"e{k}"
            ordered.append(idx)
        if len(set(assigned.values())) != len(assigned):
            raise UnknownElement("atom label collision")
        self._atom_indices = ordered
        self._labels = [assigned[i] for i in ordered]
        self._names = dict(zip(ordered, self._labels))
        return self._labels

    def atom_label(self, index: int) -> str:
        self._ensure_labels()
        return self._names[index]

    def atoms(self) -> list[Projector]:
        self._ensure_labels()
        return [self.elements[i] for i in self.atom_indices()]

    def atom_by_label(self, label: str) -> Projector:
        labels = self._ensure_labels()
        try:
            pos = labels.index(label)
        except ValueError:
            raise UnknownElement(f"no atom labeled {label!r}") from None
        return self.elements[self.atom_indices()[pos]]

    def atom_graph(self) -> ExclusivityGraph:
        """Vertices are atom labels; edges join compatible distinct atoms."""
        if self._atom_graph is None:
            labels = self._ensure_labels()
            idxs = self.atom_indices()
            edges = []
            for (la, ia), (lb, ib) in combinations(zip(labels, idxs), 2):
                if self._orthogonal_idx(ia, ib):
                    edges.append((la, lb))
            self._atom_graph = ExclusivityGraph(labels, edges)
        return self._atom_graph

    def _orthogonal_idx(self, i: int, j: int) -> bool:
        return matrix_orthogonal(self.elements[i].mat, self.elements[j].mat)

    # -- naming ----------------------------------------------------------------

    def element_name(self, index: int) -> str:
        """Stable human name: 0, 1, an atom label, or a join of atom labels."""
        if index == self.zero_index:
            return "0"
        if index == self.identity_index:
            return "1"
        self._ensure_labels()
        if index in self._names:
            return self._names[index]
        parts = self.decompose(index)
        return "|".join(self._names[i] for i in parts)

    # -- state extension ---------------------------------------------------------

    def decompose(self, index: int) -> tuple[int, ...]:
        """First maximal orthogonal set of atoms below the element summing to it."""
        for decomposition in self.decompositions(index):
            return decomposition
        raise NoDecomposition(
            f"element {index} has no atomic decomposition; system is not closed"
        )

    def decompositions(self, index: int):
        """Yield every orthogonal atom set that sums to the element."""
        target = self.elements[index]
        if target.rank == 0:
            yield ()
            return
        rows = self._ensure_leq()
        atoms = [i for i in self.atom_indices() if rows[i] >> index & 1]
        mats = {i: self.elements[i].mat for i in atoms}
        ranks = {i: self.elements[i].rank for i in atoms}
        if self.backend == EXACT:
            equal = lambda a, b: a == b  # noqa: E731
        else:
            equal = lambda a, b: a.approx_equal(b)  # noqa: E731

        def search(start: int, chosen: list[int], total, rank: int):
            if rank == target.rank:
                if equal(total, target.mat):
                    yield tuple(chosen)
                return
            for pos in range(start, len(atoms)):
                a = atoms[pos]
                if rank + ranks[a] > target.rank:
                    continue
                if any(not matrix_orthogonal(mats[a], mats[b]) for b in chosen):
                    continue
                chosen.append(a)
                new_total = mats[a] if total is None else total.add(mats[a])
                yield from search(pos + 1, chosen, new_total, rank + ranks[a])
                chosen.pop()

        yield from search(0, [], None, 0)

    def extend_state(self, state: PBAState) -> "SystemState":
        if state.graph != self.atom_graph():
            raise NotAGraphState("state is defined on a different atom graph")
        return SystemState(self, state)

    def state_from_density(self, rho: DensityMatrix) -> PBAState:
        """Restrict the Born rule to atoms; always yields a graph state."""
        labels = self._ensure_labels()
        values = {}
        for label, idx in zip(labels, self.atom_indices()):
            values[label] = quantum_state_eval(rho, self.elements[idx])
        backend = EXACT if self.backend == EXACT else FLOAT
        return PBAState(self.atom_graph(), values, backend=backend, tol=max(self.tol, DEFAULT_TOL))

    # -- audits ---------------------------------------------------------------

    def verify_epba(self) -> EpbaReport:
        """Exhaustively confirm exclusivity implies compatibility, and that the
        element order is transitive.  Any violation signals a bug or a
        tolerance failure, never valid physics."""
        rows = self._ensure_leq()
        mats = [p.mat for p in self.elements]
        # An exclusive pair of projectors has a vanishing product, hence
        # commutes; the product is formed here so that this audit stays
        # independent of the trace kernel that built the order rows.
        lep_violation, pairs = first_lep_violation(
            rows,
            neg_image(rows, self._ensure_comp()),
            lambda i, j: mats[i].mul(mats[j]).is_zero(),
        )
        transitivity_violation, chains = first_transitivity_violation(rows)
        return EpbaReport(
            lep_holds=lep_violation is None,
            transitivity_holds=transitivity_violation is None,
            pairs_checked=pairs,
            chains_checked=chains,
            lep_violation=lep_violation,
            transitivity_violation=transitivity_violation,
        )

    def __repr__(self) -> str:
        return (
            f"QuantumSystem(dim={self.dim}, backend={self.backend}, "
            f"{len(self.elements)} elements)"
        )


class SystemState:
    """Atom-level state extended to every element via atomic decompositions."""

    def __init__(self, system: QuantumSystem, atom_state: PBAState):
        self.system = system
        self.atom_state = atom_state
        self._cache: dict[int, object] = {}

    def eval_index(self, index: int):
        if index in self._cache:
            return self._cache[index]
        system = self.system
        parts = system.decompose(index)
        zero = Fraction(0) if self.atom_state.backend == EXACT else 0.0
        value = sum((self.atom_state.value(system.atom_label(i)) for i in parts), zero)
        self._cache[index] = value
        return value

    def eval(self, p: Projector):
        return self.eval_index(self.system.index_of(p))


def leq_q(system: QuantumSystem, p: Projector, q: Projector) -> bool:
    """Event order inside a system: PQ = P."""
    return system.leq_idx(system.index_of(p), system.index_of(q))


def exclusive_q(system: QuantumSystem, p: Projector, q: Projector) -> bool:
    """Exclusivity inside a system reduces to a vanishing product."""
    i, j = system.index_of(p), system.index_of(q)
    return system._orthogonal_idx(i, j)


def generate_system(
    generators: Sequence[Projector],
    max_elements: int = DEFAULT_MAX_ELEMENTS,
    atom_labels: Mapping[str, Projector] | None = None,
) -> QuantumSystem:
    """Close a generator list under complement and commuting meet/join.

    The worklist is processed in canonical order (complement of each element
    first, then pairs with all earlier elements), so the discovered set and
    the final sorted element list do not depend on generator order.

    On the exact backend each pair is first classified by tr(PQ)
    (``exact_pair_relation``): an ordered pair adds nothing, an orthogonal
    pair adds only P + Q, a pair with orthogonal complements adds only
    P + Q - I, and a pair with a non-integer trace cannot commute.  Only the
    remaining pairs form PQ, entries (i, j) and (j, i) together, and stop at
    the first pair of entries that shows PQ is not Hermitian.  Every skipped
    insertion is of an element already present, so new elements arrive in
    the same order as with two products per pair and the budget trips at
    the same point.

    Float closure compares PQ with QP within tolerance entry by entry and
    stops at the first entry that differs by tol or more; only a commuting
    pair completes PQ, which is then exactly ``mul``'s product.  The float
    trace screens (reject order at |Re tr(PQ) - rank P| >= (d+1)*tol,
    orthogonality at |Re tr(PQ)| >= d*tol) are safe because an
    entrywise-approximate product cannot have such a trace, but a
    tolerance-level PQ = QP has no bound that simple, so no float pair is
    skipped here.  Float duplicates are found by ``_Pool``, which probes the
    grid cells next to a new matrix instead of scanning every element.
    """
    if not generators:
        raise NotAnElement("need at least one generator")
    dim = generators[0].dim
    backend = generators[0].backend
    tol = max((g.tol for g in generators), default=DEFAULT_TOL) or DEFAULT_TOL
    for g in generators:
        if g.dim != dim:
            raise DimensionMismatch("generators of mixed dimension")
        if g.backend != backend:
            raise BackendMismatch("generators of mixed backend")
    if max_elements < 4:
        raise ClosureBudgetExceeded(max_elements)

    pool = _Pool(backend)
    elems: list[Projector] = []

    def insert(mat) -> None:
        if pool.lookup(mat) is not None:
            return
        if len(elems) >= max_elements:
            raise ClosureBudgetExceeded(max_elements)
        proj = Projector(mat)
        pool.insert(mat)
        elems.append(proj)
        if len(elems) % PROGRESS_EVERY == 0:
            log.info("closure reached %d elements", len(elems))

    insert(zero_projector(dim, backend, tol).mat)
    insert(identity_projector(dim, backend, tol).mat)
    seeds = sorted({g.sort_key(): g for g in generators}.values(), key=lambda p: p.sort_key())
    for g in seeds:
        insert(g.mat)

    ident = elems[1].mat
    idx = 0
    while idx < len(elems):
        p = elems[idx]
        insert(ident.sub(p.mat))
        for j in range(idx):
            q = elems[j]
            if backend == EXACT:
                relation = exact_pair_relation(p, q)
                if relation == ORTHOGONAL:
                    insert(p.mat.add(q.mat))
                elif relation == CO_ORTHOGONAL:
                    insert(p.mat.add(q.mat).sub(ident))
                if relation != UNDECIDED:
                    continue
            pq = commuting_product(p, q)
            if pq is not None:
                insert(pq)
                insert(p.mat.add(q.mat).sub(pq))
        idx += 1

    return QuantumSystem(elems, seeds, atom_labels)


def systems_equal(a: QuantumSystem, b: QuantumSystem) -> bool:
    """Set equality of elements under the backend's projector equality."""
    if a.backend != b.backend:
        raise BackendMismatch(f"{a.backend} vs {b.backend}")
    if a.dim != b.dim or len(a) != len(b):
        return False
    if a.backend == EXACT:
        return {p.mat.key() for p in a.elements} == {p.mat.key() for p in b.elements}
    return all(b.contains(p) for p in a.elements)
