"""Concrete event algebras of projectors, generated by closure.

``generate_system`` saturates a generator list under complement and under
meet/join of commuting pairs.  A ``QuantumSystem`` is whole once constructed:
its atoms, order, complement map and atom names are built then, and it
extends an atom-level state to every element.  Matrices are used only to
find the atoms and their orthogonality; the order, the complements, the atom
graph and the atomic decompositions are bit operations on atom masks.
``with_atom_labels`` renames the atoms of a copy that shares the rest.
"""

from __future__ import annotations

import copy
from fractions import Fraction
from functools import reduce
from itertools import combinations, count
from typing import Callable, Mapping, Sequence

from .errors import (
    INFO,
    BackendMismatch,
    ClosureBudgetExceeded,
    DimensionMismatch,
    NoDecomposition,
    NotAGraphState,
    NotAnElement,
    OutOfRange,
    Record,
    UnknownElement,
    log,
    set_field,
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
    Projector,
    commuting_product,
    exact_pair_relation,
    identity_projector,
    matrix_leq,
    matrix_orthogonal,
    quantum_state_eval,
    zero_projector,
)

DEFAULT_MAX_ELEMENTS = 100_000
PROGRESS_EVERY = 1000


class _Pool:
    """Deduplicating index of projector matrices, for the closure.

    Exact matrices key exactly.  A float lookup returns the lowest-index
    pooled matrix within tolerance, as a scan of the whole pool would find
    it; the grid cells (``FloatMatrix.grid_key``) only narrow the candidates,
    and ``approx_equal`` decides.  A float matrix is listed, in index order,
    under every cell that the +-tol box around it touches
    (``FloatMatrix.near_keys``), so when every pooled matrix shares the
    query's tolerance only the list of the query's own cell can hold a
    match.  Before the cell is keyed, a map from entries to index answers a
    bit-identical query untested: the closure inserts a matrix only after
    its lookup missed, so no other pooled matrix is within tolerance of it.
    Mixed tolerances, or a pooled matrix with more than ``MAX_STRADDLING``
    coordinates near a cell edge (2**8 cells), fall back to the scan.
    """

    MAX_STRADDLING = 8

    def __init__(self, backend: str):
        self.backend = backend
        self._by_key: dict = {}
        self._mats: list = []
        self._exact: dict = {}
        self._tols: set = set()
        self._scan = False

    def lookup(self, mat) -> int | None:
        if self.backend != FLOAT:
            return self._by_key.get(mat.key())
        if self._scan or not self._tols <= {mat.tol}:
            candidates = range(len(self._mats))
        else:
            idx = self._exact.get(mat.entries)
            if idx is not None:
                return idx
            candidates = self._by_key.get(mat.key(), ())
        for idx in candidates:
            if mat.approx_equal(self._mats[idx]):
                return idx
        return None

    def insert(self, mat) -> int:
        idx = len(self._mats)
        self._mats.append(mat)
        if self.backend != FLOAT:
            self._by_key[mat.key()] = idx
            return idx
        self._tols.add(mat.tol)
        self._exact.setdefault(mat.entries, idx)
        keys = mat.near_keys(self.MAX_STRADDLING)
        self._scan |= keys is None
        for key in keys or ():
            self._by_key.setdefault(key, []).append(idx)
        return idx


class EpbaReport(Record):
    """Exhaustive exclusivity and transitivity audit of a closed system.

    ``pairs_checked`` counts the exclusive pairs i < j tested for
    compatibility, up to the first violation; ``chains_checked`` counts the
    pairs i <= j whose rows were compared, up to the first violation."""

    __slots__ = (
        "lep_holds",
        "transitivity_holds",
        "pairs_checked",
        "chains_checked",
        "lep_violation",
        "transitivity_violation",
    )

    def __init__(
        self,
        lep_holds: bool,
        transitivity_holds: bool,
        pairs_checked: int,
        chains_checked: int,
        lep_violation: tuple | None = None,
        transitivity_violation: tuple | None = None,
    ):
        set_field(self, "lep_holds", lep_holds)
        set_field(self, "transitivity_holds", transitivity_holds)
        set_field(self, "pairs_checked", pairs_checked)
        set_field(self, "chains_checked", chains_checked)
        set_field(self, "lep_violation", lep_violation)
        set_field(self, "transitivity_violation", transitivity_violation)

    @property
    def holds(self) -> bool:
        return self.lep_holds and self.transitivity_holds


# -- order audits on bit rows ---------------------------------------------------
#
# ``rows[i]`` has bit j set iff element i <= element j, and ``comp[i]`` is the
# index of the complement of element i.  Both audits read only these, so they
# serve quantum and pasted systems alike.


def _bits(mask: int):
    """The indices of the set bits of ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def first_lep_violation(
    rows: Sequence[int], comp: Sequence[int], compatible: Callable[[int, int], bool]
) -> tuple[tuple[int, int] | None, int]:
    """First pair i < j, in index order, that is exclusive (some c has
    i <= c and j <= comp[c]) but not ``compatible``, and the number of
    exclusive pairs tested up to it.

    With ``below[k]`` the mask of the elements <= k, the exclusive partners
    of i are the OR of ``below[comp[c]]`` over the bits c of ``rows[i]``.
    """
    below = [0] * len(rows)
    for i, row in enumerate(rows):
        for k in _bits(row):
            below[k] |= 1 << i
    pairs = 0
    for i, row in enumerate(rows):
        partners = 0
        for c in _bits(row):
            partners |= below[comp[c]]
        for j in _bits(partners & -(2 << i)):  # the partners above i
            pairs += 1
            if not compatible(i, j):
                return (i, j), pairs
    return None, pairs


def first_transitivity_violation(
    rows: Sequence[int],
) -> tuple[tuple[int, int, int] | None, int]:
    """First chain i <= j <= k with i not below k, in index order, and the
    number of pairs i <= j examined up to it."""
    chains = 0
    for i, row_i in enumerate(rows):
        for j in _bits(row_i):
            chains += 1
            bad = rows[j] & ~row_i
            if bad:
                return (i, j, next(_bits(bad))), chains
    return None, chains


def _below_mask(elements: Sequence[Projector], atoms, mat) -> int:
    """The mask of the ``atoms`` (element indices) below the matrix ``mat``."""
    return sum(1 << a for a in atoms if matrix_leq(elements[a].mat, mat, elements[a].rank))


def _orthogonal_sums(
    atoms: Sequence[int], orth: Mapping[int, int], ranks: Mapping[int, int], target: int
):
    """Yield every set of pairwise orthogonal ``atoms`` whose ranks add up to
    ``target``, depth first in list order; bit b of ``orth[a]`` is set iff
    atoms a and b are orthogonal."""
    chosen: list[int] = []

    def search(start: int, allowed: int, rank: int):
        if rank == target:
            yield tuple(chosen)
            return
        for pos in range(start, len(atoms)):
            a = atoms[pos]
            if allowed >> a & 1 and rank + ranks[a] <= target:
                chosen.append(a)
                yield from search(pos + 1, allowed & orth[a], rank + ranks[a])
                chosen.pop()

    return search(0, -1, 0)


class QuantumSystem:
    """A finite, closed set of projectors and its lattice, whole once built.

    The constructor builds the atoms, their below-masks and orthogonality,
    the order rows, the complement map and the default atom names (e0, e1,
    ... in element order).  It raises ``NoDecomposition`` if some element is
    no orthogonal sum of its atoms, and ``NotAnElement`` if one repeats or
    the set is not closed under complement.  Then only ``verify_epba``,
    ``state_from_density`` and membership (``index_of``, ``contains``: the
    atoms below a projector) touch a matrix.  The atom graph, a view of the
    masks under the atom names, and the table of each element's
    decomposition on it (``decomposition_masks``) are built on first use.
    """

    def __init__(self, elements: Sequence[Projector]):
        if not elements:
            raise NotAnElement("empty system")
        self.dim = elements[0].dim
        self.backend = elements[0].backend
        self.tol = elements[0].tol
        self.elements = tuple(sorted(elements, key=lambda p: p.sort_key()))
        self._ensure_leq()
        self.zero_index = self._element(0, 0, "system has no 0")
        # I - P is the sum of the atoms orthogonal to P, of rank d - rank P.
        atoms, self._comp = sum(1 << a for a in self._orth), []
        unclosed = "system is not closed under complement"
        for p, mask in zip(self.elements, self._below):
            orth = reduce(int.__and__, (self._orth[a] for a in _bits(mask)), atoms)
            self._comp.append(self._element(orth, self.dim - p.rank, unclosed))
        self.identity_index = self._comp[self.zero_index]
        self._name_atoms({})

    def with_atom_labels(self, atom_labels: Mapping[str, Projector]) -> "QuantumSystem":
        """A copy of the system with its atoms named by ``atom_labels``; the
        other atoms take the names e0, e1, ... in element order, skipping the
        names given to atoms.  This is the only way to name atoms.

        A label whose projector is not an element of the system names
        nothing: a scenario ray outside the closure of its generators is
        left out.  A label on an element that is not an atom, or two labels
        on one atom, raise here.  The copy shares the elements, the order
        rows, the atom masks and the complement map, which do not depend on
        names.
        """
        other = copy.copy(self)
        other._name_atoms(atom_labels)
        return other

    def _name_atoms(self, atom_labels: Mapping[str, Projector]) -> None:
        """Name the atoms: those in ``atom_labels`` first, in its order, then
        the rest e0, e1, ... in element order, skipping the names given to
        atoms; each label is looked up once.  That is the atom-graph order;
        the graph and the decomposition table, whose bits and first
        decompositions follow it, are built again on first use.  It runs
        only on a new object, so what ``analyze`` keeps per system object
        never outlives a naming."""
        names: dict[int, str] = {}
        for name, proj in atom_labels.items():
            try:
                idx = self.index_of(proj)
            except NotAnElement:
                continue  # not an element: the label names nothing
            if idx not in self._orth:  # keyed by the atoms, in element order
                raise NotAnElement(f"label {name!r} does not name an atom")
            if idx in names:
                raise UnknownElement(f"atom labeled twice: {names[idx]!r}, {name!r}")
            names[idx] = name
        given = set(names.values())
        rest = [i for i in self._orth if i not in names]
        names.update(zip(rest, (f"e{k}" for k in count() if f"e{k}" not in given)))
        self._names = names
        self._atom_graph: ExclusivityGraph | None = None
        self._decomposition_masks: list[tuple[int, int]] | None = None

    # -- membership -----------------------------------------------------------

    def _element(self, mask: int, rank: int, missing: str) -> int:
        """The element with below-mask ``mask`` and rank ``rank``: a projector
        above every atom of element j, and of j's rank, is j."""
        idx = self._by_below.get(mask)
        if idx is None or self.elements[idx].rank != rank:
            raise NotAnElement(missing)
        return idx

    def index_of(self, p: Projector) -> int:
        same = p.dim == self.dim and p.backend == self.backend  # -1 is no mask
        mask = _below_mask(self.elements, self._orth, p.mat) if same else -1
        return self._element(mask, p.rank, f"{p!r} is not an element of this system")

    def contains(self, p: Projector) -> bool:
        try:
            return self.index_of(p) >= 0
        except NotAnElement:
            return False

    def __len__(self) -> int:
        return len(self.elements)

    # -- order structure --------------------------------------------------------

    def _ensure_leq(self) -> None:
        """Build the order: bit j of ``_leq_rows[i]`` is set iff element i <= j.

        Built from the atoms, so matrices are used only to find them.  The
        elements are sorted by rank, and a walk in index order tests each one
        (``_below_mask``) only against the atoms found so far: an element
        with no atom below it is a new atom.  Bit a of ``_below[i]`` is set
        iff atom a <= element i.  The keys of ``_orth`` are the atoms in
        index order, and ``_orth[a]`` holds the atoms orthogonal to atom a,
        one ``matrix_orthogonal`` per pair of atoms.

        Orthogonal atoms below an element sum to a projector below it, which
        is the element exactly when their ranks add up to its rank.  Every
        element must be such a sum, or ``NoDecomposition`` is raised; then
        i <= j iff every atom below i is below j.  So row i is the AND of the
        rows of the atoms below i (all ones for 0), and the row of atom a
        holds the elements whose below-masks name a.  Two such sums with one
        below-mask are equal, so ``_by_below`` maps each mask to its element.
        """
        elements = self.elements
        atoms: list[int] = []
        below = []
        for i, p in enumerate(elements):
            mask = _below_mask(elements, atoms, p.mat)
            if not mask and p.rank:
                atoms.append(i)
                mask = 1 << i
            below.append(mask)
        ranks = {a: elements[a].rank for a in atoms}
        orth = dict.fromkeys(atoms, 0)
        for a, b in combinations(atoms, 2):
            if matrix_orthogonal(elements[a].mat, elements[b].mat):
                orth[a] |= 1 << b
                orth[b] |= 1 << a
        unders = [[a for a in atoms if mask >> a & 1] for mask in below]
        above = dict.fromkeys(atoms, 0)
        for i, under in enumerate(unders):
            if next(_orthogonal_sums(under, orth, ranks, elements[i].rank), None) is None:
                raise NoDecomposition(
                    f"element {i} is no orthogonal sum of atoms; the system is not closed"
                )
            for a in under:
                above[a] |= 1 << i
        rows, by_below = [], {}
        for i, under in enumerate(unders):
            if by_below.setdefault(below[i], i) != i:
                raise NotAnElement(f"element {i} repeats element {by_below[below[i]]}")
            row = (1 << len(elements)) - 1
            for a in under:
                row &= above[a]
            rows.append(row)
        self._below, self._orth, self._leq_rows, self._by_below = below, orth, rows, by_below

    def leq_idx(self, i: int, j: int) -> bool:
        return bool(self._leq_rows[i] >> j & 1)

    # -- atoms -----------------------------------------------------------------

    def atom_indices(self) -> list[int]:
        """Atom element indices, labeled atoms first (the atom-graph order)."""
        return list(self._names)

    def atom_label(self, index: int) -> str:
        return self._names[index]

    def atom_by_label(self, label: str) -> Projector:
        for idx, name in self._names.items():
            if name == label:
                return self.elements[idx]
        raise UnknownElement(f"no atom labeled {label!r}")

    def atom_graph(self) -> ExclusivityGraph:
        """Vertices are atom labels; edges join compatible distinct atoms."""
        if self._atom_graph is None:
            edges = [
                (la, lb)
                for (ia, la), (ib, lb) in combinations(self._names.items(), 2)
                if self._orth[ia] >> ib & 1
            ]
            self._atom_graph = ExclusivityGraph(self._names.values(), edges)
        return self._atom_graph

    def decomposition_masks(self) -> list[tuple[int, int]]:
        """For each element, in element order, the index of the atom-graph
        component that holds its decomposition (``decompose``) and the mask
        of that decomposition's atoms; component 0 for the empty one of 0."""
        if self._decomposition_masks is None:
            graph = self.atom_graph()
            component = {v: c for c, part in enumerate(graph.components) for v in part.vertices}
            table = []
            for i in range(len(self.elements)):
                atoms = [self._names[a] for a in self.decompose(i)]
                table.append((component[atoms[0]] if atoms else 0, graph.mask(atoms)))
            self._decomposition_masks = table
        return self._decomposition_masks

    # -- naming ----------------------------------------------------------------

    def element_name(self, index: int) -> str:
        """Stable human name: 0, 1, an atom label, or a join of atom labels."""
        if index == self.zero_index:
            return "0"
        if index == self.identity_index:
            return "1"
        if index in self._names:
            return self._names[index]
        parts = self.decompose(index)
        return "|".join(self._names[i] for i in parts)

    # -- state extension ---------------------------------------------------------

    def decompose(self, index: int) -> tuple[int, ...]:
        """First maximal orthogonal set of atoms below the element summing to
        it; building the order checked that one exists."""
        return next(self.decompositions(index))

    def decompositions(self, index: int):
        """Yield every orthogonal atom set that sums to the element, in the
        atom-graph order: the orthogonal sets of atoms below it whose ranks
        add up to its rank."""
        mask = self._below[index]
        atoms = [a for a in self._names if mask >> a & 1]
        ranks = {a: self.elements[a].rank for a in atoms}
        return _orthogonal_sums(atoms, self._orth, ranks, self.elements[index].rank)

    def extend_state(self, state: PBAState) -> "SystemState":
        if state.graph != self.atom_graph():
            raise NotAGraphState("state is defined on a different atom graph")
        return SystemState(self, state)

    def state_from_density(self, rho: DensityMatrix) -> PBAState:
        """Restrict the Born rule to atoms; always yields a graph state."""
        values = {
            label: quantum_state_eval(rho, self.elements[idx]) for idx, label in self._names.items()
        }
        backend = EXACT if self.backend == EXACT else FLOAT
        return PBAState(self.atom_graph(), values, backend=backend, tol=max(self.tol, DEFAULT_TOL))

    # -- audits ---------------------------------------------------------------

    def verify_epba(self) -> EpbaReport:
        """Exhaustively confirm exclusivity implies compatibility, and that the
        element order is transitive.  Any violation signals a bug or a
        tolerance failure, never valid physics."""
        rows = self._leq_rows
        mats = [p.mat for p in self.elements]
        # An exclusive pair of projectors has a vanishing product, hence
        # commutes; the product's entries are formed here, up to the first
        # nonzero one, so that this audit stays independent of the trace
        # kernel that built the order rows.
        lep_violation, pairs = first_lep_violation(
            rows, self._comp, lambda i, j: mats[i].mul_is_zero(mats[j])
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
    """Exclusivity inside a system, read from the order rows: P <= not Q."""
    i, j = system.index_of(p), system.index_of(q)
    return system.leq_idx(i, system._comp[j])


def generate_system(
    generators: Sequence[Projector],
    max_elements: int = DEFAULT_MAX_ELEMENTS,
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
    pair completes PQ, which is then exactly ``mul``'s product.  No float
    pair is skipped: the float backend decides every relation entrywise
    within tol, never from a trace.  Float duplicates are found by
    ``_Pool``, which lists each element under the grid cells near it and
    reads only the new matrix's cell instead of scanning every element; a
    cell narrows the candidates, and the float rule decides.  ``insert``
    drops duplicate generators as it drops any other duplicate.  A float
    tolerance above 1 makes 0 and the identity equal, and one above 1/2 can
    make a generator equal to an element of another rank (the projector of
    (1, 1) to 0): both are ``OutOfRange``.
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

    def insert(mat) -> int | None:
        """The index of an element equal to mat, or None after adding mat."""
        found = pool.lookup(mat)
        if found is not None:
            return found
        if len(elems) >= max_elements:
            raise ClosureBudgetExceeded(max_elements)
        proj = Projector(mat)
        pool.insert(mat)
        elems.append(proj)
        if len(elems) % PROGRESS_EVERY == 0:
            log(__name__, INFO, "closure reached %d elements", len(elems))

    insert(zero_projector(dim, backend, tol).mat)
    insert(identity_projector(dim, backend, tol).mat)
    if len(elems) == 1:
        raise OutOfRange(f"tolerance {tol!r} makes the identity equal to 0")
    for g in sorted(generators, key=lambda p: p.sort_key()):
        found = insert(g.mat)
        if found is not None and elems[found].rank != g.rank:
            raise OutOfRange(
                f"tolerance {tol!r} makes a generator of rank {g.rank} "
                f"equal to an element of rank {elems[found].rank}"
            )

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

    return QuantumSystem(elems)


def systems_equal(a: QuantumSystem, b: QuantumSystem) -> bool:
    """Set equality of elements under the backend's projector equality."""
    if a.backend != b.backend:
        raise BackendMismatch(f"{a.backend} vs {b.backend}")
    if a.dim != b.dim or len(a) != len(b):
        return False
    return all(b.contains(p) for p in a.elements)  # a system has no repeats
