"""Named vector families with declared orthonormal bases, and the search for
deterministic 0/1 assignments on them.

A base removed of one vector stays in the structure as a deficient context: its
orthogonality constraints survive but the one-outcome-per-basis rule no longer
applies to it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    DimensionMismatch,
    OrthogonalityCheckFailed,
    OutOfRange,
    Record,
    UnknownElement,
    set_field,
)
from .graphs import DEFAULT_SEARCH_BUDGET, ZeroOneSearch
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    Projector,
    gaussian_integer_vector,
    gaussian_orthogonal,
    matrix_orthogonal,
    projector_from_gaussian,
    projector_from_vector,
)


class Basis(Record):
    """Indices of mutually orthogonal vectors; complete means it spans."""

    __slots__ = ("indices", "complete")

    def __init__(self, indices: tuple[int, ...], complete: bool = True):
        set_field(self, "indices", indices)
        set_field(self, "complete", complete)


class VectorSet:
    """Finite list of named vectors plus declared (possibly deficient) bases.

    Two rays are orthogonal when their projectors are: exactly <u, v> = 0 in
    Gaussian integers, and on the float backend PQ = 0 within tol entry by
    entry (``matrix_orthogonal``), the relation the closure and the atom
    graph use, whatever the length of the vectors.
    """

    def __init__(
        self,
        dim: int,
        names: Sequence[str],
        vectors: Sequence[Sequence],
        bases: Sequence[Basis] = (),
        backend: str = EXACT,
        tol: float = DEFAULT_TOL,
    ):
        if len(names) != len(vectors):
            raise DimensionMismatch("names and vectors differ in length")
        if len(set(names)) != len(names):
            raise UnknownElement("duplicate vector names")
        for name, vec in zip(names, vectors):
            if len(vec) != dim:
                raise DimensionMismatch(f"vector {name!r} is not {dim}-dimensional")
        self.dim = dim
        self.backend = backend
        self.tol = tol
        self.names = tuple(names)
        self.vectors = tuple(tuple(v) for v in vectors)
        self.bases = tuple(bases)
        self._index = {n: i for i, n in enumerate(self.names)}
        # Exact rays scaled once to Gaussian integers: orthogonality and the
        # projectors are then formed in integers.  Float rays are compared
        # through their projectors, built once here.
        self._gaussian = (
            [gaussian_integer_vector(v) for v in self.vectors] if backend == EXACT else None
        )
        self._float_projectors = (
            None
            if backend == EXACT
            else [projector_from_vector(v, backend, tol) for v in self.vectors]
        )
        self._orth = self._orthogonality_pairs()
        self._validate_bases()

    def _is_orthogonal(self, i: int, j: int) -> bool:
        if self._gaussian is not None:
            return gaussian_orthogonal(self._gaussian[i], self._gaussian[j])
        return matrix_orthogonal(self._float_projectors[i].mat, self._float_projectors[j].mat)

    def _orthogonality_pairs(self) -> frozenset[tuple[int, int]]:
        pairs = set()
        for i, j in combinations(range(len(self.vectors)), 2):
            if self._is_orthogonal(i, j):
                pairs.add((i, j))
        return frozenset(pairs)

    def _validate_bases(self) -> None:
        for basis in self.bases:
            idx = basis.indices
            if basis.complete and len(idx) != self.dim:
                raise OrthogonalityCheckFailed(
                    f"complete basis {idx} has {len(idx)} vectors, expected {self.dim}"
                )
            for i, j in combinations(sorted(idx), 2):
                if (i, j) not in self._orth:
                    raise OrthogonalityCheckFailed(
                        f"vectors {self.names[i]!r} and {self.names[j]!r} in a declared "
                        "basis are not orthogonal"
                    )

    def __len__(self) -> int:
        return len(self.vectors)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"no vector named {name!r}") from None

    def orthogonal_names(self) -> frozenset[tuple[str, str]]:
        return frozenset(
            tuple(sorted((self.names[i], self.names[j]))) for i, j in self._orth
        )

    def _projector_at(self, i: int) -> Projector:
        if self._gaussian is not None:
            return projector_from_gaussian(*self._gaussian[i])
        return self._float_projectors[i]

    def projector(self, name: str) -> Projector:
        return self._projector_at(self.index(name))

    def projectors(self) -> list[Projector]:
        return [self._projector_at(i) for i in range(len(self.vectors))]

    def remove(self, name: str) -> "VectorSet":
        """Drop one vector; bases that contained it become deficient contexts."""
        gone = self.index(name)
        keep = [i for i in range(len(self.vectors)) if i != gone]
        remap = {old: new for new, old in enumerate(keep)}
        bases = []
        for basis in self.bases:
            if gone in basis.indices:
                trimmed = tuple(remap[i] for i in basis.indices if i != gone)
                bases.append(Basis(trimmed, complete=False))
            else:
                bases.append(Basis(tuple(remap[i] for i in basis.indices), basis.complete))
        return VectorSet(
            self.dim,
            [self.names[i] for i in keep],
            [self.vectors[i] for i in keep],
            bases,
            self.backend,
            self.tol,
        )

    def __repr__(self) -> str:
        return f"VectorSet({len(self.vectors)} vectors, dim={self.dim}, {len(self.bases)} bases)"


class KSSearchResult(Record):
    """Assignment found, or a certified exhaustion of the search tree."""

    __slots__ = ("assignment", "nodes")

    def __init__(self, assignment: dict[str, int] | None, nodes: int):
        set_field(self, "assignment", assignment)
        set_field(self, "nodes", nodes)

    @property
    def found(self) -> bool:
        return self.assignment is not None


def ks_assignment_search(
    vs: VectorSet,
    budget: int = DEFAULT_SEARCH_BUDGET,
    forced: dict[str, int] | None = None,
) -> KSSearchResult:
    """Search for a 0/1 assignment with no two orthogonal 1s and exactly one 1
    per complete basis.

    Runs ``ZeroOneSearch`` over vectors in declared order, trying 1 before 0,
    so the first complete assignment found gives the 1 to the earliest
    vectors possible.  ``forced`` pins chosen vectors to 0 or 1 before the
    search starts (a conditioned search); a pin that contradicts the
    constraints ends the search with no assignment and 0 nodes.
    """
    seed = {}
    for name, value in (forced or {}).items():
        if value not in (0, 1):
            raise OutOfRange(f"forced value {value!r} for vector {name!r} is not 0 or 1")
        seed[vs.index(name)] = value
    n = len(vs.vectors)
    orth = [[] for _ in range(n)]
    for i, j in vs._orth:
        orth[i].append(j)
        orth[j].append(i)
    full_bases = [b.indices for b in vs.bases if b.complete]
    search = ZeroOneSearch(n, orth, full_bases, range(n), budget, seed)
    bits = next(iter(search), None)
    assignment = None if bits is None else dict(zip(vs.names, bits))
    return KSSearchResult(assignment, search.nodes)


def lift_ks_set(vs: VectorSet, new_name: str = "kprime") -> VectorSet:
    """Embed into one dimension higher and adjoin the new axis vector.

    Every vector is zero-padded, the added vector is orthogonal to all of
    them, and each complete basis is extended by it.
    """
    if new_name in vs.names:
        raise UnknownElement(f"name {new_name!r} already used")
    zero = Fraction(0) if vs.backend == EXACT else 0.0
    one = Fraction(1) if vs.backend == EXACT else 1.0
    vectors = [tuple(v) + (zero,) for v in vs.vectors]
    vectors.append((zero,) * vs.dim + (one,))
    names = list(vs.names) + [new_name]
    k = len(vs.vectors)
    bases = []
    for basis in vs.bases:
        if basis.complete:
            bases.append(Basis(tuple(basis.indices) + (k,), complete=True))
        else:
            bases.append(basis)
    return VectorSet(vs.dim + 1, names, vectors, bases, vs.backend, vs.tol)
