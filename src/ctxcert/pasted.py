"""Abstract event algebras presented as Boolean contexts glued along shared elements.

Each context is a named finite set of local atoms; its elements are all subsets
of those atoms, held as ``(context index, mask)`` with atom j of the context as
bit ``1 << j``.  Gluings identify elements across contexts (atoms with equal
names are identified automatically).  The identification is closed under
complement and under pairwise meet/join of already-identified elements, then
validated.  This representation hosts structures that no projector family can
realize, which is exactly what makes it useful as a counterexample bench.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from .errors import (
    Incompatible,
    InconsistentGluing,
    NotAGraphState,
    NotAPBA,
    Record,
    UnknownElement,
    set_field,
)
from .graphs import ExclusivityGraph
from .systems import first_lep_violation, first_transitivity_violation

Local = tuple[int, int]

MAX_CONTEXT_ATOMS = 12
# Pairwise-compatible sets up to this size are checked for a common context.
AXIOM_CHECK_SIZE = 4


class CheckResult(Record):
    """Outcome of a structural law check; violation holds the first offender."""

    __slots__ = ("holds", "violation")

    def __init__(self, holds: bool, violation: tuple | None = None):
        set_field(self, "holds", holds)
        set_field(self, "violation", violation)


class AxiomReport(Record):
    """How far the pairwise-compatibility axiom was verified exhaustively;
    ``subsets_checked`` counts the sets of distinct context masks tested."""

    __slots__ = ("verified_up_to_size", "subsets_checked")

    def __init__(self, verified_up_to_size: int, subsets_checked: int):
        set_field(self, "verified_up_to_size", verified_up_to_size)
        set_field(self, "subsets_checked", subsets_checked)


class PastedPBA:
    """A pasted partial Boolean algebra with named global elements."""

    def __init__(
        self,
        contexts: Sequence[tuple[str, Sequence[str]]],
        gluings: Iterable[tuple[tuple[str, Sequence[str]], tuple[str, Sequence[str]]]] = (),
    ):
        if not contexts:
            raise NotAPBA("at least one context is required")
        self.context_names = tuple(name for name, _ in contexts)
        if len(set(self.context_names)) != len(self.context_names):
            raise InconsistentGluing("duplicate context names")
        self.context_atoms: list[tuple[str, ...]] = []
        for name, atoms in contexts:
            atoms = tuple(atoms)
            if not atoms:
                raise NotAPBA(f"context {name!r} has no atoms")
            if len(set(atoms)) != len(atoms):
                raise InconsistentGluing(f"context {name!r} repeats an atom name")
            if len(atoms) > MAX_CONTEXT_ATOMS:
                raise NotAPBA(f"context {name!r} exceeds {MAX_CONTEXT_ATOMS} atoms")
            self.context_atoms.append(atoms)
        self._ctx_index = {n: i for i, n in enumerate(self.context_names)}
        self._full = [(1 << len(atoms)) - 1 for atoms in self.context_atoms]

        # Keys by subset size, then in combinations order: classes and their
        # members are listed in this order, which fixes the error messages.
        self._parent: dict[Local, Local] = {}
        for i, atoms in enumerate(self.context_atoms):
            for r in range(len(atoms) + 1):
                for sub in combinations(range(len(atoms)), r):
                    loc = (i, sum(1 << j for j in sub))
                    self._parent[loc] = loc

        # Distinguished identifications: all empty subsets, all full subsets,
        # and same-named atoms across contexts.
        for i in range(1, len(self.context_atoms)):
            self._union((0, 0), (i, 0))
            self._union((0, self._full[0]), (i, self._full[i]))
        by_name: dict[str, Local] = {}
        for i, atoms in enumerate(self.context_atoms):
            for j, a in enumerate(atoms):
                self._union(by_name.setdefault(a, (i, 1 << j)), (i, 1 << j))

        for (cname1, sub1), (cname2, sub2) in gluings:
            self._union(self._local(cname1, sub1), self._local(cname2, sub2))

        self._close()
        self._validate_consistency()
        self._build_catalog()
        self._order_rows: list[int] | None = None
        self.axiom_report = self._check_axiom()

    # -- union-find ---------------------------------------------------------

    def _local(self, context: str, atoms: Sequence[str]) -> Local:
        if context not in self._ctx_index:
            raise UnknownElement(f"unknown context {context!r}")
        i = self._ctx_index[context]
        names, atoms = self.context_atoms[i], set(atoms)
        if not atoms <= set(names):
            raise UnknownElement(f"{sorted(atoms)} not within context {context!r}")
        return (i, sum(1 << names.index(a) for a in atoms))

    def _atom_names(self, i: int, sub: int) -> list[str]:
        """The names of the atoms of local subset ``sub`` of context i, sorted."""
        return sorted(a for j, a in enumerate(self.context_atoms[i]) if sub >> j & 1)

    def _find(self, x: Local) -> Local:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def _union(self, x: Local, y: Local) -> bool:
        rx, ry = self._find(x), self._find(y)
        if rx == ry:
            return False
        if ry < rx:
            rx, ry = ry, rx
        self._parent[ry] = rx
        return True

    def _classes(self) -> dict[Local, list[Local]]:
        groups: dict[Local, list[Local]] = {}
        for loc in self._parent:
            groups.setdefault(self._find(loc), []).append(loc)
        return groups

    def _complement_local(self, loc: Local) -> Local:
        i, sub = loc
        return (i, sub ^ self._full[i])

    def _cross_pairs(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """The identified subsets (x, y) of each pair of contexts i < j."""
        cross: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for members in self._classes().values():
            for (i, x), (j, y) in combinations(sorted(members), 2):
                if i != j:
                    cross.setdefault((i, j), []).append((x, y))
        return cross

    def _close(self) -> None:
        # Fixpoint closure: identified elements force identified complements,
        # and identified pairs within one context pair force identified
        # meets/joins.  Each round reads the classes once; a round that
        # changes nothing proves the fixpoint, and ``_union`` keeps each class
        # minimum as its root, so the result does not depend on the order.
        changed = True
        while changed:
            changed = False
            for (i, j), pairs in self._cross_pairs().items():
                for x, y in pairs:
                    changed |= self._union(self._complement_local((i, x)), self._complement_local((j, y)))
                for (x1, y1), (x2, y2) in combinations(pairs, 2):
                    changed |= self._union((i, x1 & x2), (j, y1 & y2))
                    changed |= self._union((i, x1 | x2), (j, y1 | y2))

    def _validate_consistency(self) -> None:
        for members in self._classes().values():
            per_ctx: dict[int, int] = {}
            for i, sub in members:
                if i in per_ctx and per_ctx[i] != sub:
                    raise InconsistentGluing(
                        f"context {self.context_names[i]!r} identifies distinct subsets "
                        f"{self._atom_names(i, per_ctx[i])} and {self._atom_names(i, sub)}"
                    )
                per_ctx[i] = sub
        # Order agreement on shared pairs follows from the meet/join closure,
        # but check it explicitly so a failure names the offending pair.
        for (i, j), pairs in self._cross_pairs().items():
            for (x1, y1), (x2, y2) in combinations(pairs, 2):
                if (not x1 & ~x2) != (not y1 & ~y2):
                    xs, ys = self._atom_names(i, x1), self._atom_names(i, x2)
                    raise InconsistentGluing(
                        f"order disagreement between contexts {self.context_names[i]!r} "
                        f"and {self.context_names[j]!r}: {xs}<={ys} but not "
                        f"{self._atom_names(j, y1)}<={self._atom_names(j, y2)}"
                    )

    # -- global element catalog ---------------------------------------------

    def _name_for(self, rep: Local) -> str:
        i, sub = rep
        if not sub:
            return "0"
        if sub == self._full[i]:
            return "1"
        return "|".join(self._atom_names(i, sub))

    def _build_catalog(self) -> None:
        def key(loc: Local) -> tuple:
            return (loc[1].bit_count(), self._atom_names(*loc), loc[0])

        groups = self._classes()
        reps = {root: min(members, key=key) for root, members in groups.items()}
        order = sorted(groups, key=lambda r: key(reps[r]))
        self._root_pos = {root: k for k, root in enumerate(order)}
        self._reps = [reps[root] for root in order]
        self._members = [sorted(groups[root]) for root in order]
        self.element_names = tuple(self._name_for(reps[root]) for root in order)
        if len(set(self.element_names)) != len(self.element_names):
            raise InconsistentGluing("element naming collision; gluing is malformed")
        self._by_name = {n: k for k, n in enumerate(self.element_names)}
        # Per element: context -> local subset, and the mask of its contexts.
        self._subsets = [dict(members) for members in self._members]
        self._contexts = [sum(1 << i for i in subsets) for subsets in self._subsets]
        self._comp = [
            self._root_pos[self._find(self._complement_local(self._reps[k]))]
            for k in range(len(order))
        ]

    def _idx(self, name: str) -> int:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownElement(f"no element named {name!r}") from None

    def element_of(self, context: str, atoms: Sequence[str]) -> str:
        """Name of the global element given by a local subset."""
        root = self._find(self._local(context, atoms))
        return self.element_names[self._root_pos[root]]

    # -- relations ------------------------------------------------------------

    def _compatible_idx(self, a: int, b: int) -> bool:
        return bool(self._contexts[a] & self._contexts[b])

    def leq(self, x: str, y: str) -> bool:
        """x <= y: some context contains both with the subset inclusion."""
        return bool(self._order()[self._idx(x)] >> self._idx(y) & 1)

    def compatible(self, x: str, y: str) -> bool:
        """Compatibility is co-residence in at least one context."""
        return self._compatible_idx(self._idx(x), self._idx(y))

    def complement_of(self, x: str) -> str:
        return self.element_names[self._comp[self._idx(x)]]

    def meet_of(self, x: str, y: str) -> str:
        return self._in_first_shared_context(x, y, and_)

    def join_of(self, x: str, y: str) -> str:
        return self._in_first_shared_context(x, y, or_)

    def _in_first_shared_context(self, x: str, y: str, op) -> str:
        """``op`` of the subsets of x and y in the first context they share."""
        a, b = self._idx(x), self._idx(y)
        shared = self._contexts[a] & self._contexts[b]
        if not shared:
            raise Incompatible(f"{x!r} and {y!r} share no context")
        i = (shared & -shared).bit_length() - 1
        root = self._find((i, op(self._subsets[a][i], self._subsets[b][i])))
        return self.element_names[self._root_pos[root]]

    def _order(self) -> list[int]:
        """Order rows, bit b of row a iff a <= b, ORed over the contexts: in
        each, the elements on the supersets of a's subset."""
        if self._order_rows is None:
            rows = [0] * len(self._reps)
            for i, full in enumerate(self._full):
                elem = [self._root_pos[self._find((i, sub))] for sub in range(full + 1)]
                up = [1 << k for k in elem]
                for bit in (1 << j for j in range(full.bit_length())):
                    for sub in range(full + 1):
                        if sub & bit:
                            up[sub ^ bit] |= up[sub]
                for sub, k in enumerate(elem):
                    rows[k] |= up[sub]
            self._order_rows = rows
        return self._order_rows

    def exclusive(self, x: str, y: str) -> bool:
        """Some c has x <= c and y <= not-c."""
        rows = self._order()
        row, above_y = rows[self._idx(x)], rows[self._idx(y)]
        return any(row >> c & 1 and above_y >> k & 1 for c, k in enumerate(self._comp))

    # -- law checks -----------------------------------------------------------

    def _result(self, violation: tuple | None) -> CheckResult:
        if violation is None:
            return CheckResult(True)
        return CheckResult(False, tuple(self.element_names[k] for k in violation))

    def check_lep(self) -> CheckResult:
        """First pair that is exclusive yet incompatible, in canonical order."""
        return self._result(first_lep_violation(self._order(), self._comp, self._compatible_idx)[0])

    def check_transitivity(self) -> CheckResult:
        """First chain x <= y <= z with x not below z, in canonical order."""
        return self._result(first_transitivity_violation(self._order())[0])

    def _check_axiom(self) -> AxiomReport:
        # Bounded verification of the defining axiom: every pairwise-compatible
        # set of elements must sit inside one context (sizes <= 2 hold by the
        # definition).  A set is decided by its context masks, so the walk is
        # over distinct masks of two or more bits, each named by its first
        # element: a repeated mask adds no violation, nor does a one-context
        # mask, whose context every compatible partner shares.
        first: dict[int, int] = {}
        for k, mask in enumerate(self._contexts):
            if mask & (mask - 1):
                first.setdefault(mask, k)
        if len(first) > 64:
            return AxiomReport(verified_up_to_size=2, subsets_checked=0)
        checked = 0
        top = min(AXIOM_CHECK_SIZE, len(self.element_names))
        for size in range(3, top + 1):
            for combo in combinations(first, size):
                if any(not a & b for a, b in combinations(combo, 2)):
                    continue
                checked += 1
                if not reduce(and_, combo):
                    raise NotAPBA(
                        "pairwise-compatible set with no common context: "
                        f"{[self.element_names[first[mask]] for mask in combo]}"
                    )
        return AxiomReport(verified_up_to_size=top, subsets_checked=checked)

    # -- atoms ----------------------------------------------------------------

    def _atom_indices(self) -> list[int]:
        """The elements that are one local atom in every context holding them:
        only 0 lies below one, and any other nonzero element has a distinct
        local atom below it."""
        return [k for k, subsets in enumerate(self._subsets)
                if all(sub.bit_count() == 1 for sub in subsets.values())]

    def atoms(self) -> tuple[str, ...]:
        return tuple(self.element_names[k] for k in self._atom_indices())

    def atom_graph(self) -> ExclusivityGraph:
        names, atoms = self.element_names, self._atom_indices()
        pairs = [(a, b) for a, b in combinations(atoms, 2) if self._compatible_idx(a, b)]
        return ExclusivityGraph([names[a] for a in atoms], [(names[a], names[b]) for a, b in pairs])

    def state(self, atom_values: Mapping[str, object]) -> "PastedState":
        return PastedState(self, atom_values)

    def __repr__(self) -> str:
        return (
            f"PastedPBA({len(self.context_names)} contexts, "
            f"{len(self.element_names)} elements)"
        )


class PastedState:
    """Per-context probability measures that agree on every glued element."""

    def __init__(self, pba: PastedPBA, atom_values: Mapping[str, object]):
        self.pba = pba
        self.atom_values = {k: Fraction(v) for k, v in atom_values.items()}
        for i, atoms in enumerate(pba.context_atoms):
            missing = [a for a in atoms if a not in self.atom_values]
            if missing:
                raise NotAGraphState(f"missing values for atoms {missing}")
            if any(self.atom_values[a] < 0 for a in atoms):
                raise NotAGraphState("negative atom value")
            if sum(self.atom_values[a] for a in atoms) != 1:
                raise NotAGraphState(
                    f"context {pba.context_names[i]!r} mass differs from 1"
                )
        # Local consistency: every representation of a glued element carries
        # the same mass.
        for k, members in enumerate(pba._members):
            vals = {sum(self.atom_values[a] for a in pba._atom_names(i, sub)) for i, sub in members}
            if len(vals) > 1:
                raise NotAGraphState(
                    f"element {pba.element_names[k]!r} has inconsistent mass {sorted(vals)}"
                )

    def value(self, element: str) -> Fraction:
        i, sub = self.pba._reps[self.pba._idx(element)]
        return sum((self.atom_values[a] for a in self.pba._atom_names(i, sub)), Fraction(0))


def build_pasted_pba(
    contexts: Sequence[tuple[str, Sequence[str]]],
    gluings: Iterable[tuple[tuple[str, Sequence[str]], tuple[str, Sequence[str]]]] = (),
) -> PastedPBA:
    """Construct and validate a pasted structure; raises on any broken invariant."""
    return PastedPBA(contexts, gluings)
