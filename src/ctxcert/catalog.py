"""Built-in measurement scenarios: the 18-vector CEG square of contexts, its
17-vector remnant, its dimension lift, the twelve rank-2 generators, and the
five-vector pentagon scenario with its three-observable implementation.

Each ``BUILTINS`` entry is an ``io.Scenario`` like one read from a file: its
rays, the generators and the atom labels drawn from them.  The CLI builds
both kinds the same way.

Every fixture is verified at load time (basis orthogonality, incidence counts,
pentagon orthogonality ring), so a transcription slip fails loudly rather than
corrupting downstream verdicts.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import (
    CoverNotFound,
    DegenerateCoefficients,
    OrthogonalityCheckFailed,
    Record,
    set_field,
)
from .io import Scenario
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    DensityMatrix,
    Projector,
    complement,
    join,
    orthogonal,
)
from .systems import DEFAULT_MAX_ELEMENTS, QuantumSystem, generate_system
from .vectorsets import Basis, VectorSet, lift_ks_set

if TYPE_CHECKING:
    from .pasted import PastedPBA

# 18 rays in dimension 4, written without normalization.  Each ray sits in
# exactly two of the nine bases; the first basis is the one generated by
# (1,0,0,0), (0,1,0,0), (0,0,1,1), (0,0,1,-1).
_CEG_VECTORS: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 1),
    (0, 0, 1, -1),
    (0, 0, 0, 1),
    (0, 1, 1, 0),
    (0, 1, -1, 0),
    (1, -1, -1, 1),
    (1, -1, 1, -1),
    (1, 1, 0, 0),
    (1, 1, 1, 1),
    (1, 0, 0, -1),
    (1, 0, 1, 0),
    (1, 0, -1, 0),
    (0, 1, 0, -1),
    (1, -1, 1, 1),
    (1, -1, -1, -1),
    (1, 1, -1, 1),
)

_CEG_BASES: tuple[tuple[int, int, int, int], ...] = (
    (0, 1, 2, 3),
    (0, 4, 5, 6),
    (7, 8, 2, 9),
    (7, 10, 6, 11),
    (1, 4, 12, 13),
    (8, 10, 13, 14),
    (15, 16, 3, 9),
    (15, 17, 5, 11),
    (16, 17, 12, 14),
)


def _ray_name(vec: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in vec) + ")"


def ceg_set() -> VectorSet:
    """The 18-vector, 9-basis Kochen-Specker set in dimension 4."""
    names = [_ray_name(v) for v in _CEG_VECTORS]
    vs = VectorSet(
        4,
        names,
        _CEG_VECTORS,
        [Basis(b) for b in _CEG_BASES],
        backend=EXACT,
    )
    counts = [0] * len(_CEG_VECTORS)
    for b in _CEG_BASES:
        for i in b:
            counts[i] += 1
    if len(_CEG_VECTORS) != 18 or len(_CEG_BASES) != 9 or any(c != 2 for c in counts):
        raise OrthogonalityCheckFailed("CEG incidence structure is corrupted")
    return vs


CEG_REMOVED_VECTOR = _ray_name((1, 0, 0, 0))


def ceg_prime() -> VectorSet:
    """CEG with (1,0,0,0) removed; two contexts survive only as deficient."""
    return ceg_set().remove(CEG_REMOVED_VECTOR)


def twelve_generator_cover(vs: VectorSet | None = None) -> tuple[int, ...]:
    """Lexicographically first choice of 6 bases that jointly cover all rays
    of ``vs`` (default: the CEG set)."""
    vs = ceg_set() if vs is None else vs
    for cover in combinations(range(len(vs.bases)), 6):
        seen = set()
        for b in cover:
            seen.update(vs.bases[b].indices)
        if len(seen) == len(vs.vectors):
            return cover
    raise CoverNotFound("no 6-basis cover of the 18 rays exists; fixture corrupted")


def twelve_generators(vs: VectorSet | None = None) -> list[Projector]:
    """Two rank-2 projectors per covering context: a|b and b|c for atoms a,b,c,d.

    Twelve projectors generate the same system as the eighteen rank-1 rays
    because each chosen context's full Boolean block is recovered from its two
    generators, and the cover touches every ray.
    """
    vs = ceg_set() if vs is None else vs
    projs = vs.projectors()
    out = []
    for b in twelve_generator_cover(vs):
        a, bb, c, _ = vs.bases[b].indices
        out.append(join(projs[a], projs[bb]))
        out.append(join(projs[bb], projs[c]))
    return out


def lifted_ceg_set() -> VectorSet:
    """CEG embedded in dimension 5 together with the new axis ray."""
    return lift_ks_set(ceg_set(), new_name="kprime")


# -- pentagon scenario -------------------------------------------------------


def kcbs_vectors(tol: float = DEFAULT_TOL) -> VectorSet:
    """Five unnormalized rays whose orthogonality graph is the pentagon.

    v_j = (cos(4*pi*j/5), sin(4*pi*j/5), sqrt(cos(pi/5))); consecutive rays
    (mod 5) are orthogonal because cos(4*pi/5) = -cos(pi/5).
    """
    t = math.sqrt(math.cos(math.pi / 5))
    vectors = []
    for j in range(5):
        angle = 4.0 * math.pi * j / 5.0
        vectors.append((math.cos(angle), math.sin(angle), t))
    names = [f"P{j}" for j in range(5)]
    vs = VectorSet(3, names, vectors, bases=(), backend=FLOAT, tol=tol)
    expected = {tuple(sorted((f"P{j}", f"P{(j + 1) % 5}"))) for j in range(5)}
    if vs.orthogonal_names() != frozenset(expected):
        raise OrthogonalityCheckFailed(
            "pentagon orthogonality ring failed; vector transcription is wrong"
        )
    return vs


def kcbs_state(tol: float = DEFAULT_TOL) -> DensityMatrix:
    """The pure state (0, 0, 1) that maximally violates the pentagon bound."""
    return DensityMatrix.from_pure_vector([0.0, 0.0, 1.0], backend=FLOAT, tol=tol)


def kcbs_system(tol: float = DEFAULT_TOL, max_elements: int = DEFAULT_MAX_ELEMENTS) -> QuantumSystem:
    """The ``kcbs`` builtin's system at tolerance ``tol``: generated by the
    five pentagon rays, with all ten atoms labeled (``_pentagon``)."""
    generators, labels = _pentagon(kcbs_vectors(tol))
    return generate_system(generators, max_elements).with_atom_labels(labels)


KCBS_PENTAGON = tuple(f"P{j}" for j in range(5))
KCBS_COMPLETIONS = tuple(f"P{j}{(j + 1) % 5}" for j in range(5))


class Observable(Record):
    """Real eigenvalues attached to a complete family of orthogonal projectors."""

    __slots__ = ("name", "eigenvalues", "projectors", "event_labels")

    def __init__(
        self,
        name: str,
        eigenvalues: tuple[float, ...],
        projectors: tuple[Projector, ...],
        event_labels: tuple[str, ...],
    ):
        set_field(self, "name", name)
        set_field(self, "eigenvalues", eigenvalues)
        set_field(self, "projectors", projectors)
        set_field(self, "event_labels", event_labels)
        if len(set(eigenvalues)) != len(eigenvalues):
            raise DegenerateCoefficients(f"observable {name!r} repeats an eigenvalue")
        total = projectors[0]
        for p in projectors[1:]:
            total = join(total, p)
        if not total.is_identity():
            raise OrthogonalityCheckFailed(
                f"observable {name!r}: spectral projectors do not resolve identity"
            )
        for p, q in combinations(projectors, 2):
            if not orthogonal(p, q):
                raise OrthogonalityCheckFailed(f"observable {name!r}: spectral projectors overlap")

    def events(self) -> dict[float, str]:
        return dict(zip(self.eigenvalues, self.event_labels))


def three_observables(
    a: Sequence[float] = (1.0, 2.0, 3.0),
    b: Sequence[float] = (1.0, 2.0, 3.0),
    c: Sequence[float] = (1.0, -1.0),
    tol: float = DEFAULT_TOL,
) -> list[Observable]:
    """Three measurements that jointly observe all five pentagon rays.

    A resolves {P0, P4, P40}, B resolves {P1, P2, P12} and C is the dichotomic
    P3 versus its complement.
    """
    if len(a) != 3 or len(b) != 3 or len(c) != 2:
        raise DegenerateCoefficients("need 3, 3 and 2 outcome values")
    if len(set(a)) != 3 or len(set(b)) != 3 or len(set(c)) != 2:
        raise DegenerateCoefficients("outcome values must be distinct")
    vs = kcbs_vectors(tol)
    p = {name: vs.projector(name) for name in vs.names}
    p40 = complement(join(p["P4"], p["P0"]))
    p12 = complement(join(p["P1"], p["P2"]))
    obs_a = Observable("A", tuple(a), (p["P0"], p["P4"], p40), ("P0", "P4", "P40"))
    obs_b = Observable("B", tuple(b), (p["P1"], p["P2"], p12), ("P1", "P2", "P12"))
    obs_c = Observable(
        "C", tuple(c), (p["P3"], complement(p["P3"])), ("P3", "not-P3")
    )
    return [obs_a, obs_b, obs_c]


# -- abstract counterexample ---------------------------------------------------


def b2_pasted() -> PastedPBA:
    """Two three-atom contexts glued crosswise; transitivity and the
    exclusivity principle both fail on it.  Imports ``pasted`` on first use."""
    from .pasted import build_pasted_pba
    return build_pasted_pba(
        contexts=[("C1", ["a1", "b1", "x"]), ("C2", ["a2", "b2", "c"])],
        gluings=[
            (("C1", ["x"]), ("C2", ["a2", "b2"])),
            (("C1", ["a1", "b1"]), ("C2", ["c"])),
        ],
    )


# -- builtin scenarios -----------------------------------------------------------

# A builtin's generators and atom labels, drawn from its vector set.
Events = tuple[list[Projector], dict[str, Projector]]


def _rays(vs: VectorSet) -> Events:
    """Every ray is a generator and names its atom."""
    labels = dict(zip(vs.names, vs.projectors()))
    return list(labels.values()), labels


def _rank_two(vs: VectorSet) -> Events:
    """The twelve rank-2 generators; no atom is a generator, so none is named."""
    return twelve_generators(vs), {}


def _pentagon(vs: VectorSet) -> Events:
    """The five rays, naming their atoms, plus the five derived rank-1 atoms,
    the context completions P{i}{i+1} = not(P{i} or P{i+1})."""
    generators, labels = _rays(vs)
    for j in range(5):
        k = (j + 1) % 5
        labels[f"P{j}{k}"] = complement(join(labels[f"P{j}"], labels[f"P{k}"]))
    return generators, labels


class Builtin(Record):
    """A named scenario.  ``vector_set`` builds the rays alone (no projector);
    ``scenario`` adds the generators and atom labels drawn from them."""

    __slots__ = ("name", "description", "vector_set", "events")

    def __init__(
        self,
        name: str,
        description: str,
        vector_set: Callable[[], VectorSet],
        events: Callable[[VectorSet], Events],
    ):
        set_field(self, "name", name)
        set_field(self, "description", description)
        set_field(self, "vector_set", vector_set)
        set_field(self, "events", events)

    def scenario(self) -> Scenario:
        vs = self.vector_set()
        return Scenario(self.name, vs, *self.events(vs))

    def system(self, max_elements: int = DEFAULT_MAX_ELEMENTS) -> QuantumSystem:
        """The closure of the generators, named by the scenario's labels
        (``QuantumSystem.with_atom_labels``: a label outside the closure
        would name nothing).  Every builtin label names an atom, which the
        tests check."""
        scenario = self.scenario()
        return generate_system(scenario.generators, max_elements).with_atom_labels(scenario.labels)


BUILTINS: dict[str, Builtin] = {
    b.name: b
    for b in (
        Builtin(
            "ceg",
            "18 rays / 9 bases in dimension 4; no deterministic assignment exists",
            ceg_set,
            _rays,
        ),
        Builtin(
            "ceg17",
            "CEG minus (1,0,0,0); admits an assignment yet generates the same system",
            ceg_prime,
            _rays,
        ),
        Builtin(
            "ceg-lift",
            "CEG zero-padded into dimension 5 plus the new axis ray",
            lifted_ceg_set,
            _rays,
        ),
        Builtin(
            "ceg-gen12",
            "twelve rank-2 generators drawn from a 6-basis cover of CEG",
            ceg_set,
            _rank_two,
        ),
        Builtin(
            "kcbs",
            "five pentagon rays in dimension 3 with ten-atom closure",
            kcbs_vectors,
            _pentagon,
        ),
    )
}
