"""Input generators for the benchmark.

Every ray family is checked at generation time (declared bases orthogonal,
orthogonality-graph sizes as published), so a transcription slip fails loudly
instead of turning into a wrong known answer.  Random inputs come only from a
``random.Random`` seeded by the caller.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import combinations, permutations, product
from pathlib import Path


class InputError(RuntimeError):
    """A generated input failed its own consistency check."""


def _dot(u, v):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(u, v))


def _parallel(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i, j in combinations(range(len(u)), 2))


def _check_bases(name: str, rays, bases) -> None:
    for basis in bases:
        if len(basis) != len(rays[0]):
            raise InputError(f"{name}: basis {basis} does not span")
        for i, j in combinations(basis, 2):
            if _dot(rays[i], rays[j]) != 0:
                raise InputError(f"{name}: rays {rays[i]} and {rays[j]} are not orthogonal")


def _orthogonal_pairs(rays) -> int:
    return sum(1 for u, v in combinations(rays, 2) if _dot(u, v) == 0)


def _complete_bases(rays) -> list[tuple[int, ...]]:
    d = len(rays[0])
    return [
        c
        for c in combinations(range(len(rays)), d)
        if all(_dot(rays[i], rays[j]) == 0 for i, j in combinations(c, 2))
    ]


# -- ray families ----------------------------------------------------------------


def catalog_family(builtin: str):
    """(rays, bases) of a ctxcert builtin (ceg, ceg17, ceg-lift), re-checked here."""
    from ctxcert.catalog import BUILTINS

    vs = BUILTINS[builtin].vector_set()
    rays = [tuple(Fraction(x) for x in v) for v in vs.vectors]
    bases = [b.indices for b in vs.bases if b.complete]
    _check_bases(builtin, rays, bases)
    return rays, bases


def peres24():
    """Peres's 24 rays in d=4 (J. Phys. A 24, L175, 1991), from the closed form:
    4 axis rays, 12 of the form (1,+-1,0,0), 8 of the form (1,+-1,+-1,+-1).
    They form 24 orthogonal tetrads, each ray lying in 4 of them.
    """
    rays = []
    for i in range(4):
        rays.append(tuple(1 if k == i else 0 for k in range(4)))
    for i, j in combinations(range(4), 2):
        for s in (1, -1):
            rays.append(tuple(1 if k == i else s if k == j else 0 for k in range(4)))
    for signs in product((1, -1), repeat=3):
        rays.append((1, *signs))
    bases = _complete_bases(rays)
    if len(rays) != 24 or len(set(rays)) != 24 or len(bases) != 24:
        raise InputError(f"Peres: {len(rays)} rays, {len(bases)} tetrads; expected 24 and 24")
    _check_bases("Peres", rays, bases)
    return rays, bases


def peres_lattice_size(rays) -> int:
    """Elements of the orthomodular lattice the rays generate, counted with
    integer Pluecker coordinates: 0 and 1, the rays and their rank-3
    complements, and the distinct planes spanned by orthogonal ray pairs.
    Valid for d=4 families whose orthogonal pairs extend to tetrads in the
    family (true for Peres), so every plane's complement is such a plane too.
    """
    planes = set()
    for u, v in combinations(rays, 2):
        if _dot(u, v) != 0:
            continue
        coords = [u[i] * v[j] - u[j] * v[i] for i, j in combinations(range(4), 2)]
        g = 0
        for c in coords:
            g = math.gcd(g, c)
        lead = next(c for c in coords if c)
        sign = 1 if lead > 0 else -1
        planes.add(tuple(sign * c // g for c in coords))
    return 2 + 2 * len(rays) + len(planes)


def yu_oh13():
    """Yu and Oh's 13 rays in d=3 (PRL 108, 030402, 2012): 3 axis rays,
    6 rays (0,1,+-1)-type, 4 rays (+-1,1,1)-type.  Orthogonality graph: 24 edges.
    """
    z = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    y = [(0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, -1, 0)]
    h = [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1)]
    rays = z + y + h
    if _orthogonal_pairs(rays) != 24:
        raise InputError("Yu-Oh: orthogonality graph does not have 24 edges")
    bases = _complete_bases(rays)
    _check_bases("Yu-Oh", rays, bases)
    return rays, bases


def _quaternion_rotation(a: int, b: int, c: int, d: int):
    """Columns of (a^2+b^2+c^2+d^2) * R(q): an orthogonal integer basis of Z^3."""
    m = [
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ]
    cols = []
    for j in range(3):
        col = [m[i][j] for i in range(3)]
        g = 0
        for x in col:
            g = math.gcd(g, x)
        cols.append(tuple(x // g for x in col))
    return cols


def k_bases(k: int):
    """k orthonormal bases of R^3 from integer quaternion rotations, taken in a
    fixed search order.  No ray of one basis is orthogonal or parallel to a ray
    of another, so the bases pairwise share no commuting projector and the
    closure is exactly the 6k+2 elements 0, 1, 3k rays and 3k planes.
    """
    rays: list[tuple[int, ...]] = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    bases = [(0, 1, 2)]
    span = range(0, 4)
    for q in product(span, repeat=4):
        if len(bases) == k:
            break
        if q[0] == 0 or math.gcd(*q) != 1:
            continue
        cols = _quaternion_rotation(*q)
        if any(_dot(u, v) == 0 or _parallel(u, v) for u in cols for v in rays):
            continue
        bases.append(tuple(range(len(rays), len(rays) + 3)))
        rays.extend(cols)
    if len(bases) != k:
        raise InputError(f"k-bases: found only {len(bases)} bases")
    _check_bases(f"k-bases k={k}", rays, bases)
    for bi, bj in combinations(bases, 2):
        for i in bi:
            for j in bj:
                if _dot(rays[i], rays[j]) == 0 or _parallel(rays[i], rays[j]):
                    raise InputError("k-bases: rays of different bases commute")
    return rays, bases


# -- states --------------------------------------------------------------------


def maximally_mixed(d: int):
    return [[Fraction(1, d) if i == j else Fraction(0) for j in range(d)] for i in range(d)]


# Signed permutations of (1,2,2) and (2,3,6): integer rays of norm 9 and 49, so
# random states drawn from them keep the same denominators and similar LP cost.
_STATE_RAYS = sorted(
    {
        tuple(s * x for s, x in zip(signs, perm))
        for base in ((1, 2, 2), (2, 3, 6))
        for perm in permutations(base)
        for signs in product((1, -1), repeat=3)
    }
)


def random_rational_density(rng):
    """A full-rank rational 3x3 density matrix I/6 + (P(u) + P(v))/4 for two
    seeded rays u, v of ``_STATE_RAYS``."""
    rho = [[x / 2 for x in row] for row in maximally_mixed(3)]
    for _ in range(2):
        v = rng.choice(_STATE_RAYS)
        norm = sum(x * x for x in v)
        for i, j in product(range(3), repeat=2):
            rho[i][j] += Fraction(v[i] * v[j], 4 * norm)
    if sum(rho[i][i] for i in range(3)) != 1:
        raise InputError("random density matrix does not have unit trace")
    return rho


def kcbs_noise_grid(rng, below: int, above: int) -> list[float]:
    """White-noise weights w, ``below`` of them under the pentagon threshold
    w* = (sqrt5-2)/(sqrt5-5/3) and ``above`` over it, all at least 0.02 away."""
    w_star = (math.sqrt(5) - 2) / (math.sqrt(5) - 5 / 3)
    lo = [round(rng.uniform(0.0, w_star - 0.02), 6) for _ in range(below)]
    hi = [round(rng.uniform(w_star + 0.02, 1.0), 6) for _ in range(above)]
    return lo + hi


# -- scenario and state JSON ---------------------------------------------------------


def _entry(x) -> dict:
    return {"re": str(Fraction(x))}


def scenario_doc(rays, bases) -> dict:
    names = [f"r{i}" for i in range(len(rays))]
    return {
        "dimension": len(rays[0]),
        "backend": "exact",
        "vectors": [
            {"name": n, "entries": [_entry(x) for x in r]} for n, r in zip(names, rays)
        ],
        "bases": [[names[i] for i in b] for b in bases],
    }


def density_doc(rho, decimal: bool = False) -> dict:
    if decimal:
        return {"density": [[{"re": repr(float(x))} for x in row] for row in rho]}
    return {"density": [[_entry(x) for x in row] for row in rho]}


def write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def scramble(rng, rays, bases):
    """The same family with rays in a seeded order and scaled by seeded nonzero
    integers; the projectors, and so every answer, are unchanged."""
    order = list(range(len(rays)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    scales = [rng.choice((1, -1, 2, -2, 3)) for _ in order]
    out = [tuple(c * x for x in rays[old]) for c, old in zip(scales, order)]
    return out, [tuple(sorted(where[i] for i in b)) for b in bases]


def ceg17_removed_ray_is_implied() -> None:
    """CEG17 drops (1,0,0,0); its kept basis-mates (0,1,0,0), (0,0,1,1),
    (0,0,1,-1) are mutually orthogonal and orthogonal to it, so the closure
    regenerates it as the complement of their join."""
    mates = [(0, 1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)]
    kept, _ = catalog_family("ceg17")
    if not all(m in kept for m in mates) or (1, 0, 0, 0) in kept:
        raise InputError("CEG17 does not keep the basis-mates of (1,0,0,0)")
    _check_bases("CEG17 mates", mates + [(1, 0, 0, 0)], [(0, 1, 2, 3)])
