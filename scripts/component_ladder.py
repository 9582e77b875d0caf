"""End-to-end ladder for certification per connected component.

Writes exact scenario files in R^3.  On k = 3 unrelated bases it checks the
``--budget`` trip points of ``zero-one`` (42 search nodes: 15 for the three
triangles and one per listed product state) and ``build`` (15).  The same
rays in round-robin order give three components whose vertices interleave;
there it checks the ``zero-one`` listing, and that the weights ``analyze``
gives I/3 put 1/3 on every atom of that listing.  On k = 9 bases it checks
the ``zero-one --format json`` listing of 3**9 = 19,683 product states.  It
then analyzes five larger files under I/3 with

    python -m ctxcert.cli analyze FILE --state I/3 --format json

- Yu-Oh + 8: the 13 Yu-Oh rays and 8 unrelated bases.  The closure has
  25 + 24 atoms in 9 components and 24 * 3**8 = 157,464 0-1 states; I/3 is
  CONTEXTUAL.
- k = 12: 12 unrelated bases, 36 atoms in 12 triangles and 3**12 = 531,441
  0-1 states; I/3 is NONCONTEXTUAL and the scenario embeds (CLASSICAL).
- linked k = 6: the axes and 5 bases, each linked to the one before
  (``linked_bases``).  The atom graph is connected, with 23 atoms and 377
  0-1 states; I/3 is NONCONTEXTUAL and the scenario embeds (CLASSICAL).
- Yu-Oh + 3 linked: 3 such bases chained onto the Yu-Oh ray (1, 0, 0).  One
  component of 37 atoms and 440 0-1 states; I/3 is CONTEXTUAL.
- linked k = 7: the axes and 6 linked bases.  One component of 27 atoms and
  987 0-1 states, the size where the certificate LP starts to dominate a
  connected verdict; I/3 is NONCONTEXTUAL and the scenario embeds
  (CLASSICAL).

The connected rungs have one certificate LP over all their 0-1 states.

Each file is checked at generation by integer arithmetic that does not use
ctxcert: the closure's rays (orthogonal rays add their cross product), the
components of their orthogonality graph, and the 0-1 states of each
component (one 1 in every orthogonal triple).  The CLI's classification,
exit code and ``zero_one.count`` are then asserted, and each run's wall
time, process start included, is printed.  A ``zero-one`` listing is checked
the same way: its count, one 1 in every orthogonal triple of every state,
and the states' masks in ascending order.

Run from the repository root:  PYTHONPATH=src python scripts/component_ladder.py
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

YU_OH = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, -1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
]  # fmt: skip
AXES = YU_OH[:3]
EXIT = {"CLASSICAL": 0, "NONCLASSICAL_SCENARIO_ONLY": 10, "CONTEXTUAL": 20}


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def primitive(r):
    g = math.gcd(*r)
    r = tuple(x // g for x in r)
    return r if next(x for x in r if x) > 0 else tuple(-x for x in r)


def closed_rays(rays):
    """The atoms of the closure in R^3.  Two rays commute only when they are
    orthogonal, and then add the complement of their join, their cross
    product; planes meet in the cross product of their orthogonal normals."""
    out = {primitive(r) for r in rays}
    while True:
        new = {primitive(cross(u, v)) for u, v in combinations(out, 2) if dot(u, v) == 0}
        if new <= out:
            return sorted(out)
        out |= new


def unrelated_bases(k, avoid):
    """k orthogonal bases from integer quaternion rotations, none of whose rays
    is orthogonal or parallel to a ray of ``avoid`` or of another basis."""
    seen, out = list(avoid), []
    for a, b, c, d in product(range(1, 6), range(6), range(6), range(6)):
        if len(out) == 3 * k:
            return out
        if math.gcd(a, b, c, d) != 1:
            continue
        m = [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
        ]
        cols = [primitive([m[i][j] for i in range(3)]) for j in range(3)]
        if any(dot(u, v) == 0 or cross(u, v) == (0, 0, 0) for u in cols for v in seen):
            continue
        out += cols
        seen += cols
    raise SystemExit(f"found fewer than {k} unrelated bases")


def linked_bases(k, rays, link, reach=10):
    """k orthogonal bases (a, b, c) chained onto ``rays``, a closed set: a is
    orthogonal to ``link``, and the next basis's a to this basis's c.  The
    closure adds one ray per basis, x = cross(a, link), and no ray of a
    basis nor x is orthogonal or parallel to any other ray so far.  So the
    atom graph stays connected, each basis hanging on the one before by the
    triangle (link, a, x).  a and b have coordinates in -reach..reach."""
    box = sorted(product(range(-reach, reach + 1), repeat=3), key=lambda r: (max(map(abs, r)), r))
    box = [r for r in box if any(r) and primitive(r) == r]
    seen, out = list(rays), []

    def apart(new, old):
        return not any(dot(u, v) == 0 or cross(u, v) == (0, 0, 0) for u in new for v in old)

    for _ in range(k):
        for a in box:
            if dot(a, link):
                continue
            x = primitive(cross(a, link))
            if not apart([a, x], [u for u in seen if u != link]):
                continue
            pairs = ((b, primitive(cross(a, b))) for b in box if dot(a, b) == 0)
            bc = next((pair for pair in pairs if apart(pair, seen + [x])), None)
            if bc:
                break
        else:
            raise SystemExit(f"found fewer than {k} linked bases")
        out += [a, *bc]
        seen += [a, *bc, x]
        link = bc[1]
    return out


def round_robin(rays):
    """Rays given as consecutive orthogonal triples, reordered to take the
    first ray of every triple, then the second, then the third."""
    return [rays[b + i] for i in range(3) for b in range(0, len(rays), 3)]


def components(rays):
    """Components of the orthogonality graph, as sorted lists of ray indices."""
    parent = list(range(len(rays)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j in combinations(range(len(rays)), 2):
        if dot(rays[i], rays[j]) == 0:
            parent[find(i)] = find(j)
    parts: dict[int, list[int]] = {}
    for i in range(len(rays)):
        parts.setdefault(find(i), []).append(i)
    return list(parts.values())


def zero_one_count(rays, part):
    """Assignments of 0 and 1 to the rays of ``part`` with exactly one 1 in
    each orthogonal triple, by backtracking over the triples.  In a closure
    every orthogonal pair lies in a triple, so the triples are the contexts."""
    triples = [
        t
        for t in combinations(part, 3)
        if all(dot(rays[i], rays[j]) == 0 for i, j in combinations(t, 2))
    ]

    def count(k, ones, zeros):
        if k == len(triples):
            return 1
        t = triples[k]
        on = [i for i in t if i in ones]
        if len(on) > 1:
            return 0
        if on:
            return count(k + 1, ones, zeros | (set(t) - ones))
        total = 0
        for i in t:
            if i not in zeros:
                total += count(k + 1, ones | {i}, zeros | (set(t) - {i}))
        return total

    return count(0, frozenset(), frozenset())


def check_structure(name, rays, atoms, sizes, states):
    closed = closed_rays(rays)
    parts = components(closed)
    seen = sorted(len(p) for p in parts)
    count = math.prod(zero_one_count(closed, p) for p in parts)
    if (len(closed), seen, count) != (atoms, sorted(sizes), states):
        raise SystemExit(
            f"{name}: {len(closed)} atoms, components {seen}, {count} 0-1 states; "
            f"expected {atoms}, {sorted(sizes)}, {states}"
        )


def write_scenario(path, rays):
    doc = {
        "dimension": 3,
        "backend": "exact",
        "vectors": [{"name": f"r{i}", "entries": [str(x) for x in r]} for i, r in enumerate(rays)],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def ctxcert(*args):
    """The CLI run on ``args`` in a new process, and its wall time."""
    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "ctxcert.cli", *map(str, args)]
    proc = subprocess.run(argv, capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def analyze(scenario, state):
    proc, wall = ctxcert("analyze", scenario, "--state", state, "--format", "json")
    if proc.returncode == 1 or not proc.stdout.strip():
        raise SystemExit(f"{scenario.name}: exit {proc.returncode}\n{proc.stderr}")
    return proc.returncode, json.loads(proc.stdout), wall


def zero_one_listing(scenario, rays, *options):
    """``zero-one`` on k unrelated bases, ``rays`` named r0, r1, ... in order:
    3**k states, each with exactly one 1 in every orthogonal triple, whose
    masks (the value tuples in ``atom_order`` read in binary) ascend."""
    proc, wall = ctxcert("zero-one", scenario, "--format", "json", *options)
    if proc.returncode != 0:
        raise SystemExit(f"{scenario.name}: zero-one {options}: exit {proc.returncode}\n{proc.stderr}")
    listing = json.loads(proc.stdout)["zero_one"]
    order = listing["atom_order"]
    if sorted(order) != sorted(f"r{i}" for i in range(len(rays))):
        raise SystemExit(f"{scenario.name}: zero-one: atom order {order}")
    bit = {a: 1 << len(order) - 1 - i for i, a in enumerate(order)}
    masks = [sum(bit[a] for a in set(ones)) for ones in listing["states"]]
    triples = [
        sum(bit[f"r{i}"] for i in t)
        for t in combinations(range(len(rays)), 3)
        if all(dot(rays[i], rays[j]) == 0 for i, j in combinations(t, 2))
    ]
    one_per_triple = all((mask & t).bit_count() == 1 for mask in masks for t in triples)
    ascending = all(a < b for a, b in zip(masks, masks[1:]))
    want = (3 ** (len(rays) // 3), True, True)
    if (len(masks), one_per_triple, ascending) != want:
        raise SystemExit(
            f"{scenario.name}: zero-one: {len(masks)} states, one 1 per orthogonal triple "
            f"{one_per_triple}, ascending {ascending}; expected {want}"
        )
    return listing, wall


def check_zero_one_budget(scenario, rays):
    """``zero-one`` on k = 3 bases lists the 27 products of the three
    triangles for 15 component search nodes plus one node per listed state:
    it passes at ``--budget 42`` and fails at 41, while ``build``, which
    lists no product, passes at 15."""
    _, wall = zero_one_listing(scenario, rays, "--budget", 42)
    proc, _ = ctxcert("zero-one", scenario, "--format", "json", "--budget", 41)
    want = "error: search explored 42 nodes, budget 41\n"
    if (proc.returncode, proc.stderr) != (1, want):
        raise SystemExit(f"zero-one --budget 41: exit {proc.returncode}, {proc.stderr!r}")
    proc, _ = ctxcert("build", scenario, "--format", "json", "--budget", 15)
    if proc.returncode != 0:
        raise SystemExit(f"build --budget 15: exit {proc.returncode}\n{proc.stderr}")
    print(f"k=3: zero-one lists 27 states at --budget 42, not at 41, {wall:.2f} s")


def check_interleaved(scenario, rays, state):
    """On interleaved components ``zero-one`` lists as on any other file, and
    the weights ``analyze`` gives I/3, keyed by position in that listing, put
    1/3 on every atom: CLASSICAL, exit 0."""
    listing, _ = zero_one_listing(scenario, rays)
    code, report, wall = analyze(scenario, state)
    weights = {int(k): Fraction(w) for k, w in report["state_verdict"]["weights"].items()}
    mass = {
        sum(w for k, w in weights.items() if atom in listing["states"][k])
        for atom in listing["atom_order"]
    }
    if (report["classification"], code, mass) != ("CLASSICAL", 0, {Fraction(1, 3)}):
        raise SystemExit(f"{scenario.name}: {report['classification']}, exit {code}, masses {mass}")
    print(f"k=3 round robin: 27 states, I/3 CLASSICAL with 1/3 on every atom, {wall:.2f} s")


def main() -> int:
    yu_oh_closed = closed_rays(YU_OH)
    rungs = [
        ("yu-oh+8", YU_OH + unrelated_bases(8, yu_oh_closed), 49, [25] + [3] * 8, 24 * 3**8,
         "CONTEXTUAL", "CONTEXTUAL"),
        ("k=12", AXES + unrelated_bases(11, AXES), 36, [3] * 12, 3**12,
         "NONCONTEXTUAL", "CLASSICAL"),
        ("linked k=6", AXES + linked_bases(5, AXES, AXES[2]), 23, [23], 377,
         "NONCONTEXTUAL", "CLASSICAL"),
        ("yu-oh+3 linked", YU_OH + linked_bases(3, yu_oh_closed, YU_OH[0]), 37, [37], 440,
         "CONTEXTUAL", "CONTEXTUAL"),
        ("linked k=7", AXES + linked_bases(6, AXES, AXES[2]), 27, [27], 987,
         "NONCONTEXTUAL", "CLASSICAL"),
    ]  # fmt: skip
    with tempfile.TemporaryDirectory() as tmp:
        rays = AXES + unrelated_bases(2, AXES)
        check_structure("k=3", rays, 9, [3] * 3, 27)
        check_zero_one_budget(write_scenario(Path(tmp, "k=3.json"), rays), rays)
        state = Path(tmp, "mixed3.json")
        rho = [["1/3" if i == j else "0" for j in range(3)] for i in range(3)]
        state.write_text(json.dumps({"density": rho}), encoding="utf-8")
        mixed = round_robin(rays)
        check_structure("k=3 round robin", mixed, 9, [3] * 3, 27)
        interleaved = [[b, b + 3, b + 6] for b in range(3)]
        if components(mixed) != interleaved:
            raise SystemExit(f"k=3 round robin: components {components(mixed)}")
        check_interleaved(write_scenario(Path(tmp, "k=3-rr.json"), mixed), mixed, state)
        rays = AXES + unrelated_bases(8, AXES)
        check_structure("k=9", rays, 27, [3] * 9, 3**9)
        _, wall = zero_one_listing(write_scenario(Path(tmp, "k=9.json"), rays), rays)
        print(f"k=9: zero-one lists {3**9} states, {wall:.2f} s")
        for name, rays, atoms, sizes, states, verdict, label in rungs:
            check_structure(name, rays, atoms, sizes, states)
            code, report, wall = analyze(write_scenario(Path(tmp, f"{name}.json"), rays), state)
            got = (
                report["system"]["atoms"],
                report["zero_one"]["count"],
                report["state_verdict"]["verdict"],
                report["classification"],
                code,
            )
            want = (atoms, states, verdict, label, EXIT[label])
            if got != want:
                raise SystemExit(f"{name}: {got}, expected {want}")
            print(f"{name}: {states} 0-1 states, {label}, exit {code}, {wall:.2f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
