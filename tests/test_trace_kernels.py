"""The trace kernels against a product-based reference kept only here.

The reference decides order, orthogonality and commutation by forming the
products (PQ = P, PQ = 0, PQ = QP) and closes generators with two products per
pair, deduplicating through a linear-scan pool.  Order tables, atoms,
atom-graph edges, closed element lists (in insertion order) and atomic
decompositions (found by adding atom matrices) must come out identical to it.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ctxcert.systems as systems_module
from ctxcert.catalog import BUILTINS, ceg_set
from ctxcert.cli import main
from ctxcert.errors import ClosureBudgetExceeded, NoDecomposition
from ctxcert.linalg import (
    CO_ORTHOGONAL,
    FLOAT,
    INCOMPATIBLE,
    ORDERED,
    ORTHOGONAL,
    UNDECIDED,
    ExactMatrix,
    FloatMatrix,
    Projector,
    commutes,
    exact_pair_relation,
    identity_projector,
    join,
    leq,
    meet,
    orthogonal,
    projector_from_vector,
    zero_projector,
)
from ctxcert.systems import DEFAULT_MAX_ELEMENTS, QuantumSystem, generate_system

# -- product-based reference ----------------------------------------------------


def _equal(a, b) -> bool:
    return a == b if isinstance(a, ExactMatrix) else a.approx_equal(b)


def ref_leq(p: Projector, q: Projector) -> bool:
    return _equal(p.mat.mul(q.mat), p.mat)


def ref_orthogonal(p: Projector, q: Projector) -> bool:
    return p.mat.mul(q.mat).is_zero()


def ref_commutes(p: Projector, q: Projector) -> bool:
    return _equal(p.mat.mul(q.mat), q.mat.mul(p.mat))


def _bits(mat) -> tuple:
    return mat.key() if isinstance(mat, ExactMatrix) else (mat.dim, mat.entries)


class ScanPool:
    """Deduplicating pool that scans every matrix: the lowest index whose
    matrix equals the query under the backend's equality."""

    def __init__(self, backend: str):
        self.backend = backend
        self._mats: list = []

    def lookup(self, mat) -> int | None:
        return next((idx for idx, other in enumerate(self._mats) if _equal(mat, other)), None)

    def insert(self, mat) -> int:
        self._mats.append(mat)
        return len(self._mats) - 1


def ref_closure(generators, max_elements=DEFAULT_MAX_ELEMENTS) -> list:
    """Closure with two products per pair; the inserted matrices in order."""
    dim, backend = generators[0].dim, generators[0].backend
    tol = max(g.tol for g in generators) or 1e-9
    pool = ScanPool(backend)
    mats: list = []

    def insert(mat):
        if pool.lookup(mat) is not None:
            return
        if len(mats) >= max_elements:
            raise ClosureBudgetExceeded(max_elements)
        pool.insert(mat)
        mats.append(mat)

    insert(zero_projector(dim, backend, tol).mat)
    insert(identity_projector(dim, backend, tol).mat)
    for g in sorted(generators, key=lambda g: g.sort_key()):
        insert(g.mat)
    ident = mats[1]
    idx = 0
    while idx < len(mats):
        p = mats[idx]
        insert(ident.sub(p))
        for q in mats[:idx]:
            pq, qp = p.mul(q), q.mul(p)
            if _equal(pq, qp):
                insert(pq)
                insert(p.add(q).sub(pq))
        idx += 1
    return mats


def ref_leq_rows(system: QuantumSystem) -> list[int]:
    els = system.elements
    return [
        sum(1 << j for j, q in enumerate(els) if i == j or ref_leq(p, q))
        for i, p in enumerate(els)
    ]


def order_atoms(rows: list[int], zero: int) -> list[int]:
    """Atoms, the minimal nonzero elements, in index order; bit j of
    ``rows[i]`` is set iff element i <= element j."""
    covered = 0
    for j, row in enumerate(rows):
        if j != zero:
            covered |= row & ~(1 << j)
    return [i for i in range(len(rows)) if i != zero and not covered >> i & 1]


def ref_edges(system: QuantumSystem) -> set:
    labels = dict(zip(system.atom_indices(), system.atom_graph().vertices))
    return {
        frozenset((labels[i], labels[j]))
        for i, j in combinations(system.atom_indices(), 2)
        if ref_orthogonal(system.elements[i], system.elements[j])
    }


def ref_decompositions(system: QuantumSystem, index: int) -> list[tuple[int, ...]]:
    """Orthogonal sets of atoms below the element, in atom-graph order, whose
    matrices add up to it."""
    target = system.elements[index]
    if target.rank == 0:
        return [()]
    atoms = [a for a in system.atom_indices() if ref_leq(system.elements[a], target)]
    found = []

    def search(start: int, chosen: list[int], total, rank: int) -> None:
        if rank == target.rank:
            if _equal(total, target.mat):
                found.append(tuple(chosen))
            return
        for pos in range(start, len(atoms)):
            a = system.elements[atoms[pos]]
            if rank + a.rank > target.rank:
                continue
            if any(not ref_orthogonal(a, system.elements[b]) for b in chosen):
                continue
            chosen.append(atoms[pos])
            search(pos + 1, chosen, a.mat if total is None else total.add(a.mat), rank + a.rank)
            chosen.pop()

    search(0, [], None, 0)
    return found


def closure_in_order(generators, monkeypatch, max_elements=DEFAULT_MAX_ELEMENTS):
    """``generate_system`` plus the matrices it validated, in insertion order."""
    inserted = []
    real = systems_module.Projector

    def recording(mat, *args, **kwargs):
        inserted.append(_bits(mat))
        return real(mat, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(systems_module, "Projector", recording)
        system = generate_system(generators, max_elements)
    return system, inserted


def assert_order_matches_reference(system: QuantumSystem) -> None:
    rows = ref_leq_rows(system)
    assert system._leq_rows == rows
    assert sorted(system.atom_indices()) == order_atoms(rows, system.zero_index)
    assert {frozenset(e) for e in system.atom_graph().edges} == ref_edges(system)


def assert_matches_reference(system: QuantumSystem, inserted, generators) -> None:
    assert inserted == [_bits(m) for m in ref_closure(generators)]
    assert_order_matches_reference(system)


def assert_pair_kernels_match(elements) -> None:
    for p in elements:
        for q in elements:
            assert leq(p, q) == ref_leq(p, q)
            assert orthogonal(p, q) == ref_orthogonal(p, q)
            assert commutes(p, q) == ref_commutes(p, q)


# -- builtins and float CEG -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_matches_product_reference(name, monkeypatch):
    generators = BUILTINS[name].scenario().generators
    system, inserted = closure_in_order(generators, monkeypatch)
    assert_matches_reference(system, inserted, generators)


def test_float_ceg_matches_product_reference(monkeypatch):
    generators = [projector_from_vector(v, backend=FLOAT) for v in ceg_set().vectors]
    system, inserted = closure_in_order(generators, monkeypatch)
    assert system.backend == FLOAT and len(system) == 140
    assert_matches_reference(system, inserted, generators)


def float_ceg() -> QuantumSystem:
    return generate_system([projector_from_vector(v, backend=FLOAT) for v in ceg_set().vectors])


@pytest.mark.parametrize("name", ["q_kcbs", "q_ceg", "q_lift", "float ceg"])
def test_decompositions_match_matrix_sums(name, request):
    system = float_ceg() if name == "float ceg" else request.getfixturevalue(name)
    for index in range(len(system)):
        assert list(system.decompositions(index)) == ref_decompositions(system, index)


def test_pair_kernels_match_on_ceg(q_ceg):
    assert_pair_kernels_match(q_ceg.elements[::3])


def test_pair_kernels_match_on_float_ceg():
    assert_pair_kernels_match(float_ceg().elements[::3])


# -- hypothesis-generated exact systems -------------------------------------------


# Mostly zeros, so that rays are often orthogonal: closures then hold planes
# such as e1 v e2 and e2 v e3, a commuting pair the trace cannot decide.
_entry = st.sampled_from([0, 0, 0, 1, -1, (0, 1), (1, -1)])


@st.composite
def exact_generators(draw):
    d = draw(st.integers(min_value=2, max_value=4))
    vectors = draw(
        st.lists(
            st.lists(_entry, min_size=d, max_size=d).filter(lambda v: any(e != 0 for e in v)),
            min_size=1,
            max_size=5,
        )
    )
    rays = [projector_from_vector(v) for v in vectors]
    # The join of two distinct commuting rays adds a rank-2 generator.
    joins = [join(p, q) for p, q in combinations(rays, 2) if p != q and ref_commutes(p, q)]
    return rays + joins[: draw(st.integers(min_value=0, max_value=1))]


@given(exact_generators())
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generated_systems_match_product_reference(monkeypatch, generators):
    try:
        expected = [_bits(m) for m in ref_closure(generators, max_elements=200)]
    except ClosureBudgetExceeded:
        with pytest.raises(ClosureBudgetExceeded):
            generate_system(generators, 200)
        return
    system, inserted = closure_in_order(generators, monkeypatch)
    assert inserted == expected
    assert_order_matches_reference(system)
    assert_pair_kernels_match(system.elements)


def _as_float(p: Projector) -> Projector:
    d = p.dim
    entries = (complex(*map(float, p.mat.entry(i, j))) for i in range(d) for j in range(d))
    return Projector(FloatMatrix(d, tuple(entries)))


@given(exact_generators())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_generated_float_systems_match_product_reference(monkeypatch, generators):
    generators = [_as_float(g) for g in generators]
    try:
        expected = [_bits(m) for m in ref_closure(generators, max_elements=200)]
    except ClosureBudgetExceeded:
        with pytest.raises(ClosureBudgetExceeded):
            generate_system(generators, 200)
        return
    system, inserted = closure_in_order(generators, monkeypatch)
    assert inserted == expected
    assert_order_matches_reference(system)
    assert_pair_kernels_match(system.elements)


@st.composite
def gaussian_grid_pairs(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    pair = st.tuples(st.integers(-5, 5), st.integers(-5, 5))
    grid = st.lists(st.lists(pair, min_size=d, max_size=d), min_size=d, max_size=d)
    return draw(grid), draw(grid)


@given(gaussian_grid_pairs())
@settings(max_examples=60, deadline=None)
def test_products_match_the_entry_formula(grids):
    """The product kernels against (AB)_ij = sum_k A_ik B_kj, term by term."""
    a, b = grids
    d = len(a)
    expected = [
        [
            (
                sum(a[i][k][0] * b[k][j][0] - a[i][k][1] * b[k][j][1] for k in range(d)),
                sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0] for k in range(d)),
            )
            for j in range(d)
        ]
        for i in range(d)
    ]
    product = ExactMatrix.from_entries(a).mul(ExactMatrix.from_entries(b))
    assert product == ExactMatrix.from_entries(expected)

    fa = FloatMatrix.from_entries([[complex(*e) / 3 for e in row] for row in a])
    fb = FloatMatrix.from_entries([[complex(*e) / 7 for e in row] for row in b])
    naive = tuple(
        sum(fa.entry(i, k) * fb.entry(k, j) for k in range(d)) for i in range(d) for j in range(d)
    )
    assert fa.mul(fb).entries == naive


# -- one case per shortcut ---------------------------------------------------------


def _projector(rows) -> Projector:
    return Projector(ExactMatrix.from_entries(rows))


def _count_products(monkeypatch) -> list:
    """Count exact products: ``mul`` and the early-exit ``hermitian_mul``,
    each call as one product."""
    calls = []
    for name in ("mul", "hermitian_mul"):
        real = getattr(ExactMatrix, name)

        def counting(a, b, real=real):
            calls.append(1)
            return real(a, b)

        monkeypatch.setattr(ExactMatrix, name, counting)
    return calls


def test_rank_one_pair_decided_by_trace(monkeypatch):
    ray = projector_from_vector([1, 0, 0])
    skew = projector_from_vector([1, 1, 0])
    plane = join(ray, projector_from_vector([0, 1, 0]))
    axis = projector_from_vector([0, 0, 1])
    calls = _count_products(monkeypatch)
    assert exact_pair_relation(ray, skew) == INCOMPATIBLE  # tr = 1/2
    assert exact_pair_relation(skew, plane) == ORDERED
    assert exact_pair_relation(ray, axis) == ORTHOGONAL
    assert not commutes(ray, skew) and commutes(skew, plane)
    assert calls == []
    assert not ref_commutes(ray, skew) and ref_commutes(skew, plane)


def test_co_rank_one_meet_is_p_plus_q_minus_identity(monkeypatch):
    p = _projector([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    q = join(projector_from_vector([0, 0, 1]), projector_from_vector([1, 1, 0]))
    ident = identity_projector(3)
    calls = _count_products(monkeypatch)
    assert exact_pair_relation(p, q) == CO_ORTHOGONAL
    assert commutes(p, q)
    assert calls == []
    expected = Projector(p.mat.add(q.mat).sub(ident.mat))
    assert meet(p, q) == expected == projector_from_vector([1, 1, 0])
    assert generate_system([p, q]).contains(expected)


def test_commuting_rank_two_pair_needs_the_product(monkeypatch):
    p = _projector([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    q = _projector([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    assert exact_pair_relation(p, q) == UNDECIDED  # tr = 1, an integer
    calls = _count_products(monkeypatch)
    assert commutes(p, q)
    assert len(calls) == 1
    assert meet(p, q) == projector_from_vector([0, 1, 0, 0])


def test_integer_trace_does_not_imply_commutation():
    # Both principal angles are 45 degrees: tr(PQ) = 1/2 + 1/2 = 1.
    p = join(projector_from_vector([1, 0, 0, 0]), projector_from_vector([0, 1, 0, 0]))
    q = join(projector_from_vector([1, 0, 1, 0]), projector_from_vector([0, 1, 0, 1]))
    assert exact_pair_relation(p, q) == UNDECIDED
    assert not commutes(p, q) and not ref_commutes(p, q)


def test_complex_pair_breaks_hermiticity_only_in_imaginary_parts():
    # PQ is block diagonal with blocks [[1/2, -i/2], [0, 0]]: its real part is
    # symmetric, and only Im PQ_01 != Im PQ_10 shows that PQ != QP.
    p = _projector([[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    q = join(projector_from_vector([1, (0, 1), 0, 0]), projector_from_vector([0, 0, 1, (0, 1)]))
    assert exact_pair_relation(p, q) == UNDECIDED  # tr = 1/2 + 1/2
    assert not commutes(p, q) and not ref_commutes(p, q)
    assert p.mat.hermitian_mul(q.mat) is None
    assert p.mat.hermitian_mul(p.mat) == p.mat.mul(p.mat)


def test_float_pairs_the_trace_screen_keeps_are_decided_by_entries():
    """tr(PQ) misses rank P or 0 by eps^2, inside the screens' bounds, while
    entry (0, 1) of PQ is about eps, far beyond tol."""
    eps = 2e-5
    p = projector_from_vector([1, 0, 0], backend=FLOAT)
    near = projector_from_vector([1, eps, 0], backend=FLOAT)
    skew = projector_from_vector([eps, 1, 0], backend=FLOAT)
    assert not leq(p, near) and not ref_leq(p, near)
    assert not orthogonal(p, skew) and not ref_orthogonal(p, skew)
    assert not commutes(p, near) and not ref_commutes(p, near)


def test_float_order_keeps_both_directions_of_an_equal_rank_pair():
    """Two elements of one rank within tol of each other are ordered both
    ways, as PQ = P and QP = Q within tol say.  The order of a system is
    built with this kernel, but [0, 1, p, q] is not closed: 1 is no sum of
    its atoms, so constructing it raises."""
    noise = 3e-10

    def float_projector(rows):
        return Projector(FloatMatrix.from_entries(rows))

    p = float_projector([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    q = float_projector([[1 + noise, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert leq(p, q) and leq(q, p)
    assert ref_leq(p, q) and ref_leq(q, p)
    zero, one = zero_projector(3, FLOAT), identity_projector(3, FLOAT)
    with pytest.raises(NoDecomposition):
        QuantumSystem([zero, one, p, q])


def test_float_screens_keep_tolerance_level_pairs():
    """Entries off by less than tol still make an order or orthogonal pair,
    though the trace then misses rank P or 0 by far more than rounding."""
    noise = 3e-10  # below the default tolerance of 1e-9

    def float_projector(rows):
        return Projector(FloatMatrix.from_entries(rows))

    p = float_projector([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    q = float_projector([[1 + noise, noise, 0], [noise, 1 + noise, 0], [0, 0, 0]])
    r = float_projector([[noise, 0, 0], [0, 0, 0], [0, 0, 1]])
    assert leq(p, q) and ref_leq(p, q)
    assert orthogonal(p, r) and ref_orthogonal(p, r)


# -- work counters ------------------------------------------------------------------

# ExactMatrix.mul calls to close builtin ceg and find its atoms: one validation
# per inserted element plus one product per pair the trace leaves undecided.
# With two products per pair and a product per order test it was 33,887.
CEG_PRODUCTS = 1796


def test_ceg_closure_and_atoms_product_count(monkeypatch):
    vs = ceg_set()
    generators = vs.projectors()
    labels = {name: vs.projector(name) for name in vs.names}
    calls = _count_products(monkeypatch)
    system = generate_system(generators).with_atom_labels(labels)
    assert len(system.atom_indices()) == 24
    assert len(calls) <= CEG_PRODUCTS


def _count_order_builds(monkeypatch) -> list:
    builds = []
    real = QuantumSystem._ensure_leq

    def counting(self):
        builds.append(1)
        return real(self)

    monkeypatch.setattr(QuantumSystem, "_ensure_leq", counting)
    return builds


CEG17_DOC = {
    "dimension": 4,
    "vectors": [
        {"name": f"v{i}", "entries": [str(x) for x in vec]}
        for i, vec in enumerate(ceg_set().vectors[1:])
    ],
}


@pytest.mark.parametrize("extra", [[], ["--backend", "float"]])
def test_cold_file_build_builds_the_order_table_once(tmp_path, monkeypatch, capsys, extra):
    path = tmp_path / "ceg17.json"
    path.write_text(json.dumps(CEG17_DOC), encoding="utf-8")
    builds = _count_order_builds(monkeypatch)
    assert main(["build", str(path), "--format", "json", *extra]) == 0
    assert json.loads(capsys.readouterr().out)["system"]["elements"] == 140
    assert len(builds) == 1


# -- the float pool against the scan --------------------------------------------------

TOL = 1e-9
STEP = 64 * TOL  # the grid spacing of FloatMatrix.grid_key


def _from_coords(d: int, coords, tol=TOL) -> FloatMatrix:
    return FloatMatrix(d, tuple(complex(*coords[k : k + 2]) for k in range(0, 2 * d * d, 2)), tol)


def _pool_checks(monkeypatch) -> list:
    """``approx_equal`` calls made inside ``_Pool.lookup``."""
    checks, inside = [], []
    real_lookup, real_equal = systems_module._Pool.lookup, FloatMatrix.approx_equal

    def lookup(self, mat):
        inside.append(1)
        try:
            return real_lookup(self, mat)
        finally:
            inside.pop()

    def approx_equal(a, b):
        if inside:
            checks.append(1)
        return real_equal(a, b)

    monkeypatch.setattr(systems_module._Pool, "lookup", lookup)
    monkeypatch.setattr(FloatMatrix, "approx_equal", approx_equal)
    return checks


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_pool_lookup_returns_the_scan_index(data):
    """Float projectors moved to near grid-cell edges, copies of them shifted
    by tol/2 per coordinate (across an edge or not) or by 2*tol (no longer
    equal), looked up in a random order, inserting on a miss as the closure
    does; sometimes with two tolerances, which takes the scan."""
    d = data.draw(st.integers(min_value=1, max_value=3))
    vector = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
    tols = data.draw(st.sampled_from([(TOL,), (TOL, 2 * TOL)]))
    offset = st.sampled_from([-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5])
    shift = st.sampled_from([-0.5, 0.0, 0.0, 0.5, 2.0])
    queries = []
    for v in data.draw(st.lists(vector, min_size=1, max_size=3)):
        base = projector_from_vector(v, backend=FLOAT).mat
        coords = [c for e in base.entries for c in (e.real, e.imag)]
        for k in data.draw(st.lists(st.integers(0, len(coords) - 1), max_size=12)):
            side = data.draw(st.sampled_from([-0.5, 0.5]))
            coords[k] = (round(coords[k] / STEP) + side) * STEP + data.draw(offset) * TOL
        queries.append(_from_coords(d, coords, data.draw(st.sampled_from(tols))))
        for _ in range(data.draw(st.integers(1, 3))):
            moves = data.draw(st.lists(shift, min_size=len(coords), max_size=len(coords)))
            moved = [c + m * TOL for c, m in zip(coords, moves)]
            queries.append(_from_coords(d, moved, data.draw(st.sampled_from(tols))))
    queries = data.draw(st.permutations(queries))
    pool, scan = systems_module._Pool(FLOAT), ScanPool(FLOAT)
    for mat in queries:
        expected = scan.lookup(mat)
        assert pool.lookup(mat) == expected
        if expected is None:
            pool.insert(mat)
            scan.insert(mat)
    for mat in queries:
        assert pool.lookup(mat) == scan.lookup(mat)


def test_pool_finds_a_neighbour_across_a_cell_edge():
    edge = 0.5 * STEP
    stored = FloatMatrix(1, (complex(edge - TOL / 2, 0.0),))
    query = FloatMatrix(1, (complex(edge + TOL / 2, 0.0),))
    assert stored.grid_key() != query.grid_key() and query.approx_equal(stored)
    pool = systems_module._Pool(FLOAT)
    pool.insert(FloatMatrix(1, (0j,)))
    pool.insert(stored)
    assert pool.lookup(query) == 1


def test_pool_with_mixed_tolerances_falls_back_to_the_scan():
    # Grids of different spacing: the coarse matrix is in no cell near the
    # fine one's, yet they are equal under the larger tolerance.
    coarse = FloatMatrix(1, (1.0 + 0j,), tol=1e-8)
    fine = FloatMatrix(1, (1.0 + 5e-9 + 0j,), tol=1e-9)
    assert coarse.grid_key() not in fine.near_keys(8) and fine.approx_equal(coarse)
    for stored, query in ((coarse, fine), (fine, coarse)):
        pool, scan = systems_module._Pool(FLOAT), ScanPool(FLOAT)
        for p in (pool, scan):
            p.insert(FloatMatrix(1, (0j,), tol=stored.tol))
            p.insert(stored)
        assert pool.lookup(query) == scan.lookup(query) == 1


def test_pool_scans_once_a_pooled_matrix_straddles_too_many_cell_edges():
    # Every coordinate of the stored matrix lies on a cell edge, so it has
    # no near keys and is listed under no cell; the query, tol/2 across
    # every edge, is in another cell yet equal to it.
    edge = 0.5 * STEP
    stored = _from_coords(3, [edge] * 18)
    query = _from_coords(3, [edge + TOL / 2] * 18)
    assert stored.near_keys(systems_module._Pool.MAX_STRADDLING) is None
    assert stored.grid_key() != query.grid_key() and query.approx_equal(stored)
    pool, scan = systems_module._Pool(FLOAT), ScanPool(FLOAT)
    for p in (pool, scan):
        p.insert(_from_coords(3, [0.0] * 18))
        p.insert(stored)
    for mat in (stored, query):
        assert pool.lookup(mat) == scan.lookup(mat) == 1


def test_near_keys_take_both_cells_of_each_straddling_coordinate():
    edge = 0.5 * STEP
    mat = FloatMatrix(2, (complex(edge, 0.0), 0j, complex(STEP, 3 * TOL), complex(edge + TOL, -edge)))
    keys = mat.near_keys(3)
    assert len(keys) == len(set(keys)) == 2**3 and mat.grid_key() in keys
    assert mat.near_keys(2) is None


# The scanning pool made 9,730 approx_equal checks in this closure: 140
# misses, each scanning every matrix inserted before it.
FLOAT_CEG_POOL_CHECKS = 0


def test_float_ceg_pool_checks(monkeypatch):
    generators = [projector_from_vector(v, backend=FLOAT) for v in ceg_set().vectors]
    checks = _pool_checks(monkeypatch)
    assert len(generate_system(generators)) == 140
    assert len(checks) == FLOAT_CEG_POOL_CHECKS


# The float closure keyed a grid cell for every lookup: 4,320 calls, 4,022 of
# them for a product bit-identical to an element it already held.  The pool's
# exact map answers those.  Of the 298 left, 158 are the closure's: its 140
# misses and the sort of its 18 generators.  The other 140 are the system's
# sort of its elements (``Projector.sort_key``); it looks up no matrix.
FLOAT_CEG_GRID_KEYS = 298


def test_float_ceg_grid_keys(monkeypatch):
    generators = [projector_from_vector(v, backend=FLOAT) for v in ceg_set().vectors]
    calls, real = [], FloatMatrix.grid_key

    def grid_key(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(FloatMatrix, "grid_key", grid_key)
    assert len(generate_system(generators)) == 140
    assert len(calls) == FLOAT_CEG_GRID_KEYS


# -- commuting_mul against a row-major reference ---------------------------------


def ref_commuting_mul(a: FloatMatrix, b: FloatMatrix) -> FloatMatrix | None:
    """AB if every entry of AB - BA is below tol, visited in row-major order;
    each entry is ``mul``'s dot product, the same terms in the same order."""
    d, tol = a.dim, max(a.tol, b.tol)
    out = []
    for i in range(d):
        for j in range(d):
            x = sum(a.entries[i * d + k] * b.entries[k * d + j] for k in range(d))
            y = sum(b.entries[i * d + k] * a.entries[k * d + j] for k in range(d))
            if abs(x - y) >= tol:
                return None
            out.append(x)
    return FloatMatrix(d, tuple(out), tol)


def _same_outcome(a: FloatMatrix, b: FloatMatrix) -> None:
    got, want = a.commuting_mul(b), ref_commuting_mul(a, b)
    assert (got is None) == (want is None)
    if want is not None:
        assert got.entries == want.entries and got.tol == want.tol


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_commuting_mul_matches_the_row_major_reference(data):
    """Projectors of real or complex rays with entries in -2..2, against each
    other, themselves, their complements, 0 and the identity, with some
    coordinates of the second moved by tol/2, so that a pair may commute only
    within tol or miss by a hair."""
    d = data.draw(st.integers(min_value=1, max_value=4))
    part = st.integers(-2, 2)
    if data.draw(st.booleans()):
        entry = st.builds(complex, part, part)
    else:
        entry = st.builds(complex, part)
    ray = st.lists(entry, min_size=d, max_size=d).filter(any)
    a = projector_from_vector(data.draw(ray), backend=FLOAT).mat
    one = identity_projector(d, FLOAT).mat
    b = data.draw(
        st.sampled_from(
            [projector_from_vector(data.draw(ray), backend=FLOAT).mat, a, one.sub(a), one]
        )
    )
    coords = [c for e in b.entries for c in (e.real, e.imag)]
    for k in data.draw(st.lists(st.integers(0, 2 * d * d - 1), max_size=4)):
        coords[k] += data.draw(st.sampled_from([-0.5, 0.5])) * TOL
    b = _from_coords(d, coords)
    _same_outcome(a, b)
    _same_outcome(b, a)


def test_commuting_mul_tests_the_diagonal():
    # The projectors onto (1, 1) and (1, i) have Bloch vectors x and y, so
    # AB - BA = (i/2) sigma_z: its off-diagonal entries are 0 and only the
    # diagonal shows that the pair does not commute.
    a = projector_from_vector([1, 1], backend=FLOAT).mat
    b = projector_from_vector([1, 1j], backend=FLOAT).mat
    ab, ba = a.mul(b).entries, b.mul(a).entries
    assert abs(ab[1] - ba[1]) < TOL and abs(ab[2] - ba[2]) < TOL
    assert abs(ab[0] - ba[0]) >= TOL
    assert a.commuting_mul(b) is None and ref_commuting_mul(a, b) is None


# -- mul_is_zero against the formed product ---------------------------------------


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mul_is_zero_matches_the_formed_product(data):
    """Matrices of Gaussian integers in -1..1, mostly 0 so that products
    vanish often, real or complex, exact over a denominator and as floats
    scaled so that product entries fall on either side of tol."""
    d = data.draw(st.integers(min_value=1, max_value=3))
    part = st.sampled_from([0, 0, 0, 1, -1])
    complex_ = data.draw(st.booleans())
    entry = st.tuples(part, part if complex_ else st.just(0))
    grid = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=d, max_size=d)
    a, b = data.draw(grid), data.draw(grid)
    den = data.draw(st.integers(1, 3))
    exact = [ExactMatrix.from_entries([[(Fraction(re, den), im) for re, im in r] for r in m]) for m in (a, b)]
    assert exact[0].mul_is_zero(exact[1]) == exact[0].mul(exact[1]).is_zero()
    scale = data.draw(st.sampled_from([1.0, 0.3 * TOL**0.5, 3 * TOL**0.5]))
    floats = [FloatMatrix.from_entries([[complex(re, im) * scale for re, im in r] for r in m]) for m in (a, b)]
    assert floats[0].mul_is_zero(floats[1]) == floats[0].mul(floats[1]).is_zero()


def test_mul_is_zero_reads_the_imaginary_part():
    # sigma_x sigma_y = i sigma_z: the real part of every entry is 0.
    for matrix, i, minus_i in (
        (ExactMatrix.from_entries, (0, 1), (0, -1)),
        (FloatMatrix.from_entries, 1j, -1j),
    ):
        sigma_x = matrix([[0, 1], [1, 0]])
        sigma_y = matrix([[0, minus_i], [i, 0]])
        assert not sigma_x.mul(sigma_y).is_zero()
        assert not sigma_x.mul_is_zero(sigma_y)
        assert sigma_x.mul_is_zero(matrix([[0, 0], [0, 0]]))
