"""Closure of projector families and state extension over the closed system."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcert.catalog import BUILTINS, ceg_set
from ctxcert.errors import BackendMismatch, ClosureBudgetExceeded, NotAnElement, UnknownElement
from ctxcert.graphs import PBAState
from ctxcert.linalg import (
    EXACT,
    FLOAT,
    DensityMatrix,
    ExactMatrix,
    FloatMatrix,
    Projector,
    complement,
    identity_projector,
    join,
    matrix_orthogonal,
    projector_from_vector,
    quantum_state_eval,
    zero_projector,
)
from ctxcert.systems import (
    QuantumSystem,
    exclusive_q,
    first_lep_violation,
    generate_system,
    leq_q,
    systems_equal,
)


def diag(bits):
    d = len(bits)
    return Projector(
        ExactMatrix.from_entries([[1 if (i == j and bits[i]) else 0 for j in range(d)] for i in range(d)])
    )


def test_single_generator_gives_four_elements():
    q = generate_system([projector_from_vector([1, 0, 0])])
    assert len(q) == 4


def test_two_diagonal_generators_give_boolean_cube():
    q = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    assert len(q) == 8
    assert len(q.atom_indices()) == 3
    g = q.atom_graph()
    assert len(g.maximal_cliques()) == 1 and len(g.maximal_cliques()[0]) == 3


def test_bad_atom_labels_raise_when_given():
    """A copy is named when ``with_atom_labels`` returns it, so a bad label
    raises at the call, not when the names are first read."""
    x, y = projector_from_vector([1, 0, 0]), projector_from_vector([0, 1, 0])
    q = generate_system([x, y])
    with pytest.raises(UnknownElement, match="^atom labeled twice: 'a', 'b'$"):
        q.with_atom_labels({"a": x, "b": x})
    with pytest.raises(NotAnElement, match="^label 'xy' does not name an atom$"):
        q.with_atom_labels({"xy": join(x, y)})
    # A label equal to a default name is not a bad label: the defaults skip it.
    named = q.with_atom_labels({"e1": x})
    assert [named.atom_label(i) for i in named.atom_indices()] == ["e1", "e0", "e2"]


def test_a_label_outside_the_system_names_nothing():
    """A label whose projector is no element of the system names nothing, on
    either backend, and the default names skip only the names given to
    atoms: the unlabelled atom I - x takes e0, though a label is named e0."""
    for backend in (EXACT, FLOAT):
        x, y = (projector_from_vector(v, backend=backend) for v in ([1, 0, 0], [0, 1, 0]))
        q = generate_system([x])
        named = q.with_atom_labels({"x": x, "e0": y})
        assert [named.atom_label(i) for i in named.atom_indices()] == ["x", "e0"]
        assert named.atom_label(named.index_of(complement(x))) == "e0"
        other = projector_from_vector([1, 0], backend=backend)  # another dimension
        named = q.with_atom_labels({"y": y, "z": other})
        assert [named.atom_label(i) for i in named.atom_indices()] == ["e0", "e1"]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_builtin_label_names_an_atom(name):
    """A label outside the closure would name nothing, so no builtin may
    have one: each label names its own atom."""
    builtin = BUILTINS[name]
    system = builtin.system()
    labels = builtin.scenario().labels
    assert [system.atom_label(i) for i in system.atom_indices()][: len(labels)] == list(labels)
    for label, p in labels.items():
        assert system.atom_label(system.index_of(p)) == label


def test_named_copies_share_the_lattice(monkeypatch):
    """The order is built once per constructed system; a named copy shares
    the order rows, the atom masks and the complement map."""
    builds = []
    real = QuantumSystem._ensure_leq

    def counting(self):
        builds.append(1)
        return real(self)

    monkeypatch.setattr(QuantumSystem, "_ensure_leq", counting)
    x, y = projector_from_vector([1, 0, 0]), projector_from_vector([0, 1, 0])
    q = generate_system([x, y])
    named = q.with_atom_labels({"x": x}).with_atom_labels({"y": y})
    assert len(builds) == 1
    for field in ("_leq_rows", "_below", "_orth", "_comp", "_by_below"):
        assert getattr(named, field) is getattr(q, field), field
    assert [q.atom_label(i) for i in q.atom_indices()] == ["e0", "e1", "e2"]
    assert named.atom_label(named.index_of(y)) == "y"
    assert [named.atom_label(i) for i in named.atom_indices()] == ["y", "e0", "e1"]


def test_generator_order_invariance():
    gens = [diag([1, 0, 0, 0]), diag([0, 1, 1, 0]), projector_from_vector([0, 0, 1, 1])]
    a = generate_system(gens)
    b = generate_system(list(reversed(gens)))
    assert systems_equal(a, b)


def test_closure_idempotence(q_kcbs):
    again = generate_system(list(q_kcbs.elements))
    assert systems_equal(q_kcbs, again)


def test_closure_budget():
    with pytest.raises(ClosureBudgetExceeded):
        generate_system([diag([1, 0, 0]), diag([0, 1, 0])], max_elements=5)


def test_kcbs_atoms_and_graph(q_kcbs):
    assert len(q_kcbs) == 22
    assert len(q_kcbs.atom_indices()) == 10
    g = q_kcbs.atom_graph()
    assert len(g.edges) == 15
    assert g.vertices[:5] == ("P0", "P1", "P2", "P3", "P4")
    cliques = g.maximal_cliques()
    assert len(cliques) == 5 and all(len(c) == 3 for c in cliques)


def test_kcbs_ring_exclusivity(q_kcbs):
    for i in range(5):
        p = q_kcbs.atom_by_label(f"P{i}")
        q = q_kcbs.atom_by_label(f"P{(i + 1) % 5}")
        r = q_kcbs.atom_by_label(f"P{(i + 2) % 5}")
        assert exclusive_q(q_kcbs, p, q)
        assert not exclusive_q(q_kcbs, p, r)


@pytest.fixture(scope="module")
def q_ceg_float():
    return generate_system([projector_from_vector(v, backend=FLOAT) for v in ceg_set().vectors])


@pytest.mark.parametrize("system", ["q_kcbs", "q_ceg", "q_ceg_float"])
def test_exclusive_q_is_the_vanishing_product(system, request):
    # exclusive_q reads the order rows (P <= not Q); the matrices agree.
    q = request.getfixturevalue(system)
    for a in q.elements:
        assert [exclusive_q(q, a, b) for b in q.elements] == [
            matrix_orthogonal(a.mat, b.mat) for b in q.elements
        ]


@pytest.mark.parametrize("second, elements", [(2e-8, 6), (4e-8, 6), (5e-10, 4)])
def test_float_rays_in_one_grid_cell_are_equal_only_within_tol(second, elements):
    # (1, 0) and (1, 2e-8) have projectors 2e-8 apart, in one grid cell at
    # tol 1e-9 but not equal; (1, 5e-10) is the same ray within tol.
    rays = [projector_from_vector(v, backend=FLOAT) for v in ([1, 0], [1, second])]
    system = generate_system(rays)
    assert len(system) == elements
    assert len(system.atom_indices()) == elements - 2
    assert len({system.index_of(r) for r in rays}) == (elements - 2) // 2


def test_leq_q_examples(q_kcbs):
    p0 = q_kcbs.atom_by_label("P0")
    p1 = q_kcbs.atom_by_label("P1")
    both = join(p0, p1)
    assert leq_q(q_kcbs, p0, both)
    assert not leq_q(q_kcbs, p0, p1)
    outsider = projector_from_vector([1.0, 1.0, 1.0], backend="float")
    with pytest.raises(NotAnElement):
        leq_q(q_kcbs, p0, outsider)


def test_systems_equal_trivia(q_kcbs):
    assert systems_equal(q_kcbs, q_kcbs)
    other = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    with pytest.raises(BackendMismatch):
        systems_equal(q_kcbs, other)
    exact_small = generate_system([projector_from_vector([1, 0, 0])])
    assert not systems_equal(exact_small, other)


# -- complements, 0 and 1 against I - P -------------------------------------------


def _scan_index(system, mat) -> int:
    """The lowest index of an element equal to ``mat``, by a plain scan."""
    return next(i for i, p in enumerate(system.elements) if p.mat == mat)


def assert_complements_are_identity_minus_p(system):
    one = identity_projector(system.dim, system.backend, system.tol).mat
    zero = zero_projector(system.dim, system.backend, system.tol).mat
    assert system.zero_index == _scan_index(system, zero)
    assert system.identity_index == _scan_index(system, one)
    assert system._comp == [_scan_index(system, one.sub(p.mat)) for p in system.elements]


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_complements_are_identity_minus_p_on_every_builtin(name):
    assert_complements_are_identity_minus_p(BUILTINS[name].system())


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_complements_are_identity_minus_p_on_random_rays(backend):
    """60 seeded sets of 3-6 rays in dimension 2-4, entries in -2..2, the
    same sets on both backends; their closures have 6 to 20 elements."""
    rng = random.Random(2024)
    sizes = []
    for _ in range(60):
        d = rng.randint(2, 4)
        rays = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(3, 6))]
        gens = [projector_from_vector(r, backend=backend) for r in rays if any(r)]
        if gens:
            system = generate_system(gens)
            assert_complements_are_identity_minus_p(system)
            sizes.append(len(system))
    assert len(sizes) == 60 and max(sizes) == 20


def axes_and_u() -> list[Projector]:
    """0, the axes x, y, z of R^3, u = P(1, 1, 0), the joins of two axes and
    I.  Every element is an orthogonal sum of its atoms, but I - u is
    missing: the only element built from the atoms orthogonal to u is z, of
    rank 1, not 2."""
    x, y, z, u = (projector_from_vector(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]))
    return [zero_projector(3), x, y, z, u, join(x, y), join(x, z), join(y, z), identity_projector(3)]


def test_a_complement_has_the_rank_of_identity_minus_p():
    with pytest.raises(NotAnElement, match="^system is not closed under complement$"):
        QuantumSystem(axes_and_u())


def test_an_element_has_the_rank_of_the_projector():
    """P_z + P(1, 1, 0) has rank 2, and z, of rank 1, is the only atom of
    the Boolean algebra of the axes below it."""
    x, y, z = (projector_from_vector(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1]))
    system = generate_system([x, y, z])
    probe = Projector(z.mat.add(projector_from_vector([1, 1, 0]).mat))
    assert probe.rank == 2 and not system.contains(probe)
    with pytest.raises(NotAnElement):
        system.index_of(probe)
    assert system.contains(z) and system.contains(join(x, y))
    assert not system.contains(projector_from_vector([1, 0]))
    assert not system.contains(projector_from_vector([0, 0, 1], backend=FLOAT))


def test_a_repeated_element_raises():
    x = projector_from_vector([1, 0])
    with pytest.raises(NotAnElement, match="^element 3 repeats element 2$"):
        QuantumSystem([zero_projector(2), x, x, complement(x), identity_projector(2)])


def test_verify_epba_holds(q_kcbs, q_ceg):
    assert q_kcbs.verify_epba().holds
    assert q_ceg.verify_epba().holds
    boolean = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    assert boolean.verify_epba().holds


# The LEP audit as it was before it derived exclusivity itself: a walk over
# every pair i < j against a table whose entry j has bit c set iff
# j <= comp[c].  Kept as the oracle of the audit on arbitrary bit rows.


def reference_neg_image(rows, comp):
    return [sum(1 << c for c, k in enumerate(comp) if row >> k & 1) for row in rows]


def reference_lep_walk(rows, comp, compatible):
    """The first exclusive, incompatible pair i < j in index order, and the
    number of exclusive pairs up to and including it."""
    neg = reference_neg_image(rows, comp)
    exclusive = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] & neg[j]:
                exclusive += 1
                if not compatible(i, j):
                    return (i, j), exclusive
    return None, exclusive


@st.composite
def audit_inputs(draw):
    n = draw(st.integers(1, 12))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    comp = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))  # any map
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    incompatible = draw(st.frozensets(pair, max_size=n * n // 4))
    return rows, comp, incompatible


@given(audit_inputs())
@settings(max_examples=300, deadline=None)
def test_lep_audit_matches_the_pair_walk(inputs):
    rows, comp, incompatible = inputs
    calls, reference_calls = [], []

    def compatible(log):
        return lambda i, j: log.append((i, j)) or (i, j) not in incompatible

    got = first_lep_violation(rows, comp, compatible(calls))
    assert got == reference_lep_walk(rows, comp, compatible(reference_calls))
    assert calls == reference_calls  # the exclusive pairs, in index order


@pytest.mark.parametrize("fixture", ["q_kcbs", "q_ceg"])
def test_verify_epba_counts_the_exclusive_pairs(fixture, request):
    system = request.getfixturevalue(fixture)
    report = system.verify_epba()
    assert report.pairs_checked == reference_lep_walk(
        system._leq_rows, system._comp, lambda i, j: True
    )[1]


# The LEP audit's zero test, on copies whose order rows are forged so that a
# pair that is not orthogonal reads as exclusive: only the products can tell.


def _forged_exclusive(system: QuantumSystem, a: int, b: int) -> QuantumSystem:
    """A copy of ``system`` whose order rows read a <= comp[b], so that a and
    b read as exclusive.  With a and b atoms, every other exclusive pair is
    one of the system's own."""
    forged = copy.copy(system)
    rows = list(system._leq_rows)
    rows[a] |= 1 << system._comp[b]
    forged._leq_rows = rows
    return forged


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
@pytest.mark.parametrize("ray", [[1, 1], [1, (0, 1)]], ids=["real", "complex"])
def test_verify_epba_reports_a_forged_exclusive_pair(backend, ray):
    if backend == FLOAT:
        ray = [complex(*x) if isinstance(x, tuple) else x for x in ray]
    x, y = projector_from_vector([1, 0], backend), projector_from_vector(ray, backend)
    system = generate_system([x, y])
    a, b = system.index_of(x), system.index_of(y)
    assert system.verify_epba().holds
    report = _forged_exclusive(system, a, b).verify_epba()
    assert not report.lep_holds
    assert report.lep_violation == (min(a, b), max(a, b))


@pytest.mark.parametrize("backend", [EXACT, FLOAT])
def test_verify_epba_reports_a_product_with_only_imaginary_entries(backend):
    """No two projectors have such a product, since tr(PQ) = |QP|^2 is the
    real part of PQ's diagonal; so the matrices are forged as well.  Of the
    six elements generated by x = (1, 0, 0) and y = (1, 1, 0), x and y
    become sigma_x and sigma_y on the first two coordinates, whose product
    is i sigma_z there, and their complements both become the projector onto
    (0, 0, 1), which annihilates either.  So the system's own exclusive
    pairs still have vanishing products, and the forged pair does not."""
    rays = [[1, 0, 0], [1, 1, 0]]
    system = generate_system([projector_from_vector(r, backend) for r in rays])
    assert len(system) == 6
    x, y = (system.index_of(projector_from_vector(r, backend)) for r in rays)
    if backend == EXACT:
        i, minus_i, matrix = (0, 1), (0, -1), ExactMatrix.from_entries
    else:
        i, minus_i, matrix = 1j, -1j, FloatMatrix.from_entries
    e3 = matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
    mats = {
        x: matrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]]),
        y: matrix([[0, minus_i, 0], [i, 0, 0], [0, 0, 0]]),
        system._comp[x]: e3,
        system._comp[y]: e3,
    }
    product = mats[x].mul(mats[y])
    entries = [product.entry(r, c) for r in range(3) for c in range(3)]
    if backend == EXACT:
        entries = [complex(*map(float, e)) for e in entries]
    assert any(entries) and not any(e.real for e in entries)
    forged = _forged_exclusive(system, x, y)
    forged.elements = [
        Projector(mats[k], _validated=True) if k in mats else p for k, p in enumerate(system.elements)
    ]
    report = forged.verify_epba()
    assert report.lep_violation == (min(x, y), max(x, y))


def random_pentagon_state(q, rng, backend="exact"):
    """Random graph state on the ten atoms from admissible pentagon masses."""
    while True:
        if backend == "exact":
            vals = [Fraction(rng.randint(0, 6), 12) for _ in range(5)]
        else:
            vals = [rng.uniform(0, 0.5) for _ in range(5)]
        if all(vals[i] + vals[(i + 1) % 5] <= 1 for i in range(5)):
            break
    values = {f"P{i}": vals[i] for i in range(5)}
    for i in range(5):
        j = (i + 1) % 5
        values[f"P{i}{j}"] = 1 - vals[i] - vals[j]
    return PBAState(q.atom_graph(), values, backend=backend)


def test_extend_state_on_atoms_and_complements(q_kcbs):
    rng = random.Random(3)
    state = random_pentagon_state(q_kcbs, rng)
    extended = q_kcbs.extend_state(state)
    for label in q_kcbs.atom_graph().vertices:
        atom = q_kcbs.atom_by_label(label)
        assert extended.eval(atom) == state.value(label)
        comp_value = extended.eval(complement(atom))
        assert comp_value == 1 - state.value(label)
    assert extended.eval_index(q_kcbs.zero_index) == 0
    assert extended.eval_index(q_kcbs.identity_index) == 1


def test_extend_state_inclusion_exclusion(q_kcbs):
    rng = random.Random(11)
    state = random_pentagon_state(q_kcbs, rng)
    extended = q_kcbs.extend_state(state)
    mats = [p.mat for p in q_kcbs.elements]
    n = len(mats)
    for i in range(n):
        for j in range(i + 1, n):
            if mats[i].mul(mats[j]).approx_equal(mats[j].mul(mats[i])):
                pi, pj = q_kcbs.elements[i], q_kcbs.elements[j]
                lhs = extended.eval(join(pi, pj)) + extended.eval(
                    Projector(mats[i].mul(mats[j]))
                )
                rhs = extended.eval_index(i) + extended.eval_index(j)
                assert abs(lhs - rhs) < 1e-9


def test_decomposition_independence(q_kcbs):
    rng = random.Random(5)
    state = random_pentagon_state(q_kcbs, rng)
    for idx in range(len(q_kcbs)):
        values = set()
        for decomposition in q_kcbs.decompositions(idx):
            values.add(sum(state.value(q_kcbs.atom_label(a)) for a in decomposition))
        assert len(values) == 1


def test_monotone_under_leq(q_kcbs):
    rng = random.Random(9)
    for _ in range(10):
        state = random_pentagon_state(q_kcbs, rng)
        extended = q_kcbs.extend_state(state)
        n = len(q_kcbs)
        for i in range(n):
            for j in range(n):
                if q_kcbs.leq_idx(i, j):
                    assert extended.eval_index(i) <= extended.eval_index(j)


def test_density_restriction_extends_to_born_rule(q_kcbs):
    rng = random.Random(21)
    for _ in range(5):
        vec = [rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(3)]
        rho = DensityMatrix.from_pure_vector(vec, backend="float")
        state = q_kcbs.state_from_density(rho)
        extended = q_kcbs.extend_state(state)
        for i, element in enumerate(q_kcbs.elements):
            direct = quantum_state_eval(rho, element)
            assert abs(extended.eval_index(i) - direct) < 1e-8


def test_element_names(q_kcbs):
    assert q_kcbs.element_name(q_kcbs.zero_index) == "0"
    assert q_kcbs.element_name(q_kcbs.identity_index) == "1"
    p0 = q_kcbs.atom_by_label("P0")
    assert q_kcbs.element_name(q_kcbs.index_of(p0)) == "P0"
    comp = q_kcbs.index_of(complement(p0))
    name = q_kcbs.element_name(comp)
    # Complement of P0 decomposes inside either adjacent triangle.
    assert set(name.split("|")) in ({"P1", "P01"}, {"P4", "P40"})


def test_exact_density_restriction_extends_to_born_rule():
    q = generate_system([diag([1, 0, 0]), diag([0, 1, 0])])
    rho = DensityMatrix.maximally_mixed(3)
    state = q.state_from_density(rho)
    extended = q.extend_state(state)
    for i, element in enumerate(q.elements):
        assert extended.eval_index(i) == quantum_state_eval(rho, element)


@pytest.mark.parametrize("fixture", ["q_ceg", "q_lift"])
def test_trace_rank_matches_sympy_rank(fixture, request):
    """Independent oracle: the rank ``Projector`` reads off the trace equals
    the rank sympy finds by elimination, for every element of the exact
    ceg and ceg-lift systems."""
    sympy = pytest.importorskip("sympy")
    system = request.getfixturevalue(fixture)
    assert system.backend == "exact"

    def rational(x: Fraction):
        return sympy.Rational(x.numerator, x.denominator)

    for p in system.elements:
        d = p.dim
        entries = [[p.mat.entry(i, j) for j in range(d)] for i in range(d)]
        rows = [[rational(re) + sympy.I * rational(im) for re, im in row] for row in entries]
        assert sympy.Matrix(rows).rank() == p.rank
