"""Exact simplex: known instances, a brute-force vertex-enumeration oracle,
scipy's HiGHS as an independent float oracle, and a rational-tableau
reference kept only here.

The reference is the dense ``Fraction`` tableau the integer-preserving one
replaced.  Both run the same Bland pivots, so status, ``x``, ``value``, the
pivot count and the Farkas ray of an infeasible LP must come out identical on
every LP.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxcert import analyze, simplex
from ctxcert.catalog import kcbs_state
from ctxcert.errors import CertificateError
from ctxcert.linalg import DensityMatrix, ExactMatrix, projector_from_vector
from ctxcert.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, solve_standard
from ctxcert.systems import generate_system

# -- rational-tableau reference ---------------------------------------------------


class _RefTableau:
    def __init__(self, rows: list[list[Fraction]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.pivots = 0

    def pivot(self, row: int, col: int) -> None:
        tableau = self.rows
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for r, line in enumerate(tableau):
            if r != row and line[col] != 0:
                f = line[col]
                prow = tableau[row]
                tableau[r] = [v - f * p for v, p in zip(line, prow)]
        self.basis[row] = col
        self.pivots += 1

    def run(self, cost: list[Fraction], allowed: list[bool]) -> str:
        tableau, basis = self.rows, self.basis
        m = len(tableau)
        width = len(tableau[0])
        while True:
            # Reduced costs from the canonical tableau: r_j = c_j - c_B . column_j.
            cb = [cost[basis[i]] for i in range(m)]
            entering = -1
            for j in range(width - 1):
                if not allowed[j] or j in basis:
                    continue
                r = cost[j] - sum(cb[i] * tableau[i][j] for i in range(m))
                if r < 0:
                    entering = j  # Bland: first improving index
                    break
            if entering < 0:
                return OPTIMAL
            leaving = -1
            best = None
            for i in range(m):
                a = tableau[i][entering]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)


def ref_solve_standard(a, b, c, maximize: bool = False) -> LPResult:
    m = len(a)
    n = len(c)
    obj = [Fraction(v) for v in c]
    if maximize:
        obj = [-v for v in obj]
    tableau = []
    signs = []
    for i in range(m):
        line = [Fraction(v) for v in a[i]]
        bi = Fraction(b[i])
        signs.append(-1 if bi < 0 else 1)
        if bi < 0:
            line = [-v for v in line]
            bi = -bi
        line = line + [Fraction(0)] * m + [bi]
        line[n + i] = Fraction(1)
        tableau.append(line)
    tab = _RefTableau(tableau, [n + i for i in range(m)])
    phase1_cost = [Fraction(0)] * n + [Fraction(1)] * m
    status = tab.run(phase1_cost, [True] * (n + m))
    assert status == OPTIMAL
    basis = tab.basis
    if sum(phase1_cost[basis[i]] * tableau[i][-1] for i in range(m)) > 0:
        # The phase-1 dual c_B B^-1, read from the artificial columns, which
        # hold B^-1 of the sign-adjusted rows.
        cb = [phase1_cost[col] for col in basis]
        ray = tuple(
            sign * sum(c * line[n + i] for c, line in zip(cb, tableau))
            for i, sign in enumerate(signs)
        )
        return LPResult(INFEASIBLE, None, None, tab.pivots, ray)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                tab.pivot(i, col)
    for i in reversed(drop):
        del tableau[i]
        del basis[i]
    status = tab.run(obj + [Fraction(0)] * m, [True] * n + [False] * m)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, tab.pivots)
    x = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = tableau[i][-1]
    value = sum(o * v for o, v in zip(obj, x))
    if maximize:
        value = -value
    return LPResult(OPTIMAL, tuple(x), value, tab.pivots)


def assert_same_as_reference(a, b, c, maximize: bool = False) -> LPResult:
    got = solve_standard(a, b, c, maximize)
    want = ref_solve_standard(a, b, c, maximize)
    assert got == want
    assert type(got.value) is type(want.value)
    assert want.x is None or [type(v) for v in got.x] == [type(v) for v in want.x]
    assert want.farkas is None or {type(v) for v in got.farkas} == {Fraction}
    return got


def assert_farkas(a, b, res: LPResult) -> None:
    """An INFEASIBLE result carries y with y.A <= 0 entrywise and y.b > 0;
    any other result carries no ray."""
    if res.status != INFEASIBLE:
        assert res.farkas is None
        return
    y = res.farkas
    assert len(y) == len(a)
    for j in range(len(a[0])):
        assert sum(yi * Fraction(row[j]) for yi, row in zip(y, a)) <= 0
    assert sum(yi * Fraction(bi) for yi, bi in zip(y, b)) > 0


# -- known instances ----------------------------------------------------------------


def test_simple_feasible_minimum():
    # min x0 + x1 s.t. x0 + x1 = 1: optimum 1.
    res = solve_standard([[1, 1]], [1], [1, 1])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_maximize():
    # max x0 s.t. x0 + x1 = 1.
    res = solve_standard([[1, 1]], [1], [1, 0], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 1 and res.x[0] == 1


def test_infeasible():
    # x0 + x1 = -1 has no nonnegative solution.
    res = solve_standard([[1, 1]], [-1], [0, 0])
    assert res.status == INFEASIBLE


def test_infeasible_conflicting_rows():
    res = solve_standard([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert res.status == INFEASIBLE


def test_unbounded():
    # max x0 - x1 with x0 - x1 = free direction: x0 - x1 + 0*s = ... use
    # a single equality that leaves a growth direction.
    res = solve_standard([[1, -1]], [0], [1, 0], maximize=True)
    assert res.status == UNBOUNDED


def test_redundant_rows_are_dropped():
    res = solve_standard([[1, 1], [2, 2]], [1, 2], [1, 2])
    assert res.status == OPTIMAL
    assert res.value == 1


def test_degenerate_vertices_terminate():
    # Classic degeneracy: several constraints through one vertex; Bland's
    # rule must not cycle.
    a = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1],
    ]
    b = [1, 1, 2]
    c = [-1, -1, 0, 0, 0]
    res = solve_standard(a, b, c)
    assert res.status == OPTIMAL
    assert res.value == -2


def test_exactness_with_awkward_fractions():
    a = [[Fraction(1, 3), Fraction(1, 7)]]
    b = [Fraction(1)]
    c = [Fraction(1), Fraction(1)]
    res = solve_standard(a, b, c)
    assert res.status == OPTIMAL
    assert res.value == 3  # put everything on the 1/3 column


def _row_reduce(a, b):
    """RREF of [a | b]; returns (consistent, reduced_rows, reduced_rhs)."""
    m, n = len(a), len(a[0]) if a else 0
    mat = [[Fraction(v) for v in a[i]] + [Fraction(b[i])] for i in range(m)]
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        piv = mat[r][col]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [v - f * p for v, p in zip(mat[i], mat[r])]
        r += 1
    for i in range(r, m):
        if mat[i][-1] != 0:
            return False, [], []
    return True, [row[:-1] for row in mat[:r]], [row[-1] for row in mat[:r]]


def _brute_force_optimum(a_raw, b_raw, c):
    """Optimal value over all basic feasible solutions of the reduced system."""
    consistent, a, b = _row_reduce(a_raw, b_raw)
    if not consistent:
        return False, None
    m, n = len(a), len(c)
    if m == 0:
        # Only x = 0 ... any nonnegative x is feasible; the zero vector is a
        # vertex, and negative costs make the problem unbounded.
        if any(Fraction(v) < 0 for v in c):
            return True, None
        return True, Fraction(0)
    best = None
    feasible = False
    for cols in combinations(range(n), m):
        # Solve the square system over the chosen basis by elimination.
        mat = [[Fraction(a[i][j]) for j in cols] + [Fraction(b[i])] for i in range(m)]
        ok = True
        for col in range(m):
            pivot = next((r for r in range(col, m) if mat[r][col] != 0), None)
            if pivot is None:
                ok = False
                break
            mat[col], mat[pivot] = mat[pivot], mat[col]
            piv = mat[col][col]
            mat[col] = [v / piv for v in mat[col]]
            for r in range(m):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [v - f * p for v, p in zip(mat[r], mat[col])]
        if not ok:
            continue
        x = [Fraction(0)] * n
        good = True
        for i, j in enumerate(cols):
            if mat[i][-1] < 0:
                good = False
                break
            x[j] = mat[i][-1]
        if not good:
            continue
        feasible = True
        value = sum(Fraction(c[j]) * x[j] for j in range(n))
        if best is None or value < best:
            best = value
    return feasible, best


def test_against_vertex_enumeration_oracle():
    rng = random.Random(2024)
    agree = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, m + 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 4)) for _ in range(m)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        res = solve_standard(a, b, c)
        assert_farkas(a, b, res)
        feasible, best = _brute_force_optimum(a, b, c)
        if not feasible:
            assert res.status == INFEASIBLE
        elif res.status == OPTIMAL:
            assert best is not None and res.value == best
            agree += 1
        else:
            # Unbounded: the oracle cannot certify, but feasibility must hold.
            assert res.status == UNBOUNDED
    assert agree > 10  # the generator produces plenty of bounded instances


# -- identity with the rational-tableau reference ----------------------------------

_rational = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5, 6, 7])),
)


@st.composite
def standard_lps(draw):
    """Mixed-denominator rows, negative and zero right-hand sides, and some rows
    that are rational combinations of others (redundant, or inconsistent when
    the right-hand side is perturbed)."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    a = [draw(st.lists(_rational, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.one_of(st.just(0), _rational), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        s, t = draw(_rational), draw(_rational)
        a.append([s * u + t * v for u, v in zip(a[i], a[j])])
        b.append(s * b[i] + t * b[j] + draw(st.sampled_from([0, 0, 0, 1])))
    # With A = 0 and b = 0 every row is dropped, which the reference's phase 2
    # does not handle; every other instance is compared.
    assume(any(a[0]))
    c = draw(st.lists(_rational, min_size=n, max_size=n))
    return a, b, c, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(standard_lps())
def test_identical_to_reference(lp):
    assert_same_as_reference(*lp)


def test_reference_identity_covers_every_status():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3), rng.choice((1, 4))) for _ in range(m)]
        c = [rng.randint(-3, 3) for _ in range(n)]
        if any(a[0]):
            seen.add(assert_same_as_reference(a, b, c, rng.random() < 0.5).status)
    assert seen == {OPTIMAL, INFEASIBLE, UNBOUNDED}


def test_negative_drive_out_pivot_matches_reference(monkeypatch):
    # -2 x1 = 0 leaves its artificial basic at level 0 after phase 1, and the
    # drive-out pivots on the -2.
    signs = []
    pivot = simplex._Tableau.pivot

    def recording(tab, r, c):
        signs.append(tab.rows[r][c] > 0)
        pivot(tab, r, c)

    monkeypatch.setattr(simplex._Tableau, "pivot", recording)
    res = assert_same_as_reference([[0, -2], [1, 1]], [0, 1], [1, -1])
    assert signs == [True, False]
    assert res == LPResult(OPTIMAL, (Fraction(1), Fraction(0)), Fraction(1), 2)


def _rays_system(rays):
    return generate_system([projector_from_vector(r) for r in rays])


# Yu and Oh's 13 rays (PRL 108, 030402, 2012) and three mutually unrelated
# orthonormal bases of R^3 (rows of integer quaternion rotations).
YU_OH_RAYS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (0, 1, 1), (0, 1, -1), (1, 0, 1), (1, 0, -1), (1, 1, 0), (1, -1, 0),
    (1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
]
THREE_BASES_RAYS = [
    (1, 0, 0), (0, 1, 0), (0, 0, 1),
    (-1, 2, -2), (-2, 1, 2), (2, 2, 1),
    (-2, 2, -1), (-2, -1, 2), (1, 2, 2),
]


def _certificate_lps(monkeypatch, system, density):
    """Run the membership LP on the state of ``density`` and on the
    barycentre of the 0-1 states; return every LP handed to the solver."""
    calls = []

    def recording(a, b, c, maximize=False):
        calls.append((a, b, c, maximize))
        return solve_standard(a, b, c, maximize)

    monkeypatch.setattr(analyze, "solve_standard", recording)
    s01 = analyze.zero_one_states(system)
    graph = s01[0].graph
    red = analyze.clique_reduction(graph)
    state = analyze.rationalize_state(system.state_from_density(density))
    quantum = {v: Fraction(state.value(v)) for v in graph.vertices}
    barycentre = {v: Fraction(sum(lam.value(v) for lam in s01), len(s01)) for v in graph.vertices}
    for target in (quantum, barycentre):
        analyze._membership_lp(red.free, s01, target)
    return calls


CERTIFIED = [("kcbs", None), ("yu-oh", YU_OH_RAYS), ("three-bases", THREE_BASES_RAYS)]


def _certified_case(q_kcbs, rays):
    if rays is None:
        return q_kcbs, kcbs_state()
    return _rays_system(rays), DensityMatrix.maximally_mixed(3)


@pytest.mark.parametrize("name, rays", CERTIFIED)
def test_certificate_lps_identical_to_reference(monkeypatch, q_kcbs, name, rays):
    system, density = _certified_case(q_kcbs, rays)
    calls = _certificate_lps(monkeypatch, system, density)
    assert len(calls) == 2
    statuses = [assert_same_as_reference(*lp).status for lp in calls]
    assert statuses[1] == OPTIMAL
    assert statuses[0] == (OPTIMAL if name == "three-bases" else INFEASIBLE)


@pytest.mark.parametrize("name, rays", CERTIFIED[:2])
def test_a_flipped_ray_ends_in_certificate_error(monkeypatch, q_kcbs, name, rays):
    """The ray only proposes an inequality; substitution decides.  The state
    satisfies the inequality of -y, so a flipped ray ends in an error, not in
    a verdict."""
    system, density = _certified_case(q_kcbs, rays)

    def flipped(*args):
        res = solve_standard(*args)
        assert res.status == INFEASIBLE
        return LPResult(res.status, None, None, res.pivots, tuple(-v for v in res.farkas))

    p = system.state_from_density(density)
    assert analyze.is_noncontextual(p).verdict == analyze.CONTEXTUAL
    monkeypatch.setattr(analyze, "solve_standard", flipped)
    with pytest.raises(CertificateError, match="does not separate"):
        analyze.is_noncontextual(p)


def test_kcbs_membership_lp_pivot_count(monkeypatch, q_kcbs, kcbs_s01, kcbs_quantum_state):
    results = []

    def recording(a, b, c, maximize=False):
        results.append(solve_standard(a, b, c, maximize))
        return results[-1]

    monkeypatch.setattr(analyze, "solve_standard", recording)
    cert = analyze.is_noncontextual(kcbs_quantum_state, kcbs_s01)
    assert cert.verdict == "CONTEXTUAL"
    assert [(r.status, r.pivots) for r in results] == [(INFEASIBLE, 11)]


# -- scipy's HiGHS as an independent float oracle ----------------------------------


def test_against_scipy_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = random.Random(5)
    statuses = set()
    for _ in range(80):
        m = rng.randint(1, 5)
        n = rng.randint(m, m + 5)
        a = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(m)]
        if rng.random() < 0.7:
            x0 = [Fraction(rng.randint(0, 3)) for _ in range(n)]
            b = [sum(u * v for u, v in zip(row, x0)) for row in a]
        else:
            b = [Fraction(rng.randint(-5, 5)) for _ in range(m)]
        # sum(x) + slack = 20 keeps the feasible region bounded.
        a = [row + [0] for row in a] + [[1] * (n + 1)]
        b = b + [Fraction(20)]
        c = [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(n)] + [0]
        maximize = rng.random() < 0.5
        res = solve_standard(a, b, c, maximize)
        assert_farkas(a, b, res)
        sign = -1 if maximize else 1
        ref = linprog(
            [sign * float(v) for v in c],
            A_eq=[[float(v) for v in row] for row in a],
            b_eq=[float(v) for v in b],
            bounds=(0, None),
            method="highs",
        )
        assert ref.status in (0, 2), ref.message
        want = OPTIMAL if ref.status == 0 else INFEASIBLE
        assert res.status == want
        if want == OPTIMAL:
            assert float(res.value) == pytest.approx(sign * ref.fun, rel=1e-9, abs=1e-9)
        statuses.add(want)
    assert statuses == {OPTIMAL, INFEASIBLE}
