"""Exact phase-1 simplex: known instances, a brute-force vertex-enumeration
oracle, scipy's HiGHS as an independent float oracle, and a rational-tableau
reference kept only here.

The reference is the dense ``Fraction`` tableau the integer-preserving one
replaced.  Both run the same Bland pivots, so status, ``x``, the pivot count
and the Farkas ray of an infeasible system must come out identical on every
system.  ``feasible_point`` takes integer rows and an integer rhs, so a
random system with rational rows is scaled row by row to integers before
either solver sees it, and ``solve`` passes a rational rhs as its
numerators over one denominator and reads the integer results back as
rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcert import analyze, certify, simplex
from ctxcert.catalog import kcbs_state
from ctxcert.errors import CertificateError
from ctxcert.linalg import DensityMatrix, ExactMatrix, projector_from_vector
from ctxcert.simplex import INFEASIBLE, OPTIMAL, LPResult, feasible_point
from ctxcert.systems import generate_system

from certificate_helpers import integer_target
from test_components import _densities

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

    def run(self, cost: list[Fraction]) -> None:
        tableau, basis = self.rows, self.basis
        m = len(tableau)
        width = len(tableau[0])
        while True:
            # Reduced costs from the canonical tableau: r_j = c_j - c_B . column_j.
            cb = [cost[basis[i]] for i in range(m)]
            entering = -1
            for j in range(width - 1):
                if j in basis:
                    continue
                r = cost[j] - sum(cb[i] * tableau[i][j] for i in range(m))
                if r < 0:
                    entering = j  # Bland: first improving index
                    break
            if entering < 0:
                return
            leaving = -1
            best = None
            for i in range(m):
                a = tableau[i][entering]
                if a > 0:
                    ratio = tableau[i][-1] / a
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                        best = ratio
                        leaving = i
            assert leaving >= 0
            self.pivot(leaving, entering)


def ref_feasible_point(a, b) -> LPResult:
    m = len(a)
    n = len(a[0])
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
    tab.run(phase1_cost)
    basis = tab.basis
    if sum(phase1_cost[basis[i]] * tableau[i][-1] for i in range(m)) > 0:
        # The phase-1 dual c_B B^-1, read from the artificial columns, which
        # hold B^-1 of the sign-adjusted rows.
        cb = [phase1_cost[col] for col in basis]
        ray = tuple(
            sign * sum(c * line[n + i] for c, line in zip(cb, tableau))
            for i, sign in enumerate(signs)
        )
        return LPResult(INFEASIBLE, None, tab.pivots, ray)
    x = [Fraction(0)] * n
    for i, col in enumerate(basis):
        if col < n:
            x[col] = tableau[i][-1]
    return LPResult(OPTIMAL, tuple(x), tab.pivots)


def _integer_rows(a, b):
    """Each row of a, with its b_i, times the lcm of the row's denominators."""
    scales = [lcm(*(Fraction(v).denominator for v in row)) for row in a]
    rows = [[int(Fraction(v) * s) for v in row] for row, s in zip(a, scales)]
    return rows, [Fraction(bi) * s for bi, s in zip(b, scales)]


def solve(a, b) -> LPResult:
    """``feasible_point`` on a rational rhs b, which it takes as integer
    numerators over their lcm Q; its integer results are read back as
    rationals: x is its levels over D * Q, and y its ray over D."""
    q = lcm(*(Fraction(v).denominator for v in b))
    res = feasible_point(a, [int(Fraction(v) * q) for v in b])
    assert {type(v) for v in res.x or res.farkas} <= {int} and type(res.den) is int
    if res.status == OPTIMAL:
        return LPResult(OPTIMAL, tuple(Fraction(v, res.den * q) for v in res.x), res.pivots)
    return LPResult(INFEASIBLE, None, res.pivots, tuple(Fraction(v, res.den) for v in res.farkas))


def assert_same_as_reference(a, b) -> LPResult:
    got = solve(a, b)
    want = ref_feasible_point(a, b)
    assert got == want
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


def assert_solves(a, b, res: LPResult) -> None:
    """An OPTIMAL result carries x >= 0 with a x = b."""
    assert res.status == OPTIMAL and res.farkas is None
    assert all(v >= 0 for v in res.x)
    for row, bi in zip(a, b):
        assert sum(Fraction(u) * v for u, v in zip(row, res.x)) == bi


def test_simple_feasible_minimum():
    # x0 + x1 = 1: phase 1 reaches its minimum 0 at the vertex (1, 0).
    res = feasible_point([[1, 1]], [1])
    assert_solves([[1, 1]], [1], res)
    assert res.x == (1, 0)


def test_infeasible():
    # x0 + x1 = -1 has no nonnegative solution.
    res = feasible_point([[1, 1]], [-1])
    assert res.status == INFEASIBLE


def test_infeasible_conflicting_rows():
    res = feasible_point([[1, 1], [1, 1]], [1, 2])
    assert res.status == INFEASIBLE


def _level_zero_artificials(monkeypatch, a, b):
    """The solution, and the rows whose artificial is still basic, at level
    0, when phase 1 ends."""
    rows = []
    bland = simplex._bland
    n = len(a[0])

    def recording(tableau, basis, var):
        out = bland(tableau, basis, var)
        rows.extend(i for i, col in enumerate(basis) if col >= n and not tableau[i][-1])
        return out

    monkeypatch.setattr(simplex, "_bland", recording)
    return assert_same_as_reference(a, b), rows


def test_redundant_rows_keep_an_artificial_basic(monkeypatch):
    # The second row is twice the first: no structural column can replace
    # its artificial, which stays basic at level 0 and is not read.
    a, b = [[1, 1], [2, 2]], [1, 2]
    res, rows = _level_zero_artificials(monkeypatch, a, b)
    assert_solves(a, b, res)
    assert rows == [1] and res.x == (1, 0)


def test_degenerate_vertices_terminate():
    # Classic degeneracy: several constraints through one vertex; Bland's
    # rule must not cycle.
    a = [
        [1, 0, 1, 0, 0],
        [0, 1, 0, 1, 0],
        [1, 1, 0, 0, 1],
    ]
    b = [1, 1, 2]
    assert_solves(a, b, solve(a, b))


def test_exactness_with_awkward_fractions():
    a = [[7, 3]]
    b = [21]
    res = solve(a, b)
    assert_solves(a, b, res)
    assert res.x == (3, 0)  # the first improving column enters
    assert feasible_point(a, b) == LPResult(OPTIMAL, (21, 0), 1, None, 7)


@pytest.mark.parametrize("entry", [Fraction(1, 3), Fraction(2), 0.5, 1.0, "1"], ids=repr)
def test_rows_must_be_integers(entry):
    """A row or rhs entry is read by ``operator.index``: a Fraction, a float
    or a string is a TypeError, never floored or scaled."""
    with pytest.raises(TypeError):
        feasible_point([[1, entry]], [1])
    with pytest.raises(TypeError):
        feasible_point([[1, 1]], [entry])
    assert feasible_point([[1, True]], [True]).status == OPTIMAL


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


def _basic_feasible_solutions(a_raw, b_raw):
    """Every basic feasible solution of the reduced system, or None when the
    system is inconsistent."""
    consistent, a, b = _row_reduce(a_raw, b_raw)
    if not consistent:
        return None
    m, n = len(a), len(a_raw[0])
    found = set()
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
        if not ok or any(mat[i][-1] < 0 for i in range(m)):
            continue
        x = [Fraction(0)] * n
        for i, j in enumerate(cols):
            x[j] = mat[i][-1]
        found.add(tuple(x))
    return found


def test_against_vertex_enumeration_oracle():
    rng = random.Random(2024)
    agree = 0
    for _ in range(60):
        m = rng.randint(1, 3)
        n = rng.randint(m + 1, m + 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(0, 4)) for _ in range(m)]
        a, b = _integer_rows(a, b)
        res = solve(a, b)
        assert_farkas(a, b, res)
        vertices = _basic_feasible_solutions(a, b)
        if not vertices:
            assert res.status == INFEASIBLE
        else:
            assert_solves(a, b, res)
            assert res.x in vertices
            agree += 1
    assert agree > 10  # the generator produces plenty of feasible instances


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
    return a, b


@settings(max_examples=300, deadline=None)
@given(standard_lps())
def test_identical_to_reference(lp):
    assert_same_as_reference(*_integer_rows(*lp))


def test_reference_identity_covers_every_status():
    rng = random.Random(11)
    seen = set()
    for _ in range(300):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        a = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3), rng.choice((1, 4))) for _ in range(m)]
        seen.add(assert_same_as_reference(*_integer_rows(a, b)).status)
    assert seen == {OPTIMAL, INFEASIBLE}


def test_zero_level_artificial_stays_basic(monkeypatch):
    # -2 x1 = 0 leaves its artificial basic at level 0 after phase 1; x is
    # read off the basis as it stands.
    a, b = [[0, -2], [1, 1]], [0, 1]
    res, rows = _level_zero_artificials(monkeypatch, a, b)
    assert rows == [0]
    assert res == LPResult(OPTIMAL, (Fraction(1), Fraction(0)), 1)


# Right-hand-side denominators up to 10**12, as ``rationalize_state`` makes.
DIFFERENTIAL_DENOMINATORS = (1, 2, 3, 7, 10**6, 999983, 10**12, 10**12 - 11)


def _differential_lp(rng):
    """Up to 4 rows, 0-1 or integer in -3..3, over up to 10 columns; then up
    to 2 more rows, each a duplicate of a row or the sum of two, on the
    same right-hand side or one moved by 1.  The right-hand side is a x0 for
    a random rational x0 >= 0, or drawn at random, signs included."""
    m, n = rng.randint(1, 4), rng.randint(1, 10)
    lo, hi = (0, 1) if rng.random() < 0.5 else (-3, 3)
    a = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        x0 = [Fraction(rng.randint(0, 10**6), rng.choice(DIFFERENTIAL_DENOMINATORS)) for _ in range(n)]
        b = [sum(u * v for u, v in zip(row, x0)) for row in a]
    else:
        b = [Fraction(rng.randint(-10**6, 10**6), rng.choice(DIFFERENTIAL_DENOMINATORS)) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        i, j = rng.randrange(m), rng.randrange(m)
        if rng.random() < 0.5:
            a.append(list(a[i]))
            b.append(b[i])
        else:
            a.append([u + v for u, v in zip(a[i], a[j])])
            b.append(b[i] + b[j])
        if rng.random() < 0.25:
            b[-1] += 1
    return a, b


def test_seeded_differential_against_reference(monkeypatch):
    """3,000 seeded LPs: ``feasible_point`` is the rational reference's,
    and both statuses and a basic artificial left at level 0 occur."""
    bland, zero_level = simplex._bland, []

    def recording(rows, basis, var):
        out = bland(rows, basis, var)
        # Slots hold the n nonbasic variables, so artificials are n and up.
        zero_level.append(any(col >= len(var) and not rows[i][-1] for i, col in enumerate(basis)))
        return out

    monkeypatch.setattr(simplex, "_bland", recording)
    rng = random.Random(2510)
    statuses = {assert_same_as_reference(*_differential_lp(rng)).status for _ in range(3000)}
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert len(zero_level) == 3000 and any(zero_level)


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

    def recording(a, b):
        calls.append((a, b))
        return feasible_point(a, b)

    monkeypatch.setattr(certify, "feasible_point", recording)
    s01 = analyze.zero_one_states(system)
    graph = s01[0].graph
    red = certify.clique_reduction(graph)
    quantum = certify._target(system.state_from_density(density))
    barycentre = {v: Fraction(sum(lam.value(v) for lam in s01), len(s01)) for v in graph.vertices}
    for t, q in (quantum, integer_target(barycentre)):
        certify._membership_lp(graph, s01.masks, red.free, t, q)
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


# Denominators of the kind ``rationalize_state`` produces: near its bound
# 10**12, prime, and small.
RATIONALIZED_DENOMINATORS = (10**12 + 39, 999983, 7, 1)


def _membership_shaped_lp(rng):
    """0-1 rows over the states, then sum(w) = 1, and sometimes a repeated
    or summed row; the right-hand side over rationalized denominators."""
    m = rng.randint(1, 6)
    n = rng.randint(1, 12)
    a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(0, 10**6), rng.choice(RATIONALIZED_DENOMINATORS)) for _ in range(m)]
    a.append([1] * n)
    b.append(Fraction(1))
    if rng.random() < 0.4:
        i, j = rng.randrange(m), rng.randrange(m)
        a.append([u + v for u, v in zip(a[i], a[j])])
        b.append(b[i] + b[j])
    return a, b


def test_membership_shaped_lps_identical_to_reference():
    rng = random.Random(2207)
    seen = set()
    for _ in range(300):
        seen.add(assert_same_as_reference(*_membership_shaped_lp(rng)).status)
    assert seen == {OPTIMAL, INFEASIBLE}


def test_rationalized_certificate_lps_identical_to_reference(monkeypatch, q_kcbs):
    """The KCBS noise grid, rationalized from floats, and random Yu-Oh
    states: every membership LP is the reference's."""
    psi = kcbs_state()
    noise = DensityMatrix.maximally_mixed(3, backend="float")
    calls = []
    for k in range(21):
        rho = DensityMatrix.mixture([1 - k / 20, k / 20], [psi, noise])
        calls += _certificate_lps(monkeypatch, q_kcbs, rho)
    yu_oh = _rays_system(YU_OH_RAYS)
    for rho in _densities(random.Random(22), 20)[1:]:
        calls += _certificate_lps(monkeypatch, yu_oh, rho)
    # The sum row's rhs is the target's denominator Q.
    assert any(b[-1] > 10**9 for _, b in calls)
    statuses = {assert_same_as_reference(*lp).status for lp in calls}
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_rationalized_rhs_keeps_the_determinant_small(monkeypatch, q_kcbs):
    """The rows stay 0-1 whatever the right-hand side's denominators, so
    D = |det B| is the determinant of an m x m 0-1 matrix, within Hadamard's
    bound for those, (m+1)**((m+1)/2) / 2**m."""
    dens = []
    bland = simplex._bland

    def recording(rows, basis, var):
        den, pivots = bland(rows, basis, var)
        dens.append(den)
        return den, pivots

    monkeypatch.setattr(simplex, "_bland", recording)
    rho = DensityMatrix.mixture([0.7, 0.3], [kcbs_state(), DensityMatrix.maximally_mixed(3, backend="float")])
    calls = _certificate_lps(monkeypatch, q_kcbs, rho)
    assert calls[0][1][-1] > 10**9  # the target's denominator Q
    assert len(dens) == 2
    for d, (a, _) in zip(dens, calls):
        m = len(a)
        assert 0 < d and d**2 * 4**m <= (m + 1) ** (m + 1)


@pytest.mark.parametrize("name, rays", CERTIFIED[:2])
def test_a_flipped_ray_ends_in_certificate_error(monkeypatch, q_kcbs, name, rays):
    """The ray only proposes an inequality; substitution decides.  The state
    satisfies the inequality of -y, so a flipped ray ends in an error, not in
    a verdict."""
    system, density = _certified_case(q_kcbs, rays)

    def flipped(*args):
        res = feasible_point(*args)
        assert res.status == INFEASIBLE
        return LPResult(res.status, None, res.pivots, tuple(-v for v in res.farkas))

    p = system.state_from_density(density)
    assert analyze.is_noncontextual(p).verdict == analyze.CONTEXTUAL
    monkeypatch.setattr(certify, "feasible_point", flipped)
    with pytest.raises(CertificateError, match="does not separate"):
        analyze.is_noncontextual(p)


def test_kcbs_membership_lp_pivot_count(monkeypatch, q_kcbs, kcbs_s01, kcbs_quantum_state):
    results = []

    def recording(a, b):
        results.append(feasible_point(a, b))
        return results[-1]

    monkeypatch.setattr(certify, "feasible_point", recording)
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
        a, b = _integer_rows(a, b)
        res = solve(a, b)
        assert_farkas(a, b, res)
        ref = linprog(
            [0] * (n + 1),
            A_eq=[[float(v) for v in row] for row in a],
            b_eq=[float(v) for v in b],
            bounds=(0, None),
            method="highs",
        )
        assert ref.status in (0, 2), ref.message
        want = OPTIMAL if ref.status == 0 else INFEASIBLE
        assert res.status == want
        if want == OPTIMAL:
            assert_solves(a, b, res)
        statuses.add(want)
    assert statuses == {OPTIMAL, INFEASIBLE}
