"""Vector families and the deterministic-assignment search."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxcert.catalog import BUILTINS, CEG_REMOVED_VECTOR, ceg_prime, ceg_set
from ctxcert.errors import OrthogonalityCheckFailed, OutOfRange, SearchBudgetExceeded
from ctxcert.linalg import orthogonal
from ctxcert.vectorsets import (
    Basis,
    VectorSet,
    ks_assignment_search,
    lift_ks_set,
)


def brute_force_ks_assignments(vs: VectorSet) -> list[dict[str, int]]:
    """All valid assignments by full enumeration; test oracle for small sets."""
    n = len(vs.vectors)
    if n > 20:
        raise SearchBudgetExceeded(2**n, 2**20)
    full_bases = [b.indices for b in vs.bases if b.complete]
    out = []
    for mask in range(2**n):
        bits = [(mask >> i) & 1 for i in range(n)]
        if any(bits[i] and bits[j] for i, j in vs._orth):
            continue
        if any(sum(bits[v] for v in basis) != 1 for basis in full_bases):
            continue
        out.append({vs.names[i]: bits[i] for i in range(n)})
    return out


def verify_ks_assignment(vs: VectorSet, assignment: dict[str, int]) -> bool:
    bits = [assignment[name] for name in vs.names]
    if any(bits[i] and bits[j] for i, j in vs._orth):
        return False
    return all(
        sum(bits[v] for v in b.indices) == 1 for b in vs.bases if b.complete
    )


def test_ceg_fixture_shape():
    vs = ceg_set()
    assert len(vs) == 18
    assert len(vs.bases) == 9
    assert all(b.complete for b in vs.bases)
    counts = [0] * 18
    for b in vs.bases:
        for i in b.indices:
            counts[i] += 1
    assert counts == [2] * 18


def test_ceg_contains_the_pinned_context():
    vs = ceg_set()
    first = tuple(vs.names[i] for i in vs.bases[0].indices)
    assert first == ("(1,0,0,0)", "(0,1,0,0)", "(0,0,1,1)", "(0,0,1,-1)")


def test_declared_bases_must_be_orthogonal():
    with pytest.raises(OrthogonalityCheckFailed):
        VectorSet(2, ["a", "b"], [(1, 0), (1, 1)], [Basis((0, 1))])


def test_ceg_admits_no_assignment():
    result = ks_assignment_search(ceg_set())
    assert not result.found


def test_ceg_prime_admits_an_assignment():
    vs = ceg_prime()
    assert len(vs) == 17
    assert sum(1 for b in vs.bases if not b.complete) == 2
    result = ks_assignment_search(vs)
    assert result.found
    assert verify_ks_assignment(vs, result.assignment)


def test_ceg_prime_assignment_tears_the_removed_vector():
    # The two contexts that lost (1,0,0,0) must disagree about it: one forces
    # the missing vector to 1 (its three survivors all read 0) and the other
    # forces it to 0 (one survivor reads 1).
    full = ceg_set()
    vs = ceg_prime()
    result = ks_assignment_search(vs)
    removed_idx = full.index(CEG_REMOVED_VECTOR)
    forced = []
    for basis in full.bases:
        if removed_idx in basis.indices:
            survivors = [full.names[i] for i in basis.indices if i != removed_idx]
            forced.append(1 - sum(result.assignment[n] for n in survivors))
    assert sorted(forced) == [0, 1]


def test_single_basis_dimension_three():
    vs = VectorSet(3, ["a", "b", "c"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [Basis((0, 1, 2))])
    assert len(brute_force_ks_assignments(vs)) == 3
    result = ks_assignment_search(vs)
    assert result.assignment == {"a": 1, "b": 0, "c": 0}


def test_search_gives_one_to_earliest_vector():
    vs = VectorSet(2, ["a", "b"], [(1, 0), (0, 1)], [Basis((0, 1))])
    result = ks_assignment_search(vs)
    assert result.assignment == {"a": 1, "b": 0}


def _sub_vectorset(vs, keep):
    keep = sorted(keep)
    remap = {old: new for new, old in enumerate(keep)}
    bases = [
        Basis(tuple(remap[i] for i in b.indices), b.complete)
        for b in vs.bases
        if all(i in remap for i in b.indices)
    ]
    return VectorSet(
        vs.dim,
        [vs.names[i] for i in keep],
        [vs.vectors[i] for i in keep],
        bases,
        vs.backend,
        vs.tol,
    )


def test_search_matches_brute_force_on_small_subsets():
    vs = ceg_set()
    rng = random.Random(42)
    for _ in range(12):
        size = rng.randint(4, 12)
        keep = rng.sample(range(18), size)
        sub = _sub_vectorset(vs, keep)
        brute = brute_force_ks_assignments(sub)
        result = ks_assignment_search(sub)
        assert result.found == bool(brute)
        if brute:
            # First found maximizes the value tuple in declared order.
            first = max(tuple(a[n] for n in sub.names) for a in brute)
            assert tuple(result.assignment[n] for n in sub.names) == first


def test_budget_respected():
    vs = ceg_set()
    with pytest.raises(SearchBudgetExceeded):
        ks_assignment_search(vs, budget=2)


@pytest.mark.parametrize(
    "name, nodes", [("ceg", 15), ("ceg17", 7), ("ceg-lift", 17), ("ceg-gen12", 15), ("kcbs", 3)]
)
def test_search_nodes_are_pinned(name, nodes):
    # The node counts that ks-check reports; a budget of exactly that many
    # nodes passes and one fewer trips.
    vs = BUILTINS[name].vector_set()
    assert ks_assignment_search(vs).nodes == nodes
    assert ks_assignment_search(vs, budget=nodes).nodes == nodes
    with pytest.raises(SearchBudgetExceeded):
        ks_assignment_search(vs, budget=nodes - 1)


def test_forced_search_nodes_are_pinned():
    result = ks_assignment_search(lift_ks_set(ceg_set()), forced={"kprime": 0})
    assert not result.found and result.nodes == 15


def test_forced_conflict_explores_no_nodes():
    vs = VectorSet(3, ["a", "b", "c"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [Basis((0, 1, 2))])
    result = ks_assignment_search(vs, forced={"a": 1, "b": 1})
    assert result.assignment is None and result.nodes == 0


@pytest.mark.parametrize("value", [2, -1])
def test_forced_value_must_be_zero_or_one(value):
    vs = VectorSet(3, ["a", "b", "c"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [Basis((0, 1, 2))])
    with pytest.raises(OutOfRange, match="'a'"):
        ks_assignment_search(vs, forced={"a": value})


# -- lifting --------------------------------------------------------------------


def test_lift_shape_and_orthogonality():
    vs = ceg_set()
    lifted = lift_ks_set(vs)
    assert lifted.dim == 5
    assert len(lifted) == 19
    assert lifted.names[-1] == "kprime"
    # Original orthogonality is preserved and kprime is orthogonal to all.
    base_pairs = vs.orthogonal_names()
    lifted_pairs = lifted.orthogonal_names()
    assert base_pairs <= lifted_pairs
    for name in vs.names:
        assert tuple(sorted((name, "kprime"))) in lifted_pairs
    assert all(b.complete and len(b.indices) == 5 for b in lifted.bases)


def test_lift_has_assignment_but_not_with_kprime_zero():
    # The new ray can take the single 1 in every basis; forcing it to 0
    # recreates the original unsolvable constraints.  Machine-checks the
    # contradiction used to prove the lifted system is nonclassical.
    lifted = lift_ks_set(ceg_set())
    result = ks_assignment_search(lifted)
    assert result.found
    assert result.assignment["kprime"] == 1
    assert not ks_assignment_search(lifted, forced={"kprime": 0}).found


def test_lift_of_solvable_set_stays_solvable_with_kprime_zero():
    vs = VectorSet(3, ["a", "b", "c"], [(1, 0, 0), (0, 1, 0), (0, 0, 1)], [Basis((0, 1, 2))])
    lifted = lift_ks_set(vs)
    result = ks_assignment_search(lifted, forced={"kprime": 0})
    assert result.found and result.assignment["kprime"] == 0


def _inner_exact(u, v):
    """conj(u) . v in Fraction arithmetic: the orthogonality test VectorSet
    used before it scaled each ray to Gaussian integers."""
    re = Fraction(0)
    im = Fraction(0)
    for x, y in zip(u, v):
        a, b = map(Fraction, x if isinstance(x, tuple) else (x, 0))
        c, d = map(Fraction, y if isinstance(y, tuple) else (y, 0))
        re += a * c + b * d
        im += a * d - b * c
    return re, im


def _reference_pairs(vectors):
    return frozenset(
        (i, j)
        for i, j in itertools.combinations(range(len(vectors)), 2)
        if _inner_exact(vectors[i], vectors[j]) == (0, 0)
    )


_parts = st.one_of(
    st.sampled_from([0, 0, 1, -1, 2]),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
)
_entries = st.one_of(_parts, st.tuples(_parts, _parts))


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.lists(st.lists(_entries, min_size=d, max_size=d), min_size=2, max_size=7)
))
@settings(max_examples=200, deadline=None)
def test_orthogonality_pairs_match_fraction_inner_product(vectors):
    d = len(vectors[0])
    vs = VectorSet(d, [f"v{i}" for i in range(len(vectors))], vectors)
    assert vs._orth == _reference_pairs(vectors)


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_orthogonality_matches_fraction_inner_product(name):
    vs = BUILTINS[name].vector_set()
    if vs.backend == "exact":
        assert vs._orth == _reference_pairs(vs.vectors)


@given(
    st.integers(min_value=2, max_value=4),
    st.integers(min_value=0, max_value=10**6),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=6, max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_float_orthogonality_does_not_depend_on_ray_length(d, seed, exponents):
    """Random float rays, half of them made orthogonal to an earlier ray by
    Gram-Schmidt, then each scaled by 10**k: the orthogonal pairs stay the
    same, and they are the pairs whose projectors ``orthogonal`` accepts."""
    rng = random.Random(seed)
    rays = []
    for _ in exponents:
        w = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)]
        if rays and rng.random() < 0.5:
            u = rng.choice(rays)
            c = sum(x.conjugate() * y for x, y in zip(u, w)) / sum(abs(x) ** 2 for x in u)
            w = [y - c * x for x, y in zip(u, w)]
        rays.append(w)
    names = [f"v{i}" for i in range(len(rays))]
    plain = VectorSet(d, names, rays, backend="float")
    scaled_rays = [[x * 10.0**k for x in ray] for ray, k in zip(rays, exponents)]
    scaled = VectorSet(d, names, scaled_rays, backend="float")
    assert scaled.orthogonal_names() == plain.orthogonal_names()
    by_projector = {
        (a, b)
        for a, b in itertools.combinations(names, 2)
        if orthogonal(scaled.projector(a), scaled.projector(b))
    }
    assert scaled.orthogonal_names() == by_projector
