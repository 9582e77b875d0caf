"""Pasted-context structures: gluing closure, order laws, the B2 counterexample."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctxcert.catalog import b2_pasted
from ctxcert.errors import Incompatible, InconsistentGluing, NotAPBA, UnknownElement
from ctxcert.pasted import CheckResult, PastedPBA, build_pasted_pba
from test_pasted_masks import FIXTURES as MASK_FIXTURES


@pytest.fixture(scope="module")
def b2():
    return b2_pasted()


def test_b2_has_twelve_elements(b2):
    assert len(b2.element_names) == 12


def test_b2_order_examples(b2):
    assert b2.leq("a1", "c")
    assert b2.leq("c", "a2|c")
    assert not b2.leq("a1", "a2|c")


def test_b2_exclusive_but_incompatible(b2):
    assert b2.exclusive("a1", "a2")
    assert not b2.compatible("a1", "a2")


def test_b2_lep_violation(b2):
    result = b2.check_lep()
    assert not result.holds
    assert result.violation == ("a1", "a2")


def test_b2_transitivity_violation(b2):
    result = b2.check_transitivity()
    assert not result.holds
    assert result.violation == ("a1", "c", "a2|c")


def test_b2_complements(b2):
    assert b2.complement_of("c") == "x"
    assert b2.complement_of("x") == "c"
    assert b2.complement_of("0") == "1"


def test_b2_meet_join(b2):
    assert b2.meet_of("c", "x") == "0"
    assert b2.join_of("c", "x") == "1"
    assert b2.join_of("a1", "b1") == "c"
    with pytest.raises(Incompatible):
        b2.meet_of("a1", "a2")


def test_b2_atoms(b2):
    assert set(b2.atoms()) == {"a1", "b1", "a2", "b2"}
    g = b2.atom_graph()
    assert g.edges == frozenset({("a1", "b1"), ("a2", "b2")})


def test_single_context_boolean_algebra():
    b = build_pasted_pba([("C", ["a", "b", "c"])])
    assert len(b.element_names) == 8
    assert b.check_lep().holds
    assert b.check_transitivity().holds


def test_same_context_gluing_rejected():
    with pytest.raises(InconsistentGluing):
        build_pasted_pba(
            [("C", ["a1", "b1", "x"])],
            gluings=[(("C", ["a1"]), ("C", ["b1"]))],
        )


def test_two_contexts_sharing_only_bounds_hold():
    b = build_pasted_pba([("C1", ["a", "b"]), ("C2", ["c", "d"])])
    assert b.check_lep().holds
    assert b.check_transitivity().holds
    assert b.axiom_report.verified_up_to_size >= 3


def test_shared_atom_auto_gluing():
    b = build_pasted_pba([("C1", ["a", "b", "x1"]), ("C2", ["b", "c", "x2"])])
    # The shared atom b and its complement are glued; everything else is local.
    assert b.compatible("a", "b") and b.compatible("b", "c")
    assert not b.compatible("a", "c")
    assert b.complement_of("b") == "a|x1"
    assert b.element_of("C1", ["a", "x1"]) == b.element_of("C2", ["c", "x2"])
    assert len(b.element_names) == 12  # 8 + 8 sharing 0, 1, b, not-b


def test_two_atom_contexts_collapse_by_complement():
    # In a 2-atom context the atoms are each other's complements, so sharing
    # one atom forces the other two to coincide.
    b = build_pasted_pba([("C1", ["a", "b"]), ("C2", ["b", "c"])])
    assert len(b.element_names) == 4
    assert b.element_of("C1", ["a"]) == b.element_of("C2", ["c"])


def test_unknown_element_raises(b2):
    with pytest.raises(UnknownElement):
        b2.leq("a1", "nope")


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_single_context_always_lawful(n_atoms, seed):
    atoms = [f"a{i}" for i in range(n_atoms)]
    b = build_pasted_pba([("C", atoms)])
    assert b.check_lep().holds
    assert b.check_transitivity().holds
    assert len(b.element_names) == 2**n_atoms


def test_relations_are_lawful_on_b2(b2):
    names = b2.element_names
    for x in names:
        assert b2.leq(x, x)
        assert b2.compatible(x, x)
    for x, y in combinations(names, 2):
        assert b2.compatible(x, y) == b2.compatible(y, x)
        assert b2.exclusive(x, y) == b2.exclusive(y, x)
        if b2.leq(x, y) and b2.leq(y, x):
            assert x == y


# -- states on pasted structures ----------------------------------------------


def b2_state(b2, pa1, pb1, pa2, pb2):
    vals = {
        "a1": pa1,
        "b1": pb1,
        "x": 1 - pa1 - pb1,
        "a2": pa2,
        "b2": pb2,
        "c": 1 - pa2 - pb2,
    }
    return b2.state(vals)


def test_b2_state_consistency_enforced(b2):
    # value(x) must match value(a2) + value(b2); here it does not.
    with pytest.raises(Exception):
        b2.state(
            {
                "a1": Fraction(1, 2),
                "b1": Fraction(1, 2),
                "x": Fraction(0),
                "a2": Fraction(1, 2),
                "b2": Fraction(1, 2),
                "c": Fraction(0),
            }
        )


@given(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
)
@settings(max_examples=50, deadline=None)
def test_b2_state_monotone_under_leq(na1, nb1, na2):
    # Random rational states: masses over (a1, b1, a2, b2) summing to one,
    # which is exactly the consistency constraint of the two contexts.
    b2 = b2_pasted()
    total = na1 + nb1 + na2 + 3
    pa1, pb1, pa2 = (
        Fraction(na1, total),
        Fraction(nb1, total),
        Fraction(na2 + 1, total),
    )
    pb2 = 1 - pa1 - pb1 - pa2
    assert pb2 >= 0
    state = b2_state(b2, pa1, pb1, pa2, pb2)
    for x in b2.element_names:
        for y in b2.element_names:
            if b2.leq(x, y):
                assert state.value(x) <= state.value(y)


def test_three_cyclic_contexts_violate_the_pasting_axiom():
    # a, b, c are pairwise co-resident through three different contexts but
    # share none, so the pairwise-compatible triple has no Boolean home.
    from ctxcert.errors import NotAPBA

    with pytest.raises(NotAPBA):
        build_pasted_pba(
            [
                ("A", ["a", "b", "x"]),
                ("B", ["b", "c", "y"]),
                ("C", ["c", "a", "z"]),
            ]
        )


def test_order_disagreement_is_rejected():
    with pytest.raises(InconsistentGluing):
        build_pasted_pba(
            [("C1", ["a", "b", "c"]), ("C2", ["d", "e", "f"])],
            gluings=[
                (("C1", ["a"]), ("C2", ["d", "e"])),
                (("C1", ["a", "b"]), ("C2", ["d"])),
            ],
        )


# -- reference oracle for the order laws -----------------------------------------
#
# The direct definitions, evaluated element by element: x <= y when some shared
# context holds x's subset inside y's, and exclusivity searches every c for
# x <= c and y <= not-c.  The structure answers the same questions from order
# bit rows that it fills per context, and finds its atoms on the local masks.


def reference_leq(pba, a, b):
    shared, sb = pba._contexts[a] & pba._contexts[b], pba._subsets[b]
    return any(shared >> i & 1 and not sub & ~sb[i] for i, sub in pba._subsets[a].items())


def reference_exclusive(pba, a, b):
    return any(
        reference_leq(pba, a, c) and reference_leq(pba, b, pba._comp[c])
        for c in range(len(pba.element_names))
    )


def reference_laws(pba):
    names = pba.element_names
    n = len(names)
    leq = [[reference_leq(pba, a, b) for b in range(n)] for a in range(n)]
    zero = names.index("0")
    atoms = [
        a
        for a in range(n)
        if a != zero and not any(b not in (a, zero) and leq[b][a] for b in range(n))
    ]
    # Atom pairs that share a context, each pair in name order.
    edges = frozenset(
        tuple(sorted((names[a], names[b])))
        for a, b in combinations(atoms, 2)
        if pba._contexts[a] & pba._contexts[b]
    )
    lep = next(
        (
            (names[a], names[b])
            for a in range(n)
            for b in range(a + 1, n)
            if not pba._compatible_idx(a, b) and reference_exclusive(pba, a, b)
        ),
        None,
    )
    transitivity = next(
        (
            (names[a], names[b], names[c])
            for a in range(n)
            for b in range(n)
            if leq[a][b]
            for c in range(n)
            if leq[b][c] and not leq[a][c]
        ),
        None,
    )
    return leq, tuple(names[a] for a in atoms), edges, lep, transitivity


def assert_laws_match_reference(pba):
    leq, atoms, edges, lep, transitivity = reference_laws(pba)
    assert pba.atoms() == atoms
    assert pba.atom_graph().edges == edges
    assert pba.check_lep() == CheckResult(lep is None, lep)
    assert pba.check_transitivity() == CheckResult(transitivity is None, transitivity)
    names = pba.element_names
    for (a, x), (b, y) in product(enumerate(names), repeat=2):
        assert pba.leq(x, y) == leq[a][b]
        assert pba.exclusive(x, y) == reference_exclusive(pba, a, b)


def test_b2_laws_match_reference(b2):
    assert_laws_match_reference(b2)


@pytest.mark.parametrize("name", sorted(MASK_FIXTURES))
def test_atoms_and_atom_graph_build_no_order_rows(name, monkeypatch):
    pba = MASK_FIXTURES[name]["build"]()
    _, atoms, edges, _, _ = reference_laws(pba)

    def no_order_rows(self):
        raise AssertionError("order rows were built")

    monkeypatch.setattr(PastedPBA, "_order", no_order_rows)
    assert pba.atoms() == atoms
    assert pba.atom_graph().edges == edges


@st.composite
def pastings(draw):
    atoms = draw(
        st.lists(
            st.lists(st.sampled_from("abcdefg"), min_size=2, max_size=4, unique=True),
            min_size=1,
            max_size=3,
        )
    )
    contexts = [(f"C{i}", a) for i, a in enumerate(atoms)]
    gluings = []
    if len(atoms) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(atoms) - 1), min_size=2, max_size=2, unique=True))
        x = draw(st.lists(st.sampled_from(atoms[i]), unique=True))
        y = draw(st.lists(st.sampled_from(atoms[j]), unique=True))
        gluings.append(((f"C{i}", x), (f"C{j}", y)))
    return contexts, gluings


@given(pastings())
@settings(max_examples=60, deadline=None)
def test_pasted_laws_match_reference(pasting):
    contexts, gluings = pasting
    try:
        pba = build_pasted_pba(contexts, gluings)
    except (InconsistentGluing, NotAPBA):
        assume(False)
    assert_laws_match_reference(pba)
