"""Pasted structures on atom masks: element order, tables and messages pinned.

The tables below were recorded from the frozenset representation that the
mask representation replaced.  Each table row lists, for one element x, the
index of x op y for every y in element order (digits, then a = 10, b = 11),
or "." where x and y share no context.
"""

from __future__ import annotations

import pytest

from ctxcert.catalog import b2_pasted
from ctxcert.errors import InconsistentGluing, NotAPBA
from ctxcert.pasted import CheckResult, build_pasted_pba

FIXTURES = {
    "b2": {
        "build": b2_pasted,
        "names": ("0", "a1", "a2", "b1", "b2", "c", "x", "a1|x", "a2|c", "b1|x", "b2|c", "1"),
        "complement": [11, 9, 10, 7, 8, 6, 5, 3, 4, 1, 2, 0],
        "meet": [
            "000000000000", "01.0.101.0.1", "0.2.002.2.02", "00.3.300.3.3",
            "0.0.404.0.44", "010305015355", "002040662646", "01.0.167.6.7",
            "0.2.052.8.58", "00.3.366.9.9", "0.0.454.5.aa", "0123456789ab",
        ],
        "join": [
            "0123456789ab", "11.5.577.b.b", "2.2.686.8.bb", "35.3.59b.9.b",
            "4.6.4a6.b.ab", "5585a5bb8bab", "67696b67b9bb", "77.b.b77.b.b",
            "8.8.b8b.8.bb", "9b.9.b9b.9.b", "a.b.aab.b.ab", "bbbbbbbbbbbb",
        ],
        "lep": ("a1", "a2"),
        "transitivity": ("a1", "c", "a2|c"),
    },
    "shared-atom": {
        "build": lambda: build_pasted_pba([("C1", ["a", "b", "x1"]), ("C2", ["b", "c", "x2"])]),
        "names": ("0", "a", "b", "c", "x1", "x2", "a|b", "a|x1", "b|c", "b|x1", "b|x2", "1"),
        "complement": [11, 9, 7, 10, 6, 8, 4, 2, 5, 1, 3, 0],
        "meet": [
            "000000000000", "010.0.11.0.1", "002000202222", "0.03.0.33.03",
            "000.4.04.4.4", "0.00.5.50.55", "012.0.61.2.6", "010345173457",
            "0.23.0.38.28", "002.4.24.9.9", "0.20.5.52.aa", "0123456789ab",
        ],
        "join": [
            "0123456789ab", "116.7.67.b.b", "26289a6b89ab", "3.83.7.78.bb",
            "479.4.b7.9.b", "5.a7.5.7b.ab", "666.b.6b.b.b", "77b777b7bbbb",
            "8.88.b.b8.bb", "9b9.9.bb.9.b", "a.ab.a.bb.ab", "bbbbbbbbbbbb",
        ],
        "lep": None,
        "transitivity": None,
    },
    "glued": {
        "build": lambda: build_pasted_pba(
            [("C1", ["a", "b", "c"]), ("C2", ["d", "e", "f"]), ("C3", ["f", "g"])],
            gluings=[(("C1", ["a", "b"]), ("C2", ["d"]))],
        ),
        "names": ("0", "a", "b", "c", "d", "e", "f", "g", "a|c", "b|c", "d|f", "1"),
        "complement": [11, 9, 8, 4, 3, 10, 7, 6, 2, 1, 5, 0],
        "meet": [
            "000000000000", "01001...10.1", "00202...02.2", "000305653363",
            "012040041244", "0..50505..05", "0..60060..66", "0..54507..47",
            "01031...83.8", "00232...39.9", "0..64064..aa", "0123456789ab",
        ],
        "join": [
            "0123456789ab", "11484...8b.b", "24294...b9.b", "3893b33b89bb",
            "444b47a7bbab", "5..37537..bb", "6..3a36b..ab", "7..b77b7..bb",
            "88b8b...8b.b", "9b99b...b9.b", "a..babab..ab", "bbbbbbbbbbbb",
        ],
        "lep": ("a", "e"),
        "transitivity": ("a", "d", "g"),
    },
}

DIGITS = "0123456789ab"


def _table(pba, op) -> list[str]:
    names = pba.element_names
    return [
        "".join(DIGITS[names.index(op(x, y))] if pba.compatible(x, y) else "." for y in names)
        for x in names
    ]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_element_order_and_tables_are_pinned(name):
    want = FIXTURES[name]
    pba = want["build"]()
    assert pba.element_names == want["names"]
    assert [pba.element_names.index(pba.complement_of(x)) for x in pba.element_names] == want["complement"]
    assert _table(pba, pba.meet_of) == want["meet"]
    assert _table(pba, pba.join_of) == want["join"]
    assert pba.check_lep() == CheckResult(want["lep"] is None, want["lep"])
    assert pba.check_transitivity() == CheckResult(want["transitivity"] is None, want["transitivity"])
    assert pba.axiom_report.verified_up_to_size == 4


def per_context_exclusivity(pba) -> list[int]:
    """The exclusivity rows that pastings once built beside the order, per
    context: bit c of row b iff b <= not-c, from the elements on the subsets
    of b's local complement (a sum over subsets)."""
    neg = [0] * len(pba.element_names)
    for i, full in enumerate(pba._full):
        elem = [pba._root_pos[pba._find((i, sub))] for sub in range(full + 1)]
        down = [1 << k for k in elem]
        for bit in (1 << j for j in range(full.bit_length())):
            for sub in range(full + 1):
                if sub & bit:
                    down[sub] |= down[sub ^ bit]
        for sub, k in enumerate(elem):
            neg[k] |= down[full ^ sub]
    return neg


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_exclusive_matches_the_per_context_table(name):
    pba = FIXTURES[name]["build"]()
    rows, neg, names = pba._order(), per_context_exclusivity(pba), pba.element_names
    for a, x in enumerate(names):
        for b, y in enumerate(names):
            assert pba.exclusive(x, y) == bool(rows[a] & neg[b]), (x, y)


REJECTIONS = [
    (
        [("C", ["a1", "b1", "x"])],
        [(("C", ["a1"]), ("C", ["b1"]))],
        InconsistentGluing,
        "context 'C' identifies distinct subsets ['a1'] and ['b1']",
    ),
    (
        [("C1", ["a", "b", "c"]), ("C2", ["d", "e", "f"])],
        [(("C1", ["a"]), ("C2", ["d", "e"])), (("C1", ["a", "b"]), ("C2", ["d"]))],
        InconsistentGluing,
        "context 'C1' identifies distinct subsets [] and ['b']",
    ),
    # Which two subsets a message names depends on the order in which each
    # class lists its members: by subset size, then in combinations order.
    (
        [("C0", ["h", "c", "g"]), ("C1", ["f", "a"])],
        [(("C0", ["h", "c"]), ("C0", ["g"]))],
        InconsistentGluing,
        "context 'C0' identifies distinct subsets ['g'] and ['c', 'h']",
    ),
    (
        [("C0", ["h", "d", "a"]), ("C1", ["a", "c"])],
        [(("C1", ["c", "a"]), ("C1", [])), (("C1", []), ("C1", ["a"]))],
        InconsistentGluing,
        "context 'C0' identifies distinct subsets [] and ['a']",
    ),
    (
        [("A", ["a", "b", "x"]), ("B", ["b", "c", "y"]), ("C", ["c", "a", "z"])],
        [],
        NotAPBA,
        "pairwise-compatible set with no common context: ['a', 'b', 'c']",
    ),
]


@pytest.mark.parametrize("contexts, gluings, error, message", REJECTIONS)
def test_rejection_messages_are_pinned(contexts, gluings, error, message):
    with pytest.raises(error) as got:
        build_pasted_pba(contexts, gluings)
    assert str(got.value) == message


def test_axiom_is_checked_above_64_elements():
    # The five-atom cyclic triple has 86 elements but only a few distinct
    # context masks; its pairwise-compatible a, b, c share no context.
    contexts = [
        ("A", ["a", "b", "x1", "x2", "x3"]),
        ("B", ["b", "c", "y1", "y2", "y3"]),
        ("C", ["c", "a", "z1", "z2", "z3"]),
    ]
    with pytest.raises(NotAPBA) as got:
        build_pasted_pba(contexts)
    assert str(got.value) == "pairwise-compatible set with no common context: ['a', 'b', 'c']"


def test_a_64_element_chain_is_checked_to_size_four_on_its_masks():
    chain = [(f"K{k}", [f"l{k}", f"l{k + 1}", f"p{k}", f"q{k}"]) for k in range(5)]
    pba = build_pasted_pba(chain)
    assert len(pba.element_names) == 64
    assert pba.axiom_report.verified_up_to_size == 4
    # Masks l1..l4 and the full mask of 0 and 1: three pairwise-compatible
    # triples, none with four masks (l1 and l3 share no context).
    assert pba.axiom_report.subsets_checked == 3
