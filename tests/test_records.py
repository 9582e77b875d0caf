"""The value records: what each one prints, compares, hashes and refuses.

Every record keeps the behaviour it had as a frozen dataclass: the same
constructor signature, the repr ``Name(field=value!r, ...)`` in field order,
equality and hashing on the tuple of fields, equality only within one class,
and no assignment after construction.  The literal reprs below were recorded
from the dataclass versions; ``CERTIFICATES_DIGEST`` in ``test_analyze.py``
hashes ``Classification`` reprs and depends on the same format.
"""

from __future__ import annotations

import copy
import inspect
from fractions import Fraction

import pytest

from ctxcert.analyze import (
    Classification,
    EmbeddingReport,
    NCCertificate,
    SeparatingInequality,
)
from ctxcert.catalog import Builtin, Observable
from ctxcert.certify import EqualityReduction
from ctxcert.errors import (
    CertificateError,
    DegenerateCoefficients,
    MissingVertex,
    NotAGraphState,
    OrthogonalityCheckFailed,
    Record,
)
from ctxcert.graphs import ExclusivityGraph, PBAState
from ctxcert.io import Scenario, StateSpec
from ctxcert.linalg import FLOAT, identity_projector, projector_from_vector
from ctxcert.pasted import AxiomReport, CheckResult
from ctxcert.simplex import LPResult
from ctxcert.systems import EpbaReport
from ctxcert.vectorsets import Basis, KSSearchResult, VectorSet

EDGE = ExclusivityGraph(("a", "b"), [("a", "b")])
HALF = Fraction(1, 2)
X, Y = projector_from_vector((1, 0)), projector_from_vector((0, 1))
AXES = VectorSet(2, ("x", "y"), ((1, 0), (0, 1)))

REQUIRED = inspect.Parameter.empty

# Each constructor's parameters, in order, with their defaults.
SIGNATURES = {
    EqualityReduction: [
        ("graph", REQUIRED),
        ("pivots", REQUIRED),
        ("free", REQUIRED),
        ("rows", REQUIRED),
    ],
    SeparatingInequality: [("atom_order", REQUIRED), ("coeffs", REQUIRED), ("bound", REQUIRED)],
    NCCertificate: [
        ("verdict", REQUIRED),
        ("weights", None),
        ("inequality", None),
        ("empty_s01", False),
        ("violation", None),
    ],
    EmbeddingReport: [
        ("embeddable", REQUIRED),
        ("witness", None),
        ("reason", None),
        ("s01_count", 0),
    ],
    Classification: [("embedding", REQUIRED), ("certificate", REQUIRED)],
    PBAState: [("graph", REQUIRED), ("values", REQUIRED), ("backend", "exact"), ("tol", 1e-9)],
    LPResult: [
        ("status", REQUIRED),
        ("x", REQUIRED),
        ("pivots", REQUIRED),
        ("farkas", None),
        ("den", 1),
    ],
    EpbaReport: [
        ("lep_holds", REQUIRED),
        ("transitivity_holds", REQUIRED),
        ("pairs_checked", REQUIRED),
        ("chains_checked", REQUIRED),
        ("lep_violation", None),
        ("transitivity_violation", None),
    ],
    Scenario: [
        ("source", REQUIRED),
        ("vector_set", REQUIRED),
        ("generators", REQUIRED),
        ("labels", REQUIRED),
        ("sha256", None),
    ],
    StateSpec: [("density", None), ("atom_values", None)],
    Basis: [("indices", REQUIRED), ("complete", True)],
    KSSearchResult: [("assignment", REQUIRED), ("nodes", REQUIRED)],
    Observable: [
        ("name", REQUIRED),
        ("eigenvalues", REQUIRED),
        ("projectors", REQUIRED),
        ("event_labels", REQUIRED),
    ],
    Builtin: [
        ("name", REQUIRED),
        ("description", REQUIRED),
        ("vector_set", REQUIRED),
        ("events", REQUIRED),
    ],
    CheckResult: [("holds", REQUIRED), ("violation", None)],
    AxiomReport: [("verified_up_to_size", REQUIRED), ("subsets_checked", REQUIRED)],
}

NONCONTEXTUAL = NCCertificate("NONCONTEXTUAL", {0: HALF, 3: HALF})
INEQUALITY = SeparatingInequality(("a", "b"), {"a": 1, "b": -2}, 1)

# (class, every field value in order, the repr of the record built from them)
CASES = [
    (
        EqualityReduction,
        (EDGE, ("b",), ("a",), (("b", (("a", Fraction(1)),), Fraction(1)),)),
        "EqualityReduction(graph=ExclusivityGraph(2 vertices, 1 edges), pivots=('b',), "
        "free=('a',), rows=(('b', (('a', Fraction(1, 1)),), Fraction(1, 1)),))",
    ),
    (
        SeparatingInequality,
        (("a", "b"), {"a": 1, "b": -2}, 1),
        "SeparatingInequality(atom_order=('a', 'b'), coeffs={'a': 1, 'b': -2}, bound=1)",
    ),
    (
        NCCertificate,
        ("NONCONTEXTUAL", {0: HALF, 3: HALF}, None, False, None),
        "NCCertificate(verdict='NONCONTEXTUAL', weights={0: Fraction(1, 2), 3: Fraction(1, 2)}, "
        "inequality=None, empty_s01=False, violation=None)",
    ),
    (
        NCCertificate,
        ("CONTEXTUAL", None, INEQUALITY, False, Fraction(1, 3)),
        "NCCertificate(verdict='CONTEXTUAL', weights=None, inequality=SeparatingInequality("
        "atom_order=('a', 'b'), coeffs={'a': 1, 'b': -2}, bound=1), empty_s01=False, "
        "violation=Fraction(1, 3))",
    ),
    (
        EmbeddingReport,
        (False, ("a", "b"), "same support", 2),
        "EmbeddingReport(embeddable=False, witness=('a', 'b'), reason='same support', s01_count=2)",
    ),
    (
        EmbeddingReport,
        (True, None, None, 0),
        "EmbeddingReport(embeddable=True, witness=None, reason=None, s01_count=0)",
    ),
    (
        Classification,
        (EmbeddingReport(True, s01_count=3), NCCertificate("CONTEXTUAL", empty_s01=True)),
        "Classification(embedding=EmbeddingReport(embeddable=True, witness=None, reason=None, "
        "s01_count=3), certificate=NCCertificate(verdict='CONTEXTUAL', weights=None, "
        "inequality=None, empty_s01=True, violation=None))",
    ),
    (
        PBAState,
        (EDGE, {"a": HALF, "b": HALF}, "exact", 1e-9),
        "PBAState(graph=ExclusivityGraph(2 vertices, 1 edges), values={'a': Fraction(1, 2), "
        "'b': Fraction(1, 2)}, backend='exact', tol=1e-09)",
    ),
    (
        LPResult,
        ("optimal", (1, 2), 3, None, 4),
        "LPResult(status='optimal', x=(1, 2), pivots=3, farkas=None, den=4)",
    ),
    (
        LPResult,
        ("infeasible", None, 2, (1, -1), 1),
        "LPResult(status='infeasible', x=None, pivots=2, farkas=(1, -1), den=1)",
    ),
    (
        EpbaReport,
        (True, False, 3, 4, None, ("a", "b", "c")),
        "EpbaReport(lep_holds=True, transitivity_holds=False, pairs_checked=3, chains_checked=4, "
        "lep_violation=None, transitivity_violation=('a', 'b', 'c'))",
    ),
    (
        Scenario,
        ("axes.json", AXES, [X, Y], {"x": X}, "00ff"),
        "Scenario(source='axes.json', vector_set=VectorSet(2 vectors, dim=2, 0 bases), "
        "generators=[Projector(dim=2, rank=1, backend=exact), Projector(dim=2, rank=1, "
        "backend=exact)], labels={'x': Projector(dim=2, rank=1, backend=exact)}, sha256='00ff')",
    ),
    (
        StateSpec,
        (None, {"a": HALF}),
        "StateSpec(density=None, atom_values={'a': Fraction(1, 2)})",
    ),
    (Basis, ((0, 1, 2), True), "Basis(indices=(0, 1, 2), complete=True)"),
    (Basis, ((4,), False), "Basis(indices=(4,), complete=False)"),
    (
        KSSearchResult,
        ({"a": 1, "b": 0}, 5),
        "KSSearchResult(assignment={'a': 1, 'b': 0}, nodes=5)",
    ),
    (KSSearchResult, (None, 7), "KSSearchResult(assignment=None, nodes=7)"),
    (
        Observable,
        ("A", (1.0, 2.0), (X, Y), ("a1", "a2")),
        "Observable(name='A', eigenvalues=(1.0, 2.0), projectors=(Projector(dim=2, rank=1, "
        "backend=exact), Projector(dim=2, rank=1, backend=exact)), event_labels=('a1', 'a2'))",
    ),
    (
        Builtin,
        ("axes", "the two axes", tuple, len),
        "Builtin(name='axes', description='the two axes', vector_set=<class 'tuple'>, "
        "events=<built-in function len>)",
    ),
    (CheckResult, (False, ("a1", "a2")), "CheckResult(holds=False, violation=('a1', 'a2'))"),
    (CheckResult, (True, None), "CheckResult(holds=True, violation=None)"),
    (AxiomReport, (4, 120), "AxiomReport(verified_up_to_size=4, subsets_checked=120)"),
]
IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(CASES)]


def _names(cls) -> list[str]:
    return [name for name, _ in SIGNATURES[cls]]


def test_every_record_class_has_cases():
    assert {cls for cls, _, _ in CASES} == set(SIGNATURES)


@pytest.mark.parametrize("cls", list(SIGNATURES), ids=lambda c: c.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_repr(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_positional_keyword_and_default_construction(cls, values, text):
    names = _names(cls)
    record = cls(*values)
    assert [getattr(record, n) for n in names] == list(values)
    assert cls(**dict(zip(names, values))) == record
    # Leave out every trailing argument that has its default value.
    given = len(values)
    while given and SIGNATURES[cls][given - 1][1] is not REQUIRED:
        if values[given - 1] != SIGNATURES[cls][given - 1][1]:
            break
        given -= 1
    assert cls(*values[:given]) == record


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_no_field_is_assigned_after_construction(cls, values, text):
    record = cls(*values)
    for name, value in zip(_names(cls), values):
        with pytest.raises(AttributeError):
            setattr(record, name, "other")
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_equal_fields_give_equal_records_and_hashes(cls, values, text):
    one, two = cls(*values), cls(*values)
    assert one == two and not one != two and one is not two
    try:
        fields_hash = hash(tuple(values))
    except TypeError:
        # A mutable field (a dict or a list) makes the record unhashable.
        with pytest.raises(TypeError):
            hash(one)
    else:
        assert hash(one) == hash(two) == fields_hash
    assert copy.copy(one) == one


def test_records_of_one_class_differ_when_a_field_does():
    by_class: dict = {}
    for cls, values, _ in CASES:
        by_class.setdefault(cls, []).append(cls(*values))
    pairs = [records for records in by_class.values() if len(records) > 1]
    assert len(pairs) == 6
    for first, second in pairs:
        assert first != second and not first == second


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_a_record_of_another_class_with_the_same_fields_is_unequal(cls, values, text):
    # The same name, fields and constructor on a class of its own.
    twin = type(cls.__name__, (Record,), {"__slots__": cls.__slots__, "__init__": cls.__init__})
    record, other = cls(*values), twin(*values)
    assert [getattr(other, n) for n in _names(cls)] == list(values)
    assert record != other and other != record
    assert not record == other and not other == record
    assert record.__eq__(tuple(values)) is NotImplemented
    assert record != tuple(values)


def test_pba_state_validation_messages():
    with pytest.raises(MissingVertex, match=r"^no value for vertex 'b'$"):
        PBAState(EDGE, {"a": 1})
    with pytest.raises(NotAGraphState, match=r"^value 2 at 'a' outside \[0, 1\]$"):
        PBAState(EDGE, {"a": 2, "b": -1})
    with pytest.raises(NotAGraphState, match=r"^value nan at 'a' outside \[0, 1\]$"):
        PBAState(EDGE, {"a": float("nan"), "b": 0.0}, FLOAT)
    with pytest.raises(NotAGraphState, match=r"^clique sums differ from 1$"):
        PBAState(EDGE, {"a": HALF, "b": Fraction(1, 3)})
    # On the float backend each value may stray by ``tol`` outside [0, 1].
    assert PBAState(EDGE, {"a": 1 + 1e-12, "b": -1e-12}, FLOAT).values["b"] == -1e-12


def test_certificate_validation_messages():
    with pytest.raises(CertificateError, match=r"^noncontextual verdict without weights$"):
        NCCertificate("NONCONTEXTUAL")
    with pytest.raises(CertificateError, match=r"^contextual verdict without inequality$"):
        NCCertificate("CONTEXTUAL", weights={0: Fraction(1)})
    assert NCCertificate("CONTEXTUAL", empty_s01=True).inequality is None
    assert NONCONTEXTUAL.weights == {0: HALF, 3: HALF}


def test_observable_validation_messages():
    with pytest.raises(DegenerateCoefficients, match=r"^observable 'A' repeats an eigenvalue$"):
        Observable("A", (1.0, 1.0), (X, Y), ("a1", "a2"))
    with pytest.raises(
        OrthogonalityCheckFailed,
        match=r"^observable 'A': spectral projectors do not resolve identity$",
    ):
        Observable("A", (1.0, 2.0), (X, X), ("a1", "a2"))
    with pytest.raises(
        OrthogonalityCheckFailed, match=r"^observable 'A': spectral projectors overlap$"
    ):
        Observable("A", (1.0, 2.0), (X, identity_projector(2)), ("a1", "a2"))
