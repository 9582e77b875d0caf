"""File formats, round-trips, cache behavior, and the CLI surface."""

from __future__ import annotations

import contextlib
import json
import logging
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ctxcert.cli as cli_module
from ctxcert.catalog import BUILTINS, ceg_set, kcbs_system
from ctxcert.cli import main
from ctxcert.errors import ClosureBudgetExceeded, CtxcertError, ScenarioFormatError
from ctxcert.io import (
    _matrix_payload,
    _parse_matrix,
    cache_path_for,
    load_cached_system,
    parse_ratio,
    parse_rational,
    parse_real,
    scenario_from_dict,
    scenario_from_path,
    state_from_dict,
    store_cached_system,
    system_from_payload,
    system_to_payload,
)
from ctxcert.linalg import ExactMatrix, FloatMatrix, complement
from ctxcert.systems import QuantumSystem, generate_system, systems_equal
from ctxcert.vectorsets import VectorSet
from test_graphs import dot_statements
from test_systems import axes_and_u

BOOLEAN_SCENARIO = {
    "dimension": 3,
    "vectors": [
        {"name": "ex", "entries": [{"re": "1"}, {"re": "0"}, {"re": "0"}]},
        {"name": "ey", "entries": [{"re": "0"}, {"re": "1"}, {"re": "0"}]},
        {"name": "ez", "entries": [{"re": "0"}, {"re": "0"}, {"re": "1"}]},
    ],
    "bases": [["ex", "ey", "ez"]],
}


def test_backend_inference():
    assert scenario_from_dict(BOOLEAN_SCENARIO).vector_set.backend == "exact"
    float_doc = {
        "dimension": 2,
        "vectors": [
            {"name": "a", "entries": [{"re": "0.7071"}, {"re": "0.7071"}]},
            {"name": "b", "entries": [{"re": "1"}, {"re": "0"}]},
        ],
    }
    assert scenario_from_dict(float_doc).vector_set.backend == "float"
    forced = dict(float_doc, backend="float")
    assert scenario_from_dict(forced).vector_set.backend == "float"


def test_parse_error_names_the_field():
    bad = {
        "dimension": 2,
        "vectors": [{"name": "a", "entries": [{"re": "1/0"}, {"re": "0"}]}],
    }
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(bad)
    assert "vectors[0].entries[0].re" in str(err.value)


def _two_rays(first_entry) -> dict:
    return {
        "dimension": 2,
        "vectors": [
            {"name": "a", "entries": [{"re": first_entry}, {"re": "0"}]},
            {"name": "b", "entries": [{"re": "0"}, {"re": "1"}]},
        ],
    }


def test_denominator_with_a_leading_zero_infers_exact():
    scenario = scenario_from_dict(_two_rays("1/01"))
    assert scenario.vector_set.backend == "exact"
    plain = scenario_from_dict(_two_rays("1"))
    assert systems_equal(generate_system(scenario.generators), generate_system(plain.generators))
    for zero in ("1/0", "1/00"):  # no nonzero digit: inferred float, then a bad number
        with pytest.raises(ScenarioFormatError) as err:
            scenario_from_dict(_two_rays(zero))
        assert str(err.value).startswith(f"vectors[0].entries[0].re: bad number '{zero}'")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_rejected_at_parse(tmp_path, capsys, value):
    with pytest.raises(ScenarioFormatError, match=f"^tolerance: must be finite, got {value}$"):
        scenario_from_dict(dict(BOOLEAN_SCENARIO, backend="float", tolerance=value))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BOOLEAN_SCENARIO, backend="float", tolerance=value)))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(dict(BOOLEAN_SCENARIO, backend="float")))
    for argv in (["build", str(path)], ["build", str(plain), "--tolerance", value]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: tolerance: must be finite, got {value}\n")


def test_subnormal_tolerance_is_rejected_at_parse(tmp_path, capsys):
    # 64 * 1e-320 is subnormal too, and an entry over it overflows the grid key.
    least = sys.float_info.min
    want = f"error: tolerance: must be at least {least!r}, got 1e-320\n"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(BOOLEAN_SCENARIO, backend="float", tolerance="1e-320")))
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(dict(BOOLEAN_SCENARIO, backend="float")))
    for argv in (["build", str(path)], ["build", str(plain), "--tolerance", "1e-320"]):
        code, out, err = run_cli([*argv, "--no-cache"], capsys)
        assert (code, out, err) == (1, "", want)
    code, out, err = run_cli(["build", str(plain), "--tolerance", repr(least), "--no-cache"], capsys)
    assert (code, err) == (0, "") and "elements: 8, atoms: 3" in out


def test_float_tolerance_above_one_is_a_typed_error(tmp_path, capsys):
    """Above 1, the identity is within tol of 0, so the closure would drop it
    as a duplicate.  Above 1/2, the projector of (1, 1) is within tol of 0,
    so the closure would drop that generator and lose its atom."""
    tilted = {
        "dimension": 2,
        "backend": "float",
        "vectors": [{"name": "a", "entries": ["1", "0"]}, {"name": "b", "entries": ["1", "1"]}],
    }
    identity = "makes the identity equal to 0"
    generator = "makes a generator of rank 1 equal to an element of rank 0"
    cases = (
        (dict(TWO_FLOAT_RAYS, tolerance=10), [], "10.0", identity),
        (TWO_FLOAT_RAYS, ["--tolerance", "2"], "2.0", identity),
        (dict(tilted, tolerance=0.6), [], "0.6", generator),
        (tilted, ["--tolerance", "0.9"], "0.9", generator),
    )
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"atoms": {"a": "1", "b": "0"}}))
    for k, (doc, options, tol, message) in enumerate(cases):
        scenario = tmp_path / f"scenario{k}.json"
        scenario.write_text(json.dumps(doc))
        for command in (["build"], ["analyze", "--state", str(state)], ["graph"], ["zero-one"]):
            argv = [command[0], str(scenario), *command[1:], *options, "--no-cache"]
            code, out, err = run_cli(argv, capsys)
            assert (code, out, err) == (1, "", f"error: tolerance {tol} {message}\n"), argv
    plain = tmp_path / "scenario1.json"  # TWO_FLOAT_RAYS with no tolerance
    code, out, err = run_cli(["build", str(plain), "--tolerance", "1", "--no-cache"], capsys)
    assert (code, err) == (0, "") and "elements: 4, atoms: 2" in out


@pytest.mark.parametrize("tol", [1e-320, float("nan"), 0.0, -1.0])
def test_float_matrix_rejects_a_tolerance_below_the_least_normal_float(tol):
    with pytest.raises(ValueError, match="^tolerance must be at least"):
        FloatMatrix(1, (1j,), tol)
    assert FloatMatrix(1, (1j,), sys.float_info.min).grid_key()


_TRUE_SITES = {
    "tolerance": (lambda doc: doc.update(tolerance=True), "tolerance"),
    "vector entry": (lambda doc: doc["vectors"][0]["entries"].__setitem__(0, True), r"vectors\[0\]\.entries\[0\]\.re"),
    "generator matrix entry": (
        lambda doc: doc.update(generators=[{"matrix": [[True, "0"], ["0", "0"]]}]),
        r"generators\[0\]\.matrix\[0\]\[0\]\.re",
    ),
}


@pytest.mark.parametrize("site", sorted(_TRUE_SITES))
def test_float_scenario_rejects_json_true_as_a_number(tmp_path, capsys, site):
    """float(True) is 1.0; a JSON true is no number on either backend."""
    doc = json.loads(json.dumps(TWO_FLOAT_RAYS))
    edit, field = _TRUE_SITES[site]
    edit(doc)
    with pytest.raises(ScenarioFormatError, match=rf"^{field}: bad number True$"):
        scenario_from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["build", str(path), "--no-cache"], capsys)
    assert (code, out) == (1, "") and err.startswith("error: ") and "bad number True" in err


def test_float_state_rejects_json_true_as_an_atom_value(tmp_path, capsys):
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps(TWO_FLOAT_RAYS), encoding="utf-8")
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"atoms": {"a": True, "b": "0"}}), encoding="utf-8")
    code, out, err = run_cli(["analyze", str(scenario), "--state", str(state), "--no-cache"], capsys)
    assert (code, out, err) == (1, "", "error: atoms.a: bad number True\n")


def _diagonal_density_file(path, diagonal):
    rho = [[{"re": diagonal if i == j else "0"} for j in range(3)] for i in range(3)]
    path.write_text(json.dumps({"density": rho}), encoding="utf-8")
    return str(path)


def test_float_state_reads_rational_literals(tmp_path, capsys):
    """I/3 as "1/3" strings reads as the same floats as 0.3333333333333333."""
    reports = []
    for name, third in (("ratio", "1/3"), ("decimal", "0.3333333333333333")):
        state = _diagonal_density_file(tmp_path / f"{name}.json", third)
        code, out, err = run_cli(["analyze", "kcbs", "--state", state, "--format", "json"], capsys)
        assert (code, err) == (0, ""), err
        reports.append({k: v for k, v in json.loads(out).items() if k != "timings"})
    assert reports[0] == reports[1]
    assert reports[0]["classification"] == "CLASSICAL"
    assert parse_real("1/3", "x") == 1 / 3 and parse_real(" -2/4 ", "x") == -0.5


@pytest.mark.parametrize("third", ["1/0", "1/x", "1" * 400 + "/3"], ids=["zero", "letter", "overflow"])
def test_float_state_rejects_bad_ratio_literals(tmp_path, capsys, third):
    state = _diagonal_density_file(tmp_path / "state.json", third)
    code, out, err = run_cli(["analyze", "kcbs", "--state", state], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: density[0][0].re: bad number '{third}'")
    assert "Traceback" not in err


def test_float_state_rejects_an_integer_past_the_float_range(tmp_path, capsys):
    """float() of a JSON integer past the float range raises OverflowError."""
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"atoms": {"a": 10**400, "b": "0"}}), encoding="utf-8")
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps(TWO_FLOAT_RAYS), encoding="utf-8")
    code, out, err = run_cli(["analyze", str(scenario), "--state", str(state), "--no-cache"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: atoms.a: bad number 1000")
    assert "Traceback" not in err


@pytest.mark.parametrize("value", [3.7, True, float("inf")])
def test_non_integer_dimension_is_rejected(tmp_path, capsys, value):
    """int() would read 3.7 as 3 and true as 1, and raise OverflowError on
    Infinity."""
    doc = dict(BOOLEAN_SCENARIO, dimension=value)
    with pytest.raises(ScenarioFormatError, match="^dimension: required positive integer$"):
        scenario_from_dict(doc)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(["build", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: dimension: required positive integer\n")


def test_integer_dimension_spellings_still_parse():
    for value in (3, "3", 3.0):
        assert scenario_from_dict(dict(BOOLEAN_SCENARIO, dimension=value)).vector_set.dim == 3


def test_scenario_requires_unique_names():
    doc = {
        "dimension": 2,
        "vectors": [
            {"name": "a", "entries": [{"re": "1"}, {"re": "0"}]},
            {"name": "a", "entries": [{"re": "0"}, {"re": "1"}]},
        ],
    }
    with pytest.raises(ScenarioFormatError):
        scenario_from_dict(doc)


def test_state_file_requires_exactly_one_kind():
    with pytest.raises(ScenarioFormatError):
        state_from_dict({}, "exact", 1e-9, 2)
    with pytest.raises(ScenarioFormatError):
        state_from_dict(
            {"vector": [{"re": "1"}, {"re": "0"}], "atoms": {"a": "1"}}, "exact", 1e-9, 2
        )
    spec = state_from_dict({"atoms": {"a": "1/2", "b": "1/2"}}, "exact", 1e-9, 2)
    assert spec.atom_values == {"a": Fraction(1, 2), "b": Fraction(1, 2)}
    with pytest.raises(ScenarioFormatError):
        state_from_dict({"atoms": {"a": "3/2"}}, "exact", 1e-9, 2)


def test_system_payload_roundtrip_exact():
    scenario = scenario_from_dict(BOOLEAN_SCENARIO)
    system = generate_system(scenario.generators).with_atom_labels(scenario.labels)
    payload = system_to_payload(system)
    back = system_from_payload(json.loads(json.dumps(payload)))
    assert systems_equal(system, back)
    assert {p.mat.key() for p in back.elements} == {p.mat.key() for p in system.elements}
    assert back.with_atom_labels(scenario.labels).atom_graph() == system.atom_graph()


def test_system_payload_roundtrip_float(q_kcbs):
    payload = system_to_payload(q_kcbs)
    back = system_from_payload(json.loads(json.dumps(payload)))
    assert systems_equal(q_kcbs, back)
    labels = BUILTINS["kcbs"].scenario().labels
    assert back.with_atom_labels(labels).atom_graph() == q_kcbs.atom_graph()
    # The closure only: no atom names, generators or atom-graph edges.
    assert sorted(payload) == ["backend", "dimension", "elements", "format", "tolerance", "version"]
    assert payload["version"] == 2


def test_cache_roundtrip(tmp_path):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    scenario = scenario_from_path(scenario_path)
    system = generate_system(scenario.generators).with_atom_labels(scenario.labels)
    assert load_cached_system(scenario_path, scenario) is None
    store_cached_system(scenario_path, scenario, system)
    assert cache_path_for(scenario_path).exists()
    cached = load_cached_system(scenario_path, scenario)
    assert cached is not None and systems_equal(cached, system)
    # Any content change invalidates the cache.
    scenario_path.write_text(json.dumps(dict(BOOLEAN_SCENARIO, dimension=3)) + " ", encoding="utf-8")
    store_hash_mismatch = load_cached_system(scenario_path, scenario_from_path(scenario_path))
    assert store_hash_mismatch is None
    # A scenario that was not parsed from a file has no cache.
    assert load_cached_system(scenario_path, scenario_from_dict(BOOLEAN_SCENARIO)) is None


def test_cached_system_honours_max_elements(tmp_path):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    scenario = scenario_from_path(scenario_path)
    store_cached_system(scenario_path, scenario, generate_system(scenario.generators))
    assert len(load_cached_system(scenario_path, scenario, max_elements=8)) == 8
    with pytest.raises(ClosureBudgetExceeded):
        load_cached_system(scenario_path, scenario, max_elements=7)


def test_failed_cache_write_is_logged_not_raised(tmp_path, monkeypatch, caplog):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    scenario = scenario_from_path(scenario_path)
    system = generate_system(scenario.generators)

    def refuse(self, *args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(Path, "write_text", refuse)
    with caplog.at_level(logging.WARNING, logger="ctxcert.io"):
        store_cached_system(scenario_path, scenario, system)
    assert "could not write cache" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["boolean.json"]


# -- CLI ------------------------------------------------------------------------


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_build_kcbs(capsys):
    code, out, _ = run_cli(["build", "kcbs"], capsys)
    assert code == 0
    assert "atoms: 10" in out
    assert "maximal contexts: 5" in out
    assert "0-1 states: 11" in out


def test_cli_build_json_shape(capsys):
    code, out, _ = run_cli(["build", "kcbs", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["system"]["elements"] == 22
    assert doc["tool"]["name"] == "ctxcert"
    assert doc["scenario"]["backend"] == "float"
    assert "timings" in doc


def test_cli_analyze_exit_codes(tmp_path, capsys):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"vector": [{"re": "0"}, {"re": "0"}, {"re": "1"}]}))
    code, out, _ = run_cli(["analyze", "kcbs", "--state", str(psi)], capsys)
    assert code == 20
    assert "classification: CONTEXTUAL" in out
    assert "p(P0) + p(P1) + p(P2) + p(P3) + p(P4) <= 2" in out

    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    state_path = tmp_path / "point.json"
    state_path.write_text(json.dumps({"atoms": {"ex": "1", "ey": "0", "ez": "0"}}))
    code, out, _ = run_cli(
        ["analyze", str(scenario_path), "--state", str(state_path)], capsys
    )
    assert code == 0
    assert "classification: CLASSICAL" in out


def test_cli_analyze_writes_and_reuses_cache(tmp_path, capsys):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    state_path = tmp_path / "point.json"
    state_path.write_text(json.dumps({"atoms": {"ex": "1", "ey": "0", "ez": "0"}}))
    run_cli(["analyze", str(scenario_path), "--state", str(state_path)], capsys)
    assert cache_path_for(scenario_path).exists()
    code, _, _ = run_cli(["analyze", str(scenario_path), "--state", str(state_path)], capsys)
    assert code == 0


def test_cli_graph_dot(tmp_path, capsys):
    dot_path = tmp_path / "kcbs.dot"
    code, out, _ = run_cli(["graph", "kcbs", "--dot", str(dot_path)], capsys)
    assert code == 0
    text = dot_path.read_text()
    assert text.count("--") == 15
    assert '"P0"' in text


def test_cli_graph_dot_escapes_quoted_vector_names(tmp_path, capsys):
    # A vector named like an edge statement stays one vertex ID.
    name = 'a" -- "x'
    doc = json.loads(json.dumps(BOOLEAN_SCENARIO).replace('"ex"', json.dumps(name)))
    scenario_path = tmp_path / "quoted.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    dot_path = tmp_path / "quoted.dot"
    code, _, _ = run_cli(["graph", str(scenario_path), "--no-cache", "--dot", str(dot_path)], capsys)
    assert code == 0
    vertices, edges = dot_statements(dot_path.read_text())
    assert sorted(vertices) == sorted([name, "ey", "ez"])
    assert len(edges) == 3


def test_cli_ks_check(capsys):
    code, out, _ = run_cli(["ks-check", "ceg"], capsys)
    assert code == 0
    assert "no assignment (exhaustive" in out
    code, out, _ = run_cli(["ks-check", "ceg17"], capsys)
    assert code == 0
    assert "assignment found" in out


def _pentagon_doc(scale: float) -> dict:
    """The kcbs rays as a float scenario file, each ray scaled by ``scale``."""
    t = math.sqrt(math.cos(math.pi / 5))
    rays = [(math.cos(4 * math.pi * j / 5), math.sin(4 * math.pi * j / 5), t) for j in range(5)]
    return {
        "dimension": 3,
        "backend": "float",
        "vectors": [
            {"name": f"P{j}", "entries": [repr(scale * x) for x in ray]}
            for j, ray in enumerate(rays)
        ],
    }


def test_cli_ks_check_does_not_depend_on_ray_length(tmp_path, capsys):
    """Rays scaled by 1e4 are the same rays: the same assignment, and no
    two orthogonal (consecutive) rays are both 1."""
    assignments = []
    for scale in (1.0, 1e4):
        path = tmp_path / f"pentagon-{scale}.json"
        path.write_text(json.dumps(_pentagon_doc(scale)), encoding="utf-8")
        code, out, _ = run_cli(["ks-check", str(path), "--format", "json"], capsys)
        assert code == 0
        assignments.append(json.loads(out)["ks_check"]["assignment"])
    assert assignments[0] == assignments[1]
    assert not any(assignments[1][f"P{j}"] and assignments[1][f"P{(j + 1) % 5}"] for j in range(5))


TWO_FLOAT_RAYS = {
    "dimension": 2,
    "backend": "float",
    "vectors": [
        {"name": "a", "entries": ["1", "0"]},
        {"name": "b", "entries": ["0", "1"]},
    ],
    "bases": [["a", "b"]],
}


@pytest.mark.parametrize("atom", ["a", "b"])
def test_cli_nan_atom_value_is_an_error(tmp_path, capsys, atom):
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps(TWO_FLOAT_RAYS), encoding="utf-8")
    values = {"a": "1", "b": "0"}
    values[atom] = "nan"
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"atoms": values}), encoding="utf-8")
    code, out, err = run_cli(["analyze", str(scenario), "--state", str(state)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: atoms.{atom}: value nan outside [0, 1]\n"


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_non_finite_float_ray_entry_names_the_field(tmp_path, capsys, entry):
    doc = json.loads(json.dumps(TWO_FLOAT_RAYS))
    doc["vectors"][1]["entries"][0] = entry
    with pytest.raises(ScenarioFormatError, match="^vectors\\[1\\].entries\\[0\\]: must be finite"):
        scenario_from_dict(doc)
    scenario = tmp_path / "rays.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["build", str(scenario)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: vectors[1].entries[0]: must be finite, got '{entry}'\n"


@pytest.mark.parametrize(
    "state, field, entry",
    [
        ({"vector": ["nan", "0"]}, "vector[0]", "nan"),
        ({"vector": ["inf", "0"]}, "vector[0]", "inf"),
        ({"density": [["nan", "0"], ["0", "1"]]}, "density[0][0]", "nan"),
    ],
)
def test_cli_non_finite_float_state_entry_names_the_field(tmp_path, capsys, state, field, entry):
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps(TWO_FLOAT_RAYS), encoding="utf-8")
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state), encoding="utf-8")
    code, out, err = run_cli(["analyze", str(scenario), "--state", str(path)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: {field}: must be finite, got '{entry}'\n"


def test_cli_non_finite_float_generator_entry_names_the_field(tmp_path, capsys):
    doc = dict(TWO_FLOAT_RAYS, generators=["a", {"matrix": [["nan", "0"], ["0", "0"]]}])
    scenario = tmp_path / "gen.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["build", str(scenario)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: generators[1].matrix[0][0]: must be finite, got 'nan'\n"


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize(
    "edit, message",
    [
        (
            {"vectors": [{"name": "a", "entries": ["1", "0"]}, {"name": "z", "entries": ["0", "0"]}]},
            "vectors[1].entries: the zero vector spans no ray",
        ),
        ({"generators": ["a", "q"]}, "generators[1]: unknown vector 'q'"),
    ],
)
def test_cli_scenario_errors_name_the_field(tmp_path, capsys, backend, edit, message):
    doc = {"dimension": 2, "backend": backend, "vectors": TWO_FLOAT_RAYS["vectors"], **edit}
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape(message)}$"):
        scenario_from_dict(doc)
    scenario = tmp_path / "rays.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["build", str(scenario)], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_cli_builds_matrix_generators_as_the_builtin_does(tmp_path, capsys):
    generators = BUILTINS["ceg-gen12"].scenario().generators
    doc = {"dimension": 4, "generators": [{"matrix": _matrix_payload(p.mat)} for p in generators]}
    scenario = tmp_path / "gen12.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    reports = []
    for source in (str(scenario), "ceg-gen12"):
        code, out, _ = run_cli(["build", source, "--format", "json", "--no-cache"], capsys)
        assert code == 0
        report = json.loads(out)
        reports.append((report["system"], report["zero_one"]))
    assert reports[0] == reports[1]
    assert (reports[0][0]["elements"], reports[0][0]["atoms"]) == (140, 24)
    assert reports[0][1] == {"count": 0}
    for one, backend in (("1", "exact"), ("1.0", "float")):
        doc = {"dimension": 2, "generators": [{"matrix": [[one, "0"], ["0", "0"]]}]}
        assert scenario_from_dict(doc).vector_set.backend == backend


@pytest.mark.parametrize(
    "second, code, out, err",
    [
        ("2e-8", 0, "elements: 6, atoms: 4", ""),
        ("5e-10", 1, "", "error: atom labeled twice: 'a', 'b'\n"),
    ],
)
def test_cli_float_rays_in_one_grid_cell_are_two_atoms_unless_within_tol(
    tmp_path, capsys, second, code, out, err
):
    # The projectors of (1, 0) and (1, 2e-8) share a grid cell at tol 1e-9
    # but are not equal; (1, 5e-10) names the ray of (1, 0) a second time.
    doc = {
        "dimension": 2,
        "backend": "float",
        "vectors": [{"name": "a", "entries": ["1", "0"]}, {"name": "b", "entries": ["1", second]}],
    }
    scenario = tmp_path / "rays.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    got = run_cli(["build", str(scenario), "--no-cache"], capsys)
    assert (got[0], got[2]) == (code, err) and out in got[1]


@pytest.mark.parametrize(
    "literal, want",
    [("١", "exact"), ("1/٣", "exact"), (" -2/4 ", "exact"), ("1.5", "float"),
     ("²", "bad number"), ("1" * 5000, "must be finite")],
)
def test_backend_inference_reads_the_exact_parse_grammar(literal, want):
    # A literal is exact when the exact parse reads it without Fraction, so
    # Unicode decimal digits stay exact; one past the int digit limit is
    # read as a float, which is infinite.
    doc = {"dimension": 2, "vectors": [{"name": "a", "entries": [literal, "1"]}]}
    if want in ("exact", "float"):
        assert scenario_from_dict(doc).vector_set.backend == want
    else:
        with pytest.raises(ScenarioFormatError, match=rf"^vectors\[0\]\.entries\[0\](\.re)?: {want}"):
            scenario_from_dict(doc)


@pytest.mark.parametrize("entry", ["1e-200", "1e200"])
def test_cli_builds_a_float_ray_whose_squared_norm_under_or_overflows(tmp_path, capsys, entry):
    doc = json.loads(json.dumps(TWO_FLOAT_RAYS))
    doc["vectors"][0]["entries"][0] = entry
    scenario = tmp_path / "rays.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(TWO_FLOAT_RAYS), encoding="utf-8")
    code, out, err = run_cli(["build", str(scenario), "--format", "json"], capsys)
    assert (code, err) == (0, "")
    _, want, _ = run_cli(["build", str(plain), "--format", "json"], capsys)
    strip = lambda text: {k: v for k, v in json.loads(text).items() if k not in ("timings", "scenario")}
    assert strip(out) == strip(want)


def test_cli_zero_one(capsys):
    code, out, _ = run_cli(["zero-one", "kcbs", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["zero_one"]["count"] == 11
    assert len(doc["zero_one"]["states"]) == 11


def test_cli_unknown_scenario(capsys):
    code, _, err = run_cli(["build", "not-a-thing"], capsys)
    assert code == 1
    assert "neither a builtin" in err
    assert err == (
        "error: 'not-a-thing' is neither a builtin (ceg, ceg-gen12, ceg-lift, ceg17, kcbs) "
        "nor an existing file\n"
    )


def test_cli_malformed_state(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"atoms": {"P0": "1/0"}}))
    code, _, err = run_cli(["analyze", "kcbs", "--state", str(bad)], capsys)
    assert code == 1
    assert "atoms.P0" in err


def test_cli_determinism_modulo_timings(tmp_path):
    psi = tmp_path / "psi.json"
    psi.write_text(json.dumps({"vector": [{"re": "0"}, {"re": "0"}, {"re": "1"}]}))
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "ctxcert.cli",
                "analyze",
                "kcbs",
                "--state",
                str(psi),
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 20
        doc = json.loads(proc.stdout)
        doc.pop("timings")
        runs.append(json.dumps(doc, sort_keys=True))
    assert runs[0] == runs[1]


def test_cli_backend_override_on_files(tmp_path, capsys):
    # Integer entries default to exact; forcing float must be honored.
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    code, out, _ = run_cli(
        ["build", str(scenario_path), "--backend", "float", "--format", "json"], capsys
    )
    assert code == 0
    assert json.loads(out)["scenario"]["backend"] == "float"


def test_cli_state_with_an_eigenvalue_below_minus_tol_is_rejected(tmp_path, capsys):
    """Eigenvalues 3e-6, -1e-6 and 0.999998: every principal minor is above
    -tol, but the state is not one."""
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(dict(BOOLEAN_SCENARIO, backend="float")), encoding="utf-8")
    rows = [[1e-6, 2e-6, 0], [2e-6, 1e-6, 0], [0, 0, 0.999998]]
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps({"density": [[{"re": repr(float(x))} for x in row] for row in rows]}))
    code, out, err = run_cli(["analyze", str(scenario_path), "--state", str(state_path)], capsys)
    assert (code, out) == (1, "")
    assert err == "error: matrix has an eigenvalue below -tol\n"


def test_cli_overrides_rejected_for_builtins(capsys):
    code, _, err = run_cli(["build", "kcbs", "--backend", "exact"], capsys)
    assert code == 1 and "fixed to" in err
    code, _, err = run_cli(["build", "ceg", "--tolerance", "1e-6"], capsys)
    assert code == 1 and "tolerance" in err
    assert err == "error: builtin 'ceg' carries its own tolerance; --tolerance applies to scenario files\n"
    code, _, err = run_cli(["build", "ceg", "--backend", "float"], capsys)
    assert (code, err) == (1, "error: builtin 'ceg' is fixed to the 'exact' backend\n")


def test_cli_closure_budget_surfaced(tmp_path, capsys):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    code, _, err = run_cli(["build", str(scenario_path), "--max-elements", "5"], capsys)
    assert code == 1
    assert "5" in err and "closure" in err


def test_cli_cache_does_not_bypass_max_elements(tmp_path, capsys):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    code, _, _ = run_cli(["build", str(scenario_path)], capsys)
    assert code == 0 and cache_path_for(scenario_path).exists()
    code, _, err = run_cli(["build", str(scenario_path), "--max-elements", "5"], capsys)
    assert code == 1
    assert "5" in err and "closure" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["boolean.json", "boolean.json.ctxcache"]


def test_cli_zero_one_on_ceg_is_empty(capsys):
    code, out, _ = run_cli(["zero-one", "ceg", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["zero_one"]["count"] == 0


def test_cli_ks_check_reports_deficient_contexts(capsys):
    code, out, _ = run_cli(["ks-check", "ceg17", "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["ks_check"]["complete_bases"] == 7
    assert doc["ks_check"]["deficient_bases"] == 2


def test_cli_dot_to_a_missing_directory_is_a_typed_error(tmp_path, capsys):
    dot_path = tmp_path / "missing" / "x.dot"
    code, _, err = run_cli(["graph", "ceg", "--dot", str(dot_path)], capsys)
    assert code == 1 and err == f"error: {dot_path}: cannot write (No such file or directory)\n"


# -- builtins take the build path of files -------------------------------------------


def test_cli_analyze_builtin_builds_one_vector_set(tmp_path, capsys, monkeypatch):
    state = tmp_path / "mixed.json"
    density = [[{"re": "1/4" if i == j else "0"} for j in range(4)] for i in range(4)]
    state.write_text(json.dumps({"density": density}))
    built = []
    init = VectorSet.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VectorSet, "__init__", counting_init)
    code, _, _ = run_cli(["analyze", "ceg", "--state", str(state)], capsys)
    assert code == 20 and len(built) == 1


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_cli_builtin_graph_names_every_labelled_atom(name, capsys):
    code, out, _ = run_cli(["graph", name, "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["graph"]["dot"] == BUILTINS[name].system().atom_graph().to_dot()


def test_cli_builds_rays_named_like_the_default_names(tmp_path, capsys):
    """Rays named e0, e1, e2 beside f = (1, 1, 0): the unlabelled atom
    (1, -1, 0) takes the first default name that no ray uses, e3."""
    rays = {"e0": ["1", "0", "0"], "e1": ["0", "1", "0"], "e2": ["0", "0", "1"], "f": ["1", "1", "0"]}
    path = tmp_path / "axes.json"
    doc = {"dimension": 3, "vectors": [{"name": n, "entries": r} for n, r in rays.items()]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["graph", str(path), "--no-cache", "--format", "json"], capsys)
    assert (code, err) == (0, "")
    dot = json.loads(out)["graph"]["dot"]
    vertices = [line.split('"')[1] for line in dot.splitlines() if line.endswith('";') and " -- " not in line]
    assert vertices == ["e0", "e1", "e2", "e3", "f"]
    code, out, _ = run_cli(["build", str(path), "--no-cache"], capsys)
    assert code == 0 and "atoms: 5" in out


OUTSIDE_RAY = {
    "dimension": 3,
    "generators": ["a"],
    "vectors": [{"name": "a", "entries": ["1", "0", "0"]}, {"name": "e0", "entries": ["0", "1", "0"]}],
}


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_cli_a_ray_outside_the_closure_names_nothing(tmp_path, capsys, backend):
    """The ray e0 = (0, 1, 0) is no element of the closure of a = (1, 0, 0):
    it names nothing, and the unlabelled atom I - a takes the name e0."""
    path = tmp_path / "outside.json"
    path.write_text(json.dumps(OUTSIDE_RAY), encoding="utf-8")
    argv = [str(path), "--backend", backend, "--format", "json"]
    code, out, err = run_cli(["build", *argv], capsys)
    assert (code, err) == (0, "") and json.loads(out)["system"]["atoms"] == 2
    code, out, err = run_cli(["zero-one", *argv], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["zero_one"]["atom_order"] == ["a", "e0"]


def test_cli_build_looks_each_label_up_once(tmp_path, monkeypatch):
    """A cold build of the CEG file looks each of its 18 labels up once."""
    path = tmp_path / "ceg.json"
    path.write_text(json.dumps(CEG_DOC), encoding="utf-8")
    calls = []
    real = QuantumSystem.index_of
    monkeypatch.setattr(QuantumSystem, "index_of", lambda self, p: calls.append(p) or real(self, p))
    source = cli_module._Source(cli_module.build_parser().parse_args(["build", str(path)]))
    system = source.build_system()
    assert cache_path_for(path).exists() and len(system.atom_indices()) == 24
    assert len(calls) == len(source.scenario.labels) == 18


# -- the integer parse path --------------------------------------------------------

RATIONAL_EDGES = [
    "+3", " 3 ", "03", "-0", "1/0", "3/-4", "1.5", "1e2", "1_000",
    "١٢", "３", "1/٣", "²", "1 / 2", "\t7\n", "", "-", "/2", "2/",
    "+-1", "0/5", "-12/18", "00/007", 7, -3, True, 1.5, None, [1],
]


def _check_ratio(value):
    try:
        want = Fraction(str(value).strip()) if isinstance(value, (int, str)) else None
    except (ValueError, ZeroDivisionError):
        want = None
    if want is None:
        with pytest.raises(ScenarioFormatError) as got:
            parse_ratio(value, "x")
        with pytest.raises(ScenarioFormatError) as ref:
            parse_rational(value, "x")
        assert str(got.value) == str(ref.value)
    else:
        num, den = parse_ratio(value, "x")
        assert den > 0 and Fraction(num, den) == want


@pytest.mark.parametrize("value", RATIONAL_EDGES)
def test_ratio_parse_edge_cases_match_fraction(value):
    _check_ratio(value)


def test_ratio_parse_past_the_int_digit_limit_matches_fraction():
    for value in ("1" * 5000, "1/" + "2" * 5000):
        _check_ratio(value)


@given(
    st.one_of(
        st.from_regex(r"\A\s?[+-]?[0-9]{1,6}(/[0-9]{1,4})?\s?\Z"),
        st.text(alphabet="0123456789+-/ ._e١３", max_size=8),
        st.text(max_size=5),
        st.integers(),
    )
)
@settings(max_examples=400, deadline=None)
def test_ratio_parse_matches_fraction(value):
    _check_ratio(value)


_literals = st.one_of(
    st.from_regex(r"\A[+-]?[0-9]{1,3}(/[1-9][0-9]?)?\Z"),
    st.sampled_from(["0", "1", " 2 ", "-0", "1_0", "١", "3/06"]),
)


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(
        st.lists(st.fixed_dictionaries({"re": _literals, "im": _literals}), min_size=d, max_size=d),
        min_size=d,
        max_size=d,
    )
))
@settings(max_examples=150, deadline=None)
def test_exact_matrix_parse_matches_fraction_entries(grid):
    rows = [
        [(parse_rational(e["re"], "re"), parse_rational(e["im"], "im")) for e in row]
        for row in grid
    ]
    got = _parse_matrix(grid, "exact", 1e-9, len(grid), "m")
    want = ExactMatrix.from_entries(rows)
    assert (got.den, got.re, got.im) == (want.den, want.re, want.im)


def test_scenario_labels_are_the_generator_projectors():
    scenario = scenario_from_dict(BOOLEAN_SCENARIO)
    assert list(scenario.labels.values()) == scenario.generators
    assert scenario.labels == {n: scenario.vector_set.projector(n) for n in ("ex", "ey", "ez")}


def test_named_generators_are_the_label_projectors():
    names = ["ey", "ex", "ey"]
    scenario = scenario_from_dict(dict(BOOLEAN_SCENARIO, generators=names))
    assert all(g is scenario.labels[n] for g, n in zip(scenario.generators, names))
    assert list(scenario.labels) == ["ex", "ey", "ez"]


# -- malformed documents end in a typed error ------------------------------------------


MALFORMED_SCENARIOS = [
    ({"dimension": 3, "vectors": [[1, 0, 0]]}, "vectors[0]"),
    ({"dimension": 3, "vectors": {"a": 1}}, "vectors[0]"),
    ({"dimension": 3, "vectors": [{"name": "a", "entries": 5}]}, "vectors[0].entries"),
    ({"dimension": 3, "vectors": 5}, "vectors"),
    (dict(BOOLEAN_SCENARIO, bases=5), "bases"),
    (dict(BOOLEAN_SCENARIO, bases=[[["ex"]]]), "bases[0]"),
    (dict(BOOLEAN_SCENARIO, generators=5), "generators"),
]


@pytest.mark.parametrize("doc, field", MALFORMED_SCENARIOS)
def test_malformed_scenario_names_the_field(doc, field):
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith(field + ":")


@pytest.mark.parametrize("doc, field", MALFORMED_SCENARIOS[:3])
def test_cli_malformed_scenario_is_a_typed_error(tmp_path, capsys, doc, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["build", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}:")


def test_cli_state_vector_not_a_list_is_a_typed_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vector": 5}))
    code, _, err = run_cli(["analyze", "kcbs", "--state", str(bad)], capsys)
    assert code == 1
    assert err.startswith("error: vector:")


TWO_RAYS = {
    "dimension": 2,
    "vectors": [{"name": "a", "entries": ["1", "0"]}, {"name": "b", "entries": ["0", "1"]}],
}

# A string or an object where a list belongs would be read one character or
# one key at a time; each is refused with the field named.
TEXT_FOR_A_LIST = [
    ({"dimension": 2, "vectors": [{"name": "a", "entries": "10"}]}, "vectors[0].entries"),
    ({"dimension": 2, "vectors": [{"name": "a", "entries": {"re": "1"}}]}, "vectors[0].entries"),
    ({"dimension": 2, "vectors": "ab"}, "vectors[0]"),
    (dict(TWO_RAYS, bases=["ab"]), "bases[0]"),
    (dict(TWO_RAYS, bases=[{"a": 1, "b": 2}]), "bases[0]"),
    (dict(TWO_RAYS, bases="ab"), "bases"),
    (dict(TWO_RAYS, bases={"ab": ["a", "b"]}), "bases"),
    (dict(TWO_RAYS, generators="ab"), "generators"),
    (dict(TWO_RAYS, generators={"a": 1}), "generators"),
]


@pytest.mark.parametrize("command", ["build", "ks-check"])
@pytest.mark.parametrize("doc, field", TEXT_FOR_A_LIST)
def test_cli_text_for_a_list_names_the_field(tmp_path, capsys, doc, field, command):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli([command, str(path), "--no-cache"], capsys)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {field}:") and "Traceback" not in err


@pytest.mark.parametrize("vector", ["100", {"a": "1", "b": "0", "c": "0"}])
def test_cli_state_vector_as_text_names_the_field(tmp_path, capsys, vector):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"vector": vector}))
    code, out, err = run_cli(["analyze", "kcbs", "--state", str(bad)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: vector:") and "Traceback" not in err


def test_cli_state_atoms_outside_the_system_are_named(tmp_path, capsys):
    scenario = tmp_path / "two.json"
    scenario.write_text(json.dumps(TWO_RAYS), encoding="utf-8")
    state = tmp_path / "state.json"
    args = ["analyze", str(scenario), "--state", str(state), "--no-cache"]
    state.write_text(json.dumps({"atoms": {"a": "1/2", "b": "1/2", "d": "0", "c": "0"}}))
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: atoms: the system has no atoms named ['c', 'd']")
    state.write_text(json.dumps({"atoms": {"a": "1/2", "b": "1/2"}}))
    code, out, _ = run_cli(args, capsys)
    assert code == 0 and "classification: CLASSICAL" in out


# -- a corrupt or mismatched cache is a miss -----------------------------------------


def _stored_cache(tmp_path, doc=BOOLEAN_SCENARIO):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps(doc), encoding="utf-8")
    scenario = scenario_from_path(scenario_path)
    system = generate_system(scenario.generators).with_atom_labels(scenario.labels)
    store_cached_system(scenario_path, scenario, system)
    cache = cache_path_for(scenario_path)
    return scenario_path, scenario, json.loads(cache.read_text()), cache


# name -> (how the stored payload is corrupted, the logged reason)
CORRUPTIONS = {
    "system null": (lambda doc: doc.update(system=None), "not a ctxcert system payload"),
    "top-level list": (lambda doc: doc.clear(), "not a JSON object"),  # written as [doc]
    "elements 5": (lambda doc: doc["system"].update(elements=5), "elements: expected a list"),
    "non-idempotent element": (
        lambda doc: doc["system"]["elements"][-1][0][0].update(re="2"),
        "matrix is not idempotent",
    ),
    "reordered elements": (
        lambda doc: doc["system"]["elements"].reverse(),
        "elements[0]: out of the system's order",
    ),
    "repeated element": (
        lambda doc: doc["system"]["elements"].insert(1, doc["system"]["elements"][1]),
        "element 2 repeats element 1",
    ),
    "no complement of u": (
        lambda doc: doc["system"].update(elements=[_matrix_payload(p.mat) for p in axes_and_u()]),
        "system is not closed under complement",
    ),
    "weird backend": (
        lambda doc: doc["system"].update(backend="weird"),
        "backend: expected 'exact' or 'float', got 'weird'",
    ),
    "float backend": (
        lambda doc: doc["system"].update(backend="float", tolerance="1e-09"),
        "backend float, scenario exact",
    ),
    "version 1": (lambda doc: doc["system"].update(version=1), "version: expected 2, got 1"),
}


def _corrupt(cache, doc, name):
    bad = json.loads(json.dumps(doc))
    CORRUPTIONS[name][0](bad)
    cache.write_text(json.dumps([bad] if name == "top-level list" else bad), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupt_cache_is_a_logged_miss(tmp_path, caplog, name):
    scenario_path, scenario, doc, cache = _stored_cache(tmp_path)
    assert load_cached_system(scenario_path, scenario=scenario) is not None
    _corrupt(cache, doc, name)
    with caplog.at_level(logging.INFO, logger="ctxcert.io"):
        assert load_cached_system(scenario_path, scenario=scenario) is None
    assert caplog.records[-1].getMessage() == f"ignoring cache {cache}: {CORRUPTIONS[name][1]}"


def test_cli_corrupt_cache_is_rebuilt(tmp_path, capsys):
    scenario_path, _, doc, cache = _stored_cache(tmp_path)
    code, want, _ = run_cli(["build", str(scenario_path), "--no-cache", "--format", "json"], capsys)
    want = {k: v for k, v in json.loads(want).items() if k != "timings"}
    for name in sorted(CORRUPTIONS):
        _corrupt(cache, doc, name)
        code, out, err = run_cli(["build", str(scenario_path), "--format", "json"], capsys)
        assert (code, err) == (0, ""), name
        assert {k: v for k, v in json.loads(out).items() if k != "timings"} == want, name
        assert json.loads(cache.read_text()) == doc  # the rebuild rewrote the cache


CEG_DOC = {
    "dimension": 4,
    "vectors": [
        {"name": name, "entries": [str(x) for x in vec]}
        for name, vec in zip(ceg_set().names, ceg_set().vectors)
    ],
}
MIXED_4 = {"density": [[{"re": "1/4" if i == j else "0"} for j in range(4)] for i in range(4)]}


def _without_an_atom(doc, system, scenario):
    """The stored ``doc`` less one unlabelled atom and its complement.  The
    rest is in order and closed under complement, but some element is no
    longer a sum of the atoms that remain."""
    atom = next(i for i in system.atom_indices() if system.atom_label(i) not in scenario.labels)
    gone = {atom, system.index_of(complement(system.elements[atom]))}
    bad = json.loads(json.dumps(doc))
    payload = bad["system"]
    payload["elements"] = [e for k, e in enumerate(payload["elements"]) if k not in gone]
    return bad


def test_cache_missing_an_atom_is_a_logged_miss(tmp_path, caplog, capsys):
    scenario_path, scenario, doc, cache = _stored_cache(tmp_path, CEG_DOC)
    system = load_cached_system(scenario_path, scenario).with_atom_labels(scenario.labels)
    bad = _without_an_atom(doc, system, scenario)
    assert len(bad["system"]["elements"]) == 138
    state_path = tmp_path / "mixed.json"
    state_path.write_text(json.dumps(MIXED_4), encoding="utf-8")
    argv = ["analyze", str(scenario_path), "--state", str(state_path), "--format", "json"]
    code, want, _ = run_cli([*argv, "--no-cache"], capsys)

    cache.write_text(json.dumps(bad), encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="ctxcert.io"):
        assert load_cached_system(scenario_path, scenario) is None
    message = caplog.records[-1].getMessage()
    assert message.startswith(f"ignoring cache {cache}: element ")
    assert message.endswith(" is no orthogonal sum of atoms; the system is not closed")

    got_code, got, err = run_cli(argv, capsys)
    assert (got_code, err) == (code, "")
    assert {k: v for k, v in json.loads(got).items() if k != "timings"} == {
        k: v for k, v in json.loads(want).items() if k != "timings"
    }


def test_failed_atom_naming_writes_no_cache(tmp_path, capsys):
    doc = {
        "dimension": 2,
        "vectors": [
            {"name": "a", "entries": ["1", "0"]},
            {"name": "b", "entries": ["2", "0"]},  # the ray of a
            {"name": "c", "entries": ["0", "1"]},
        ],
    }
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["build", str(path)], capsys)
    assert (code, out, err) == (1, "", "error: atom labeled twice: 'a', 'b'\n")
    assert not cache_path_for(path).exists()


def _one_ray(entries) -> dict:
    return {"dimension": 3, "vectors": [{"name": "x", "entries": entries}]}


def test_scenario_edited_before_the_store_leaves_a_cache_the_next_run_ignores(
    tmp_path, monkeypatch, capsys, caplog
):
    """The cache is keyed on the bytes that were parsed, so a file edited
    between the parse and the store does not get the old closure."""
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(_one_ray(["1", "0", "0"])))
    store = cli_module.store_cached_system

    def edit_then_store(scenario_path, scenario, system):
        path.write_text(json.dumps(_one_ray(["1", "1", "0"])))
        store(scenario_path, scenario, system)

    argv = ["zero-one", str(path), "--format", "json"]
    with monkeypatch.context() as m:
        m.setattr(cli_module, "store_cached_system", edit_then_store)
        assert run_cli(argv, capsys)[0] == 0
    _, want, _ = run_cli([*argv, "--no-cache"], capsys)
    with caplog.at_level(logging.INFO, logger="ctxcert.io"):
        code, got, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert f"ignoring cache {cache_path_for(path)}: the scenario file has changed" in caplog.messages
    want, got = json.loads(want), json.loads(got)
    assert want["zero_one"]["atom_order"] == ["x", "e0"]
    assert {k: v for k, v in got.items() if k != "timings"} == {
        k: v for k, v in want.items() if k != "timings"
    }


def test_scenario_deleted_before_the_store_still_writes_the_cache(tmp_path, monkeypatch, capsys):
    """The store does not read the scenario file again."""
    path = tmp_path / "ray.json"
    path.write_text(json.dumps(_one_ray(["1", "0", "0"])))
    store = cli_module.store_cached_system

    def delete_then_store(scenario_path, scenario, system):
        path.unlink()
        store(scenario_path, scenario, system)

    monkeypatch.setattr(cli_module, "store_cached_system", delete_then_store)
    code, out, err = run_cli(["build", str(path)], capsys)
    assert (code, err) == (0, "") and "atoms: 2" in out
    assert cache_path_for(path).exists()


def test_deeply_nested_json_is_a_typed_error_or_a_miss(tmp_path, capsys, caplog):
    deep = "[" * 100_000 + "]" * 100_000
    path = tmp_path / "deep.json"
    path.write_text(deep)
    for argv in (["build", str(path)], ["analyze", "kcbs", "--state", str(path)]):
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {path}: invalid JSON (") and "Traceback" not in err
    scenario_path, scenario, _, cache = _stored_cache(tmp_path)
    cache.write_text(deep)
    with caplog.at_level(logging.INFO, logger="ctxcert.io"):
        assert load_cached_system(scenario_path, scenario) is None
    assert caplog.messages[-1].startswith(f"ignoring cache {cache}: {cache}: invalid JSON (")


def test_cache_for_another_backend_dimension_or_tolerance_is_a_miss(tmp_path, caplog):
    """A stored payload of another backend, dimension or tolerance, under the
    sha256 of the scenario file, is a logged miss."""
    in_dimension_4 = {
        "dimension": 4,
        "vectors": [{"name": "ex", "entries": [{"re": "1"}, {"re": "0"}, {"re": "0"}, {"re": "0"}]}],
    }
    float_doc = dict(BOOLEAN_SCENARIO, backend="float", tolerance=1e-6)
    cases = [
        (BOOLEAN_SCENARIO, float_doc),
        (BOOLEAN_SCENARIO, in_dimension_4),
        (float_doc, dict(float_doc, tolerance=1e-7)),
    ]
    for stored, other in cases:
        scenario_path, scenario, doc, cache = _stored_cache(tmp_path, stored)
        assert load_cached_system(scenario_path, scenario) is not None
        other_system = generate_system(scenario_from_dict(other).generators)
        cache.write_text(json.dumps(dict(doc, system=system_to_payload(other_system))))
        with caplog.at_level(logging.INFO, logger="ctxcert.io"):
            assert load_cached_system(scenario_path, scenario) is None
    assert [r.getMessage().split(": ", 1)[1] for r in caplog.records] == [
        "backend float, scenario exact",
        "dimension 4, scenario 3",
        "tolerance 1e-07, scenario 1e-06",
    ]


def test_cli_unreadable_files_are_typed_errors(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    code, _, err = run_cli(["analyze", "kcbs", "--state", str(missing)], capsys)
    assert code == 1 and err == f"error: {missing}: cannot read (No such file or directory)\n"
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"dimension": "\xe9"}')
    code, _, err = run_cli(["build", str(not_utf8)], capsys)
    assert code == 1 and err.startswith(f"error: {not_utf8}: invalid JSON (")
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]")
    code, _, err = run_cli(["build", str(a_list), "--backend", "float"], capsys)
    assert code == 1 and err == "error: scenario document must be a JSON object\n"


# -- fuzzing the readers ----------------------------------------------------------------

_JUNK = st.sampled_from(
    [None, 5, -1, 2.5, True, "x", "1/2", "3/0", "0.5", [], [1], [[1]], {}, {"a": 1}, {"re": []}]
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated(draw, doc):
    """``doc`` with one to three of its values (or the whole of it) replaced by junk."""
    def copy(value):
        return json.loads(json.dumps(value))

    doc = copy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            return copy(draw(_JUNK))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy(draw(_JUNK))
    return doc


_STATE = {"density": [[{"re": "1/3"} if i == j else {"re": "0"} for j in range(3)] for i in range(3)]}


# A field path such as ``vectors[2].entries[1].re``, then the message.
_FIELD_NAMED = re.compile(r"[a-z]+(\[\d+\]|\.[a-z]+)*: ")
_DOCUMENT_LEVEL = (
    "scenario document must be a JSON object",
    "state document must be a JSON object",
    "state: expected exactly one of ",
)


def _field_named(read, *args) -> None:
    """Call a reader; a ``ScenarioFormatError`` it raises must name a field
    or be about the whole document."""
    try:
        read(*args)
    except ScenarioFormatError as exc:
        message = str(exc)
        assert _FIELD_NAMED.match(message) or message.startswith(_DOCUMENT_LEVEL), message
    except CtxcertError:
        pass


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_malformed_documents_raise_typed_errors(data):
    scenario = data.draw(_mutated(dict(BOOLEAN_SCENARIO, generators=["ex", "ey"])))
    _field_named(scenario_from_dict, scenario)
    state = data.draw(_mutated(data.draw(st.sampled_from([_STATE, {"vector": [{"re": "1"}] * 3}]))))
    _field_named(state_from_dict, state, data.draw(st.sampled_from(["exact", "float"])), 1e-9, 3)
    system = generate_system(scenario_from_dict(BOOLEAN_SCENARIO).generators)
    payload = data.draw(_mutated(system_to_payload(system)))
    with contextlib.suppress(CtxcertError, ValueError):  # the cache reader's miss types
        system_from_payload(payload)
