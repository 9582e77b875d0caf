"""File formats, round-trips, cache behavior, and the CLI surface."""

from __future__ import annotations

import json
import logging
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ctxcert.catalog import kcbs_system
from ctxcert.cli import main
from ctxcert.errors import ClosureBudgetExceeded, ScenarioFormatError
from ctxcert.io import (
    cache_path_for,
    load_cached_system,
    scenario_from_dict,
    state_from_dict,
    store_cached_system,
    system_from_payload,
    system_to_payload,
)
from ctxcert.systems import generate_system, systems_equal

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
    assert scenario_from_dict(BOOLEAN_SCENARIO).backend == "exact"
    float_doc = {
        "dimension": 2,
        "vectors": [
            {"name": "a", "entries": [{"re": "0.7071"}, {"re": "0.7071"}]},
            {"name": "b", "entries": [{"re": "1"}, {"re": "0"}]},
        ],
    }
    assert scenario_from_dict(float_doc).backend == "float"
    forced = dict(float_doc, backend="float")
    assert scenario_from_dict(forced).backend == "float"


def test_parse_error_names_the_field():
    bad = {
        "dimension": 2,
        "vectors": [{"name": "a", "entries": [{"re": "1/0"}, {"re": "0"}]}],
    }
    with pytest.raises(ScenarioFormatError) as err:
        scenario_from_dict(bad)
    assert "vectors[0].entries[0].re" in str(err.value)


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
    system = generate_system(scenario.generators, atom_labels=scenario.labels)
    payload = system_to_payload(system)
    back = system_from_payload(json.loads(json.dumps(payload)))
    assert systems_equal(system, back)
    assert {p.mat.key() for p in back.elements} == {p.mat.key() for p in system.elements}
    assert back.atom_graph() == system.atom_graph()


def test_system_payload_roundtrip_float(q_kcbs):
    payload = system_to_payload(q_kcbs)
    back = system_from_payload(json.loads(json.dumps(payload)))
    assert systems_equal(q_kcbs, back)
    assert back.atom_graph() == q_kcbs.atom_graph()


def test_cache_roundtrip(tmp_path):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    scenario = scenario_from_dict(BOOLEAN_SCENARIO)
    system = generate_system(scenario.generators, atom_labels=scenario.labels)
    assert load_cached_system(scenario_path) is None
    store_cached_system(scenario_path, system)
    assert cache_path_for(scenario_path).exists()
    cached = load_cached_system(scenario_path)
    assert cached is not None and systems_equal(cached, system)
    # Any content change invalidates the cache.
    scenario_path.write_text(json.dumps(dict(BOOLEAN_SCENARIO, dimension=3)) + " ", encoding="utf-8")
    store_hash_mismatch = load_cached_system(scenario_path)
    assert store_hash_mismatch is None


def test_cached_system_honours_max_elements(tmp_path):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    scenario = scenario_from_dict(BOOLEAN_SCENARIO)
    store_cached_system(scenario_path, generate_system(scenario.generators))
    assert len(load_cached_system(scenario_path, max_elements=8)) == 8
    with pytest.raises(ClosureBudgetExceeded):
        load_cached_system(scenario_path, max_elements=7)


def test_failed_cache_write_is_logged_not_raised(tmp_path, monkeypatch, caplog):
    scenario_path = tmp_path / "boolean.json"
    scenario_path.write_text(json.dumps(BOOLEAN_SCENARIO), encoding="utf-8")
    system = generate_system(scenario_from_dict(BOOLEAN_SCENARIO).generators)

    def refuse(self, *args, **kwargs):
        raise OSError("read-only file system")

    monkeypatch.setattr(Path, "write_text", refuse)
    with caplog.at_level(logging.WARNING, logger="ctxcert.io"):
        store_cached_system(scenario_path, system)
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


def test_cli_ks_check(capsys):
    code, out, _ = run_cli(["ks-check", "ceg"], capsys)
    assert code == 0
    assert "no assignment (exhaustive" in out
    code, out, _ = run_cli(["ks-check", "ceg17"], capsys)
    assert code == 0
    assert "assignment found" in out


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


def test_cli_overrides_rejected_for_builtins(capsys):
    code, _, err = run_cli(["build", "kcbs", "--backend", "exact"], capsys)
    assert code == 1 and "fixed to" in err
    code, _, err = run_cli(["build", "ceg", "--tolerance", "1e-6"], capsys)
    assert code == 1 and "tolerance" in err


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
