"""What a process loads, and the names it resolves.

A CLI run on a scenario file loads neither ``catalog`` (the builtins) nor
``pasted`` (abstract pasted systems): each is loaded by the first use that
needs it.  Nor does a Kochen-Specker verdict, which needs no LP, load the
certificate LP (``certify`` and ``simplex``), and a run that shows no log
record does not load ``logging``.  No CLI run loads ``dataclasses`` or
``inspect``: the value records are plain classes, which compile no code at
import.  The public names of the package and the resolution of a scenario
token are the same either way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxcert
from ctxcert.catalog import BUILTINS, ceg_set
from ctxcert.cli import main
from ctxcert.io import cache_path_for

SRC = Path(ctxcert.__file__).resolve().parents[1]

THIRD = {"density": [[{"re": "1/3" if i == j else "0"} for j in range(3)] for i in range(3)]}
QUARTER = {"density": [[{"re": "1/4" if i == j else "0"} for j in range(4)] for i in range(4)]}
AXES = {
    "dimension": 3,
    "vectors": [
        {"name": n, "entries": [{"re": "1" if i == k else "0"} for i in range(3)]}
        for k, n in enumerate(("ex", "ey", "ez"))
    ],
}


# Standard-library modules that no CLI run needs: ``dataclasses`` writes and
# compiles code for each decorated class, and it imports ``inspect``.
UNUSED_STDLIB = {"dataclasses", "inspect"}
# What a Kochen-Specker verdict does not run: the certificate LP, and, when no
# log record is shown, ``logging``.
KS_UNLOADED = {"ctxcert.certify", "ctxcert.simplex", "logging"}


def _loaded_after(code: str) -> tuple[str, set[str], str]:
    """What ``code`` prints last, the modules loaded after it, and what it
    writes to stderr, in a fresh interpreter."""
    tail = "\nprint(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys\n" + code + tail],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, result, modules = proc.stdout.splitlines()
    return result, set(modules.split()), proc.stderr


def _cli_modules(argv: list[str]) -> tuple[str, set[str], str]:
    return _loaded_after(
        "import contextlib, io\n"
        "from ctxcert import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(code)"
    )


@pytest.mark.parametrize("backend", [[], ["--backend", "float"]], ids=["exact", "float"])
def test_analyze_on_a_file_loads_neither_catalog_nor_pasted(tmp_path, backend):
    scenario = tmp_path / "axes.json"
    scenario.write_text(json.dumps(AXES))
    state = tmp_path / "third.json"
    state.write_text(json.dumps(THIRD))
    argv = ["analyze", str(scenario.resolve()), "--state", str(state.resolve()), "--no-cache"]
    code, modules, _ = _cli_modules(argv + backend)
    assert code == "0"  # CLASSICAL
    assert {"ctxcert.cli", "ctxcert.analyze", "ctxcert.io"} <= modules
    assert {"ctxcert.certify", "ctxcert.simplex"} <= modules  # the LP ran
    assert "ctxcert.catalog" not in modules and "ctxcert.pasted" not in modules
    assert not (UNUSED_STDLIB | {"logging"}) & modules


def test_analyze_on_a_builtin_loads_catalog_but_not_pasted(tmp_path):
    state = tmp_path / "quarter.json"
    state.write_text(json.dumps(QUARTER))
    code, modules, _ = _cli_modules(["analyze", "ceg", "--state", str(state.resolve())])
    assert code == "20"  # CONTEXTUAL: no 0-1 state
    assert "ctxcert.catalog" in modules and "ctxcert.pasted" not in modules
    assert not (UNUSED_STDLIB | KS_UNLOADED) & modules


def _ceg_file(tmp_path: Path, backend: str) -> Path:
    """The 18 CEG rays as a scenario file on ``backend``, and I/4 beside it."""
    vs = ceg_set()
    doc = {
        "dimension": 4,
        "backend": backend,
        "vectors": [
            {"name": f"r{k}", "entries": [str(x) for x in v]} for k, v in enumerate(vs.vectors)
        ],
    }
    scenario = tmp_path / f"ceg-{backend}.json"
    scenario.write_text(json.dumps(doc))
    (tmp_path / "quarter.json").write_text(json.dumps(QUARTER))
    return scenario.resolve()


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_a_kochen_specker_verdict_loads_no_certificate_lp_nor_logging(tmp_path, backend):
    """CEG has no 0-1 state, so it is CONTEXTUAL (exit code 20) without an
    LP: cold, which writes the cache, and then warm, which reads it."""
    scenario = _ceg_file(tmp_path, backend)
    argv = ["analyze", str(scenario), "--state", str(tmp_path.resolve() / "quarter.json")]
    cache = cache_path_for(scenario)
    for run in ("cold", "warm"):
        code, modules, err = _cli_modules(argv)
        assert (code, err) == ("20", ""), run
        assert {"ctxcert.analyze", "ctxcert.io"} <= modules
        assert not (UNUSED_STDLIB | KS_UNLOADED) & modules, run
        if run == "cold":
            written = cache.stat().st_mtime_ns
    assert cache.stat().st_mtime_ns == written  # the warm run stored nothing


def test_a_verbose_warm_run_logs_the_cache_hit(tmp_path):
    scenario = _ceg_file(tmp_path, "exact")
    argv = ["analyze", str(scenario), "--state", str(tmp_path.resolve() / "quarter.json")]
    assert _cli_modules(argv)[0] == "20"  # cold: writes the cache
    code, modules, err = _cli_modules(argv + ["-v"])
    assert code == "20" and "logging" in modules
    assert err == f"INFO ctxcert.cli: loaded system from cache beside {scenario}\n"


def test_the_package_loads_pasted_on_first_use():
    before, modules, _ = _loaded_after(
        "import ctxcert\n"
        "before = 'ctxcert.pasted' in sys.modules\n"
        "ctxcert.PastedPBA\n"
        "print(before)"
    )
    assert before == "False" and "ctxcert.pasted" in modules


def test_every_public_name_resolves():
    for name in ctxcert.__all__:
        getattr(ctxcert, name)
    namespace: dict = {}
    exec("from ctxcert import *", namespace)
    assert set(ctxcert.__all__) <= namespace.keys()
    assert ctxcert.PastedPBA is ctxcert.pasted.PastedPBA
    assert ctxcert.build_pasted_pba is ctxcert.pasted.build_pasted_pba
    with pytest.raises(AttributeError):
        ctxcert.no_such_name  # noqa: B018


def test_every_builtin_name_is_bare():
    for name in BUILTINS:
        assert Path(name).name == name and not Path(name).suffix, name


def test_a_bare_builtin_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "kcbs").write_text(json.dumps(AXES))
    reports = {}
    for token in ("kcbs", "./kcbs"):
        assert main(["build", token, "--format", "json", "--no-cache"]) == 0
        reports[token] = json.loads(capsys.readouterr().out)
    assert reports["kcbs"]["scenario"]["dimension"] == 3
    assert reports["kcbs"]["scenario"]["backend"] == "float"  # the pentagon builtin
    assert reports["./kcbs"]["scenario"]["backend"] == "exact"  # the three axes
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kcbs"]


def test_an_unknown_bare_token_lists_the_builtins(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for token in ("nosuch", "nosuch.json", "dir/kcbs"):
        assert main(["build", token]) == 1
        err = capsys.readouterr().err
        assert "neither a builtin" in err and all(name in err for name in BUILTINS), err


def test_a_failed_cache_write_is_a_warning_without_verbose(tmp_path):
    """The held logging config is applied before the first record shown."""
    scenario = _ceg_file(tmp_path, "exact")
    cache = cache_path_for(scenario)
    cache.mkdir()  # unreadable as a cache, and os.replace onto it fails
    argv = ["analyze", str(scenario), "--state", str(tmp_path.resolve() / "quarter.json")]
    code, modules, err = _cli_modules(argv)
    assert code == "20" and "logging" in modules
    assert err.startswith(f"WARNING ctxcert.io: could not write cache {cache}: ")
    assert err.count("\n") == 1, err
