"""What a process loads, and the names it resolves.

A CLI run on a scenario file loads neither ``catalog`` (the builtins) nor
``pasted`` (abstract pasted systems): each is loaded by the first use that
needs it.  No CLI run loads ``dataclasses`` or ``inspect``: the value records
are plain classes, which compile no code at import.  The public names of the
package and the resolution of a scenario token are the same either way.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctxcert
from ctxcert.catalog import BUILTINS
from ctxcert.cli import main

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


def _loaded_after(code: str) -> tuple[str, set[str]]:
    """What ``code`` prints last, and the modules loaded after it, in a fresh
    interpreter."""
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
    return result, set(modules.split())


def _cli_modules(argv: list[str]) -> tuple[str, set[str]]:
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
    code, modules = _cli_modules(argv + backend)
    assert code == "0"  # CLASSICAL
    assert {"ctxcert.cli", "ctxcert.analyze", "ctxcert.io"} <= modules
    assert "ctxcert.catalog" not in modules and "ctxcert.pasted" not in modules
    assert not UNUSED_STDLIB & modules


def test_analyze_on_a_builtin_loads_catalog_but_not_pasted(tmp_path):
    state = tmp_path / "quarter.json"
    state.write_text(json.dumps(QUARTER))
    code, modules = _cli_modules(["analyze", "ceg", "--state", str(state.resolve())])
    assert code == "20"  # CONTEXTUAL: no 0-1 state
    assert "ctxcert.catalog" in modules and "ctxcert.pasted" not in modules
    assert not UNUSED_STDLIB & modules


def test_the_package_loads_pasted_on_first_use():
    before, modules = _loaded_after(
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
