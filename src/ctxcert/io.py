"""Scenario/state file parsing, system export-import, and the session cache.

All numbers travel as strings: exact entries as integers or "p/q" fractions,
float entries as decimal literals (repr round-trips bit-exactly).  Parse errors
name the offending field.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ClosureBudgetExceeded, ScenarioFormatError
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    DensityMatrix,
    ExactMatrix,
    FloatMatrix,
    Projector,
)
from .systems import DEFAULT_MAX_ELEMENTS, QuantumSystem
from .vectorsets import Basis, VectorSet

log = logging.getLogger(__name__)

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _is_rational_literal(value) -> bool:
    if isinstance(value, int):
        return True
    if isinstance(value, str):
        return bool(_RATIONAL_RE.match(value.strip()))
    return False


def parse_rational(value, field: str) -> Fraction:
    try:
        if isinstance(value, (int, str)):
            return Fraction(str(value).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioFormatError(f"{field}: bad rational {value!r} ({exc})") from None
    raise ScenarioFormatError(f"{field}: expected a rational string, got {value!r}")


def parse_real(value, field: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"{field}: bad number {value!r} ({exc})") from None


def _entry_parts(entry, field: str) -> tuple[object, object]:
    if isinstance(entry, dict):
        extra = set(entry) - {"re", "im"}
        if extra:
            raise ScenarioFormatError(f"{field}: unexpected keys {sorted(extra)}")
        return entry.get("re", "0"), entry.get("im", "0")
    if isinstance(entry, (int, str, float)):
        return entry, "0"
    raise ScenarioFormatError(f"{field}: expected an entry object, got {entry!r}")


def _entry_is_rational(entry) -> bool:
    if isinstance(entry, dict):
        return all(_is_rational_literal(v) for v in entry.values())
    return _is_rational_literal(entry)


def parse_entry_exact(entry, field: str) -> tuple[Fraction, Fraction]:
    re_part, im_part = _entry_parts(entry, field)
    return parse_rational(re_part, field + ".re"), parse_rational(im_part, field + ".im")


def parse_entry_float(entry, field: str) -> complex:
    re_part, im_part = _entry_parts(entry, field)
    return complex(parse_real(re_part, field + ".re"), parse_real(im_part, field + ".im"))


def _infer_backend(doc: dict) -> str:
    declared = doc.get("backend")
    if declared is not None:
        if declared not in (EXACT, FLOAT):
            raise ScenarioFormatError(f"backend: expected 'exact' or 'float', got {declared!r}")
        return declared
    for vi, vec in enumerate(doc.get("vectors", [])):
        for ei, entry in enumerate(vec.get("entries", [])):
            if not _entry_is_rational(entry):
                return FLOAT
    for gi, gen in enumerate(doc.get("generators", [])):
        if isinstance(gen, dict):
            for row in gen.get("matrix", []):
                for entry in row:
                    if not _entry_is_rational(entry):
                        return FLOAT
    return EXACT


@dataclass
class Scenario:
    """Parsed scenario: named rays, optional bases, generator projectors."""

    source: str
    dimension: int
    backend: str
    tol: float
    vector_set: VectorSet
    generators: list[Projector]
    labels: dict[str, Projector]


def _parse_matrix(grid, backend: str, tol: float, dim: int, field: str):
    if not isinstance(grid, list) or len(grid) != dim:
        raise ScenarioFormatError(f"{field}: expected {dim} rows")
    for ri, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioFormatError(f"{field}[{ri}]: expected {dim} entries")
    if backend == EXACT:
        rows = [
            [parse_entry_exact(e, f"{field}[{ri}][{ci}]") for ci, e in enumerate(row)]
            for ri, row in enumerate(grid)
        ]
        return ExactMatrix.from_entries(rows)
    rows = [
        [parse_entry_float(e, f"{field}[{ri}][{ci}]") for ci, e in enumerate(row)]
        for ri, row in enumerate(grid)
    ]
    return FloatMatrix.from_entries(rows, tol)


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    try:
        dim = int(doc["dimension"])
    except (KeyError, TypeError, ValueError):
        raise ScenarioFormatError("dimension: required positive integer") from None
    if dim <= 0:
        raise ScenarioFormatError("dimension: must be positive")
    backend = _infer_backend(doc)
    tol = DEFAULT_TOL
    if "tolerance" in doc and doc["tolerance"] is not None:
        tol = parse_real(doc["tolerance"], "tolerance")
        if tol <= 0:
            raise ScenarioFormatError("tolerance: must be positive")

    raw_vectors = doc.get("vectors", [])
    names: list[str] = []
    vectors: list[tuple] = []
    for vi, vec in enumerate(raw_vectors):
        if not isinstance(vec, dict) or "name" not in vec or "entries" not in vec:
            raise ScenarioFormatError(f"vectors[{vi}]: expected name and entries")
        name = str(vec["name"])
        entries = vec["entries"]
        if len(entries) != dim:
            raise ScenarioFormatError(f"vectors[{vi}].entries: expected {dim} entries")
        if backend == EXACT:
            parsed = tuple(
                parse_entry_exact(e, f"vectors[{vi}].entries[{ei}]")
                for ei, e in enumerate(entries)
            )
        else:
            parsed = tuple(
                parse_entry_float(e, f"vectors[{vi}].entries[{ei}]")
                for ei, e in enumerate(entries)
            )
        names.append(name)
        vectors.append(parsed)
    if len(set(names)) != len(names):
        raise ScenarioFormatError("vectors: names must be unique")

    bases = []
    index = {n: i for i, n in enumerate(names)}
    for bi, basis in enumerate(doc.get("bases", []) or []):
        try:
            idx = tuple(index[n] for n in basis)
        except KeyError as exc:
            raise ScenarioFormatError(f"bases[{bi}]: unknown vector {exc.args[0]!r}") from None
        bases.append(Basis(idx, complete=len(idx) == dim))
    vs = VectorSet(dim, names, vectors, bases, backend, tol)

    generators: list[Projector] = []
    raw_gens = doc.get("generators")
    if raw_gens is None:
        generators = vs.projectors()
    else:
        for gi, gen in enumerate(raw_gens):
            if isinstance(gen, str):
                generators.append(vs.projector(gen))
            elif isinstance(gen, dict) and "matrix" in gen:
                mat = _parse_matrix(gen["matrix"], backend, tol, dim, f"generators[{gi}].matrix")
                generators.append(Projector(mat))
            else:
                raise ScenarioFormatError(
                    f"generators[{gi}]: expected a vector name or a matrix object"
                )
    if not generators:
        raise ScenarioFormatError("generators: scenario defines no generators")
    labels = {name: vs.projector(name) for name in names}
    return Scenario(source, dim, backend, tol, vs, generators, labels)


def scenario_from_path(
    path: Path, backend: str | None = None, tolerance: float | None = None
) -> Scenario:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from None
    if backend is not None:
        doc = dict(doc, backend=backend)
    if tolerance is not None:
        doc = dict(doc, tolerance=tolerance)
    return scenario_from_dict(doc, source=str(path))


# -- states -----------------------------------------------------------------


@dataclass
class StateSpec:
    """Exactly one of a density matrix, a pure vector, or an atom-value map."""

    density: DensityMatrix | None = None
    atom_values: dict[str, object] | None = None


def state_from_dict(doc: dict, backend: str, tol: float, dim: int) -> StateSpec:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("state document must be a JSON object")
    kinds = [k for k in ("density", "vector", "atoms") if k in doc]
    if len(kinds) != 1:
        raise ScenarioFormatError(
            f"state: expected exactly one of density/vector/atoms, got {kinds}"
        )
    kind = kinds[0]
    if kind == "density":
        mat = _parse_matrix(doc["density"], backend, tol, dim, "density")
        return StateSpec(density=DensityMatrix(mat))
    if kind == "vector":
        entries = doc["vector"]
        if len(entries) != dim:
            raise ScenarioFormatError(f"vector: expected {dim} entries")
        if backend == EXACT:
            vec = [parse_entry_exact(e, f"vector[{i}]") for i, e in enumerate(entries)]
        else:
            vec = [parse_entry_float(e, f"vector[{i}]") for i, e in enumerate(entries)]
        return StateSpec(density=DensityMatrix.from_pure_vector(vec, backend, tol))
    atoms = doc["atoms"]
    if not isinstance(atoms, dict) or not atoms:
        raise ScenarioFormatError("atoms: expected a non-empty object of atom values")
    values: dict[str, object] = {}
    for name, raw in atoms.items():
        if backend == EXACT:
            v = parse_rational(raw, f"atoms.{name}")
            if v < 0 or v > 1:
                raise ScenarioFormatError(f"atoms.{name}: value {v} outside [0, 1]")
        else:
            v = parse_real(raw, f"atoms.{name}")
            if v < -tol or v > 1 + tol:
                raise ScenarioFormatError(f"atoms.{name}: value {v} outside [0, 1]")
        values[str(name)] = v
    return StateSpec(atom_values=values)


def state_from_path(path: Path, backend: str, tol: float, dim: int) -> StateSpec:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from None
    return state_from_dict(doc, backend, tol, dim)


# -- system export / import ----------------------------------------------------


def _fraction_str(f: Fraction) -> str:
    return str(f)


def _matrix_payload(mat) -> list[list[dict]]:
    d = mat.dim
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            if isinstance(mat, ExactMatrix):
                re_part, im_part = mat.entry(i, j)
                row.append({"re": _fraction_str(re_part), "im": _fraction_str(im_part)})
            else:
                z = mat.entry(i, j)
                row.append({"re": repr(z.real), "im": repr(z.imag)})
        rows.append(row)
    return rows


def system_to_payload(system: QuantumSystem) -> dict:
    atoms = []
    for idx in system.atom_indices():
        atoms.append({"label": system.atom_label(idx), "element": idx})
    graph = system.atom_graph()
    return {
        "format": "ctxcert-system",
        "version": 1,
        "dimension": system.dim,
        "backend": system.backend,
        "tolerance": repr(system.tol) if system.backend == FLOAT else None,
        "generators": [_matrix_payload(g.mat) for g in system.generators],
        "elements": [_matrix_payload(p.mat) for p in system.elements],
        "atoms": atoms,
        "atom_graph_edges": sorted([list(e) for e in graph.edges]),
    }


def system_from_payload(doc: dict) -> QuantumSystem:
    if doc.get("format") != "ctxcert-system":
        raise ScenarioFormatError("not a ctxcert system payload")
    dim = int(doc["dimension"])
    backend = doc["backend"]
    tol = parse_real(doc["tolerance"], "tolerance") if doc.get("tolerance") else DEFAULT_TOL
    elements = [
        Projector(_parse_matrix(grid, backend, tol, dim, f"elements[{k}]"))
        for k, grid in enumerate(doc["elements"])
    ]
    generators = [
        Projector(_parse_matrix(grid, backend, tol, dim, f"generators[{k}]"))
        for k, grid in enumerate(doc["generators"])
    ]
    labels = {}
    for item in doc.get("atoms", []):
        labels[str(item["label"])] = elements[int(item["element"])]
    return QuantumSystem(elements, generators, atom_labels=labels)


# -- session cache ---------------------------------------------------------------


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_path_for(scenario_path: Path) -> Path:
    return scenario_path.with_name(scenario_path.name + ".ctxcache")


def load_cached_system(
    scenario_path: Path, max_elements: int = DEFAULT_MAX_ELEMENTS
) -> QuantumSystem | None:
    """The cached system beside ``scenario_path``, or None if there is no
    valid cache.  A cached system larger than ``max_elements`` raises
    ``ClosureBudgetExceeded``, as building it would."""
    cache = cache_path_for(scenario_path)
    if not cache.exists():
        return None
    try:
        doc = json.loads(cache.read_text(encoding="utf-8"))
        if doc.get("sha256") != content_hash(scenario_path.read_bytes()):
            return None
        system = system_from_payload(doc["system"])
    except (ScenarioFormatError, KeyError, ValueError, OSError):
        return None
    if len(system) > max_elements:
        raise ClosureBudgetExceeded(max_elements)
    return system


def store_cached_system(scenario_path: Path, system: QuantumSystem) -> None:
    """Write the cache through a temporary file; a failed write is logged."""
    cache = cache_path_for(scenario_path)
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    doc = {
        "sha256": content_hash(scenario_path.read_bytes()),
        "system": system_to_payload(system),
    }
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(tmp, cache)
    except OSError as exc:
        log.warning("could not write cache %s: %s", cache, exc)
        with contextlib.suppress(OSError):
            tmp.unlink()
