"""Scenario/state file parsing, system export-import, and the session cache.

All numbers travel as strings: exact entries as integers or "p/q" fractions,
float entries as decimal literals (repr round-trips bit-exactly).  Parse errors
name the offending field, and a malformed document raises
``ScenarioFormatError``, never a bare Python exception.

Exact entries take an integer path: an ASCII literal ``[+-]digits(/digits)?``
is read as a (numerator, denominator) pair (``parse_ratio``), and a matrix is
built as integer numerators over the lcm of its denominators.  Any other
literal goes through ``parse_rational`` (``Fraction``), so the accepted
inputs, values and messages are those of ``Fraction`` alone.

The cache beside a scenario file holds the sha256 of the bytes the scenario
was parsed from (``Scenario.sha256``) and the closed system
(``system_to_payload``, format version 2): its elements, dimension, backend
and tolerance.  A run reads the scenario file once; the cache is checked and
written against that digest.  The cache holds no atom names: those come from
the scenario on every run, cold or warm.  ``load_cached_system`` treats every
cache it cannot trust as a miss (logged at INFO): another digest, unreadable
or invalid JSON, another format version, a payload that fails to parse or
validate, or a backend, dimension or tolerance other than the parsed
scenario's.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
from collections.abc import Iterable, Sized
from fractions import Fraction
from pathlib import Path

from .errors import (
    INFO,
    WARNING,
    ClosureBudgetExceeded,
    CtxcertError,
    Record,
    ScenarioFormatError,
    log,
    set_field,
)
from .linalg import (
    DEFAULT_TOL,
    EXACT,
    FLOAT,
    DensityMatrix,
    ExactMatrix,
    FloatMatrix,
    Projector,
    common_denominator,
)
from .systems import DEFAULT_MAX_ELEMENTS, QuantumSystem
from .vectorsets import Basis, VectorSet


def parse_rational(value, field: str) -> Fraction:
    try:
        if isinstance(value, (int, str)):
            return Fraction(str(value).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ScenarioFormatError(f"{field}: bad rational {value!r} ({exc})") from None
    raise ScenarioFormatError(f"{field}: expected a rational string, got {value!r}")


@functools.lru_cache(maxsize=4096)
def _ratio_literal(text: str) -> tuple[int, int] | None:
    """(num, den) of ``[+-]digits(/digits)?`` with den > 0, where a digit is
    any decimal digit (``str.isdecimal``) and surrounding whitespace is
    allowed; None for anything else.  This one grammar decides both the
    inferred backend and the exact parse.  Memoised: a payload repeats a few
    literals many times."""
    num, slash, den = text.strip().partition("/")
    digits = num[1:] if num[:1] in ("+", "-") else num
    if not digits.isdecimal() or (slash and not den.isdecimal()):
        return None
    try:
        n, d = int(num), int(den or "1")
    except ValueError:  # past the interpreter's int-string digit limit
        return None
    return (n, d) if d else None


def _is_rational_literal(value) -> bool:
    return isinstance(value, int) or (isinstance(value, str) and _ratio_literal(value) is not None)


def parse_ratio(value, field: str) -> tuple[int, int]:
    """``parse_rational`` as a (numerator, positive denominator) pair, not
    necessarily in lowest terms.  Literals of ``_ratio_literal``'s grammar
    are read without ``Fraction``; everything else goes through
    ``parse_rational``, so the accepted inputs, values and error messages
    are the same."""
    pair = _ratio_literal(value) if type(value) is str else None
    if pair is None:
        f = parse_rational(value, field)
        pair = f.numerator, f.denominator
    return pair


def parse_real(value, field: str) -> float:
    """A JSON number or numeric string as a float.  A ratio ``n/d`` of
    ``_ratio_literal``'s grammar is read as n / d, which int true division
    rounds correctly, so "1/3" gives the float nearest 1/3; every other
    value goes through ``float``, as without the slash form."""
    if isinstance(value, bool):  # float(True) would read it as 1.0
        raise ScenarioFormatError(f"{field}: bad number {value!r}")
    pair = _ratio_literal(value) if type(value) is str and "/" in value else None
    try:
        return pair[0] / pair[1] if pair else float(value)
    except (TypeError, ValueError, OverflowError) as exc:
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


def _parse_entry_ratios(entry, field: str) -> tuple[int, int, int, int]:
    """(re num, re den, im num, im den) of an exact entry of a document."""
    re_part, im_part = _entry_parts(entry, field)
    return (*parse_ratio(re_part, field + ".re"), *parse_ratio(im_part, field + ".im"))


def parse_entry_float(entry, field: str) -> complex:
    re_part, im_part = _entry_parts(entry, field)
    z = complex(parse_real(re_part, field + ".re"), parse_real(im_part, field + ".im"))
    if not cmath.isfinite(z):
        raise ScenarioFormatError(f"{field}: must be finite, got {entry!r}")
    return z


def _listed(value, field: str, what: str):
    """``value`` if it reads as a list; a string or an object, whose
    iteration would give its characters or keys, raises naming ``field``."""
    if isinstance(value, (str, dict)) or not isinstance(value, Iterable):
        raise ScenarioFormatError(f"{field}: expected a list of {what}, got {type(value).__name__}")
    return value


def _vector(raw, field: str, backend: str, dim: int) -> tuple:
    """The ``dim`` entries of the vector ``raw`` of a document; ``field``
    names entry k as ``field[k]``.  A float entry is a complex number; an
    exact one is an (re, im) pair, each an int, or a ``Fraction`` where its
    denominator is not 1.

    The rays keep these values (``VectorSet.vectors``), so a fractional entry
    still passes through one ``Fraction`` on its way to the Gaussian-integer
    ray (``linalg.gaussian_integer_vector``)."""
    entries = _listed(raw, field, f"{dim} entries")
    if not isinstance(entries, Sized) or len(entries) != dim:
        raise ScenarioFormatError(f"{field}: expected {dim} entries")
    if backend != EXACT:
        return tuple(parse_entry_float(e, f"{field}[{k}]") for k, e in enumerate(entries))
    out = []
    for k, e in enumerate(entries):
        re_n, re_d, im_n, im_d = _parse_entry_ratios(e, f"{field}[{k}]")
        re = re_n if re_d == 1 else Fraction(re_n, re_d)
        im = im_n if im_d == 1 else Fraction(im_n, im_d)
        out.append((re, im))
    return tuple(out)


def _infer_backend(doc: dict) -> str:
    declared = doc.get("backend")
    if declared is not None:
        if declared not in (EXACT, FLOAT):
            raise ScenarioFormatError(f"backend: expected 'exact' or 'float', got {declared!r}")
        return declared
    try:
        for vec in doc.get("vectors", []):
            for entry in vec.get("entries", []):
                if not _entry_is_rational(entry):
                    return FLOAT
        for gen in doc.get("generators", []):
            if isinstance(gen, dict):
                for row in gen.get("matrix", []):
                    for entry in row:
                        if not _entry_is_rational(entry):
                            return FLOAT
    except (AttributeError, TypeError):
        pass  # a malformed document: the parse that follows names the field
    return EXACT


class Scenario(Record):
    """A measurement scenario: named rays with optional bases, the generator
    projectors, and the atom names.  Dimension, backend and tolerance are
    those of ``vector_set``.  ``sha256`` is the digest of the file bytes the
    scenario was parsed from, the key of its cache; None when it was not
    parsed from a file."""

    __slots__ = ("source", "vector_set", "generators", "labels", "sha256")

    def __init__(
        self,
        source: str,
        vector_set: VectorSet,
        generators: list[Projector],
        labels: dict[str, Projector],
        sha256: str | None = None,
    ):
        set_field(self, "source", source)
        set_field(self, "vector_set", vector_set)
        set_field(self, "generators", generators)
        set_field(self, "labels", labels)
        set_field(self, "sha256", sha256)


def _parse_matrix(grid, backend: str, tol: float, dim: int, field: str):
    if not isinstance(grid, list) or len(grid) != dim:
        raise ScenarioFormatError(f"{field}: expected {dim} rows")
    for ri, row in enumerate(grid):
        if not isinstance(row, list) or len(row) != dim:
            raise ScenarioFormatError(f"{field}[{ri}]: expected {dim} entries")
    if backend == EXACT:
        parts = [
            _parse_entry_ratios(e, f"{field}[{ri}][{ci}]")
            for ri, row in enumerate(grid)
            for ci, e in enumerate(row)
        ]
        return ExactMatrix(dim, *common_denominator(parts))
    rows = [
        [parse_entry_float(e, f"{field}[{ri}][{ci}]") for ci, e in enumerate(row)]
        for ri, row in enumerate(grid)
    ]
    return FloatMatrix.from_entries(rows, tol)


def scenario_from_dict(doc: dict, source: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("scenario document must be a JSON object")
    raw_dim = doc.get("dimension")
    try:
        dim = int(raw_dim)
        if isinstance(raw_dim, bool) or (isinstance(raw_dim, float) and dim != raw_dim):
            raise ValueError(raw_dim)  # true, or a fractional part that int() drops
    except (TypeError, ValueError, OverflowError):
        raise ScenarioFormatError("dimension: required positive integer") from None
    if dim <= 0:
        raise ScenarioFormatError("dimension: must be positive")
    backend = _infer_backend(doc)
    tol = DEFAULT_TOL
    if "tolerance" in doc and doc["tolerance"] is not None:
        tol = parse_real(doc["tolerance"], "tolerance")
        if not math.isfinite(tol):
            raise ScenarioFormatError(f"tolerance: must be finite, got {tol!r}")
        if tol <= 0:
            raise ScenarioFormatError("tolerance: must be positive")
        if tol < sys.float_info.min:  # a subnormal tol overflows the grid key
            raise ScenarioFormatError(f"tolerance: must be at least {sys.float_info.min!r}, got {tol!r}")

    raw_vectors = doc.get("vectors", [])
    if not isinstance(raw_vectors, Iterable):
        raise ScenarioFormatError("vectors: expected a list of vector objects")
    names: list[str] = []
    vectors: list[tuple] = []
    for vi, vec in enumerate(raw_vectors):
        if not isinstance(vec, dict) or "name" not in vec or "entries" not in vec:
            raise ScenarioFormatError(f"vectors[{vi}]: expected name and entries")
        name = str(vec["name"])
        parsed = _vector(vec["entries"], f"vectors[{vi}].entries", backend, dim)
        if all(e in (0, (0, 0)) for e in parsed):  # (re, im) pairs when exact
            raise ScenarioFormatError(f"vectors[{vi}].entries: the zero vector spans no ray")
        names.append(name)
        vectors.append(parsed)
    if len(set(names)) != len(names):
        raise ScenarioFormatError("vectors: names must be unique")

    bases = []
    index = {n: i for i, n in enumerate(names)}
    raw_bases = _listed(doc.get("bases", []) or [], "bases", "vector-name lists")
    for bi, basis in enumerate(raw_bases):
        try:
            idx = tuple(index[n] for n in _listed(basis, f"bases[{bi}]", "vector names"))
        except KeyError as exc:
            raise ScenarioFormatError(f"bases[{bi}]: unknown vector {exc.args[0]!r}") from None
        except TypeError:
            raise ScenarioFormatError(f"bases[{bi}]: expected a list of vector names") from None
        bases.append(Basis(idx, complete=len(idx) == dim))
    vs = VectorSet(dim, names, vectors, bases, backend, tol)

    ray_projector = functools.cache(vs.projector)  # generators and labels share them
    raw_gens = doc.get("generators")
    if raw_gens is None:
        raw_gens = names  # every ray is a generator
    generators: list[Projector] = []
    for gi, gen in enumerate(_listed(raw_gens, "generators", "generators")):
        if isinstance(gen, str):
            if gen not in index:
                raise ScenarioFormatError(f"generators[{gi}]: unknown vector {gen!r}")
            generators.append(ray_projector(gen))
        elif isinstance(gen, dict) and "matrix" in gen:
            mat = _parse_matrix(gen["matrix"], backend, tol, dim, f"generators[{gi}].matrix")
            generators.append(Projector(mat))
        else:
            raise ScenarioFormatError(
                f"generators[{gi}]: expected a vector name or a matrix object"
            )
    if not generators:
        raise ScenarioFormatError("generators: scenario defines no generators")
    labels = {name: ray_projector(name) for name in names}
    return Scenario(source, vs, generators, labels)


def _read_json(path: Path) -> tuple[object, bytes]:
    """The JSON document in ``path`` and the bytes it was parsed from."""
    try:
        data = path.read_bytes()
        return json.loads(data.decode("utf-8")), data
    except OSError as exc:
        raise ScenarioFormatError(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:
        # bad JSON, bad UTF-8, an int past the digit limit, or nesting too deep
        raise ScenarioFormatError(f"{path}: invalid JSON ({exc})") from None


def scenario_from_path(
    path: Path, backend: str | None = None, tolerance: float | None = None
) -> Scenario:
    """The scenario in ``path``, keyed by the sha256 of the bytes parsed."""
    doc, data = _read_json(path)
    if isinstance(doc, dict) and backend is not None:
        doc = dict(doc, backend=backend)
    if isinstance(doc, dict) and tolerance is not None:
        doc = dict(doc, tolerance=tolerance)
    s = scenario_from_dict(doc, source=str(path))
    return Scenario(s.source, s.vector_set, s.generators, s.labels, content_hash(data))


# -- states -----------------------------------------------------------------


class StateSpec(Record):
    """Exactly one of a density matrix, a pure vector, or an atom-value map."""

    __slots__ = ("density", "atom_values")

    def __init__(
        self,
        density: DensityMatrix | None = None,
        atom_values: dict[str, object] | None = None,
    ):
        set_field(self, "density", density)
        set_field(self, "atom_values", atom_values)


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
        vec = _vector(doc["vector"], "vector", backend, dim)
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
            if not -tol <= v <= 1 + tol:  # NaN fails too
                raise ScenarioFormatError(f"atoms.{name}: value {v} outside [0, 1]")
        values[str(name)] = v
    return StateSpec(atom_values=values)


def state_from_path(path: Path, backend: str, tol: float, dim: int) -> StateSpec:
    return state_from_dict(_read_json(path)[0], backend, tol, dim)


# -- system export / import ----------------------------------------------------


def _ratio_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for den > 0, without the Fraction."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _matrix_payload(mat) -> list[list[dict]]:
    d = mat.dim
    if isinstance(mat, ExactMatrix):
        den, im = mat.den, mat.im or (0,) * (d * d)
        cells = [{"re": _ratio_str(x, den), "im": _ratio_str(y, den)} for x, y in zip(mat.re, im)]
    else:
        cells = [{"re": repr(z.real), "im": repr(z.imag)} for z in mat.entries]
    return [cells[i * d : i * d + d] for i in range(d)]


def system_to_payload(system: QuantumSystem) -> dict:
    """The closed system as a JSON document: its elements in the system's
    order, with the dimension, backend and float tolerance.  Atom names are
    not stored; they come from the scenario (``QuantumSystem.with_atom_labels``)."""
    return {
        "format": "ctxcert-system",
        "version": 2,
        "dimension": system.dim,
        "backend": system.backend,
        "tolerance": repr(system.tol) if system.backend == FLOAT else None,
        "elements": [_matrix_payload(p.mat) for p in system.elements],
    }


def system_from_payload(doc: dict) -> QuantumSystem:
    """The unnamed system of a ``system_to_payload`` document.

    Every element is validated as a projector.  Constructing the system
    checks that each element is an orthogonal sum of atoms, that no element
    repeats and that the set is closed under complement; then the elements
    must be listed in the system's order.  A payload that breaks any of
    these, or another format version, raises a ``CtxcertError``.
    """
    if not isinstance(doc, dict) or doc.get("format") != "ctxcert-system":
        raise ScenarioFormatError("not a ctxcert system payload")
    if doc.get("version") != 2:
        raise ScenarioFormatError(f"version: expected 2, got {doc.get('version')!r}")
    dim = doc.get("dimension")
    if type(dim) is not int or dim <= 0:
        raise ScenarioFormatError("dimension: required positive integer")
    backend = doc.get("backend")
    if backend not in (EXACT, FLOAT):
        raise ScenarioFormatError(f"backend: expected 'exact' or 'float', got {backend!r}")
    tol = parse_real(doc["tolerance"], "tolerance") if doc.get("tolerance") else DEFAULT_TOL
    grids = doc.get("elements", [])
    if not isinstance(grids, list):
        raise ScenarioFormatError("elements: expected a list")
    elements = [
        Projector(_parse_matrix(grid, backend, tol, dim, f"elements[{k}]"))
        for k, grid in enumerate(grids)
    ]
    system = QuantumSystem(elements)
    for k, p in enumerate(elements):
        if system.elements[k] is not p:
            raise ScenarioFormatError(f"elements[{k}]: out of the system's order")
    return system


# -- session cache ---------------------------------------------------------------


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cache_path_for(scenario_path: Path) -> Path:
    return scenario_path.with_name(scenario_path.name + ".ctxcache")


def load_cached_system(
    scenario_path: Path,
    scenario: Scenario,
    max_elements: int = DEFAULT_MAX_ELEMENTS,
) -> QuantumSystem | None:
    """The cached system of the ``scenario`` parsed from ``scenario_path``,
    or None on a miss.

    A miss is no cache file, a cache that cannot be read or is not JSON, a
    digest other than ``scenario.sha256``, a payload that does not parse or
    validate (``system_from_payload``), or a backend, dimension or float
    tolerance other than the scenario's.  Each miss but the first is logged
    at INFO with its reason.  A cached system larger than ``max_elements``
    raises ``ClosureBudgetExceeded``, as building it would.
    """
    cache = cache_path_for(scenario_path)
    if not cache.exists():
        return None
    try:
        doc = _read_json(cache)[0]
        if not isinstance(doc, dict):
            raise ScenarioFormatError("not a JSON object")
        if doc.get("sha256") != scenario.sha256:
            raise ScenarioFormatError("the scenario file has changed")
        system = system_from_payload(doc.get("system"))
        _check_cache_matches(system, scenario)
    except (CtxcertError, ValueError, OSError) as exc:
        log(__name__, INFO, "ignoring cache %s: %s", cache, exc)
        return None
    if len(system) > max_elements:
        raise ClosureBudgetExceeded(max_elements)
    return system


def _check_cache_matches(system: QuantumSystem, scenario: Scenario) -> None:
    vs = scenario.vector_set
    if system.backend != vs.backend:
        raise ScenarioFormatError(f"backend {system.backend}, scenario {vs.backend}")
    if system.dim != vs.dim:
        raise ScenarioFormatError(f"dimension {system.dim}, scenario {vs.dim}")
    if system.backend == FLOAT and system.tol != vs.tol:
        raise ScenarioFormatError(f"tolerance {system.tol!r}, scenario {vs.tol!r}")


def store_cached_system(scenario_path: Path, scenario: Scenario, system: QuantumSystem) -> None:
    """Write the cache of the ``scenario`` parsed from ``scenario_path``,
    keyed on ``scenario.sha256``, through a temporary file; the scenario
    file is not read again.  A failed write is logged."""
    cache = cache_path_for(scenario_path)
    tmp = cache.with_name(f"{cache.name}.{os.getpid()}.tmp")
    doc = {"sha256": scenario.sha256, "system": system_to_payload(system)}
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        os.replace(tmp, cache)
    except OSError as exc:
        log(__name__, WARNING, "could not write cache %s: %s", cache, exc)
        with contextlib.suppress(OSError):
            tmp.unlink()
