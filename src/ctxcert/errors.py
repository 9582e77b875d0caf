"""Exception hierarchy, value-record base and log helpers shared by all
ctxcert modules."""

from __future__ import annotations

import sys

# A record's ``__init__`` sets each field through this, since the record's
# own ``__setattr__`` refuses.
set_field = object.__setattr__


class Record:
    """Base of the immutable value records.  A subclass names its fields in
    ``__slots__``, in order, and sets them in its own ``__init__`` through
    ``set_field``.  A record prints as ``Name(field=value!r, ...)``,
    compares and hashes by the tuple of its fields, is equal only to a record
    of its own class, and refuses assignment."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # ``copy`` and ``pickle`` rebuild a record through its constructor,
        # since restoring slots one by one would meet ``__setattr__``.
        return type(self), self._fields()


# -- log records: ``logging`` loads with the first record that can be shown ---

INFO, WARNING = 20, 30  # the levels of ``logging``
_held: list[dict] = []  # a ``basicConfig`` held while ``logging`` is not loaded


def basic_config(**kwargs) -> None:
    """``logging.basicConfig(**kwargs)``.  While ``logging`` is not loaded, a
    config at WARNING or above is held, and applied before the first record
    that ``log`` passes on: the root logger's level is WARNING either way,
    and only the first config could have set its handler."""
    if "logging" in sys.modules or kwargs.get("level", WARNING) < WARNING:
        _logging().basicConfig(**kwargs)
    elif not _held:
        _held.append(kwargs)


def log(name: str, level: int, msg: str, *args) -> None:
    """``logging.getLogger(name).log(level, msg, *args)``, attributed to the
    caller.  While ``logging`` is not loaded, no handler and no level but
    the root's WARNING is set, so a record below WARNING would be dropped:
    it is dropped here, and ``logging`` stays unloaded."""
    if level < WARNING and "logging" not in sys.modules:
        return
    _logging().getLogger(name).log(level, msg, *args, stacklevel=2)


def _logging():
    """The ``logging`` module, once the held config is applied."""
    import logging

    while _held:
        logging.basicConfig(**_held.pop())
    return logging


class CtxcertError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(CtxcertError):
    pass


class BackendMismatch(CtxcertError):
    pass


class ZeroVector(CtxcertError):
    pass


class NotAProjector(CtxcertError):
    pass


class NotADensityMatrix(CtxcertError):
    pass


class Incompatible(CtxcertError):
    """Meet/join requested for a non-commuting pair; the operation is partial."""


class OutOfRange(CtxcertError):
    pass


class MissingVertex(CtxcertError):
    pass


class SearchBudgetExceeded(CtxcertError):
    """A backtracking search hit its node cap before finishing."""

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"search explored {nodes} nodes, budget {budget}")
        self.nodes = nodes
        self.budget = budget


class ClosureBudgetExceeded(CtxcertError):
    """Algebraic closure grew past the configured element cap."""

    def __init__(self, cap: int):
        super().__init__(f"closure exceeded {cap} elements")
        self.cap = cap


class InconsistentGluing(CtxcertError):
    pass


class NotAPBA(CtxcertError):
    pass


class UnknownElement(CtxcertError):
    pass


class NotAnElement(CtxcertError):
    pass


class NoDecomposition(CtxcertError):
    pass


class NotAGraphState(CtxcertError):
    pass


class MissingAtom(CtxcertError):
    pass


class CoverNotFound(CtxcertError):
    pass


class OrthogonalityCheckFailed(CtxcertError):
    pass


class DegenerateCoefficients(CtxcertError):
    pass


class IncompleteListing(CtxcertError):
    """A 0-1 listing given for a graph of several components lacks states."""


class CertificateError(CtxcertError):
    """A certificate failed its own re-verification; indicates an internal bug."""


class ScenarioFormatError(CtxcertError):
    """A scenario or state file failed to parse; message names the field."""
