"""Exception hierarchy shared by all ctxcert modules."""

from __future__ import annotations


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
