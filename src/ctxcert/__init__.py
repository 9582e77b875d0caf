"""ctxcert: logic-algebraic certification of contextuality and nonclassicality.

Finite measurement scenarios are modeled as closed families of projectors (or
abstract pasted Boolean contexts), reduced to their atom graphs, and judged by
exact certificates: convex weights over deterministic states, or an integer
separating inequality.

``PastedPBA``, ``PastedState`` and ``build_pasted_pba`` load ``ctxcert.pasted``
on first use, so a process that judges only quantum scenarios never loads it.
Likewise ``rationalize_state`` loads ``ctxcert.certify`` (the certificate LP)
and ``graphs_isomorphic`` loads ``ctxcert.isomorphism``.
"""

from .analyze import (
    Classification,
    EmbeddingReport,
    NCCertificate,
    SeparatingInequality,
    classify_experiment,
    is_noncontextual,
    kcbs_value,
    scenario_classical,
    zero_one_states,
)
from .graphs import (
    ExclusivityGraph,
    PBAState,
    ZeroOneState,
    enumerate_zero_one_states,
    is_state,
)
from .linalg import (
    EXACT,
    FLOAT,
    DensityMatrix,
    Projector,
    commutes,
    complement,
    join,
    meet,
    projector_from_vector,
    quantum_state_eval,
)
from .systems import (
    QuantumSystem,
    SystemState,
    exclusive_q,
    generate_system,
    leq_q,
    systems_equal,
)
from .vectorsets import Basis, VectorSet, ks_assignment_search, lift_ks_set

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "Classification",
    "DensityMatrix",
    "EmbeddingReport",
    "EXACT",
    "ExclusivityGraph",
    "FLOAT",
    "NCCertificate",
    "PBAState",
    "PastedPBA",
    "PastedState",
    "Projector",
    "QuantumSystem",
    "SeparatingInequality",
    "SystemState",
    "VectorSet",
    "ZeroOneState",
    "build_pasted_pba",
    "classify_experiment",
    "commutes",
    "complement",
    "enumerate_zero_one_states",
    "exclusive_q",
    "generate_system",
    "graphs_isomorphic",
    "is_noncontextual",
    "is_state",
    "join",
    "kcbs_value",
    "ks_assignment_search",
    "leq_q",
    "lift_ks_set",
    "meet",
    "projector_from_vector",
    "quantum_state_eval",
    "rationalize_state",
    "scenario_classical",
    "systems_equal",
    "zero_one_states",
    "__version__",
]


# Public names whose module is loaded on first use: name -> module.
_LAZY = {
    "PastedPBA": "pasted",
    "PastedState": "pasted",
    "build_pasted_pba": "pasted",
    "graphs_isomorphic": "isomorphism",
    "rationalize_state": "certify",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)
