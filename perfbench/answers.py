"""Known answers the benchmark checks on every operation.

Each entry names where the answer comes from.  The tool under test is never
the source: answers come from the literature, from a structural argument, or
from an independent integer computation in ``inputs.py``.
"""

from __future__ import annotations

import math

KCBS_THRESHOLD = (math.sqrt(5) - 2) / (math.sqrt(5) - 5 / 3)

KNOWN = {
    "ceg": {
        "zero_one": 0,
        "classification": "CONTEXTUAL",
        "empty_s01": True,
        "source": "Cabello, Estebaranz, Garcia-Alcaine, Phys. Lett. A 212, 183 (1996): "
        "a Kochen-Specker set, so no 0-1 state and CONTEXTUAL with empty_s01",
    },
    "ceg17": {
        "zero_one": 0,
        "classification": "CONTEXTUAL",
        "empty_s01": True,
        "source": "the removed ray (1,0,0,0) is the complement of the join of its kept "
        "basis-mates (0,1,0,0), (0,0,1,1), (0,0,1,-1), so the closure is CEG's (1996)",
    },
    "peres": {
        "zero_one": 0,
        "classification": "CONTEXTUAL",
        "empty_s01": True,
        "elements": 140,
        "source": "Peres, J. Phys. A 24, L175 (1991): a Kochen-Specker set; 140 elements "
        "from the integer Pluecker plane count in inputs.peres_lattice_size",
    },
    "ceg-lift": {
        "zero_one": 1,
        "classification": "CONTEXTUAL",
        "embeddable": False,
        "source": "lifting argument: CEG has no 0-1 state, so every 0-1 state of the "
        "lift sets the new axis ray to 1; one state cannot separate the new ray from 1, "
        "and I/5 gives that ray 1/5 < 1",
    },
    "ceg-float": {
        "zero_one": 0,
        "classification": "CONTEXTUAL",
        "empty_s01": True,
        "same_as": "ceg",
        "source": "CEG (1996) as for the exact file; element, atom and context counts must "
        "equal the exact CEG report of the same run",
    },
    "k-bases": {
        "source": "k bases sharing no commuting pair: the lattice is k Boolean blocks "
        "glued at 0 and 1 (6k+2 elements, 3k atoms, 3^k 0-1 states), it embeds, and the "
        "state space is the product of k simplices, so every state is NONCONTEXTUAL",
    },
    "kcbs": {
        "threshold": KCBS_THRESHOLD,
        "source": "Klyachko et al., PRL 101, 020403 (2008) and Araujo et al., PRA 88, "
        "022118 (2013): the pentagon sum <= 2 is the only nontrivial facet; the sum "
        "sqrt5(1-w) + 5w/3 crosses 2 at w* = (sqrt5-2)/(sqrt5-5/3)",
    },
    "yu-oh": {
        "verdict": "CONTEXTUAL",
        "source": "Yu and Oh, PRL 108, 030402 (2012): state-independent contextuality, "
        "so every state is CONTEXTUAL",
    },
}


def k_bases_counts(k: int) -> dict:
    return {"elements": 6 * k + 2, "atoms": 3 * k, "zero_one": 3**k}


def kcbs_verdict(w: float) -> str:
    return "CONTEXTUAL" if w < KCBS_THRESHOLD else "NONCONTEXTUAL"


def cli_report_mismatches(name: str, report: dict, exact_ceg: dict | None = None) -> list[str]:
    """Differences between a ``ctxcert analyze --format json`` report and the table."""
    known = KNOWN[name]
    seen = {
        "zero_one": report["zero_one"]["count"],
        "classification": report["classification"],
        "empty_s01": report["state_verdict"].get("empty_s01", False),
        "embeddable": report["scenario_verdict"]["embeddable"],
        "elements": report["system"]["elements"],
    }
    out = [f"{name}: {k} is {seen[k]!r}, expected {v!r}" for k, v in known.items() if k in seen and seen[k] != v]
    if known.get("same_as") and exact_ceg is not None:
        for key in ("elements", "atoms", "maximal_contexts"):
            if report["system"][key] != exact_ceg["system"][key]:
                out.append(f"{name}: {key} differs from the exact report")
    return out
