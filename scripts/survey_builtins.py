#!/usr/bin/env python3
"""Classify every builtin scenario and print the resulting landscape.

For each scenario the table shows the closure size, the number of
deterministic states, Boolean embeddability, and (where the scenario ships a
natural state) the state verdict and final label.
"""

from __future__ import annotations

import time

from ctxcert.analyze import classify_experiment, scenario_classical, zero_one_states
from ctxcert.catalog import BUILTINS, kcbs_state
from ctxcert.graphs import PBAState


def natural_state(name, system):
    """The state each scenario is usually paired with, if any."""
    if name == "kcbs":
        return system.state_from_density(kcbs_state())
    if name == "ceg-lift":
        s01 = zero_one_states(system)
        return s01[0].as_state()
    return None


def main() -> None:
    rows = []
    for name, builtin in BUILTINS.items():
        t0 = time.perf_counter()
        system = builtin.system(100_000)
        s01 = zero_one_states(system)
        embedding = scenario_classical(system, s01)
        state = natural_state(name, system)
        if state is not None:
            label = classify_experiment(system, state, s01).label
        else:
            label = "(no state shipped)"
        rows.append(
            (
                name,
                len(system),
                len(system.atom_indices()),
                len(s01),
                "yes" if embedding.embeddable else "no",
                label,
                time.perf_counter() - t0,
            )
        )

    header = f"{'scenario':10} {'elems':>6} {'atoms':>6} {'s01':>5} {'embeds':>7}  {'label':28} {'secs':>6}"
    print(header)
    print("-" * len(header))
    for name, elems, atoms, s01, emb, label, secs in rows:
        print(f"{name:10} {elems:>6} {atoms:>6} {s01:>5} {emb:>7}  {label:28} {secs:>6.1f}")


if __name__ == "__main__":
    main()
