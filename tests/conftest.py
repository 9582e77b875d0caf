"""Shared fixtures; the expensive closures are built once per session."""

from __future__ import annotations

import pytest

from ctxcert.analyze import zero_one_states
from ctxcert.catalog import BUILTINS, kcbs_state, kcbs_system


@pytest.fixture(scope="session")
def q_ceg():
    return BUILTINS["ceg"].system()


@pytest.fixture(scope="session")
def q_ceg_prime():
    return BUILTINS["ceg17"].system()


@pytest.fixture(scope="session")
def q_twelve():
    return BUILTINS["ceg-gen12"].system()


@pytest.fixture(scope="session")
def q_lift():
    return BUILTINS["ceg-lift"].system()


@pytest.fixture(scope="session")
def q_kcbs():
    return kcbs_system()


@pytest.fixture(scope="session")
def kcbs_s01(q_kcbs):
    return zero_one_states(q_kcbs)


@pytest.fixture(scope="session")
def kcbs_quantum_state(q_kcbs):
    return q_kcbs.state_from_density(kcbs_state())
