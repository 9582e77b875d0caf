"""Test-side readings of certificates: an inequality as a vector and its
value at a point, a clique reduction solved from its free atoms, rational
targets and rays in the integer form that the membership LP and
``_primitive_inequality`` take, and each component's 0-1 listing as states."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from ctxcert.graphs import DEFAULT_SEARCH_BUDGET, ZeroOneState, component_listings


def coefficient_vector(ineq) -> tuple[int, ...]:
    """The coefficients of ``ineq`` in its atom order, 0 where it has none."""
    return tuple(ineq.coeffs.get(v, 0) for v in ineq.atom_order)


def evaluate(ineq, values):
    """The left-hand side of ``ineq`` at the atom values ``values``."""
    return sum(c * values[v] for v, c in ineq.coeffs.items() if c != 0)


def solve_pivots(red, free_values):
    """The values of every atom of the reduction ``red``, given those of its
    free atoms: each row reads value(pivot) = const - sum coeff * value(free)."""
    out = dict(free_values)
    for pivot, coeffs, const in red.rows:
        out[pivot] = const - sum(c * out[v] for v, c in coeffs)
    return out


def integer_target(values):
    """Rational atom values as integer numerators t over their lcm Q."""
    q = lcm(*(Fraction(x).denominator for x in values.values()))
    return {v: int(Fraction(x) * q) for v, x in values.items()}, q


def component_zero_one_states(graph, budget=DEFAULT_SEARCH_BUDGET):
    """The sorted 0-1 listing of each of ``graph.components`` as states on
    the component's own graph, read from ``component_listings``."""
    listings = component_listings(graph, budget)[0]
    return tuple(
        [ZeroOneState(part, mask) for mask in masks] for part, masks in zip(graph.components, listings)
    )


def integer_ray(y):
    """A rational ray scaled to integers by the lcm of its denominators; the
    primitive inequality of a ray does not depend on a positive scale."""
    scale = lcm(*(Fraction(x).denominator for x in y.values()))
    return {v: int(Fraction(x) * scale) for v, x in y.items()}
