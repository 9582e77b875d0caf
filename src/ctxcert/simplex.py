"""Two-phase primal simplex over exact rationals, on an integer tableau.

Verdicts downstream must be unconditional, so the arithmetic is exact: the
tableau is integer-preserving (fraction-free, Edmonds 1967 / Bareiss 1968).
It holds T = D * B^-1 [A | I | b] as Python ints with one common
denominator D = |det B|, plus the reduced-cost row scaled the same way, so
a pivot on (r, c) with p = T[r][c] is the exact integer update
(p*T[i][j] - T[i][c]*T[r][j]) // D, after which D becomes p.

Each constraint row is scaled once by the lcm of its denominators.  Its
artificial keeps the unit column and so stands for that multiple of the
unscaled artificial; giving it the reciprocal phase-1 cost makes this the
same LP with the same reduced-cost signs and ratios.  Bland's rule, first
improving column and then the smallest basic index among tied ratios,
therefore takes the pivots a rational tableau would.

An infeasible LP returns the phase-1 dual y of the unscaled rows, read from
the artificial columns of the final cost row.  Phase 1 is optimal, so every
reduced cost is nonnegative: y.A <= 0 entrywise, while y.b, the positive
phase-1 optimum, is > 0.  That is a Farkas certificate of infeasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    """``farkas`` is set on INFEASIBLE only: the phase-1 dual y, one entry per
    row, with y.A <= 0 < y.b.  ``analyze`` reads its separating inequalities
    from it."""

    status: str
    x: tuple[Fraction, ...] | None
    value: Fraction | None
    pivots: int  # phase 1, drive-out of artificials and phase 2 together
    farkas: tuple[Fraction, ...] | None = None


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    fracs = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in values]
    scale = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (scale // f.denominator) for f in fracs], scale


class _Tableau:
    """Constraint rows, then the reduced-cost row, over one denominator."""

    def __init__(self, rows: list[list[int]], basis: list[int]):
        self.rows = rows
        self.basis = basis
        self.den = 1
        self.pivots = 0

    def pivot(self, r: int, c: int) -> None:
        rows, den = self.rows, self.den
        p = rows[r][c]
        if p < 0:
            # Only drive-out pivots can be negative; negating the pivot row
            # keeps the denominator, and so every sign test, positive.
            p = -p
            rows[r] = [-w for w in rows[r]]
        prow = rows[r]
        for i, line in enumerate(rows):
            if i == r:
                continue
            f = line[c]
            if f:
                rows[i] = [(p * v - f * w) // den for v, w in zip(line, prow)]
            elif p != den:
                rows[i] = [p * v // den for v in line]
        self.den = p
        self.basis[r] = c
        self.pivots += 1

    def run(self, allowed: int) -> str:
        """Bland's rule over the first ``allowed`` columns until optimal or unbounded."""
        rows, basis = self.rows, self.basis
        m = len(basis)
        cost = rows[m]
        while True:
            # Basic columns have reduced cost 0, so the first negative entry
            # is the first improving nonbasic column.
            entering = next((j for j in range(allowed) if cost[j] < 0), -1)
            if entering < 0:
                return OPTIMAL
            leaving = -1
            for i in range(m):
                a = rows[i][entering]
                if a > 0:
                    if leaving < 0:
                        leaving, best_b, best_a = i, rows[i][-1], a
                        continue
                    # rows[i][-1] / a against best_b / best_a, both a > 0.
                    lhs, rhs = rows[i][-1] * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                        leaving, best_b, best_a = i, rows[i][-1], a
            if leaving < 0:
                return UNBOUNDED
            self.pivot(leaving, entering)
            cost = rows[m]


def solve_standard(
    a: Sequence[Sequence], b: Sequence, c: Sequence, maximize: bool = False
) -> LPResult:
    """Solve min (or max) c.x subject to a x = b, x >= 0."""
    m = len(a)
    n = len(c)
    obj = [Fraction(v) for v in c]
    if maximize:
        obj = [-v for v in obj]

    # Phase 1: rows with b >= 0 scaled to integers, artificial identity basis.
    rows: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        line, scale = _integer_row([*a[i], b[i]])
        if line[-1] < 0:
            line = [-v for v in line]
            scale = -scale  # row i is scales[i] times the unscaled row
        unit = [0] * m
        unit[i] = 1
        rows.append(line[:-1] + unit + line[-1:])
        scales.append(scale)
    # Artificial i is |scales[i]| times the unscaled one, so its cost is
    # 1/|scales[i]|; the row below is that cost times their lcm, reduced.
    common = lcm(*scales)
    weights = [common // abs(s) for s in scales]
    cost = [-sum(w * line[j] for w, line in zip(weights, rows)) for j in range(n)]
    cost += [0] * m + [-sum(w * line[-1] for w, line in zip(weights, rows))]
    rows.append(cost)
    tab = _Tableau(rows, [n + i for i in range(m)])
    status = tab.run(n + m)
    assert status == OPTIMAL, "phase 1 cannot be unbounded"
    basis = tab.basis
    if any(basis[i] >= n and rows[i][-1] for i in range(m)):
        # At artificial i the cost row holds D * (w_i - pi_i), pi the dual of
        # the integer rows under the costs w, which are common times the unit
        # costs.  Row i is scales[i] times the unscaled row, so the dual of
        # the unscaled rows is y_i = scales[i] * pi_i / common.
        den = tab.den * common
        ray = tuple(
            Fraction(s * (w * tab.den - t), den)
            for s, w, t in zip(scales, weights, rows[m][n : n + m])
        )
        return LPResult(INFEASIBLE, None, None, tab.pivots, ray)

    # Drive leftover zero-level artificials out of the basis; a row with no
    # structural column available is redundant and gets dropped.
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if rows[i][j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                tab.pivot(i, col)
    for i in reversed(drop):
        del rows[i]
        del basis[i]

    # Phase 2: original objective, artificial columns disabled.  The cost row
    # is D times the reduced costs of the integer-scaled objective.
    weight, _ = _integer_row(obj)
    cost = [w * tab.den for w in weight] + [0] * (m + 1)
    for line, col in zip(rows, basis):
        w = weight[col] if col < n else 0
        if w:
            cost = [v - w * t for v, t in zip(cost, line)]
    rows[-1] = cost
    status = tab.run(n)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, None, tab.pivots)
    x = [Fraction(0)] * n
    for line, col in zip(rows, basis):
        if col < n:
            x[col] = Fraction(line[-1], tab.den)
    value = sum(o * v for o, v in zip(obj, x))
    if maximize:
        value = -value
    return LPResult(OPTIMAL, tuple(x), value, tab.pivots)
