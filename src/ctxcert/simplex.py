"""Is there x >= 0 with a x = b?  Phase 1 of the primal simplex answers it
over exact rationals, on an integer tableau: at 0 with a basic solution read
off the final basis (an artificial still basic sits at level 0), or above 0
with a Farkas ray.

Verdicts downstream must be unconditional, so the arithmetic is exact: the
tableau is integer-preserving (fraction-free, Edmonds 1967 / Bareiss 1968).
It holds T = D * B^-1 [A | I | b] as Python ints with one common
denominator D = |det B|, plus the reduced-cost row scaled the same way, so
a pivot on (r, c) with p = T[r][c] is the exact integer update
(p*T[i][j] - T[i][c]*T[r][j]) // D, after which D becomes p.

Each constraint row is scaled once by the lcm of the denominators of its
coefficients, not of its right-hand side, and the whole right-hand side by
one common lcm L of its own denominators.  A row's artificial keeps the
unit column and so stands for that multiple of the unscaled artificial;
giving it the reciprocal phase-1 cost makes this the same LP with the same
reduced-cost signs.  Scaling b by L scales every basic level, and so every
ratio of the ratio test, by L alike: the LP is the one in L*x.  Bland's
rule, first improving column and then the smallest basic index among tied
ratios, therefore takes the pivots a rational tableau would, x is the final
rhs over D*L, and the ray, read from the artificial block of the cost row,
does not see L at all.  On 0-1 rows with a rationalized float right-hand
side the coefficients keep the factor 1, so D stays the size of a 0-1
determinant; only the rhs column carries the large denominator.

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


@dataclass(frozen=True)
class LPResult:
    """``x`` is set on OPTIMAL only, ``farkas`` on INFEASIBLE only: the
    phase-1 dual y, one entry per row, with y.A <= 0 < y.b.  ``analyze``
    reads its separating inequalities from it."""

    status: str
    x: tuple[Fraction, ...] | None
    pivots: int  # phase 1
    farkas: tuple[Fraction, ...] | None = None


def _integer_row(values: Sequence) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm."""
    if set(map(type, values)) <= {int}:  # the membership LP's 0-1 rows
        return list(values), 1
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

    def run(self) -> None:
        """Bland's rule until optimal; the objective must be bounded below."""
        rows, basis = self.rows, self.basis
        m = len(basis)
        width = len(rows[m]) - 1
        cost = rows[m]
        while True:
            # Basic columns have reduced cost 0, so the first negative entry
            # is the first improving nonbasic column.
            entering = next((j for j in range(width) if cost[j] < 0), -1)
            if entering < 0:
                return
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
            assert leaving >= 0, "the objective is unbounded below"
            self.pivot(leaving, entering)
            cost = rows[m]


def feasible_point(a: Sequence[Sequence], b: Sequence) -> LPResult:
    """A nonnegative basic solution of a x = b, or the Farkas ray showing
    that none exists."""
    m = len(a)
    n = len(a[0]) if m else 0

    # Rows with b >= 0 scaled to integers, artificial identity basis; the
    # rhs is L * b, so the basic levels are those of L * x.
    rhs, big = _integer_row(b)
    rows: list[list[int]] = []
    scales: list[int] = []
    for i in range(m):
        line, scale = _integer_row(a[i])
        level = scale * rhs[i]
        if level < 0:
            line = [-v for v in line]
            level, scale = -level, -scale  # row i is scales[i] times the unscaled row
        unit = [0] * m
        unit[i] = 1
        rows.append(line + unit + [level])
        scales.append(scale)
    # Artificial i is |scales[i]| times the unscaled one, so its cost is
    # 1/|scales[i]|; the row below is that cost times their lcm, reduced.
    common = lcm(*scales)
    weights = [common // abs(s) for s in scales]
    cost = [0] * (n + m + 1)
    for w, line in zip(weights, rows):
        cost = [c - w * v for c, v in zip(cost, line)]
    cost[n : n + m] = [0] * m  # the basic artificials' reduced costs
    rows.append(cost)
    tab = _Tableau(rows, [n + i for i in range(m)])
    tab.run()  # the sum of artificials is bounded below by 0
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
        return LPResult(INFEASIBLE, None, tab.pivots, ray)

    x = [Fraction(0)] * n
    for line, col in zip(rows, basis):
        if col < n:
            x[col] = Fraction(line[-1], tab.den * big)
    return LPResult(OPTIMAL, tuple(x), tab.pivots)
