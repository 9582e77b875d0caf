"""Is there x >= 0 with a x = b?  Phase 1 of the primal simplex answers it
over exact rationals, on an integer tableau: at 0 with a basic solution read
off the final basis (an artificial still basic sits at level 0), or above 0
with a Farkas ray.

Verdicts downstream must be unconditional, so the arithmetic is exact: the
tableau is integer-preserving (fraction-free, Edmonds 1967 / Bareiss 1968)
over one common denominator D = |det B|.  It is condensed (a Tucker
exchange tableau): the m basic columns of the full tableau D * B^-1 [A | I
| b] are D times unit vectors and carry nothing, so each of the m rows and
the reduced-cost row keeps one slot per nonbasic variable, ``var[j]`` naming
the variable in slot j, plus the rhs.  A pivot on (r, c) with p = T[r][c]
is the full tableau's exact integer update (p*T[i][j] - T[i][c]*T[r][j]) //
D on every other row; slot c then takes the leaving variable's column,
-T[i][c] in row i and the old D in row r, and D becomes p.  On the 0-1
rows of a membership LP p and D are mostly 1, and the update is a
subtraction.

The rows of a and the rhs b are integers.  A rational rhs is passed as its
numerators b over one denominator Q: that scales every basic level, and so
every ratio of the ratio test, by Q alike, so Bland's rule (the improving
variable of least index, then the smallest basic index among tied ratios)
takes the pivots a rational full tableau would take on b / Q.  x is the
final rhs, integer numerators over D (over D * Q for b / Q).  On 0-1 rows D
stays the size of a 0-1 determinant whatever the size of b.

An infeasible LP returns the phase-1 dual y times D, an integer ray.  Phase
1 is optimal, so every reduced cost is nonnegative: y.A <= 0 entrywise,
while y.b, the positive phase-1 optimum, is > 0.  That is a Farkas
certificate of infeasibility.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import Record, set_field

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"


class LPResult(Record):
    """``x`` is set on OPTIMAL only: the basic solution, integer numerators
    over ``den``.  ``farkas`` is set on INFEASIBLE only: D times the phase-1
    dual y, one integer per row, with y.A <= 0 < y.b.  ``analyze`` reads its
    separating inequalities from it."""

    __slots__ = ("status", "x", "pivots", "farkas", "den")

    def __init__(
        self,
        status: str,
        x: tuple[int, ...] | None,
        pivots: int,  # phase 1
        farkas: tuple[int, ...] | None = None,
        den: int = 1,
    ):
        set_field(self, "status", status)
        set_field(self, "x", x)
        set_field(self, "pivots", pivots)
        set_field(self, "farkas", farkas)
        set_field(self, "den", den)


def _bland(rows: list[list[int]], basis: list[int], var: list[int]) -> tuple[int, int]:
    """Bland's rule on the condensed constraint rows and, last, the
    reduced-cost row, all over one denominator, until no reduced cost is
    negative; the objective must be bounded below.  Slot j of a row is
    nonbasic variable ``var[j]``, and the last slot is the rhs.  ``rows``,
    ``basis`` and ``var`` are updated in place; returns the final
    denominator and the number of pivots."""
    m = len(basis)
    slots = range(len(rows[m]) - 1)
    den, pivots = 1, 0
    while True:
        # Basic variables have reduced cost 0, so the improving nonbasic
        # variable of least index is the full tableau's first negative column.
        cost, c = rows[m], -1
        for j in slots:
            if cost[j] < 0 and (c < 0 or var[j] < var[c]):
                c = j
        if c < 0:
            return den, pivots
        r = -1
        for i in range(m):
            a = rows[i][c]
            if a > 0:
                if r < 0:
                    r, best_b, best_a = i, rows[i][-1], a
                    continue
                # rows[i][-1] / a against best_b / best_a, both a > 0.
                lhs, rhs = rows[i][-1] * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                    r, best_b, best_a = i, rows[i][-1], a
        assert r >= 0, "the objective is unbounded below"
        p, prow = rows[r][c], rows[r]
        for i, line in enumerate(rows):
            if i == r:
                continue
            f = line[c]
            if f:
                if p == den == 1:
                    line = [v - f * w for v, w in zip(line, prow)]
                else:
                    line = [(p * v - f * w) // den for v, w in zip(line, prow)]
                line[c] = -f  # the leaving variable's column was den * e_r
                rows[i] = line
            elif p != den:
                rows[i] = [p * v // den for v in line]
        prow[c] = den
        den = p
        basis[r], var[c] = var[c], basis[r]
        pivots += 1


def feasible_point(a: Sequence[Sequence[int]], b: Sequence[int]) -> LPResult:
    """A nonnegative basic solution of a x = b, or the Farkas ray showing
    that none exists.  Every entry of a and b must be an integer
    (``operator.index`` reads it, so a Fraction or float is a TypeError)."""
    m = len(a)
    n = len(a[0]) if m else 0

    # Rows with rhs b >= 0 over the structural slots, artificial basis.
    rows: list[list[int]] = []
    for i in range(m):
        line = list(map(index, a[i]))
        level = index(b[i])
        if level < 0:
            line, level = [-v for v in line], -level
        line.append(level)
        rows.append(line)
    # Cost 1 on each artificial: minus the sum of the rows.
    rows.append([-sum(col) for col in zip(*rows)])
    basis = [n + i for i in range(m)]
    var = list(range(n))
    den, pivots = _bland(rows, basis, var)  # the sum of artificials is bounded below by 0
    if any(basis[i] >= n and rows[i][-1] for i in range(m)):
        # At a nonbasic artificial i the cost row holds D * (1 - y_i) for row
        # i with b_i made nonnegative, and at a basic one 0; the sign of b_i
        # gives the dual of the given row.
        duals = [0] * m
        for j, v in enumerate(var):
            if v >= n:
                duals[v - n] = rows[m][j]
        ray = tuple(den - t if v >= 0 else t - den for v, t in zip(b, duals))
        return LPResult(INFEASIBLE, None, pivots, ray, den)

    x = [0] * n
    for line, col in zip(rows, basis):
        if col < n:
            x[col] = line[-1]
    return LPResult(OPTIMAL, tuple(x), pivots, None, den)
