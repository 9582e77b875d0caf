"""Projector arithmetic over two scalar backends.

The "exact" backend stores matrices as integer numerator grids over a single
positive denominator, so equality, hashing and rank are unconditional.  The
"float" backend stores complex doubles together with a tolerance ``tol`` and
treats two matrices as equal when every entry differs by less than ``tol``;
every float relation between matrices (equality, order, orthogonality,
commutation, Hermiticity, idempotence) is such a comparison.  Everything
is immutable; operations return fresh objects.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from fractions import Fraction
from itertools import product
from typing import Iterable, Sequence, Union

from .errors import (
    BackendMismatch,
    DimensionMismatch,
    Incompatible,
    NotADensityMatrix,
    NotAProjector,
    OutOfRange,
    ZeroVector,
)

EXACT = "exact"
FLOAT = "float"

DEFAULT_TOL = 1e-9

# Accepted element types for exact entries: a real rational or an (re, im) pair.
ExactEntry = Union[int, Fraction, tuple]

# A ray scaled to Gaussian integers: the real and the imaginary parts.
GaussianVector = tuple[tuple[int, ...], tuple[int, ...]]


def _ratio(x) -> tuple[int, int]:
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _entry_ratios(entry: ExactEntry) -> tuple[int, int, int, int]:
    re, im = entry if isinstance(entry, tuple) else (entry, 0)
    return (*_ratio(re), *_ratio(im))


def _dot(xs: Sequence, ys: Sequence):
    return sum(map(operator.mul, xs, ys))


def _complex_dot(ar: Sequence[int], ai: Sequence[int], br: Sequence[int], bi: Sequence[int]):
    """(re, im) of the dot product of the Gaussian-integer vectors ar + i ai
    and br + i bi: one entry of a complex product."""
    return _dot(ar, br) - _dot(ai, bi), _dot(ar, bi) + _dot(ai, br)


def _gcd_all(values: Iterable[int]) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


class ExactMatrix:
    """Square matrix of Gaussian rationals in normalized integer form."""

    __slots__ = ("dim", "den", "re", "im", "_hash", "_sliced")

    def __init__(self, dim: int, den: int, re: tuple[int, ...], im: tuple[int, ...] | None):
        # Callers pass unnormalized data; reduce to gcd-1 form so that equal
        # matrices have equal representations.
        if den < 0:
            den = -den
            re = tuple(-x for x in re)
            if im is not None:
                im = tuple(-x for x in im)
        if im is not None and not any(im):
            im = None
        g = _gcd_all((den, *map(abs, re), *(map(abs, im) if im else ())))
        if g == 0:
            den, g = 1, 1
        if g > 1:
            den //= g
            re = tuple(x // g for x in re)
            if im is not None:
                im = tuple(x // g for x in im)
        self.dim = dim
        self.den = den
        self.re = re
        self.im = im
        self._hash = hash((dim, den, re, im))
        self._sliced = None

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[ExactEntry]]) -> "ExactMatrix":
        dim = len(rows)
        parts = [_entry_ratios(e) for row in rows for e in row]
        if len(parts) != dim * dim:
            raise DimensionMismatch("entry grid is not square")
        return cls(dim, *common_denominator(parts))

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        re = tuple(1 if i == j else 0 for i in range(dim) for j in range(dim))
        return cls(dim, 1, re, None)

    @classmethod
    def zeros(cls, dim: int) -> "ExactMatrix":
        return cls(dim, 1, (0,) * (dim * dim), None)

    def entry(self, i: int, j: int) -> tuple[Fraction, Fraction]:
        k = i * self.dim + j
        im = self.im[k] if self.im is not None else 0
        return Fraction(self.re[k], self.den), Fraction(im, self.den)

    def _slices(self) -> tuple:
        """Rows and columns of the real and imaginary numerator grids.

        Sliced on first use and kept, so a pair loop slices each element
        once.  The imaginary slices are None for a real matrix.
        """
        if self._sliced is None:
            d, re, im = self.dim, self.re, self.im
            self._sliced = (
                tuple(re[i * d : i * d + d] for i in range(d)),
                tuple(re[j::d] for j in range(d)),
                tuple(im[i * d : i * d + d] for i in range(d)) if im else None,
                tuple(im[j::d] for j in range(d)) if im else None,
            )
        return self._sliced

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        d = self.dim
        a_rows, _, ai_rows, _ = self._slices()
        _, b_cols, _, bi_cols = other._slices()
        if ai_rows is None and bi_cols is None:
            out_re = [_dot(row, col) for row in a_rows for col in b_cols]
            return ExactMatrix(d, self.den * other.den, tuple(out_re), None)
        zero = (0,) * d
        a = list(zip(a_rows, ai_rows or [zero] * d))
        b = list(zip(b_cols, bi_cols or [zero] * d))
        out_re, out_im = zip(*(_complex_dot(ar, ai, br, bi) for ar, ai in a for br, bi in b))
        return ExactMatrix(d, self.den * other.den, out_re, out_im)

    def hermitian_mul(self, other: "ExactMatrix") -> "ExactMatrix | None":
        """The product if it is Hermitian, else None.

        Numerator entries (i, j) and (j, i) are formed together, and the
        first pair with (i, j) != conj((j, i)) ends the product.  A Hermitian
        product equals ``mul``'s; only it is normalised.
        """
        d = self.dim
        a_rows, _, ai_rows, _ = self._slices()
        _, b_cols, _, bi_cols = other._slices()
        out_re = [0] * (d * d)
        if ai_rows is None and bi_cols is None:
            mul = operator.mul  # _dot inlined
            for i in range(d):
                row, col = a_rows[i], b_cols[i]
                for j in range(i):
                    x = sum(map(mul, row, b_cols[j]))
                    if x != sum(map(mul, a_rows[j], col)):
                        return None
                    out_re[i * d + j] = out_re[j * d + i] = x
                out_re[i * d + i] = sum(map(mul, row, col))
            return ExactMatrix(d, self.den * other.den, tuple(out_re), None)
        zero = (0,) * d
        a = list(zip(a_rows, ai_rows or [zero] * d))
        b = list(zip(b_cols, bi_cols or [zero] * d))
        out_im = [0] * (d * d)
        for i in range(d):
            for j in range(i + 1):
                xr, xi = _complex_dot(*a[i], *b[j])
                yr, yi = (xr, xi) if i == j else _complex_dot(*a[j], *b[i])
                if xr != yr or xi != -yi:
                    return None
                out_re[i * d + j], out_im[i * d + j] = xr, xi
                out_re[j * d + i], out_im[j * d + i] = yr, yi
        return ExactMatrix(d, self.den * other.den, tuple(out_re), tuple(out_im))

    def mul_is_zero(self, other: "ExactMatrix") -> bool:
        """``mul(other).is_zero()``, entry by entry: the numerator dot
        products of each entry, real part then imaginary part, and the first
        nonzero one ends the test.  Nothing is built or normalised."""
        a_rows, _, ai_rows, _ = self._slices()
        _, b_cols, _, bi_cols = other._slices()
        if ai_rows is None and bi_cols is None:
            return not any(_dot(row, col) for row in a_rows for col in b_cols)
        zero = (0,) * self.dim
        b = list(zip(b_cols, bi_cols or [zero] * self.dim))
        for ar, ai in zip(a_rows, ai_rows or [zero] * self.dim):
            for br, bi in b:
                if _dot(ar, br) != _dot(ai, bi) or _dot(ar, bi) + _dot(ai, br):
                    return False
        return True

    def trace_num(self, other: "ExactMatrix") -> int:
        """Numerator of tr(A B) over ``self.den * other.den`` for Hermitian B.

        B_ji = conj(B_ij), so the trace is the real dot product of the
        numerator grids: d^2 integer products, no allocation, no gcd.
        """
        num = _dot(self.re, other.re)
        if self.im is not None and other.im is not None:
            num += _dot(self.im, other.im)
        return num

    def is_hermitian(self) -> bool:
        d = self.dim
        re, im = self.re, self.im
        if any(re[i * d + j] != re[j * d + i] for i in range(d) for j in range(i)):
            return False
        return im is None or all(
            im[i * d + j] == -im[j * d + i] for i in range(d) for j in range(i + 1)
        )

    def _combine(self, other: "ExactMatrix", sign: int) -> "ExactMatrix":
        g = math.gcd(self.den, other.den)
        la, lb = other.den // g, self.den // g
        den = self.den * la
        re = tuple(x * la + sign * y * lb for x, y in zip(self.re, other.re))
        if self.im is None and other.im is None:
            return ExactMatrix(self.dim, den, re, None)
        ai = self.im or (0,) * len(self.re)
        bi = other.im or (0,) * len(self.re)
        im = tuple(x * la + sign * y * lb for x, y in zip(ai, bi))
        return ExactMatrix(self.dim, den, re, im)

    def add(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, 1)

    def sub(self, other: "ExactMatrix") -> "ExactMatrix":
        return self._combine(other, -1)

    def trace(self) -> tuple[Fraction, Fraction]:
        d = self.dim
        tre = sum(self.re[i * d + i] for i in range(d))
        tim = sum(self.im[i * d + i] for i in range(d)) if self.im is not None else 0
        return Fraction(tre, self.den), Fraction(tim, self.den)

    def is_zero(self) -> bool:
        return not any(self.re) and self.im is None

    def key(self):
        return (self.dim, self.den, self.re, self.im or ())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self._hash == other._hash
            and self.dim == other.dim
            and self.den == other.den
            and self.re == other.re
            and self.im == other.im
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ExactMatrix(dim={self.dim}, den={self.den})"


class FloatMatrix:
    """Square complex matrix compared entrywise within a tolerance."""

    __slots__ = ("dim", "entries", "tol", "_sliced")

    def __init__(self, dim: int, entries: tuple[complex, ...], tol: float = DEFAULT_TOL):
        if not tol >= sys.float_info.min:  # NaN, <= 0, or subnormal
            raise ValueError(f"tolerance must be at least {sys.float_info.min!r}, got {tol!r}")
        self.dim = dim
        self.entries = entries
        self.tol = tol
        self._sliced = None

    @classmethod
    def from_entries(cls, rows: Sequence[Sequence[complex]], tol: float = DEFAULT_TOL) -> "FloatMatrix":
        dim = len(rows)
        entries = tuple(complex(e) for row in rows for e in row)
        if len(entries) != dim * dim:
            raise DimensionMismatch("entry grid is not square")
        return cls(dim, entries, tol)

    @classmethod
    def identity(cls, dim: int, tol: float = DEFAULT_TOL) -> "FloatMatrix":
        return cls(dim, tuple(1.0 + 0j if i == j else 0j for i in range(dim) for j in range(dim)), tol)

    @classmethod
    def zeros(cls, dim: int, tol: float = DEFAULT_TOL) -> "FloatMatrix":
        return cls(dim, (0j,) * (dim * dim), tol)

    def entry(self, i: int, j: int) -> complex:
        return self.entries[i * self.dim + j]

    def _slices(self) -> tuple:
        """Rows and columns, sliced on first use and kept."""
        if self._sliced is None:
            d, e = self.dim, self.entries
            self._sliced = (
                tuple(e[i * d : i * d + d] for i in range(d)),
                tuple(e[j::d] for j in range(d)),
            )
        return self._sliced

    def mul(self, other: "FloatMatrix") -> "FloatMatrix":
        rows = self._slices()[0]
        b_cols = other._slices()[1]
        out = tuple(_dot(row, col) for row in rows for col in b_cols)
        return FloatMatrix(self.dim, out, max(self.tol, other.tol))

    def commuting_mul(self, other: "FloatMatrix") -> "FloatMatrix | None":
        """The product AB if AB = BA within tolerance, else None.

        Entries of AB and BA are formed with ``mul``'s dot products into a
        row-major list, and the first entry with |AB - BA| >= tol ends the
        product; a commuting pair gets exactly ``mul``'s AB.  The entries
        (i, j != i) are tested before the diagonal, which is 0 in AB - BA
        for real symmetric A and B.
        """
        d = self.dim
        a_rows, a_cols = self._slices()
        b_rows, b_cols = other._slices()
        tol = max(self.tol, other.tol)
        mul = operator.mul  # _dot inlined: same terms, same order
        out = [0j] * (d * d)
        cols = tuple(zip(range(d), b_cols, a_cols))
        for i, a_row, b_row in zip(range(d), a_rows, b_rows):
            for j, b_col, a_col in cols:
                if i != j:
                    x = sum(map(mul, a_row, b_col))
                    if abs(x - sum(map(mul, b_row, a_col))) >= tol:
                        return None
                    out[i * d + j] = x
        for i, a_row, b_row, b_col, a_col in zip(range(d), a_rows, b_rows, b_cols, a_cols):
            x = sum(map(mul, a_row, b_col))
            if abs(x - sum(map(mul, b_row, a_col))) >= tol:
                return None
            out[i * d + i] = x
        return FloatMatrix(d, tuple(out), tol)

    def mul_near(self, other: "FloatMatrix", target: "FloatMatrix") -> bool:
        """``mul(other).approx_equal(target)``, entry by entry: the entries
        are ``mul``'s, and the first one off by tol or more ends the test."""
        rows, cols = self._slices()[0], other._slices()[1]
        tol = max(self.tol, other.tol, target.tol)
        want = iter(target.entries)
        return all(abs(_dot(row, col) - next(want)) < tol for row in rows for col in cols)

    def mul_is_zero(self, other: "FloatMatrix") -> bool:
        """``mul(other).is_zero()``, entry by entry: the entries are
        ``mul``'s, and the first one of modulus tol or more ends the test."""
        rows, cols = self._slices()[0], other._slices()[1]
        tol = max(self.tol, other.tol)
        return all(abs(_dot(row, col)) < tol for row in rows for col in cols)

    def add(self, other: "FloatMatrix") -> "FloatMatrix":
        return FloatMatrix(
            self.dim,
            tuple(x + y for x, y in zip(self.entries, other.entries)),
            max(self.tol, other.tol),
        )

    def sub(self, other: "FloatMatrix") -> "FloatMatrix":
        return FloatMatrix(
            self.dim,
            tuple(x - y for x, y in zip(self.entries, other.entries)),
            max(self.tol, other.tol),
        )

    def trace(self) -> complex:
        return sum(self.entries[i * self.dim + i] for i in range(self.dim))

    def approx_equal(self, other: "FloatMatrix") -> bool:
        if self.dim != other.dim:
            return False
        tol = max(self.tol, other.tol)
        return all(abs(x - y) < tol for x, y in zip(self.entries, other.entries))

    def is_hermitian(self) -> bool:
        """A = A^dagger within tol: each entry against the conjugate of its
        transpose."""
        rows, cols = self._slices()
        tol = self.tol
        return all(
            abs(x - y.conjugate()) < tol for row, col in zip(rows, cols) for x, y in zip(row, col)
        )

    def is_zero(self) -> bool:
        return all(abs(e) < self.tol for e in self.entries)

    def grid_key(self) -> tuple:
        # Spacing of 64*tol keeps matrices produced by one computation path in
        # one cell; near-equal values can still straddle a boundary, so any
        # structure relying on this key must confirm with approx_equal.
        step = 64.0 * self.tol
        return (self.dim,) + tuple(
            (round(e.real / step), round(e.imag / step)) for e in self.entries
        )

    def near_keys(self, limit: int) -> list[tuple] | None:
        """Grid keys of every cell that the box of +-tol around this matrix
        touches, or None when more than ``limit`` coordinates straddle.

        A matrix with the same tolerance and every entry within tol of this
        one differs by at most one cell per coordinate, and only where this
        coordinate lies within tol of a cell edge; a coordinate within 2*tol
        of an edge (1/32 of a cell, far above rounding) contributes both
        cells, so every such matrix has one of these keys.
        """
        step = 64.0 * self.tol
        per_entry = []
        straddling = 0
        for e in self.entries:
            pair = []
            for x in (e.real, e.imag):
                u = x / step
                c = round(u)
                if 0.5 - abs(u - c) < 1 / 32:
                    straddling += 1
                    if straddling > limit:
                        return None
                    pair.append((c, c + 1 if u > c else c - 1))
                else:
                    pair.append((c,))
            per_entry.append([(r, i) for r in pair[0] for i in pair[1]])
        return [(self.dim,) + cells for cells in product(*per_entry)]

    def key(self):
        return self.grid_key()

    def __eq__(self, other) -> bool:
        return isinstance(other, FloatMatrix) and self.dim == other.dim and self.approx_equal(other)

    def __hash__(self) -> int:
        return hash(self.grid_key())

    def __repr__(self) -> str:
        return f"FloatMatrix(dim={self.dim}, tol={self.tol})"


Matrix = Union[ExactMatrix, FloatMatrix]


class Projector:
    """Hermitian idempotent matrix; the event primitive.

    Rank is read off the trace, which is exact for projectors and avoids any
    eigensolver.
    """

    __slots__ = ("mat", "rank", "backend")

    def __init__(self, mat: Matrix, _validated: bool = False):
        self.mat = mat
        self.backend = EXACT if isinstance(mat, ExactMatrix) else FLOAT
        if not _validated:
            self._validate()
        self.rank = self._rank_from_trace()

    def _validate(self) -> None:
        mat = self.mat
        within = "" if isinstance(mat, ExactMatrix) else " within tolerance"
        if not mat.is_hermitian():
            raise NotAProjector("matrix is not Hermitian" + within)
        if mat.mul(mat) != mat:
            raise NotAProjector("matrix is not idempotent" + within)

    def _rank_from_trace(self) -> int:
        if isinstance(self.mat, ExactMatrix):
            tre, tim = self.mat.trace()
            if tim != 0 or tre.denominator != 1:
                raise NotAProjector(f"projector trace {tre} is not an integer")
            return int(tre)
        tr = self.mat.trace()
        rank = round(tr.real)
        if abs(tr - rank) >= self.mat.tol:
            raise NotAProjector(f"projector trace {tr} is not near an integer")
        return int(rank)

    @property
    def dim(self) -> int:
        return self.mat.dim

    @property
    def tol(self) -> float:
        return self.mat.tol if isinstance(self.mat, FloatMatrix) else 0.0

    def is_zero(self) -> bool:
        return self.rank == 0

    def is_identity(self) -> bool:
        return self.rank == self.dim

    def sort_key(self):
        return (self.dim, self.rank, self.mat.key())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Projector) or self.backend != other.backend:
            return False
        return self.mat == other.mat

    def __hash__(self) -> int:
        return hash(self.mat)

    def __repr__(self) -> str:
        return f"Projector(dim={self.dim}, rank={self.rank}, backend={self.backend})"


def _check_pair(p: Projector, q: Projector) -> None:
    if p.backend != q.backend:
        raise BackendMismatch(f"{p.backend} vs {q.backend}")
    if p.dim != q.dim:
        raise DimensionMismatch(f"dim {p.dim} vs {q.dim}")


def identity_projector(dim: int, backend: str = EXACT, tol: float = DEFAULT_TOL) -> Projector:
    mat = ExactMatrix.identity(dim) if backend == EXACT else FloatMatrix.identity(dim, tol)
    return Projector(mat, _validated=True)


def zero_projector(dim: int, backend: str = EXACT, tol: float = DEFAULT_TOL) -> Projector:
    mat = ExactMatrix.zeros(dim) if backend == EXACT else FloatMatrix.zeros(dim, tol)
    return Projector(mat, _validated=True)


def common_denominator(
    parts: Sequence[tuple[int, int, int, int]],
) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """Entries given as (re num, re den, im num, im den), with positive
    denominators, as real and imaginary numerators over the lcm of the
    denominators, which is returned first."""
    den = math.lcm(*(p[1] for p in parts), *(p[3] for p in parts))
    return (
        den,
        tuple(n * (den // d) for n, d, _, _ in parts),
        tuple(n * (den // d) for _, _, n, d in parts),
    )


def gaussian_integer_vector(entries: Sequence[ExactEntry]) -> GaussianVector:
    """Real and imaginary parts of the vector scaled by the lcm of its
    denominators: the same ray as Gaussian integers."""
    return common_denominator([_entry_ratios(e) for e in entries])[1:]


def gaussian_orthogonal(u: GaussianVector, v: GaussianVector) -> bool:
    """<u, v> = 0: for u = a + i b and v = c + i d, conj(u) . v is
    (a.c + b.d) + i (a.d - b.c)."""
    (a, b), (c, d) = u, v
    return _dot(a, c) + _dot(b, d) == 0 and _dot(a, d) == _dot(b, c)


def projector_from_gaussian(re: Sequence[int], im: Sequence[int]) -> Projector:
    """Rank-1 projector v v† / |v|^2 of the Gaussian-integer vector re + i im:
    numerators a_i a_j + b_i b_j and b_i a_j - a_i b_j over |v|^2."""
    norm = _dot(re, re) + _dot(im, im)
    if norm == 0:
        raise ZeroVector("cannot project onto the zero vector")
    pairs = tuple(zip(re, im))
    out_re = tuple(a * c + b * e for a, b in pairs for c, e in pairs)
    out_im = tuple(b * c - a * e for a, b in pairs for c, e in pairs)
    return Projector(ExactMatrix(len(pairs), norm, out_re, out_im))


def _squared_norm(vec: Sequence[complex]) -> float:
    try:
        return sum(abs(x) ** 2 for x in vec)
    except OverflowError:  # float ** raises where * would give inf
        return math.inf


def projector_from_vector(
    entries: Sequence, backend: str = EXACT, tol: float = DEFAULT_TOL
) -> Projector:
    """Rank-1 projector v v† / <v, v> from an unnormalized vector.

    Exact vectors are scaled to Gaussian integers first, so the projector is
    formed in integers (``projector_from_gaussian``).  A float vector is
    refused only when its norm is 0: a short ray is the same ray, and the
    projector check (Hermitian and idempotent within tol) decides the rest.
    When the squared norm of a finite nonzero float vector underflows to 0
    or overflows, the vector is first divided by its largest real or
    imaginary part; every other vector is used as given.
    """
    d = len(entries)
    if d == 0:
        raise DimensionMismatch("empty vector")
    if backend == EXACT:
        return projector_from_gaussian(*gaussian_integer_vector(entries))
    vec = [complex(e) for e in entries]
    norm = _squared_norm(vec)
    if norm in (0, math.inf) and any(vec) and all(map(cmath.isfinite, vec)):
        big = max(max(abs(x.real), abs(x.imag)) for x in vec)
        vec = [x / big for x in vec]
        norm = _squared_norm(vec)
    if norm == 0:
        raise ZeroVector("cannot project onto the zero vector")
    ents = tuple(vec[i] * vec[j].conjugate() / norm for i in range(d) for j in range(d))
    return Projector(FloatMatrix(d, ents, tol))


# --- order, orthogonality and commutation from tr(PQ) ----------------------
#
# For projectors P and Q, tr(PQ) = ||PQ||_F^2 and rank P - tr(PQ) =
# ||(I - Q)P||_F^2, so
#   P <= Q  iff  tr(PQ) = rank P,      P _|_ Q  iff  tr(PQ) = 0,
# and since (PQ)^dagger = QP,  PQ = QP iff PQ is Hermitian.  On the exact
# backend tr(PQ) is one integer dot product of the numerator grids
# (``ExactMatrix.trace_num``); it decides order and orthogonality outright,
# and most commutation questions too (``exact_pair_relation``).
#
# The float backend has one rule for every relation: two matrices are equal
# when every entry differs by less than tol.  P <= Q is PQ = P and P _|_ Q is
# PQ = 0 in that sense, tested with the entries ``mul`` forms and stopped at
# the first entry off by tol or more (``FloatMatrix.mul_near``).  A relation
# between two rays is the relation between their projectors, so it does not
# depend on the length of the vectors that span them.

# What tr(PQ) and the two ranks decide about an exact pair.
ORDERED = "ordered"  # P <= Q or Q <= P: the meet and join are P and Q
ORTHOGONAL = "orthogonal"  # PQ = 0: the join is P + Q
CO_ORTHOGONAL = "co-orthogonal"  # (I - P)(I - Q) = 0: the meet is P + Q - I
INCOMPATIBLE = "incompatible"  # PQ != QP
UNDECIDED = "undecided"  # only the product PQ can tell


def matrix_leq(a: Matrix, b: Matrix, rank_a: int) -> bool:
    """PQ = P for projector matrices a = P (of rank ``rank_a``) and b = Q.

    Exact: tr(PQ) = rank P.  Float: PQ = P within tol, entry by entry.
    """
    if isinstance(a, ExactMatrix):
        return a.trace_num(b) == rank_a * a.den * b.den
    return a.mul_near(b, a)


def matrix_orthogonal(a: Matrix, b: Matrix) -> bool:
    """PQ = 0 for projector matrices a = P and b = Q.

    Exact: tr(PQ) = 0.  Float: PQ = 0 within tol, entry by entry.
    """
    if isinstance(a, ExactMatrix):
        return a.trace_num(b) == 0
    return a.mul_near(b, FloatMatrix.zeros(a.dim, a.tol))


def exact_pair_relation(p: Projector, q: Projector) -> str:
    """Classify an exact pair by t = tr(PQ) alone.

    tr((I - P)(I - Q)) = d - rank P - rank Q + t, so t = rank P + rank Q - d
    means the complements are orthogonal: P v Q = I and P ^ Q = P + Q - I.
    Commuting projectors multiply to a projector of rank t, so a pair with
    a non-integer t cannot commute.  That settles every pair with a rank-1
    member (0 <= t <= 1) and every pair with a co-rank-1 member P
    (rank Q - 1 <= t <= rank Q) without a product.
    """
    a, b = p.mat, q.mat
    den = a.den * b.den
    num = a.trace_num(b)
    if num == p.rank * den or num == q.rank * den:
        return ORDERED
    if num == 0:
        return ORTHOGONAL
    if num == (p.rank + q.rank - p.dim) * den:
        return CO_ORTHOGONAL
    if num % den:
        return INCOMPATIBLE
    return UNDECIDED


def commuting_product(p: Projector, q: Projector) -> Matrix | None:
    """PQ if P and Q commute, else None.

    Both backends stop at the first entry that decides against commuting,
    and return the matrix ``mul`` would for a commuting pair.  Exact: PQ = QP
    iff PQ is Hermitian, so entries (i, j) and (j, i) of PQ are compared as
    they are formed (``ExactMatrix.hermitian_mul``).  Float: entries of PQ
    and QP are compared within tolerance as they are formed
    (``FloatMatrix.commuting_mul``).
    """
    if isinstance(p.mat, ExactMatrix):
        return p.mat.hermitian_mul(q.mat)
    return p.mat.commuting_mul(q.mat)


def commutes(p: Projector, q: Projector) -> bool:
    """True iff PQ = QP under the backend's equality."""
    _check_pair(p, q)
    if p.backend == EXACT:
        relation = exact_pair_relation(p, q)
        if relation != UNDECIDED:
            return relation != INCOMPATIBLE
    return commuting_product(p, q) is not None


def complement(p: Projector) -> Projector:
    mat = (
        ExactMatrix.identity(p.dim).sub(p.mat)
        if p.backend == EXACT
        else FloatMatrix.identity(p.dim, p.mat.tol).sub(p.mat)
    )
    return Projector(mat, _validated=True)


def meet(p: Projector, q: Projector) -> Projector:
    """P AND Q for commuting projectors; the product PQ."""
    _check_pair(p, q)
    pq = commuting_product(p, q)
    if pq is None:
        raise Incompatible("meet is undefined for non-commuting projectors")
    return Projector(pq)


def join(p: Projector, q: Projector) -> Projector:
    """P OR Q for commuting projectors; equals P + Q - PQ."""
    _check_pair(p, q)
    pq = commuting_product(p, q)
    if pq is None:
        raise Incompatible("join is undefined for non-commuting projectors")
    return Projector(p.mat.add(q.mat).sub(pq))


def orthogonal(p: Projector, q: Projector) -> bool:
    """True iff PQ = 0; for projectors this forces QP = 0 as well."""
    _check_pair(p, q)
    return matrix_orthogonal(p.mat, q.mat)


def leq(p: Projector, q: Projector) -> bool:
    """Order of events: PQ = P (which already implies commutation)."""
    _check_pair(p, q)
    return matrix_leq(p.mat, q.mat, p.rank)


# --- positive semidefiniteness -------------------------------------------------


def _psd_within(mat: Matrix, tol: float) -> bool:
    """True iff every eigenvalue of the Hermitian matrix A is >= -tol, that
    is, iff A + tol*I is positive semidefinite; tol = 0 on the exact backend.

    A = X + iY is PSD exactly when the real symmetric M = [[X, -Y], [Y, X]]
    is, since M has the eigenvalues of A, each twice.  M is built from the
    upper triangle of A (the exact numerators, or the float entries) and
    reduced by fraction-free (Bareiss) elimination with diagonal pivots: the
    largest remaining diagonal entry is the pivot; a negative one refutes,
    a zero one needs the remaining block to be zero, and a positive one
    leaves a positive multiple of its Schur complement, which is PSD iff M
    is.  On integers every division is exact.
    """
    d = mat.dim
    if isinstance(mat, ExactMatrix):
        entries = list(zip(mat.re, mat.im or (0,) * (d * d)))
        div = operator.floordiv
    else:
        entries = [(z.real, z.imag) for z in mat.entries]
        div = operator.truediv
    n = 2 * d
    m = [[0] * n for _ in range(n)]
    for i in range(d):
        for j in range(i, d):
            x, y = entries[i * d + j] if i < j else (entries[i * d + i][0] + tol, 0)
            m[i][j] = m[j][i] = m[i + d][j + d] = m[j + d][i + d] = x
            m[i][j + d] = m[j + d][i] = -y
            m[i + d][j] = m[j][i + d] = y
    rest = list(range(n))
    prev = 1
    while rest:
        k = max(rest, key=lambda r: m[r][r])
        pivot = m[k][k]
        if pivot <= 0:
            return pivot == 0 and not any(m[i][j] for i in rest for j in rest)
        rest.remove(k)
        for i in rest:
            row, mik = m[i], m[i][k]
            for j in rest:
                row[j] = div(pivot * row[j] - mik * m[k][j], prev)
        prev = pivot
    return True


class DensityMatrix:
    """Hermitian positive semidefinite matrix of unit trace."""

    __slots__ = ("mat", "backend")

    def __init__(self, mat: Matrix, _validated: bool = False):
        self.mat = mat
        self.backend = EXACT if isinstance(mat, ExactMatrix) else FLOAT
        if not _validated:
            self._validate()

    def _validate(self) -> None:
        mat = self.mat
        if not mat.is_hermitian():
            within = "" if isinstance(mat, ExactMatrix) else " within tolerance"
            raise NotADensityMatrix("matrix is not Hermitian" + within)
        if isinstance(mat, ExactMatrix):
            tre, tim = mat.trace()
            if tre != 1 or tim != 0:
                raise NotADensityMatrix(f"trace is {tre}, expected 1")
            if not _psd_within(mat, 0):
                raise NotADensityMatrix("matrix is not positive semidefinite")
        else:
            if abs(mat.trace() - 1.0) >= mat.tol:
                raise NotADensityMatrix(f"trace is {mat.trace()}, expected 1")
            if not _psd_within(mat, mat.tol):
                raise NotADensityMatrix("matrix has an eigenvalue below -tol")

    @property
    def dim(self) -> int:
        return self.mat.dim

    @classmethod
    def from_pure_vector(cls, entries: Sequence, backend: str = EXACT, tol: float = DEFAULT_TOL) -> "DensityMatrix":
        return cls(projector_from_vector(entries, backend, tol).mat, _validated=True)

    @classmethod
    def maximally_mixed(cls, dim: int, backend: str = EXACT, tol: float = DEFAULT_TOL) -> "DensityMatrix":
        if backend == EXACT:
            rows = [
                [Fraction(1, dim) if i == j else 0 for j in range(dim)]
                for i in range(dim)
            ]
            return cls(ExactMatrix.from_entries(rows), _validated=True)
        ents = tuple(
            (1.0 / dim if i == j else 0.0) + 0j for i in range(dim) for j in range(dim)
        )
        return cls(FloatMatrix(dim, ents, tol), _validated=True)

    @classmethod
    def mixture(cls, weights: Sequence, states: Sequence["DensityMatrix"]) -> "DensityMatrix":
        """Convex combination of density matrices; weights must sum to one."""
        if len(weights) != len(states) or not states:
            raise NotADensityMatrix("mixture needs matching weights and states")
        first = states[0].mat
        if isinstance(first, ExactMatrix):
            acc = ExactMatrix.zeros(first.dim)
            for w, s in zip(weights, states):
                w = Fraction(w)
                scaled = ExactMatrix(
                    s.mat.dim,
                    s.mat.den * w.denominator,
                    tuple(x * w.numerator for x in s.mat.re),
                    tuple(x * w.numerator for x in s.mat.im) if s.mat.im else None,
                )
                acc = acc.add(scaled)
            return cls(acc)
        acc = FloatMatrix.zeros(first.dim, first.tol)
        for w, s in zip(weights, states):
            scaled = FloatMatrix(s.mat.dim, tuple(float(w) * e for e in s.mat.entries), s.mat.tol)
            acc = acc.add(scaled)
        return cls(acc)


def quantum_state_eval(rho: DensityMatrix, p: Projector):
    """Born-rule probability tr(rho P), clamped to [0, 1] only within tolerance."""
    if rho.dim != p.dim:
        raise DimensionMismatch(f"dim {rho.dim} vs {p.dim}")
    if rho.backend != p.backend:
        raise BackendMismatch(f"{rho.backend} vs {p.backend}")
    if isinstance(rho.mat, ExactMatrix):
        # Both matrices are Hermitian, so tr(rho P) is real: the numerator
        # dot product of ``trace_num``.
        value = Fraction(rho.mat.trace_num(p.mat), rho.mat.den * p.mat.den)
        if value < 0 or value > 1:
            raise OutOfRange(f"tr(rho P) = {value} outside [0, 1]")
        return value
    d = p.dim
    tol = max(rho.mat.tol, p.mat.tol)
    total = 0j
    for i in range(d):
        for j in range(d):
            total += rho.mat.entries[i * d + j] * p.mat.entries[j * d + i]
    value = total.real
    if abs(total.imag) >= tol:
        raise OutOfRange(f"tr(rho P) has imaginary part {total.imag}")
    if value < -tol or value > 1.0 + tol:
        raise OutOfRange(f"tr(rho P) = {value} outside [-tol, 1 + tol]")
    return min(1.0, max(0.0, value))
