"""Exact linear algebra on integer rows, plus the structured matrices used here.

Fraction-free Bareiss elimination gives determinants, with row swaps, and a
symmetric matrix's leading minors from its upper triangle, with none.
scaled_schur builds M = L_X + (n/m) J once, as the integer rows of D*M over
a common denominator D, which the reduction identity and the majorization
certificate check; it is the one place that refuses a disconnected graph.
RationalMatrix is the readable Fraction view, and the cached Fraction
projection matrices are the reference for the projection algebra.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import DimensionError, DisconnectedGraph
from .graphs import BipartiteGraph, DegreeData, bit_indices, degrees, is_connected

_ZERO = Fraction(0)
ScaledRows = tuple[int, list[list[int]], DegreeData]  # D, the rows of D * M, the degrees of g


def rat_str(x: Fraction | int) -> str:
    """Serialized form p/q with q > 0 and gcd(p, q) = 1, also for whole numbers."""
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination.

    Mutates its argument.  Each division by the previous pivot is exact
    (Bareiss 1968).  A zero pivot swaps with the first lower row nonzero in
    its column, or with none the determinant is 0; 1 for the 0 x 0 matrix.
    """
    d = len(rows)
    sign = prev = 1
    for k in range(d):
        r = next((r for r in range(k, d) if rows[r][k]), None)
        if r is None:
            return 0
        rows[k], rows[r] = rows[r], rows[k]
        sign = sign if r == k else -sign
        rk = rows[k]
        pivot = rk[k]
        for ri in rows[k + 1 :]:
            rik = ri[k]
            for j in range(k + 1, d):
                ri[j] = (ri[j] * pivot - rik * rk[j]) // prev
        prev = pivot
    return sign * prev


def leading_minors(rows: list[list[int]]) -> list[int]:
    """Leading principal minors of a symmetric integer matrix, by Bareiss with no row swap.

    Mutates its argument and reads only its upper triangle: every trailing
    block stays symmetric (Sylvester's identity), so row i is updated from
    column i on and reads its column-k entry from row k.  The pivots are the
    minors, the last of d the determinant; a zero one ends a shorter list.
    """
    minors = []
    prev = 1
    for k, rk in enumerate(rows):
        pivot = rk[k]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, len(rows)):
            ri = rows[i]
            rki = rk[i]
            for j in range(i, len(rows)):
                ri[j] = (ri[j] * pivot - rki * rk[j]) // prev
        prev = pivot
    return minors


class RationalMatrix:
    """Immutable square matrix with Fraction entries."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows: Sequence[Sequence[Fraction | int]]):
        frozen = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if len(frozen) == 0:
            raise DimensionError("a matrix needs at least one row")
        if any(len(r) != len(frozen) for r in frozen):
            raise DimensionError("matrix must be square")
        self.rows = frozen
        self.dim = len(frozen)

    @classmethod
    def constant(cls, dim: int, value: Fraction | int) -> "RationalMatrix":
        if dim < 1:
            raise DimensionError("a matrix needs at least one row")
        v = Fraction(value)
        return cls([[v] * dim for _ in range(dim)])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, k = key
        return self.rows[i][k]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({[[str(x) for x in row] for row in self.rows]})"

    def __add__(self, other: "RationalMatrix") -> "RationalMatrix":
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if self.dim != other.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return RationalMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __mul__(self, other):
        if isinstance(other, RationalMatrix):
            if self.dim != other.dim:
                raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")
            cols = list(zip(*other.rows))
            return RationalMatrix(
                [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
            )
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: Fraction | int) -> "RationalMatrix":
        f = Fraction(factor)
        return RationalMatrix([[f * x for x in row] for row in self.rows])

    def trace(self) -> Fraction:
        return sum((self.rows[i][i] for i in range(self.dim)), _ZERO)

    def det_exact(self) -> Fraction:
        """Exact determinant: clear each row's denominators, then integer Bareiss."""
        scale = 1
        int_rows = []
        for row in self.rows:
            mult = lcm(*(x.denominator for x in row))
            scale *= mult
            int_rows.append([int(x * mult) for x in row])
        return Fraction(bareiss_det(int_rows), scale)

    def to_floats(self) -> list[list[float]]:
        return [[float(x) for x in row] for row in self.rows]


@lru_cache(maxsize=None)
def projection_P(T: int, m: int) -> RationalMatrix:
    """Orthogonal projection onto zero-sum vectors supported on T.

    Entry (i, k) is delta_ik - 1/|T| when both indices lie in T and zero
    otherwise; equivalently the Laplacian of the complete graph on T divided
    by |T|, padded with zero rows and columns.
    """
    if T == 0:
        raise ValueError("the subset must be nonempty")
    if T < 0 or T >> m:
        raise ValueError(f"subset uses indices outside 0..{m - 1}")
    size = T.bit_count()
    inv = Fraction(1, size)
    rows = []
    for i in range(m):
        if (T >> i) & 1:
            rows.append([(1 - inv if i == k else -inv) if (T >> k) & 1 else _ZERO for k in range(m)])
        else:
            rows.append([_ZERO] * m)
    return RationalMatrix(rows)


@lru_cache(maxsize=None)
def projection_Q(T: int, m: int) -> RationalMatrix:
    """Rank-|T| projection onto the span of the T-supported zero-sum space and all-ones."""
    return projection_P(T, m) + RationalMatrix.constant(m, Fraction(1, m))


def scaled_schur(g: BipartiteGraph) -> ScaledRows:
    """Common denominator D, the integer rows of D * M, and the degrees of g.

    L_X = A - B C^(-1) B^T is the Schur complement of the Laplacian onto the X
    block and M = L_X + (n/m) J.  D = lcm(m, y-degrees), so every entry of
    D * M is an integer.  Entry (i, k) of D * M is D * n / m, plus D * a_i on
    the diagonal, minus D / b_j for each y_j adjacent to both x_i and x_k.
    M is defined only for connected graphs, so a disconnected g, an isolated
    y-vertex included, raises DisconnectedGraph before any degree is counted;
    this is the one connectivity guard of every check that reads D*M.
    """
    if not is_connected(g):
        raise DisconnectedGraph("the bound and M = L_X + (n/m)J need a connected graph")
    dd = degrees(g)
    m = g.m
    den = lcm(m, *dd.b)
    rows = [[den * g.n // m] * m for _ in range(m)]
    for t, bj in zip(g.nbrs, dd.b):
        w = den // bj
        members = bit_indices(t)
        for i in members:
            row = rows[i]
            for k in members:
                row[k] -= w
    for i, a in enumerate(dd.a):
        rows[i][i] += den * a
    return den, rows, dd


def matrix_M(g: BipartiteGraph) -> RationalMatrix:
    """Shifted Schur complement L_X + (n/m) J, the positive definite reduction target.

    Equal to the sum of the rank-|T_j| projections Q over the neighborhoods,
    which the tests resum from projection_Q as an independent route.  The
    readable Fraction view of the rows of scaled_schur(g), which refuses a
    disconnected graph; verify_graph, certify_majorization and
    majorization_report read those integer rows directly.
    """
    den, rows, _ = scaled_schur(g)
    return RationalMatrix([[Fraction(x, den) for x in row] for row in rows])
