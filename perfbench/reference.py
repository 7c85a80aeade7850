"""Reference values computed without the ferrers package.

Everything here works on plain (m, n, nbrs) triples, where nbrs[j] is the
bitset of x-neighbors of y_j, and uses only the standard library.  The
routes are chosen to differ from the package's: tau comes from Fraction
Gaussian elimination (the package uses integer Bareiss), the staircase test
compares every pair of neighborhoods (the package sorts them into a chain),
and the sweep totals come from closed formulas, not from enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod


def degrees(m: int, nbrs: tuple[int, ...]) -> tuple[list[int], list[int]]:
    a = [sum((t >> i) & 1 for t in nbrs) for i in range(m)]
    b = [bin(t).count("1") for t in nbrs]
    return a, b


def degree_product(m: int, nbrs: tuple[int, ...]) -> int:
    a, b = degrees(m, nbrs)
    return prod(a) * prod(b)


def invariant(m: int, n: int, nbrs: tuple[int, ...]) -> Fraction:
    """F = prod(deg) / (m n)."""
    return Fraction(degree_product(m, nbrs), m * n)


def nested(m: int, nbrs: tuple[int, ...]) -> bool:
    """Every two neighborhoods comparable, none empty, and together covering X."""
    if any(t == 0 for t in nbrs):
        return False
    for s in nbrs:
        for t in nbrs:
            if s & t not in (s, t):
                return False
    union = 0
    for t in nbrs:
        union |= t
    return union == (1 << m) - 1


def connected(m: int, n: int, nbrs: tuple[int, ...]) -> bool:
    """Breadth-first search over vertices 0..m-1 (X) and m..m+n-1 (Y)."""
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for j, t in enumerate(nbrs):
        for i in range(m):
            if (t >> i) & 1:
                adj[i].append(m + j)
                adj[m + j].append(i)
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == m + n


def tau(m: int, n: int, nbrs: tuple[int, ...]) -> int:
    """Spanning-tree count: det of the Laplacian with vertex 0 removed, over Fraction."""
    d = m + n
    lap = [[Fraction(0)] * d for _ in range(d)]
    for j, t in enumerate(nbrs):
        for i in range(m):
            if (t >> i) & 1:
                y = m + j
                lap[i][i] += 1
                lap[y][y] += 1
                lap[i][y] -= 1
                lap[y][i] -= 1
    a = [row[1:] for row in lap[1:]]
    size = d - 1
    det = Fraction(1)
    for k in range(size):
        pivot_row = next((r for r in range(k, size) if a[r][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        pivot = a[k][k]
        det *= pivot
        for r in range(k + 1, size):
            factor = a[r][k] / pivot
            if factor:
                row_r, row_k = a[r], a[k]
                for c in range(k, size):
                    row_r[c] -= factor * row_k[c]
    if det.denominator != 1 or det < 0:
        raise ArithmeticError(f"elimination gave a non-count determinant {det}")
    return int(det)


def complete_tau(m: int, n: int) -> int:
    """Spanning trees of K_{m,n}: m^(n-1) n^(m-1)."""
    return m ** (n - 1) * n ** (m - 1)


@lru_cache(maxsize=None)
def connected_labeled(m: int, n: int) -> int:
    """Connected bipartite graphs on labeled parts of sizes m >= 1 and n >= 0.

    Inclusion-exclusion on the component of x_0: it holds i of the m
    x-vertices (x_0 among them) and j of the n y-vertices, and every edge
    between the rest is free.
    """
    if n == 0:
        return 1 if m == 1 else 0
    total = 2 ** (m * n)
    for i in range(1, m + 1):
        for j in range(0, n + 1):
            if (i, j) == (m, n):
                continue
            total -= (
                comb(m - 1, i - 1)
                * comb(n, j)
                * connected_labeled(i, j)
                * 2 ** ((m - i) * (n - j))
            )
    return total


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def lonesum_no_zero_line(m: int, n: int) -> int:
    """Brewbaker's count of m-by-n lonesum 0/1 matrices with no zero row or column.

    A lonesum matrix is one determined by its row and column sums, which for
    0/1 matrices means the columns are nested: exactly the staircase graphs.
    """
    return sum(
        factorial(j) ** 2 * stirling2(m, j) * stirling2(n, j) for j in range(1, min(m, n) + 1)
    )


def sweep_pairs(limit: int) -> list[tuple[int, int]]:
    """Every (m, n) with m, n >= 1 and m*n <= limit."""
    return [(m, n) for m in range(1, limit + 1) for n in range(1, limit // m + 1)]


def sweep_expectations(pairs: list[tuple[int, int]]) -> dict[str, int]:
    """Totals of a tally-mode campaign over the given (m, n) pairs."""
    graphs = sum(connected_labeled(m, n) for m, n in pairs)
    staircases = sum(lonesum_no_zero_line(m, n) for m, n in pairs)
    return {
        "graphs": graphs,
        "staircases": staircases,
        "masks": sum(2 ** (m * n) for m, n in pairs),
    }
