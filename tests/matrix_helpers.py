"""Matrix constructors and cofactor tools that only the tests need.

The package builds its matrices from graphs; these plain functions give the
tests the zero and identity matrices, principal submatrices, the adjugate
and matrix-vector products of a RationalMatrix, the full (m+n)^2 integer
Laplacian (the package builds only short-side blocks), the Schur complement
L_X built from that Laplacian alone, every deletion minor of integer rows
(a reference route for the closed-form tree count), the spanning-tree
list behind the reference route of the weighted corollary, and a
union-find connectivity test that reads only a mask's bits.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import prod

from ferrers.errors import DimensionError, IdentityViolation, IsolatedVertex
from ferrers.graphs import BipartiteGraph, bit_indices, is_connected
from ferrers.linalg import RationalMatrix, bareiss_det


def zeros(dim: int) -> RationalMatrix:
    return RationalMatrix.constant(dim, 0)


def identity(dim: int) -> RationalMatrix:
    return RationalMatrix([[1 if i == k else 0 for k in range(dim)] for i in range(dim)])


def mul_vec(mat: RationalMatrix, vec) -> tuple[Fraction, ...]:
    if len(vec) != mat.dim:
        raise DimensionError(f"vector length {len(vec)} does not match dim {mat.dim}")
    v = [Fraction(x) for x in vec]
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in mat.rows)


def minor(mat: RationalMatrix, r: int, c: int) -> RationalMatrix:
    """The matrix with row r and column c removed."""
    return RationalMatrix(
        [[x for k, x in enumerate(row) if k != c] for j, row in enumerate(mat.rows) if j != r]
    )


def delete_row_col(mat: RationalMatrix, i: int) -> RationalMatrix:
    """Principal submatrix with row i and column i removed."""
    if mat.dim < 2:
        raise DimensionError("cannot delete from a 1x1 matrix")
    if not 0 <= i < mat.dim:
        raise IndexError(f"index {i} out of range 0..{mat.dim - 1}")
    return minor(mat, i, i)


def adjugate(mat: RationalMatrix) -> RationalMatrix:
    """Transposed cofactor matrix, from minors.

    Satisfies M * adj(M) = det(M) * I, also when M is singular.
    """
    if mat.dim < 2:
        raise DimensionError("adjugate needs dim >= 2")
    d = mat.dim
    return RationalMatrix(
        [[(-1) ** (i + j) * minor(mat, j, i).det_exact() for j in range(d)] for i in range(d)]
    )


def laplacian_rows(g: BipartiteGraph) -> list[list[int]]:
    """Integer Laplacian on X then Y: -1 per edge, the diagonal counted in the same loop."""
    d = g.m + g.n
    rows = [[0] * d for _ in range(d)]
    for y, t in enumerate(g.nbrs, start=g.m):
        for i in bit_indices(t):
            rows[i][y] = rows[y][i] = -1
            rows[i][i] += 1
            rows[y][y] += 1
    return rows


def schur_LX(g: BipartiteGraph) -> RationalMatrix:
    """Schur complement L_X = A - B C^(-1) B^T of the Laplacian onto the X block.

    A, B and C = diag(b) are read off laplacian_rows(g), so this shares no
    code with scaled_schur or degrees and is an independent reference for
    the rows of D*M.  A zero b_j makes C singular and raises IsolatedVertex;
    a disconnected graph with every b_j > 0 is accepted.
    """
    m = g.m
    lap = laplacian_rows(g)
    b = [lap[y][y] for y in range(m, m + g.n)]
    if 0 in b:
        raise IsolatedVertex("a y-vertex has degree zero, so the C block is singular")
    return RationalMatrix(
        [
            [
                lap[i][k] - sum(Fraction(lap[i][y] * lap[k][y], bj) for y, bj in enumerate(b, m))
                for k in range(m)
            ]
            for i in range(m)
        ]
    )


def every_deletion_minor(lap: list[list[int]], t: int) -> int:
    """Generic bareiss_det of the minor at every index 1..N-1 of lap.

    Each must equal t, the minor at index 0, or IdentityViolation is raised;
    returns t.  It makes no use of row or column sums, so the tests check
    the closed form of tau_matrix_tree against every deletion of the
    Laplacian without relying on the cofactor lemma.
    """
    for drop in range(1, len(lap)):
        minor = [row[:drop] + row[drop + 1 :] for r, row in enumerate(lap) if r != drop]
        other = bareiss_det(minor)
        if other != t:
            raise IdentityViolation(
                f"minor determinant depends on the deleted vertex: "
                f"{t} at 0 vs {other} at {drop}"
            )
    return t


def spanning_trees(g: BipartiteGraph) -> list[frozenset]:
    """Every spanning tree of g as a frozenset of (x index, y index) edges.

    Keeps each (m+n-1)-edge subset whose graph is connected, which with
    m+n-1 edges on m+n vertices makes it a tree.  It shares no code with
    the union-find of tau_brute_force.
    """
    trees = []
    for combo in combinations(g.edges(), g.m + g.n - 1):
        nbrs = [0] * g.n
        for i, j in combo:
            nbrs[j] |= 1 << i
        if is_connected(BipartiteGraph(g.m, g.n, tuple(nbrs))):
            trees.append(frozenset(combo))
    return trees


def corollary_sides(g: BipartiteGraph, z) -> tuple[Fraction, Fraction]:
    """Reference sides of the weighted corollary, summed over the listed trees.

    Left: (sum over trees of prod_v z_v^(deg_T(v) - 1)) * (sum over X) *
    (sum over Y).  Right: prod_v (sum of z over the neighbors of v).  Trees
    with the same degree sequence have the same term, so each term is
    taken once and counted.
    """
    weights = [Fraction(x) for x in z]
    xw, yw = weights[: g.m], weights[g.m :]
    shapes = Counter()
    for tree in spanning_trees(g):
        deg = [0] * (g.m + g.n)
        for i, j in tree:
            deg[i] += 1
            deg[g.m + j] += 1
        shapes[tuple(deg)] += 1
    tree_sum = Fraction(0)
    for deg, count in shapes.items():
        num = prod(w.numerator ** (d - 1) for w, d in zip(weights, deg))
        den = prod(w.denominator ** (d - 1) for w, d in zip(weights, deg))
        tree_sum += Fraction(count * num, den)
    rhs = Fraction(1)
    for i in range(g.m):
        rhs *= sum(yw[j] for j, t in enumerate(g.nbrs) if (t >> i) & 1)
    for t in g.nbrs:
        rhs *= sum(xw[i] for i in range(g.m) if (t >> i) & 1)
    return tree_sum * sum(xw) * sum(yw), rhs


def union_find_connected(m: int, n: int, mask: int) -> bool:
    """Whether the graph of a column-wise mask is connected, by union-find over its bits alone."""
    parent = list(range(m + n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for bit in range(m * n):
        if mask >> bit & 1:
            parent[find(bit % m)] = find(m + bit // m)
    return len({find(v) for v in range(m + n)}) == 1
