"""Matrix constructors and cofactor tools that only the tests need.

The package builds its matrices from graphs; these plain functions give the
tests the zero and identity matrices, principal submatrices, the adjugate
and matrix-vector products of a RationalMatrix, the Schur complement L_X
built from the Laplacian alone, and the reference route of the deletion
oracle on integer rows.
"""

from fractions import Fraction

from ferrers.errors import DimensionError, IdentityViolation, IsolatedVertex
from ferrers.graphs import BipartiteGraph
from ferrers.linalg import RationalMatrix, bareiss_det, laplacian_rows


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
    """Reference deletion oracle: generic bareiss_det of the minor at every index 1..N-1.

    Each must equal t, the minor at index 0, or IdentityViolation is raised;
    returns t.  It makes no use of row or column sums, so it checks the
    one-minor oracle of tau_matrix_tree by a route that does not rely on
    the cofactor lemma.
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
