"""Matrix constructors and cofactor tools that only the tests need.

The package builds its matrices from graphs; these plain functions give the
tests the zero and identity matrices, principal submatrices, the adjugate
and matrix-vector products of a RationalMatrix, and the reference route of
the deletion oracle on integer rows.
"""

from fractions import Fraction

from ferrers.errors import DimensionError, IdentityViolation
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
