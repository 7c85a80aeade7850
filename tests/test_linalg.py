"""Exact matrices: determinants against a cofactor oracle, Laplacians, projections."""

from fractions import Fraction
from math import prod

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ferrers.errors import DimensionError, DisconnectedGraph, IsolatedVertex
from ferrers.graphs import (
    DEFAULT_CAP,
    BipartiteGraph,
    DegreeData,
    degrees,
    enumerate_connected,
    is_connected,
)
from ferrers.linalg import (
    RationalMatrix,
    bareiss_det,
    leading_minors,
    matrix_M,
    projection_P,
    projection_Q,
    rat_str,
    scaled_schur,
)
from ferrers.verify import verify_pairs
from matrix_helpers import (
    adjugate,
    delete_row_col,
    identity,
    laplacian_rows,
    mul_vec,
    schur_LX,
    zeros,
)

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))


def cofactor_det(rows):
    """Textbook Laplace expansion. Exponential; the oracle for small dims only."""
    k = len(rows)
    if k == 1:
        return rows[0][0]
    total = Fraction(0)
    for c in range(k):
        if rows[0][c] == 0:
            continue
        minor = [[row[cc] for cc in range(k) if cc != c] for row in rows[1:]]
        sign = -1 if c % 2 else 1
        total += sign * rows[0][c] * cofactor_det(minor)
    return total


rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=6
)


def symmetric_rows(dim, rnd):
    """A random symmetric integer matrix with entries in -6..6."""
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for k in range(i, dim):
            rows[i][k] = rows[k][i] = rnd.randint(-6, 6)
    return rows


@st.composite
def square_matrices(draw, max_dim=4, min_dim=1):
    dim = draw(st.integers(min_dim, max_dim))
    rows = [[draw(rationals) for _ in range(dim)] for _ in range(dim)]
    return RationalMatrix(rows)


class TestBareiss:
    def test_known_values(self):
        assert bareiss_det([[5]]) == 5
        assert bareiss_det([[1, 2], [3, 4]]) == -2
        assert bareiss_det([[0, 1], [1, 0]]) == -1  # forces a pivot swap
        assert bareiss_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24

    def test_singular(self):
        assert bareiss_det([[1, 2], [2, 4]]) == 0
        assert bareiss_det([[0, 0], [0, 0]]) == 0
        # A zero column first, in the middle (no row to swap in) and last.
        for rows in (
            [[0, 1, 2], [0, 3, 4], [0, 5, 6]],
            [[1, 0, 2], [3, 0, 4], [5, 0, 7]],
            [[1, 2, 0], [3, 4, 0], [5, 6, 0]],
        ):
            assert bareiss_det([row[:] for row in rows]) == 0

    def test_permutation_sign(self):
        rows = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
        assert bareiss_det(rows) == 1

    def test_empty_matrix(self):
        # One elimination serves both functions: no pivot is determinant 1
        # and an empty list of minors.
        assert bareiss_det([]) == 1
        assert leading_minors([]) == []

    def test_zero_leading_entry_swaps_with_its_sign(self):
        # Nonsingular with a zero (0, 0) entry, so the elimination must swap:
        # once in the 3 x 3 (the sign flips), twice in the 4 x 4 (it does not).
        for rows, det in (
            ([[0, 2, 1], [3, 1, 4], [5, 0, 2]], 23),
            ([[0, 1, 2, 0], [0, 0, 3, 1], [4, 1, 0, 2], [1, 2, 1, 1]], 16),
        ):
            assert cofactor_det([[Fraction(v) for v in row] for row in rows]) == det
            assert bareiss_det([row[:] for row in rows]) == det

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_integer_matrices_match_cofactor(self, dim, rnd):
        rows = [[rnd.randint(-6, 6) for _ in range(dim)] for _ in range(dim)]
        expected = cofactor_det([[Fraction(v) for v in row] for row in rows])
        assert bareiss_det([row[:] for row in rows]) == expected


class TestLeadingMinors:
    def test_known_values(self):
        assert leading_minors([[5]]) == [5]
        assert leading_minors([[2, 1], [1, 2]]) == [2, 3]
        assert leading_minors([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == [2, 6, 24]

    def test_stops_at_a_zero_pivot_without_swapping(self):
        assert leading_minors([[0, 1], [1, 0]]) == [0]
        assert leading_minors([[1, 1, 0], [1, 1, 0], [0, 0, 1]]) == [1, 0]
        # Symmetric and nonsingular with a zero second pivot: the minors stop
        # there, where bareiss_det swaps and goes on.
        rows = [[1, 1, 1], [1, 1, 0], [1, 0, 1]]
        assert leading_minors([row[:] for row in rows]) == [1, 0]
        assert cofactor_det([[Fraction(v) for v in row] for row in rows]) == -1
        assert bareiss_det([row[:] for row in rows]) == -1

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_match_cofactor_minors(self, dim, rnd):
        rows = symmetric_rows(dim, rnd)
        expected = []
        for k in range(1, dim + 1):
            expected.append(cofactor_det([[Fraction(v) for v in row[:k]] for row in rows[:k]]))
            if expected[-1] == 0:
                break
        assert leading_minors([row[:] for row in rows]) == expected

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    def test_reads_only_the_upper_triangle(self, dim, rnd):
        # Junk below the diagonal changes no minor: the elimination reads
        # each row from its diagonal on.
        rows = symmetric_rows(dim, rnd)
        junk = [[rnd.randint(-50, 50) if k < i else x for k, x in enumerate(row)]
                for i, row in enumerate(rows)]
        assert leading_minors(junk) == leading_minors([row[:] for row in rows])

    def test_determinant_matches_sympy_above_the_brute_force_cap(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(20261018)
        checked = 0
        while checked < 12:
            m, n = rng.randint(5, 8), rng.randint(5, 8)
            g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
            if g.edge_count <= DEFAULT_CAP or not is_connected(g):
                continue
            den, rows, _ = scaled_schur(g)
            exact = sympy.Matrix(rows).det()
            minors = leading_minors([row[:] for row in rows])
            assert len(minors) == m
            assert minors[-1] == bareiss_det([row[:] for row in rows]) == exact
            assert minors == [sympy.Matrix(rows).extract(range(k), range(k)).det()
                              for k in range(1, m + 1)]
            checked += 1


class TestRationalMatrix:
    def test_validation(self):
        with pytest.raises(DimensionError):
            RationalMatrix([])
        with pytest.raises(DimensionError):
            RationalMatrix([[1, 2]])

    def test_arithmetic(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        b = identity(2)
        assert a + b == RationalMatrix([[2, 2], [3, 5]])
        assert a * b == a
        assert 2 * a == a.scale(2) == a * 2
        assert a * a == RationalMatrix([[7, 10], [15, 22]])

    def test_transpose_trace_symmetry(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        assert a.trace() == 5

    def test_mul_vec(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        assert mul_vec(a, (1, 1)) == (3, 7)
        with pytest.raises(DimensionError):
            mul_vec(a, (1, 1, 1))

    def test_constant(self):
        j = RationalMatrix.constant(2, Fraction(1, 2))
        assert j[(0, 1)] == Fraction(1, 2)
        assert j.trace() == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            identity(2) + identity(3)

    def test_delete_row_col(self):
        a = RationalMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        assert delete_row_col(a, 1) == RationalMatrix([[1, 3], [7, 9]])
        with pytest.raises(IndexError):
            delete_row_col(a, 3)
        with pytest.raises(DimensionError):
            delete_row_col(RationalMatrix([[1]]), 0)


class TestDeterminant:
    def test_known_values(self):
        assert identity(5).det_exact() == 1
        assert RationalMatrix([[1, 2], [3, 4]]).det_exact() == -2
        m = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 4), Fraction(1, 5)]])
        assert m.det_exact() == Fraction(1, 60)

    def test_laplacian_is_singular(self):
        assert RationalMatrix(laplacian_rows(K22)).det_exact() == 0

    @given(square_matrices())
    def test_matches_cofactor_oracle(self, m):
        assert m.det_exact() == cofactor_det([list(r) for r in m.rows])

    @given(square_matrices(max_dim=3))
    def test_multiplicative(self, m):
        prod = (m * m).det_exact()
        assert prod == m.det_exact() ** 2


class TestAdjugate:
    def test_identity(self):
        assert adjugate(identity(3)) == identity(3)

    def test_two_by_two(self):
        a = RationalMatrix([[1, 2], [3, 4]])
        assert adjugate(a) == RationalMatrix([[4, -2], [-3, 1]])

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionError):
            adjugate(RationalMatrix([[3]]))

    @given(square_matrices(max_dim=3, min_dim=2))
    def test_fundamental_identity(self, m):
        # M adj(M) = det(M) I, singular case included.
        lhs = m * adjugate(m)
        assert lhs == identity(m.dim).scale(m.det_exact())


class TestLaplacian:
    def test_single_edge(self):
        lap = RationalMatrix(laplacian_rows(BipartiteGraph(1, 1, (1,))))
        assert lap == RationalMatrix([[1, -1], [-1, 1]])

    def test_three_vertex_path(self):
        g = BipartiteGraph(2, 1, (0b11,))
        lap = RationalMatrix(laplacian_rows(g))
        assert lap == RationalMatrix([[1, 0, -1], [0, 1, -1], [-1, -1, 2]])

    @given(
        st.integers(1, 4).flatmap(
            lambda m: st.tuples(
                st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4)
            )
        )
    )
    def test_row_sums_vanish(self, mn):
        m, nbrs = mn
        lap = RationalMatrix(laplacian_rows(BipartiteGraph(m, len(nbrs), tuple(nbrs))))
        assert lap.rows == tuple(zip(*lap.rows))
        ones = tuple(Fraction(1) for _ in range(lap.dim))
        assert mul_vec(lap, ones) == tuple(Fraction(0) for _ in range(lap.dim))


class TestProjections:
    def test_pair_projection(self):
        p = projection_P(0b11, 2)
        h = Fraction(1, 2)
        assert p == RationalMatrix([[h, -h], [-h, h]])

    def test_zero_outside_support(self):
        p = projection_P(0b0101, 4)
        assert p[(1, 1)] == 0 and p[(3, 3)] == 0 and p[(0, 1)] == 0
        assert p[(0, 2)] == Fraction(-1, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            projection_P(0, 3)
        with pytest.raises(ValueError):
            projection_P(0b1000, 3)

    def test_singleton_q_is_uniform(self):
        assert projection_Q(0b01, 2) == RationalMatrix.constant(2, Fraction(1, 2))

    def test_full_support_q_is_identity(self):
        for m in (1, 2, 3, 4):
            assert projection_Q((1 << m) - 1, m) == identity(m)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_idempotent_with_right_trace(self, m):
        for bits in range(1, 1 << m):
            p, q = projection_P(bits, m), projection_Q(bits, m)
            assert p * p == p and q * q == q
            assert p.trace() == bits.bit_count() - 1
            assert q.trace() == bits.bit_count()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_p_annihilates_constants(self, m):
        uniform = RationalMatrix.constant(m, Fraction(1, m))
        ones = tuple(Fraction(1) for _ in range(m))
        for bits in range(1, 1 << m):
            p = projection_P(bits, m)
            assert mul_vec(p, ones) == tuple(Fraction(0) for _ in range(m))
            assert p * uniform == zeros(m)
            assert uniform * p == zeros(m)


class TestSchurComplement:
    def test_single_edge_collapses(self):
        assert schur_LX(BipartiteGraph(1, 1, (1,))) == zeros(1)

    def test_k22(self):
        assert schur_LX(K22) == RationalMatrix([[1, -1], [-1, 1]])

    def test_hexagon(self):
        h = Fraction(-1, 2)
        want = RationalMatrix([[1, h, h], [h, 1, h], [h, h, 1]])
        assert schur_LX(HEX) == want

    def test_isolated_y_rejected(self):
        with pytest.raises(IsolatedVertex):
            schur_LX(BipartiteGraph(2, 2, (0b11, 0)))

    def test_scaled_rows_match_the_laplacian_route(self):
        # (rows - D*n/m) / D from scaled_schur is L_X, here built from the
        # Laplacian blocks alone, on every connected labeled graph m*n <= 12.
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for g in enumerate_connected(m, n):
                    den, rows, _ = scaled_schur(g)
                    base = den * n // m
                    lx = RationalMatrix([[Fraction(x - base, den) for x in row] for row in rows])
                    assert lx == schur_LX(g)
                    checked += 1
        assert checked == 5743

    @given(st.data())
    def test_determinant_identity_with_full_laplacian(self, data):
        # det of a Laplacian minor factors through the reduced matrix:
        # minor_i(L) has det equal to prod(b) * det(minor_i(L_X)).
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        nbrs = tuple(data.draw(st.integers(1, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        lx = schur_LX(g)
        bs = prod(degrees(g).b)
        lap = RationalMatrix(laplacian_rows(g))
        for i in range(m):
            lhs = delete_row_col(lap, i).det_exact()
            if m == 1:
                rhs = bs  # empty minor of the reduced matrix has det 1
            else:
                rhs = bs * delete_row_col(lx, i).det_exact()
            assert lhs == rhs


class TestMatrixM:
    def test_single_edge(self):
        assert matrix_M(BipartiteGraph(1, 1, (1,))) == RationalMatrix([[1]])

    def test_k22_is_twice_identity(self):
        assert matrix_M(K22) == identity(2).scale(2)

    def test_hexagon(self):
        d, o = Fraction(2), Fraction(1, 2)
        want = RationalMatrix([[d, o, o], [o, d, o], [o, o, d]])
        assert matrix_M(HEX) == want
        assert matrix_M(HEX).det_exact() == Fraction(27, 4)

    def test_disconnected_rejected(self):
        # scaled_schur is the one guard; an isolated y leaves g disconnected.
        for build in (matrix_M, scaled_schur):
            for g in (BipartiteGraph(2, 2, (0b01, 0b10)), BipartiteGraph(2, 2, (0b11, 0))):
                with pytest.raises(DisconnectedGraph):
                    build(g)

    def test_corrupted_degrees_fail_the_downstream_checks(self, monkeypatch):
        # The build of D*M has no check of its own: one x-degree off by one
        # there fails the reduction identity and the majorization certificate
        # on every graph, since both read the degrees scaled_schur returns.
        # F reads them too, so it grows and every staircase, where tau = F
        # held, fails "equality"; tau <= F still holds.  The Laplacian
        # counts its own diagonal, so tau does not move.
        def corrupted(g):
            dd = degrees(g)
            return DegreeData(dd.a[:-1] + (dd.a[-1] + 1,), dd.b)

        clean = []
        verify_pairs([(3, 3)], emit=clean.append)
        monkeypatch.setattr("ferrers.linalg.degrees", corrupted)
        records = []
        s = verify_pairs([(3, 3)], fail_fast=False, emit=records.append)
        assert s.graphs_checked == len(clean) > 0
        staircases = sum(r["equality"] for r in clean)
        assert staircases == 73
        assert s.failure_counts == {
            "reduction": s.graphs_checked,
            "majorization": s.graphs_checked,
            "equality": staircases,
        }
        assert [r["tau"] for r in records] == [r["tau"] for r in clean]

    def test_hexagon_adjugate_of_reduced_matrix(self):
        # Reduced matrix of the hexagon has adjugate (3/4) J: rank-one, uniform.
        adj = adjugate(schur_LX(HEX))
        assert adj == RationalMatrix.constant(3, Fraction(3, 4))

    @given(st.data())
    def test_adjugate_of_reduced_matrix_is_uniform(self, data):
        # Connected input: the kernel is the constants, so the adjugate
        # must be a nonnegative multiple of the all-ones matrix.
        m = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(1, 3))
        nbrs = tuple(data.draw(st.integers(1, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        if not is_connected(g):
            return
        adj = adjugate(schur_LX(g))
        top = adj[(0, 0)]
        assert top > 0
        assert adj == RationalMatrix.constant(m, top)


class TestRatStr:
    def test_integers_keep_denominator(self):
        assert rat_str(Fraction(12)) == "12/1"
        assert rat_str(Fraction(0)) == "0/1"

    def test_reduced_and_sign_on_top(self):
        assert rat_str(Fraction(-3, 6)) == "-1/2"
        assert rat_str(Fraction(3, -6)) == "-1/2"
