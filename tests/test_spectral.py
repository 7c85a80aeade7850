"""Jacobi eigensolver against numpy, overlap identities, majorization reports."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers.cli import main
from ferrers.errors import DisconnectedGraph, IdentityViolation, NonConvergence
from ferrers.graphs import (
    BipartiteGraph,
    PartitionSpec,
    degrees,
    enumerate_connected,
    ferrers_from_partition,
    write_graph,
)
from ferrers.linalg import bareiss_det, matrix_M, projection_Q, scaled_schur
from ferrers.spectral import (
    Spectrum,
    certify_majorization,
    eigen_sym,
    kyfan_check,
    majorization_report,
    overlap_defect,
    overlap_trace,
    report_dict,
)
from matrix_helpers import identity

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))
STAIR = ferrers_from_partition(PartitionSpec((3, 2, 1)))


def random_symmetric(rng, d, scale=5.0):
    a = [[rng.uniform(-scale, scale) for _ in range(d)] for _ in range(d)]
    return [[0.5 * (a[i][j] + a[j][i]) for j in range(d)] for i in range(d)]


def random_projection(rng, d, k):
    """Rank-k orthogonal projection from a Gram-Schmidt basis of random vectors."""
    basis = []
    while len(basis) < k:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        for u in basis:
            dot = sum(x * y for x, y in zip(v, u))
            v = [x - dot * y for x, y in zip(v, u)]
        norm = sum(x * x for x in v) ** 0.5
        if norm < 1e-6:
            continue
        basis.append([x / norm for x in v])
    return [
        [sum(u[i] * u[j] for u in basis) for j in range(d)] for i in range(d)
    ]


class TestEigenSym:
    def test_diagonal(self):
        s = eigen_sym([[1.0, 0.0], [0.0, 3.0]])
        assert s.values == (3.0, 1.0)
        assert s.residual == 0.0

    def test_dimension_one(self):
        assert eigen_sym([[5.0]]).values == (5.0,)

    def test_identity(self):
        assert eigen_sym(identity(4).to_floats()).values == (1.0,) * 4

    def test_two_by_two_by_hand(self):
        s = eigen_sym([[2.0, 1.0], [1.0, 2.0]])
        assert s.values[0] == pytest.approx(3.0, abs=1e-12)
        assert s.values[1] == pytest.approx(1.0, abs=1e-12)

    def test_hexagon_spectrum(self):
        s = eigen_sym(matrix_M(HEX).to_floats())
        assert s.values[0] == pytest.approx(3.0, abs=1e-9)
        assert s.values[1] == pytest.approx(1.5, abs=1e-9)
        assert s.values[2] == pytest.approx(1.5, abs=1e-9)

    def test_k22_spectrum(self):
        s = eigen_sym(matrix_M(K22).to_floats())
        assert s.values == pytest.approx((2.0, 2.0), abs=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eigen_sym([[1.0, 2.0]])

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError):
            eigen_sym([[1.0, 2.0], [0.0, 1.0]])

    def test_unreachable_tolerance_reported(self, monkeypatch):
        # A tolerance below any attainable residual must surface as NonConvergence.
        monkeypatch.setattr("ferrers.spectral.FLOAT_TOL", -1.0)
        with pytest.raises(NonConvergence):
            eigen_sym(matrix_M(HEX).to_floats())

    def test_sweep_cap_raises(self, monkeypatch):
        # One sweep rotates a non-diagonal 3 x 3 and so never sees a quiet
        # sweep; the cap ends the loop with NonConvergence.
        monkeypatch.setattr("ferrers.spectral.MAX_SWEEPS", 1)
        with pytest.raises(NonConvergence, match="no convergence after 1 Jacobi sweeps"):
            eigen_sym([[2.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 1.0]])

    def test_vectors_are_orthonormal(self):
        rng = random.Random(11)
        for d in (2, 4, 6):
            s = eigen_sym(random_symmetric(rng, d))
            for i in range(d):
                for j in range(i, d):
                    dot = sum(x * y for x, y in zip(s.vectors[i], s.vectors[j]))
                    assert dot == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_matches_numpy(self):
        np = pytest.importorskip("numpy")
        rng = random.Random(23)
        for d in (2, 3, 5, 6):
            mat = random_symmetric(rng, d, scale=10.0)
            ours = eigen_sym(mat).values
            ref = sorted(np.linalg.eigvalsh(np.array(mat)), reverse=True)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_eigenvalue_product_matches_exact_determinant(self):
        for g in (HEX, K22, STAIR, BipartiteGraph(2, 3, (0b11, 0b11, 0b01))):
            m = matrix_M(g)
            prod = 1.0
            for v in eigen_sym(m.to_floats()).values:
                prod *= v
            assert prod == pytest.approx(float(m.det_exact()), rel=1e-8)

    @given(st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_spectral_contract(self, d, rnd):
        mat = random_symmetric(rnd, d)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("ferrers.spectral.FLOAT_TOL", 1e-8)
            s = eigen_sym(mat)
        assert all(s.values[i] >= s.values[i + 1] for i in range(d - 1))
        trace = sum(mat[i][i] for i in range(d))
        assert sum(s.values) == pytest.approx(trace, abs=1e-8)
        assert s.residual <= 1e-8


class TestOverlap:
    def test_frozen_example(self):
        assert overlap_trace(0b011, 0b110, 3) == Fraction(5, 4)
        assert overlap_defect(0b011, 0b110) == Fraction(1, 4)

    def test_nested_has_no_defect(self):
        assert overlap_defect(0b001, 0b011) == 0
        assert overlap_trace(0b001, 0b011, 3) == 1

    def test_equal_sets(self):
        assert overlap_trace(0b101, 0b101, 3) == 2
        assert overlap_defect(0b101, 0b101) == 0

    def test_disjoint_singletons(self):
        assert overlap_defect(0b01, 0b10) == 1
        assert overlap_trace(0b01, 0b10, 2) == 1

    def test_symmetry(self):
        for i in range(1, 16):
            for t in range(1, 16):
                assert overlap_defect(i, t) == overlap_defect(t, i)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            overlap_defect(0, 1)
        with pytest.raises(ValueError):
            overlap_trace(1, 0, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            overlap_trace(0b100, 0b001, 2)

    def test_closed_form_equals_matrix_trace_exhaustively(self):
        m = 4
        for i in range(1, 1 << m):
            for t in range(1, 1 << m):
                value = overlap_trace(i, t, m)
                assert value == (projection_Q(i, m) * projection_Q(t, m)).trace()

    def test_exact_check_capped_on_the_ground_set(self):
        # The integer check has no cap on the ground set.
        assert overlap_trace(1, 1, 21) == 1
        low, high = (1 << 100) - 1, (1 << 200) - (1 << 50)
        assert overlap_trace(low, high, 200) == 50 + Fraction(50 * 100, 100 * 150)

    def test_check_fires_on_a_wrong_closed_form(self, monkeypatch):
        def wrong(i, t):
            return overlap_defect(i, t) + 1

        monkeypatch.setattr("ferrers.spectral.overlap_defect", wrong)
        with pytest.raises(IdentityViolation, match="closed-form overlap 9/4 vs exact trace 5/4"):
            overlap_trace(0b011, 0b110, 3)

    def test_zero_defect_means_nested(self):
        m = 4
        for i in range(1, 1 << m):
            for t in range(1, 1 << m):
                nested = (i & t) == i or (i & t) == t
                assert (overlap_defect(i, t) == 0) == nested
                assert overlap_defect(i, t) >= 0


class TestKyFan:
    def test_axis_projections_on_diagonal(self):
        s = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        top = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        bottom = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert kyfan_check(s, top, 1)
        assert kyfan_check(s, bottom, 1)

    def test_full_rank_projection_is_trace(self):
        s = [[3.0, 1.0], [1.0, 2.0]]
        assert kyfan_check(s, [[1.0, 0.0], [0.0, 1.0]], 2)

    def test_exact_projections_accepted(self):
        assert kyfan_check(matrix_M(HEX).to_floats(), projection_Q(0b011, 3).to_floats(), 2)

    def test_rank_mismatch_rejected(self):
        eye = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            kyfan_check(eye, [[1.0, 0.0], [0.0, 0.0]], 2)  # trace 1, claimed rank 2

    def test_non_projection_rejected(self):
        s = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            kyfan_check(s, [[0.5, 0.0], [0.0, 0.5]], 1)  # not idempotent
        with pytest.raises(ValueError):
            kyfan_check(s, [[1.0, 1.0], [0.0, 0.0]], 1)  # not symmetric

    def test_rank_out_of_range(self):
        s = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(ValueError):
            kyfan_check(s, s, 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kyfan_check([[1.0]], [[1.0, 0.0], [0.0, 0.0]], 1)

    def test_ragged_projection_rejected(self):
        with pytest.raises(ValueError, match="P must be square"):
            kyfan_check([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0]], 1)

    def test_bound_check_fires_on_lowered_eigenvalues(self, monkeypatch):
        # Every eigenvalue one lower puts tr(PS) = 3 above the top-1 sum 2.
        def lowered(mat):
            s = eigen_sym(mat)
            return Spectrum(tuple(v - 1.0 for v in s.values), s.vectors, s.residual)

        monkeypatch.setattr("ferrers.spectral.eigen_sym", lowered)
        s = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        top = [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        with pytest.raises(IdentityViolation, match="exceeds the top-1 eigenvalue sum"):
            kyfan_check(s, top, 1)

    def test_attainment_check_fires_on_swapped_vectors(self, monkeypatch):
        # With the first two eigenvectors swapped the top-1 projection attains
        # 2, not the top eigenvalue 3; the bound check passes on its own.
        def swapped(mat):
            s = eigen_sym(mat)
            return Spectrum(s.values, (s.vectors[1], s.vectors[0]) + s.vectors[2:], s.residual)

        monkeypatch.setattr("ferrers.spectral.eigen_sym", swapped)
        s = [[3.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        bottom = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(IdentityViolation, match="top-1 eigenprojection attains 2.0"):
            kyfan_check(s, bottom, 1)

    def test_random_projections_never_beat_the_bound(self):
        rng = random.Random(37)
        for _ in range(20):
            d = rng.randint(2, 6)
            k = rng.randint(1, d)
            assert kyfan_check(random_symmetric(rng, d), random_projection(rng, d, k), k)


class TestMajorization:
    def test_hexagon_frozen_numbers(self):
        rep = majorization_report(HEX)
        assert rep.a_sorted == (2, 2, 2)
        assert rep.partial_gaps == pytest.approx((1.0, 0.5), abs=1e-9)
        assert rep.defect_sums == (Fraction(1), Fraction(1, 2))
        assert rep.trace_gap == pytest.approx(0.0, abs=1e-9)
        assert rep.majorizes

    def test_staircase_is_tight(self):
        rep = majorization_report(STAIR)
        assert rep.a_sorted == (3, 2, 1)
        assert rep.spectrum.values == pytest.approx((3.0, 2.0, 1.0), abs=1e-9)
        assert rep.defect_sums == (Fraction(0), Fraction(0))
        assert rep.partial_gaps == pytest.approx((0.0, 0.0), abs=1e-9)
        assert rep.majorizes

    def test_k22(self):
        rep = majorization_report(K22)
        assert rep.partial_gaps == pytest.approx((0.0,), abs=1e-9)
        assert rep.majorizes

    def test_single_x_vertex(self):
        rep = majorization_report(BipartiteGraph(1, 3, (1, 1, 1)))
        assert rep.partial_gaps == ()
        assert rep.a_sorted == (3,)
        assert rep.majorizes

    def test_a_sorted_weakly_decreasing(self):
        g = BipartiteGraph(3, 2, (0b101, 0b110))
        rep = majorization_report(g)
        assert rep.a_sorted == (2, 1, 1)
        assert all(
            rep.a_sorted[i] >= rep.a_sorted[i + 1] for i in range(len(rep.a_sorted) - 1)
        )

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            majorization_report(BipartiteGraph(2, 2, (0b01, 0b10)))

    def test_precomputed_matrix_accepted(self, monkeypatch):
        # The report reads its rows and degrees from scaled_schur alone.
        triple = scaled_schur(HEX)
        sound = report_dict(majorization_report(HEX))
        monkeypatch.setattr("ferrers.spectral.scaled_schur", lambda g: triple)
        rep = majorization_report(HEX)
        assert rep.majorizes
        assert report_dict(rep) == sound

    def test_gap_dominates_defect_everywhere(self):
        # Ky Fan's bound, read off the float numbers of each report.
        for m, n in ((2, 2), (3, 2), (3, 3)):
            for g in enumerate_connected(m, n):
                rep = majorization_report(g)
                assert rep.majorizes
                for gap, defect in zip(rep.partial_gaps, rep.defect_sums):
                    assert gap >= float(defect) - 1e-9

    def test_perturbed_trace_refused_exactly(self, monkeypatch, tmp_path, capsys):
        # M + tol*I with tol = p/q is the integer pair (D*q, q*(D*M) + p*D*I):
        # its Jacobi trace gap, 3e-9, is within any float tolerance on the
        # hexagon, but the exact tr(D*M) check refuses it, and so does the verb.
        tol = 1e-9
        p, q = Fraction(tol).as_integer_ratio()
        den, rows, dd = scaled_schur(HEX)
        perturbed = [
            [q * x + (p * den if i == k else 0) for k, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]
        monkeypatch.setattr("ferrers.spectral.scaled_schur", lambda g: (den * q, perturbed, dd))
        with pytest.raises(IdentityViolation, match=r"tr\(D\*M\) differs"):
            majorization_report(HEX)
        path = tmp_path / "hex.txt"
        path.write_text(write_graph(HEX))
        assert main(["spectrum", str(path)]) == 1
        assert capsys.readouterr().out == ""

    def test_wrong_matrix_caught(self, monkeypatch):
        # Feeding the wrong M must trip one of the exact consistency checks.
        identity = [[1 if i == k else 0 for k in range(3)] for i in range(3)]
        monkeypatch.setattr("ferrers.spectral.scaled_schur", lambda g: (1, identity, degrees(HEX)))
        with pytest.raises(IdentityViolation):
            majorization_report(HEX)

    def test_defect_sums_match_overlap_defect(self):
        # Reference: the defect sum at k adds overlap_defect of the top-k
        # prefix against every neighborhood, one Fraction at a time.
        for m, n in ((3, 3), (2, 4), (4, 2)):
            for g in enumerate_connected(m, n):
                rep = majorization_report(g)
                a = degrees(g).a
                order = sorted(range(m), key=lambda i: (-a[i], i))
                assert rep.a_sorted == tuple(a[i] for i in order)
                for k in range(1, m):
                    prefix = sum(1 << i for i in order[:k])
                    expected = sum((overlap_defect(prefix, t) for t in g.nbrs), Fraction(0))
                    assert rep.defect_sums[k - 1] == expected


class TestCertifyMajorization:
    def test_hexagon_minors(self):
        # D*M = [[12, 3, 3], [3, 12, 3], [3, 3, 12]] with D = 6; det M = 27/4.
        assert certify_majorization(HEX, scaled_schur(HEX)) == [12, 135, 1458]
        assert Fraction(1458, 6**3) == matrix_M(HEX).det_exact()

    def test_every_small_graph_certified(self):
        for m, n in ((1, 3), (2, 2), (3, 2), (3, 3), (2, 4), (4, 2)):
            for g in enumerate_connected(m, n):
                scaled = scaled_schur(g)
                minors = certify_majorization(g, scaled)
                assert len(minors) == m and all(p > 0 for p in minors)
                assert minors[-1] == bareiss_det(scaled[1])

    def test_precomputed_rows_accepted_and_left_unchanged(self):
        den, rows, dd = scaled_schur(HEX)
        before = [row[:] for row in rows]
        assert certify_majorization(HEX, (den, rows, dd)) == [12, 135, 1458]
        assert rows == before

    def test_disconnected_rejected(self):
        g = BipartiteGraph(2, 2, (0b01, 0b10))
        with pytest.raises(DisconnectedGraph):
            certify_majorization(g, scaled_schur(g))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_perturbed_off_diagonal_pair_caught(self, delta):
        den, rows, dd = scaled_schur(HEX)
        rows[0][1] += delta
        rows[1][0] += delta
        with pytest.raises(IdentityViolation, match="at k=1"):
            certify_majorization(HEX, (den, rows, dd))

    def test_sunk_diagonal_entry_caught(self):
        den, rows, dd = scaled_schur(HEX)
        rows[2][2] -= 10**6
        with pytest.raises(IdentityViolation, match="tr"):
            certify_majorization(HEX, (den, rows, dd))

    def test_trace_checked_on_its_own(self):
        # +2 on the last vertex's diagonal, -1 on its pair with vertex 0: the
        # sum of R and every prefix identity stay as they were, the trace does not.
        den, rows, dd = scaled_schur(HEX)
        rows[2][2] += 2
        rows[0][2] -= 1
        rows[2][0] -= 1
        with pytest.raises(IdentityViolation, match=r"tr\(D\*M\)"):
            certify_majorization(HEX, (den, rows, dd))

    def test_asymmetric_rows_caught(self):
        den, rows, dd = scaled_schur(HEX)
        rows[0][1] += 1
        rows[0][2] -= 1
        with pytest.raises(IdentityViolation, match="not symmetric"):
            certify_majorization(HEX, (den, rows, dd))

    def test_zero_leading_minor_caught_without_row_swap(self):
        # The hexagon's D*M plus a symmetric perturbation that keeps the trace
        # and every prefix identity, so only Sylvester's criterion can object.
        # The leading 1x1 minor is 0 while the determinant is positive: a
        # swapped elimination would see det > 0 and miss the indefinite matrix.
        rows = [[0, -5, -5], [-5, 8, 19], [-5, 19, 28]]
        assert bareiss_det([row[:] for row in rows]) == 50
        with pytest.raises(IdentityViolation, match=r"leading minors \[0\]"):
            certify_majorization(HEX, (6, rows, degrees(HEX)))

    def test_wrong_matrix_caught(self):
        identity = [[1 if i == k else 0 for k in range(3)] for i in range(3)]
        with pytest.raises(IdentityViolation):
            certify_majorization(HEX, (1, identity, degrees(HEX)))


class TestReportDict:
    def test_keys_and_exact_fields(self):
        d = report_dict(majorization_report(HEX))
        assert set(d) == {
            "lambda",
            "a_sorted",
            "partial_gaps",
            "defect_sums",
            "trace_gap",
            "majorizes",
        }
        assert d["defect_sums"] == ["1/1", "1/2"]
        assert d["a_sorted"] == [2, 2, 2]
        assert d["majorizes"] is True
