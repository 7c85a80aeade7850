"""Spanning tree counts: matrix-tree vs exhaustive search, the degree-product bound."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ferrers.trees
from ferrers.errors import CapExceeded, DisconnectedGraph, IdentityViolation, IsolatedVertex
from ferrers.graphs import (
    BipartiteGraph,
    PartitionSpec,
    _covers,
    _transpose,
    enumerate_connected,
    ferrers_from_partition,
    graph_from_mask,
    is_connected,
)
from ferrers.linalg import bareiss_det, leading_minors, matrix_M, scaled_schur
from ferrers.spectral import certify_majorization
from ferrers.trees import (
    _tree_table,
    check_reduction,
    ferrers_invariant,
    tau_brute_force,
    tau_matrix_tree,
)
from ferrers.verify import _CHUNK_MASKS, verify_graph
from matrix_helpers import every_deletion_minor, laplacian_rows, spanning_trees

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))
K23 = BipartiteGraph(2, 3, (0b11, 0b11, 0b11))
PATH4 = BipartiteGraph(2, 2, (0b11, 0b10))
STAIR = ferrers_from_partition(PartitionSpec((3, 2, 1)))


def complete(m, n):
    return BipartiteGraph(m, n, ((1 << m) - 1,) * n)


def generic_minor_at_x0(g):
    """Oracle: bareiss_det of the whole Laplacian minor sliced at x_0."""
    return bareiss_det([row[1:] for row in laplacian_rows(g)[1:]])


def seeded_graphs(seed, count, sizes):
    """count connected graphs with (m, n) drawn from sizes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m, n = rng.choice(sizes)
        g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
        if is_connected(g):
            out.append(g)
    return out


def spans(g, edge_set):
    """Oracle: does this edge subset connect every vertex of g?"""
    parent = list(range(g.m + g.n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in edge_set:
        parent[find(i)] = find(g.m + j)
    return len({find(v) for v in range(g.m + g.n)}) == 1


class TestMatrixTree:
    @pytest.mark.parametrize(
        "g,count",
        [
            (BipartiteGraph(1, 1, (1,)), 1),
            (K22, 4),
            (HEX, 6),
            (K23, 12),
            (PATH4, 1),
            (BipartiteGraph(2, 1, (0b11,)), 1),
            (STAIR, 4),
        ],
    )
    def test_known_counts(self, g, count):
        assert tau_matrix_tree(g) == count

    def test_disconnected_is_zero(self):
        assert tau_matrix_tree(BipartiteGraph(2, 2, (0b01, 0b10))) == 0
        assert tau_matrix_tree(BipartiteGraph(1, 2, (1, 0))) == 0

    def test_covered_disconnected_graphs_count_zero(self, monkeypatch):
        # No isolated vertex, so the count builds its block, but more than
        # one component, so D*S is singular.  It is positive semidefinite,
        # so a zero leading minor before the last row already means det 0:
        # every such graph with m*n <= 12 counts 0, as the brute force does,
        # and both ways for the minors to end are taken.
        ends = Counter()

        def recording(rows):
            minors = leading_minors(rows)
            ends["early" if len(minors) < len(rows) else "last"] += 1
            return minors

        monkeypatch.setattr(ferrers.trees, "leading_minors", recording)
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for mask in range(1 << (m * n)):
                    g = graph_from_mask(m, n, mask)
                    if _covers(m, g.nbrs) and not is_connected(g):
                        assert tau_matrix_tree(g) == 0 == tau_brute_force(g), (m, n, mask)
        assert ends == {"early": 586, "last": 432}

    @pytest.mark.parametrize(
        "g,count",
        [
            (BipartiteGraph(1, 3, (1, 1, 1)), 1),  # m = 1: no X block to eliminate
            (BipartiteGraph(1, 3, (1, 0, 1)), 0),  # m = 1 with an isolated y
            (BipartiteGraph(3, 2, (0b110, 0b110)), 0),  # isolated x_0, the deleted vertex
            (BipartiteGraph(3, 2, (0b011, 0b011)), 0),  # isolated x_2, a zero row of the minor
            (BipartiteGraph(3, 2, (0b111, 0b110)), 4),  # a pendant x_0 on a 4-cycle
        ],
    )
    def test_closed_form_edge_cases(self, g, count):
        assert tau_matrix_tree(g) == count == generic_minor_at_x0(g)

    def test_closed_form_matches_generic_minor_exhaustively(self):
        # Every labeled graph with m*n <= 12, connected or not.  The
        # all-minors reference does not fire and gives the generic minor at
        # x_0 of the whole Laplacian; the count, the Schur block at y_0 on
        # the short side, must equal it for the graph and its transpose.
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for mask in range(1 << (m * n)):
                    g = graph_from_mask(m, n, mask)
                    t = generic_minor_at_x0(g)
                    assert tau_matrix_tree(g) == t, (m, n, mask)
                    assert tau_matrix_tree(_transpose(g)) == t, (m, n, mask)
                    assert every_deletion_minor(laplacian_rows(g), t) == t, (m, n, mask)

    @pytest.mark.parametrize("m,n", list(product(range(1, 11), range(1, 11))))
    def test_complete_bipartite_closed_form(self, m, n):
        assert tau_matrix_tree(complete(m, n)) == m ** (n - 1) * n ** (m - 1)

    @pytest.mark.parametrize("m,n", list(product(range(2, 11), range(2, 11))))
    def test_complete_bipartite_minus_two_disjoint_edges(self, m, n):
        # The non-staircase graph with the largest tau/F seen so far; at m
        # or n = 2 the negative powers cancel, so the value is a Fraction.
        g = BipartiteGraph(m, n, ((1 << m) - 2, (1 << m) - 3) + ((1 << m) - 1,) * (n - 2))
        k = m * n - m - n
        assert tau_matrix_tree(g) == Fraction(m) ** (n - 3) * Fraction(n) ** (m - 3) * k * (k + 2)

    def test_all_deletions_agree(self):
        for g in (K22, HEX, K23, STAIR, PATH4):
            t = tau_matrix_tree(g)
            assert every_deletion_minor(laplacian_rows(g), t) == t

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda det: det + 1, "not a multiple of D\\^m = 27"),
            (lambda det: -det, "negative Laplacian minor determinant -81"),
        ],
    )
    def test_wrong_block_determinant_caught(self, monkeypatch, fault, message):
        # K_{3,3}: D = 3, prod(b) = 9 and det(D*S) = det(9I - 2J) = 243, so tau = 81.
        # The fault hits det(D*S), the last leading minor.
        def faulty(rows):
            *head, last = leading_minors(rows)
            return [*head, fault(last)]

        monkeypatch.setattr(ferrers.trees, "leading_minors", faulty)
        with pytest.raises(IdentityViolation, match=message):
            tau_matrix_tree(complete(3, 3))

    def test_count_reads_no_degrees(self, monkeypatch):
        # The count puts the x-degrees on its block's diagonal as it places
        # the neighborhoods, so the tree count, the left side of the bound,
        # shares no code with F on the right, nor with the rows of D*M that
        # the reduction compares it against.
        graphs = [graph_from_mask(3, 3, mask) for mask in range(1 << 9)]
        expected = [tau_matrix_tree(g) for g in graphs]

        def refuse(g):
            raise AssertionError("tau_matrix_tree read the degrees or D*M")

        for module in ("graphs", "linalg", "trees"):
            monkeypatch.setattr(f"ferrers.{module}.degrees", refuse)
        assert not hasattr(ferrers.trees, "scaled_schur")
        assert [tau_matrix_tree(g) for g in graphs] == expected
        assert expected[0b101110011] == 6  # the hexagon

    def test_transpose_has_the_same_count(self):
        # tau is symmetric in the two parts, and the count eliminates
        # whichever side is larger: every connected labeled graph with
        # m*n <= 12, then seeded graphs up to (6, 10) and (10, 6).
        checked = [
            g
            for m in range(1, 13)
            for n in range(1, 12 // m + 1)
            for g in enumerate_connected(m, n)
        ]
        sizes = [(m, n) for m in range(1, 11) for n in range(1, 11) if min(m, n) <= 6]
        checked += seeded_graphs(17, 200, sizes)
        assert any(g.n > g.m for g in checked) and any(g.m > g.n for g in checked)
        for g in checked:
            t = tau_matrix_tree(g)
            h = _transpose(g)
            assert t > 0
            assert tau_matrix_tree(h) == t, g

    def test_bareiss_runs_on_the_smaller_side(self, monkeypatch):
        sizes = []

        def recording(rows):
            sizes.append(len(rows))
            return leading_minors(rows)

        monkeypatch.setattr(ferrers.trees, "leading_minors", recording)
        for g in seeded_graphs(5, 60, [(m, n) for m in range(1, 11) for n in range(1, 11)]):
            sizes.clear()
            tau_matrix_tree(g)
            assert sizes == [min(g.m, g.n)], (g.m, g.n)

    @pytest.mark.parametrize("reversed_labels", [False, True])
    @pytest.mark.parametrize(
        "g",
        [
            BipartiteGraph(100000, 1, (1,)),  # x_1..x_99999 in no neighborhood
            BipartiteGraph(1, 100000, (1,) + (0,) * 99999),  # y_1.. with no neighbor
        ],
        ids=["isolated-x", "isolated-y"],
    )
    def test_isolated_vertex_builds_no_matrix(self, monkeypatch, g, reversed_labels):
        # A header alone must not make the count build its block, wherever
        # the isolated vertices sit: reversing both sides' labels moves them
        # from the end of each side to its start.
        if reversed_labels:
            g = BipartiteGraph(
                g.m, g.n, tuple(int(format(t, f"0{g.m}b")[::-1], 2) for t in reversed(g.nbrs))
            )
            assert not g.nbrs[0] & 1  # x_0 is in no neighborhood, or y_0 has none

        def refuse(arg):
            raise AssertionError("tau_matrix_tree built its block")

        monkeypatch.setattr(ferrers.trees, "bit_indices", refuse)
        monkeypatch.setattr(ferrers.trees, "leading_minors", refuse)
        assert tau_matrix_tree(g) == 0


class TestBruteForce:
    # The tree lists come from the tests' own helper; tau_brute_force returns the count.
    def test_single_edge(self):
        g = BipartiteGraph(1, 1, (1,))
        assert tau_brute_force(g) == 1
        assert spanning_trees(g) == [frozenset({(0, 0)})]

    def test_path_has_one_tree(self):
        assert tau_brute_force(PATH4) == 1
        assert spanning_trees(PATH4) == [frozenset(PATH4.edges())]

    def test_k22_trees(self):
        assert tau_brute_force(K22) == 4
        trees = spanning_trees(K22)
        assert all(len(t) == 3 for t in trees)
        assert len(set(trees)) == 4

    def test_trees_actually_span(self):
        for g in (HEX, K23, STAIR):
            trees = spanning_trees(g)
            assert tau_brute_force(g) == len(trees)
            for t in trees:
                assert len(t) == g.m + g.n - 1
                assert spans(g, t)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            tau_brute_force(HEX, cap=5)  # hexagon has 6 edges

    def test_agrees_with_matrix_tree_exhaustively(self):
        for m, n in ((1, 3), (2, 2), (2, 3), (3, 3)):
            for g in enumerate_connected(m, n):
                assert tau_brute_force(g) == tau_matrix_tree(g)

    @given(st.data())
    @settings(max_examples=40)
    def test_agrees_on_arbitrary_inputs(self, data):
        # Disconnected graphs included: both routes must say zero.
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        nbrs = tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        count = tau_brute_force(g)
        assert count == tau_matrix_tree(g)
        assert (count > 0) == is_connected(g)


class TestTreeTable:
    """_tree_table gives a chunk's brute-force counts from one pass over the
    spanning trees of K_{m,n}; entry mask - lo must be tau_brute_force of
    that mask's graph, disconnected graphs (0) included."""

    @staticmethod
    def brute_counts(m, n, lo, hi):
        return [tau_brute_force(graph_from_mask(m, n, mask)) for mask in range(lo, hi)]

    def test_every_mask_with_mn_at_most_12(self):
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                assert _tree_table(m, n, 0, 1 << (m * n)) == self.brute_counts(
                    m, n, 0, 1 << (m * n)
                ), (m, n)
                checked += 1 << (m * n)
        assert checked == 35978

    def test_both_chunks_of_2_7(self):
        for lo in (0, _CHUNK_MASKS):
            hi = lo + _CHUNK_MASKS
            assert _tree_table(2, 7, lo, hi) == self.brute_counts(2, 7, lo, hi)

    def test_a_chunk_of_4_4_past_the_first(self):
        # High bits 0b101: y_3's x_1 and x_3 are in every mask, x_2 in none.
        lo = 5 * _CHUNK_MASKS
        table = _tree_table(4, 4, lo, lo + _CHUNK_MASKS)
        assert table == self.brute_counts(4, 4, lo, lo + _CHUNK_MASKS)
        assert table[-1] == tau_matrix_tree(graph_from_mask(4, 4, lo + _CHUNK_MASKS - 1)) > 0

    @pytest.mark.parametrize("lo,hi", [(0, 0), (0, 3), (0, 12), (4, 12), (2, 6), (8, 4)])
    def test_refuses_a_range_that_is_not_an_aligned_power_of_two(self, lo, hi):
        with pytest.raises(ValueError, match="aligned power of two"):
            _tree_table(2, 2, lo, hi)

    def test_aligned_sub_ranges_are_slices_of_the_whole(self):
        whole = _tree_table(3, 3, 0, 1 << 9)
        for width in (1, 2, 8, 64):
            for lo in range(0, 1 << 9, width):
                assert _tree_table(3, 3, lo, lo + width) == whole[lo : lo + width]


class TestInvariant:
    @pytest.mark.parametrize(
        "g,value",
        [
            (BipartiteGraph(1, 1, (1,)), Fraction(1)),
            (K22, Fraction(4)),
            (HEX, Fraction(64, 9)),
            (K23, Fraction(12)),
            (STAIR, Fraction(4)),
            (PATH4, Fraction(1)),
        ],
    )
    def test_known_values(self, g, value):
        assert ferrers_invariant(g) == value

    def test_isolated_vertex_rejected(self):
        with pytest.raises(IsolatedVertex):
            ferrers_invariant(BipartiteGraph(1, 2, (1, 0)))
        with pytest.raises(IsolatedVertex):
            ferrers_invariant(BipartiteGraph(2, 1, (0b01,)))

    def test_isolated_vertex_counts_no_degrees(self, monkeypatch):
        # A header alone must not make the invariant allocate m degree counts.
        def refuse(g):
            raise AssertionError("ferrers_invariant counted the degrees")

        monkeypatch.setattr(ferrers.trees, "degrees", refuse)
        with pytest.raises(IsolatedVertex, match="degree-zero vertex"):
            ferrers_invariant(BipartiteGraph(10**7, 1, (1,)))

    @pytest.mark.parametrize("m,n", list(product(range(1, 5), range(1, 5))))
    def test_complete_bipartite_attains_tree_count(self, m, n):
        g = complete(m, n)
        assert ferrers_invariant(g) == tau_matrix_tree(g)


def reduce_with_bareiss(g, scaled=None):
    """check_reduction on the tree count and det(D*M) taken by Bareiss on a copy of the rows."""
    scaled = scaled_schur(g) if scaled is None else scaled
    den, rows, dd = scaled
    return check_reduction(g, tau_matrix_tree(g), den, dd.b, bareiss_det([row[:] for row in rows]))


class TestReduction:
    def test_hexagon_by_hand(self):
        # 6 * (3*3) = (2*2*2) * det M with det M = 27/4, so det(D*M) = 6^3 * 27/4 = 1458.
        m = matrix_M(HEX)
        assert m.det_exact() == Fraction(27, 4)
        assert check_reduction(HEX, 6, 6, (2, 2, 2), 1458)

    def test_examples(self):
        for g in (BipartiteGraph(1, 1, (1,)), K22, K23, STAIR, PATH4):
            assert reduce_with_bareiss(g)

    def test_precomputed_arguments_accepted(self):
        # verify_graph hands over the certificate's last leading minor as det(D*M).
        scaled = den, _, dd = scaled_schur(HEX)
        assert check_reduction(HEX, 6, den, dd.b, certify_majorization(HEX, scaled)[-1])

    @pytest.mark.parametrize("delta", [1, -1])
    def test_perturbed_off_diagonal_pair_caught(self, delta):
        den, rows, dd = scaled_schur(HEX)
        rows[0][1] += delta
        rows[1][0] += delta
        with pytest.raises(IdentityViolation, match=r"^tau\*m\*n = 54 but "):
            reduce_with_bareiss(HEX, (den, rows, dd))

    def test_doubled_denominator_caught(self):
        den, rows, dd = scaled_schur(HEX)
        with pytest.raises(IdentityViolation, match=r"^tau\*m\*n = 54 but "):
            reduce_with_bareiss(HEX, (2 * den, rows, dd))

    def test_precomputed_rows_left_unchanged(self, monkeypatch):
        # Rows that fail the certificate send verify_graph to Bareiss, with row
        # swaps, for det(D*M): on a copy, so the rows stay as scaled_schur gave them.
        den, rows, dd = scaled_schur(HEX)
        rows[0][1] += 1
        rows[1][0] += 1
        kept = [row[:] for row in rows]
        monkeypatch.setattr("ferrers.verify.scaled_schur", lambda g: (den, rows, dd))
        rec = verify_graph(HEX)
        assert not rec.majorizes and not rec.reduction_ok
        assert rows == kept

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            reduce_with_bareiss(BipartiteGraph(2, 2, (0b01, 0b10)))

    def test_exhaustive_small(self):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            for g in enumerate_connected(m, n):
                assert reduce_with_bareiss(g)
