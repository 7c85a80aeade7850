"""Spanning tree counts: matrix-tree vs exhaustive search, the degree-product bound."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers.errors import CapExceeded, DisconnectedGraph, IdentityViolation, IsolatedVertex
from ferrers.graphs import (
    BipartiteGraph,
    PartitionSpec,
    enumerate_connected,
    ferrers_from_partition,
    is_connected,
)
from ferrers.linalg import matrix_M, scaled_schur
from ferrers.trees import (
    bozkurt_bound,
    check_reduction,
    ferrers_invariant,
    tau_brute_force,
    tau_matrix_tree,
)

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))
K23 = BipartiteGraph(2, 3, (0b11, 0b11, 0b11))
PATH4 = BipartiteGraph(2, 2, (0b11, 0b10))
STAIR = ferrers_from_partition(PartitionSpec((3, 2, 1)))


def complete(m, n):
    return BipartiteGraph(m, n, ((1 << m) - 1,) * n)


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

    @pytest.mark.parametrize("m,n", list(product(range(1, 5), range(1, 5))))
    def test_complete_bipartite_closed_form(self, m, n):
        assert tau_matrix_tree(complete(m, n)) == m ** (n - 1) * n ** (m - 1)

    def test_all_deletions_agree(self):
        for g in (K22, HEX, K23, STAIR, PATH4):
            assert tau_matrix_tree(g, check_all_deletions=True) == tau_matrix_tree(g)


class TestBruteForce:
    def test_single_edge(self):
        count, trees = tau_brute_force(BipartiteGraph(1, 1, (1,)))
        assert count == 1 and trees == [frozenset({(0, 0)})]

    def test_path_has_one_tree(self):
        count, trees = tau_brute_force(PATH4)
        assert count == 1
        assert trees[0] == frozenset(PATH4.edges())

    def test_k22_trees(self):
        count, trees = tau_brute_force(K22)
        assert count == 4
        assert all(len(t) == 3 for t in trees)
        assert len(set(trees)) == 4

    def test_trees_actually_span(self):
        for g in (HEX, K23, STAIR):
            count, trees = tau_brute_force(g)
            for t in trees:
                assert len(t) == g.m + g.n - 1
                assert spans(g, t)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            tau_brute_force(HEX, cap=5)  # hexagon has 6 edges

    def test_agrees_with_matrix_tree_exhaustively(self):
        for m, n in ((1, 3), (2, 2), (2, 3), (3, 3)):
            for g in enumerate_connected(m, n):
                count, _ = tau_brute_force(g)
                assert count == tau_matrix_tree(g)

    @given(st.data())
    @settings(max_examples=40)
    def test_agrees_on_arbitrary_inputs(self, data):
        # Disconnected graphs included: both routes must say zero.
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        nbrs = tuple(data.draw(st.integers(0, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        count, trees = tau_brute_force(g)
        assert count == tau_matrix_tree(g)
        assert (count > 0) == is_connected(g)


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

    @pytest.mark.parametrize("m,n", list(product(range(1, 5), range(1, 5))))
    def test_complete_bipartite_attains_tree_count(self, m, n):
        g = complete(m, n)
        assert ferrers_invariant(g) == tau_matrix_tree(g)


class TestReduction:
    def test_hexagon_by_hand(self):
        # 6 * (3*3) = (2*2*2) * det M with det M = 27/4.
        m = matrix_M(HEX)
        assert m.det_exact() == Fraction(27, 4)
        check_reduction(HEX)

    def test_examples(self):
        for g in (BipartiteGraph(1, 1, (1,)), K22, K23, STAIR, PATH4):
            check_reduction(g)

    def test_precomputed_arguments_accepted(self):
        check_reduction(HEX, tau=6, scaled=scaled_schur(HEX))

    @pytest.mark.parametrize("delta", [1, -1])
    def test_perturbed_off_diagonal_pair_caught(self, delta):
        den, rows = scaled_schur(HEX)
        rows[0][1] += delta
        rows[1][0] += delta
        with pytest.raises(IdentityViolation, match=r"^tau\*m\*n = 54 but "):
            check_reduction(HEX, scaled=(den, rows))

    def test_doubled_denominator_caught(self):
        den, rows = scaled_schur(HEX)
        with pytest.raises(IdentityViolation, match=r"^tau\*m\*n = 54 but "):
            check_reduction(HEX, scaled=(2 * den, rows))

    def test_precomputed_rows_left_unchanged(self):
        den, rows = scaled_schur(HEX)
        kept = [row[:] for row in rows]
        check_reduction(HEX, scaled=(den, rows))
        assert rows == kept

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            check_reduction(BipartiteGraph(2, 2, (0b01, 0b10)))

    def test_exhaustive_small(self):
        for m, n in ((2, 2), (2, 3), (3, 3)):
            for g in enumerate_connected(m, n):
                check_reduction(g)


class TestBozkurtBound:
    def test_complete_graph_attains(self):
        bound, ok = bozkurt_bound(K22)
        assert ok and bound == 4 == tau_matrix_tree(K22)

    def test_hexagon(self):
        bound, ok = bozkurt_bound(HEX)
        assert ok and bound == Fraction(32, 3)
        assert bound >= ferrers_invariant(HEX)

    def test_no_edges_rejected(self):
        with pytest.raises(IsolatedVertex):
            bozkurt_bound(BipartiteGraph(1, 2, (1, 0)))

    @given(st.data())
    @settings(max_examples=60)
    def test_weaker_than_degree_product_form(self, data):
        m = data.draw(st.integers(1, 4))
        n = data.draw(st.integers(1, 4))
        nbrs = tuple(data.draw(st.integers(1, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        if not is_connected(g):
            return
        bound, ok = bozkurt_bound(g)
        assert ok
        assert bound >= ferrers_invariant(g)
