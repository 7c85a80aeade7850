"""Graph construction, connectivity, staircase detection, enumeration, text I/O."""

import random
import signal
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ferrers.errors import (
    CapExceeded,
    DimensionError,
    GraphFormatError,
    InvalidPartition,
)
from ferrers.graphs import (
    BipartiteGraph,
    PartitionSpec,
    _mask_connected,
    _transpose,
    bit_indices,
    canonical_form,
    degrees,
    enumerate_connected,
    ferrers_from_partition,
    from_biadjacency,
    graph_from_mask,
    is_connected,
    is_ferrers,
    parse_graph,
    write_graph,
)
from ferrers.trees import tau_matrix_tree

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))


@st.composite
def graphs(draw, max_m=4, max_n=4, min_nbr=0):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    nbrs = tuple(draw(st.integers(min_nbr, (1 << m) - 1)) for _ in range(n))
    return BipartiteGraph(m, n, nbrs)


@st.composite
def partitions(draw, max_m=6, max_n=5):
    n = draw(st.integers(1, max_n))
    heights = [draw(st.integers(1, max_m))]
    for _ in range(n - 1):
        heights.append(draw(st.integers(1, heights[-1])))
    return PartitionSpec(tuple(heights))


def relabel(g: BipartiteGraph, xperm, yperm) -> BipartiteGraph:
    """Independent relabeling helper: xperm[i] is the new index of x_i."""
    moved = []
    for j in range(g.n):
        t = g.nbrs[yperm[j]]
        moved.append(sum(1 << xperm[i] for i in range(g.m) if (t >> i) & 1))
    return BipartiteGraph(g.m, g.n, tuple(moved))


class TestConstruction:
    def test_zero_part_rejected(self):
        with pytest.raises(DimensionError):
            BipartiteGraph(0, 1, ())
        with pytest.raises(DimensionError):
            BipartiteGraph(1, 0, ())

    def test_neighborhood_count_must_match(self):
        with pytest.raises(DimensionError):
            BipartiteGraph(2, 2, (1,))

    def test_out_of_range_bit_rejected(self):
        with pytest.raises(GraphFormatError):
            BipartiteGraph(1, 1, (2,))
        with pytest.raises(GraphFormatError):
            BipartiteGraph(2, 1, (-1,))

    def test_edges_and_edge_count(self):
        assert HEX.edge_count == 6
        assert HEX.edges() == [(0, 0), (1, 0), (1, 1), (2, 1), (0, 2), (2, 2)]


class TestBiadjacency:
    def test_single_edge(self):
        assert from_biadjacency([[1]]) == BipartiteGraph(1, 1, (1,))

    def test_k22(self):
        assert from_biadjacency([[1, 1], [1, 1]]) == K22

    def test_column_orientation(self):
        g = from_biadjacency([[1, 0], [1, 1]])
        assert g.nbrs == (0b11, 0b10)

    def test_non_binary_entry(self):
        with pytest.raises(GraphFormatError):
            from_biadjacency([[0, 2]])

    def test_zero_dimensions(self):
        with pytest.raises(DimensionError):
            from_biadjacency([])
        with pytest.raises(DimensionError):
            from_biadjacency([[]])

    def test_ragged(self):
        with pytest.raises(GraphFormatError):
            from_biadjacency([[1, 0], [1]])


class TestBitIndices:
    @given(st.integers(0, 1 << 70))
    def test_matches_bit_tests(self, t):
        assert bit_indices(t) == [i for i in range(t.bit_length()) if t >> i & 1]

    def test_byte_boundaries(self):
        assert bit_indices(0) == []
        assert bit_indices(0b1000_0001) == [0, 7]
        assert bit_indices(1 << 8 | 1 << 15 | 1 << 16) == [8, 15, 16]
        assert bit_indices((1 << 3000) - 1) == list(range(3000))

    @pytest.mark.parametrize("t", [-1, -256, -(1 << 70)])
    def test_negative_raises_at_once(self, t):
        # A negative int has infinitely many set bits; reading them would
        # grow a list until memory runs out, so a timer stops a regression.
        def expire(signum, frame):
            raise TimeoutError("bit_indices did not refuse a negative int")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        try:
            with pytest.raises(ValueError, match="nonnegative"):
                bit_indices(t)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestDegrees:
    def test_hexagon(self):
        dd = degrees(HEX)
        assert dd.a == (2, 2, 2) and dd.b == (2, 2, 2)

    def test_path_on_four(self):
        dd = degrees(BipartiteGraph(2, 2, (0b11, 0b10)))
        assert dd.a == (1, 2) and dd.b == (2, 1)

    @given(graphs())
    def test_handshake(self, g):
        dd = degrees(g)
        assert sum(dd.a) == sum(dd.b) == g.edge_count


class TestConnectivity:
    def test_connected_examples(self):
        assert is_connected(BipartiteGraph(1, 1, (1,)))
        assert is_connected(HEX)
        assert is_connected(K22)

    def test_two_disjoint_edges(self):
        assert not is_connected(BipartiteGraph(2, 2, (0b01, 0b10)))

    def test_isolated_vertices(self):
        assert not is_connected(BipartiteGraph(2, 1, (0b01,)))  # x_1 isolated
        assert not is_connected(BipartiteGraph(1, 2, (1, 0)))  # y_1 isolated

    def test_header_m_alone_allocates_nothing(self):
        # Coverage compares bit counts: (1 << 10**8) - 1 alone would take 12.5 MB.
        g = BipartiteGraph(10**8, 1, (1,))
        tracemalloc.start()
        try:
            assert not is_connected(g)
            assert not is_ferrers(g)
            assert tau_matrix_tree(g) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_mask_scan_matches_is_connected(self):
        # The campaigns' mask test stops at the first empty column; it must
        # agree with the graph built from the whole mask on every mask of
        # every pair with m*n <= 12.
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for mask in range(1 << (m * n)):
                    expected = is_connected(graph_from_mask(m, n, mask))
                    assert _mask_connected(m, n, mask) == expected, (m, n, mask)

    @given(graphs())
    def test_matches_union_find(self, g):
        # Independent oracle: union-find over the edge list.
        parent = list(range(g.m + g.n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for i, j in g.edges():
            parent[find(i)] = find(g.m + j)
        roots = {find(v) for v in range(g.m + g.n)}
        assert is_connected(g) == (len(roots) == 1)


class TestFerrersShape:
    def test_hexagon_is_not(self):
        assert not is_ferrers(HEX)

    def test_complete_bipartite_is(self):
        assert is_ferrers(K22)
        assert is_ferrers(BipartiteGraph(2, 3, (3, 3, 3)))

    def test_staircase_is(self):
        assert is_ferrers(BipartiteGraph(3, 3, (0b111, 0b011, 0b001)))

    def test_isolated_y_breaks_it(self):
        # Chain and coverage alone would pass; the empty neighborhood must not.
        assert not is_ferrers(BipartiteGraph(1, 2, (1, 0)))

    def test_uncovered_x_breaks_it(self):
        assert not is_ferrers(BipartiteGraph(2, 1, (0b01,)))

    def test_incomparable_pair_breaks_it(self):
        assert not is_ferrers(BipartiteGraph(3, 2, (0b011, 0b110)))

    @given(st.data())
    def test_label_invariant(self, data):
        g = data.draw(graphs(min_nbr=1))
        xperm = data.draw(st.permutations(range(g.m)))
        yperm = data.draw(st.permutations(range(g.n)))
        assert is_ferrers(relabel(g, xperm, yperm)) == is_ferrers(g)
        assert is_ferrers(_transpose(g)) == is_ferrers(g)

    @given(partitions())
    def test_every_staircase_detected(self, p):
        assert is_ferrers(ferrers_from_partition(p))


class TestPartitions:
    def test_properties(self):
        p = PartitionSpec((3, 2, 1))
        assert p.m == 3 and p.n == 3

    @pytest.mark.parametrize("bad", [(), (0,), (2, 3), (3, -1), (1, 2, 1)])
    def test_invalid(self, bad):
        with pytest.raises(InvalidPartition):
            PartitionSpec(tuple(bad))

    def test_staircase_graph(self):
        g = ferrers_from_partition(PartitionSpec((3, 2, 1)))
        assert g.nbrs == (0b111, 0b011, 0b001)
        dd = degrees(g)
        assert dd.a == (3, 2, 1) and dd.b == (3, 2, 1)

    @given(partitions())
    def test_heights_read_back(self, p):
        g = ferrers_from_partition(p)
        assert tuple(t.bit_count() for t in g.nbrs) == p.t


class TestEnumeration:
    @pytest.mark.parametrize("m,n,count", [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 5)])
    def test_known_counts(self, m, n, count):
        assert sum(1 for _ in enumerate_connected(m, n)) == count

    def test_all_connected_and_distinct(self):
        seen = set()
        for g in enumerate_connected(2, 3):
            assert is_connected(g)
            assert g.nbrs not in seen
            seen.add(g.nbrs)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            next(enumerate_connected(3, 3, cap=8))

    def test_cap_env_override(self, monkeypatch):
        # The default cap is not read from the environment; only cap= changes it.
        monkeypatch.setenv("FERRERS_CAP", "3")
        assert sum(1 for _ in enumerate_connected(2, 2)) == 5
        with pytest.raises(CapExceeded):
            next(enumerate_connected(2, 2, cap=3))
        assert sum(1 for _ in enumerate_connected(2, 2, cap=4)) == 5

    def test_dedupe_two_by_two(self):
        # 4 labeled paths collapse to one class, plus the complete graph.
        reps = list(enumerate_connected(2, 2, dedupe=True))
        assert len(reps) == 2
        assert all(canonical_form(g) == g for g in reps)

    @pytest.mark.parametrize(
        "m,n", [(m, n) for m in range(1, 13) for n in range(1, 13) if m * n <= 12]
    )
    def test_dedupe_counts_match_classes(self, m, n):
        reps = list(enumerate_connected(m, n, dedupe=True))
        assert len(set(reps)) == len(reps)
        assert all(canonical_form(g) == g for g in reps)
        # The reference route: canonicalize every labeled graph.
        assert set(reps) == {canonical_form(g) for g in enumerate_connected(m, n)}
        # Canonical order: ascending nbrs for m <= n, else the (n, m) order transposed.
        if m <= n:
            assert [g.nbrs for g in reps] == sorted(g.nbrs for g in reps)
        else:
            assert [_transpose(g) for g in reps] == list(enumerate_connected(n, m, dedupe=True))

    @pytest.mark.parametrize("m,n,classes", [(4, 4, 150), (4, 5, 558), (5, 4, 558)])
    def test_dedupe_class_counts(self, m, n, classes):
        assert sum(1 for _ in enumerate_connected(m, n, dedupe=True)) == classes

    def test_graph_from_mask_layout(self):
        g = graph_from_mask(2, 2, 0b1011)
        assert g.nbrs == (0b11, 0b10)

    @given(st.data())
    def test_canonical_form_is_class_invariant(self, data):
        g = data.draw(graphs(max_m=3, max_n=3))
        xperm = data.draw(st.permutations(range(g.m)))
        yperm = data.draw(st.permutations(range(g.n)))
        assert canonical_form(relabel(g, xperm, yperm)) == canonical_form(g)


class TestTextFormat:
    def test_write_hexagon(self):
        assert write_graph(HEX) == "3 3\n0 1\n1 2\n0 2\n"

    def test_round_trip_examples(self):
        for g in (HEX, K22, BipartiteGraph(4, 1, (0b1111,))):
            assert parse_graph(write_graph(g)) == g

    @given(graphs(min_nbr=1))
    def test_round_trip(self, g):
        assert parse_graph(write_graph(g)) == g

    def test_biadj_header(self):
        assert parse_graph("biadj\n11\n11\n") == K22
        assert parse_graph("biadj\n10\n11\n").nbrs == (0b11, 0b10)

    def test_biadj_flag_headerless(self):
        assert parse_graph("11\n11\n") == K22

    def test_empty_neighborhood_not_writable(self):
        with pytest.raises(GraphFormatError):
            write_graph(BipartiteGraph(1, 2, (1, 0)))

    @pytest.mark.parametrize(
        "text,error",
        [
            pytest.param(text, GraphFormatError, id=text)
            for text in [
                "",
                "2\n0\n",
                "x y\n0\n",
                "2 2\n0 1\n",  # missing a line
                "2 2\n0 1\n\n",  # empty line
                "2 2\n0 1\n0 2\n",  # index out of range
                "2 2\n0 0\n0 1\n",  # duplicate index
                "2 2\n0 z\n0 1\n",
                "biadj\n10\n1\n",  # ragged rows
                "biadj\n12\n11\n",  # non-binary
                "biadj\n",
            ]
        ]
        + [
            # Header sizes below 1 are refused before any index is read.
            pytest.param(text, DimensionError, id=text)
            for text in ["-1 1\n0\n", "0 1\n0\n"]
        ],
    )
    def test_malformed(self, text, error):
        with pytest.raises(error):
            parse_graph(text)

    def test_trailing_blank_lines_tolerated(self):
        assert parse_graph("2 2\n0 1\n0 1\n\n\n") == K22


class TestDedupeAgainstBruteRelabeling:
    def test_classes_by_exhaustive_orbit(self):
        # Orbit sizes computed the slow way must tile the labeled count.
        labeled = list(enumerate_connected(2, 2))
        orbits = set()
        for g in labeled:
            orbit = frozenset(
                relabel(g, xp, yp).nbrs
                for xp in ([0, 1], [1, 0])
                for yp in ([0, 1], [1, 0])
            )
            orbits.add(orbit)
        assert len(orbits) == 2
        assert sum(len(o) for o in orbits) == 5

    def test_random_spot_checks_at_2x3(self):
        rng = random.Random(7)
        labeled = list(enumerate_connected(2, 3))
        reps = list(enumerate_connected(2, 3, dedupe=True))
        rep_set = {g.nbrs for g in reps}
        for g in rng.sample(labeled, 10):
            assert canonical_form(g).nbrs in rep_set
