"""Campaign driver: single-graph records, exhaustive sweeps, failure categories."""

import hashlib
import json
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers import graphs, linalg, trees
from ferrers.cli import main
from ferrers.errors import (
    CapExceeded,
    DisconnectedGraph,
    IdentityViolation,
    TheoremViolation,
)
from ferrers.graphs import (
    BipartiteGraph,
    DegreeData,
    PartitionSpec,
    _transpose,
    enumerate_connected,
    ferrers_from_partition,
    graph_from_mask,
    is_connected,
    is_ferrers,
    parse_graph,
    write_graph,
)
from ferrers.linalg import RationalMatrix
from ferrers.spectral import majorization_report
from ferrers.trees import tau_brute_force
from ferrers.verify import (
    _CHUNK_MASKS,
    VerificationRecord,
    _corollary_sides,
    _examine,
    _mask_key,
    _short_side,
    corollary_check,
    equality_flag_diagonalization,
    record_dict,
    summary_dict,
    verify_graph,
    verify_pairs,
)
from matrix_helpers import corollary_sides, union_find_connected

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))
K23 = BipartiteGraph(2, 3, (0b11, 0b11, 0b11))
STAIR = ferrers_from_partition(PartitionSpec((3, 2, 1)))


def complete(m, n):
    return BipartiteGraph(m, n, ((1 << m) - 1,) * n)


def oracle_connected_count(m, n):
    """Union-find over raw masks; deliberately independent of the library."""
    return sum(union_find_connected(m, n, mask) for mask in range(1 << (m * n)))


@st.composite
def partitions(draw, max_m=5, max_n=4):
    n = draw(st.integers(1, max_n))
    heights = [draw(st.integers(1, max_m))]
    for _ in range(n - 1):
        heights.append(draw(st.integers(1, heights[-1])))
    return PartitionSpec(tuple(heights))


class TestVerifyGraph:
    def test_hexagon_record(self):
        rec = verify_graph(HEX)
        assert rec.tau == 6
        assert rec.F == Fraction(64, 9)
        assert rec.inequality_ok
        assert not rec.equality
        assert not rec.ferrers
        assert rec.reduction_ok
        assert rec.majorizes

    def test_no_fraction_matrix_built(self, monkeypatch):
        def refuse(self, rows):
            raise AssertionError("verify_graph built a RationalMatrix")

        monkeypatch.setattr(RationalMatrix, "__init__", refuse)
        rec = verify_graph(HEX)
        assert rec.reduction_ok and rec.majorizes

    def test_no_eigenvalue_computed(self, monkeypatch):
        # majorizes is certified exactly, so the Jacobi eigensolver stays off this path.
        def refuse(mat):
            raise AssertionError("verify_graph called eigen_sym")

        monkeypatch.setattr("ferrers.spectral.eigen_sym", refuse)
        rng = random.Random(6)
        graphs = [BipartiteGraph(6, 7, (0b111111,) * 7)]
        while len(graphs) < 5:
            m, n = rng.randint(6, 8), rng.randint(6, 8)
            g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
            if is_connected(g):
                graphs.append(g)
        for g in graphs:
            rec = verify_graph(g)
            assert rec.majorizes and rec.reduction_ok
        with pytest.raises(AssertionError, match="eigen_sym"):
            majorization_report(graphs[0])

    def test_tally_campaign_computes_no_eigenvalue(self, monkeypatch):
        # The oracles on a campaign are the brute-force count alone; majorization
        # is the exact certificate, so the Jacobi eigensolver stays off here too.
        def refuse(mat):
            raise AssertionError("a campaign called eigen_sym")

        monkeypatch.setattr("ferrers.spectral.eigen_sym", refuse)
        s = verify_pairs([(3, 3), (2, 5)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked > 0
        assert s.failure_counts == {}

    def test_equality_cases(self):
        for g in (K22, K23, STAIR, BipartiteGraph(1, 1, (1,))):
            rec = verify_graph(g)
            assert rec.equality and rec.ferrers
            assert rec.tau == rec.F

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            verify_graph(BipartiteGraph(2, 2, (0b01, 0b10)))

    def test_isolated_vertex_is_refused_before_any_transpose(self):
        # Transposing this header alone would build a list of 10**7 neighborhoods.
        tracemalloc.start()
        try:
            with pytest.raises(DisconnectedGraph):
                verify_graph(BipartiteGraph(10**7, 1, (1,)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("m,n", [(3000, 1), (1, 3000)])
    def test_star_builds_no_laplacian(self, m, n):
        # The tree count builds a min(m, n) square block, so a lopsided star
        # costs no (m+n)^2 Laplacian (about 70 MB for K_{3000,1}).
        g = complete(m, n)
        tracemalloc.start()
        try:
            assert trees.tau_matrix_tree(g) == 1
            rec = verify_graph(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.tau == rec.F == 1 and rec.equality and rec.ferrers
        assert peak < 1 << 20

    def test_transposes_exactly_when_m_exceeds_n(self, monkeypatch):
        # One orientation rule for the record and its tree count: a graph
        # with m > n is transposed once, and one with m <= n never.
        calls = []

        def recording(g):
            calls.append(g)
            return _transpose(g)

        for module in ("verify", "trees"):
            monkeypatch.setattr(f"ferrers.{module}._transpose", recording)
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for g in enumerate_connected(m, n):
                    calls.clear()
                    verify_graph(g)
                    assert calls == ([g] if m > n else []), write_graph(g)
                    checked += 1
        assert checked == 5743

    def test_transpose_gives_the_same_record(self):
        # Every verdict is decided on the short side, the same for g and its
        # transpose; is_ferrers's own transpose invariance, which makes that
        # sound, is tested in test_graphs.py (test_label_invariant).
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for g in enumerate_connected(m, n):
                    rec = record_dict(verify_graph(g))
                    flipped = record_dict(verify_graph(_transpose(g)))
                    assert rec.pop("graph") == write_graph(g)
                    assert flipped.pop("graph") == write_graph(_transpose(g))
                    assert rec == flipped, write_graph(g)
                    checked += 1
        assert checked == 5743

    def test_certificate_block_is_the_short_side(self, monkeypatch):
        # verify_graph certifies M of the short side; the spectrum verb's
        # report stays on X, since it prints the eigenvalues of L_X + (n/m)J.
        sizes = []

        def recording(rows):
            sizes.append(len(rows))
            return linalg.leading_minors(rows)

        monkeypatch.setattr("ferrers.spectral.leading_minors", recording)
        rng = random.Random(13)
        checked = [complete(m, n) for m, n in ((1, 4), (4, 1), (3, 3), (2, 6), (6, 2))]
        while len(checked) < 15:
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
            if m != n and is_connected(g):
                checked.append(g)
        for g in checked:
            sizes.clear()
            rec = verify_graph(g)
            assert rec.majorizes and rec.reduction_ok
            assert len(majorization_report(g).spectrum.values) == g.m
            assert sizes == [min(g.m, g.n), g.m], write_graph(g)

    def test_every_y_relabeling_gives_the_same_record(self):
        # The checks read the short side's neighborhoods sorted, so relabeling
        # Y, before or after a transpose, changes only the record's graph.
        # Every Y-permutation is tried up to n = 6, and 240 seeded ones above.
        rng = random.Random(29)
        checked = 0
        while checked < 12:
            m, n = rng.randint(2, 8), rng.randint(2, 8)
            g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
            if not is_connected(g):
                continue
            sound = record_dict(verify_graph(g))
            del sound["graph"]
            orders = (
                permutations(g.nbrs) if n <= 6
                else (tuple(rng.sample(g.nbrs, n)) for _ in range(240))
            )
            for nbrs in orders:
                h = BipartiteGraph(m, n, nbrs)
                for k in (h, _transpose(h)):
                    rec = record_dict(verify_graph(k))
                    assert rec.pop("graph") == write_graph(k)
                    assert rec == sound, write_graph(k)
            checked += 1

    def test_record_dict_shape(self):
        d = record_dict(verify_graph(HEX))
        assert set(d) == {
            "graph",
            "tau",
            "F",
            "inequality_ok",
            "equality",
            "ferrers",
            "reduction_ok",
            "majorizes",
        }
        assert d["tau"] == 6 and d["F"] == "64/9"
        assert parse_graph(d["graph"]) == HEX


class TestSharedDataCounts:
    """Per graph, the degrees are counted once, in scaled_schur, which hands
    them to the checks on D*M and to ferrers_invariant for F.  Connectivity
    is checked once, by the guard in scaled_schur, also on an oracled graph.
    A staircase's flag diagonalization counts the degrees once and checks
    connectivity once, both in scaled_schur.  The names wrapped are the ones
    perfbench/spans.py rebinds."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"degrees": 0, "is_connected": 0}
        for name in counts:

            def counting(g, name=name, real=getattr(graphs, name)):
                counts[name] += 1
                return real(g)

            for module in ("verify", "linalg", "trees", "spectral"):
                monkeypatch.setattr(f"ferrers.{module}.{name}", counting)
        return counts

    def test_verify_graph(self, calls):
        rng = random.Random(9)
        checked = [HEX]
        while len(checked) < 5:
            m, n = rng.randint(4, 8), rng.randint(4, 8)
            g = BipartiteGraph(m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n)))
            if graphs.is_connected(g):
                checked.append(g)
        for g in checked:
            calls.update(degrees=0, is_connected=0)
            assert verify_graph(g).reduction_ok
            assert calls == {"degrees": 1, "is_connected": 1}

    def test_oracled_graph(self, calls):
        # The brute-force table reads only the masks: no guard and no degree count.
        hex_mask = sum(t << (3 * j) for j, t in enumerate(HEX.nbrs))
        brute = trees._tree_table(3, 3, 0, 1 << 9)[hex_mask]
        verdicts, bad = _examine(_mask_key(3, 3, hex_mask), brute, {})
        assert verdicts[0] == 6 and bad == ()
        assert calls == {"degrees": 1, "is_connected": 1}

    def test_flag_diagonalization(self, calls):
        assert equality_flag_diagonalization(PartitionSpec((5, 3, 3, 2, 1)))
        assert calls == {"degrees": 1, "is_connected": 1}


class TestCampaigns:
    def test_smallest_range(self):
        s = verify_pairs([(1, 1)])
        assert s.dims == (1, 1)
        assert s.graphs_checked == 1
        assert s.violations == 0
        assert s.equality_cases == s.ferrers_count == 1

    def test_two_by_two_rectangle(self):
        s = verify_pairs([(1, 1), (1, 2), (2, 1), (2, 2)])
        # 1 + 1 + 1 + 5 connected labeled graphs across the four pairs.
        assert s.graphs_checked == 8
        assert s.equality_cases == s.ferrers_count == 8
        assert s.violations == 0
        assert s.wall_time >= 0.0

    def test_count_matches_independent_oracle(self):
        s = verify_pairs([(m, n) for m in (1, 2, 3) for n in (1, 2, 3)])
        want = sum(oracle_connected_count(m, n) for m in (1, 2, 3) for n in (1, 2, 3))
        assert s.graphs_checked == want
        assert s.violations == 0
        assert s.equality_cases == s.ferrers_count

    def test_pairs_reject_empty_and_bad(self):
        with pytest.raises(ValueError):
            verify_pairs([])
        with pytest.raises(ValueError):
            verify_pairs([(0, 2)])

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            verify_pairs([(2, 2)], workers=workers)
        assert verify_pairs([(2, 2)], workers=None).graphs_checked == 5

    def test_cap(self):
        with pytest.raises(CapExceeded):
            verify_pairs([(5, 5)])

    def test_cap_env(self, monkeypatch):
        # Only the cap argument sets the limit; the environment is not read.
        monkeypatch.setenv("FERRERS_CAP", "4")
        assert verify_pairs([(3, 2)]).graphs_checked > 0
        with pytest.raises(CapExceeded):
            verify_pairs([(3, 2)], cap=4)
        assert verify_pairs([(3, 2)], cap=6).graphs_checked > 0

    def test_duplicate_pairs_collapse(self):
        once = verify_pairs([(2, 2)])
        twice = verify_pairs([(2, 2), (2, 2)])
        assert twice.graphs_checked == once.graphs_checked == 5

    def test_workers_match_serial(self):
        # (2,7) spans two chunks of masks, so the pool merges more than one per pair.
        runs = []
        for workers in (None, 2):
            records = []
            s = verify_pairs(
                [(2, 7), (2, 2), (1, 3)], oracle_edge_cap=4, workers=workers, emit=records.append
            )
            d = summary_dict(s)
            del d["wall_time"]
            runs.append((d, records))
        assert runs[0][0]["graphs_checked"] == 2059 + 5 + 1
        assert runs[1] == runs[0]

    def test_pool_has_at_most_one_process_per_chunk(self, monkeypatch, capsys):
        started = []

        class SerialPool:
            def __init__(self, processes):
                started.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr("multiprocessing.Pool", SerialPool)
        assert main(["verify", "1", "2", "--workers", "100000"]) == 0
        # (1,1) and (1,2) are one chunk of masks each.
        assert started == [2]
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["graphs_checked"] == 2

    def test_failure_tallies_add_up_across_chunks(self, corrupt):
        # With is_ferrers always false, every staircase graph fails "equality".
        corrupt("equality")
        failing = [
            mask
            for mask in range(1 << 14)
            if is_connected(g := graph_from_mask(2, 7, mask)) and is_ferrers(g)
        ]
        assert failing[0] < _CHUNK_MASKS <= failing[-1]
        s = verify_pairs([(2, 7)], fail_fast=False)
        assert s.graphs_checked == 2059
        assert s.failure_counts == {"equality": len(failing)}
        head, text = s.failure_examples["equality"].split(":\n", 1)
        assert head.startswith("equality failed")
        assert text == write_graph(graph_from_mask(2, 7, failing[0]))

    def test_fail_fast_pool_raises_the_serial_message(self, corrupt):
        # (2,7) spans two chunks of masks, so the pool's imap path carries the raise.
        corrupt("equality")
        first = next(
            mask
            for mask in range(1 << 14)
            if is_connected(g := graph_from_mask(2, 7, mask)) and is_ferrers(g)
        )
        messages = []
        for workers in (None, 2):
            with pytest.raises(TheoremViolation) as exc:
                verify_pairs([(2, 7)], workers=workers)
            messages.append(str(exc.value))
        assert write_graph(graph_from_mask(2, 7, first)) in messages[0]
        assert messages[1] == messages[0]

    def test_fail_fast_stops_before_emitting_the_failing_chunk(self, monkeypatch):
        # The staircase verdict is wrong on (2,7) short sides only, so every
        # (2,7) graph fails "equality" and the (2,2) chunk ahead of it is sound.
        sound = []
        verify_pairs([(2, 2)], emit=sound.append)
        monkeypatch.setattr("ferrers.verify.is_ferrers", lambda h: is_ferrers(h) != (h.n == 7))
        first_dump = verify_pairs([(2, 7)], fail_fast=False).failure_examples["equality"]
        first = next(
            g for mask in range(1 << 14) if is_connected(g := graph_from_mask(2, 7, mask))
        )
        assert first_dump.endswith(f":\n{write_graph(first)}")
        for workers in (None, 2):
            emitted = []
            with pytest.raises(TheoremViolation) as exc:
                verify_pairs([(2, 2), (2, 7)], workers=workers, emit=emitted.append)
            assert str(exc.value) == first_dump
            assert emitted == sound and len(sound) == 5

    def test_unexpected_exception_names_its_graph_serial_and_pool(self, monkeypatch):
        # (2,7) spans two chunks of masks, so workers=2 really runs the pool.
        # A tally campaign counts a tree count's IdentityViolation as "tau";
        # an error of no expected type still ends it.
        def broken(g):
            raise ZeroDivisionError("staircase test broke")

        monkeypatch.setattr("ferrers.verify.is_ferrers", broken)
        first = next(
            g for mask in range(1 << 14) if is_connected(g := graph_from_mask(2, 7, mask))
        )
        messages = []
        for workers in (None, 2):
            with pytest.raises(ZeroDivisionError) as exc:
                verify_pairs([(2, 7)], oracle_edge_cap=14, fail_fast=False, workers=workers)
            messages.append(str(exc.value))
        assert messages[0].startswith("staircase test broke")
        assert write_graph(first) in messages[0]
        assert messages[1] == messages[0]

    def test_oracle_reads_the_chunk_tables_not_the_per_graph_count(self, monkeypatch):
        # Each chunk's counts come from one table, so a campaign with the
        # oracle on never calls tau_brute_force.
        def refuse(g, *, cap=None):
            raise AssertionError("a campaign called tau_brute_force")

        monkeypatch.setattr("ferrers.verify.tau_brute_force", refuse)
        monkeypatch.setattr("ferrers.trees.tau_brute_force", refuse)
        s = verify_pairs([(3, 3), (2, 7)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked == 205 + 2059
        assert s.failure_counts == {}

    def test_oracle_tables_match_serial_in_the_pool(self):
        # (2,7) is two chunks, so a pool worker builds the table at lo = 2^13.
        runs = []
        for workers in (None, 2):
            d = summary_dict(
                verify_pairs([(2, 7)], oracle_edge_cap=14, fail_fast=False, workers=workers)
            )
            del d["wall_time"]
            runs.append(d)
        assert runs[0]["oracle_checked"] == runs[0]["graphs_checked"] == 2059
        assert runs[1] == runs[0]

    def test_oracle_cross_check_counted(self):
        s = verify_pairs([(2, 2)], oracle_edge_cap=4)
        assert s.oracle_checked == 5  # every connected graph here has <= 4 edges
        limited = verify_pairs([(2, 2)], oracle_edge_cap=3)
        assert limited.oracle_checked == 4  # the complete graph drops out

    def test_emit_streams_every_graph(self):
        got = []
        s = verify_pairs([(2, 2)], emit=got.append)
        assert len(got) == s.graphs_checked
        for rec in got:
            assert is_connected(parse_graph(rec["graph"]))
            assert rec["inequality_ok"] is True

    @pytest.mark.parametrize(
        "category",
        ["inequality", "equality", "reduction", "majorization", "oracle"],
    )
    def test_each_failure_category_fires(self, corrupt, category):
        corrupt(category)
        s = verify_pairs([(2, 2)], oracle_edge_cap=14, fail_fast=False)
        assert s.graphs_checked == 5
        if category == "inequality":
            # tau + 1 also breaks equality on these staircases, the reduction
            # identity it is fed into, and the brute-force oracle.
            assert s.failure_counts == dict.fromkeys(
                ("inequality", "equality", "reduction", "oracle"), 5
            )
        else:
            assert s.failure_counts == {category: s.graphs_checked}
        assert s.violations == sum(s.failure_counts.values())
        head, text = s.failure_examples[category].split(":\n", 1)
        assert category in head.split(" failed for ")[0].split(", ")
        assert is_connected(parse_graph(text))
        with pytest.raises(TheoremViolation, match=category):
            verify_pairs([(2, 2)], oracle_edge_cap=14)

    def test_wrong_closed_form_counts_oracle_on_every_graph(self, monkeypatch):
        # The tree count eliminates one side in closed form; the brute-force
        # count, which reads only the edge list, is the independent route.
        # Doubling det(D*S), the last leading minor, doubles the count and
        # leaves no remainder.
        monkeypatch.setattr(trees, "leading_minors", _last_minor_faulted(lambda det: 2 * det))
        s = verify_pairs([(3, 3)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked > 0
        assert s.failure_counts["oracle"] == s.graphs_checked

    def test_larger_denominator_changes_no_record(self, monkeypatch):
        # Any common multiple of b_1..b_(n-1) keeps D*S integral, and the
        # count divides D^m back out: six times the lcm leaves every verdict
        # unchanged, so no category fires and every record is the sound one.
        sound = []
        verify_pairs([(3, 3)], oracle_edge_cap=14, fail_fast=False, emit=sound.append)
        monkeypatch.setattr(trees, "lcm", lambda *b: 6 * math.lcm(*b))
        faulty = []
        s = verify_pairs([(3, 3)], oracle_edge_cap=14, fail_fast=False, emit=faulty.append)
        assert s.oracle_checked == s.graphs_checked == len(sound) > 0
        assert s.failure_counts == {}
        assert faulty == sound

    def test_oracled_graphs_compute_tau_once(self, monkeypatch):
        # (2,7) spans two chunks of masks and (3,2) is transposed: the count
        # runs on each chunk's distinct sorted short sides, in order of first
        # appearance, while every labeled graph is still checked and emitted.
        # The staircase test runs on the same sorted graphs.
        calls, staircase_calls = [], []

        def counting(g):
            calls.append(g)
            return trees.tau_matrix_tree(g)

        def counting_staircase(g):
            staircase_calls.append(g)
            return is_ferrers(g)

        expected, labeled = [], []
        for m, n in ((2, 7), (3, 2)):
            for lo in range(0, 1 << (m * n), _CHUNK_MASKS):
                keys = {}
                for mask in range(lo, min(lo + _CHUNK_MASKS, 1 << (m * n))):
                    if is_connected(g := graph_from_mask(m, n, mask)):
                        labeled.append(write_graph(g))
                        keys.setdefault(tuple(sorted((_transpose(g) if m > n else g).nbrs)))
                expected += [BipartiteGraph(min(m, n), max(m, n), key) for key in keys]
        assert len(set(expected)) < len(expected) < len(labeled) == 2059 + 19
        monkeypatch.setattr("ferrers.verify.tau_matrix_tree", counting)
        monkeypatch.setattr("ferrers.verify.is_ferrers", counting_staircase)
        for oracle_edge_cap in (14, None):
            calls.clear()
            staircase_calls.clear()
            records = []
            s = verify_pairs(
                [(3, 2), (2, 7)], oracle_edge_cap=oracle_edge_cap, fail_fast=False,
                emit=records.append,
            )
            assert s.oracle_checked == (len(labeled) if oracle_edge_cap else 0)
            assert s.graphs_checked == len(labeled) and s.failure_counts == {}
            assert [r["graph"] for r in records] == labeled
            assert calls == expected
            assert staircase_calls == expected

    def test_mask_key_is_the_short_side(self):
        # A chunk keys its memo on the mask alone; the key must be the sorted
        # short side that verify_graph decides on, transposed bit by bit when
        # m > n, for every connected mask with m*n <= 12.
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for mask in range(1 << (m * n)):
                    if is_connected(g := graph_from_mask(m, n, mask)):
                        assert _mask_key(m, n, mask) == _short_side(g), (m, n, mask)
                        checked += 1
        assert checked == 5743

    def test_graph_built_only_to_emit(self, monkeypatch):
        # A sound tally campaign builds no labeled graph; with emit it builds
        # each one once, for its record.  (2,7) spans two chunks and (3,2) is
        # transposed.
        built = []

        def counting(m, n, mask):
            built.append((m, n, mask))
            return graph_from_mask(m, n, mask)

        monkeypatch.setattr("ferrers.verify.graph_from_mask", counting)
        s = verify_pairs([(2, 7), (3, 2)], oracle_edge_cap=14, fail_fast=False)
        assert s.graphs_checked == 2059 + 19 and s.failure_counts == {}
        assert built == []
        records = []
        s = verify_pairs([(2, 7), (3, 2)], oracle_edge_cap=14, emit=records.append)
        assert len(built) == len(set(built)) == len(records) == s.graphs_checked
        assert [write_graph(graph_from_mask(*b)) for b in built] == [r["graph"] for r in records]

    @pytest.mark.parametrize("oracle_edge_cap", [None, 14])
    def test_tree_count_error_is_tallied_on_its_graph(self, monkeypatch, oracle_edge_cap):
        # The count raises on K_{2,2} only, whose block D*S is built as its
        # upper triangle [[3, -1], [0, 3]]: a tally campaign counts "tau" on
        # it, with or without the oracles, and goes on; fail-fast raises that
        # same dump.
        def broken_on_k22(rows):
            if rows == [[3, -1], [0, 3]]:
                raise IdentityViolation("corrupted closed form")
            return linalg.leading_minors(rows)

        monkeypatch.setattr(trees, "leading_minors", broken_on_k22)
        records = []
        s = verify_pairs(
            [(2, 2)], oracle_edge_cap=oracle_edge_cap, fail_fast=False, emit=records.append
        )
        assert s.graphs_checked == 5
        assert s.oracle_checked == (4 if oracle_edge_cap else 0)
        assert s.failure_counts == {"tau": 1}
        head, text = s.failure_examples["tau"].split(":\n", 1)
        assert head.startswith("tau") and text == write_graph(K22)
        assert len(records) == 4 and write_graph(K22) not in [r["graph"] for r in records]
        assert s.equality_cases == s.ferrers_count == 4
        with pytest.raises(TheoremViolation, match=re.escape(f"tau failed:\n{write_graph(K22)}")):
            verify_pairs([(2, 2)], oracle_edge_cap=oracle_edge_cap)

    def test_failed_reduction_check_counts_in_campaigns_and_check(self, corrupt, tmp_path, capsys):
        corrupt("reduction")
        s = verify_pairs([(3, 3)], fail_fast=False)
        assert s.graphs_checked > 0
        assert s.failure_counts == {"reduction": s.graphs_checked}
        head, text = s.failure_examples["reduction"].split(":\n", 1)
        assert head.startswith("reduction failed")
        assert is_connected(parse_graph(text))
        path = tmp_path / "hex.txt"
        path.write_text(write_graph(HEX))
        assert main(["check", str(path)]) == 1
        assert json.loads(capsys.readouterr().out)["reduction_ok"] is False

    def test_campaign_records_are_verify_graph_records(self):
        # Over all 5743 graphs with m*n <= 12, in mask order, the chunks'
        # memo changes no record, and the stream hashes as it did when every
        # graph ran every check in full.
        pairs = [(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]
        records = []
        s = verify_pairs(pairs, oracle_edge_cap=14, fail_fast=False, emit=records.append)
        assert s.graphs_checked == len(records) == 5743 and s.failure_counts == {}
        assert records == [
            record_dict(verify_graph(g)) for m, n in sorted(pairs) for g in enumerate_connected(m, n)
        ]
        digest = hashlib.sha256("".join(map(json.dumps, records)).encode()).hexdigest()
        assert digest.startswith("66f42a3f8492caeb")

    def test_summary_dict_shape(self):
        d = summary_dict(verify_pairs([(1, 1), (1, 2), (2, 1), (2, 2)]))
        assert list(d) == [
            "dims",
            "graphs_checked",
            "violations",
            "equality_cases",
            "ferrers_count",
            "wall_time",
            "oracle_checked",
            "failure_counts",
            "failure_examples",
        ]
        assert d["dims"] == [2, 2]
        assert d["oracle_checked"] == 0
        assert d["failure_counts"] == d["failure_examples"] == {}

    def test_summary_dict_keeps_failures_and_oracle_count(self, corrupt):
        corrupt("oracle")
        s = verify_pairs([(2, 2)], oracle_edge_cap=14, fail_fast=False)
        d = json.loads(json.dumps(summary_dict(s)))
        assert s.graphs_checked == 5
        assert d["oracle_checked"] == s.oracle_checked == 5
        assert d["failure_counts"] == s.failure_counts == {"oracle": 5}
        assert d["violations"] == 5
        assert d["failure_examples"] == s.failure_examples


class TestCorollary:
    def ones(self, g):
        return [1] * (g.m + g.n)

    def test_unit_weights_reduce_to_the_plain_bound(self):
        for g in (HEX, K22, K23, STAIR):
            assert corollary_check(g, self.ones(g))

    def test_weighted_hexagon(self):
        z = [Fraction(1, 2), 2, 1, 3, Fraction(5, 7), 1]
        assert corollary_check(HEX, z)

    def test_zero_weights_allowed(self):
        assert corollary_check(HEX, [0, 1, 1, 1, 0, 1])
        assert corollary_check(K22, [0, 0, 0, 0])

    def test_disconnected_is_trivially_true(self):
        g = BipartiteGraph(2, 2, (0b01, 0b10))
        assert corollary_check(g, self.ones(g))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            corollary_check(K22, [1, 1, 1])
        with pytest.raises(ValueError):
            corollary_check(K22, [1, -1, 1, 1])

    @staticmethod
    def seeded_weights(rng, count):
        # About a third of the entries are 0; the rest are fractions.
        return [
            Fraction(0) if rng.random() < 1 / 3 else Fraction(rng.randint(1, 9), rng.randint(1, 5))
            for _ in range(count)
        ]

    def test_sides_equal_the_tree_list_reference(self):
        # Every labeled graph with m*n <= 12, disconnected ones included.
        rng = random.Random(1609)
        checked = 0
        for m in range(1, 13):
            for n in range(1, 12 // m + 1):
                for mask in range(1 << (m * n)):
                    g = graph_from_mask(m, n, mask)
                    z = self.seeded_weights(rng, m + n)
                    left, right, scale = _corollary_sides(g, z)
                    assert (Fraction(left, scale), Fraction(right, scale)) == corollary_sides(g, z)
                    assert left <= right
                    checked += 1
        assert checked == 35978

    @pytest.mark.parametrize("m,n", [(3000, 1), (1, 3000)])
    def test_star_sides_build_no_laplacian(self, m, n, monkeypatch):
        # The sides come from a min(m, n) square block, so a lopsided star
        # costs no (m+n)^2 Laplacian and no (m+n-1)-row elimination.
        def short_side_only(rows):
            assert len(rows) == 1, f"eliminated {len(rows)} rows of K_{{{m},{n}}}"
            return linalg.bareiss_det(rows)

        monkeypatch.setattr("ferrers.verify.bareiss_det", short_side_only)
        g = complete(m, n)
        for z in (self.ones(g), self.seeded_weights(random.Random(3000), m + n)):
            start = time.perf_counter()
            tracemalloc.start()
            try:
                assert corollary_check(g, z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert time.perf_counter() - start < 1
            assert peak < 2 << 20
            left, right, scale = _corollary_sides(g, z)
            assert (Fraction(left, scale), Fraction(right, scale)) == corollary_sides(g, z)

    @pytest.mark.parametrize(
        "g,z",
        [
            # Every long-side weight is 0, so the long side's sum is 0.
            (K23, [1, 2, 0, 0, 0]),
            (_transpose(K23), [0, 0, 0, 1, 2]),
            (HEX, [1, 2, 3, 0, 0, 0]),
            # y_1, not r = y_0, has neighbors of weight 0 only: a zero row.
            (BipartiteGraph(2, 3, (0b11, 0b01, 0b10)), [0, 1, 1, 2, 1]),
            (BipartiteGraph(3, 2, (0b011, 0b101)), [1, 2, 1, 0, 1]),
            # r = y_1 itself has neighbors of weight 0 only: the block is built.
            (BipartiteGraph(2, 3, (0b11, 0b01, 0b10)), [0, 1, 0, 1, 1]),
        ],
        ids=["long-zero", "long-zero-m>n", "long-zero-m=n", "zero-row", "zero-row-m>n", "r-zero"],
    )
    def test_degenerate_long_side(self, g, z):
        left, right, scale = _corollary_sides(g, z)
        assert (Fraction(left, scale), Fraction(right, scale)) == corollary_sides(g, z)
        assert left == right == 0
        assert corollary_check(g, z)

    def test_complete_bipartite_attains_equality(self):
        # Scoins: the tree sum of K_{m,n} is (sum over X)^(n-1) (sum over Y)^(m-1).
        rng = random.Random(1962)
        for m in range(1, 11):
            for n in range(1, 11):
                z = self.seeded_weights(rng, m + n)
                left, right, scale = _corollary_sides(complete(m, n), z)
                assert left == right
                assert Fraction(right, scale) == sum(z[:m]) ** n * sum(z[m:]) ** m
                assert corollary_check(complete(m, n), z)

    def test_lists_no_tree(self, monkeypatch):
        def refuse(g, *, cap=None):
            raise AssertionError("corollary_check listed spanning trees")

        monkeypatch.setattr("ferrers.verify.tau_brute_force", refuse)
        assert corollary_check(complete(8, 10), [0, 1, 2, 0, 3, 1, 1, 5] + [1, 0] * 5)

    def test_wrong_minor_fires(self, monkeypatch):
        # K_{3,4} at unit weights sits at equality, so one more in the minor breaks it.
        monkeypatch.setattr("ferrers.verify.bareiss_det", lambda rows: linalg.bareiss_det(rows) + 1)
        with pytest.raises(TheoremViolation, match="weighted bound fails: 5196 > 5184"):
            corollary_check(complete(3, 4), self.ones(complete(3, 4)))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_holds_at_arbitrary_nonnegative_weights(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 3))
        nbrs = tuple(data.draw(st.integers(1, (1 << m) - 1)) for _ in range(n))
        g = BipartiteGraph(m, n, nbrs)
        z = [
            data.draw(st.fractions(min_value=0, max_value=4, max_denominator=5))
            for _ in range(m + n)
        ]
        assert corollary_check(g, z)


def _degrees_plus_one(g):
    den, rows, dd = linalg.scaled_schur(g)
    return den, rows, DegreeData((dd.a[0] + 1,) + dd.a[1:], dd.b)


def _perturbed_pair(g):
    den, rows, dd = linalg.scaled_schur(g)
    rows[0][1] += 1
    rows[1][0] += 1
    return den, rows, dd


def _det_plus_one(rows):
    return linalg.bareiss_det(rows) + 1


class TestFlagDiagonalization:
    @pytest.mark.parametrize(
        "heights", [(1,), (2, 2), (3, 2, 1), (4, 4, 4, 4), (5, 3, 3, 2, 1)]
    )
    def test_examples(self, heights):
        assert equality_flag_diagonalization(PartitionSpec(heights))

    @given(partitions())
    @settings(max_examples=60, deadline=None)
    def test_every_staircase_diagonalizes(self, p):
        assert equality_flag_diagonalization(p)

    @pytest.mark.parametrize(
        "name,fake,message",
        [
            pytest.param("scaled_schur", _degrees_plus_one, "degree readback", id="degrees"),
            pytest.param("scaled_schur", _perturbed_pair, "flag basis entry", id="pair"),
            pytest.param("bareiss_det", _det_plus_one, "det M = ", id="det"),
        ],
    )
    def test_each_check_fires(self, monkeypatch, name, fake, message):
        monkeypatch.setattr(f"ferrers.verify.{name}", fake)
        with pytest.raises(IdentityViolation, match=message):
            equality_flag_diagonalization(PartitionSpec((3, 2, 1)))


def _last_minor_faulted(fault):
    """linalg.leading_minors with fault applied to the last minor, which the tree count reads."""

    def faulty(rows):
        *head, last = linalg.leading_minors(rows)
        return [*head, fault(last)]

    return faulty


def _block_diagonal_last_plus_one(rows):
    # The tree count's elimination with its block's last diagonal entry raised by 1.
    rows[-1][-1] += 1
    return linalg.leading_minors(rows)


def _indices_without_highest(t):
    # The tree count reads each neighborhood of two or more without its highest x.
    return graphs.bit_indices(t ^ (1 << (t.bit_length() - 1)) if t & (t - 1) else t)


def _lcm_without_last(*b):
    # The tree count's D with b_(n-1) left out.
    return math.lcm(*b[:-1])


def _det_plus_one_above_4(rows):
    return _last_minor_faulted(lambda det: det + (len(rows) > 4))(rows)


_det_without_sign = _last_minor_faulted(abs)


def _schur_without_diagonal_term(g):
    den, rows, dd = linalg.scaled_schur(g)
    for t, bj in zip(g.nbrs, dd.b):
        for i in graphs.bit_indices(t):
            rows[i][i] += den // bj
    return den, rows, dd


def _asymmetric_schur(g):
    den, rows, dd = linalg.scaled_schur(g)
    if g.m > 1:
        rows[0][1] += 1
    return den, rows, dd


def _a0_plus_one(g):
    dd = graphs.degrees(g)
    return DegreeData((dd.a[0] + 1,) + dd.a[1:], dd.b)


def _minors_without_division(rows):
    # linalg.leading_minors with the exact division by the previous pivot left out.
    d = len(rows)
    minors = []
    for k in range(d):
        rk = rows[k]
        pivot = rk[k]
        minors.append(pivot)
        if pivot == 0:
            break
        for i in range(k + 1, d):
            ri = rows[i]
            rik = ri[k]
            for j in range(k + 1, d):
                ri[j] = ri[j] * pivot - rik * rk[j]
    return minors


_D_M_READERS = ("verify", "spectral")


_FAULT_PAIRS = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


@pytest.mark.parametrize(
    "modules,name,fake,fired",
    [
        pytest.param(
            ("trees",), "leading_minors", _block_diagonal_last_plus_one,
            {"tau": 179, "reduction": 74, "oracle": 74, "inequality": 74, "equality": 47},
            id="count-block-diagonal-last",
        ),
        pytest.param(
            ("trees",), "bit_indices", _indices_without_highest,
            {"reduction": 210, "oracle": 210, "equality": 72}, id="count-drops-highest-index",
        ),
        pytest.param(
            ("trees",), "lcm", _lcm_without_last,
            {"reduction": 149, "oracle": 149, "inequality": 149, "equality": 71},
            id="count-denominator-drops-last",
        ),
        pytest.param(
            ("trees", "spectral"), "leading_minors", _det_plus_one_above_4,
            {}, id="det-plus-one-above-4",
        ),
        pytest.param(
            _D_M_READERS, "scaled_schur", _schur_without_diagonal_term,
            {"reduction": 253, "majorization": 253},
            id="schur-without-diagonal-term",
        ),
        pytest.param(
            ("verify", "linalg", "trees", "spectral"), "degrees", _a0_plus_one,
            {"reduction": 253, "majorization": 248, "equality": 109},
            id="degrees-a0-plus-one",
        ),
        pytest.param(
            ("spectral",), "leading_minors", _minors_without_division,
            {"reduction": 205}, id="minors-without-division",
        ),
        pytest.param(
            ("trees", "spectral"), "leading_minors", _det_without_sign, {},
            id="det-without-sign",
        ),
        pytest.param(
            _D_M_READERS, "scaled_schur", _asymmetric_schur,
            {"majorization": 248, "reduction": 244},
            id="asymmetric-rows",
        ),
    ],
)
class TestFaultMatrix:
    """One small bug in one layer, injected by rebinding its name in every
    module that imports it.  A tally campaign over every pair with m, n <= 3
    (253 connected graphs, all oracled at 14 edges) pins the graphs each
    category catches.  A campaign computes no eigenvalue, so asymmetric rows
    reach only the exact checks, and that campaign goes on as well.

    Over all 5743 connected graphs with m*n <= 12 each row fires the same
    categories (ROADMAP item 12), and the Jacobi report, when campaigns ran
    it, never failed on a graph that no other category caught.
    The last leading minor + 1 above dimension 4 reaches no check: the tree
    count and the certificate both eliminate a min(m, n) square block, and
    the reduction reads det(D*M) from the certificate's minors.  Neither
    block has a negative determinant, so dropping the sign of the last
    minor changes nothing either.  The three count-* rows break what the
    tree count reads to build D*S: its block's last diagonal entry, the
    highest x of each neighborhood, and b_(n-1) in D.  The count runs on the
    short side with its neighborhoods sorted, so y_0, the one it deletes, is
    the smallest neighborhood and b_(n-1) is the degree of the largest.  A
    wrong block that leaves prod(b) det(D*S) off a multiple of D^m is
    refused by the count itself ("tau"); one that does not is a wrong count,
    which the brute-force oracle and the reduction catch.  Every record a
    fault changes or loses is caught.
    """

    def test_categories_that_fire(self, monkeypatch, modules, name, fake, fired):
        for module in modules:
            monkeypatch.setattr(f"ferrers.{module}.{name}", fake)
        s = verify_pairs(_FAULT_PAIRS, oracle_edge_cap=14, fail_fast=False)
        assert s.graphs_checked == 253
        assert s.oracle_checked == 253 - fired.get("tau", 0)  # a failed count has no record
        assert s.failure_counts == fired

    def test_memo_hides_no_fault(self, monkeypatch, modules, name, fake, fired):
        # A chunk's memo keys on all that its verdicts read: a fresh memo for
        # every graph gives the same summary.  A fault patched after a sound
        # campaign reaches the next one, so no state outlives a call.
        def campaign():
            d = summary_dict(verify_pairs(_FAULT_PAIRS, oracle_edge_cap=14, fail_fast=False))
            del d["wall_time"]
            return d

        assert campaign()["failure_counts"] == {}
        for module in modules:
            monkeypatch.setattr(f"ferrers.{module}.{name}", fake)
        shared = campaign()
        assert shared["failure_counts"] == fired
        fresh = []

        def fresh_memo(key, brute, memo):
            fresh.append(key)
            return _examine(key, brute, {})

        monkeypatch.setattr("ferrers.verify._examine", fresh_memo)
        assert campaign() == shared
        assert len(fresh) == 253  # the campaign reached the fresh-memo route on every graph

    def test_every_changed_record_is_caught(self, monkeypatch, modules, name, fake, fired):
        # What lets a cross-check go: a graph whose record the fault loses or
        # changes must fail some category.  A fault that changes no record
        # may go unseen.
        sound = {
            g: record_dict(verify_graph(g)) for m, n in _FAULT_PAIRS for g in enumerate_connected(m, n)
        }
        for module in modules:
            monkeypatch.setattr(f"ferrers.{module}.{name}", fake)
        counts = Counter()
        for m, n in _FAULT_PAIRS:
            for mask in range(1 << (m * n)):
                if not is_connected(g := graph_from_mask(m, n, mask)):
                    continue
                verdicts, bad = _examine(_mask_key(m, n, mask), tau_brute_force(g), {})
                if verdicts is None or record_dict(VerificationRecord(g, *verdicts)) != sound[g]:
                    assert bad, write_graph(g)
                counts.update(bad)
        assert len(sound) == 253
        assert counts == fired
