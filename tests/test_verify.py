"""Campaign driver: single-graph records, exhaustive sweeps, failure categories."""

import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ferrers import graphs, linalg, trees
from ferrers.cli import main
from ferrers.errors import (
    CapExceeded,
    DisconnectedGraph,
    IdentityViolation,
    NonConvergence,
    TheoremViolation,
)
from ferrers.graphs import (
    BipartiteGraph,
    DegreeData,
    PartitionSpec,
    ferrers_from_partition,
    graph_from_mask,
    is_connected,
    is_ferrers,
    parse_graph,
    write_graph,
)
from ferrers.linalg import RationalMatrix
from ferrers.spectral import majorization_report
from ferrers.verify import (
    _CHUNK_MASKS,
    _examine,
    corollary_check,
    equality_flag_diagonalization,
    record_dict,
    summary_dict,
    verify_graph,
    verify_pairs,
    verify_range,
)

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))
K22 = BipartiteGraph(2, 2, (0b11, 0b11))
K23 = BipartiteGraph(2, 3, (0b11, 0b11, 0b11))
STAIR = ferrers_from_partition(PartitionSpec((3, 2, 1)))


def oracle_connected_count(m, n):
    """Union-find over raw masks; deliberately independent of the library."""
    count = 0
    for mask in range(1 << (m * n)):
        parent = list(range(m + n))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for bit in range(m * n):
            if (mask >> bit) & 1:
                parent[find(bit % m)] = find(m + bit // m)
        if len({find(v) for v in range(m + n)}) == 1:
            count += 1
    return count


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

    def test_tau_passed_in_is_used(self):
        assert verify_graph(HEX, tau=6) == verify_graph(HEX)
        rec = verify_graph(HEX, tau=8)
        assert rec.tau == 8
        assert not rec.inequality_ok and not rec.reduction_ok and rec.majorizes

    def test_equality_cases(self):
        for g in (K22, K23, STAIR, BipartiteGraph(1, 1, (1,))):
            rec = verify_graph(g)
            assert rec.equality and rec.ferrers
            assert rec.tau == rec.F

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            verify_graph(BipartiteGraph(2, 2, (0b01, 0b10)))

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
    """Per graph, the degrees are counted twice: in scaled_schur, which hands
    them to the checks on D*M, and in ferrers_invariant for F.  Connectivity
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
            assert calls == {"degrees": 2, "is_connected": 1}

    def test_oracled_graph(self, calls):
        # The Jacobi report reads the same rows: no guard and no degree count.
        rec, bad, used_oracle = _examine(HEX, 14)
        assert used_oracle and bad == []
        assert calls == {"degrees": 2, "is_connected": 1}

    def test_flag_diagonalization(self, calls):
        assert equality_flag_diagonalization(PartitionSpec((5, 3, 3, 2, 1)))
        assert calls == {"degrees": 1, "is_connected": 1}


class TestCampaigns:
    def test_smallest_range(self):
        s = verify_range(1, 1)
        assert s.dims == (1, 1)
        assert s.graphs_checked == 1
        assert s.violations == 0
        assert s.equality_cases == s.ferrers_count == 1

    def test_two_by_two_rectangle(self):
        s = verify_range(2, 2)
        # 1 + 1 + 1 + 5 connected labeled graphs across the four pairs.
        assert s.graphs_checked == 8
        assert s.equality_cases == s.ferrers_count == 8
        assert s.violations == 0
        assert s.wall_time >= 0.0

    def test_count_matches_independent_oracle(self):
        s = verify_range(3, 3)
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

    def test_unexpected_exception_names_its_graph_serial_and_pool(self, monkeypatch):
        # (2,7) spans two chunks of masks, so workers=2 really runs the pool.
        def broken(mat):
            raise ValueError("eigensolver broke")

        monkeypatch.setattr("ferrers.spectral.eigen_sym", broken)
        first = next(
            g for mask in range(1 << 14) if is_connected(g := graph_from_mask(2, 7, mask))
        )
        messages = []
        for workers in (None, 2):
            with pytest.raises(ValueError) as exc:
                verify_pairs([(2, 7)], oracle_edge_cap=14, fail_fast=False, workers=workers)
            messages.append(str(exc.value))
        assert messages[0].startswith("eigensolver broke")
        assert write_graph(first) in messages[0]
        assert messages[1] == messages[0]

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
        ["inequality", "equality", "reduction", "majorization", "deletion", "oracle", "spectrum"],
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

    def test_wrong_closed_form_counts_deletion_on_every_graph(self, monkeypatch):
        # The tree count eliminates the X block in closed form; the deletion
        # oracle's generic minors are the independent route that catches it.
        exact = trees._minor_det_at_x0
        monkeypatch.setattr(trees, "_minor_det_at_x0", lambda lap, m: exact(lap, m) + 1)
        s = verify_pairs([(3, 3)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked > 0
        assert s.failure_counts["deletion"] == s.graphs_checked

    def test_laplacian_row_sum_fault_counts_deletion_on_every_graph(self, monkeypatch):
        # Diagonal +1 at x_0 leaves the minor at x_0, and so every verdict,
        # unchanged; the deletion oracle's row-sum check catches it.
        def heavier_x0(g):
            rows = linalg.laplacian_rows(g)
            rows[0][0] += 1
            return rows

        monkeypatch.setattr(trees, "laplacian_rows", heavier_x0)
        s = verify_pairs([(3, 3)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked > 0
        assert s.failure_counts == {"deletion": s.graphs_checked}

    def test_oracled_graphs_compute_tau_once(self, monkeypatch):
        calls = []

        def counting(g, *, check_all_deletions=False):
            calls.append(check_all_deletions)
            return trees.tau_matrix_tree(g, check_all_deletions=check_all_deletions)

        monkeypatch.setattr("ferrers.verify.tau_matrix_tree", counting)
        s = verify_pairs([(2, 3)], oracle_edge_cap=14, fail_fast=False)
        assert s.oracle_checked == s.graphs_checked > 0
        assert calls == [True] * s.graphs_checked
        calls.clear()
        verify_pairs([(2, 3)], fail_fast=False)
        assert calls == [False] * s.graphs_checked

    def test_spectrum_non_convergence_propagates(self, monkeypatch):
        def stuck(g, *, scaled=None):
            raise NonConvergence("no convergence after 100 Jacobi sweeps")

        monkeypatch.setattr("ferrers.verify.majorization_report", stuck)
        assert verify_pairs([(2, 2)], fail_fast=False).violations == 0
        with pytest.raises(NonConvergence):
            verify_pairs([(2, 2)], oracle_edge_cap=14, fail_fast=False)

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

    def test_summary_dict_shape(self):
        d = summary_dict(verify_range(2, 2))
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

    def test_cap_applies_to_the_tree_enumeration(self):
        with pytest.raises(CapExceeded):
            corollary_check(HEX, self.ones(HEX), cap=3)

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


def _laplacian_with(edit):
    """laplacian_rows with edit(g, rows) applied to the rows it returns."""

    def fake(g):
        rows = linalg.laplacian_rows(g)
        edit(g, rows)
        return rows

    return fake


def _last_edge(g):
    # laplacian_rows places y_(n-1) last, and its highest x-neighbor last of those.
    return g.nbrs[-1].bit_length() - 1, g.m + g.n - 1


def _raise_x0_diagonal(g, rows):
    rows[0][0] += 1


def _drop_last_edge(g, rows):
    i, y = _last_edge(g)
    rows[i][y] = rows[y][i] = 0
    rows[i][i] -= 1
    rows[y][y] -= 1


def _drop_last_pair(g, rows):
    i, y = _last_edge(g)
    rows[i][y] = rows[y][i] = 0


def _det_plus_one_above_4(rows):
    return linalg.bareiss_det(rows) + (len(rows) > 4)


def _det_without_sign(rows):
    return abs(linalg.bareiss_det(rows))


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


_D_M_READERS = ("verify", "trees", "spectral")
_FIRST_2_BY_1 = write_graph(BipartiteGraph(2, 1, (0b11,)))


class TestFaultMatrix:
    """One small bug in one layer, injected by rebinding its name in every
    module that imports it.  A tally campaign over every pair with m, n <= 3
    (253 connected graphs, all oracled at 14 edges) pins the graphs each
    category catches; the asymmetric rows instead end the campaign with the
    eigensolver's ValueError, which names the first graph with m >= 2.

    ROADMAP item 6 has the same table over m, n <= 4 and m*n <= 12, where
    every row fires the same categories.  bareiss_det + 1 above dimension 4
    reaches only the deletion oracle's generic minor of size m+n-1: the tree
    count runs Bareiss on the n x n Y block, and the reduction reads det(D*M)
    from leading_minors.
    """

    @pytest.mark.parametrize(
        "modules,name,fake,fired",
        [
            pytest.param(
                ("trees",), "laplacian_rows", _laplacian_with(_raise_x0_diagonal),
                {"deletion": 253}, id="laplacian-diagonal-x0",
            ),
            pytest.param(
                ("trees",), "laplacian_rows", _laplacian_with(_drop_last_edge),
                {"reduction": 253, "oracle": 253, "equality": 109}, id="laplacian-drops-edge",
            ),
            pytest.param(
                ("trees",), "laplacian_rows", _laplacian_with(_drop_last_pair),
                {"deletion": 253, "reduction": 224, "oracle": 224, "inequality": 224,
                 "equality": 94},
                id="laplacian-drops-pair",
            ),
            pytest.param(
                ("trees", "verify"), "bareiss_det", _det_plus_one_above_4,
                {"deletion": 205}, id="det-plus-one-above-4",
            ),
            pytest.param(
                _D_M_READERS, "scaled_schur", _schur_without_diagonal_term,
                {"reduction": 253, "majorization": 253, "spectrum": 253},
                id="schur-without-diagonal-term",
            ),
            pytest.param(
                ("verify", "linalg", "trees", "spectral"), "degrees", _a0_plus_one,
                {"reduction": 253, "majorization": 250, "spectrum": 214, "equality": 109},
                id="degrees-a0-plus-one",
            ),
            pytest.param(
                ("spectral",), "leading_minors", _minors_without_division,
                {"reduction": 225}, id="minors-without-division",
            ),
            pytest.param(
                ("trees", "verify"), "bareiss_det", _det_without_sign, {},
                id="det-without-sign",
            ),
            pytest.param(
                _D_M_READERS, "scaled_schur", _asymmetric_schur,
                f"matrix is not symmetric at (0,1) for:\n{_FIRST_2_BY_1}",
                id="asymmetric-rows",
            ),
        ],
    )
    def test_categories_that_fire(self, monkeypatch, modules, name, fake, fired):
        for module in modules:
            monkeypatch.setattr(f"ferrers.{module}.{name}", fake)
        pairs = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
        if isinstance(fired, str):
            with pytest.raises(ValueError, match=re.escape(fired)):
                verify_pairs(pairs, oracle_edge_cap=14, fail_fast=False)
            return
        s = verify_pairs(pairs, oracle_edge_cap=14, fail_fast=False)
        assert s.graphs_checked == s.oracle_checked == 253
        assert s.failure_counts == fired
