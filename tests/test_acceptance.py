"""Acceptance gate: the full contract this package promises, one criterion per test.

Each test prints a single "criterion N: PASS/FAIL (...)" line, so running

    pytest tests/test_acceptance.py -v -s

gives an auditable checklist.  Criteria 1, 2, 3, 5 and 6 share one exhaustive
sweep over every connected labeled bipartite graph with m*n <= 16, run once
per session in tally mode with the brute-force oracle enabled up to 16 edges,
so on every graph.
Exact claims are compared as integers or rationals with zero tolerance; the
floating eigenvalue claims (the Jacobi report on each of the 550 relabeling
classes with m*n <= 16, the hexagon spot check, criterion 7) carry an
explicit 1e-9.
"""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import prod

import pytest

from ferrers.errors import IdentityViolation, NonConvergence
from ferrers.graphs import (
    BipartiteGraph,
    PartitionSpec,
    degrees,
    enumerate_connected,
    ferrers_from_partition,
    is_connected,
    is_ferrers,
)
from ferrers.linalg import matrix_M, projection_P, projection_Q
from ferrers.spectral import (
    FLOAT_TOL,
    kyfan_check,
    majorization_report,
    overlap_defect,
    overlap_trace,
)
from ferrers.trees import ferrers_invariant, tau_matrix_tree
from ferrers.verify import (
    _corollary_sides,
    corollary_check,
    equality_flag_diagonalization,
    verify_pairs,
)
from matrix_helpers import mul_vec, zeros

BASE_SEED = 20260817
SWEEP_PAIRS = tuple(
    (m, n) for m in range(1, 17) for n in range(1, 17) if m * n <= 16
)
ORACLE_EDGE_CAP = 16

HEX = BipartiteGraph(3, 3, (0b011, 0b110, 0b101))


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def sweep():
    # Tally mode so a single bad graph cannot mask further failures; the
    # cap of 16 is the sweep's own limit on m*n.
    return verify_pairs(
        SWEEP_PAIRS,
        cap=16,
        oracle_edge_cap=ORACLE_EDGE_CAP,
        fail_fast=False,
    )


def test_criterion_1_bound_and_equality_at_desk_scale(sweep):
    bad = sweep.failure_counts.get("inequality", 0) + sweep.failure_counts.get(
        "equality", 0
    )
    ok = (
        bad == 0
        and sweep.equality_cases == sweep.ferrers_count
        and sweep.graphs_checked > 0
    )
    _criterion(
        1,
        ok,
        f"{sweep.graphs_checked} connected graphs with m*n <= 16, "
        f"{sweep.equality_cases} equality cases = {sweep.ferrers_count} staircase "
        f"graphs, {sweep.wall_time:.1f}s",
    )


def test_criterion_2_tree_count_oracles(sweep):
    bad = sweep.failure_counts.get("oracle", 0)
    ok = bad == 0 and sweep.oracle_checked == sweep.graphs_checked == 87238
    _criterion(
        2,
        ok,
        f"brute-force cross-check on {sweep.oracle_checked} of {sweep.graphs_checked} "
        f"graphs, every one (at most {ORACLE_EDGE_CAP} edges)",
    )


def test_criterion_3_reduction_identity(sweep):
    bad = sweep.failure_counts.get("reduction", 0)
    _criterion(
        3,
        bad == 0,
        f"tau*m*n = (prod b)*det M exactly on all {sweep.graphs_checked} graphs",
    )


def test_criterion_4_overlap_formula_exhaustive():
    pairs = 0
    for m in range(1, 7):
        for i in range(1, 1 << m):
            for t in range(1, 1 << m):
                value = overlap_trace(i, t, m)
                defect = overlap_defect(i, t)
                assert value == (i & t).bit_count() + defect
                nested = (i & t) == i or (i & t) == t
                assert (defect == 0) == nested
                pairs += 1
    _criterion(4, True, f"{pairs} subset pairs over ground sets up to size 6, exact")


def test_criterion_5_projection_algebra(sweep):
    # Every neighborhood that occurs in the sweep lives on some m <= 16;
    # for m <= 8 all nonempty subsets are covered, beyond that only the
    # full set can appear (those graphs have a single column).
    checked = 0

    def check(t, m):
        nonlocal checked
        p, q = projection_P(t, m), projection_Q(t, m)
        assert p * p == p
        assert q * q == q
        assert q.trace() == t.bit_count()
        ones = tuple(Fraction(1) for _ in range(m))
        assert mul_vec(p, ones) == tuple(Fraction(0) for _ in range(m))
        checked += 1

    for m in range(1, 9):
        for t in range(1, 1 << m):
            check(t, m)
    for m in range(9, 17):
        check((1 << m) - 1, m)
    # matrix_M reads the block formula; resum the Fraction Q projections, an
    # independent route to M, on two full families.
    resummed = 0
    for m, n in ((3, 3), (2, 4)):
        for g in enumerate_connected(m, n):
            total = zeros(m)
            for t in g.nbrs:
                total = total + projection_Q(t, m)
            assert total == matrix_M(g)
            resummed += 1
    ok = sweep.failure_counts.get("reduction", 0) == 0
    _criterion(
        5,
        ok,
        f"{checked} projections idempotent with exact traces, "
        f"decomposition resummed on {resummed} graphs",
    )


def test_criterion_6_majorization_certificate(sweep):
    # "majorization" is the exact integer certificate, run on every graph of
    # the sweep.  The float cross-check compares the numbers of each Jacobi
    # report, off the campaign: relabeling only permutes M, so one graph per
    # class suffices.  The trace gap allows FLOAT_TOL per unit of sum(a).
    exact_bad = sweep.failure_counts.get("majorization", 0)
    classes = [
        g for m, n in SWEEP_PAIRS for g in enumerate_connected(m, n, cap=16, dedupe=True)
    ]
    float_bad = 0
    for g in classes:
        try:
            rep = majorization_report(g)
        except (IdentityViolation, NonConvergence):
            float_bad += 1
            continue
        float_bad += not (
            all(
                gap >= float(defect) - FLOAT_TOL
                for gap, defect in zip(rep.partial_gaps, rep.defect_sums)
            )
            and rep.trace_gap <= FLOAT_TOL * max(1, sum(rep.a_sorted))
            and rep.spectrum.values[-1] > FLOAT_TOL
        )
    rep = majorization_report(HEX)
    spot = (
        rep.spectrum.values[0] == pytest.approx(3.0, abs=FLOAT_TOL)
        and rep.spectrum.values[1] == pytest.approx(1.5, abs=FLOAT_TOL)
        and rep.spectrum.values[2] == pytest.approx(1.5, abs=FLOAT_TOL)
        and rep.a_sorted == (2, 2, 2)
        and rep.trace_gap <= FLOAT_TOL * sum(rep.a_sorted)
    )
    _criterion(
        6,
        exact_bad == 0 and float_bad == 0 and spot,
        f"exact: Ky Fan prefix identities and positive leading minors of D*M on all "
        f"{sweep.graphs_checked} graphs, {exact_bad} majorization failures; float: "
        f"Jacobi partial sums beat degree sums plus defects at 1e-9, {float_bad} failures, "
        f"on {len(classes)} relabeling classes; hexagon spectrum (3, 1.5, 1.5) confirmed",
    )


def test_criterion_7_kyfan_maximum_principle():
    rng = random.Random(BASE_SEED + 7)
    checks = 0
    for _ in range(100):
        s = [[rng.uniform(-10.0, 10.0) for _ in range(6)] for _ in range(6)]
        s = [[0.5 * (s[i][j] + s[j][i]) for j in range(6)] for i in range(6)]
        for k in range(1, 6):
            basis = []
            while len(basis) < k:
                v = [rng.gauss(0.0, 1.0) for _ in range(6)]
                for u in basis:
                    dot = sum(x * y for x, y in zip(v, u))
                    v = [x - dot * y for x, y in zip(v, u)]
                norm = sum(x * x for x in v) ** 0.5
                if norm > 1e-6:
                    basis.append([x / norm for x in v])
            p = [
                [sum(u[i] * u[j] for u in basis) for j in range(6)]
                for i in range(6)
            ]
            assert kyfan_check(s, p, k)
            checks += 1
    _criterion(
        7,
        checks == 500,
        f"{checks} random rank-k projections against 6x6 spectra at 1e-9, "
        f"top-k attainment included",
    )


def _staircases(limit: int):
    # Every PartitionSpec with m + n <= limit: first part m, then n - 1
    # weakly decreasing heights in 1..m.  A pair has C(m+n-2, n-1) shapes,
    # so the pairs with m + n = s have 2^(s-2) together.
    for m in range(1, limit):
        for n in range(1, limit - m + 1):
            for rest in combinations_with_replacement(range(m, 0, -1), n - 1):
                yield PartitionSpec((m, *rest))


def test_criterion_8_staircase_equality_family():
    rng = random.Random(BASE_SEED + 8)
    seeded = []
    for _ in range(50):
        n = rng.randint(1, 8)
        heights = [rng.randint(1, 8)]
        for _ in range(n - 1):
            heights.append(rng.randint(1, heights[-1]))
        seeded.append(PartitionSpec(tuple(heights)))
    every = list(_staircases(14))
    assert len(every) == 2**13 - 1
    for p in every + seeded:
        g = ferrers_from_partition(p)
        assert is_ferrers(g)
        assert tau_matrix_tree(g) == ferrers_invariant(g)  # exact Fraction == int comparison
        assert equality_flag_diagonalization(p)  # det(D*M) = D^m prod(a), by bareiss_det
    for p in seeded:
        g = ferrers_from_partition(p)
        assert matrix_M(g).det_exact() == prod(degrees(g).a)
    _criterion(
        8,
        True,
        f"all {len(every)} staircase graphs with m + n <= 14 and 50 random ones with "
        f"m, n <= 8: tau = F and the flag basis diagonalizes M; det M = prod(a) in "
        f"Fractions on the 50",
    )


def test_criterion_9_weighted_corollary():
    rng = random.Random(BASE_SEED + 9)
    graphs = []
    while len(graphs) < 200:
        m = rng.randint(1, 12)
        n = rng.randint(1, max(1, 12 // m))
        g = BipartiteGraph(
            m, n, tuple(rng.randint(1, (1 << m) - 1) for _ in range(n))
        )
        if is_connected(g):
            graphs.append(g)
    def draw(v):
        return [
            Fraction(0)
            if rng.random() < 0.15
            else Fraction(rng.randint(1, 24), rng.randint(1, 9))
            for _ in range(v)
        ]

    weighted = 0
    for g in graphs:
        v = g.m + g.n
        for _ in range(5):
            z = draw(v)
            assert corollary_check(g, z)
            weighted += 1
        # z = 1 collapses to the plain bound; check the two sides agree
        assert corollary_check(g, [1] * v)
        dd = degrees(g)
        assert tau_matrix_tree(g) * g.m * g.n <= prod(dd.a) * prod(dd.b)
    # Every staircase attains equality at every weight vector (Ehrenborg and
    # van Willigenburg 2004 give its weighted tree sum as a product), zeros
    # included; K_{8,10} is far above any brute-force cap.
    stairs = [ferrers_from_partition(p) for p in _staircases(14)]
    stairs.append(BipartiteGraph(8, 10, ((1 << 8) - 1,) * 10))
    equal = 0
    for g in stairs:
        for _ in range(3):
            z = draw(g.m + g.n)
            left, right, _ = _corollary_sides(g, z)
            equal += left == right
    # Strictness off the staircases at positive weights is observed here,
    # not a theorem of the paper.
    others = [
        g
        for m, n in SWEEP_PAIRS
        if m <= n
        for g in enumerate_connected(m, n, cap=16, dedupe=True)
        if not is_ferrers(g)
    ]
    strict = 0
    for g in others:
        for _ in range(10):
            z = [Fraction(rng.randint(1, 24), rng.randint(1, 9)) for _ in range(g.m + g.n)]
            left, right, _ = _corollary_sides(g, z)
            strict += left < right
    _criterion(
        9,
        weighted == 1000
        and len(stairs) == 8192
        and equal == 3 * len(stairs)
        and len(others) == 256
        and strict == 10 * len(others),
        f"{weighted} weight vectors over 200 random connected graphs with "
        f"m*n <= 12, exact, plus the unit-weight reduction; equality at "
        f"{equal} of {3 * len(stairs)} weight vectors, zeros included, on the "
        f"{len(stairs) - 1} staircases with m + n <= 14 and K_8,10; strict "
        f"inequality, an observed pattern and not the paper's theorem, at "
        f"{strict} of {10 * len(others)} positive weight vectors on the "
        f"{len(others)} non-staircase classes with m <= n and m*n <= 16",
    )
