"""Desk-scale verification campaigns for the tree-count bound.

verify_graph checks a single connected graph with exact arithmetic;
verify_pairs and verify_range run exhaustive labeled enumerations, abort on
the first violation (or tally them all), and can split mask ranges across
worker processes.  A violation here would be a counterexample, so the
offending graph is always serialized into the error.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import prod
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, IdentityViolation, TheoremViolation
from .graphs import (
    DEFAULT_CAP,
    BipartiteGraph,
    PartitionSpec,
    _mask_connected,
    degrees,  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
    ferrers_from_partition,
    graph_from_mask,
    is_connected,  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
    is_ferrers,
    write_graph,
)
from .linalg import ScaledRows, bareiss_det, rat_str, scaled_schur
from .linalg import matrix_M  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .spectral import certify_majorization, majorization_report
from .trees import check_reduction, ferrers_invariant, tau_brute_force, tau_matrix_tree


@dataclass(frozen=True)
class VerificationRecord:
    """Everything checked for one graph; the verdicts use exact rationals only."""

    graph: BipartiteGraph
    tau: int
    F: Fraction
    inequality_ok: bool
    equality: bool
    ferrers: bool
    reduction_ok: bool
    majorizes: bool

    @property
    def failures(self) -> list[str]:
        """Failed categories in campaign order: inequality, equality, reduction, majorization."""
        checks = (
            ("inequality", self.inequality_ok),
            ("equality", self.equality == self.ferrers),
            ("reduction", self.reduction_ok),
            ("majorization", self.majorizes),
        )
        return [category for category, ok in checks if not ok]


def record_dict(rec: VerificationRecord) -> dict:
    """JSON-ready form of a record; the graph rides along in its text format."""
    return {
        "graph": write_graph(rec.graph),
        "tau": rec.tau,
        "F": rat_str(rec.F),
        "inequality_ok": rec.inequality_ok,
        "equality": rec.equality,
        "ferrers": rec.ferrers,
        "reduction_ok": rec.reduction_ok,
        "majorizes": rec.majorizes,
    }


def verify_graph(
    g: BipartiteGraph,
    *,
    tau: int | None = None,
    scaled: ScaledRows | None = None,
) -> VerificationRecord:
    """Verify one connected graph: bound, equality vs staircase shape, cross-checks.

    The inequality and equality verdicts compare tau against
    F = ferrers_invariant(g) as exact rationals.  The reduction identity and
    the exact majorization certificate (certify_majorization) run as well,
    on the integer rows of D*M built once by scaled_schur, and land in their
    boolean fields; no eigenvalue is computed.  The certificate's no-swap
    elimination gives det(D*M) to the reduction, which takes the determinant
    with row swaps itself when the certificate fails.  tau and scaled may be
    passed in when already computed; a scaled passed in must be the
    (D, rows, degrees) triple of scaled_schur(g), and the checks read the
    degrees from it.  scaled_schur refuses a disconnected graph with
    DisconnectedGraph, before any tree count is taken.
    """
    if scaled is None:
        scaled = scaled_schur(g)
    if tau is None:
        tau = tau_matrix_tree(g)
    try:
        det = certify_majorization(g, scaled=scaled)[-1]
        majorizes = True
    except IdentityViolation:
        det = None
        majorizes = False
    try:
        reduction_ok = check_reduction(g, tau=tau, scaled=scaled, det=det)
    except IdentityViolation:
        reduction_ok = False
    F = ferrers_invariant(g)
    return VerificationRecord(
        graph=g,
        tau=tau,
        F=F,
        inequality_ok=tau <= F,
        equality=tau == F,
        ferrers=is_ferrers(g),
        reduction_ok=reduction_ok,
        majorizes=majorizes,
    )


@dataclass
class CampaignSummary:
    """Tally of one exhaustive campaign, or of one chunk (m, n, lo, hi) of its masks.

    dims is the campaign's rectangle (the largest m and n), or the chunk's
    pair.  failure_counts (a Counter) and failure_examples hold the failed
    checks by category; they stay empty on the fail-fast path, where the
    campaign aborts instead.  violations is their total.  oracle_checked counts
    graphs that also went through the brute-force, deletion-independence
    and Jacobi spectrum cross-checks; deletion-independence is certified by
    zero Laplacian row and column sums plus one generic minor, since zero
    sums make all cofactors equal.  A chunk leaves wall_time at 0; the
    campaign sets its own.
    """

    dims: tuple[int, int]
    graphs_checked: int = 0
    equality_cases: int = 0
    ferrers_count: int = 0
    wall_time: float = 0.0
    oracle_checked: int = 0
    failure_counts: Counter[str] = field(default_factory=Counter)
    failure_examples: dict[str, str] = field(default_factory=dict)

    @property
    def violations(self) -> int:
        return sum(self.failure_counts.values())

    def absorb(self, other: CampaignSummary) -> None:
        """Add other's counts to this tally; each category keeps its first example."""
        self.graphs_checked += other.graphs_checked
        self.equality_cases += other.equality_cases
        self.ferrers_count += other.ferrers_count
        self.oracle_checked += other.oracle_checked
        self.failure_counts.update(other.failure_counts)
        for category, example in other.failure_examples.items():
            self.failure_examples.setdefault(category, example)


def summary_dict(s: CampaignSummary) -> dict:
    return {
        "dims": list(s.dims),
        "graphs_checked": s.graphs_checked,
        "violations": s.violations,
        "equality_cases": s.equality_cases,
        "ferrers_count": s.ferrers_count,
        "wall_time": s.wall_time,
        "oracle_checked": s.oracle_checked,
        "failure_counts": dict(s.failure_counts),
        "failure_examples": dict(s.failure_examples),
    }


def _examine(
    g: BipartiteGraph, oracle_edge_cap: int | None
) -> tuple[VerificationRecord, list[str], bool]:
    """Record and failed categories for one graph, and whether the oracles ran.

    Oracled graphs take tau from the all-deletions check, so it is computed
    once, and the rows of D*M are built once for the record and the Jacobi
    report; when the deletion check fails, verify_graph takes tau itself.
    That check certifies every deletion from one generic minor: the
    Laplacian's rows and columns sum to 0, so all its cofactors are equal.
    The report is the float cross-check of the exact majorization certificate;
    an IdentityViolation there counts as "spectrum".
    """
    if oracle_edge_cap is None or g.edge_count > oracle_edge_cap:
        rec = verify_graph(g)
        return rec, rec.failures, False
    try:
        tau = tau_matrix_tree(g, check_all_deletions=True)
    except IdentityViolation:
        tau = None
    scaled = scaled_schur(g)
    rec = verify_graph(g, tau=tau, scaled=scaled)
    bad = rec.failures
    if tau is None:
        bad.append("deletion")
    brute, _ = tau_brute_force(g, cap=oracle_edge_cap)
    if brute != rec.tau:
        bad.append("oracle")
    try:
        majorization_report(g, scaled=scaled)
    except IdentityViolation:
        bad.append("spectrum")
    return rec, bad, True


def _run_chunk(
    oracle_edge_cap: int | None, fail_fast: bool, collect: bool, chunk: tuple[int, int, int, int]
) -> tuple[CampaignSummary, list[dict] | None]:
    m, n, lo, hi = chunk
    tally = CampaignSummary((m, n))
    records: list[dict] | None = [] if collect else None
    for mask in range(lo, hi):
        if not _mask_connected(m, n, mask):
            continue
        g = graph_from_mask(m, n, mask)
        try:
            rec, bad, used_oracle = _examine(g, oracle_edge_cap)
        except Exception as exc:  # same type, so callers still catch it; now it names g
            raise type(exc)(f"{exc} for:\n{write_graph(g)}") from exc
        tally.graphs_checked += 1
        tally.equality_cases += rec.equality
        tally.ferrers_count += rec.ferrers
        tally.oracle_checked += used_oracle
        if bad:
            dump = (
                f"{', '.join(bad)} failed for tau={rec.tau}, F={rat_str(rec.F)}:\n"
                f"{write_graph(g)}"
            )
            if fail_fast:
                raise TheoremViolation(dump)
            tally.failure_counts.update(bad)
            for category in bad:
                tally.failure_examples.setdefault(category, dump)
        if records is not None:
            records.append(record_dict(rec))
    return tally, records


_CHUNK_MASKS = 1 << 13


def verify_pairs(
    pairs: Iterable[tuple[int, int]],
    *,
    cap: int = DEFAULT_CAP,
    workers: int | None = None,
    oracle_edge_cap: int | None = None,
    fail_fast: bool = True,
    emit: Callable[[dict], None] | None = None,
) -> CampaignSummary:
    """Exhaustively verify every connected labeled graph for the given part sizes.

    Each (m, n) pair must respect the enumeration cap.  With fail_fast the
    first violating graph aborts the whole campaign inside a TheoremViolation;
    otherwise violations are tallied per category.  oracle_edge_cap turns on
    the brute-force and deletion-independence cross-checks for graphs with at
    most that many edges; the latter checks zero Laplacian row and column
    sums and one generic minor, which together make every cofactor equal.
    emit receives one JSON-ready record per graph.
    The masks are cut into chunks (m, n, lo, hi), and one loop absorbs each
    chunk's CampaignSummary and records in mask order: None runs the chunks
    in turn, workers > 1 runs them in a pool of at most one process per
    chunk, and a value below 1 is a ValueError.  An exception raised while
    checking one graph is re-raised with its type and that graph added.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    pair_list = sorted(set(pairs))
    if not pair_list:
        raise ValueError("no (m, n) pairs to verify")
    for m, n in pair_list:
        if m < 1 or n < 1:
            raise ValueError(f"bad pair ({m}, {n})")
        if m * n > cap:
            raise CapExceeded(f"pair ({m}, {n}) exceeds the enumeration cap {cap}")
    start = time.perf_counter()
    chunks = [
        (m, n, lo, min(lo + _CHUNK_MASKS, 1 << (m * n)))
        for m, n in pair_list
        for lo in range(0, 1 << (m * n), _CHUNK_MASKS)
    ]
    run = partial(_run_chunk, oracle_edge_cap, fail_fast, emit is not None)
    summary = CampaignSummary((max(m for m, _ in pair_list), max(n for _, n in pair_list)))
    if workers is not None and workers > 1 and len(chunks) > 1:
        from multiprocessing import Pool  # only campaigns with workers pay for the import

        runner = Pool(processes=min(workers, len(chunks)))
    else:
        runner = nullcontext()
    with runner as pool:
        for tally, records in map(run, chunks) if pool is None else pool.imap(run, chunks):
            summary.absorb(tally)
            if emit is not None:
                for rec in records:
                    emit(rec)
    summary.wall_time = time.perf_counter() - start
    return summary


def verify_range(
    m_max: int,
    n_max: int,
    *,
    cap: int = DEFAULT_CAP,
    workers: int | None = None,
    emit: Callable[[dict], None] | None = None,
) -> CampaignSummary:
    """Verify every connected labeled graph with 1 <= m <= m_max, 1 <= n <= n_max.

    Fail-fast: the first graph that fails any check aborts the campaign with
    the graph inside the TheoremViolation, so a returned summary always has
    violations == 0 and equal equality and staircase counts.
    """
    if m_max < 1 or n_max < 1:
        raise ValueError(f"bad range ({m_max}, {n_max})")
    pairs = [(m, n) for m in range(1, m_max + 1) for n in range(1, n_max + 1)]
    return verify_pairs(
        pairs,
        cap=cap,
        workers=workers,
        fail_fast=True,
        emit=emit,
    )


def corollary_check(
    g: BipartiteGraph,
    z: Sequence[Fraction | int],
    *,
    cap: int = DEFAULT_CAP,
) -> bool:
    """Weighted form of the bound, checked exactly at one nonnegative weight vector.

    With weights z indexed by X then Y, the generating sum over spanning
    trees of prod_v z_v^(deg_T(v) - 1), times (sum over X)(sum over Y), must
    not exceed prod_v (sum of z over the neighbors of v).  The tree list
    comes from the brute-force enumerator, so the edge cap applies.  At
    z = 1 this is exactly the tau*m*n <= degree-product comparison.
    """
    weights = [Fraction(x) for x in z]
    if len(weights) != g.m + g.n:
        raise ValueError(f"expected {g.m + g.n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    _, trees = tau_brute_force(g, cap=cap)
    xw = weights[: g.m]
    yw = weights[g.m :]
    tree_sum = Fraction(0)
    for tree in trees:
        deg = [0] * (g.m + g.n)
        for i, j in tree:
            deg[i] += 1
            deg[g.m + j] += 1
        term = Fraction(1)
        for w, d in zip(weights, deg):
            term *= w ** (d - 1)
        tree_sum += term
    lhs = tree_sum * sum(xw) * sum(yw)
    rhs = Fraction(1)
    for i in range(g.m):
        rhs *= sum(yw[j] for j, t in enumerate(g.nbrs) if (t >> i) & 1)
    for t in g.nbrs:
        rhs *= sum(xw[i] for i in range(g.m) if (t >> i) & 1)
    if lhs > rhs:
        raise TheoremViolation(
            f"weighted bound fails: {lhs} > {rhs} at z = "
            f"{[rat_str(w) for w in weights]} for:\n{write_graph(g)}"
        )
    return True


def equality_flag_diagonalization(p: PartitionSpec) -> bool:
    """Exact diagonalization of M for a staircase graph in its nested-flag basis.

    The flag adapted to nested neighborhoods {x_0..x_(t-1)} is spanned by the
    all-ones vector and v_r = (1, ..., 1, -(r-1), 0, ..., 0) with r-1 leading
    ones.  In that basis M must be diagonal with r-th entry equal to the
    number of columns of height at least r, which is the r-th X-degree; the
    determinant must therefore be the exact product of the X-degrees.  The
    check runs in integers on the rows of D*M and the degrees that one
    scaled_schur call returns; its messages show values in M's units.
    """
    m = p.m
    den, rows, dd = scaled_schur(ferrers_from_partition(p))
    a = dd.a
    counts = [sum(1 for h in p.t if h >= r) for r in range(1, m + 1)]
    if list(a) != counts:
        raise IdentityViolation(
            f"degree readback {list(a)} disagrees with column-height counts {counts}"
        )
    basis = [[1] * m] + [[1] * (r - 1) + [1 - r] + [0] * (m - r) for r in range(2, m + 1)]
    images = [[sum(x * y for x, y in zip(row, v)) for row in rows] for v in basis]
    for r in range(m):
        for s in range(m):
            value = sum(x * y for x, y in zip(basis[r], images[s]))
            expected = den * counts[r] * sum(x * x for x in basis[r]) if r == s else 0
            if value != expected:
                raise IdentityViolation(
                    f"flag basis entry ({r},{s}) is {Fraction(value, den)}, expected "
                    f"{Fraction(expected, den)} for partition {p.t}"
                )
    det = bareiss_det(rows)
    if det != den**m * prod(a):
        raise IdentityViolation(
            f"det M = {Fraction(det, den**m)} but the degree product is {prod(a)}"
        )
    return True
