"""Desk-scale verification campaigns for the tree-count bound.

verify_graph checks a single connected graph with exact arithmetic;
verify_pairs runs exhaustive labeled enumerations, tallies every violation
chunk by chunk (fail-fast stops at the first chunk with one), and can split
mask ranges across worker processes.  A campaign computes no eigenvalue:
each category it tallies (inequality, equality, reduction, majorization,
the brute-force "oracle", and a tree count's own "tau" error) is decided in
exact arithmetic; the Jacobi report stays with the spectrum verb.  The
oracle's counts come from one table per chunk of masks (trees._tree_table),
built from the spanning trees of K_{m,n}, not from a search per graph.
_verdicts decides every other verdict on the sorted short side: once per
graph in verify_graph, once per key and chunk in a campaign (a raise is not
kept).  Per labeled mask a campaign runs only the connectivity test, the
key (_mask_key, read from the mask), one memo read and the oracle
comparison; it builds the graph only for a record, a failure dump or an
error.  A violation here would be a counterexample, so the offending graph
is always serialized into the error.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm, prod
from typing import Callable, Iterable, Sequence

from .errors import CapExceeded, IdentityViolation, TheoremViolation
from .graphs import (
    DEFAULT_CAP,
    BipartiteGraph,
    PartitionSpec,
    _covers,
    _mask_connected,
    _transpose,
    bit_indices,
    degrees,  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
    ferrers_from_partition,
    graph_from_mask,
    is_connected,  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
    is_ferrers,
    write_graph,
)
from .linalg import bareiss_det, rat_str, scaled_schur
from .linalg import matrix_M  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .spectral import certify_majorization
from .spectral import majorization_report  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .trees import _tree_table, check_reduction, ferrers_invariant, tau_matrix_tree
from .trees import tau_brute_force  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)


@dataclass(frozen=True)
class VerificationRecord:
    """One graph's exact verdicts, all decided on its sorted short side by _verdicts."""

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
        return _failures(
            self.inequality_ok, self.equality, self.ferrers, self.reduction_ok, self.majorizes
        )


def _failures(
    inequality_ok: bool, equality: bool, ferrers: bool, reduction_ok: bool, majorizes: bool
) -> list[str]:
    """Failed categories of a record's verdicts after tau and F, in campaign order."""
    checks = (
        ("inequality", inequality_ok),
        ("equality", equality == ferrers),
        ("reduction", reduction_ok),
        ("majorization", majorizes),
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


def verify_graph(g: BipartiteGraph) -> VerificationRecord:
    """Verify one connected graph: bound, equality vs staircase shape, cross-checks.

    No verdict changes under a transpose or a relabeling of Y (a staircase's
    transpose is the staircase of the conjugate partition), so _verdicts
    decides every field but the graph on _short_side(g).  The record's graph
    and staircase verdict are those of g.  No memo is used.
    """
    return VerificationRecord(g, *_verdicts(*_short_side(g)))


def _short_side(g: BipartiteGraph) -> tuple[int, int, tuple[int, ...]]:
    """(m, n, sorted neighborhoods) of g's short side: the transpose when m > n, else g."""
    if g.m > g.n and _covers(g.m, g.nbrs):
        g = _transpose(g)
    return g.m, g.n, tuple(sorted(g.nbrs))


def _mask_key(m: int, n: int, mask: int) -> tuple[int, int, tuple[int, ...]]:
    """_short_side(graph_from_mask(m, n, mask)) for a connected mask, read from the mask alone.

    For m > n the short side's neighborhoods are the rows: row i holds bit i
    of every column.  (mask >> i) & spread keeps those bits, column j's at
    j*m, and one product with gather moves each to (n-1)*m + j.  Gather's
    term k puts column j's bit at (n-1+j-k)*m + k, and k < m keeps every such
    bit in a place of its own, so nothing carries into the row.
    """
    full = (1 << m) - 1
    if m <= n:
        return m, n, tuple(sorted([(mask >> s) & full for s in range(0, m * n, m)]))
    spread = ((1 << m * n) - 1) // full  # bits 0, m, ..., (n-1)*m
    gather = ((1 << (m - 1) * n) - 1) // ((1 << m - 1) - 1) << n - 1  # bits (n-1-k)*m + k
    top, low = (n - 1) * m, (1 << n) - 1
    return n, m, tuple(sorted([((mask >> i) & spread) * gather >> top & low for i in range(m)]))


def _verdicts(
    m: int, n: int, nbrs: tuple[int, ...]
) -> tuple[int, Fraction, bool, bool, bool, bool, bool]:
    """A record's fields after its graph, in order, for the short side h = (m, n, nbrs).

    Each reads only nbrs; the tree count deletes the smallest neighborhood.
    tau is compared with F = ferrers_invariant as exact rationals, and the
    staircase verdict is is_ferrers(h).  The reduction identity and the
    exact majorization certificate check the integer rows of D*M that
    scaled_schur builds once, after refusing a disconnected h; no
    eigenvalue is computed.  The certificate's elimination gives det(D*M) to
    the reduction; when it fails, bareiss_det takes it on a copy of the rows.
    """
    h = BipartiteGraph(m, n, nbrs)
    scaled = scaled_schur(h)
    tau = tau_matrix_tree(h)
    try:
        det = certify_majorization(h, scaled)[-1]
        majorizes = True
    except IdentityViolation:
        det = bareiss_det([row[:] for row in scaled[1]])
        majorizes = False
    try:
        reduction_ok = check_reduction(h, tau, scaled[0], scaled[2].b, det)
    except IdentityViolation:
        reduction_ok = False
    F = ferrers_invariant(h, dd=scaled[2])
    return tau, F, tau <= F, tau == F, is_ferrers(h), reduction_ok, majorizes


@dataclass
class CampaignSummary:
    """Tally of one exhaustive campaign, or of one chunk (m, n, lo, hi) of its masks.

    dims is the campaign's rectangle (the largest m and n), or the chunk's
    pair.  failure_counts (a Counter) and failure_examples hold the failed
    checks by category (a fail-fast campaign stops at the first chunk with
    one); violations is their total.  oracle_checked counts graphs whose
    record's tree count was also checked against the brute-force count.
    A chunk leaves wall_time at 0; the campaign sets its own.
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
    key: tuple[int, int, tuple[int, ...]], brute: int | None, memo: dict
) -> tuple[tuple | None, tuple[str, ...]]:
    """Verdicts and failed categories for one labeled graph, given its _mask_key.

    brute is the graph's brute-force tree count from its chunk's _tree_table,
    or None when the oracle is off for it; the table reads only the masks, so
    it shares no code with the Laplacian minor it checks, and the tree count
    must equal it.  No eigenvalue is computed: the majorization verdict is
    the exact certificate.

    memo, shared only by graphs of one (m, n), maps a key to its _verdicts,
    every record field but the graph, and to their _failures; a raise is never
    stored.  A graph whose key is there runs only the memo read and the
    oracle comparison, and builds no graph.

    A hard error never stops the chunk (verify_pairs alone stops a campaign):
    the tree count's IdentityViolation, the checks' only uncaught one, counts
    as "tau" and leaves the graph with no verdicts and no oracle comparison.
    """
    entry = memo.get(key)
    if entry is None:
        try:
            verdicts = _verdicts(*key)
        except IdentityViolation:
            return None, ("tau",)
        entry = memo[key] = verdicts, tuple(_failures(*verdicts[2:]))
    verdicts, bad = entry
    if brute is not None and brute != verdicts[0]:
        bad += ("oracle",)
    return verdicts, bad


def _run_chunk(
    oracle_edge_cap: int | None, collect: bool, chunk: tuple[int, int, int, int]
) -> tuple[CampaignSummary, list[dict] | None]:
    """Tally (and records, when collect) of the connected graphs among masks lo..hi-1.

    Per mask: _mask_connected, and for a connected one its _mask_key, one
    memo read in _examine and the oracle comparison.  The labeled graph is
    built only to emit its record, to dump a failure, or to name it in a
    re-raised exception.  The chunk always runs to its end (verify_pairs
    alone stops a campaign); one memo of _verdicts serves it and dies with it.
    """
    m, n, lo, hi = chunk
    tally = CampaignSummary((m, n))
    records: list[dict] | None = [] if collect else None
    memo: dict = {}
    # A connected graph has at least m+n-1 edges: below that cap, as with
    # none, no graph is oracled and the chunk builds no table.
    oracle_cap = -1 if oracle_edge_cap is None else oracle_edge_cap
    table = _tree_table(m, n, lo, hi) if oracle_cap >= m + n - 1 else None
    for mask in range(lo, hi):
        if not _mask_connected(m, n, mask):
            continue
        oracled = mask.bit_count() <= oracle_cap
        try:
            verdicts, bad = _examine(
                _mask_key(m, n, mask), table[mask - lo] if oracled else None, memo
            )
        except Exception as exc:  # same type, so callers still catch it; now it names the graph
            raise type(exc)(f"{exc} for:\n{write_graph(graph_from_mask(m, n, mask))}") from exc
        tally.graphs_checked += 1
        if verdicts is not None:
            tau, F, _, equality, ferrers, _, _ = verdicts
            tally.oracle_checked += oracled
            tally.equality_cases += equality
            tally.ferrers_count += ferrers
        if not bad and records is None:
            continue
        # Only a failure dump or a record needs the graph (no verdicts means "tau" failed).
        g = graph_from_mask(m, n, mask)
        if bad:
            values = "" if verdicts is None else f" for tau={tau}, F={rat_str(F)}"
            dump = f"{', '.join(bad)} failed{values}:\n{write_graph(g)}"
            tally.failure_counts.update(bad)
            for category in bad:
                tally.failure_examples.setdefault(category, dump)
        if records is not None and verdicts is not None:
            records.append(record_dict(VerificationRecord(g, *verdicts)))
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

    Each (m, n) pair must respect the enumeration cap.  Every chunk tallies
    failures per category, a tree count's IdentityViolation ("tau") too; with
    fail_fast this loop alone stops, raising the first failing graph's dump
    in a TheoremViolation before that chunk is absorbed or emitted.
    oracle_edge_cap turns on the brute-force tree count for graphs with at
    most that many edges: each chunk that can hold such a graph builds one
    _tree_table of its masks' counts, in the process that runs it, and each
    such graph's tree count is compared with its entry.  No eigenvalue is
    computed: majorization is decided by the exact certificate.  Each chunk
    keeps one memo (see _examine) from a sorted short side, read from the
    mask by _mask_key, to its verdicts, so every verdict is decided once per
    key and a labeled graph costs its connectivity test, its key, one memo
    read and its oracle comparison (see _run_chunk).  emit receives one
    JSON-ready record per graph that has one (a graph whose tree count
    failed has none); a labeled graph is built only for such a record or
    for a failure dump.
    The masks are cut into chunks (m, n, lo, hi), and one loop absorbs each
    chunk's CampaignSummary and records in mask order: None runs the chunks
    in turn, workers > 1 runs them in a pool of at most one process per chunk,
    and a value below 1 is a ValueError.  Any other exception raised while
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
    run = partial(_run_chunk, oracle_edge_cap, emit is not None)
    summary = CampaignSummary((max(m for m, _ in pair_list), max(n for _, n in pair_list)))
    if workers is not None and workers > 1 and len(chunks) > 1:
        from multiprocessing import Pool  # only campaigns with workers pay for the import

        runner = Pool(processes=min(workers, len(chunks)))
    else:
        runner = nullcontext()
    with runner as pool:
        for tally, records in map(run, chunks) if pool is None else pool.imap(run, chunks):
            if fail_fast and tally.violations:
                raise TheoremViolation(next(iter(tally.failure_examples.values())))
            summary.absorb(tally)
            if emit is not None:
                for rec in records:
                    emit(rec)
    summary.wall_time = time.perf_counter() - start
    return summary


def _corollary_sides(g: BipartiteGraph, weights: list[Fraction]) -> tuple[int, int, int]:
    """Integers (left, right, scale): the corollary's two sides are left/scale and right/scale.

    With w = D*z and X the short side, K minus row and column r, the first
    y_r with w_r > 0, has determinant w_r times the tree sum at w (no y_r: the
    left side is 0).  Its Y rows are diag(s_j) off X: an s_j = 0 (j != r) is a
    zero row, else it is prod(s_j) det(B) / E^m, E = lcm(s_j), for the m x m
    B = E diag(s_X) - sum over j != r of (E w_j / s_j) 1_(T_j) (w_X on T_j)^T.
    """
    den = lcm(*(x.denominator for x in weights))
    w = [x.numerator * (den // x.denominator) for x in weights]
    if g.m > g.n:
        g, w = _transpose(g), w[g.m :] + w[: g.m]
    m, wx, wy = g.m, w[: g.m], w[g.m :]
    members = [bit_indices(t) for t in g.nbrs]
    sy = [sum(wx[i] for i in t) for t in members]
    sx = [sum(wj for t, wj in zip(g.nbrs, wy) if t >> i & 1) for i in range(m)]
    right, scale = prod(sx) * prod(sy), den ** len(w)
    r = next((j for j, x in enumerate(wy) if x), None)
    if r is None or 0 in (rest := sy[:r] + sy[r + 1 :]):
        return 0, right, scale
    # Its own builder: sharing tau_matrix_tree's made the hot-path tree count about 28% slower.
    e = lcm(*rest)
    block = [[e * sx[i] if i == k else 0 for k in range(m)] for i in range(m)]
    for j, t in enumerate(members):
        c = 0 if j == r else e * wy[j] // sy[j]
        for i in t:
            for k in t:
                block[i][k] -= c * wx[k]
    f = wy[r] * e**m
    return prod(rest) * bareiss_det(block) * sum(wx) * sum(wy), f * right, f * scale


def corollary_check(g: BipartiteGraph, z: Sequence[Fraction | int]) -> bool:
    """Weighted form of the bound, checked exactly at one nonnegative weight vector.

    With weights z indexed by X then Y, the generating sum over spanning
    trees of prod_v z_v^(deg_T(v) - 1), times (sum over X)(sum over Y), must
    not exceed prod_v (sum of z over the neighbors of v).  At z = 1 this is
    exactly the tau*m*n <= degree-product comparison.  Every staircase attains
    equality at every z (Ehrenborg and van Willigenburg 2004).

    No tree is listed.  Let K = diag(s) - A diag(z), with A the adjacency
    matrix and s_v the sum of z over the neighbors of v.  Every row of K
    sums to 0 and z^T K = 0, so the cofactor at (r, c) is alpha * z_r for
    one alpha.  At z > 0, diag(z) K is the Laplacian with edge weights
    z_u z_v, and Kirchhoff's theorem (Biggs, Algebraic Graph Theory, 1974)
    makes alpha the tree sum above.  The cofactor at (r, r) and z_r times
    the tree sum are polynomials in z that agree at z > 0, so they agree at
    zero weights too.  Each side of the bound is
    homogeneous of degree m+n in z, so scaling z to integers does not
    change the verdict; _corollary_sides compares the sides in integers,
    with one bareiss_det on a min(m, n) square block.
    """
    weights = [Fraction(x) for x in z]
    if len(weights) != g.m + g.n:
        raise ValueError(f"expected {g.m + g.n} weights, got {len(weights)}")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be nonnegative")
    left, right, scale = _corollary_sides(g, weights)
    if left > right:
        raise TheoremViolation(
            f"weighted bound fails: {Fraction(left, scale)} > {Fraction(right, scale)} at z = "
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
