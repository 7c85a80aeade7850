"""Spanning-tree counts, the degree-product invariant, and the exact reduction check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .errors import CapExceeded, IdentityViolation, IsolatedVertex
from .graphs import DEFAULT_CAP, BipartiteGraph, degrees
from .graphs import is_connected  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .linalg import ScaledRows, bareiss_det, laplacian_rows, scaled_schur

SpanningTree = frozenset  # of (x index, y index) edge pairs


def _minor_det_at_x0(lap: list[list[int]], m: int) -> int:
    """Determinant of the Laplacian minor at x_0, its X block eliminated in closed form.

    X has no X-X edges, so rows 1..m-1 of the minor are diag(a_1..a_(m-1))
    on X.  An isolated x_i makes a zero row.  Otherwise the minor is
    prod(a) * det S, with S = L_YY - sum over i >= 1 of L[Y][i] L[i][Y] / a_i
    the Schur complement onto Y.  With D = lcm(a), D*S is an integer n x n
    block and det(D*S) = D^n det S, so prod(a) * det(D*S) is divisible by D^n;
    a remainder means a wrong determinant and is a hard error.
    """
    a = [lap[i][i] for i in range(1, m)]
    if 0 in a:
        return 0
    den = lcm(*a)
    yrows = lap[m:]
    block = [[den * v for v in row[m:]] for row in yrows]
    for i, ai in enumerate(a, start=1):
        w = den // ai
        right = [(z, v) for z, v in enumerate(lap[i][m:]) if v]
        for y, row in enumerate(yrows):
            if row[i]:
                out = block[y]
                wy = w * row[i]
                for z, v in right:
                    out[z] -= wy * v
    scale = den ** len(block)
    t, rest = divmod(prod(a) * bareiss_det(block), scale)
    if rest:
        raise IdentityViolation(
            f"prod(a) * det(D*S) is not a multiple of D^n = {scale}: remainder {rest}"
        )
    return t


def _check_every_deletion(lap: list[list[int]], t: int) -> None:
    """Raise unless the minor of lap at every deleted vertex has determinant t.

    Every row and every column must sum to 0, and generic bareiss_det of
    the minor at index 1 must equal t; by the lemma in tau_matrix_tree the
    two together fix every cofactor to t.
    """
    for side, lines in (("row", lap), ("column", zip(*lap))):
        for k, line in enumerate(lines):
            if total := sum(line):
                raise IdentityViolation(f"Laplacian {side} {k} sums to {total}, not 0")
    other = bareiss_det([row[:1] + row[2:] for r, row in enumerate(lap) if r != 1])
    if other != t:
        raise IdentityViolation(
            f"minor determinant depends on the deleted vertex: {t} at 0 vs {other} at 1"
        )


def tau_matrix_tree(g: BipartiteGraph, *, check_all_deletions: bool = False) -> int:
    """Number of spanning trees, as the Laplacian minor determinant at x_0.

    The minor's X rows form a diagonal block, which _minor_det_at_x0
    eliminates in closed form; Bareiss then runs on the n x n Y block only.
    The count reads nothing but laplacian_rows(g).  It is an exact
    nonnegative integer; a negative determinant would mean a bug and is a
    hard error.  Disconnected graphs give 0, not an error.

    With check_all_deletions the minor at every other deleted vertex must
    equal the closed form too, and one generic minor certifies them all.
    If every row and every column of an integer matrix A sums to 0, then A
    is singular and A adj(A) = adj(A) A = 0.  Below rank N-1, adj(A) = 0;
    at rank N-1 the kernel and the left kernel are both spanned by the
    all-ones vector, so adj(A) is a multiple of the all-ones matrix.  Either
    way all cofactors are equal (Kirchhoff; Biggs, Algebraic Graph Theory,
    1974).  So _check_every_deletion checks the sums in integers and the
    generic Bareiss minor at index 1, which uses nothing of the diagonal X
    block, against the closed form.
    """
    lap = laplacian_rows(g)
    t = _minor_det_at_x0(lap, g.m)
    if t < 0:
        raise IdentityViolation(f"negative Laplacian minor determinant {t}")
    if check_all_deletions:
        _check_every_deletion(lap, t)
    return t


def tau_brute_force(
    g: BipartiteGraph, *, cap: int = DEFAULT_CAP
) -> tuple[int, list[SpanningTree]]:
    """Enumerate spanning trees directly, as a determinant-free oracle.

    Tries every (m+n-1)-subset of the edge set; a subset is a spanning tree
    exactly when the union-find pass finds no cycle, because an acyclic
    graph with m+n-1 edges on m+n vertices is already spanning.  Refuses
    edge sets above the cap.
    """
    edge_list = g.edges()
    if len(edge_list) > cap:
        raise CapExceeded(f"|E| = {len(edge_list)} exceeds the brute-force cap {cap}")
    v = g.m + g.n
    need = v - 1
    trees: list[SpanningTree] = []
    if len(edge_list) >= need:
        pairs = [(i, g.m + j) for (i, j) in edge_list]
        idx_range = range(len(edge_list))
        base = list(range(v))
        for combo in combinations(idx_range, need):
            parent = base[:]
            ok = True
            for idx in combo:
                u, w = pairs[idx]
                while parent[u] != u:
                    parent[u] = parent[parent[u]]
                    u = parent[u]
                while parent[w] != w:
                    parent[w] = parent[parent[w]]
                    w = parent[w]
                if u == w:
                    ok = False
                    break
                parent[u] = w
            if ok:
                trees.append(frozenset(edge_list[idx] for idx in combo))
    return len(trees), trees


def ferrers_invariant(g: BipartiteGraph) -> Fraction:
    """Degree product over m*n, the exact value that bounds the tree count."""
    dd = degrees(g)
    if 0 in dd.a or 0 in dd.b:
        raise IsolatedVertex("degree-zero vertex, the degree product is degenerate")
    return Fraction(prod(dd.a) * prod(dd.b), g.m * g.n)


def check_reduction(
    g: BipartiteGraph,
    *,
    tau: int | None = None,
    scaled: ScaledRows | None = None,
    det: int | None = None,
) -> bool:
    """Exact identity tau * m * n = (prod of y-degrees) * det M.

    tau, scaled and det (det of those rows, such as the last leading minor
    from certify_majorization) may be passed in when already computed; a
    scaled passed in must be the (D, rows, degrees) triple of scaled_schur(g),
    which gives b.  Otherwise scaled_schur(g) builds it, and refuses a
    disconnected graph before tau is counted, and det(D*M) = D^m det M is
    taken by bareiss_det on a copy of the rows.  The identity is checked as
    tau * m * n * D^m = (prod b) * det(D*M) in integers; a mismatch raises
    with both sides shown as rationals.
    """
    den, rows, dd = scaled_schur(g) if scaled is None else scaled
    if tau is None:
        tau = tau_matrix_tree(g)
    scale = den**g.m
    left = tau * g.m * g.n * scale
    if det is None:
        det = bareiss_det([row[:] for row in rows])
    right = prod(dd.b) * det
    if left != right:
        raise IdentityViolation(
            f"tau*m*n = {Fraction(left, scale)} but (prod b)*det M = {Fraction(right, scale)}"
        )
    return True
