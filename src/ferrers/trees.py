"""Spanning-tree counts, the degree-product invariant, and the exact reduction check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .errors import CapExceeded, IdentityViolation, IsolatedVertex
from .graphs import DEFAULT_CAP, BipartiteGraph, DegreeData, _covers, _transpose, bit_indices
from .graphs import degrees
from .graphs import is_connected  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .linalg import bareiss_det


def tau_matrix_tree(g: BipartiteGraph) -> int:
    """Number of spanning trees, as the Laplacian minor at y_0 with X the short side.

    A graph with an isolated vertex has no spanning tree, and the count
    returns 0 before it builds anything.  Otherwise it counts the transpose
    when m > n, the rule verify_graph decides by.  Y has no inner edges, so
    the minor is prod(b_1..b_(n-1)) det S for the m x m Schur complement
    S = diag(a) - sum over j >= 1 of 1_(T_j) 1_(T_j)^T / b_j.  With
    D = lcm(b_1..b_(n-1)) the integer rows of D*S are built straight from
    the neighborhoods, the x-degrees a counted on the diagonal in the same
    loop, and tau = prod(b) det(D*S) / D^m; a remainder or a negative count
    is a hard error.  Disconnected graphs give 0.  The count reads no degree
    count and not scaled_schur; campaigns check it against tau_brute_force,
    which reads only g.edges().
    """
    if not _covers(g.m, g.nbrs):
        return 0
    if g.m > g.n:
        g = _transpose(g)
    b = [t.bit_count() for t in g.nbrs[1:]]
    den = lcm(*b)
    block = [[0] * g.m for _ in range(g.m)]
    for i in bit_indices(g.nbrs[0]):  # y_0 is deleted: its edges reach only the diagonal
        block[i][i] += den
    for t, bj in zip(g.nbrs[1:], b):
        w = den // bj
        members = list(bit_indices(t))
        for i in members:
            row = block[i]
            row[i] += den
            for k in members:
                row[k] -= w
    scale = den**g.m
    t, rest = divmod(prod(b) * bareiss_det(block), scale)
    if rest:
        raise IdentityViolation(
            f"prod(b) * det(D*S) is not a multiple of D^m = {scale}: remainder {rest}"
        )
    if t < 0:
        raise IdentityViolation(f"negative Laplacian minor determinant {t}")
    return t


def tau_brute_force(g: BipartiteGraph, *, cap: int = DEFAULT_CAP) -> int:
    """Count spanning trees directly, as a determinant-free oracle.

    Tries every (m+n-1)-subset of the edge set; a subset is a spanning tree
    exactly when the union-find pass finds no cycle, because an acyclic
    graph with m+n-1 edges on m+n vertices is already spanning.  Only the
    count is kept.  Refuses edge sets above the cap.
    """
    edge_list = g.edges()
    if len(edge_list) > cap:
        raise CapExceeded(f"|E| = {len(edge_list)} exceeds the brute-force cap {cap}")
    v = g.m + g.n
    count = 0
    pairs = [(i, g.m + j) for (i, j) in edge_list]
    base = list(range(v))
    for combo in combinations(pairs, v - 1):
        parent = base[:]
        for u, w in combo:
            while parent[u] != u:
                parent[u] = parent[parent[u]]
                u = parent[u]
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            if u == w:
                break
            parent[u] = w
        else:
            count += 1
    return count


def ferrers_invariant(g: BipartiteGraph, *, dd: DegreeData | None = None) -> Fraction:
    """Degree product over m*n, the exact value that bounds the tree count.

    dd may be passed in when the degrees of g are already counted, such as
    the degrees scaled_schur returns; otherwise they are counted here, after
    _covers refuses an isolated vertex, so a header alone cannot make the
    count allocate m entries.
    """
    if dd is None and _covers(g.m, g.nbrs):
        dd = degrees(g)
    if dd is None or 0 in dd.a or 0 in dd.b:
        raise IsolatedVertex("degree-zero vertex, the degree product is degenerate")
    return Fraction(prod(dd.a) * prod(dd.b), g.m * g.n)


def check_reduction(g: BipartiteGraph, tau: int, den: int, b: tuple[int, ...], det: int) -> bool:
    """Exact identity tau * m * n = (prod of y-degrees) * det M.

    den is the D of scaled_schur(g) and b the y-degrees it returns, det is
    det(D*M) = D^m det M, such as the last leading minor from
    certify_majorization, and tau is the tree count of g.  The identity is
    checked as tau * m * n * D^m = (prod b) * det(D*M) in integers; a
    mismatch raises with both sides shown as rationals.
    """
    scale = den**g.m
    left = tau * g.m * g.n * scale
    right = prod(b) * det
    if left != right:
        raise IdentityViolation(
            f"tau*m*n = {Fraction(left, scale)} but (prod b)*det M = {Fraction(right, scale)}"
        )
    return True
