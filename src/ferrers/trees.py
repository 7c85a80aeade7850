"""Spanning-tree counts, the degree-product invariant, and the exact reduction check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod

from .errors import CapExceeded, IdentityViolation, IsolatedVertex
from .graphs import DEFAULT_CAP, BipartiteGraph, DegreeData, _covers, _transpose, degrees
from .graphs import is_connected  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .linalg import bareiss_det, laplacian_rows


def _minor_det_at_0(lap: list[list[int]], k: int) -> int:
    """Laplacian minor determinant at vertex 0, its side of k vertices eliminated in closed form.

    Vertices 0..k-1 of lap form one side (the long side, in tau_matrix_tree)
    and have no edges among themselves, so rows 1..k-1 of the minor are
    diag(a_1..a_(k-1)) on that side.  An isolated vertex there makes a zero
    row.  Otherwise the minor is prod(a) * det S, with
    S = L_OO - sum over i >= 1 of L[O][i] L[i][O] / a_i the Schur complement
    onto the other side O, of n = len(lap) - k vertices.  With D = lcm(a),
    D*S is an integer n x n block and det(D*S) = D^n det S, so
    prod(a) * det(D*S) is divisible by D^n; a remainder means a wrong
    determinant and is a hard error.
    """
    a = [lap[i][i] for i in range(1, k)]
    if 0 in a:
        return 0
    den = lcm(*a)
    orows = lap[k:]
    block = [[den * v for v in row[k:]] for row in orows]
    for i, ai in enumerate(a, start=1):
        w = den // ai
        right = [(z, v) for z, v in enumerate(lap[i][k:]) if v]
        for y, row in enumerate(orows):
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


def tau_matrix_tree(g: BipartiteGraph) -> int:
    """Number of spanning trees, as a Laplacian minor determinant.

    A graph with an isolated vertex (an empty neighborhood, or an x in no
    neighborhood) has no spanning tree, and the count returns 0 before it
    builds any matrix, so a header alone cannot make it allocate (m+n)^2
    entries.  Otherwise the count reads nothing but laplacian_rows.  tau is
    the same for a graph and its transpose, so when n > m it counts the
    transpose: the long side is then X, and _minor_det_at_0 deletes x_0,
    eliminates the rest of X in closed form and runs Bareiss on the
    min(m, n) square block of the short side.  The count is an exact
    nonnegative integer; a negative determinant would mean a bug and is a
    hard error.  Disconnected graphs give 0, not an error.  Campaigns check
    the count against tau_brute_force, which reads only g.edges().
    """
    if not _covers(g.m, g.nbrs):
        return 0
    if g.n > g.m:
        g = _transpose(g)
    t = _minor_det_at_0(laplacian_rows(g), g.m)
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
