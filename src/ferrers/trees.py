"""Spanning-tree counts, the degree-product invariant, and the exact reduction check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

from .errors import (
    CapExceeded,
    DisconnectedGraph,
    IdentityViolation,
    IsolatedVertex,
)
from .graphs import DEFAULT_CAP, BipartiteGraph, degrees, is_connected
from .linalg import bareiss_det, laplacian_rows, scaled_schur

SpanningTree = frozenset  # of (x index, y index) edge pairs


def tau_matrix_tree(g: BipartiteGraph, *, check_all_deletions: bool = False) -> int:
    """Number of spanning trees, as the Laplacian minor determinant at vertex 0.

    The count is an exact nonnegative integer; a negative determinant would
    mean a bug and is a hard error.  With check_all_deletions the minor at
    every deletion index is sliced from the same Laplacian and all m+n
    determinants must agree.
    Disconnected graphs give 0, not an error.
    """
    lap = laplacian_rows(g)

    def minor(drop: int) -> list[list[int]]:
        return [row[:drop] + row[drop + 1 :] for r, row in enumerate(lap) if r != drop]

    t = bareiss_det(minor(0))
    if t < 0:
        raise IdentityViolation(f"negative Laplacian minor determinant {t}")
    if check_all_deletions:
        for drop in range(1, g.m + g.n):
            other = bareiss_det(minor(drop))
            if other != t:
                raise IdentityViolation(
                    f"minor determinant depends on the deleted vertex: "
                    f"{t} at 0 vs {other} at {drop}"
                )
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
    scaled: tuple[int, list[list[int]]] | None = None,
    det: int | None = None,
) -> bool:
    """Exact identity tau * m * n = (prod of y-degrees) * det M.

    tau, scaled (the (D, rows) pair of scaled_schur(g)) and det (det of those
    rows, such as the last leading minor from certify_majorization) may be
    passed in when already computed.  Otherwise det(D*M) = D^m det M is taken
    by bareiss_det on a copy of the rows.  The identity is checked as
    tau * m * n * D^m = (prod b) * det(D*M) in integers; a mismatch raises
    with both sides shown as rationals.
    """
    if not is_connected(g):
        raise DisconnectedGraph("the reduction identity applies to connected graphs")
    if tau is None:
        tau = tau_matrix_tree(g)
    den, rows = scaled_schur(g) if scaled is None else scaled
    scale = den**g.m
    left = tau * g.m * g.n * scale
    if det is None:
        det = bareiss_det([row[:] for row in rows])
    right = prod(degrees(g).b) * det
    if left != right:
        raise IdentityViolation(
            f"tau*m*n = {Fraction(left, scale)} but (prod b)*det M = {Fraction(right, scale)}"
        )
    return True


def bozkurt_bound(g: BipartiteGraph) -> tuple[Fraction, bool]:
    """Edge-count bound prod(deg)/|E| and whether the tree count sits below it.

    The bound is never smaller than the degree product over m*n because
    |E| <= m*n; that comparison is re-checked here since it costs nothing.
    """
    e = g.edge_count
    if e == 0:
        raise IsolatedVertex("a graph with no edges has no degree product bound")
    dd = degrees(g)
    bound = Fraction(prod(dd.a) * prod(dd.b), e)
    if 0 not in dd.a and bound < ferrers_invariant(g):
        raise IdentityViolation(f"edge-count bound {bound} fell below the degree-product bound")
    return bound, tau_matrix_tree(g) <= bound
