"""Spanning-tree counts, the degree-product invariant, and the exact reduction check."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from operator import add
from typing import Iterator

from .errors import CapExceeded, IdentityViolation, IsolatedVertex
from .graphs import DEFAULT_CAP, BipartiteGraph, DegreeData, _covers, _transpose, bit_indices
from .graphs import degrees
from .graphs import is_connected  # noqa: F401  (uncalled here; perfbench/spans.py rebinds it)
from .linalg import leading_minors


def tau_matrix_tree(g: BipartiteGraph) -> int:
    """Number of spanning trees, as the Laplacian minor at y_0 with X the short side.

    A graph with an isolated vertex has no spanning tree, and the count
    returns 0 before it builds anything.  Otherwise it counts the transpose
    when m > n, the rule verify_graph decides by.  Y has no inner edges, so
    the minor is prod(b_1..b_(n-1)) det S for the m x m Schur complement
    S = diag(a) - sum over j >= 1 of 1_(T_j) 1_(T_j)^T / b_j of a principal
    submatrix of the Laplacian, so S is positive semidefinite.  With
    D = lcm(b_1..b_(n-1)) the upper triangle of D*S is built straight from
    the neighborhoods, the x-degrees a counted on the diagonal in the same
    loop, and tau = prod(b) det(D*S) / D^m.  det(D*S) is the last leading
    minor: a zero one makes a semidefinite matrix singular, so disconnected
    graphs give 0.  A remainder or a negative count is a hard error.  The
    count reads no degree count and not scaled_schur; campaigns check it
    against _tree_table, which reads only the masks.
    """
    if not _covers(g.m, g.nbrs):
        return 0
    if g.m > g.n:
        g = _transpose(g)
    b = [t.bit_count() for t in g.nbrs[1:]]
    den = lcm(*b)
    block = [[0] * g.m for _ in range(g.m)]
    for t, w in zip(g.nbrs, [0] + [den // bj for bj in b]):  # y_0, deleted: diagonal only
        members = bit_indices(t)
        for x, i in enumerate(members):
            row = block[i]
            row[i] += den
            for k in members[x:]:
                row[k] -= w
    scale = den**g.m
    t, rest = divmod(prod(b) * leading_minors(block)[-1], scale)
    if rest:
        raise IdentityViolation(
            f"prod(b) * det(D*S) is not a multiple of D^m = {scale}: remainder {rest}"
        )
    if t < 0:
        raise IdentityViolation(f"negative Laplacian minor determinant {t}")
    return t


def _spanning_trees(pairs: list[tuple[int, int]], v: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """Every (v-1)-subset of the edges pairs, on vertices 0..v-1, that has no cycle.

    One union-find pass per subset; an acyclic graph with v-1 edges on v
    vertices is already spanning, so these are exactly the spanning trees.
    """
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
            yield combo


def tau_brute_force(g: BipartiteGraph, *, cap: int = DEFAULT_CAP) -> int:
    """Count spanning trees directly, as a determinant-free oracle.

    Tries every (m+n-1)-subset of the edge set and counts those that the
    union-find pass finds acyclic.  Only the count is kept.  Refuses edge
    sets above the cap.
    """
    edge_list = g.edges()
    if len(edge_list) > cap:
        raise CapExceeded(f"|E| = {len(edge_list)} exceeds the brute-force cap {cap}")
    pairs = [(i, g.m + j) for (i, j) in edge_list]
    return sum(1 for _ in _spanning_trees(pairs, g.m + g.n))


def _tree_table(m: int, n: int, lo: int, hi: int) -> list[int]:
    """Tree counts of a chunk of masks: entry mask - lo is tau(graph_from_mask(m, n, mask)).

    The range must be aligned: hi - lo = 2^w with lo a multiple of it, so
    every mask in it keeps the high bits of lo and any low w bits, and hi - 1
    is their union.  A graph's spanning trees are the spanning trees of
    K_{m,n} whose edges it holds.  So the union-find pass runs once, on the
    edges of hi - 1; a tree T lies inside a mask exactly when T's low bits
    lie in the mask's.  Each tree adds 1 at its low bits, and a subset-sum
    (zeta) transform over the w low bits (Yates 1937) sums every entry at
    once.  Reads no matrix and no degree count; nothing is kept between calls.
    """
    size = hi - lo
    if size < 1 or size & (size - 1) or lo % size:
        raise ValueError(f"mask range [{lo}, {hi}) is not an aligned power of two")
    bits = {
        (i, m + j): 1 << (j * m + i)
        for j in range(n)
        for i in range(m)
        if (hi - 1) >> (j * m + i) & 1
    }
    table = [0] * size
    for tree in _spanning_trees(list(bits), m + n):
        table[sum(map(bits.__getitem__, tree)) & (size - 1)] += 1
    for k in range(size.bit_length() - 1):
        # Add each entry without bit k into the one with it: by strided
        # slices while there are more blocks of 2^k entries than entries a block.
        step, span = 1 << k, 2 << k
        if step * span < size:
            for r in range(step, span):
                table[r::span] = map(add, table[r::span], table[r - step :: span])
        else:
            for mid in range(step, size, span):
                table[mid : mid + step] = map(add, table[mid : mid + step], table[mid - step : mid])
    return table


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
