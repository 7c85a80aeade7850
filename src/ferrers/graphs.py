"""Bipartite graphs with Y-side neighborhoods stored as bitsets over X.

A graph on parts X = {x_0, ..., x_(m-1)} and Y = {y_0, ..., y_(n-1)} is kept
as a tuple of n integers: bit i of ``nbrs[j]`` says whether x_i is adjacent
to y_j.  Bitsets make subset tests single AND operations and rule out
multi-edges by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, permutations
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapExceeded,
    DimensionError,
    GraphFormatError,
    InvalidPartition,
)

DEFAULT_CAP = 20
_BYTE_INDICES = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


def bit_indices(t: int) -> list[int]:
    """Indices of the set bits of t >= 0, ascending, read a byte at a time from one table."""
    if t < 0:
        raise ValueError(f"bit_indices needs a nonnegative bitset, got {t}")
    out = list(_BYTE_INDICES[t & 255])
    base = 8
    while t := t >> 8:
        for i in _BYTE_INDICES[t & 255]:
            out.append(base + i)
        base += 8
    return out


@dataclass(frozen=True)
class BipartiteGraph:
    """Labeled bipartite graph: |X| = m, |Y| = n, nbrs[j] = N(y_j) as a bitset."""

    m: int
    n: int
    nbrs: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DimensionError(f"both parts must be nonempty, got m={self.m}, n={self.n}")
        if len(self.nbrs) != self.n:
            raise DimensionError(f"expected {self.n} neighborhoods, got {len(self.nbrs)}")
        for j, t in enumerate(self.nbrs):
            if t < 0 or t >> self.m:
                raise GraphFormatError(
                    f"neighborhood of y_{j} uses indices outside 0..{self.m - 1}"
                )

    @property
    def edge_count(self) -> int:
        return sum(t.bit_count() for t in self.nbrs)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (x index, y index) pairs, ordered by y then x."""
        return [(i, j) for j, t in enumerate(self.nbrs) for i in bit_indices(t)]


@dataclass(frozen=True)
class DegreeData:
    """X-side degrees a and Y-side degrees b; all positive iff no vertex is isolated."""

    a: tuple[int, ...]
    b: tuple[int, ...]


def degrees(g: BipartiteGraph) -> DegreeData:
    a = [0] * g.m
    for t in g.nbrs:
        for i in bit_indices(t):
            a[i] += 1
    return DegreeData(tuple(a), tuple(t.bit_count() for t in g.nbrs))


def from_biadjacency(rows: Iterable[Sequence[int]]) -> BipartiteGraph:
    """Build a graph from an m-by-n 0/1 matrix whose rows are indexed by X."""
    rows = [list(r) for r in rows]
    m = len(rows)
    if m == 0 or any(len(r) == 0 for r in rows):
        raise DimensionError("biadjacency matrix needs at least one row and one column")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise GraphFormatError("ragged biadjacency matrix")
    nbrs = [0] * n
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            if entry == 1:
                nbrs[j] |= 1 << i
            elif entry != 0:
                raise GraphFormatError(f"entry ({i},{j}) is {entry!r}, expected 0 or 1")
    return BipartiteGraph(m, n, tuple(nbrs))


def _covers(m: int, nbrs: Sequence[int]) -> bool:
    """No empty neighborhood, and the neighborhoods cover X: no vertex is isolated."""
    union = 0
    for t in nbrs:
        if not t:
            return False
        union |= t
    return union.bit_count() == m  # no bit lies at or above m; builds no m-bit integer


def _nbrs_connected(m: int, nbrs: Sequence[int]) -> bool:
    # Fixpoint reachability over Y-neighborhood bitsets, seeded at x_0.
    if not _covers(m, nbrs):
        return False
    full = (1 << m) - 1
    seen_x = 1
    seen_y = 0
    n = len(nbrs)
    while True:
        grew = False
        for j in range(n):
            if not (seen_y >> j) & 1:
                t = nbrs[j]
                if t & seen_x:
                    seen_y |= 1 << j
                    seen_x |= t
                    grew = True
        if seen_x == full and seen_y == (1 << n) - 1:
            return True
        if not grew:
            return False


def is_connected(g: BipartiteGraph) -> bool:
    """Whether the union of both parts forms one component (search from x_0)."""
    return _nbrs_connected(g.m, g.nbrs)


def is_ferrers(g: BipartiteGraph) -> bool:
    """Whether the Y-neighborhoods are linearly ordered by inclusion.

    Sorts neighborhoods by decreasing size (ties broken by bitset value) and
    checks consecutive containments plus full coverage of X.  An empty
    neighborhood means an isolated y-vertex, so the graph is rejected before
    the chain test; together with coverage that makes the verdict imply
    connectivity.
    """
    if any(t == 0 for t in g.nbrs):
        return False
    chain = sorted(g.nbrs, key=lambda t: (-t.bit_count(), t))
    for big, small in zip(chain, chain[1:]):
        if small & ~big:
            return False
    return chain[0].bit_count() == g.m


@dataclass(frozen=True)
class PartitionSpec:
    """Weakly decreasing column heights t_1 >= ... >= t_n >= 1, with m = t_1."""

    t: tuple[int, ...]

    def __post_init__(self):
        if len(self.t) == 0:
            raise InvalidPartition("a partition needs at least one column")
        prev = None
        for h in self.t:
            if not isinstance(h, int) or h < 1:
                raise InvalidPartition(f"column height {h!r} is not a positive integer")
            if prev is not None and h > prev:
                raise InvalidPartition(f"heights must be weakly decreasing, got {prev} then {h}")
            prev = h

    @property
    def m(self) -> int:
        return self.t[0]

    @property
    def n(self) -> int:
        return len(self.t)


def ferrers_from_partition(p: PartitionSpec) -> BipartiteGraph:
    """Staircase graph with N(y_j) = {x_0, ..., x_(t_j - 1)}."""
    return BipartiteGraph(p.m, p.n, tuple((1 << h) - 1 for h in p.t))


def graph_from_mask(m: int, n: int, mask: int) -> BipartiteGraph:
    """Graph whose biadjacency is encoded column-wise in an m*n-bit integer.

    Bits j*m .. j*m+m-1 of the mask are the neighborhood of y_j, so mask
    order enumerates graphs deterministically and ranges of masks can be
    split across workers.
    """
    full = (1 << m) - 1
    return BipartiteGraph(m, n, tuple((mask >> (j * m)) & full for j in range(n)))


def _mask_connected(m: int, n: int, mask: int) -> bool:
    full = (1 << m) - 1
    nbrs = []
    while mask & full:  # an empty column is an isolated y: the rest is never extracted
        nbrs.append(mask & full)
        mask >>= m
    return len(nbrs) == n and _nbrs_connected(m, nbrs)


def _permute_bits(t: int, perm: Sequence[int]) -> int:
    out = 0
    for i in bit_indices(t):
        out |= 1 << perm[i]
    return out


def _transpose(g: BipartiteGraph) -> BipartiteGraph:
    rows = [0] * g.m
    for j, t in enumerate(g.nbrs):
        for i in bit_indices(t):
            rows[i] |= 1 << j
    return BipartiteGraph(g.n, g.m, tuple(rows))


def canonical_form(g: BipartiteGraph) -> BipartiteGraph:
    """Least representative of g's class under separate X and Y relabelings.

    The smaller side is permuted exhaustively while the other side is sorted,
    minimizing the tuple of neighborhood bitsets; parts are never swapped.
    For m <= n the result's neighborhoods are therefore in ascending order.
    """
    if g.m > g.n:
        return _transpose(canonical_form(_transpose(g)))
    best = min(
        tuple(sorted(_permute_bits(t, perm) for t in g.nbrs))
        for perm in permutations(range(g.m))
    )
    return BipartiteGraph(g.m, g.n, best)


def enumerate_connected(
    m: int,
    n: int,
    *,
    cap: int = DEFAULT_CAP,
    dedupe: bool = False,
) -> Iterator[BipartiteGraph]:
    """All connected bipartite graphs on labeled parts of sizes m and n.

    Walks every biadjacency mask in ascending order and keeps the connected
    ones: 2**(m*n) connectivity checks.  With dedupe=True it yields each
    row/column permutation class once, as its canonical form, and keeps no
    record of earlier output: for m <= n it keeps each connected sorted
    multiset of n nonempty neighborhoods that is its own canonical form (m!
    permutations each), in ascending order; for m > n it transposes the
    (n, m) classes, in their order.  Both paths refuse m*n above the cap.
    """
    if m < 1 or n < 1:
        raise DimensionError(f"both parts must be nonempty, got m={m}, n={n}")
    if m * n > cap:
        raise CapExceeded(f"m*n = {m * n} exceeds the enumeration cap {cap}")
    if not dedupe:
        for mask in range(1 << (m * n)):
            if _mask_connected(m, n, mask):
                yield graph_from_mask(m, n, mask)
    elif m > n:
        yield from map(_transpose, enumerate_connected(n, m, cap=cap, dedupe=True))
    else:
        for nbrs in combinations_with_replacement(range(1, 1 << m), n):
            if _nbrs_connected(m, nbrs):
                g = BipartiteGraph(m, n, nbrs)
                if canonical_form(g) == g:
                    yield g


def write_graph(g: BipartiteGraph) -> str:
    """Neighborhood-list text form: header "m n", then one line of x-indices per y."""
    lines = [f"{g.m} {g.n}"]
    for j, t in enumerate(g.nbrs):
        if t == 0:
            raise GraphFormatError(f"y_{j} has no neighbors; an empty line is not representable")
        lines.append(" ".join(str(i) for i in bit_indices(t)))
    return "\n".join(lines) + "\n"


def _parse_biadj_lines(lines: Sequence[str]) -> BipartiteGraph:
    rows = [line.strip() for line in lines if line.strip()]
    if not rows:
        raise GraphFormatError("biadjacency block is empty")
    width = len(rows[0])
    parsed = []
    for r, line in enumerate(rows):
        if len(line) != width:
            raise GraphFormatError(f"row {r} has length {len(line)}, expected {width}")
        if set(line) - {"0", "1"}:
            raise GraphFormatError(f"row {r} contains characters other than 0/1: {line!r}")
        parsed.append([int(c) for c in line])
    return from_biadjacency(parsed)


def parse_graph(text: str) -> BipartiteGraph:
    """Parse either text form of a graph.

    The default form is the neighborhood list written by write_graph, whose
    header "m n" has two fields.  A first line reading "biadj", or any
    other first line of one field, switches to rows of 0/1 characters, one
    per x-vertex: a 0/1 row holds no space, so it is a headerless matrix.
    """
    lines = text.splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise GraphFormatError("empty graph input")
    head = lines[0].strip()
    if head == "biadj":
        return _parse_biadj_lines(lines[1:])
    parts = head.split()
    if len(parts) == 1:
        return _parse_biadj_lines(lines)
    if len(parts) != 2:
        raise GraphFormatError(f"expected header 'm n' or 'biadj', got {head!r}")
    try:
        m, n = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise GraphFormatError(f"non-integer dimensions in header {head!r}") from exc
    if m < 1 or n < 1:
        raise DimensionError(f"both parts must be nonempty, got m={m}, n={n}")
    body = lines[1:]
    if len(body) != n:
        raise GraphFormatError(f"expected {n} neighborhood lines, found {len(body)}")
    nbrs = []
    for j, line in enumerate(body):
        fields = line.split()
        if not fields:
            raise GraphFormatError(f"line for y_{j} is empty; every y-vertex needs a neighbor")
        t = 0
        for f in fields:
            try:
                i = int(f)
            except ValueError as exc:
                raise GraphFormatError(f"bad index {f!r} on line for y_{j}") from exc
            if not 0 <= i < m:
                raise GraphFormatError(f"index {i} out of range 0..{m - 1} on line for y_{j}")
            bit = 1 << i
            if t & bit:
                raise GraphFormatError(f"x_{i} listed twice for y_{j}")
            t |= bit
        nbrs.append(t)
    return BipartiteGraph(m, n, tuple(nbrs))
