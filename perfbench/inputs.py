"""Seeded inputs for each workload, as plain (kind, m, n, nbrs) tuples.

The same seed gives the same inputs.  Sizes and densities are fixed by the
design below and only the edges and labels are drawn from the seed, so the
amount of work barely moves from one seed to the next.
"""

from __future__ import annotations

import os
import random

from reference import connected, sweep_pairs

# sweep-oracle: every connected labeled graph with m*n <= SWEEP_LIMIT, with the
# brute-force and all-deletions oracles on every graph of at most ORACLE_EDGES
# edges (all of them, since m*n <= 12 < 14).
SWEEP_LIMIT = 12
ORACLE_EDGES = 14

# sample-large: per (m, n) in LARGE_SIDES x LARGE_SIDES, one random connected
# graph at each density in LARGE_DENSITIES and LARGE_STAIRCASES relabeled
# staircase graphs; plus K_{m,n} for the pairs in LARGE_COMPLETE.
LARGE_SIDES = range(6, 11)
LARGE_DENSITIES = (0.35, 0.5, 0.7)
LARGE_STAIRCASES = 2
LARGE_COMPLETE = ((6, 10), (7, 9), (8, 8), (9, 7), (10, 6))
# After the timed passes, this many freshly relabeled copies of the sample run
# on one set of projection caches, which are never emptied between them.
LARGE_GROWTH_COPIES = 4

# cli-check: a cycle of small graphs, the fixed ones first.
CLI_FIXED = (
    ("hexagon", 3, 3, (0b011, 0b110, 0b101)),
    ("complete", 2, 3, (0b11, 0b11, 0b11)),
    ("staircase", 3, 3, (0b111, 0b011, 0b001)),
    ("path", 2, 2, (0b01, 0b11)),
    ("cycle8", 4, 4, (0b0011, 0b0110, 0b1100, 0b1001)),
)
CLI_RANDOM = 5


def _random_connected(rng: random.Random, m: int, n: int, edges: int) -> tuple[int, ...]:
    cells = [(i, j) for i in range(m) for j in range(n)]
    while True:
        nbrs = [0] * n
        for i, j in rng.sample(cells, edges):
            nbrs[j] |= 1 << i
        nbrs = tuple(nbrs)
        if connected(m, n, nbrs):
            return nbrs


def _relabeled_staircase(rng: random.Random, m: int, n: int) -> tuple[int, ...]:
    # Random column heights (the first is m, so X is covered), then random labels.
    heights = [m] + sorted((rng.randint(1, m) for _ in range(n - 1)), reverse=True)
    perm = list(range(m))
    rng.shuffle(perm)
    cols = [sum(1 << perm[i] for i in range(h)) for h in heights]
    rng.shuffle(cols)
    return tuple(cols)


def sample_large(seed: int) -> list[tuple[str, int, int, tuple[int, ...]]]:
    rng = random.Random(seed)
    out = []
    for m in LARGE_SIDES:
        for n in LARGE_SIDES:
            for p in LARGE_DENSITIES:
                out.append(("random", m, n, _random_connected(rng, m, n, round(p * m * n))))
            for _ in range(LARGE_STAIRCASES):
                out.append(("staircase", m, n, _relabeled_staircase(rng, m, n)))
    for m, n in LARGE_COMPLETE:
        out.append(("complete", m, n, ((1 << m) - 1,) * n))
    return out


def cli_cycle(seed: int) -> list[tuple[str, int, int, tuple[int, ...]]]:
    rng = random.Random(seed)
    out = list(CLI_FIXED)
    for _ in range(CLI_RANDOM):
        m, n = rng.randint(2, 4), rng.randint(2, 4)
        edges = rng.randint(m + n - 1, m * n)
        out.append(("random", m, n, _random_connected(rng, m, n, edges)))
    return out


def relabeled(item, seed: int, copy: int):
    """The same graph with X and Y relabeled at random: tau, F and nestedness stay."""
    kind, m, n, nbrs = item
    rng = random.Random(f"{seed}:{copy}:{kind}:{m}:{n}:{nbrs}")
    perm = list(range(m))
    rng.shuffle(perm)
    cols = [sum(1 << perm[i] for i in range(m) if (t >> i) & 1) for t in nbrs]
    rng.shuffle(cols)
    return kind, m, n, tuple(cols)


def graph_text(m: int, nbrs: tuple[int, ...]) -> str:
    """The package's neighborhood-list text format, written independently."""
    lines = [f"{m} {len(nbrs)}"]
    for t in nbrs:
        lines.append(" ".join(str(i) for i in range(m) if (t >> i) & 1))
    return "\n".join(lines) + "\n"


def sweep() -> list[tuple[int, int]]:
    return sweep_pairs(SWEEP_LIMIT)


def check_origin(ferrers) -> None:
    """Refuse a ferrers imported from anywhere but this checkout's src/."""
    init = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "src", "ferrers", "__init__.py")
    if os.path.abspath(ferrers.__file__) != init:
        raise SystemExit(f"imported ferrers from {ferrers.__file__}, expected {init}")


def build(ferrers, workload: str, seed: int):
    """The inputs of one workload, as the worker passes them to ferrers."""
    if workload == "sweep-oracle":
        return sweep()
    if workload == "sample-large":
        return [(item, ferrers.BipartiteGraph(item[1], item[2], item[3]))
                for item in sample_large(seed)]
    return [(item, graph_text(item[1], item[3])) for item in cli_cycle(seed)]
