"""The names the benchmark reads must exist where it looks for them.

perfbench/spans.py traces a run by replacing module attributes (verify.matrix_M,
spectral.eigen_sym, ...) and reading the projection caches, and
perfbench/checks.py reads a campaign summary's fields; a rename in the package
would otherwise only show up when someone runs the benchmark.
"""

import importlib
import os
import sys

import ferrers.cli  # spans reads ferrers.cli, which the package does not import
from ferrers import linalg
from ferrers.verify import verify_pairs

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _perfbench(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_name_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _perfbench("spans")._rebindings(ferrers)
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_projection_caches_can_be_read_and_emptied():
    for cached in (linalg.projection_P, linalg.projection_Q):
        assert callable(cached.cache_clear)
        assert callable(cached.cache_info)


def test_sweep_check_reads_a_real_summary():
    summary = verify_pairs([(2, 2)], oracle_edge_cap=4, fail_fast=False)
    for name in (
        "graphs_checked",
        "equality_cases",
        "ferrers_count",
        "oracle_checked",
        "failure_counts",
        "violations",
    ):
        assert hasattr(summary, name)
    # Every connected (2,2) graph is a staircase.
    assert _perfbench("checks").check_sweep(summary, {"graphs": 5, "staircases": 5}) == []
