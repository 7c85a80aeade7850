"""The names the benchmark reads must exist where it looks for them.

perfbench/spans.py traces a run by replacing module attributes (verify.matrix_M,
spectral.eigen_sym, ...) and reading the projection caches, and
perfbench/checks.py reads a campaign summary's fields; a rename in the package
would otherwise only show up when someone runs the benchmark.  In the other
direction, an import kept in the package only so that spans can rebind it must
still be rebound there.
"""

import ast
import importlib
import os
import sys

import ferrers.cli  # spans reads ferrers.cli, which the package does not import
from ferrers import linalg
from ferrers.verify import verify_pairs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
PACKAGE = os.path.join(ROOT, "src", "ferrers")
KEPT_FOR_SPANS = "perfbench/spans.py rebinds"


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


def test_imports_kept_for_spans_are_rebound():
    # An import marked as kept for spans.py is one that nothing in its module
    # calls; once spans stops rebinding it, the import should go too.
    kept = set()
    for filename in sorted(os.listdir(PACKAGE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, filename), encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if KEPT_FOR_SPANS in lines[alias.lineno - 1]:
                        kept.add((f"ferrers.{filename[:-3]}", alias.asname or alias.name))
    assert kept  # the marker is still spelled as this test expects
    rebound = {
        (getattr(owner, "__name__", None), attr)
        for owner, attr, _, _ in _perfbench("spans")._rebindings(ferrers)
    }
    assert sorted(kept - rebound) == []


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
