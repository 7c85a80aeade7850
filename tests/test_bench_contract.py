"""The names the benchmark's tracer rebinds must exist where it looks for them.

perfbench/spans.py traces a run by replacing module attributes (verify.matrix_M,
spectral.eigen_sym, ...) and reading the projection caches; a rename in the
package would otherwise only show up when someone runs the benchmark.
"""

import os
import sys

import ferrers.cli  # spans reads ferrers.cli, which the package does not import
from ferrers import linalg

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _spans():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans


def test_every_traced_name_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in _spans()._rebindings(ferrers)
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_projection_caches_can_be_read_and_emptied():
    for cached in (linalg.projection_P, linalg.projection_Q):
        assert callable(cached.cache_clear)
        assert callable(cached.cache_info)
