"""Spans around calls into each ferrers layer, recorded from outside the package.

Tracing works by rebinding a public name inside the module that calls it
(verify.matrix_M, not linalg.matrix_M), so only calls that cross a layer
boundary get a span.  Spans are kept in memory as flat integer arrays and
written out when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import gzip
import json
from array import array
from contextlib import contextmanager
from math import comb
from time import perf_counter_ns


class Tracer:
    FIELDS = ("span", "parent", "trace", "name", "start_ns", "end_ns")

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.records = array("q")
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []
        self._next_id = 1
        self._trace_id = 0

    def _name(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_ns[name] = 0
            self.calls[name] = 0
        return idx

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; a span with no parent starts a trace."""
        idx = self._name(name)
        if self._stack:
            parent = self._stack[-1][0]
        else:
            parent = 0
            self._trace_id += 1
        span_id = self._next_id
        self._next_id += 1
        frame = [span_id, 0]
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            duration = end - start
            self.self_ns[name] += duration - frame[1]
            self.calls[name] += 1
            if self._stack:
                self._stack[-1][1] += duration
            self.records.extend((span_id, parent, self._trace_id, idx, start, end))

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, on_call=None):
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            return self.call(name(args, kwargs) if callable(name) else name, fn, *args, **kwargs)

        return traced

    def write(self, path: str) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            rec = self.records
            for k in range(0, len(rec), 6):
                row = dict(zip(self.FIELDS, rec[k : k + 6]))
                row["name"] = self.names[row["name"]]
                fh.write(json.dumps(row) + "\n")


def _tau_name(args, kwargs) -> str:
    # tau_matrix_tree(..., check_all_deletions=True) is the deletion oracle.
    return "trees.deletion_oracle" if kwargs.get("check_all_deletions") else "trees.tau"


def _count_masks(tracer, args, kwargs) -> None:
    tracer.count("graphs.masks_scanned")


def _count_subsets(tracer, args, kwargs) -> None:
    g = args[0]
    tracer.count("trees.brute_force_subsets", comb(g.edge_count, g.m + g.n - 1))


def _rebindings(ferrers):
    """(namespace, attribute, span name, counter) for every traced boundary."""
    verify, linalg, trees, spectral, cli = (
        ferrers.verify, ferrers.linalg, ferrers.trees, ferrers.spectral, ferrers.cli
    )
    out = [
        (verify, "_mask_connected", "graphs.connectivity", _count_masks),
        (verify, "graph_from_mask", "graphs.other", None),
        (verify, "is_ferrers", "graphs.other", None),
        (verify, "verify_graph", "verify.verify_graph", None),
        (verify, "tau_matrix_tree", _tau_name, None),
        (verify, "matrix_M", "linalg.matrix_M", None),
        (verify, "check_reduction", "trees.reduction", None),
        (verify, "majorization_report", "spectral.majorization", None),
        (verify, "tau_brute_force", "trees.brute_force", _count_subsets),
        (linalg.RationalMatrix, "det_exact", "linalg.det", None),
        (spectral, "eigen_sym", "spectral.eigen", None),
        (cli, "parse_graph", "graphs.other", None),
        (cli, "verify_graph", "verify.verify_graph", None),
    ]
    for module in (verify, linalg, trees, spectral):
        out.append((module, "is_connected", "graphs.connectivity", None))
        out.append((module, "degrees", "graphs.degrees", None))
    return out


@contextmanager
def traced(ferrers, tracer: Tracer):
    """Rebind every traced name for the duration of the block, then restore it."""
    saved = []
    try:
        for owner, attr, name, on_call in _rebindings(ferrers):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, on_call))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
