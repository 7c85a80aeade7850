"""Show that every output check passes on a true result and fires on a corrupted one.

A check that can never fire would let a wrong program through, so each one
gets real ferrers output, first as is and then with one field corrupted: a
count off by one, tau off by one, a flipped verdict, a nonzero exit.  run.py
runs this before every benchmark run; it also runs alone:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from fractions import Fraction

import checks
import inputs
import reference
import worker

SWEEP_LIMIT = 6  # a real campaign small enough to run in a fraction of a second
GRAPHS = (
    ("hexagon", 3, 3, (0b011, 0b110, 0b101)),
    ("staircase", 3, 4, (0b111, 0b011, 0b011, 0b001)),
    ("complete", 2, 3, (0b11, 0b11, 0b11)),
)


def run(ferrers) -> list[str]:
    """Problems found: a check that failed a true result or passed a corrupted one."""
    problems: list[str] = []

    def quiet(label: str, errors: list[str]) -> None:
        if errors:
            problems.append(f"{label}: check failed a true result: {errors}")

    def fires(label: str, errors: list[str]) -> None:
        if not errors:
            problems.append(f"{label}: check passed a corrupted result")

    pairs = reference.sweep_pairs(SWEEP_LIMIT)
    summary = ferrers.verify_pairs(pairs, oracle_edge_cap=inputs.ORACLE_EDGES, fail_fast=False)
    expect = reference.sweep_expectations(pairs)
    quiet("sweep", checks.check_sweep(summary, expect))
    for name in ("graphs_checked", "equality_cases", "ferrers_count", "oracle_checked"):
        bad = replace(summary, **{name: getattr(summary, name) + 1})
        fires(f"sweep {name} + 1", checks.check_sweep(bad, expect))
    fires("sweep failure_counts", checks.check_sweep(
        replace(summary, failure_counts={"oracle": 1}), expect))

    for item in GRAPHS:
        kind, m, n, nbrs = item
        exp = checks.expected_graph(*item)
        rec = ferrers.verify_graph(ferrers.BipartiteGraph(m, n, nbrs))
        quiet(kind, checks.check_record(rec, exp))
        for label, bad in (
            ("tau + 1", replace(rec, tau=rec.tau + 1)),
            ("F + 1", replace(rec, F=rec.F + 1)),
            ("equality flipped", replace(rec, equality=not rec.equality)),
            ("ferrers flipped", replace(rec, ferrers=not rec.ferrers)),
            ("inequality_ok false", replace(rec, inequality_ok=False)),
            ("reduction_ok false", replace(rec, reduction_ok=False)),
            ("majorizes false", replace(rec, majorizes=False)),
        ):
            fires(f"{kind} {label}", checks.check_record(bad, exp))
        if kind != "hexagon":
            # Program and reference both off by one: only the closed form can see it.
            fires(f"{kind} closed form", checks.check_record(
                replace(rec, tau=rec.tau + 1), dict(exp, tau=exp["tau"] + 1)))

        code, out, _ = worker.run_main(ferrers, inputs.graph_text(m, nbrs))
        quiet(f"{kind} cli", checks.check_cli(code, out, exp))
        record = json.loads(out)
        fires(f"{kind} cli exit 1", checks.check_cli(1, out, exp))
        fires(f"{kind} cli tau + 1", checks.check_cli(
            code, json.dumps(dict(record, tau=record["tau"] + 1)), exp))
        F = Fraction(record["F"]) + 1
        fires(f"{kind} cli F + 1", checks.check_cli(
            code, json.dumps(dict(record, F=f"{F.numerator}/{F.denominator}")), exp))
        fires(f"{kind} cli no output", checks.check_cli(code, "", exp))
    return problems


if __name__ == "__main__":
    found = run(worker.import_ferrers())
    for line in found:
        print(line)
    print("self-test:", "FAILED" if found else "every check fired on its corrupted result")
    sys.exit(1 if found else 0)
