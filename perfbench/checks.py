"""Output checks.  Each returns a list of mismatch messages; empty means correct.

The expected values come from reference.py, never from a stored copy of the
program's output, so a check can only pass when the program agrees with an
independent computation.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference


def expected_graph(kind: str, m: int, n: int, nbrs: tuple[int, ...]) -> dict:
    """Independent values for one graph of a workload's input set."""
    return {
        "kind": kind,
        "m": m,
        "n": n,
        "tau": reference.tau(m, n, nbrs),
        "product": reference.degree_product(m, nbrs),
        "F": reference.invariant(m, n, nbrs),
        "nested": reference.nested(m, nbrs),
    }


def _shape_errors(tau: int, exp: dict) -> list[str]:
    # Closed forms that hold for the two structured families of the sample.
    m, n = exp["m"], exp["n"]
    if exp["kind"] == "complete" and tau != reference.complete_tau(m, n):
        return [f"K_{m},{n} gave tau={tau}, expected {reference.complete_tau(m, n)}"]
    if exp["kind"] == "staircase" and tau * m * n != exp["product"]:
        return [f"staircase gave tau*m*n={tau * m * n}, expected prod(deg)={exp['product']}"]
    return []


def check_sweep(summary, expect: dict) -> list[str]:
    """A tally-mode CampaignSummary against the closed-form sweep totals.

    Reads the summary's fields directly: summary_dict drops oracle_checked
    and the failure breakdown.
    """
    errors = []
    if summary.graphs_checked != expect["graphs"]:
        errors.append(f"graphs_checked={summary.graphs_checked}, expected {expect['graphs']}")
    if summary.equality_cases != expect["staircases"]:
        errors.append(f"equality_cases={summary.equality_cases}, expected {expect['staircases']}")
    if summary.ferrers_count != expect["staircases"]:
        errors.append(f"ferrers_count={summary.ferrers_count}, expected {expect['staircases']}")
    if summary.oracle_checked != expect["graphs"]:
        errors.append(f"oracle_checked={summary.oracle_checked}, expected {expect['graphs']}")
    if summary.failure_counts or summary.violations:
        errors.append(f"failures reported: {summary.failure_counts}, violations={summary.violations}")
    return errors


def check_record(rec, exp: dict) -> list[str]:
    """A VerificationRecord against the independent values for its graph."""
    errors = []
    if rec.tau != exp["tau"]:
        errors.append(f"tau={rec.tau}, expected {exp['tau']}")
    if rec.F != exp["F"]:
        errors.append(f"F={rec.F}, expected {exp['F']}")
    if rec.equality != exp["nested"]:
        errors.append(f"equality={rec.equality}, expected {exp['nested']}")
    if rec.ferrers != exp["nested"]:
        errors.append(f"ferrers={rec.ferrers}, expected {exp['nested']}")
    if not rec.inequality_ok or exp["tau"] * exp["m"] * exp["n"] > exp["product"]:
        errors.append("inequality not confirmed")
    if not rec.reduction_ok:
        errors.append("reduction_ok is false")
    if not rec.majorizes:
        errors.append("majorizes is false")
    return errors + _shape_errors(rec.tau, exp)


def check_cli(returncode: int, stdout: str, exp: dict) -> list[str]:
    """One `ferrers check` process: exit code 0 and the JSON tau and F."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        out = json.loads(stdout.strip().splitlines()[-1])
        tau, F = out["tau"], Fraction(out["F"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output {stdout!r}: {exc}"]
    errors = []
    if tau != exp["tau"]:
        errors.append(f"tau={tau}, expected {exp['tau']}")
    if F != exp["F"]:
        errors.append(f"F={out['F']}, expected {exp['F']}")
    return errors + _shape_errors(tau, exp)
