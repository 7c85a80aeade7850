"""Command line front end: one verb per toolkit operation.

Graphs are read from a file argument or stdin in the neighborhood-list text
format; a "biadj" or one-field first line switches to 0/1 matrix rows.
Every verb honors --format json|csv|plain.  Every verdict is exact, that
of spectrum included; spectrum reports the Jacobi eigenvalues as numbers
beside it, so no verb takes a tolerance.  overlap refuses m above the
default cap as an input bound, so that no index can make 1 << index large;
its identity check is integer work.  ferrers-gen refuses a column height
above the same cap before it builds any bitset.  Only enumerate and verify
take --cap, a bound on m*n.  spectrum refuses m above 64 before it builds M,
as its Jacobi solve took 0.7 s at m = 64 and 7.4 s at m = 100.  corollary
takes any size, since its tree sum is one integer cofactor, which costs an
m x m Bareiss elimination on the short side.  Its weights are integers,
p/q or plain decimals; one in exponent notation (1e9) is bad input, since its
cost to parse grows with the exponent.  Each verb passes exact values as p/q
strings.  Exit codes: 0 on success, 1 when a theorem check fails (a
counterexample or a failed cross-check), 2 on bad input.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from .errors import CapExceeded, FerrersError, IdentityViolation, TheoremViolation
from .graphs import (
    DEFAULT_CAP,
    PartitionSpec,
    enumerate_connected,
    ferrers_from_partition,
    is_ferrers,
    parse_graph,
    write_graph,
)
from .linalg import rat_str
from .spectral import majorization_report, overlap_defect, overlap_trace, report_dict
from .trees import ferrers_invariant, tau_matrix_tree
from .verify import (
    corollary_check,
    record_dict,
    summary_dict,
    verify_graph,
    verify_pairs,
)

_SPECTRUM_CAP = 64


def _plain_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return " ".join(_plain_value(v) for v in value)
    return str(value)


def _csv_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_value(v) for v in value)
    return _plain_value(value)


def emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(payload.keys())
        writer.writerow([_csv_value(v) for v in payload.values()])
    else:
        if len(payload) == 1:
            print(_plain_value(next(iter(payload.values()))))
        else:
            for key, value in payload.items():
                print(f"{key}: {_plain_value(value)}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_graph(args):
    return parse_graph(_read_text(args.path))


def _parse_subset(spec: str, m: int) -> int:
    # Each index is range-checked before 1 << index can allocate a huge integer.
    subset = 0
    for field in spec.split(","):
        field = field.strip()
        if not field:
            raise ValueError(f"empty index in subset {spec!r}")
        index = int(field)
        if not 0 <= index < m:
            raise ValueError(f"index {index} in subset {spec!r} is outside 0..{m - 1}")
        subset |= 1 << index
    return subset


def _cmd_tau(args) -> int:
    emit({"tau": tau_matrix_tree(_load_graph(args))}, args.format)
    return 0


def _cmd_invariant(args) -> int:
    emit({"F": rat_str(ferrers_invariant(_load_graph(args)))}, args.format)
    return 0


def _cmd_check(args) -> int:
    rec = verify_graph(_load_graph(args))
    emit(record_dict(rec), args.format)
    return 1 if rec.failures else 0


def _cmd_spectral(args) -> int:
    g = _load_graph(args)
    if g.m > _SPECTRUM_CAP:  # before M is built: the Jacobi solve grows faster than m^3
        raise CapExceeded(f"m = {g.m} exceeds the spectrum input cap {_SPECTRUM_CAP}")
    emit(report_dict(majorization_report(g)), args.format)
    return 0


def _cmd_overlap(args) -> int:
    if args.m > DEFAULT_CAP:  # an input bound, before any index: keeps 1 << index small
        raise CapExceeded(f"m = {args.m} exceeds the overlap input cap {DEFAULT_CAP}")
    I = _parse_subset(args.I, args.m)
    T = _parse_subset(args.T, args.m)
    trace = overlap_trace(I, T, args.m)
    emit({"trace": rat_str(trace), "defect": rat_str(overlap_defect(I, T))}, args.format)
    return 0


def _cmd_ferrers_gen(args) -> int:
    heights = tuple(int(h) for h in args.heights.split(","))
    if max(heights) > DEFAULT_CAP:  # before any bitset: write_graph's walk grows as height^2
        raise CapExceeded(f"height {max(heights)} exceeds the ferrers-gen input cap {DEFAULT_CAP}")
    g = ferrers_from_partition(PartitionSpec(heights))
    emit({"graph": write_graph(g)}, args.format)
    return 0


def _cmd_ferrers_detect(args) -> int:
    emit({"ferrers": is_ferrers(_load_graph(args))}, args.format)
    return 0


def _cmd_enumerate(args) -> int:
    graphs = enumerate_connected(args.m, args.n, cap=args.cap, dedupe=args.dedupe)
    for k, g in enumerate(graphs):
        if k and args.format == "csv":  # the header went out with the first graph
            csv.writer(sys.stdout).writerow([write_graph(g)])
        else:
            emit({"graph": write_graph(g)}, args.format)
    return 0


def _cmd_verify(args) -> int:
    stream = None
    if args.format == "json":

        def stream(rec):
            print(json.dumps(rec))

    corner = (args.m_max, args.n_max)  # refused before a list of m_max * n_max pairs
    if min(corner) > 0 and args.m_max * args.n_max > args.cap:
        raise CapExceeded(f"pair {corner} exceeds the enumeration cap {args.cap}")
    pairs = [(m, n) for m in range(1, args.m_max + 1) for n in range(1, args.n_max + 1)]
    summary = verify_pairs(pairs, cap=args.cap, workers=args.workers, emit=stream)
    emit(summary_dict(summary), args.format)
    return 0


def _cmd_corollary(args) -> int:
    lines = _read_text(args.path).splitlines()
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 2:
        raise ValueError("expected a graph followed by one line of weights")
    fields = lines[-1].split()
    for field in fields:
        if "e" in field.lower():  # Fraction would expand 1e2000000 into every digit
            raise ValueError(f"weight {field!r} is in exponent notation; write it as p/q")
    try:
        weights = [Fraction(field) for field in fields]
    except ZeroDivisionError as exc:  # "1/0" is bad input, not a failed check
        raise ValueError(f"weight with a zero denominator in {lines[-1].strip()!r}") from exc
    g = parse_graph("\n".join(lines[:-1]) + "\n")
    ok = corollary_check(g, weights)
    emit({"ok": ok}, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Each verb takes --format plus only the options its handler reads.
    fmt, cap = (argparse.ArgumentParser(add_help=False) for _ in range(2))
    fmt.add_argument(
        "--format", choices=("json", "csv", "plain"), default="json", help="output format"
    )
    cap.add_argument(
        "--cap", type=int, default=DEFAULT_CAP, help="enumeration cap on m*n"
    )

    graph_in = argparse.ArgumentParser(add_help=False)
    graph_in.add_argument("path", nargs="?", default="-", help="graph file, or - for stdin")

    parser = argparse.ArgumentParser(
        prog="ferrers",
        description="Exact spanning-tree counts and degree-product bounds for bipartite graphs.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("tau", parents=[fmt, graph_in], help="spanning-tree count").set_defaults(
        handler=_cmd_tau
    )
    sub.add_parser(
        "invariant", parents=[fmt, graph_in], help="degree product over m*n"
    ).set_defaults(handler=_cmd_invariant)
    sub.add_parser(
        "check", parents=[fmt, graph_in], help="full verification record for one graph"
    ).set_defaults(handler=_cmd_check)
    sub.add_parser(
        "spectrum", parents=[fmt, graph_in], help="eigenvalues and majorization report of M"
    ).set_defaults(handler=_cmd_spectral)

    overlap = sub.add_parser(
        "overlap", parents=[fmt], help="projection overlap trace and defect"
    )
    overlap.add_argument("I", help="comma-separated x-indices, e.g. 0,1")
    overlap.add_argument("T", help="comma-separated x-indices, e.g. 1,2")
    overlap.add_argument("m", type=int, help="size of the ground set X")
    overlap.set_defaults(handler=_cmd_overlap)

    gen = sub.add_parser(
        "ferrers-gen", parents=[fmt], help="staircase graph from column heights"
    )
    gen.add_argument("heights", help="weakly decreasing heights, e.g. 3,2,1")
    gen.set_defaults(handler=_cmd_ferrers_gen)

    sub.add_parser(
        "ferrers-detect", parents=[fmt, graph_in], help="test the nested-neighborhood shape"
    ).set_defaults(handler=_cmd_ferrers_detect)

    enum = sub.add_parser(
        "enumerate", parents=[fmt, cap], help="stream all connected graphs on labeled parts"
    )
    enum.add_argument("m", type=int)
    enum.add_argument("n", type=int)
    enum.add_argument(
        "--dedupe", action="store_true", help="one canonical form per class, in canonical order"
    )
    enum.set_defaults(handler=_cmd_enumerate)

    ver = sub.add_parser(
        "verify",
        parents=[fmt, cap],
        help="exhaustive campaign over a rectangle of part sizes",
    )
    ver.add_argument("m_max", type=int)
    ver.add_argument("n_max", type=int)
    ver.add_argument("--workers", type=int, default=None, help="worker processes")
    ver.set_defaults(handler=_cmd_verify)

    sub.add_parser(
        "corollary",
        parents=[fmt, graph_in],
        help="weighted bound at the weights on the last input line",
    ).set_defaults(handler=_cmd_corollary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except (TheoremViolation, IdentityViolation) as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return 1
    except (FerrersError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
