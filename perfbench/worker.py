"""Run one workload in this process and print its result as the last stdout line.

Started by run.py in a fresh interpreter, one per workload.  Timed regions
contain only calls into ferrers (or, for cli-check, the `ferrers check`
subprocess); building inputs, the reference values and the checks stay
outside them.  Cold set-ups are timed between passes, each in a fresh
interpreter (setup_probe.py).  With --trace 1 the same work runs with spans
around each layer and the per-layer metrics are reported instead of the
end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import calibrate
import checks
import inputs
import reference
from spans import Tracer, traced

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep-oracle", "sample-large", "cli-check")
MIN_SAMPLES = 100  # latency samples the timing metrics rest on, so ten lie beyond the p90
PROBE_PAIRS = 24  # cold set-ups and calibration cold starts per run, spread over the run
PROBES = 5  # fresh processes per cold-start probe in the traced run
CALL_TIMEOUT_S = 60
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")


def import_ferrers():
    """Import ferrers from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "ferrers", "__init__.py")):
        raise SystemExit(f"no ferrers sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import ferrers
    import ferrers.cli

    inputs.check_origin(ferrers)
    return ferrers


class Outcome:
    """Attempted and failed operation counts, with the first few mismatches."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{label}: {'; '.join(errors)}")


def clear_caches(ferrers) -> None:
    """Empty the process-wide projection caches of ferrers.linalg."""
    ferrers.linalg.projection_P.cache_clear()
    ferrers.linalg.projection_Q.cache_clear()


def expected_for(data) -> list[dict]:
    return [checks.expected_graph(*item) for item, _ in data]


def _untraced(_name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


# --- one pass of each workload -------------------------------------------------


def sweep_pass(ferrers, pairs, expects, outcome, latencies, tracer=None):
    """One tally-mode campaign per (m, n) pair; returns (graphs, seconds).

    A campaign has no per-graph times, so each campaign adds its ms per graph
    to latencies (None for a campaign that raised).
    """
    call = tracer.call if tracer else _untraced
    done, total = 0, 0.0
    for (m, n), expect in zip(pairs, expects):
        start = time.perf_counter()
        try:
            summary = call(
                "verify.verify_pairs",
                ferrers.verify_pairs,
                [(m, n)],
                workers=None,
                oracle_edge_cap=inputs.ORACLE_EDGES,
                fail_fast=False,
            )
        except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
            outcome.record(f"campaign {m}x{n}", [repr(exc)])
            latencies.append(None)
            continue
        elapsed = time.perf_counter() - start
        done, total = done + summary.graphs_checked, total + elapsed
        latencies.append(elapsed * 1000 / max(summary.graphs_checked, 1))
        outcome.record(f"campaign {m}x{n}", checks.check_sweep(summary, expect))
    return done, total


def large_pass(ferrers, data, expected, outcome, latencies, tracer=None):
    """One verify_graph call per graph; returns (graphs, seconds).

    Adds each call's ms to latencies (None for a call that raised).
    """
    call = tracer.call if tracer else _untraced
    verify_graph = ferrers.verify_graph
    done, total = 0, 0.0
    for (item, g), exp in zip(data, expected):
        label = f"{item[0]} {item[1]}x{item[2]} {item[3]}"
        start = time.perf_counter()
        try:
            rec = call("verify.verify_graph", verify_graph, g)
        except Exception as exc:
            outcome.record(label, [repr(exc)])
            latencies.append(None)
            continue
        elapsed = time.perf_counter() - start
        done, total = done + 1, total + elapsed
        latencies.append(elapsed * 1000)
        outcome.record(label, checks.check_record(rec, exp))
    return done, total


def growth_pass(ferrers, data, expected, seed, outcome) -> None:
    """Fixed number of relabeled copies of the sample on one set of projection caches.

    Relabeling keeps tau, F and nestedness, so each copy is checked against
    the values of its original.  The caches are emptied once, before the
    first copy, so what they hold at the end, and the peak RSS with it, is set
    by the seed alone.
    """
    clear_caches(ferrers)
    for copy in range(inputs.LARGE_GROWTH_COPIES):
        for (item, _), exp in zip(data, expected):
            kind, m, n, nbrs = inputs.relabeled(item, seed, copy)
            label = f"relabeled {kind} {m}x{n} {nbrs}"
            try:
                rec = ferrers.verify_graph(ferrers.BipartiteGraph(m, n, nbrs))
            except Exception as exc:
                outcome.record(label, [repr(exc)])
                continue
            outcome.record(label, checks.check_record(rec, exp))


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_check(cmd: list[str], text: str, env: dict) -> tuple[int, str, int]:
    """One process fed text on stdin; returns its exit code, stdout and peak RSS in KiB.

    Reaped with os.wait4, so the RSS is this child's alone.  A process that
    hangs is ended by run.py's deadline, which kills the whole process group.
    """
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, cwd=ROOT, env=env,
    )
    with proc:
        try:
            proc.stdin.write(text)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def cli_pass(data, expected, outcome, latencies, peak_kb: list[int]):
    # sys.executable, not a `python` found on PATH: a version-manager shim in
    # front of the interpreter adds its own start-up to every call.
    cmd = [sys.executable, "-m", "ferrers", "check"]
    env = _cli_env()
    total = 0.0
    for (item, text), exp in zip(data, expected):
        start = time.perf_counter()
        code, out, rss_kb = run_check(cmd, text, env)
        elapsed = time.perf_counter() - start
        total += elapsed
        latencies.append(elapsed * 1000)
        peak_kb[0] = max(peak_kb[0], rss_kb)
        outcome.record(f"check {text!r}", checks.check_cli(code, out, exp))
    return len(data), total


def run_main(ferrers, text: str, tracer=None) -> tuple[int, str, float]:
    """In-process cli.main(["check"]) with stdin and stdout swapped for buffers.

    Returns the exit code, the output and the seconds main took.
    """
    call = tracer.call if tracer else _untraced
    out = io.StringIO()
    saved_stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            code = call("cli.main", ferrers.cli.main, ["check"])
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue(), elapsed


def main_pass(ferrers, data, expected, outcome, latencies, tracer=None):
    total = 0.0
    for (item, text), exp in zip(data, expected):
        code, out, elapsed = run_main(ferrers, text, tracer)
        total += elapsed
        latencies.append(elapsed * 1000)
        outcome.record(f"main check {text!r}", checks.check_cli(code, out, exp))
    return len(data), total


# --- untraced run: end-to-end metrics -----------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Seconds of one cold set-up (import ferrers, build the inputs) in a fresh interpreter."""
    code, out, _ = run_check([sys.executable, SETUP_PROBE, workload, str(seed)], "", os.environ)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return float(out)


def calibration_probe() -> tuple[float, float]:
    """One cold start of calibrate.py: (seconds of the whole process, seconds of its imports)."""
    start = time.perf_counter()
    code, out, _ = run_check([sys.executable, CALIBRATE], "", os.environ)
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"calibration probe exited with {code}")
    return wall, float(out)


def quantile(values: list[float], q: float, weights: list[int] | None = None) -> float:
    """Nearest-rank quantile: the least value with a share q of the weight at or below it."""
    weights = weights or [1] * len(values)
    bar, held = q * sum(weights), 0
    for value, weight in sorted(zip(values, weights)):
        held += weight
        if held >= bar:
            return value
    raise ValueError("no values")


def measure(workload, ferrers, data, seed, seconds, outcome) -> tuple[dict, dict]:
    """Whole passes until `seconds` have gone by; the end-to-end metrics and raw samples.

    Every pass makes the same calls in the same order.  On sweep-oracle and
    sample-large a call's time is its median over the run's passes, and the
    quantiles are taken over calls (on the sweep, over graphs, each at its
    pair campaign's ms per graph); the spread between calls there comes from
    the inputs.  On cli-check the ten graphs cost alike and the spread is the
    processes' own, so the quantiles are taken over every call of the run.

    Between passes, spread evenly over the run, come PROBE_PAIRS pairs of cold
    starts: a set-up probe and a calibration probe.  Every timing metric is
    scaled to the host speed at which calibrate.py's cold start takes
    calibrate.NOMINAL_WALL_S; set-up time is scaled probe by probe against the
    calibration probe that follows it.  The raw figures go into the results
    file beside the scaled ones.

    On sample-large each pass starts with empty projection caches, outside the
    timed calls, so every pass costs the same whether it is the second or the
    twentieth; the cache growth this hides shows in peak_rss_mb, which is
    taken after growth_pass.
    """
    passes: list[tuple[int, float]] = []  # (graphs, seconds)
    pass_latencies: list[list[float | None]] = []  # ms per call, in call order
    setups: list[float] = []
    calibrations: list[tuple[float, float]] = []
    cli_peak_kb = [0]
    if workload == "sweep-oracle":
        expects = [reference.sweep_expectations([pair]) for pair in data]
        weights = [e["graphs"] for e in expects]
    else:
        expected = expected_for(data)
        weights = [1] * len(data)
    start = time.perf_counter()
    while True:
        latencies: list[float | None] = []
        if workload == "sweep-oracle":
            checked, elapsed = sweep_pass(ferrers, data, expects, outcome, latencies)
        elif workload == "cli-check":
            checked, elapsed = cli_pass(data, expected, outcome, latencies, cli_peak_kb)
        else:
            clear_caches(ferrers)
            checked, elapsed = large_pass(ferrers, data, expected, outcome, latencies)
        passes.append((checked, elapsed))
        pass_latencies.append(latencies)
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < PROBE_PAIRS * share:
            setups.append(setup_probe(workload, seed))
            calibrations.append(calibration_probe())
        if share >= 1.0 and len(passes) * sum(weights) >= 2 * MIN_SAMPLES:
            break
    if workload == "sample-large":
        growth_pass(ferrers, data, expected, seed, outcome)
    if workload == "cli-check":
        rss_kb = cli_peak_kb[0]
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if workload == "cli-check":
        samples = [x for lat in pass_latencies for x in lat if x is not None]
        sample_weights = None
        rate = sum(g for g, _ in passes) / sum(t for _, t in passes)
    else:
        samples, sample_weights = [], []
        for call, weight in zip(zip(*pass_latencies), weights):
            times = [x for x in call if x is not None]
            if times:  # a call that raised in every pass has no time
                samples.append(statistics.median(times))
                sample_weights.append(weight)
        rate = 1000 * sum(sample_weights) / sum(
            ms * w for ms, w in zip(samples, sample_weights))
    raw = {
        "graphs_per_s": rate,
        "check_ms_p50": quantile(samples, 0.5, sample_weights),
        "check_ms_p90": quantile(samples, 0.9, sample_weights),
        "setup_s": statistics.median(setups),
    }
    host = statistics.median(wall for wall, _ in calibrations) / calibrate.NOMINAL_WALL_S
    setup_s = calibrate.NOMINAL_IMPORT_S * statistics.median(
        s / imports for s, (_, imports) in zip(setups, calibrations))
    return {
        "graphs_per_s": ("graphs/s", raw["graphs_per_s"] * host),
        "check_ms_p50": ("ms", raw["check_ms_p50"] / host),
        "check_ms_p90": ("ms", raw["check_ms_p90"] / host),
        "peak_rss_mb": ("MB", rss_kb / 1024),
        "setup_s": ("s", setup_s),
    }, {
        "raw": raw,
        "host_slowdown": host,
        "passes": passes,
        "pass_latencies_ms": pass_latencies,
        "setup_s_samples": setups,
        "calibration_samples": calibrations,
    }


# --- traced run: per-layer metrics --------------------------------------------


def _cold_start_probes() -> dict:
    env = _cli_env()
    interp, imports = [], []
    for _ in range(PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=CALL_TIMEOUT_S)
        interp.append((time.perf_counter() - start) * 1000)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import ferrers.cli; "
             "print(time.perf_counter() - t)"],
            check=True, capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CALL_TIMEOUT_S,
        )
        imports.append(float(proc.stdout) * 1000)
    return {"cli.interpreter_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports)}


def _cache_stats(ferrers) -> tuple[int, int, int]:
    infos = [ferrers.linalg.projection_P.cache_info(), ferrers.linalg.projection_Q.cache_info()]
    return (sum(i.hits for i in infos), sum(i.misses for i in infos),
            sum(i.currsize for i in infos))


def measure_traced(workload, ferrers, data, seed, seconds, outcome, spans_path, run_errors):
    """Alternate untraced and traced passes, each on cold projection caches."""
    tracer = Tracer()
    plain_rates, traced_rates = [], []
    hits = misses = entries = 0
    traced_graphs = traced_passes = 0
    latencies: list[float] = []
    if workload == "sweep-oracle":
        expect = reference.sweep_expectations(data)
        expects = [reference.sweep_expectations([pair]) for pair in data]
        run_pass = lambda tr, _lat: sweep_pass(ferrers, data, expects, outcome, [], tr)
        cli_data = inputs.build(ferrers, "cli-check", seed)
    else:
        expected = expected_for(data)
        if workload == "sample-large":
            run_pass = lambda tr, lat: large_pass(ferrers, data, expected, outcome, lat, tr)
            cli_data = inputs.build(ferrers, "cli-check", seed)
        else:
            run_pass = lambda tr, lat: main_pass(ferrers, data, expected, outcome, lat, tr)
            cli_data = None
    start = time.perf_counter()
    while True:
        clear_caches(ferrers)
        graphs, elapsed = run_pass(None, latencies if cli_data is None else [])
        plain_rates.append(graphs / elapsed)
        clear_caches(ferrers)
        with traced(ferrers, tracer):
            graphs, elapsed = run_pass(tracer, [])
        traced_rates.append(graphs / elapsed)
        h, mi, e = _cache_stats(ferrers)
        hits, misses, entries = hits + h, misses + mi, entries + e
        traced_graphs += graphs
        traced_passes += 1
        if time.perf_counter() - start >= seconds:
            break
    if cli_data is not None:
        cli_expected = expected_for(cli_data)
        for _ in range(3):
            main_pass(ferrers, cli_data, cli_expected, outcome, latencies)
    tracer.write(spans_path)

    if workload == "sweep-oracle":
        masks = tracer.counts.get("graphs.masks_scanned", 0) / traced_passes
        if masks != expect["masks"]:
            run_errors.append(f"traced {masks} masks per pass, expected {expect['masks']}")

    def per_graph_ms(*names):
        return sum(tracer.self_ns.get(n, 0) for n in names) / 1e6 / traced_graphs

    def per_pass(key):
        return tracer.counts.get(key, 0) / traced_passes

    verify_names = [n for n in tracer.names if n.startswith("verify.")]
    metrics = {
        "graphs.connectivity_ms_per_graph": ("ms", per_graph_ms("graphs.connectivity")),
        "graphs.masks_scanned": ("count", per_pass("graphs.masks_scanned")),
        "graphs.degrees_calls_per_graph": (
            "calls/graph", tracer.calls.get("graphs.degrees", 0) / traced_graphs),
        "graphs.degrees_ms_per_graph": ("ms", per_graph_ms("graphs.degrees")),
        "graphs.other_ms_per_graph": ("ms", per_graph_ms("graphs.other")),
        "linalg.matrix_M_ms_per_graph": ("ms", per_graph_ms("linalg.matrix_M")),
        "linalg.det_ms_per_graph": ("ms", per_graph_ms("linalg.det")),
        "linalg.projection_cache_hit_ratio": ("ratio", hits / max(hits + misses, 1)),
        "linalg.projection_cache_entries": ("count", entries / traced_passes),
        "trees.tau_ms_per_graph": ("ms", per_graph_ms("trees.tau")),
        "trees.reduction_ms_per_graph": ("ms", per_graph_ms("trees.reduction")),
        "trees.deletion_oracle_ms_per_graph": ("ms", per_graph_ms("trees.deletion_oracle")),
        "trees.brute_force_ms_per_graph": ("ms", per_graph_ms("trees.brute_force")),
        "trees.brute_force_subsets": ("count", per_pass("trees.brute_force_subsets")),
        "spectral.majorization_ms_per_graph": ("ms", per_graph_ms("spectral.majorization")),
        "spectral.eigen_ms_per_graph": ("ms", per_graph_ms("spectral.eigen")),
        "verify.self_ms_per_graph": ("ms", per_graph_ms(*verify_names)),
        "cli.main_ms": ("ms", statistics.median(latencies)),
        "trace.graphs_per_s_untraced": ("graphs/s", statistics.median(plain_rates)),
        "trace.graphs_per_s_traced": ("graphs/s", statistics.median(traced_rates)),
        "trace.overhead_ratio": (
            "ratio", statistics.median(plain_rates) / statistics.median(traced_rates)),
        "trace.spans": ("count", len(tracer.records) // 6),
    }
    for name, value in _cold_start_probes().items():
        metrics[name] = ("ms", value)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans (.jsonl.gz)")
    args = ap.parse_args(argv)

    ferrers = import_ferrers()
    data = inputs.build(ferrers, args.workload, args.seed)
    outcome = Outcome()
    run_errors: list[str] = []
    if args.trace:
        if not args.spans:
            ap.error("--trace 1 needs --spans")
        info = {}
        metrics = measure_traced(
            args.workload, ferrers, data, args.seed, args.seconds, outcome, args.spans,
            run_errors,
        )
    else:
        metrics, info = measure(args.workload, ferrers, data, args.seed, args.seconds, outcome)
    for line in outcome.errors + run_errors:
        print(f"mismatch: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": not run_errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "errors": outcome.errors + run_errors,
        "info": info,
        "metrics": {k: {"value": v, "unit": u} for k, (u, v) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
