"""Benchmark of ferrers: one command, each workload in a fresh process.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Before measuring, the checker self-test
runs (selftest.py).  Each workload then runs in its own interpreter
(worker.py).  The last line of standard output is one JSON object with
correct, attempted, failed and metrics; every run also writes
perfbench/results/BENCH_*.json, and a traced run its spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

import selftest  # noqa: E402
import worker  # noqa: E402

DEADLINE_S = 165  # per workload


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py with args and return its last stdout line, parsed."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for another worker process")
    # Its own process group, so a timeout also ends the worker's children.
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=30
    )
    return proc.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code when there is no git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ferrers")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def declared_metrics(trace: int) -> set[str]:
    """Metric names BENCHMARK.json promises for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(name: str, args, stamp: str, deadline: float) -> dict:
    worker_args = ["--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans = None
    if args.trace:
        spans = os.path.join(RESULTS, f"spans_{stamp}_{name}_seed{args.seed}.jsonl.gz")
        worker_args += ["--spans", spans]
    result = run_worker(worker_args, deadline)
    result["spans_file"] = spans
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ferrers benchmark")
    ap.add_argument("--workload", choices=(*worker.WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problems = selftest.run(worker.import_ferrers())
    if problems:
        print("checker self-test failed:", *problems, sep="\n  ", file=sys.stderr)
        return 3

    os.makedirs(RESULTS, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    names = worker.WORKLOADS if args.workload == "all" else (args.workload,)
    env = {
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    results = {}
    for name in names:
        try:
            result = run_workload(name, args, stamp, time.monotonic() + DEADLINE_S)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 4
        declared = declared_metrics(args.trace)
        if declared != set(result["metrics"]):
            print(f"error: {name} reported {sorted(result['metrics'])}, "
                  f"BENCHMARK.json declares {sorted(declared)}", file=sys.stderr)
            return 5
        results[name] = result
        record = {
            **env,
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "utc": stamp,
            **result,
        }
        path = os.path.join(RESULTS, f"BENCH_{stamp}_{name}_seed{args.seed}_trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:14.4f} {m['unit']}")

    def line(r):
        return {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}

    if len(names) == 1:
        print(json.dumps(line(results[names[0]])))
    else:
        print(json.dumps({name: line(r) for name, r in results.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
