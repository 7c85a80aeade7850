"""Time one cold set-up of a workload: import ferrers, then build the inputs.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds taken.  The clock starts before any import, so ferrers
pays here for every module it pulls in, as it does in a cold `ferrers check`;
the benchmark's own modules are imported only after ferrers, outside the
clock.
"""

import time

_start = time.perf_counter()

import os  # noqa: E402  (already loaded by interpreter start-up)
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import ferrers  # noqa: E402
import ferrers.cli  # noqa: E402,F401

import_s = time.perf_counter() - _start

sys.path.insert(0, HERE)
import inputs  # noqa: E402

if __name__ == "__main__":
    inputs.check_origin(ferrers)
    workload, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    inputs.build(ferrers, workload, seed)
    print(import_s + time.perf_counter() - start)
