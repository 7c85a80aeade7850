"""A cold start that does not touch ferrers, timed alongside each workload.

The host's speed drifts with the load of its other tenants: for minutes at a
time the same code runs a third slower, and a cold interpreter start slower
still.  worker.py starts this script in a fresh interpreter between the
passes of a run, and scales the run's timings to the host speed at which this
cold start takes NOMINAL_WALL_S (see README.md).  What this script does must
never change, or figures taken before and after the change stop being
comparable.

    python3 perfbench/calibrate.py   # prints the seconds its imports took
"""

import time

_start = time.perf_counter()

# Standard-library modules that a cold `ferrers check` also loads.
import argparse  # noqa: E402,F401
import csv  # noqa: E402,F401
import dataclasses  # noqa: E402,F401
import fractions  # noqa: E402,F401
import json  # noqa: E402,F401
import multiprocessing  # noqa: E402,F401
import random  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _start

# The reference host speed: this script's cold start, interpreter start-up
# included, and its imports alone, as measured on the machine the reference
# figures in README.md come from.  They only set the unit of the scaled
# figures; any fixed values would do.
NOMINAL_WALL_S = 0.100
NOMINAL_IMPORT_S = 0.030

if __name__ == "__main__":
    print(IMPORT_S)
