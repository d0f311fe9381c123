"""One set-up as a user pays it: fresh interpreter, imports, inputs generated.

run.py starts this script in a child interpreter several times and reports
the median wall time as ``setup_s``.  Usage (from the repository root, with
``src`` on PYTHONPATH): python3 bench/setup_child.py WORKLOAD SEED
"""

import sys

import fracmech  # noqa: F401
import fracmech.cli  # noqa: F401

import workloads

SETUP_TASKS = 256

if __name__ == "__main__":
    workload = workloads.WORKLOADS[sys.argv[1]]
    workloads.first_inputs(workload, int(sys.argv[2]), SETUP_TASKS)
