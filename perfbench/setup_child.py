"""Time one set-up in a fresh interpreter: import radpi, then run the warm-up.

Usage: python perfbench/setup_child.py WORKLOAD   (radpi's src on PYTHONPATH)

Prints the elapsed seconds as the last stdout line. In-process workloads
warm up with one op per kind, which also fills the `_pi_mantissa` cache at
their working scales. cli-process warms up with one command line through
`radpi.cli.run_command`, the same call a `radpi` process makes.
"""

import importlib
import sys
import time

import workloads
from run import WORKLOADS


def main() -> None:
    workload = WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    radpi = importlib.import_module("radpi")
    for op in workload.warm:
        if workload.in_process:
            workloads.prepare(radpi, op)()
        else:
            importlib.import_module("radpi.cli").run_command(op.params["argv"])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
