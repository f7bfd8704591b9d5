"""Traced stand-in for `python -m radpi`: run one command line under the tracer.

Usage: python perfbench/cli_child.py SPANS_PATH ARGV...

Installs the benchmark's wrappers, runs `radpi.cli.run_command(ARGV)` exactly
as `radpi.cli.main` does, and writes the recorded spans as JSON to
SPANS_PATH even when the command raises (the traceback still reaches stderr
and the exit code stays 1, as with the real entry point).
"""

import json
import sys

import radpi.cli
from tracing import Tracer


def main() -> None:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = radpi.cli.run_command(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(list(tracer.spans()), handle)
    sys.exit(code)


if __name__ == "__main__":
    main()
