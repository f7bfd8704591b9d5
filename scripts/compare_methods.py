#!/usr/bin/env python3
"""Side-by-side convergence experiment: deepening the recursion, growing the
starting term, and doing both at once.

The last table makes the empirical case that the combination beats either
knob alone at comparable parameter cost. Each table is a `radpi table`
request; extra arguments (--bits, --format, ...) are passed to all three.
"""

import sys

from radpi.cli import run_command

TABLES = (
    ("deepening the recursion (seed m=2, s=2, +)",
     ["--method", "method1", "--m", "2", "--s", "2", "--k-range", "1:15"]),
    ("growing the starting term (d=1, single step)",
     ["--method", "method2", "--d", "1", "--m-range", "10,100,1000,10000"]),
    ("both at once (m=100, d=1)",
     ["--method", "combined", "--m", "100", "--d", "1", "--k-range", "1:15"]),
)


def main() -> int:
    for title, argv in TABLES:
        print(f"== {title} ==")
        code = run_command(["table", *argv, *sys.argv[1:]])
        if code:
            return code
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
