#!/usr/bin/env python3
"""Cancellation experiment at double-equivalent (53-bit) fixed precision.

Shows the U-shaped error of the naive sine (recomputed from the cosine every
step, subtracting two values that both approach 1) against the stable sine
(one division per step): the naive route bottoms out around depth 13 and then
loses everything, while the stable route rides down to its rounding floor.
This is `radpi audit` on the seed m=2, s=2 with a 256-bit reference floor;
extra arguments (--audited-bits, --k, --format, ...) are passed through.
"""

import sys

from radpi.cli import run_command

if __name__ == "__main__":
    sys.exit(run_command(["audit", "--bits", "256", *sys.argv[1:]]))
