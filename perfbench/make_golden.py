"""Regenerate golden.json: stdout bytes of each golden argv at this commit.

    python3 perfbench/make_golden.py

Run from the root of a source checkout. A command that does not exit 0 gets
no golden bytes (stdout null); the benchmark then checks its output only
structurally, and counts its failure against the named defect in workloads.py.
"""

import json
import os
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    entries = []
    for argv in workloads.golden_argvs():
        code, stdout, _ = workloads.run_cli(argv, ROOT, env)
        entries.append({"argv": argv, "stdout": stdout if code == 0 else None})
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
