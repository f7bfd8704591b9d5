#!/usr/bin/env python3
"""Mutation smoke over the self-consistent arccos's bounds and edges.

Each site names one expression in a function of src/radpi, the expression a
mutant writes there instead, and the test files that must each fail under
it. For each site the script copies src/ to a temporary directory, swaps the
one expression there with stdlib ast, and runs each named test file against
the copy (pytest -x). Nothing under src/ is written.

Exit status: 0 when every mutant is killed by every file it names, 1 when
one survives a file, 2 when a site no longer matches the source exactly once
(or a test file errors instead of failing).

    python scripts/mutants.py
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Site(NamedTuple):
    name: str
    module: str  # a file of src/radpi
    function: str  # the function that holds the expression
    original: str
    mutant: str
    tests: tuple[str, ...]  # each must fail under the mutant


SITES = (
    Site("arccos-returns-column-5", "drivers.py", "arccos_by_recursion",
         "FixedReal(row[6], work)", "FixedReal(row[5], work)",
         ("tests/test_drivers.py", "tests/test_engine_pins.py", "tests/test_analysis.py",
          "tests/test_cli.py")),
    Site("arccos-stops-on-column-5-of-the-row-before", "drivers.py", "arccos_by_recursion",
         "abs(row[6] - prev[6])", "abs(row[6] - prev[5])",
         ("tests/test_drivers.py",)),
    Site("arccos-column-divided-by-4**c", "drivers.py", "arccos_by_recursion",
         "(4 ** c * row[-1] - above) // (4 ** c - 1)", "(4 ** c * row[-1] - above) // 4 ** c",
         ("tests/test_drivers.py", "tests/test_engine_pins.py", "tests/test_acceptance.py",
          "tests/test_analysis.py", "tests/test_cli.py")),
    Site("arccos-tolerance-without-its-8-bits", "drivers.py", "arccos_by_recursion",
         "1 << (work - out_bits - 8)", "1 << (work - out_bits)",
         ("tests/test_drivers.py",)),
    Site("arccos-rejects-the-largest-x0-near-1", "drivers.py", "arccos_by_recursion",
         "x0.mantissa > one_in - (1 << max(0, x0.scale_bits - out_bits // 2))",
         "x0.mantissa >= one_in - (1 << max(0, x0.scale_bits - out_bits // 2))",
         ("tests/test_drivers.py", "tests/test_engine_pins.py")),
    Site("plan-widens-x0-only-past-the-working-bits", "drivers.py", "plan",
         "params.get('x0_bits', 0) >= work", "params.get('x0_bits', 0) > work",
         ("tests/test_drivers.py", "tests/test_admission.py")),
)


def _expr(text: str) -> ast.expr:
    return ast.parse(text, mode="eval").body


class _Swap(ast.NodeTransformer):
    def __init__(self, original: str, mutant: str) -> None:
        self.want, self.mutant, self.hits = ast.dump(_expr(original)), mutant, 0

    def visit(self, node: ast.AST) -> ast.AST:
        if isinstance(node, ast.expr) and ast.dump(node) == self.want:
            self.hits += 1
            return ast.copy_location(_expr(self.mutant), node)
        return self.generic_visit(node)


def mutate(source: str, site: Site) -> str:
    """The module source with the site's expression swapped for its mutant,
    which must occur exactly once in the site's function."""
    tree = ast.parse(source)
    functions = [node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and node.name == site.function]
    swap = _Swap(site.original, site.mutant)
    for function in functions:
        swap.visit(function)
    if swap.hits != 1:
        raise LookupError(f"{site.name}: {site.original!r} occurs {swap.hits} times "
                          f"in {site.module} {site.function}, not once")
    return ast.unparse(ast.fix_missing_locations(tree))


def survivors(site: Site) -> list[str]:
    """The site's test files that pass against a copy of src/ with its mutant."""
    with tempfile.TemporaryDirectory(prefix="radpi-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "radpi" / site.module
        path.write_text(mutate(path.read_text(encoding="utf-8"), site), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        where = subprocess.run([sys.executable, "-c", "import radpi; print(radpi.__file__)"],
                               env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        if not where.stdout.startswith(str(src)):
            raise RuntimeError(f"{site.name}: the tests import radpi from {where.stdout.strip()}")
        passed = []
        for test in site.tests:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", test],
                env=env, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode == 0:
                passed.append(test)
            elif proc.returncode != 1:  # not a test failure: a collection or usage error
                raise RuntimeError(f"{site.name}: {test} exited {proc.returncode}\n"
                                   f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return passed


def main() -> int:
    status = 0
    for site in SITES:
        try:
            passed = survivors(site)
        except (LookupError, RuntimeError) as exc:
            print(f"ERROR     {exc}", flush=True)
            status = 2
            continue
        if passed:
            status = max(status, 1)
            print(f"SURVIVED  {site.name}: passes {', '.join(passed)}", flush=True)
        else:
            print(f"killed    {site.name}: fails {', '.join(site.tests)}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
