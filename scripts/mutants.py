#!/usr/bin/env python3
"""Mutation smoke over the bounds and edges of the self-consistent arccos and
its count, admission, the rounding slacks, the identity checks, the
references, the pi-free exact ratio and the flag table.

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
    function: str  # the function that holds the expression, or "<module>" for top-level code
    original: str
    mutant: str
    tests: tuple[str, ...]  # each must fail under the mutant


SITES = (
    Site("arccos-rejects-the-largest-x0-near-1", "drivers.py", "arccos_by_recursion",
         "x0.mantissa > one_in - (1 << max(0, x0.scale_bits - out_bits // 2))",
         "x0.mantissa >= one_in - (1 << max(0, x0.scale_bits - out_bits // 2))",
         ("tests/test_drivers.py", "tests/test_engine_pins.py")),
    Site("arccos-runs-one-step-short-of-its-plan", "drivers.py", "arccos_by_recursion",
         "run.steps - 1", "run.steps - 2",
         ("tests/test_drivers.py", "tests/test_engine_pins.py", "tests/test_analysis.py",
          "tests/test_cli.py")),
    Site("arcsin-series-drops-the-squared-odd-factor", "drivers.py", "_arcsin_terms",
         "(2 * n + 1) ** 2", "(2 * n + 1)",
         ("tests/test_drivers.py", "tests/test_engine_pins.py", "tests/test_analysis.py",
          "tests/test_cli.py")),
    Site("arcsin-u-one-bit-short", "drivers.py", "_arcsin_terms",
         "w + 2 * j", "w + 2 * j - 1",
         ("tests/test_drivers.py", "tests/test_engine_pins.py", "tests/test_acceptance.py",
          "tests/test_cli.py")),
    Site("plan-arccos-count-one-step-short", "drivers.py", "plan",
         "isqrt(ctx.scale_bits)", "isqrt(ctx.scale_bits) - 1",
         ("tests/test_drivers.py", "tests/test_admission.py", "tests/test_tooling.py")),
    Site("plan-arccos-series-one-term-short", "drivers.py", "plan",
         "steps + (work + 2) // (2 * steps - 4) + 1", "steps + (work + 2) // (2 * steps - 4)",
         ("tests/test_engine_pins.py", "tests/test_admission.py")),
    Site("plan-widens-x0-only-past-the-working-bits", "drivers.py", "plan",
         "x0.scale_bits + 1", "x0.scale_bits",
         ("tests/test_drivers.py", "tests/test_admission.py")),
    Site("admission-refuses-exactly-the-bound-in-working-bits", "arith.py", "admit_cost",
         "work > MAX_WORKING_BITS", "work >= MAX_WORKING_BITS", ("tests/test_admission.py",)),
    Site("admission-refuses-exactly-the-bound-in-bit-steps", "arith.py", "admit_cost",
         "bit_steps > MAX_BIT_STEPS", "bit_steps >= MAX_BIT_STEPS", ("tests/test_admission.py",)),
    Site("plan-depth-budget-one-step-deeper", "drivers.py", "plan",
         "(ctx.guard_bits - 64) // 2", "(ctx.guard_bits - 62) // 2",
         ("tests/test_admission.py", "tests/test_arith.py", "tests/test_recursion.py")),
    Site("plan-depth-budget-refuses-its-own-depth", "drivers.py", "plan",
         "allowed < k", "allowed <= k", ("tests/test_arith.py",)),
    Site("plan-method2-half-the-cancelled-bits", "drivers.py", "plan",
         "4 * cancelled.bit_length()", "2 * cancelled.bit_length()",
         ("tests/test_admission.py", "tests/test_cli.py")),
    Site("exact-ratio-reads-a-stored-pi", "drivers.py", "apply",
         "value.mul_fraction(self.rational)",
         "value.mul_fraction(self.rational) + pi_fixed(value.scale_bits) * 0",
         ("tests/test_drivers.py",)),
    Site("flag-table-keeps-a-value-outside-its-choices", "cli.py", "_parse_table",
         "value not in keywords.get('choices', [value])", "False", ("tests/test_cli.py",)),
    Site("step-clamp-without-its-slack", "recursion.py", "_clamped_unit",
         "one + _UNIT_SLACK", "one", ("tests/test_recursion.py",)),
    Site("identity-passes-a-residual-at-its-bound", "analysis.py", "_within",
         "residual < bound", "residual <= bound", ("tests/test_cli.py",)),
    Site("verify-f-tends-to-2-strictly", "analysis.py", "verify_identities",
         "gap * b <= a * f.mantissa + (0 if m == 2 else b << 8)",
         "gap * b < a * f.mantissa + (0 if m == 2 else b << 8)",
         ("tests/test_analysis.py", "tests/test_cli.py")),
    Site("pi-reference-one-guard-bit-short", "arith.py", "_pi_mantissa",
         "bits + 32", "bits + 31", ("tests/test_arith.py", "tests/test_drivers.py")),
    Site("pi-reference-without-its-two-spare-terms", "arith.py", "_pi_mantissa",
         "w // 47 + 2", "w // 47", ("tests/test_arith.py",)),
    Site("rational-literal-refuses-exactly-the-bound", "arith.py", "_rational_literal",
         "size > bound", "size >= bound", ("tests/test_arith.py", "tests/test_cli.py")),
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
    which must occur exactly once in the site's function (or in the module's
    top-level statements other than definitions)."""
    tree = ast.parse(source)
    if site.function == "<module>":
        scopes = [node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    else:
        scopes = [node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == site.function]
    swap = _Swap(site.original, site.mutant)
    for scope in scopes:
        swap.visit(scope)
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
