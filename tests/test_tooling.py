"""Names that code outside the package binds: the benchmark tracer, its
microbenchmarks and the experiment scripts. Renaming or folding away any of
them breaks only those tools, so they are checked here. Also the rules on the
package's own code: no definition, dunder or statement that nothing reaches."""

import ast
import contextlib
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import radpi
from radpi.arith import FixedReal
from radpi.cli import run_command

ROOT = Path(__file__).resolve().parent.parent


def _namespace(path: Path) -> dict:
    # exec the source rather than import it, so nothing is written next to it
    namespace: dict = {"__name__": path.stem, "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    return namespace


TRACING = _namespace(ROOT / "perfbench" / "tracing.py")
MUTANTS = _namespace(ROOT / "scripts" / "mutants.py")


@pytest.mark.parametrize(
    "home,attr", [(home, attr) for _, home, attr, _ in TRACING["_MODULE_TARGETS"]]
)
def test_tracer_module_targets_resolve(home, attr):
    assert callable(getattr(importlib.import_module(home), attr))


@pytest.mark.parametrize("attr", [attr for _, attr in TRACING["_METHOD_TARGETS"]])
def test_tracer_method_targets_are_fixedreal_methods(attr):
    assert callable(FixedReal.__dict__[attr])


def test_tracer_sees_every_engine_step_under_its_caller():
    # the doubled-sine loop is shared, so the tracer's step counts per caller
    # rest on each half_angle_step span having the traced caller as its parent
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        x0 = FixedReal.from_fraction(radpi.arith.Rational(3, 10), 128)
        radpi.arccos_by_recursion(x0, radpi.PrecisionContext(128))
        radpi.recursion.run_at_scale(radpi.Seed(2, 3, -1), 17, 96, "stable")
        radpi.recursion.run_at_scale(radpi.Seed(5, 16, 1), 9, 96, "naive")
    finally:
        tracer.uninstall()
    spans = list(tracer.spans())
    steps: dict[int, int] = {}
    for name, _, _, parent, *_ in spans:
        if name == "recursion.half_angle_step":
            assert spans[parent][0] in ("drivers.arccos", "recursion.run_at_scale")
            steps[parent] = steps.get(parent, 0) + 1
    callers = [(spans[i][0], n) for i, n in sorted(steps.items())]
    assert [name for name, _ in callers] == ["drivers.arccos", "recursion.run_at_scale",
                                            "recursion.run_at_scale"]
    # the arccos runs its plan's count: at 128 bits floor(sqrt(128)) = 11 steps
    assert callers[0][1] == radpi.drivers.plan("arccos", radpi.PrecisionContext(128),
                                               x0=x0).steps == 11
    assert [n for _, n in callers[1:]] == [17, 9]


def test_only_rational_defines_its_own_equality():
    # every other record compares field by field in Record, and none hashes;
    # Rational keeps Fraction's ==, across types, and Fraction's hash
    from radpi._record import Record

    records, stack = [], [Record]
    while stack:
        subclasses = stack.pop().__subclasses__()
        records += subclasses
        stack += subclasses
    own = sorted(cls.__name__ for cls in records if cls.__module__.startswith("radpi.")
                 and {"__eq__", "__hash__"} & cls.__dict__.keys())
    assert {"FixedReal", "PowerForm", "Seed"} <= {cls.__name__ for cls in records}
    assert own == ["Rational"]


@pytest.mark.parametrize("site", MUTANTS["SITES"], ids=lambda site: site.name)
def test_every_mutant_site_occurs_once_in_its_function(site):
    # scripts/mutants.py errors on a site that a refactor moved; catch that here
    source = (ROOT / "src" / "radpi" / site.module).read_text(encoding="utf-8")
    mutated = MUTANTS["mutate"](source, site)  # LookupError unless it occurs once
    assert mutated != ast.unparse(ast.parse(source))
    assert all((ROOT / test).is_file() for test in site.tests)


def test_every_public_name_resolves():
    assert [name for name in radpi.__all__ if not hasattr(radpi, name)] == []


def test_microbenchmark_bindings_resolve():
    assert callable(radpi.recursion.run_at_scale)
    assert callable(radpi.arith._pi_mantissa.__wrapped__)


@pytest.mark.parametrize("script", ["compare_methods.py", "cancellation_demo.py"])
def test_experiment_script_runs(script):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_experiment_scripts_forward_their_arguments():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    demo = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "cancellation_demo.py"), "--k", "3",
         "--format", "csv"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert (demo.returncode, demo.stderr) == (0, "")
    assert demo.stdout.splitlines()[0] == "k,naive_error,stable_error,digits_lost"
    assert len(demo.stdout.splitlines()) == 4
    compare = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_methods.py"), "--bits", "32"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert compare.returncode == 64
    assert compare.stdout == "== deepening the recursion (seed m=2, s=2, +) ==\n"
    assert compare.stderr == "radpi: usage error: scale_bits must be >= 64\n"


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "radpi").glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_only_the_stdlib_and_itself(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:  # not an import, or a relative import of radpi's own modules
            continue
        foreign += [name for name in names
                    if name.partition(".")[0] not in sys.stdlib_module_names]
    assert foreign == []


def test_no_function_assigns_a_local_it_never_reads():
    # a name that a function (or a closure in it) stores but never loads is
    # dead work; "_" is the one name stored to be dropped
    unread = set()
    for path in sorted((ROOT / "src" / "radpi").glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names = [node for node in ast.walk(func) if isinstance(node, ast.Name)]
            read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
            unread |= {f"{path.name}:{node.lineno} {node.id}" for node in names
                       if isinstance(node.ctx, ast.Store) and node.id not in read | {"_"}}
    assert sorted(unread) == []


def _definitions(node: ast.AST, prefix: str):
    # (qualified name, node) of every function, method and class under node
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}.{child.name}", child
            yield from _definitions(child, f"{prefix}.{child.name}")
        else:
            yield from _definitions(child, prefix)


def test_every_definition_is_reached_from_the_package():
    # a definition that nothing in the package names outside its own body is
    # test-only code, unless it is public; argparse calls _Parser.error itself,
    # and operator dunders are called by syntax, not by name
    hooks = {"cli.build_parser._Parser.error"}
    definitions, references = [], {}
    for path in sorted((ROOT / "src" / "radpi").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [(path, qualname, node) for qualname, node in _definitions(tree, path.stem)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                references.setdefault(name, []).append((path, node.lineno))
    unreached = [
        qualname for path, qualname, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in radpi.__all__ and qualname not in hooks
        and all(where == path and node.lineno <= line <= node.end_lineno
                for where, line in references.get(node.name, []))
    ]
    assert unreached == []


# Every dunder a class in the package defines, with a line that uses it: such a
# method is called by syntax or by Python, not by name, so the rule above cannot
# trace it. A dunder with no such line is test-only code; delete it instead.
_DUNDERS = {
    "_record.Record.__init__": ("src/radpi/drivers.py",
                                "return Plan(work, steps, bit_steps, 4 * work)"),
    "_record.Record.__eq__": ("src/radpi/analysis.py",
                              "scale_ok = all(nxt.squared() == form.times_two()"),
    # the two guards: rescale hands back the record itself, safe since no field changes
    "_record.Record.__setattr__": ("src/radpi/arith.py", "return self"),
    "_record.Record.__delattr__": ("src/radpi/arith.py", "return self"),
    "arith.Rational.__init__": ("src/radpi/drivers.py",
                                'm, d = Rational(params["m"]), Rational(params["d"])'),
    "arith.Rational.__add__": ("src/radpi/drivers.py", "total += coeff * power"),
    "arith.Rational.__sub__": ("src/radpi/recursion.py", "s = m**2 - d**2"),
    "arith.Rational.__rsub__": ("src/radpi/recursion.py",
                                "return FixedReal.from_fraction(1 - self.x0_squared, "
                                "scale_bits).sqrt()"),
    "arith.Rational.__mul__": ("src/radpi/analysis.py",
                               "return self.factor * Rational(2) ** (n + self.shift)"),
    "arith.Rational.__truediv__": ("src/radpi/recursion.py",
                                   'set_field(self, "x0_squared", s / m**2)'),
    "arith.Rational.__rtruediv__": ("src/radpi/analysis.py",
                                    "return pi_fixed(scale_bits).mul_fraction("
                                    "2 / exact_ratio_lookup(seed))"),
    "arith.Rational.__eq__": ("src/radpi/recursion.py", "if s == m**2 and sign > 0:"),
    "arith.Rational.__lt__": ("src/radpi/recursion.py", "if s < 0:"),
    "arith.Rational.__le__": ("src/radpi/recursion.py", "if m <= 0:"),
    "arith.Rational.__gt__": ("src/radpi/recursion.py", "if s > m**2:"),
    "arith.Rational.__ge__": ("src/radpi/drivers.py", "if u >= 1:"),
    "arith.Rational.__neg__": ("src/radpi/drivers.py", "power *= -u"),
    "arith.Rational.__pow__": ("src/radpi/recursion.py", "s = m**2 - d**2"),
    "arith.Rational.__hash__": ("src/radpi/drivers.py",
                                "return _EXACT_RATIOS.get((seed.x0_squared, seed.sign))"),
    "arith.Rational.__str__": ("src/radpi/analysis.py", '"tolerance": str(_CATALOG_TOLERANCE),'),
    "arith.FixedReal.__init__": ("src/radpi/recursion.py",
                                 "return FixedReal(((1 << bits) + _clamped_unit(x_prev)) >> 1, "
                                 "bits).sqrt()"),
    "arith.FixedReal.__add__": ("src/radpi/analysis.py", "t = (two + t).sqrt()"),
    "arith.FixedReal.__sub__": ("src/radpi/analysis.py", "gap = abs(f - two).mantissa"),
    "arith.FixedReal.__neg__": ("src/radpi/recursion.py", "return -root if self.sign < 0 else root"),
    "arith.FixedReal.__abs__": ("src/radpi/analysis.py", "gap = abs(f - two).mantissa"),
    "arith.FixedReal.__mul__": ("src/radpi/drivers.py",
                                "return value * self.fixed.rescale(value.scale_bits)"),
    # no line of the package multiplies an int by a FixedReal; the benchmark's tracer binds it
    "arith.FixedReal.__rmul__": ("perfbench/tracing.py", '("arith.mul", "__rmul__"),'),
    "arith.FixedReal.__truediv__": ("src/radpi/recursion.py", "scaled = scaled / x"),
    "arith.FixedReal.__lt__": ("src/radpi/analysis.py", "if not err < tol_fixed:"),
    "arith.FixedReal.__gt__": ("src/radpi/arith.py", "while abs(t) > small:"),
    "arith.PrecisionContext.__init__": ("src/radpi/cli.py",
                                        "ctx = PrecisionContext(args.bits, args.guard_bits)"),
    "recursion.PowerForm.__init__": ("src/radpi/recursion.py",
                                     "return PowerForm((1 << e) - 1, 1, e, _positive(m))"),
    "recursion.Seed.__init__": ("src/radpi/cli.py", "return Seed(args.m, args.s, sign)"),
}


def test_every_dunder_is_listed_with_a_line_that_uses_it():
    defined = []
    for path in sorted((ROOT / "src" / "radpi").glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for node in cls.body if isinstance(cls, ast.ClassDef) else ():
                targets = node.targets if isinstance(node, ast.Assign) else []
                names = ([node.name] if isinstance(node, ast.FunctionDef) else
                         [n.id for target in targets for n in ast.walk(target)
                          if isinstance(n, ast.Name)])
                defined += [f"{path.stem}.{cls.name}.{name}" for name in names
                            if name.startswith("__") and name.endswith("__")
                            and name != "__slots__"]
    assert sorted(defined) == sorted(_DUNDERS)
    unused = [name for name, (path, line) in _DUNDERS.items() if line not in
              {text.strip() for text in (ROOT / path).read_text(encoding="utf-8").splitlines()}]
    assert unused == []


def _unrun(body: list, ran: set[int], out: list) -> bool:
    """Appends to ``out`` each statement of a function body, and of the blocks
    nested in it, that did not run by the lines in ``ran``; returns whether any
    statement of ``body`` ran. A simple statement ran if any of its lines did; a
    compound one if a line of its header did, or a statement of its body,
    whatever line events its header makes on a given Python. A nested function
    or class is walked as a definition of its own; a docstring is no statement,
    nor is an except clause."""
    any_ran = False
    for node in body:
        inner = getattr(node, "body", None)
        blocks = [] if inner is None or isinstance(node, (ast.FunctionDef, ast.ClassDef)) else [
            *inner, *(s for handler in getattr(node, "handlers", ()) for s in handler.body),
            *getattr(node, "orelse", ()), *getattr(node, "finalbody", ())]
        last = node.end_lineno if inner is None else max(inner[0].lineno - 1, node.lineno)
        hit = _unrun(blocks, ran, out) | (not ran.isdisjoint(range(node.lineno, last + 1)))
        if not hit:
            out.append(node)
        any_ran |= hit
    return any_ran


def _pinned_argvs() -> list[list[str]]:
    """Every cli_matrix and cli_usage argv, the three reports, and verify at 1024 bits."""
    data = ROOT / "tests" / "data"
    return [entry["argv"] for name in ("cli_matrix.json", "cli_usage.json")
            for entry in json.loads((data / name).read_text(encoding="utf-8"))] + [
        ["verify"], ["reproduce"], ["audit"], ["verify", "--bits", "1024"]]


def _lines_run(argvs: list[list[str]], files: set[str]) -> set[tuple[str, int]]:
    """(file, line) of every line event in ``files`` while ``argvs`` run in process."""
    lines = set()

    def line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    saved = sys.gettrace()  # hypothesis may hold a tracer
    radpi.arith._pi_mantissa.cache_clear()  # a cached pi would skip the series
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename in files else None)
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                run_command(argv)
    finally:
        sys.settrace(saved)
    return lines


# Every statement in a function of src/radpi that the pinned traffic leaves
# unexecuted, other than a raise, keyed by its function and its first line, with
# the test (file, name) that reaches it.
_UNREACHED: dict[tuple[str, str], tuple[str, str]] = {
    # a record compared with another class defers to it
    ("_record.Record.__eq__", "return NotImplemented"):
        ("tests/test_records.py", "test_equality_is_field_wise"),
    # a public function's zero error and errors of 10 or more
    ("analysis.correct_decimal_digits", "return None"):
        ("tests/test_analysis.py", "test_zero_is_none"),
    ("analysis.correct_decimal_digits", "t += 1"): ("tests/test_analysis.py", "test_values"),
    # Fraction's hash of a denominator that is a multiple of the hash prime
    ("arith.Rational.__hash__", "h = sys.hash_info.inf"):
        ("tests/test_arith.py", "test_hash_and_text"),
    # text of over 500 digits, past the pinned requests' 1024 bits
    ("arith._digits", "n, low = divmod(n, _CHUNK_BASE)"):
        ("tests/test_cli.py", "test_an_output_past_4300_digits_prints"),
    ("arith._digits", "chunks.append(str(low).zfill(_CHUNK))"):
        ("tests/test_cli.py", "test_an_output_past_4300_digits_prints"),
    # the message of a refusal
    ("arith._rational_literal", "n = (size.bit_length() - 1) * 30102999 // 10**8"):
        ("tests/test_arith.py", "test_size_past_19_digits_prints_as_a_bound"),
    ("arith._rational_literal", 'shown = size if size < 10**19 else f"more than 10^{n}"'):
        ("tests/test_arith.py", "test_size_past_19_digits_prints_as_a_bound"),
    # the public pi reference, which the tests and the benchmark's checks read
    ("arith.pi_oracle", "return FixedReal(_pi_mantissa(ctx.scale_bits), ctx.scale_bits)"):
        ("tests/test_arith.py", "test_six_hundred_digits_vs_mpmath"),
    ("cli._emit", "handle.write(text)"): ("tests/test_cli.py", "test_out_file"),
    # json.dumps's escapes of non-ASCII text, which no report prints today
    ("cli._json", 'units = memoryview(text.encode("utf-16", "surrogatepass")).cast("H")[1:]'):
        ("tests/test_cli.py", "test_json_writer_is_json_dumps"),
    ("cli._json", 'text = "".join(chr(u) if u < 128 else f"\\\\u{u:04x}" for u in units)'):
        ("tests/test_cli.py", "test_json_writer_is_json_dumps"),
    # runs once, at import, to declare --method in _SUBCOMMANDS
    ("cli._method_flags", "return {"):
        ("tests/test_cli.py", "test_help_and_usage_bytes_are_pinned"),
    # a missing required flag, declined to argparse, which words the error
    ("cli._parse_table", "return None"): ("tests/test_cli.py", "test_table_parse_declines"),
    # the console script and python -m radpi, which run in a process of their own
    ("cli.main", "sys.exit(run_command())"):
        ("tests/test_admission.py", "test_request_over_the_cost_bound_exits_3_at_once"),
    # a defect reported in one line (safety code, like a raise)
    ("cli.run_command",
     'print(f"radpi: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)'):
        ("tests/test_cli.py", "test_internal_error_is_70_without_traceback"),
    ("cli.run_command", "return _EXIT_SOFTWARE"):
        ("tests/test_cli.py", "test_internal_error_is_70_without_traceback"),
    # public PowerForm and scale-factor API: an m that is no power of two, and an
    # m given as neither an int nor a Rational
    ("recursion.PowerForm.exact_log2", "return None"):
        ("tests/test_recursion.py", "test_exponents_and_exact_value"),
    ("recursion._positive", "m = Rational(m)"):
        ("tests/test_recursion.py", "test_scale_identity_exact"),
}


def test_every_statement_runs_for_a_pinned_request_or_is_listed():
    # a statement that no pinned request runs is listed with a test that runs
    # it, or deleted; a refusal's raise is safety code and needs neither
    modules = [importlib.import_module(f"radpi.{path.stem}")
               for path in sorted((ROOT / "src" / "radpi").glob("*.py"))
               if path.stem != "__main__"]  # importing __main__ would run the CLI
    files = {module.__file__: Path(module.__file__) for module in modules}
    lines = _lines_run(_pinned_argvs(), set(files))
    unrun = {}
    for name, path in files.items():
        source = path.read_text(encoding="utf-8")
        ran = {line for where, line in lines if where == name}
        for qualname, func in _definitions(ast.parse(source), path.stem):
            out = []
            if isinstance(func, ast.FunctionDef):
                _unrun(func.body[bool(ast.get_docstring(func)):], ran, out)
            for node in out:
                if not isinstance(node, ast.Raise):
                    key = (qualname, source.splitlines()[node.lineno - 1].strip())
                    unrun[key] = f"{path.name}:{node.lineno} {qualname}: {key[1]}"
    assert unrun.keys() == _UNREACHED.keys(), "\n".join(
        [f"unexecuted: {unrun[key]}" for key in sorted(unrun.keys() - _UNREACHED.keys())]
        + [f"listed but run: {key}" for key in sorted(_UNREACHED.keys() - unrun.keys())])


def test_every_unreached_statement_names_a_test_that_exists():
    tests = {(f"tests/{path.name}", node.name) for path in (ROOT / "tests").glob("test_*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")}
    assert [test for test in _UNREACHED.values() if test not in tests] == []


def test_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
