"""Command-line contract: subcommands, exit codes, output shapes, determinism."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radpi.cli import _terminal_columns, build_parser, run_command


def run(capsys, *argv):
    code = run_command(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_method1_prints_value_error_digits(self, capsys):
        code, out, err = run(
            capsys, "compute", "--method", "method1", "--m", "2", "--s", "2",
            "--sign", "+", "--k", "20", "--bits", "128",
        )
        assert code == 0
        assert "3.14159265358" in out
        assert "abs_error" in out or "index" in out
        assert err == ""

    def test_sign_flag_space_separated(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--method", "method1", "--m", "2", "--s", "3",
            "--sign", "-", "--k", "4",
        )
        assert code == 0
        assert out.splitlines()[-1].split()[1].startswith("3.1275930891")

    def test_as_printed_emits_misprint_on_stderr(self, capsys):
        code, out, err = run(
            capsys, "compute", "--method", "method2", "--variant", "as-printed",
            "--m", "10000", "--d", "1",
        )
        assert code == 0
        assert "MISPRINT" in err
        assert "0.00044428829" in out

    def test_unity(self, capsys):
        code, out, _ = run(capsys, "compute", "--method", "unity", "--x0", "0", "--k", "1")
        assert code == 0
        assert "0.9003163161" in out

    def test_taylor(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--method", "taylor", "--m", "5", "--d", "3", "--terms", "40"
        )
        assert code == 0
        assert "0.79999999" in out or "0.8000000" in out

    def test_x0_forces_self_ratio(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--method", "method1", "--x0", "0.8", "--k", "6",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["meta"]["params"]["ratio_mode"] == "self"


class TestExitCodes:
    def test_unknown_flag_is_64(self, capsys):
        code, _, err = run(capsys, "compute", "--method", "method1", "--frobnicate")
        assert code == 64
        assert "usage" in err.lower() or "error" in err.lower()

    def test_unknown_subcommand_is_64(self, capsys):
        code, _, _ = run(capsys, "transmogrify")
        assert code == 64

    def test_domain_error_is_2(self, capsys):
        code, _, err = run(
            capsys, "compute", "--method", "method1", "--m", "2", "--s", "5", "--k", "3"
        )
        assert code == 2
        assert "error" in err

    def test_catalog_miss_is_2(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--method", "method1", "--m", "5", "--s", "16",
            "--k", "3", "--ratio-mode", "exact",
        )
        assert code == 2

    def test_precision_budget_is_3(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--method", "method1", "--m", "2", "--s", "2",
            "--k", "20", "--guard-bits", "70",
        )
        assert code == 3

    def test_missing_seed_is_64(self, capsys):
        code, _, _ = run(capsys, "compute", "--method", "method1", "--k", "3")
        assert code == 64

    @pytest.mark.parametrize("x0", ["nan", "inf", "abc"])
    def test_malformed_x0_is_64(self, capsys, x0):
        code, out, err = run(capsys, "arccos", "--x0", x0)
        assert (code, out) == (64, "")
        assert f"argument --x0: not a rational number: '{x0}'" in err

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_audit_depth_below_one_is_64(self, capsys, k):
        code, out, err = run(capsys, "audit", "--k", k)
        assert (code, out) == (64, "")
        assert err == "radpi: usage error: --k must be >= 1\n"

    @pytest.mark.parametrize("variant", ["corrected", "as-printed"])
    def test_table_method1_rejects_method2_variants(self, capsys, variant):
        code, out, err = run(
            capsys, "table", "--method", "method1", "--m", "2", "--s", "2",
            "--k-range", "1:2", "--variant", variant,
        )
        assert (code, out) == (64, "")
        assert err == "radpi: usage error: method1 variants are stable|naive\n"

    def test_guard_budget_under_64_bits_allows_depth_0(self, capsys):
        code, out, err = run(
            capsys, "compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "5",
            "--guard-bits", "40",
        )
        assert (code, out) == (3, "")
        assert err == (
            "radpi: error: depth 5 exceeds precision budget (guard_bits=40 allows 0)\n"
        )

    def test_internal_error_is_70_without_traceback(self, capsys, monkeypatch):
        def broken(ctx):
            raise RuntimeError("identity suite broke")

        monkeypatch.setattr("radpi.cli.verify_identities", broken)
        code, out, err = run(capsys, "verify")
        assert (code, out) == (70, "")
        assert err == "radpi: internal error: RuntimeError: identity suite broke\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "4",
          "--variant", "as-printed"], "--variant"),
        (["compute", "--method", "unity", "--x0", "0.3", "--k", "4", "--variant", "stable"],
         "--variant"),
        (["table", "--method", "viete", "--k-range", "1:3", "--variant", "naive"], "--variant"),
        (["compute", "--method", "method2", "--m", "50", "--d", "1", "--ratio-mode", "exact"],
         "--ratio-mode"),
        (["table", "--method", "combined", "--m", "50", "--d", "1", "--k-range", "1:3",
          "--ratio-mode", "auto"], "--ratio-mode"),
        (["compute", "--method", "unity", "--x0", "0.3", "--k", "4", "--ratio-mode", "self"],
         "--ratio-mode"),
        (["compute", "--method", "combined", "--m", "50", "--s", "2499", "--d", "1", "--k", "4"],
         "--s"),
        (["table", "--method", "method1", "--m", "2", "--s", "2", "--k-range", "1:3",
          "--m-range", "10"], "--m-range"),
        (["table", "--method", "combined", "--m", "50", "--k-range", "1:3", "--m-range", "10"],
         "--m-range"),
        (["table", "--method", "unity", "--x0", "0", "--k-range", "1:3", "--m-range", "10"],
         "--m-range"),
        (["table", "--method", "viete", "--k-range", "1:3", "--m-range", "10"], "--m-range"),
        (["compute", "--method", "viete", "--k", "3", "--m", "7", "--s", "2"], "--m"),
        (["compute", "--method", "viete", "--k", "3", "--ratio-mode", "exact"], "--ratio-mode"),
        (["table", "--method", "viete", "--k-range", "1:3", "--x0", "0.3"], "--x0"),
        (["compute", "--method", "method2", "--m", "50", "--d", "1", "--k", "9"], "--k"),
        (["compute", "--method", "method2", "--m", "50", "--d", "1", "--x0", "0.3"], "--x0"),
        (["compute", "--method", "method2", "--m", "50", "--d", "1", "--s", "3"], "--s"),
        (["compute", "--method", "method2", "--m", "50", "--d", "1", "--sign", "-"], "--sign"),
        (["compute", "--method", "taylor", "--m", "5", "--d", "3", "--terms", "4",
          "--variant", "naive"], "--variant"),
        (["compute", "--method", "taylor", "--m", "5", "--d", "3", "--terms", "4", "--k", "2"],
         "--k"),
        (["compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "4",
          "--sign", "+"], "--sign"),
        (["compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "4",
          "--x0", "0.3"], "--x0"),
        (["table", "--method", "method2", "--m-range", "10,100", "--k-range", "1:3"],
         "--k-range"),
        (["table", "--method", "method2", "--m-range", "10,100", "--m", "7"], "--m"),
        (["compute", "--method", "method1", "--k", "3", "--terms", "4", "--m", "2", "--s", "2"],
         "--terms"),
        (["compute", "--method", "method1", "--x0", "0.3", "--k", "3", "--m", "2"], "--m"),
        (["compute", "--method", "method1", "--x0", "0.3", "--k", "3", "--s", "2"], "--s"),
        (["table", "--method", "unity", "--x0", "0.3", "--k-range", "1:3", "--d", "1"], "--d"),
        (["table", "--method", "method1", "--x0", "0.3", "--k-range", "1:3", "--sign", "-"],
         "--sign"),
    ])
    def test_flag_the_method_never_reads_is_64(self, capsys, argv, flag):
        assert run(capsys, *argv) == (
            64, "", f"radpi: usage error: {argv[2]} does not read {flag}\n"
        )

    def test_sign_is_unset_by_default_and_read_as_plus(self, capsys):
        argv = ["compute", "--method", "method1", "--m", "2", "--s", "3", "--k", "5"]
        assert build_parser().parse_args(argv).sign is None
        assert run(capsys, *argv) == run(capsys, *argv, "--sign", "+")
        assert run(capsys, *argv)[1] != run(capsys, *argv, "--sign", "-")[1]

    def test_unwritable_out_is_74(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "compute", "--method", "viete", "--k", "2",
            "--out", str(tmp_path / "missing" / "report.csv"),
        )
        assert code == 74


class TestRenderShapes:
    def test_csv_one_row_is_two_lines(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--method", "viete", "--k", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0] == "index,approximant,abs_error,correct_digits,error_ratio"
        assert out.endswith("\n")

    def test_csv_table_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "table", "--method", "method1", "--m", "2", "--s", "2",
            "--k-range", "1:3", "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[4] == ""  # no ratio on the first row
        assert lines[2].split(",")[4] != ""

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "table", "--method", "method1", "--m", "2", "--s", "2",
            "--k-range", "2:4", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"meta", "rows"}
        assert len(payload["rows"]) == 3
        for row in payload["rows"]:
            assert set(row) == {"index", "approximant", "abs_error", "correct_digits", "error_ratio"}
        assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == out

    def test_determinism(self, capsys):
        argv = ["table", "--method", "method2", "--m-range", "100,1000", "--d", "1",
                "--format", "csv"]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, code2) == (0, 0)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run(
            capsys, "compute", "--method", "viete", "--k", "2", "--format", "csv",
            "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("index,")

    def test_no_exponent_notation_in_output(self, capsys):
        _, out, _ = run(
            capsys, "table", "--method", "method1", "--m", "2", "--s", "2",
            "--k-range", "18:20", "--format", "csv",
        )
        body = "\n".join(line for line in out.splitlines()[1:])
        assert "e-" not in body and "E-" not in body


class TestSubcommands:
    def test_arccos_x0(self, capsys):
        code, out, _ = run(capsys, "arccos", "--x0", "0.8", "--bits", "128")
        assert code == 0
        assert "0.6435011087932843868" in out

    def test_arccos_negative_one(self, capsys):
        code, out, _ = run(capsys, "arccos", "--m", "1", "--s", "1", "--sign", "-")
        assert code == 0
        assert "3.14159265358979323846" in out

    def test_reproduce_prints_four_pass_lines(self, capsys):
        code, out, _ = run(capsys, "reproduce")
        assert code == 0
        assert sum(1 for line in out.splitlines() if line.startswith("PASS")) == 4

    def test_verify_passes(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_verify_passes_at_1024_bits(self, capsys):
        code, out, err = run(capsys, "verify", "--bits", "1024")
        assert (code, err) == (0, "")
        assert sum(line.startswith("PASS ") for line in out.splitlines()) == 7

    def test_verify_256_bits_output_is_unchanged(self, capsys):
        assert run(capsys, "verify", "--bits", "256") == (0, VERIFY_256_TEXT, "")

    def test_audit_shape(self, capsys):
        code, out, _ = run(
            capsys, "audit", "--k", "6", "--audited-bits", "53", "--bits", "256",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,naive_error,stable_error,digits_lost"
        assert len(lines) == 7

    def test_table_m_range_as_printed(self, capsys):
        code, out, _ = run(
            capsys, "table", "--method", "method2", "--variant", "as-printed",
            "--m-range", "1000,10000", "--format", "csv",
        )
        assert code == 0
        last = out.splitlines()[-1].split(",")
        assert float(last[1]) < 0.2  # nowhere near pi


VERIFY_256_TEXT = """\
# bits = 256
# working_bits = 360
PASS scale identity f(k+1)^2 = 2 f(k) (exact exponents, k in [2,64], m in {2,3,5,10})  [0]
PASS pythagorean x^2 + c^2 = 1 within 2^(-B+k+6)  [4 units at 360 bits]
PASS normalization x * f = g within 2^(-B+k+6)  [3 units at 360 bits]
PASS literal radical = stable recursion within 2^(-B+2k+8)  [worst gap < 2^0 units at 256 bits]
PASS product form = matched recursion form within 2^(-B+8)  [0 units at 256 bits]
PASS doubled sines strictly increase and stay below theta0  [-]
PASS scale factor tends to 2: |f(k) - 2| <= |ln(m/2)|/2^(k-2) * f(k), exact 2 at m=2  [-]
"""


MATRIX = [
    ["compute", "--method", "method1", "--m", "2", "--s", "2", "--k", "6"],
    ["compute", "--method", "method1", "--m", "2", "--s", "2", "--k", "6", "--variant", "naive"],
    ["compute", "--method", "method2", "--m", "50", "--d", "1"],
    ["compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "4"],
    ["compute", "--method", "unity", "--m", "5", "--d", "3", "--k", "6"],
    ["compute", "--method", "viete", "--k", "6"],
    ["compute", "--method", "taylor", "--m", "5", "--d", "3", "--terms", "12"],
    ["table", "--method", "method1", "--m", "2", "--s", "3", "--sign", "-", "--k-range", "1:4"],
    ["table", "--method", "unity", "--x0", "0", "--k-range", "1:3"],
    ["table", "--method", "viete", "--k-range", "1:4"],
    ["table", "--method", "combined", "--m", "64", "--k-range", "2:4"],
    ["table", "--method", "method2", "--m-range", "100,1000"],
    ["arccos", "--x0", "0.25"],
    ["arccos", "--m", "2", "--s", "2"],
    ["audit", "--k", "5"],
    ["reproduce"],
    ["verify"],
]


@pytest.mark.parametrize("argv", MATRIX, ids=[" ".join(a) for a in MATRIX])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_every_subcommand_in_every_format(argv, fmt, capsys):
    code = run_command(argv + ["--format", fmt])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out
    if fmt == "json":
        payload = json.loads(captured.out)
        assert "rows" in payload


def test_empty_report_renders_header_only_csv():
    from radpi.analysis import ConvergenceReport
    from radpi.cli import render_report

    empty = ConvergenceReport(rows=[], meta={"method": "method1", "bits": 128})
    assert render_report(empty, "csv") == "index,approximant,abs_error,correct_digits,error_ratio\n"


def test_help_exits_zero(capsys):
    assert run_command(["--help"]) == 0
    capsys.readouterr()


ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
GOLDEN_CASES = [entry for entry in GOLDEN if entry["stdout"] is not None]


@pytest.mark.parametrize("entry", GOLDEN_CASES, ids=[" ".join(e["argv"]) for e in GOLDEN_CASES])
def test_golden_stdout_is_byte_identical(entry, capsys):
    code = run_command(entry["argv"])
    assert (code, capsys.readouterr().out) == (0, entry["stdout"])


# Every MATRIX argv in every format, plus the self-consistent audit, a
# cataloged method2 seed, the as-printed MISPRINT diagnostic, and `verify` and
# `reproduce` at 512 and 1024 bits in every format: exit code, stdout and
# stderr as the CLI printed them before its row, ratio and driver paths were
# merged into analysis/drivers, and before the scale factors came from one
# running chain. The text and json entries of `method2 --m 2 --d 1` were
# re-recorded when method2 took the cataloged ratio 12 for that seed; only
# their `ratio_kind` changed, from self_consistent to exact. The error paths
# of `compute` and `table` follow: missing required flags, bad variants, bad
# sweeps, a catalog miss, a guard budget too small, and an unwritable --out.
# Two of them were re-recorded when compute and table began to share one
# method resolver and the guard budget stopped printing a negative depth:
# `table --method method1 --variant corrected|as-printed` now says `method1
# variants are stable|naive` (it said `unknown variant '...'`), and `--k 30
# --guard-bits 40` says `allows 0` (it said `allows -12`); the exit codes
# stayed 64 and 3.
CLI_MATRIX = json.loads((ROOT / "tests" / "data" / "cli_matrix.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", CLI_MATRIX, ids=[" ".join(e["argv"]) for e in CLI_MATRIX])
def test_cli_matrix_bytes_are_pinned(entry, capsys):
    code = run_command(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["code"], entry["stdout"], entry["stderr"])


# Help and usage texts at terminal widths 40, 80 and 200: top-level and
# per-subcommand --help, a bare or unknown subcommand, an unknown flag on each
# subcommand, a bad typed value and a missing --method. Recorded while
# `run_command` still built all six subparsers for every request.
CLI_USAGE = json.loads((ROOT / "tests" / "data" / "cli_usage.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", CLI_USAGE,
                         ids=[f"{' '.join(e['argv'])} @{e['columns']}" for e in CLI_USAGE])
def test_help_and_usage_bytes_are_pinned(entry, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", str(entry["columns"]))
    code = run_command(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (entry["code"], entry["stdout"], entry["stderr"])


# Run in a fresh interpreter: the modules that `import argparse, fractions`
# already loads are the floor; a text request and a usage error must add none
# of the listed ones.
_FOOTPRINT_PROBE = """
import sys
import argparse, fractions
floor = set(sys.modules)
from radpi.cli import run_command
run_command(["compute", "--method", "method1", "--m", "2", "--s", "2", "--k", "20"])
run_command(["compute", "--method", "method1", "--frobnicate"])
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "json",
         "shutil", "bz2", "lzma", "zlib", "fnmatch")
print(sorted(name for name in heavy if name in sys.modules and name not in floor))
"""


def test_text_request_imports_no_heavy_stdlib_modules():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT_PROBE],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("columns", [None, "", "0", "-3", "x", "40", "200"])
@pytest.mark.parametrize("terminal", [None, 0, 123])
def test_terminal_columns_follow_shutil(columns, terminal, monkeypatch, tmp_path):
    """The help width is read by shutil.get_terminal_size's rule, with stdout
    a file (not a terminal) or a terminal of 0 or 123 columns."""
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    if terminal is not None:
        monkeypatch.setattr(os, "get_terminal_size", lambda fd: os.terminal_size((terminal, 24)))
    with open(tmp_path / "stdout", "w") as stdout:
        monkeypatch.setattr(sys, "__stdout__", stdout)
        assert _terminal_columns() == shutil.get_terminal_size().columns


def test_one_subcommand_parser_holds_only_that_subcommand():
    def choices(parser):
        return list(parser._subparsers._group_actions[0].choices)

    assert choices(build_parser()) == ["compute", "table", "arccos", "audit", "reproduce",
                                       "verify"]
    assert choices(build_parser("arccos")) == ["arccos"]


# Bad input of every kind ends in a documented exit code, never in 70 (an
# internal error) or a traceback. Each subcommand draws from its own flags
# plus one it does not have; values stay small so that each run is cheap.
_FLAG_VALUES = {
    "--method": ["method1", "method2", "combined", "unity", "viete", "taylor", "pi"],
    "--variant": ["stable", "naive", "corrected", "as-printed", "x"],
    "--ratio-mode": ["auto", "exact", "self", "x"],
    "--k": ["-1", "0", "1", "3", "12", "x"],
    "--terms": ["-1", "0", "1", "5", "x"],
    "--m": ["-3", "0", "1", "2", "5", "3/2", "1/0", "x"],
    "--s": ["-1", "0", "1", "2", "3", "25", "1/3"],
    "--d": ["-1", "0", "1", "3", "7"],
    "--sign": ["+", "-", "*"],
    "--x0": ["0", "0.3", "-0.5", "1", "-1", "1.5", "1e-3", "nan", "inf"],
    "--k-range": ["1:3", "0:2", "3:1", "2", "a:b"],
    "--m-range": ["10,100", "", ",", "x", "0,5", "-3"],
    "--audited-bits": ["-2", "0", "8", "53"],
    "--bits": ["0", "16", "64", "128", "256", "x"],
    "--guard-bits": ["-1", "0", "40", "64", "200"],
    "--format": ["text", "csv", "json", "xml"],
    "--out": [os.devnull, os.path.join(os.devnull, "missing")],
    "--digits": ["5"],
}
_SEED_FLAGS = ("--m", "--s", "--d", "--sign", "--x0")
_COMMON_FLAGS = ("--bits", "--guard-bits", "--format", "--out", "--digits")
_SUBCOMMAND_FLAGS = {
    "compute": ("--variant", "--ratio-mode", "--k", "--terms", *_SEED_FLAGS, *_COMMON_FLAGS),
    "table": ("--variant", "--ratio-mode", "--k-range", "--m-range", *_SEED_FLAGS,
              *_COMMON_FLAGS),
    "arccos": (*_SEED_FLAGS, *_COMMON_FLAGS),
    "audit": ("--k", "--audited-bits", *_SEED_FLAGS, *_COMMON_FLAGS),
    "reproduce": _COMMON_FLAGS,
    "verify": _COMMON_FLAGS,
    "bogus": _COMMON_FLAGS,
}


def _flag(name: str):
    return st.sampled_from(_FLAG_VALUES[name]).map(lambda value: [name, value])


def _request(subcommand: str):
    method = _flag("--method") if subcommand in ("compute", "table") else st.just([])
    flags = st.lists(st.sampled_from(_SUBCOMMAND_FLAGS[subcommand]).flatmap(_flag), max_size=5)
    return st.tuples(method, flags).map(
        lambda drawn: [subcommand, *drawn[0], *(token for pair in drawn[1] for token in pair)]
    )


_ARGV = st.sampled_from(sorted(_SUBCOMMAND_FLAGS)).flatmap(_request)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
def test_any_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    assert code in (0, 1, 2, 3, 64, 74), err.getvalue()
    assert "Traceback" not in err.getvalue()
