"""Command-line contract: subcommands, exit codes, output shapes, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import radpi.analysis
from radpi import FixedReal, PowerForm, PrecisionContext, PrecisionError, Seed
from radpi.arith import _pi_mantissa
from radpi.cli import (
    _METHODS,
    _SUBCOMMANDS,
    _X0_REPLACES,
    _cmd_compute,
    _fraction_arg,
    _json,
    _method_request,
    _parse_table,
    build_parser,
    run_command,
)
from radpi.drivers import MISPRINT_DIAGNOSTIC, plan


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

    def test_catalog_miss_names_a_long_seed_in_one_short_line(self, capsys):
        # the error names the seed by a bounded description; the params of a
        # report keep the seed in full
        m = "1" + "0" * 19000
        code, out, err = run(capsys, "compute", "--method", "method1", "--m", m, "--s", "2",
                             "--k", "5", "--ratio-mode", "exact")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert len(err.encode()) < 200
        assert err == ("radpi: error: no exact angle ratio cataloged for seed "
                       "(m=10000000000000000000... (19001 characters), s=2, sign=+)\n")
        code, out, _ = run(capsys, "compute", "--method", "method1", "--m", m, "--s", "2",
                           "--k", "5", "--format", "json")
        assert code == 0
        assert json.loads(out)["meta"]["params"]["seed"] == f"m={m}, s=2, sign=+"

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

    def test_a_long_malformed_rational_is_cut_in_its_error_line(self, capsys):
        code, out, err = run(capsys, "arccos", "--x0", "0/0_" + "0" * 5000)
        assert (code, out) == (64, "")
        assert err.splitlines()[-1] == ("radpi arccos: error: argument --x0: not a rational "
                                        "number: '0/0_0000000000000000'... (5004 characters)")

    # a compute row's index is the m it was built at, as in a table's --m-range
    @pytest.mark.parametrize("m", ["5/2", "2.5"])
    def test_method2_non_integer_m_is_64(self, capsys, m):
        assert run(capsys, "compute", "--method", "method2", "--m", m, "--d", "1") == (
            64, "", "radpi: usage error: method2 requires an integer --m\n"
        )

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_audit_depth_below_one_is_64(self, capsys, k):
        code, out, err = run(capsys, "audit", "--k", k)
        assert (code, out) == (64, "")
        assert err == "radpi: usage error: --k must be >= 1\n"

    # the audit reads only its reference's scale; the depth and seed checks
    # still come first
    @pytest.mark.parametrize("argv, message", [
        (["--k", "5", "--guard-bits", "300"], "audit does not read --guard-bits"),
        (["--k", "5", "--guard-bits", "10"], "audit does not read --guard-bits"),
        (["--x0", "0.3", "--guard-bits", "300"], "audit does not read --guard-bits"),
        (["--k", "0", "--guard-bits", "300"], "--k must be >= 1"),
        (["--m", "5", "--guard-bits", "300"],
         "a seed is required: --m with --s (or --d), or --x0"),
    ])
    def test_audit_guard_bits_is_64(self, capsys, argv, message):
        assert run(capsys, "audit", *argv) == (64, "", f"radpi: usage error: {message}\n")

    # a malformed sweep is a usage error; a combined seed with d = m is a
    # domain error, in compute and in its table alike
    @pytest.mark.parametrize("argv, code, message", [
        (["table", "--method", "viete", "--k-range", "5"], 64,
         "usage error: --k-range must be LO:HI"),
        (["table", "--method", "viete", "--k-range", "a:b"], 64,
         "usage error: --k-range must be LO:HI with integers"),
        (["table", "--method", "method2", "--m-range", "10,x"], 64,
         "usage error: --m-range must be comma-separated integers"),
        (["compute", "--method", "combined", "--m", "2", "--d", "2", "--k", "3"], 2,
         "error: combined method requires d < m"),
        (["table", "--method", "combined", "--m", "2", "--d", "2", "--k-range", "3:3"], 2,
         "error: combined method requires d < m"),
    ])
    def test_malformed_sweep_or_combined_seed(self, capsys, argv, code, message):
        assert run(capsys, *argv) == (code, "", f"radpi: {message}\n")

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

    # a flag declared in the one flag table that no method reads is refused
    # by its declaration alone, from the table parse or from argparse
    @pytest.mark.parametrize("subcommand", ["compute", "table"])
    @pytest.mark.parametrize("method", ["method1", "method2", "combined", "unity", "viete"])
    @pytest.mark.parametrize("digits", [["--digits", "5"], ["--digits=5"]])
    def test_a_declared_flag_no_method_reads_is_64(self, capsys, monkeypatch, subcommand, method,
                                                   digits):
        monkeypatch.setitem(_SUBCOMMANDS[subcommand][1], "--digits", dict(type=int))
        assert run(capsys, subcommand, "--method", method, *digits) == (
            64, "", f"radpi: usage error: {method} does not read --digits\n"
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
        # --x0 forces the self-consistent ratio, so it replaces --ratio-mode too
        (["compute", "--method", "method1", "--x0", "0.5", "--k", "5", "--ratio-mode", "exact"],
         "--ratio-mode"),
        (["table", "--method", "method1", "--x0", "0.5", "--k-range", "1:3",
          "--ratio-mode", "self"], "--ratio-mode"),
    ])
    def test_flag_the_method_never_reads_is_64(self, capsys, argv, flag):
        assert run(capsys, *argv) == (
            64, "", f"radpi: usage error: {argv[2]} does not read {flag}\n"
        )

    # every message of a missing or malformed index, sweep or method flag,
    # each with one argv per flag it names
    @pytest.mark.parametrize("argv, message", [
        (["compute", "--method", "method1", "--m", "2", "--s", "2"], "method1 requires --k"),
        (["compute", "--method", "method1", "--x0", "0.3"], "method1 requires --k"),
        (["compute", "--method", "method2", "--d", "1"], "method2 requires --m and --d"),
        (["compute", "--method", "method2", "--m", "50"], "method2 requires --m and --d"),
        (["compute", "--method", "method2", "--m", "5/2", "--d", "1"],
         "method2 requires an integer --m"),
        (["compute", "--method", "combined", "--d", "1", "--k", "4"],
         "combined requires --m, --d and --k"),
        (["compute", "--method", "combined", "--m", "50", "--k", "4"],
         "combined requires --m, --d and --k"),
        (["compute", "--method", "combined", "--m", "50", "--d", "1"],
         "combined requires --m, --d and --k"),
        (["compute", "--method", "unity", "--x0", "0.3"], "unity requires --k"),
        (["compute", "--method", "viete"], "viete requires --k"),
        (["compute", "--method", "taylor", "--d", "3", "--terms", "4"],
         "taylor requires --m, --d and --terms"),
        (["compute", "--method", "taylor", "--m", "5", "--terms", "4"],
         "taylor requires --m, --d and --terms"),
        (["compute", "--method", "taylor", "--m", "5", "--d", "3"],
         "taylor requires --m, --d and --terms"),
        (["table", "--method", "combined", "--d", "1", "--k-range", "1:3"],
         "combined tables require --m"),
        (["table", "--method", "method1", "--m", "2", "--s", "2"],
         "this method sweeps --k-range"),
        (["table", "--method", "unity", "--x0", "0.3"], "this method sweeps --k-range"),
        (["table", "--method", "viete"], "this method sweeps --k-range"),
        (["table", "--method", "combined", "--m", "50"], "this method sweeps --k-range"),
        (["table", "--method", "method2", "--d", "1"], "method2 tables sweep --m-range"),
    ])
    def test_missing_method_flag_is_64(self, capsys, argv, message):
        assert run(capsys, *argv) == (64, "", f"radpi: usage error: {message}\n")

    def test_sign_is_unset_by_default_and_read_as_plus(self, capsys):
        argv = ["compute", "--method", "method1", "--m", "2", "--s", "3", "--k", "5"]
        assert build_parser().parse_args(argv).sign is None
        assert run(capsys, *argv) == run(capsys, *argv, "--sign", "+")
        assert run(capsys, *argv)[1] != run(capsys, *argv, "--sign", "-")[1]

    @pytest.mark.parametrize("argv, message", [
        (["arccos", "--x0", "0.3", "--m", "5", "--s", "1"], "arccos does not read --m"),
        (["arccos", "--x0", "0.3", "--sign", "-"], "arccos does not read --sign"),
        (["audit", "--k", "2", "--x0", "0.3", "--d", "4"], "audit does not read --d"),
        (["audit", "--k", "2", "--x0", "0.3", "--s", "2", "--d", "4"],
         "audit does not read --s"),
        (["compute", "--method", "method1", "--m", "2", "--s", "2", "--d", "1", "--k", "3"],
         "a seed takes --s or --d, not both"),
        (["compute", "--method", "unity", "--m", "2", "--s", "3", "--d", "1", "--k", "3"],
         "a seed takes --s or --d, not both"),
        (["table", "--method", "unity", "--m", "2", "--s", "3", "--d", "1", "--k-range", "1:2"],
         "a seed takes --s or --d, not both"),
        (["arccos", "--m", "2", "--s", "2", "--d", "1"], "a seed takes --s or --d, not both"),
        (["audit", "--k", "2", "--m", "2", "--s", "2", "--d", "1"],
         "a seed takes --s or --d, not both"),
        (["audit", "--k", "2", "--m", "5"], "a seed is required: --m with --s (or --d), or --x0"),
        (["audit", "--k", "2", "--sign", "-"],
         "a seed is required: --m with --s (or --d), or --x0"),
        (["audit", "--k", "2", "--s", "3"], "a seed is required: --m with --s (or --d), or --x0"),
        (["arccos", "--m", "5", "--sign", "-"],
         "a seed is required: --m with --s (or --d), or --x0"),
    ])
    def test_seed_flags_read_nowhere_are_64(self, capsys, argv, message):
        assert run(capsys, *argv) == (64, "", f"radpi: usage error: {message}\n")

    def test_audit_default_seed_only_without_seed_flags(self, capsys):
        default = run(capsys, "audit", "--k", "3")
        assert default == run(capsys, "audit", "--k", "3", "--m", "2", "--s", "2")
        assert default[0] == 0 and "'seed': 'm=2, s=2, sign=+'" in default[1]

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


# --x0, --m, --s and --d past the 4300 digits that Python 3.11 converts between
# int and str by default parse, and print in the params (and method2's m as its
# row index), as with no limit
@pytest.mark.parametrize("argv, expected_code", [
    (["arccos", "--x0", "0." + "3" * 4400, "--bits", "128"], 0),
    (["arccos", "--x0", "-0." + "3" * 4400, "--bits", "128", "--format", "json"], 0),
    (["compute", "--method", "method1", "--m", "1" + "0" * 4400, "--s", "3", "--k", "3",
      "--format", "csv"], 0),
    (["compute", "--method", "unity", "--m", "2", "--s", "3/1" + "0" * 4400, "--k", "3"], 0),
    (["audit", "--k", "3", "--m", "1" + "0" * 4400, "--s", "3"], 0),
    (["compute", "--method", "method2", "--m", "1" + "0" * 4400, "--d", "1"], 0),
    (["compute", "--method", "method2", "--m", "1" + "0" * 4400, "--d", "1", "--format",
      "json"], 0),
    (["compute", "--method", "taylor", "--m", "1" + "0" * 4400, "--d", "1", "--terms", "2"], 3),
])
def test_rational_flags_past_4300_digits(argv, expected_code, capsys, int_str_digits):
    int_str_digits(0)
    lifted = run(capsys, *argv)
    int_str_digits(4300)
    assert run(capsys, *argv) == lifted
    assert lifted[0] == expected_code


# Python 3.11's Fraction grammar, held here so that every Python checks the
# flags against the same one: 3.10's has no underscores, and 3.12's lets
# spaces stand around "/". (3.11's own copy reads `d*` for the first `\d*` of
# its decimal part; Fraction then refuses a "d" there, as this copy does.)
_RATIONAL_FORMAT = re.compile(r"""
    \A\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>\d*|\d+(_\d+)*)
    (?:(?:/(?P<denom>\d+(_\d+)*))?
     |(?:\.(?P<decimal>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?)
    \s*\Z""", re.VERBOSE | re.IGNORECASE)


def _fraction_of(match: re.Match) -> Fraction:
    """What Python 3.11's Fraction(text) makes of a match of its grammar."""
    decimal = (match["decimal"] or "").replace("_", "")
    value = Fraction(int(match["num"] or 0) * 10 ** len(decimal) + int(decimal or 0),
                     int(match["denom"] or 1) * 10 ** len(decimal))
    value *= Fraction(10) ** int(match["exp"] or 0)
    return -value if match["sign"] == "-" else value


# A rational flag is the Fraction of its text in 3.11's grammar while its
# numerator and denominator, as written with the exponent applied, have at
# most 19726 digits (all of which fit in MAX_WORKING_BITS bits), and over the
# cost bound past that; a zero is 0 whatever its exponent. Within a text's
# length of the bound either outcome is right.
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.from_regex(_RATIONAL_FORMAT), st.text("0123456789_./eE+- x", max_size=10),
                 st.tuples(st.sampled_from(["1", "-0.3", "7.25", "0"]), st.integers(-10**9, 10**9))
                 .map(lambda drawn: f"{drawn[0]}e{drawn[1]}")))
@example("1_000")  # 3.10's Fraction refuses it
@example("1 / 2")  # 3.12's Fraction reads it
@example(" -\u0661_\u0662.5E+0_1 ")
@example("1.d")
def test_rational_flag_is_fraction_of_its_text(text):
    match = _RATIONAL_FORMAT.match(text)
    exp = abs(int(match["exp"])) if match is not None and match["exp"] else 0
    if exp and not any(map(int, (match["num"] + (match["decimal"] or "")).replace("_", ""))):
        assert _fraction_arg(text) == 0
        return
    if exp > 19726 + len(text):
        with pytest.raises(PrecisionError, match="^request over the cost bound: a rational of "):
            _fraction_arg(text)
        return
    try:
        if match is None:
            raise ValueError(text)
        expected = _fraction_of(match)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(argparse.ArgumentTypeError, match="not a rational number"):
            _fraction_arg(text)
        return
    try:
        assert _fraction_arg(text) == expected
    except PrecisionError:
        assert exp + len(text) > 19726


# One grammar on every Python: before it was pinned, `--m 1_000` exited 64 on
# 3.10 and `--x0 "1 / 2"` exited 0 on 3.12
@pytest.mark.parametrize("argv, expected_code", [
    (["compute", "--method", "method1", "--m", "1_000", "--s", "3", "--k", "3"], 0),
    (["arccos", "--x0", "1 / 2"], 64),
])
def test_rational_flags_read_one_grammar(argv, expected_code, capsys):
    assert run(capsys, *argv)[0] == expected_code


def test_every_flag_a_method_names_is_declared():
    compute, table = _SUBCOMMANDS["compute"][1], _SUBCOMMANDS["table"][1]
    assert all(f"--{dest.replace('_', '-')}" in compute for dest in _X0_REPLACES)
    for method, (reads, requires, variants, _) in _METHODS.items():
        for dest in (*reads, *requires):
            assert f"--{dest.replace('_', '-')}" in compute, (method, dest)
        if method != "taylor":
            index, *rest = reads
            for dest in (f"{index}_range", *rest):
                assert f"--{dest.replace('_', '-')}" in table, (method, dest)
        assert set(variants) <= set(compute["--variant"]["choices"])


# compute prints a method's table params, its index, bits, guard_bits and
# method2's s, in the order that _METHODS declares
@pytest.mark.parametrize("method, flags", [
    ("method1", ["--m", "2", "--s", "2", "--k", "6"]),
    ("method2", ["--m", "50", "--d", "1", "--guard-bits", "200"]),
    ("combined", ["--m", "7/3", "--d", "1", "--k", "4"]),
    ("unity", ["--x0", "0.3", "--k", "6"]),
    ("viete", ["--k", "6"]),
])
def test_compute_params_are_the_table_params_and_the_precision(method, flags):
    args = _parse_table(["compute", "--method", method, *flags])
    reads, _, _, printed = _METHODS[method]
    expected = [*_method_request(args)[1], reads[0], "bits", "guard_bits"]
    expected += ["s"] if method == "method2" else []
    assert sorted(printed) == sorted(expected)
    meta = _cmd_compute(args, PrecisionContext(args.bits, args.guard_bits)).meta
    assert list(meta["params"]) == list(printed)
    assert meta["params"]["guard_bits"] == str(meta["guard_bits"])


# the bound at its edge: the digits of 10**n are n + 1
@pytest.mark.parametrize("text, digits", [
    ("1e19725", None), ("1e19726", 19727), ("-2.5e-19724", None), ("25e-19726", 19727),
    ("-0.5e-19725", 19727), ("9" * 40 + "e19686", None), ("9" * 40 + "e19687", 19727),
    ("3/1" + "0" * 19725, None), ("3/1" + "0" * 19726, 19727), ("0/1" + "0" * 19726, 19727),
])
def test_rational_flag_is_refused_past_19726_digits(text, digits, int_str_digits):
    int_str_digits(0)
    if digits is None:
        assert _fraction_arg(text) == Fraction(text)
    else:
        with pytest.raises(PrecisionError, match=f"^request over the cost bound: a rational of "
                                                 f"{digits} digits \\(at most 19726\\)$"):
            _fraction_arg(text)


# an --x0 exponent past Python's 4300-digit int/str limit reads a chunk at a
# time: 1e-<5000 nines> is over the cost bound (exit 3), not malformed (64)
def test_rational_flag_exponent_past_4300_digits(capsys, int_str_digits):
    int_str_digits(4300)
    assert run(capsys, "arccos", "--x0", "1e-" + "9" * 5000) == (
        3, "", "radpi: error: request over the cost bound: a rational of more than 10^4999 "
               "digits (at most 19726)\n")
    assert run(capsys, "arccos", "--x0", "1e-" + "0" * 5000 + "1") == run(
        capsys, "arccos", "--x0", "0.1")


# a size past the bound is one short stderr line however long its exponent;
# one under 10**19 digits prints in full
@pytest.mark.parametrize("nines", [5000, 20000])
def test_over_bound_exponent_is_one_short_line(nines, capsys, int_str_digits):
    int_str_digits(4300)
    code, out, err = run(capsys, "arccos", "--x0", "1e-" + "9" * nines)
    assert (code, out, err.count("\n"), err[-1:]) == (3, "", 1, "\n")
    assert len(err.encode()) < 200
    assert run(capsys, "arccos", "--x0", "1e-99999999") == (
        3, "", "radpi: error: request over the cost bound: a rational of 100000000 digits "
               "(at most 19726)\n")


# a literal whose digits are all zero is 0 and has one digit, whatever its
# exponent: it prints what --x0 0 prints, while 1e99999999 stays refused
@pytest.mark.parametrize("x0", ["0e99999999", "0.0e99999999", "-0E+99999999", "00.000e-99999999"])
def test_a_zero_with_a_large_exponent_is_zero(x0, capsys):
    assert _fraction_arg(x0) == 0
    zero = run(capsys, "arccos", "--x0", "0")
    assert zero[0] == 0 and run(capsys, "arccos", f"--x0={x0}") == zero
    assert run(capsys, "arccos", "--x0", "1e99999999")[0] == 3


def test_an_output_past_4300_digits_prints(capsys, int_str_digits):
    # 14300 bits print 4302 fraction digits, past the 4300 digits that Python
    # 3.11 converts between int and str by default
    code, out, err = run(capsys, "compute", "--method", "viete", "--k", "1", "--bits", "14300",
                         "--format", "json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    row, digits = report["rows"][0], report["meta"]["oracle_digits"]
    assert len(row["approximant"]) == len(row["abs_error"]) == 2 + digits == 4304
    # the approximant 2*sqrt(2) plus its error is pi to the printed digits
    int_str_digits(0)
    bits = report["meta"]["measure_bits"]
    gap = Fraction(row["approximant"]) + Fraction(row["abs_error"]) - \
        Fraction(_pi_mantissa(bits), 1 << bits)
    assert abs(gap) < Fraction(2, 10**digits)


class TestSubcommands:
    def test_arccos_x0(self, capsys):
        code, out, _ = run(capsys, "arccos", "--x0", "0.8", "--bits", "128")
        assert code == 0
        assert "0.6435011087932843868" in out

    @pytest.mark.parametrize("guard_flag", [[], ["--guard-bits", "100"]])
    def test_arccos_reports_the_guard_its_run_used(self, capsys, guard_flag):
        code, out, _ = run(capsys, "arccos", "--x0", "0.3", "--format", "json", *guard_flag)
        assert code == 0
        meta = json.loads(out)["meta"]
        guard = int(guard_flag[1]) if guard_flag else None
        work = plan("arccos", PrecisionContext(meta["bits"], guard)).work
        assert meta["guard_bits"] == work - meta["bits"]

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

    def test_verify_passes_at_2048_bits(self, capsys):
        code, out, err = run(capsys, "verify", "--bits", "2048")
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

    # the audit's meta is built with its rows, and printed as it is built
    @pytest.mark.parametrize("flags, seed", [([], Seed(2, 2, 1)),
                                             (["--m", "7/3", "--s", "5"], Seed(Fraction(7, 3), 5))])
    def test_audit_prints_the_meta_of_its_report(self, capsys, flags, seed):
        code, out, _ = run(capsys, "audit", "--k", "3", *flags, "--format", "json")
        report = radpi.analysis.cancellation_audit(seed, 3, 53, PrecisionContext(4 * 53))
        assert (code, json.loads(out)["meta"]) == (0, report.meta)

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


# compute and a one-row table build their reports alike: the same row and
# the same precision keys, for every method and its index flag
_ONE_ROW = [
    (["--method", "method1", "--m", "2", "--s", "2"], "--k", "7"),
    (["--method", "method1", "--x0", "0.3"], "--k", "4"),
    (["--method", "unity", "--m", "5", "--d", "3"], "--k", "5"),
    (["--method", "viete"], "--k", "6"),
    (["--method", "combined", "--m", "50", "--d", "1"], "--k", "4"),
    (["--method", "method2", "--d", "1"], "--m", "50"),
]


@pytest.mark.parametrize("bits", ["128", "512"])
@pytest.mark.parametrize("flags, index_flag, index", _ONE_ROW,
                         ids=[" ".join(flags) for flags, _, _ in _ONE_ROW])
def test_compute_row_is_the_one_row_table_row(flags, index_flag, index, bits, capsys):
    sweep = ["--k-range", f"{index}:{index}"] if index_flag == "--k" else ["--m-range", index]
    reports = []
    for argv in (["compute", *flags, index_flag, index], ["table", *flags, *sweep]):
        code, out, err = run(capsys, *argv, "--bits", bits, "--format", "json")
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    row_keys = ("index", "approximant", "abs_error", "correct_digits")
    meta_keys = ("bits", "guard_bits", "measure_bits", "oracle_digits")
    compute, table = ([{key: report["rows"][0][key] for key in row_keys},
                       {key: report["meta"][key] for key in meta_keys}] for report in reports)
    assert len(reports[1]["rows"]) == 1
    assert compute == table


# A gap of exactly an identity's bound fails it and one unit under passes it;
# either way `verify` prints all seven identities, and a failure exits 1. For
# the strict monotonicity, a theta0 equal to the last doubled sine is the bound.
# The exact scale identity fails on one exponent off by 2^-64. The f -> 2 bound
# is `<=`, so there a factor on the bound (the largest whole gap within it)
# passes and one unit over fails.
@pytest.mark.parametrize("at_bound", [False, True])
@pytest.mark.parametrize("patched, line, residual", [
    ("f_power_form", 0, ("0", "0")),
    ("nested_literal", 3, ("worst gap < 2^48 units at 128 bits",
                           "worst gap < 2^49 units at 128 bits")),
    ("viete_product", 4, ("255 units at 128 bits", "256 units at 128 bits")),
    ("_theta0", 5, ("-", "-")),
    ("scale_factors", 6, ("-", "-")),
])
def test_identity_fails_at_its_bound(patched, line, residual, at_bound, capsys, monkeypatch):
    offset = int(at_bound) - 1
    real_run = radpi.analysis.run_at_scale
    real_theta0 = radpi.analysis._theta0
    real_form = radpi.analysis.f_power_form
    real_factors = radpi.analysis.scale_factors

    def f_power_form(k, m):  # f(40) at m = 5, q over 2^64 with 0 or 2^-64 added
        form = real_form(k, m)
        if (k, m) != (40, 5):
            return form
        up = 64 - form.e
        return PowerForm(form.a << up, (form.b << up) + offset + 1, 64, form.m)

    def scale_factors(m, k_max, scale_bits):  # f(40) at m = 3 on its bound, or one over
        factors = real_factors(m, k_max, scale_bits)
        if m == 3:
            u, two = Fraction(math.log(m / 2) / 2**38), 2 << scale_bits
            gap = math.floor((u * two + 256) / (1 - u))  # gap <= u * (two + gap) + 2^8
            factors[40] = FixedReal(two + gap + offset + 1, scale_bits)
        return factors

    def nested_literal(seed, k, ctx):  # the depth-20 recursion's c, off by the bound
        recursion = real_run(seed, 20, plan("depth", ctx, k=20).work)[k].c.rescale(ctx.scale_bits)
        return recursion + FixedReal((1 << (2 * k + 8)) + offset, ctx.scale_bits)

    def viete_product(k, ctx):  # the matched recursion form, off by the bound
        matched = radpi.analysis.pi_method1(Seed(1, 0, 1), k, ctx, "exact").value
        return SimpleNamespace(value=matched + FixedReal((1 << 8) + offset, ctx.scale_bits))

    def _theta0(seed, scale_bits):  # one seed's k = 30 doubled sine, or one unit above
        if seed != Seed(2, 3, -1):
            return real_theta0(seed, scale_bits)
        sines = radpi.analysis._doubled_sines(seed.value(scale_bits), "stable")
        *_, (_, sine) = islice(sines, 30)
        return sine - FixedReal(offset, scale_bits)

    fakes = {"f_power_form": f_power_form, "nested_literal": nested_literal,
             "viete_product": viete_product, "_theta0": _theta0, "scale_factors": scale_factors}
    monkeypatch.setattr(radpi.analysis, patched, fakes[patched])
    code, out, err = run(capsys, "verify")
    verdicts = [text for text in out.splitlines() if not text.startswith("#")]
    assert (code, err, len(verdicts)) == (int(at_bound), "", 7)
    for i, text in enumerate(verdicts):
        assert text.startswith("FAIL " if at_bound and i == line else "PASS ")
    assert verdicts[line].endswith(f"  [{residual[at_bound]}]")


# The JSON writer against json.dumps, on nested dicts and lists (empty ones
# too) of ints, bools, None and strings with quotes, backslashes, control
# characters, non-ASCII characters, astral ones and lone surrogates.
_JSON_TEXT = st.text(st.characters() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\ud800", "\U0001d11e"]), max_size=6)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_JSON_TEXT, inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200)
@given(_JSON_VALUES)
@example({"meta": {}, "rows": []})
@example([{}, [[]], {"a": {"b": []}}])
def test_json_writer_is_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


def test_empty_report_renders_header_only_csv():
    from radpi.analysis import Report
    from radpi.cli import render_report

    empty = Report(rows=[], meta={"method": "method1", "bits": 128})
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


def _readme_cli_examples() -> list[tuple[str, list[str]]]:
    """(comment above it, argv) of each `radpi ...` line in README's CLI section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples, comment = [], ""
    for line in section.splitlines():
        if line.startswith("    # "):
            comment = line
        elif line.startswith("    radpi "):
            examples.append((comment, shlex.split(line)[1:]))
    return examples


README_EXAMPLES = _readme_cli_examples()


# the README's examples run as written: stdout, exit 0, and no stderr but the
# MISPRINT line that the as-printed example documents
@pytest.mark.parametrize("comment, argv", README_EXAMPLES,
                         ids=[" ".join(argv) for _, argv in README_EXAMPLES])
def test_readme_cli_examples_run(comment, argv, capsys):
    code, out, err = run(capsys, *argv)
    stderr = f"{MISPRINT_DIAGNOSTIC}\n" if "MISPRINT" in comment else ""
    assert (code, err) == (0, stderr)
    assert out


# Every MATRIX argv in every format, plus the self-consistent audit, a
# cataloged method2 seed, the as-printed MISPRINT diagnostic, `verify` at 256
# bits (recorded while each engine step still built its radicand from
# FixedReal temporaries), and `verify` and
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
# stayed 64 and 3. The text and json entries of `compute --method taylor` were
# re-recorded when taylor began to report the guard of its plan: the exact
# partial sum is rounded once at the output scale, so `guard_bits` is 0, not
# 64; nothing else in them changed. Last come the compute requests whose
# printed params each method builds in its own way, in every format: every
# method under `--guard-bits 200`, method1 and unity under `--x0`, method1
# under `--ratio-mode exact|self` and with a rational negative seed, and
# combined with a rational m; recorded while each driver still wrote them.
# Last, the audit at its default k = 40, under a negative seed, at x0 = -1,
# with a rational m at 24 audited bits and at 80 audited bits, in every
# format; recorded while the audit still read two full engine runs. After it,
# `arccos --x0 -1`, the one pinned request that reaches the reference's x = -1
# endpoint; recorded while the reference still special-cased x = 1 as well.
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


# Run in a fresh `python -S`, whose modules are the floor. A text request must
# add none of the listed ones; a usage error none but those that argparse's
# help width reads through shutil.get_terminal_size.
_FOOTPRINT_PROBE = """
import sys
floor = set(sys.modules)
heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "json",
         "shutil", "bz2", "lzma", "zlib", "fnmatch")
from radpi.cli import run_command
run_command(["compute", "--method", "method1", "--m", "2", "--s", "2", "--k", "20"])
print(sorted(name for name in heavy if name in sys.modules and name not in floor))
run_command(["compute", "--method", "method1", "--frobnicate"])
heavy = [name for name in heavy if name not in ("shutil", "bz2", "lzma", "zlib", "fnmatch")]
print(sorted(name for name in heavy if name in sys.modules and name not in floor))
"""


def test_text_request_imports_no_heavy_stdlib_modules():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _FOOTPRINT_PROBE],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines()[-2:] == ["[]", "[]"]


# A fresh `python -S`, whose modules are the floor: well-formed text, csv and
# json requests of the six subcommands parse from the flag table and load
# none of these: fractions and the modules that it imports, json, and
# argparse with its gettext and locale. Two usage errors after them still
# print argparse's pinned bytes.
_SHED = ("fractions", "decimal", "numbers", "re", "enum", "json", "argparse", "gettext", "locale")
_REQUESTS = [["compute", "--method", "viete", "--k", "8"],
             ["table", "--method", "viete", "--k-range", "1:3"], ["arccos", "--x0", "0.5"],
             ["audit", "--k", "3"], ["reproduce"], ["verify"]]
_TABLE_PROBE = """
import sys
floor = set(sys.modules)
from radpi.cli import run_command
for argv in REQUESTS:
    for fmt in ("text", "csv", "json"):
        assert run_command([*argv, "--format", fmt]) == 0, (argv, fmt)
loaded = sorted(name for name in SHED if name in sys.modules and name not in floor)
codes = [run_command(argv) for argv in ARGVS]
print(loaded, codes)
"""
_USAGE_ERRORS = [entry for entry in CLI_USAGE if entry["columns"] == 80 and entry["argv"] in (
    ["compute", "--method", "viete", "--k", "3", "--digits", "5"], ["arccos", "--x0", "nan"])]


def test_well_formed_requests_never_import_argparse():
    argvs = [entry["argv"] for entry in _USAGE_ERRORS]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _TABLE_PROBE.replace("ARGVS", repr(argvs))
         .replace("REQUESTS", repr(_REQUESTS)).replace("SHED", repr(_SHED))],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.splitlines()[-1] == "[] [64, 64]"
    assert proc.stderr == "".join(entry["stderr"] for entry in _USAGE_ERRORS)


# every golden and pinned request that exits 0 parses from the flag table, to
# the namespace that argparse gives it
_WELL_FORMED = [entry["argv"] for entry in GOLDEN_CASES + CLI_MATRIX if entry.get("code", 0) == 0]


@pytest.mark.parametrize("argv", _WELL_FORMED, ids=[" ".join(argv) for argv in _WELL_FORMED])
def test_well_formed_requests_parse_from_the_table(argv):
    parsed = _parse_table(argv)
    assert parsed is not None
    assert vars(parsed) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h", "compute"], ["compute", "-h"], ["verify", "--help"],
    ["compute", "--method=viete", "--k", "3"],  # --flag=value
    ["compute", "--meth", "viete", "--k", "3"],  # an abbreviation
    ["compute", "--method", "viete", "--k"],  # a missing value
    ["compute", "--method", "viete", "--", "--k", "3"],
    ["compute", "--method", "viete", "--k", "3", "extra", "4"],  # positionals
    ["compute", "--method", "viete", "--k", "-x"],  # reads as an option
    ["verify", "--out", "-x"], ["verify", "--out", "--"], ["verify", "--out", "-1 2"],
    ["compute", "--method", "viete", "--k", "-1e3"],  # not argparse's negative number
    ["compute", "--method", "viete", "--k", "x"],  # type
    ["compute", "--method", "pi", "--k", "3"],  # choices
    ["table", "--method", "taylor", "--k-range", "1:2"],  # this subcommand's choices
    ["compute", "--k", "3"],  # a missing --method
    ["arccos", "--method", "viete"],  # a flag of another subcommand
    ["audit", "--x0", "1/0"],  # the rational's type error
])
def test_table_parse_declines(argv):
    assert _parse_table(argv) is None


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


# The table parse against argparse: the requests above, with negative, `-` and
# empty values, `--flag=value`, abbreviations, bare flags, repeated flags, `--`,
# `-h` and stray positionals mixed in. Whenever the table accepts an argv,
# argparse accepts it too, with the same namespace.
_ODD_VALUES = ["-", "-1", "-0.5", "-.5", "-1.", "-x", "--", "", "1e3", " -1", "1_0"]


def _tokens(name: str):
    """`name value` in most draws; else `name=value`, an abbreviation, `name`
    without its value, or a stray token."""
    def written(drawn):
        value, how, stray = drawn
        odd = ([f"{name}={value}"], [name[:-1], value], [name], stray)
        return odd[how] if how < len(odd) else [name, value]

    values = st.sampled_from(_FLAG_VALUES[name] + _ODD_VALUES)
    strays = st.sampled_from([["--"], ["-h"], ["--help"], ["x"], [""], ["-1"]])
    return st.tuples(values, st.integers(0, 12), strays).map(written)


def _odd_request(subcommand: str):
    method = _tokens("--method") if subcommand in ("compute", "table") else st.just([])
    flags = st.lists(st.sampled_from(_SUBCOMMAND_FLAGS[subcommand]).flatmap(_tokens), max_size=6)
    return st.tuples(method, flags).map(
        lambda drawn: [subcommand, *drawn[0], *(token for tokens in drawn[1] for token in tokens)]
    )


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(_SUBCOMMAND_FLAGS)).flatmap(_odd_request))
@example(["arccos", "--sign", "-", "--x0", "-.5", "--out", "-"])
@example(["table", "--method", "viete", "--k-range", "", "--m-range", "-1", "--bits", "-3"])
@example(["audit", "--k", "-7", "--k", "2", "--d", "-2.5", "--m", " 1_0 "])
def test_table_parse_agrees_with_argparse(argv):
    parsed = _parse_table(argv)
    if parsed is not None:
        with contextlib.redirect_stderr(io.StringIO()):
            assert vars(parsed) == vars(build_parser().parse_args(argv))
