"""Command-line front end: compute, table, arccos, audit, reproduce, verify.

All numeric output is plain decimal strings from the fixed-point layer (no
locale, no exponent form), so identical argument vectors produce byte
identical output. Diagnostics go to stderr only.

Exit codes: 0 success, 1 a failing verify identity, 2 domain/catalog errors,
3 precision/convergence errors and requests over the cost bound, 64 usage
errors, 70 internal errors (a defect, reported in one line without a
traceback), 74 unwritable output path.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .analysis import (
    AuditRow,
    CatalogReport,
    ConvergenceReport,
    IdentityReport,
    ReportRow,
    _ROWS,
    _report,
    _target_value,
    cancellation_audit,
    convergence_table,
    reproduce_catalog,
    verify_identities,
)
from .arith import FixedReal, PrecisionContext, arccos_oracle, decimal_digits_for_bits
from .drivers import arccos_by_recursion, plan, taylor_seed_exact
from .errors import ConvergenceError, PrecisionError, RadpiError, UsageError
from .recursion import Seed

_EXIT_DOMAIN = 2
_EXIT_PRECISION = 3
_EXIT_USAGE = 64
_EXIT_SOFTWARE = 70
_EXIT_IO = 74

# the compute and table flags (by dest) that --method chooses among, in the
# order they are declared
_METHOD_FLAGS = ("variant", "ratio_mode", "k", "terms", "k_range", "m_range",
                 "m", "s", "sign", "d", "x0")
# a seed's flags besides --x0
_SEED_FLAGS = ("m", "s", "sign", "d")
# the flags that --x0 replaces: the seed's, and the ratio mode it forces
_X0_REPLACES = (*_SEED_FLAGS, "ratio_mode")
# each method's (reads, requires, variants): the flags of _METHOD_FLAGS that
# it reads in compute, its index first, which a table sweeps by --k-range or
# --m-range instead; the flags that compute requires; its variants, the
# default first. taylor has no table.
_METHODS = {
    "method1": (("k", "variant", "ratio_mode", *_SEED_FLAGS, "x0"), ("k",),
                ("stable", "naive")),
    "method2": (("m", "variant", "d"), ("m", "d"), ("corrected", "as-printed")),
    "combined": (("k", "m", "d"), ("m", "d", "k"), ()),
    "unity": (("k", *_SEED_FLAGS, "x0"), ("k",), ()),
    "viete": (("k",), ("k",), ()),
    "taylor": (("terms", "m", "d"), ("m", "d", "terms"), ()),
}


def _terminal_columns() -> int:
    """``shutil.get_terminal_size().columns`` by its own rule, without
    importing shutil (and with it bz2, lzma, zlib and fnmatch): COLUMNS if it
    is a positive int, else the width of the terminal on stdout, else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):
        columns = 0
    return columns or 80


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter with its default width taken from
    `_terminal_columns`."""

    def __init__(self, prog: str, **kwargs):
        if kwargs.get("width") is None:
            kwargs["width"] = _terminal_columns() - 2  # argparse's own margin
        super().__init__(prog, **kwargs)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        kwargs.setdefault("formatter_class", _Formatter)
        super().__init__(*args, **kwargs)

    def error(self, message: str):  # argparse default exits with 2; we use 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


class _Reparse(Exception):
    """A parse error on a parser that holds one subcommand."""


class _OneCommandParser(_Parser):
    """A parser that holds only the subcommand argv names. Its usage lines
    would list that one choice, so on any error it defers to the full parser,
    which prints argparse's message for the same argv."""

    def error(self, message: str):
        raise _Reparse


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=_fraction_arg, help="starting-term base m")
    p.add_argument("--s", type=_fraction_arg, help="starting-term radicand s")
    p.add_argument("--sign", choices=["+", "-"],
                   help="sign of the starting term (default +)")
    p.add_argument("--d", type=_fraction_arg, help="offset d with s = m^2 - d^2")
    p.add_argument("--x0", type=_fraction_arg, default=None,
                   help="starting term as a decimal; forces self-consistent ratio mode")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bits", type=int, default=128, help="output precision in bits (default 128)")
    p.add_argument("--guard-bits", type=int, default=None,
                   help="explicit guard-bit budget (default: sized per depth)")
    p.add_argument("--format", choices=["text", "csv", "json"], default="text")
    p.add_argument("--out", type=str, default=None, help="write output to this path")


def _add_method_flags(p: argparse.ArgumentParser, methods: list[str]) -> None:
    p.add_argument("--method", required=True, choices=methods)
    p.add_argument("--variant", default=None,
                   choices=[v for _, _, variants in _METHODS.values() for v in variants])
    p.add_argument("--ratio-mode", choices=["auto", "exact", "self"], default=None)


def _add_compute_flags(p: argparse.ArgumentParser) -> None:
    _add_method_flags(p, list(_METHODS))
    p.add_argument("--k", type=int, default=None, help="recursion depth")
    p.add_argument("--terms", type=int, default=None, help="series terms (taylor)")
    _add_seed_flags(p)


def _add_table_flags(p: argparse.ArgumentParser) -> None:
    _add_method_flags(p, [name for name in _METHODS if name != "taylor"])
    p.add_argument("--k-range", type=str, default=None, help="inclusive LO:HI depth sweep")
    p.add_argument("--m-range", type=str, default=None,
                   help="comma-separated starting-term bases, e.g. 100,1000,10000")
    _add_seed_flags(p)


def _add_audit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=40, help="maximum depth (default 40)")
    p.add_argument("--audited-bits", type=int, default=53,
                   help="raw working precision under audit (default 53)")
    _add_seed_flags(p)


# each subcommand's help line and the flags it adds before the common ones
_SUBCOMMANDS = {
    "compute": ("evaluate a single approximant", _add_compute_flags),
    "table": ("convergence table over a sweep", _add_table_flags),
    "arccos": ("self-consistent arccos of a starting term", _add_seed_flags),
    "audit": ("naive vs stable cancellation audit", _add_audit_flags),
    "reproduce": ("reproduce the four classical formulas", None),
    "verify": ("run the identity verification suite", None),
}


def build_parser(subcommand: str | None = None) -> _Parser:
    """The radpi parser; given a subcommand name, one that holds only that
    subcommand and leaves every error to the full parser."""
    parser_class = _Parser if subcommand is None else _OneCommandParser
    parser = parser_class(prog="radpi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, add_flags) in _SUBCOMMANDS.items():
        if subcommand in (None, name):
            p = sub.add_parser(name, help=help_text)
            if add_flags is not None:
                add_flags(p)
            _add_common_flags(p)
    return parser


def _parse(argv: list[str] | None) -> argparse.Namespace:
    """Parse with a parser that holds only the subcommand argv names, and with
    the full parser for anything else or for any error."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in _SUBCOMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Reparse:
            pass
    return build_parser().parse_args(argv)


def _seed_from_args(args: argparse.Namespace, default: Seed | None = None) -> Seed:
    """The seed of --x0 alone, or of --m with --s or --d (and --sign); the
    default only when no seed flag is given."""
    given = [dest for dest in _SEED_FLAGS if getattr(args, dest) is not None]
    if args.x0 is not None:
        if given:
            raise UsageError(f"{args.subcommand} does not read --{given[0]}")
        return Seed.from_x0(args.x0)
    if default is not None and not given:
        return default
    if args.m is None or (args.s is None and args.d is None):
        raise UsageError("a seed is required: --m with --s (or --d), or --x0")
    if args.s is not None and args.d is not None:
        raise UsageError("a seed takes --s or --d, not both")
    sign = -1 if args.sign == "-" else 1
    if args.d is not None:
        return Seed.from_m_d(args.m, args.d, sign)
    return Seed(args.m, args.s, sign)


def _method_request(args: argparse.Namespace) -> tuple[str, dict]:
    """The analysis method name and parameters that --method and its flags ask
    for: the seed before the variant, the self ratio under --x0, d = 1 unset."""
    method = args.method
    d = Fraction(1) if args.d is None else args.d
    if method == "method1":
        seed = _seed_from_args(args)
        ratio_mode = "self" if args.x0 is not None else args.ratio_mode or "auto"
        return method, {"seed": seed, "ratio_mode": ratio_mode, "variant": _variant(args)}
    if method == "method2":
        return f"method2_{_variant(args).replace('-', '_')}", {"d": d}
    if method == "combined":
        return method, {"m": args.m, "d": d}
    if method == "unity":
        return method, {"seed": _seed_from_args(args)}
    return method, {}


def _reject_unread_flags(args: argparse.Namespace) -> None:
    """Usage error on the first explicit flag that the method does not read."""
    index, *reads = _METHODS[args.method][0]
    reads.append(index if args.subcommand == "compute" else f"{index}_range")
    if args.x0 is not None and "x0" in reads:
        reads = [dest for dest in reads if dest not in _X0_REPLACES]
    for dest in _METHOD_FLAGS:
        if getattr(args, dest, None) is not None and dest not in reads:
            raise UsageError(f"{args.method} does not read --{dest.replace('_', '-')}")


def _variant(args: argparse.Namespace) -> str:
    allowed = _METHODS[args.method][2]
    variant = args.variant or allowed[0]
    if variant not in allowed:
        raise UsageError(f"{args.method} variants are {'|'.join(allowed)}")
    return variant


def _parse_k_range(text: str | None) -> range:
    if text is None:
        raise UsageError("this method sweeps --k-range")
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError("--k-range must be LO:HI")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError("--k-range must be LO:HI with integers") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise UsageError("--k-range must satisfy 1 <= LO <= HI")
    return range(lo_i, hi_i + 1)


def _parse_m_range(text: str | None) -> list[int]:
    if text is None:
        raise UsageError("method2 tables sweep --m-range")
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError("--m-range must be comma-separated integers") from exc
    if not values:
        raise UsageError("--m-range is empty")
    return values


def _cmd_compute(args: argparse.Namespace, ctx: PrecisionContext) -> ConvergenceReport:
    _reject_unread_flags(args)
    method = args.method
    reads, required, _ = _METHODS[method]
    if any(getattr(args, dest) is None for dest in required):
        *rest, last = [f"--{dest}" for dest in required]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise UsageError(f"{method} requires {listed}")
    if method == "taylor":
        return _compute_taylor(args, ctx)
    if method == "method2" and args.m.denominator != 1:
        raise UsageError("method2 requires an integer --m")
    index = int(getattr(args, reads[0]))
    name, params = _method_request(args)
    row = plan("table", ctx, method=name, params=params, sweep=[index])
    approx = _ROWS[name](params, index, ctx)
    if approx.diagnostic:
        print(approx.diagnostic, file=sys.stderr)
    reference = _target_value(approx.target, row.measure_bits)
    return _report([index], [approx.value], reference, ctx, row.work, method=approx.method,
                   params=approx.params, ratio_kind=approx.ratio_kind, target=approx.target)


def _compute_taylor(args: argparse.Namespace, ctx: PrecisionContext) -> ConvergenceReport:
    taylor = plan("taylor", ctx, m=args.m, d=args.d, terms=args.terms)
    value = FixedReal.from_fraction(taylor_seed_exact(args.m, args.d, args.terms), taylor.work)
    scale = taylor.measure_bits
    limit = FixedReal.from_fraction(Fraction(args.m) ** 2 - Fraction(args.d) ** 2, scale).sqrt() \
        / FixedReal.from_fraction(args.m, scale)
    params = {"m": str(args.m), "d": str(args.d), "terms": str(args.terms)}
    return _report([args.terms], [value], limit, ctx, taylor.work,
                   method="taylor", params=params, target="seed_value")


def _cmd_table(args: argparse.Namespace, ctx: PrecisionContext) -> ConvergenceReport:
    # an unread flag first; then method2 reports a bad variant before a bad
    # sweep, the others a bad sweep before a bad seed
    _reject_unread_flags(args)
    if args.method == "method2":
        method, params = _method_request(args)
        sweep = _parse_m_range(args.m_range)
    else:
        sweep = _parse_k_range(args.k_range)
        if args.method == "combined" and args.m is None:
            raise UsageError("combined tables require --m")
        method, params = _method_request(args)
    return convergence_table(method, params, sweep, ctx)


def _cmd_arccos(args: argparse.Namespace, ctx: PrecisionContext) -> ConvergenceReport:
    seed = _seed_from_args(args)
    run = plan("arccos", ctx)  # refuse a request over the cost bound before x0 is built
    x0 = seed.value(ctx.scale_bits)
    value = arccos_by_recursion(x0, ctx)
    reference = arccos_oracle(x0.rescale(run.measure_bits), PrecisionContext(run.measure_bits))
    return _report([0], [value], reference, ctx, run.work,
                   method="arccos_by_recursion", params={"seed": seed.describe()},
                   target="arccos")


def _cmd_audit(args: argparse.Namespace) -> tuple[list[AuditRow], dict]:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    seed = _seed_from_args(args, default=Seed(2, 2, 1))
    # the audit reads only its reference's scale, so no guard is ever read
    if args.guard_bits is not None:
        raise UsageError("audit does not read --guard-bits")
    reference = PrecisionContext(plan("audit", None, seed=seed, k=args.k, bits=args.bits,
                                      audited_bits=args.audited_bits).measure_bits)
    rows = cancellation_audit(seed, args.k, args.audited_bits, reference)
    meta = {
        "method": "cancellation_audit",
        "params": {"seed": seed.describe(), "audited_bits": str(args.audited_bits)},
        "bits": reference.scale_bits,
        "oracle_digits": decimal_digits_for_bits(reference.scale_bits),
    }
    return rows, meta


# -- rendering ----------------------------------------------------------------


def _render(
    fmt: str, meta: dict, header: tuple[str, ...], rows: list[dict], quoted: tuple[str, ...],
    text_lines: list[str],
) -> str:
    """The one output format: JSON {meta, rows}; CSV as the header's keys and
    each row's values, those of the quoted keys in double quotes; text as
    '# key = value' meta lines followed by the body lines."""
    if fmt == "json":
        import json  # imported here so that text and csv requests never load it

        return json.dumps({"meta": meta, "rows": rows}, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        lines = [",".join(header)]
        for row in _cells(rows):
            lines.append(",".join(f'"{cell}"' if key in quoted else cell
                                  for key, cell in zip(header, row)))
    else:
        lines = [f"# {key} = {value}" for key, value in sorted(meta.items(), key=str)]
        lines += text_lines
    return "\n".join(lines) + "\n"


def _cells(rows: list[dict]) -> list[list[str]]:
    return [["" if v is None else str(v) for v in row.values()] for row in rows]


def _columns(headers: tuple[str, ...], table: list[list[str]]) -> list[str]:
    """Left-aligned text columns under a header line."""
    if not table:
        return ["(no rows)"]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in [headers, *table]]


def render_report(report: ConvergenceReport, fmt: str) -> str:
    header = ReportRow.__slots__
    rows = [dict(zip(header, r._values())) for r in report.rows]
    return _render(fmt, report.meta, header, rows, (),
                   _columns(("index", "approximant", "abs_error", "digits", "ratio"), _cells(rows)))


def render_audit(rows: list[AuditRow], meta: dict, fmt: str) -> str:
    digits = decimal_digits_for_bits(53) + 14
    header = AuditRow.__slots__
    rendered = [
        dict(zip(header, (r.k, r.naive_error.rescale(120).to_decimal(digits),
                          r.stable_error.rescale(120).to_decimal(digits), r.digits_lost)))
        for r in rows
    ]
    return _render(fmt, meta, header, rendered, (), _columns(header, _cells(rendered)))


def render_catalog(report: CatalogReport, fmt: str) -> str:
    header = ("form", "seed", "prefactor_exact", "radical_shape_ok", "converged",
              "abs_error_at_depth")
    rows = [
        dict(zip(header, (r.name, r.seed, r.prefactor_exact, r.radical_shape_ok, r.converged,
                          r.error_at_depth.rescale(128).to_decimal(20))))
        for r in report.results
    ]
    text_lines = [f"PASS {r['form']}  [seed {r['seed']}, error {r['abs_error_at_depth']}]"
                  for r in rows]
    return _render(fmt, report.meta, header, rows, ("form", "seed"), text_lines)


def render_identities(report: IdentityReport, fmt: str) -> str:
    header = ("identity", "passed", "worst_residual", "detail")
    rows = [dict(zip(header, r._values())) for r in report.results]
    text_lines = [
        f"{'PASS' if r['passed'] else 'FAIL'} {r['identity']}  [{r['worst_residual']}]"
        for r in rows
    ]
    return _render(fmt, report.meta, header, rows, ("identity", "worst_residual", "detail"),
                   text_lines)


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _run(args: argparse.Namespace) -> tuple[str, int]:
    """The rendered output of one parsed command line, and its exit code."""
    if args.subcommand == "audit":
        rows, meta = _cmd_audit(args)
        return render_audit(rows, meta, args.format), 0
    ctx = PrecisionContext(args.bits, args.guard_bits)
    if args.subcommand == "reproduce":
        return render_catalog(reproduce_catalog(ctx), args.format), 0
    if args.subcommand == "verify":
        report = verify_identities(ctx)
        return render_identities(report, args.format), 0 if report.all_passed else 1
    command = {"compute": _cmd_compute, "table": _cmd_table, "arccos": _cmd_arccos}
    return render_report(command[args.subcommand](args, ctx), args.format), 0


def run_command(argv: list[str] | None = None) -> int:
    """Dispatch one command line; returns the process exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:  # our parser raises 64; --help raises 0
        return int(exc.code or 0)

    try:
        text, exit_code = _run(args)
    except UsageError as exc:
        print(f"radpi: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except (PrecisionError, ConvergenceError) as exc:
        print(f"radpi: error: {exc}", file=sys.stderr)
        return _EXIT_PRECISION
    except RadpiError as exc:  # domain errors, catalog misses and failures
        print(f"radpi: error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except Exception as exc:  # a defect, not bad input: one line, no traceback
        print(f"radpi: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _EXIT_SOFTWARE

    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"radpi: cannot write output: {exc}", file=sys.stderr)
        return _EXIT_IO
    return exit_code


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
