"""Command-line front end: compute, table, arccos, audit, reproduce, verify.

All numeric output is plain decimal strings from the fixed-point layer (no
locale, no exponent form), so identical argument vectors produce byte
identical output. Diagnostics go to stderr only.

Every flag is declared once, in `_SUBCOMMANDS`. A subcommand followed by its
exact long flags, each with a value, is parsed straight from that table;
argparse, with its gettext and locale imports, loads only when the table
declines (help, abbreviations, `--flag=value`, bad values and every other
usage error), and its parser, declared from the same table, prints the text.

Exit codes: 0 success, 1 a failing verify identity, 2 domain/catalog errors,
3 precision/convergence errors and requests over the cost bound, 64 usage
errors, 70 internal errors (a defect, reported in one line without a
traceback), 74 unwritable output path.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .analysis import (
    AuditRow,
    CatalogReport,
    ConvergenceReport,
    IdentityReport,
    ReportRow,
    _param_text,
    _report,
    _target_value,
    cancellation_audit,
    convergence_table,
    reproduce_catalog,
    verify_identities,
)
from .arith import (
    MAX_WORKING_BITS,
    FixedReal,
    PrecisionContext,
    Rational,
    _rational_literal,
    arccos_oracle,
    decimal_digits_for_bits,
)
from .drivers import _TABLE_METHODS, arccos_by_recursion, plan, taylor_seed_exact
from .errors import ConvergenceError, PrecisionError, RadpiError, UsageError
from .recursion import Seed

_EXIT_DOMAIN = 2
_EXIT_PRECISION = 3
_EXIT_USAGE = 64
_EXIT_SOFTWARE = 70
_EXIT_IO = 74

# a seed's flags besides --x0
_SEED_FLAGS = ("m", "s", "sign", "d")
# the flags that --x0 replaces: the seed's, and the ratio mode it forces
_X0_REPLACES = (*_SEED_FLAGS, "ratio_mode")
# each method's (reads, requires, variants, params): the flags (by dest) that
# it reads in compute, its index first, which a table sweeps by --k-range or
# --m-range instead; the flags that compute requires; its variants, the
# default first; the keys of compute's params, in their printed order: the
# table's params, the index, bits, guard_bits, and method2's s. taylor has no
# table.
_METHODS = {
    "method1": (("k", "variant", "ratio_mode", *_SEED_FLAGS, "x0"), ("k",),
                ("stable", "naive"), ("seed", "k", "bits", "guard_bits", "ratio_mode", "variant")),
    "method2": (("m", "variant", "d"), ("m", "d"), ("corrected", "as-printed"),
                ("m", "d", "s", "bits", "guard_bits")),
    "combined": (("k", "m", "d"), ("m", "d", "k"), (), ("m", "d", "k", "bits", "guard_bits")),
    "unity": (("k", *_SEED_FLAGS, "x0"), ("k",), (), ("seed", "k", "bits", "guard_bits")),
    "viete": (("k",), ("k",), (), ("k", "bits", "guard_bits")),
    "taylor": (("terms", "m", "d"), ("m", "d", "terms"), (), ("m", "d", "terms")),
}


# the most digits of a rational flag's numerator or denominator: all fit in MAX_WORKING_BITS bits
_MAX_DIGITS = decimal_digits_for_bits(MAX_WORKING_BITS)


def _fraction_arg(text: str) -> Rational:
    """A rational flag: a ``_rational_literal`` of at most _MAX_DIGITS digits."""
    try:
        return Rational(*_rational_literal(text, _MAX_DIGITS))
    except (ValueError, ZeroDivisionError) as exc:
        import argparse

        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _method_flags(methods: list[str]) -> dict:
    """--method over these methods, and the --variant and --ratio-mode it reads."""
    return {
        "--method": dict(required=True, choices=methods),
        "--variant": dict(choices=[v for _, _, variants, _ in _METHODS.values() for v in variants]),
        "--ratio-mode": dict(choices=["auto", "exact", "self"]),
    }


_SEED_ARGS = {
    "--m": dict(type=_fraction_arg, help="starting-term base m"),
    "--s": dict(type=_fraction_arg, help="starting-term radicand s"),
    "--sign": dict(choices=["+", "-"], help="sign of the starting term (default +)"),
    "--d": dict(type=_fraction_arg, help="offset d with s = m^2 - d^2"),
    "--x0": dict(type=_fraction_arg,
                 help="starting term as a decimal; forces self-consistent ratio mode"),
}
_COMMON_ARGS = {
    "--bits": dict(type=int, default=128, help="output precision in bits (default 128)"),
    "--guard-bits": dict(type=int, help="explicit guard-bit budget (default: sized per depth)"),
    "--format": dict(choices=["text", "csv", "json"], default="text"),
    "--out": dict(help="write output to this path"),
}

# The one flag table: each subcommand's help line and its flags, in the order
# that --help lists them, as argparse.add_argument keywords.
_SUBCOMMANDS = {
    "compute": ("evaluate a single approximant", {
        **_method_flags(list(_METHODS)),
        "--k": dict(type=int, help="recursion depth"),
        "--terms": dict(type=int, help="series terms (taylor)"),
        **_SEED_ARGS, **_COMMON_ARGS}),
    "table": ("convergence table over a sweep", {
        **_method_flags([name for name in _METHODS if name != "taylor"]),
        "--k-range": dict(help="inclusive LO:HI depth sweep"),
        "--m-range": dict(help="comma-separated starting-term bases, e.g. 100,1000,10000"),
        **_SEED_ARGS, **_COMMON_ARGS}),
    "arccos": ("self-consistent arccos of a starting term", {**_SEED_ARGS, **_COMMON_ARGS}),
    "audit": ("naive vs stable cancellation audit", {
        "--k": dict(type=int, default=40, help="maximum depth (default 40)"),
        "--audited-bits": dict(type=int, default=53,
                               help="raw working precision under audit (default 53)"),
        **_SEED_ARGS, **_COMMON_ARGS}),
    "reproduce": ("reproduce the four classical formulas", _COMMON_ARGS),
    "verify": ("run the identity verification suite", _COMMON_ARGS),
}


def build_parser():
    """The radpi argparse parser, declared from `_SUBCOMMANDS`: usage errors
    exit 64."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):  # argparse default exits with 2; we use 64
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(_EXIT_USAGE)

    parser = _Parser(prog="radpi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, keywords in flags.items():
            p.add_argument(flag, **keywords)
    return parser


def _parse_table(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` of a subcommand followed by its exact
    long flags, each with a value that argparse reads as one and accepts; None
    for anything else."""
    if not argv or argv[0] not in _SUBCOMMANDS or len(argv) % 2 == 0:
        return None
    flags = _SUBCOMMANDS[argv[0]][1]
    values = {flag: keywords.get("default") for flag, keywords in flags.items()}
    for flag, text in zip(argv[1::2], argv[2::2]):
        keywords = flags.get(flag)
        # argparse 3.10-3.12 reads "-", -\d+ and -\d*\.\d+ as values, and other "-x" as options
        whole, dot, decimal = text[1:].partition(".")
        if keywords is None or (text.startswith("-") and text != "-" and not (
                (decimal if dot else whole).isdecimal() and (whole + decimal).isdecimal())):
            return None
        try:
            value = keywords.get("type", str)(text)
        except Exception:  # argparse reports it, or raises it, on the same argv
            return None
        if value not in keywords.get("choices", [value]):
            return None
        values[flag] = value
    if any(keywords.get("required") and flag not in argv[1::2]
           for flag, keywords in flags.items()):
        return None
    return SimpleNamespace(subcommand=argv[0],
                           **{flag[2:].replace("-", "_"): v for flag, v in values.items()})


def _parse(argv: list[str] | None) -> SimpleNamespace:
    """Parse from the flag table, and with argparse when the table declines."""
    argv = sys.argv[1:] if argv is None else argv
    return _parse_table(argv) or build_parser().parse_args(argv, SimpleNamespace())


def _seed_from_args(args: SimpleNamespace, default: Seed | None = None) -> Seed:
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


def _method_request(args: SimpleNamespace) -> tuple[str, dict]:
    """The analysis method name and parameters that --method and its flags ask
    for: the seed before the variant, the self ratio under --x0, d = 1 unset."""
    method = args.method
    d = Rational(1) if args.d is None else args.d
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


def _reject_unread_flags(args: SimpleNamespace) -> None:
    """Usage error on the first explicit flag, in declared order, that the method does not read."""
    index, *reads = _METHODS[args.method][0]
    reads += [index if args.subcommand == "compute" else f"{index}_range", "method"]
    if args.x0 is not None and "x0" in reads:
        reads = [dest for dest in reads if dest not in _X0_REPLACES]
    for flag in _SUBCOMMANDS[args.subcommand][1]:
        dest = flag[2:].replace("-", "_")
        if getattr(args, dest) is not None and dest not in reads and flag not in _COMMON_ARGS:
            raise UsageError(f"{args.method} does not read {flag}")


def _variant(args: SimpleNamespace) -> str:
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


def _cmd_compute(args: SimpleNamespace, ctx: PrecisionContext) -> ConvergenceReport:
    _reject_unread_flags(args)
    method = args.method
    reads, required, _, printed = _METHODS[method]
    if any(getattr(args, dest) is None for dest in required):
        *rest, last = [f"--{dest}" for dest in required]
        listed = f"{', '.join(rest)} and {last}" if rest else last
        raise UsageError(f"{method} requires {listed}")
    if method == "taylor":
        return _compute_taylor(args, ctx)
    if method == "method2" and args.m.denominator != 1:
        raise UsageError("method2 requires an integer --m")
    index = getattr(args, reads[0]).numerator  # an int, or method2's integer --m
    name, params = _method_request(args)
    row = plan("table", ctx, method=name, params=params, sweep=[index])
    approx = _TABLE_METHODS[name][1](params, index, ctx)
    if approx.diagnostic:
        print(approx.diagnostic, file=sys.stderr)
    reference = _target_value(approx.target, row.measure_bits)
    params |= {reads[0]: index, "bits": ctx.scale_bits, "guard_bits": row.work - ctx.scale_bits}
    if method == "method2":
        params["s"] = index**2 - params["d"] ** 2
    return _report([index], [approx.value], reference, ctx, row.work, approx.method,
                   {key: params[key] for key in printed},
                   ratio_kind=approx.ratio_kind, target=approx.target)


def _compute_taylor(args: SimpleNamespace, ctx: PrecisionContext) -> ConvergenceReport:
    taylor = plan("taylor", ctx, m=args.m, d=args.d, terms=args.terms)
    value = FixedReal.from_fraction(taylor_seed_exact(args.m, args.d, args.terms), taylor.work)
    scale = taylor.measure_bits
    limit = FixedReal.from_fraction(args.m**2 - args.d**2, scale).sqrt() \
        / FixedReal.from_fraction(args.m, scale)
    params = {key: getattr(args, key) for key in _METHODS["taylor"][3]}
    return _report([args.terms], [value], limit, ctx, taylor.work, "taylor", params,
                   target="seed_value")


def _cmd_table(args: SimpleNamespace, ctx: PrecisionContext) -> ConvergenceReport:
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


def _cmd_arccos(args: SimpleNamespace, ctx: PrecisionContext) -> ConvergenceReport:
    seed = _seed_from_args(args)
    run = plan("arccos", ctx)  # refuse a request over the cost bound before x0 is built
    x0 = seed.value(ctx.scale_bits)
    value = arccos_by_recursion(x0, ctx)
    reference = arccos_oracle(x0.rescale(run.measure_bits), PrecisionContext(run.measure_bits))
    return _report([0], [value], reference, ctx, run.work, "arccos_by_recursion",
                   {"seed": seed}, target="arccos")


def _cmd_audit(args: SimpleNamespace) -> tuple[list[AuditRow], dict]:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    seed = _seed_from_args(args, default=Seed(2, 2, 1))
    # the audit reads only its reference's scale, so no guard is ever read
    if args.guard_bits is not None:
        raise UsageError("audit does not read --guard-bits")
    # the reference at 4x the audited bits or finer; the audit plans and admits itself there
    reference = PrecisionContext(max(args.bits, 4 * args.audited_bits))
    rows = cancellation_audit(seed, args.k, args.audited_bits, reference)
    meta = {
        "method": "cancellation_audit",
        "params": _param_text({"seed": seed, "audited_bits": args.audited_bits}),
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
        return _json({"meta": meta, "rows": rows}) + "\n"
    if fmt == "csv":
        lines = [",".join(header)]
        for row in _cells(rows):
            lines.append(",".join(f'"{cell}"' if key in quoted else cell
                                  for key, cell in zip(header, row)))
    else:
        lines = [f"# {key} = {value}" for key, value in sorted(meta.items(), key=str)]
        lines += text_lines
    return "\n".join(lines) + "\n"


# json.dumps's escapes of the ASCII characters that it does not write as they are
_JSON_ESCAPES = {n: f"\\u{n:04x}" for n in (*range(32), 127)} | {
    ord(c): "\\" + e for c, e in zip('"\\\b\f\n\r\t', '"\\bfnrt')}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of dicts with str keys,
    lists, str, int, bool and None, without loading ``json`` (and its ``re``)."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json(key)}: {_json(item, inner)}" for key, item in sorted(value.items())]
        return f"{{{inner}{f',{inner}'.join(items)}{indent}}}" if items else "{}"
    if isinstance(value, list):
        items = [_json(item, inner) for item in value]
        return f"[{inner}{f',{inner}'.join(items)}{indent}]" if items else "[]"
    if isinstance(value, str):
        text = value.translate(_JSON_ESCAPES)
        if not text.isascii():  # the rest as UTF-16 code units, in native order after a BOM
            units = memoryview(text.encode("utf-16", "surrogatepass")).cast("H")[1:]
            text = "".join(chr(u) if u < 128 else f"\\u{u:04x}" for u in units)
        return f'"{text}"'
    if value is None or isinstance(value, int):  # bools are ints: True prints true
        return "null" if value is None else str(value).lower()
    raise TypeError(f"{type(value).__name__} is not rendered as JSON")


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


def _run(args: SimpleNamespace) -> tuple[str, int]:
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
        args = _parse(argv)  # argparse re-raises a radpi error from a flag's type
        text, exit_code = _run(args)
    except SystemExit as exc:  # argparse: 64 on an error, 0 after --help
        return int(exc.code or 0)
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
