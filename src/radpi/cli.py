"""Command-line front end: compute, table, arccos, audit, reproduce, verify.

All numeric output is plain decimal strings from the fixed-point layer (no
locale, no exponent form), so identical argument vectors produce byte
identical output. Diagnostics go to stderr only.

Exit codes: 0 success, 2 domain/catalog errors, 3 precision/convergence
errors, 64 usage errors, 74 unwritable output path.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .analysis import (
    AuditRow,
    CatalogReport,
    ConvergenceReport,
    IdentityReport,
    ReportRow,
    cancellation_audit,
    convergence_table,
    correct_decimal_digits,
    reproduce_catalog,
    verify_identities,
)
from .arith import (
    FixedReal,
    PrecisionContext,
    arccos_oracle,
    decimal_digits_for_bits,
    pi_fixed,
)
from .drivers import (
    pi_combined,
    pi_method1,
    pi_method2,
    taylor_seed_exact,
    unity_formula,
    viete_product,
)
from .errors import (
    CatalogFailure,
    CatalogMissError,
    ConvergenceError,
    DomainError,
    PrecisionError,
    UsageError,
)
from .recursion import Seed

_EXIT_DOMAIN = 2
_EXIT_PRECISION = 3
_EXIT_USAGE = 64
_EXIT_IO = 74

_CSV_HEADER = "index,approximant,abs_error,correct_digits,error_ratio"


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits with 2; we use 64
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(_EXIT_USAGE)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _add_seed_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=_fraction_arg, help="starting-term base m")
    p.add_argument("--s", type=_fraction_arg, help="starting-term radicand s")
    p.add_argument("--sign", choices=["+", "-"], default="+",
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


def build_parser() -> _Parser:
    parser = _Parser(prog="radpi", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    compute = sub.add_parser("compute", help="evaluate a single approximant")
    compute.add_argument("--method", required=True,
                         choices=["method1", "method2", "combined", "unity", "viete", "taylor"])
    compute.add_argument("--variant",
                         choices=["stable", "naive", "corrected", "as-printed"],
                         default=None)
    compute.add_argument("--ratio-mode", choices=["auto", "exact", "self"], default="auto")
    compute.add_argument("--k", type=int, default=None, help="recursion depth")
    compute.add_argument("--terms", type=int, default=None, help="series terms (taylor)")
    _add_seed_flags(compute)
    _add_common_flags(compute)

    table = sub.add_parser("table", help="convergence table over a sweep")
    table.add_argument("--method", required=True,
                       choices=["method1", "method2", "combined", "unity", "viete"])
    table.add_argument("--variant",
                       choices=["stable", "naive", "corrected", "as-printed"], default=None)
    table.add_argument("--ratio-mode", choices=["auto", "exact", "self"], default="auto")
    table.add_argument("--k-range", type=str, default=None, help="inclusive LO:HI depth sweep")
    table.add_argument("--m-range", type=str, default=None,
                       help="comma-separated starting-term bases, e.g. 100,1000,10000")
    _add_seed_flags(table)
    _add_common_flags(table)

    arccos_cmd = sub.add_parser("arccos", help="self-consistent arccos of a starting term")
    _add_seed_flags(arccos_cmd)
    _add_common_flags(arccos_cmd)

    audit = sub.add_parser("audit", help="naive vs stable cancellation audit")
    audit.add_argument("--k", type=int, default=40, help="maximum depth (default 40)")
    audit.add_argument("--audited-bits", type=int, default=53,
                       help="raw working precision under audit (default 53)")
    _add_seed_flags(audit)
    _add_common_flags(audit)

    reproduce = sub.add_parser("reproduce", help="reproduce the four classical formulas")
    _add_common_flags(reproduce)

    verify = sub.add_parser("verify", help="run the identity verification suite")
    _add_common_flags(verify)

    return parser


def _seed_from_args(args: argparse.Namespace, default: Seed | None = None) -> Seed:
    if args.x0 is not None:
        return Seed.from_x0(args.x0)
    if args.m is not None and args.d is not None and args.s is None:
        return Seed.from_m_d(args.m, args.d, 1 if args.sign == "+" else -1)
    if args.m is not None and args.s is not None:
        return Seed(args.m, args.s, 1 if args.sign == "+" else -1)
    if default is not None:
        return default
    raise UsageError("a seed is required: --m with --s (or --d), or --x0")


def _parse_k_range(text: str) -> list[int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise UsageError("--k-range must be LO:HI")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError as exc:
        raise UsageError("--k-range must be LO:HI with integers") from exc
    if lo_i < 1 or hi_i < lo_i:
        raise UsageError("--k-range must satisfy 1 <= LO <= HI")
    return list(range(lo_i, hi_i + 1))


def _parse_m_range(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise UsageError("--m-range must be comma-separated integers") from exc
    if not values:
        raise UsageError("--m-range is empty")
    return values


def _target_reference(target: str, scale: int) -> FixedReal:
    return FixedReal.one(scale) if target == "one" else pi_fixed(scale)


def _single_row_report(
    index: int, value: FixedReal, reference: FixedReal, meta: dict
) -> ConvergenceReport:
    """One exactly-recomputable row: the error is taken against the printed
    approximant parsed at the measurement scale recorded in meta."""
    digits = decimal_digits_for_bits(value.scale_bits)
    shown = value.to_decimal(digits)
    err = abs(FixedReal.from_decimal(shown, reference.scale_bits) - reference)
    meta = dict(meta)
    meta["measure_bits"] = reference.scale_bits
    row = ReportRow(
        index=index,
        approximant=shown,
        abs_error=err.rescale(value.scale_bits).to_decimal(digits),
        correct_digits=correct_decimal_digits(err),
        error_ratio=None,
    )
    return ConvergenceReport(rows=[row], meta=meta)


def _cmd_compute(args: argparse.Namespace) -> ConvergenceReport:
    ctx = PrecisionContext(args.bits, args.guard_bits)
    method = args.method
    if method in ("method1", "unity", "viete") and args.k is None:
        raise UsageError(f"{method} requires --k")
    if method == "method1":
        seed = _seed_from_args(args)
        k = args.k
        variant = args.variant or "stable"
        if variant not in ("stable", "naive"):
            raise UsageError("method1 variants are stable|naive")
        ratio_mode = "self" if args.x0 is not None else args.ratio_mode
        approx = pi_method1(seed, k, ctx, ratio_mode, variant)
        index = k
    elif method == "method2":
        if args.m is None or args.d is None:
            raise UsageError("method2 requires --m and --d")
        variant = args.variant or "corrected"
        if variant not in ("corrected", "as-printed"):
            raise UsageError("method2 variants are corrected|as-printed")
        approx = pi_method2(args.m, args.d, ctx, variant.replace("-", "_"))
        index = int(args.m)
    elif method == "combined":
        if args.m is None or args.d is None or args.k is None:
            raise UsageError("combined requires --m, --d and --k")
        approx = pi_combined(args.m, args.d, args.k, ctx)
        index = args.k
    elif method == "unity":
        seed = _seed_from_args(args)
        approx = unity_formula(seed, args.k, ctx)
        index = args.k
    elif method == "viete":
        approx = viete_product(args.k, ctx)
        index = args.k
    else:  # taylor
        if args.m is None or args.d is None or args.terms is None:
            raise UsageError("taylor requires --m, --d and --terms")
        return _compute_taylor(args, ctx)

    if approx.diagnostic:
        print(approx.diagnostic, file=sys.stderr)
    guard = int(approx.params["guard_bits"])
    scale = 4 * (ctx.scale_bits + guard)
    reference = _target_reference(approx.target, scale)
    meta = {
        "method": approx.method,
        "params": approx.params,
        "ratio_kind": approx.ratio_kind,
        "target": approx.target,
        "bits": ctx.scale_bits,
        "guard_bits": guard,
        "oracle_digits": decimal_digits_for_bits(ctx.scale_bits),
    }
    return _single_row_report(index, approx.value, reference, meta)


def _compute_taylor(args: argparse.Namespace, ctx: PrecisionContext) -> ConvergenceReport:
    partial = taylor_seed_exact(args.m, args.d, args.terms)
    value = FixedReal.from_fraction(partial, ctx.scale_bits)
    scale = 4 * ctx.working_bits
    limit = FixedReal.from_fraction(
        Fraction(args.m) ** 2 - Fraction(args.d) ** 2, scale
    ).sqrt() / FixedReal.from_fraction(args.m, scale)
    meta = {
        "method": "taylor",
        "params": {"m": str(args.m), "d": str(args.d), "terms": str(args.terms)},
        "target": "seed_value",
        "bits": ctx.scale_bits,
        "guard_bits": ctx.working_bits - ctx.scale_bits,
        "oracle_digits": decimal_digits_for_bits(ctx.scale_bits),
    }
    return _single_row_report(args.terms, value, limit, meta)


def _cmd_table(args: argparse.Namespace) -> ConvergenceReport:
    ctx = PrecisionContext(args.bits, args.guard_bits)
    method = args.method
    if method == "method2":
        variant = args.variant or "corrected"
        if variant not in ("corrected", "as-printed"):
            raise UsageError("method2 variants are corrected|as-printed")
        if args.m_range is None:
            raise UsageError("method2 tables sweep --m-range")
        sweep = _parse_m_range(args.m_range)
        d = args.d if args.d is not None else Fraction(1)
        return convergence_table(
            f"method2_{variant.replace('-', '_')}", {"d": d}, sweep, ctx
        )
    if args.k_range is None:
        raise UsageError("this method sweeps --k-range")
    sweep = _parse_k_range(args.k_range)
    if method == "method1":
        seed = _seed_from_args(args)
        ratio_mode = "self" if args.x0 is not None else args.ratio_mode
        params = {"seed": seed, "ratio_mode": ratio_mode, "variant": args.variant or "stable"}
        return convergence_table("method1", params, sweep, ctx)
    if method == "combined":
        if args.m is None:
            raise UsageError("combined tables require --m")
        d = args.d if args.d is not None else Fraction(1)
        return convergence_table("combined", {"m": args.m, "d": d}, sweep, ctx)
    if method == "unity":
        seed = _seed_from_args(args)
        return convergence_table("unity", {"seed": seed}, sweep, ctx)
    return convergence_table("viete", {}, sweep, ctx)


def _cmd_arccos(args: argparse.Namespace) -> ConvergenceReport:
    from .drivers import arccos_by_recursion

    ctx = PrecisionContext(args.bits, args.guard_bits)
    seed = _seed_from_args(args)
    x0 = seed.value(ctx.scale_bits)
    value = arccos_by_recursion(x0, ctx)
    scale = 4 * ctx.working_bits
    reference = arccos_oracle(x0.rescale(scale), PrecisionContext(scale))
    meta = {
        "method": "arccos_by_recursion",
        "params": {"seed": seed.describe()},
        "target": "arccos",
        "bits": ctx.scale_bits,
        "guard_bits": ctx.working_bits - ctx.scale_bits,
        "oracle_digits": decimal_digits_for_bits(ctx.scale_bits),
    }
    return _single_row_report(0, value, reference, meta)


def _cmd_audit(args: argparse.Namespace) -> tuple[list[AuditRow], dict]:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    seed = _seed_from_args(args, default=Seed(2, 2, 1))
    reference = PrecisionContext(max(args.bits, 4 * args.audited_bits), args.guard_bits)
    rows = cancellation_audit(seed, args.k, args.audited_bits, reference)
    meta = {
        "method": "cancellation_audit",
        "params": {"seed": seed.describe(), "audited_bits": str(args.audited_bits)},
        "bits": reference.scale_bits,
        "oracle_digits": decimal_digits_for_bits(reference.scale_bits),
    }
    return rows, meta


# -- rendering ----------------------------------------------------------------


def _render_json(payload: dict) -> str:
    import json  # imported here so that text and csv requests never load it

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def render_report(report: ConvergenceReport, fmt: str) -> str:
    if fmt == "csv":
        lines = [_CSV_HEADER]
        for r in report.rows:
            digits = "" if r.correct_digits is None else str(r.correct_digits)
            lines.append(
                f"{r.index},{r.approximant},{r.abs_error},{digits},{r.error_ratio or ''}"
            )
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _render_json({
            "meta": report.meta,
            "rows": [
                {
                    "index": r.index,
                    "approximant": r.approximant,
                    "abs_error": r.abs_error,
                    "correct_digits": r.correct_digits,
                    "error_ratio": r.error_ratio,
                }
                for r in report.rows
            ],
        })
    lines = [f"# {key} = {value}" for key, value in sorted(report.meta.items(), key=str)]
    if not report.rows:
        return "\n".join(lines + ["(no rows)"]) + "\n"
    headers = ["index", "approximant", "abs_error", "digits", "ratio"]
    table = [
        [
            str(r.index),
            r.approximant,
            r.abs_error,
            "" if r.correct_digits is None else str(r.correct_digits),
            r.error_ratio or "",
        ]
        for r in report.rows
    ]
    widths = [max(len(h), *(len(row[i]) for row in table)) for i, h in enumerate(headers)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip())
    for row in table:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def render_audit(rows: list[AuditRow], meta: dict, fmt: str) -> str:
    digits = decimal_digits_for_bits(53) + 14
    rendered = [
        {
            "k": r.k,
            "naive_error": r.naive_error.rescale(120).to_decimal(digits),
            "stable_error": r.stable_error.rescale(120).to_decimal(digits),
            "digits_lost": r.digits_lost,
        }
        for r in rows
    ]
    if fmt == "csv":
        lines = ["k,naive_error,stable_error,digits_lost"]
        lines += [f"{r['k']},{r['naive_error']},{r['stable_error']},{r['digits_lost']}" for r in rendered]
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return _render_json({"meta": meta, "rows": rendered})
    lines = [f"# {key} = {value}" for key, value in sorted(meta.items(), key=str)]
    widths = {
        "k": max(len(str(r["k"])) for r in rendered),
        "n": max(len(r["naive_error"]) for r in rendered),
        "s": max(len(r["stable_error"]) for r in rendered),
    }
    lines.append("k".ljust(widths["k"]) + "  " + "naive_error".ljust(widths["n"])
                 + "  " + "stable_error".ljust(widths["s"]) + "  digits_lost")
    for r in rendered:
        lines.append(
            str(r["k"]).ljust(widths["k"]) + "  " + r["naive_error"].ljust(widths["n"])
            + "  " + r["stable_error"].ljust(widths["s"]) + "  " + str(r["digits_lost"])
        )
    return "\n".join(lines) + "\n"


def render_catalog(report: CatalogReport, fmt: str) -> str:
    rows = [
        {
            "form": r.name,
            "seed": r.seed,
            "prefactor_exact": r.prefactor_exact,
            "radical_shape_ok": r.radical_shape_ok,
            "converged": r.converged,
            "abs_error_at_depth": r.error_at_depth.rescale(128).to_decimal(20),
        }
        for r in report.results
    ]
    if fmt == "json":
        return _render_json({"meta": report.meta, "rows": rows})
    if fmt == "csv":
        lines = ["form,seed,prefactor_exact,radical_shape_ok,converged,abs_error_at_depth"]
        for r in rows:
            lines.append(
                f"\"{r['form']}\",\"{r['seed']}\",{r['prefactor_exact']},"
                f"{r['radical_shape_ok']},{r['converged']},{r['abs_error_at_depth']}"
            )
        return "\n".join(lines) + "\n"
    lines = [f"# {key} = {value}" for key, value in sorted(report.meta.items(), key=str)]
    for r in rows:
        lines.append(f"PASS {r['form']}  [seed {r['seed']}, error {r['abs_error_at_depth']}]")
    return "\n".join(lines) + "\n"


def render_identities(report: IdentityReport, fmt: str) -> str:
    rows = [
        {
            "identity": r.name,
            "passed": r.passed,
            "worst_residual": r.worst_residual,
            "detail": r.detail,
        }
        for r in report.results
    ]
    if fmt == "json":
        return _render_json({"meta": report.meta, "rows": rows})
    if fmt == "csv":
        lines = ["identity,passed,worst_residual,detail"]
        for r in rows:
            lines.append(
                f"\"{r['identity']}\",{r['passed']},\"{r['worst_residual']}\",\"{r['detail']}\""
            )
        return "\n".join(lines) + "\n"
    lines = [f"# {key} = {value}" for key, value in sorted(report.meta.items(), key=str)]
    for r in rows:
        status = "PASS" if r["passed"] else "FAIL"
        lines.append(f"{status} {r['identity']}  [{r['worst_residual']}]")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(text)


def run_command(argv: list[str] | None = None) -> int:
    """Dispatch one command line; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # our parser raises 64; --help raises 0
        return int(exc.code or 0)

    exit_code = 0
    try:
        if args.subcommand == "compute":
            text = render_report(_cmd_compute(args), args.format)
        elif args.subcommand == "table":
            text = render_report(_cmd_table(args), args.format)
        elif args.subcommand == "arccos":
            text = render_report(_cmd_arccos(args), args.format)
        elif args.subcommand == "audit":
            rows, meta = _cmd_audit(args)
            text = render_audit(rows, meta, args.format)
        elif args.subcommand == "reproduce":
            ctx = PrecisionContext(args.bits, args.guard_bits)
            text = render_catalog(reproduce_catalog(ctx), args.format)
        else:  # verify
            ctx = PrecisionContext(args.bits, args.guard_bits)
            report = verify_identities(ctx)
            text = render_identities(report, args.format)
            if not report.all_passed:
                exit_code = 1
    except (DomainError, CatalogMissError, CatalogFailure) as exc:
        print(f"radpi: error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (PrecisionError, ConvergenceError) as exc:
        print(f"radpi: error: {exc}", file=sys.stderr)
        return _EXIT_PRECISION
    except UsageError as exc:
        print(f"radpi: usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE

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
