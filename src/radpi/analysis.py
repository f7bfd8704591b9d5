"""Convergence tabulation, the naive-vs-stable cancellation audit,
reproduction of the four classical catalog formulas, and the identity
verification suite.

Errors are always measured against the series references at a precision at
least four times the working precision of the audited computation, so the
reference never pollutes reported digits.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import islice

from ._record import Record
from .arith import (_LOG10_2_DEN, _LOG10_2_NUM, FixedReal, PrecisionContext, Rational,
                    _rational_text, decimal_digits_for_bits, pi_fixed)
from .drivers import (
    Approximant,
    Plan,
    _TABLE_METHODS,
    _resolve_ratio,
    exact_ratio_lookup,
    pi_method1,
    plan,
    viete_product,
)
from .errors import CatalogFailure, DomainError
from .recursion import (
    Seed,
    _doubled_sines,
    f_power_form,
    nested_literal,
    run_at_scale,
    scale_factors,
)

_RATIO_DIGITS = 6


class ReportRow(Record):
    __slots__ = ("index", "approximant", "abs_error", "correct_digits", "error_ratio")
    index: int
    approximant: str
    abs_error: str
    correct_digits: int | None
    error_ratio: str | None


class Report(Record):
    """The rows of one analysis and the meta that labels them: a convergence
    table's ``ReportRow``s, the audit's ``AuditRow``s, the catalog's
    ``CatalogResult``s or the identity suite's ``IdentityResult``s.

    A convergence table's rows are exactly recomputable: parsing a row's
    approximant string at meta["measure_bits"] and differencing against the
    reference at that scale reproduces the stored abs_error string byte for
    byte.
    """

    __slots__ = ("rows", "meta")
    rows: list
    meta: dict[str, object]


class AuditRow(Record):
    __slots__ = ("k", "naive_error", "stable_error", "digits_lost")
    k: int
    naive_error: FixedReal
    stable_error: FixedReal
    digits_lost: int


def correct_decimal_digits(err: FixedReal) -> int | None:
    """floor(-log10 |err|), exactly, from the integer mantissa; None for zero."""
    m = abs(err.mantissa)
    if m == 0:
        return None
    cap = 1 << err.scale_bits
    if m <= cap:
        # largest d >= 0 with m * 10**d <= cap; bit-length estimate, then settle
        d = max(0, (cap.bit_length() - m.bit_length() - 1) * _LOG10_2_NUM // _LOG10_2_DEN - 1)
        while m * 10 ** (d + 1) <= cap:
            d += 1
        return d
    t = 1
    while m > cap * 10**t:
        t += 1
    return -t


def _target_value(target: str, scale: int) -> FixedReal:
    if target == "pi":
        return pi_fixed(scale)
    if target == "one":
        return FixedReal.from_fraction(1, scale)
    raise DomainError(f"no reference value for target {target!r}")


def _measure_row(
    index: int, value: FixedReal, reference: FixedReal, prev_err: FixedReal | None
) -> tuple[ReportRow, FixedReal]:
    """One report row and its error.

    The error is taken against the printed approximant parsed at the
    reference's scale, so it is exactly recomputable from the row; the ratio
    is prev_err over this error, empty without a positive prev_err.
    """
    digits = decimal_digits_for_bits(value.scale_bits)
    shown = value.to_decimal(digits)
    err = abs(FixedReal.from_fraction(Rational(shown), reference.scale_bits) - reference)
    ratio = None
    if prev_err is not None and err.mantissa > 0 and prev_err.mantissa > 0:
        ratio = (prev_err / err).to_decimal(_RATIO_DIGITS)
    row = ReportRow(
        index=index,
        approximant=shown,
        abs_error=err.rescale(value.scale_bits).to_decimal(digits),
        correct_digits=correct_decimal_digits(err),
        error_ratio=ratio,
    )
    return row, err


def convergence_table(
    method: str, params: dict, sweep: Sequence[int], ctx: PrecisionContext
) -> Report:
    """One row per sweep index (recursion depth k, or starting term m).

    The whole sweep is refused before its first row if its method is unknown
    or its rows together are over the cost bound. error_ratio is previous
    abs_error over current abs_error; the first row's ratio is empty.
    """
    table, approximants, reference = _table_rows(method, params, sweep, ctx)
    return _report(sweep, [a.value for a in approximants], reference, ctx, table.work,
                   method, params)


def _table_rows(
    method: str, params: dict, sweep: Sequence[int], ctx: PrecisionContext
) -> tuple[Plan, list[Approximant], FixedReal | None]:
    """A sweep's plan("table"), its rows' approximants from the method's
    driver, and their reference at the plan's measure scale (None without a
    row): a table's rows, or compute's one."""
    table = plan("table", ctx, method=method, params=params, sweep=sweep)
    approximants = [_TABLE_METHODS[method][1](params, index, ctx) for index in sweep]
    reference = _target_value(approximants[0].target, table.measure_bits) if approximants else None
    return table, approximants, reference


def _param_text(params: dict) -> dict[str, str]:
    """A report's params as printed, in their given order: a seed described,
    an int or a rational in exact digits, anything else by ``str``."""
    return {key: value.describe() if isinstance(value, Seed)
            else _rational_text(value) if isinstance(value, (int, Rational)) else str(value)
            for key, value in params.items()}


def _report(
    indices: Sequence[int], values: Sequence[FixedReal], reference: FixedReal | None,
    ctx: PrecisionContext, work: int, method: str, params: dict, **labels,
) -> Report:
    """Rows of values measured against the reference, each error ratio taken
    over the row before; the labels gain the method, the params as printed,
    and the precision keys of every report (the guard over ``work``,
    measure_bits 0 without a reference)."""
    rows: list[ReportRow] = []
    prev_err: FixedReal | None = None
    for index, value in zip(indices, values):
        row, prev_err = _measure_row(index, value, reference, prev_err)
        rows.append(row)
    labels.update(method=method, params=_param_text(params),
                  bits=ctx.scale_bits, guard_bits=work - ctx.scale_bits,
                  measure_bits=0 if reference is None else reference.scale_bits,
                  oracle_digits=decimal_digits_for_bits(ctx.scale_bits))
    return Report(rows, labels)


def cancellation_audit(
    seed: Seed, k_max: int, audited_bits: int, ctx_reference: PrecisionContext
) -> Report:
    """Read both variants of the doubled-sine loop (``_doubled_sines``) from x0
    at a raw fixed scale and measure both against a far more precise reference.

    The naive error shows the characteristic U shape (truncation falls, then
    amplified cancellation noise climbs until the sine collapses entirely);
    the stable error falls to the rounding floor of about k units and stays.
    The meta names the method, the params as printed, and the reference's bits
    and oracle digits.
    """
    audit = plan("audit", ctx_reference, seed=seed, k=k_max, audited_bits=audited_bits)
    scale = audit.measure_bits
    ratio = _resolve_ratio(seed, "auto", audit.work)
    pi_ref = pi_fixed(scale)
    x0 = seed.value(audited_bits)
    rows: list[AuditRow] = []
    for k, (_, naive), (_, stable) in zip(range(1, k_max + 1), _doubled_sines(x0, "naive"),
                                          _doubled_sines(x0, "stable")):
        naive_err, stable_err = (abs((ratio.apply(sine) / 2).rescale(scale) - pi_ref)
                                 for sine in (naive, stable))
        lost = (correct_decimal_digits(stable_err) or 0) - (correct_decimal_digits(naive_err) or 0)
        rows.append(AuditRow(k=k, naive_error=naive_err, stable_error=stable_err, digits_lost=lost))
    return Report(rows, {"method": "cancellation_audit",
                         "params": _param_text({"seed": seed, "audited_bits": audited_bits}),
                         "bits": scale, "oracle_digits": decimal_digits_for_bits(scale)})


# -- classical catalog --------------------------------------------------------


class CatalogEntry(Record):
    """One classical formula: its printed coefficient factor * 2**(n + shift)
    times an all-twos nested radical of n square roots."""

    __slots__ = ("name", "seed", "factor", "shift")
    name: str  # the formula as printed, e.g. "2^n * sqrt(2 - ...)"
    seed: Seed
    factor: Rational
    shift: int

    def coefficient(self, n: int) -> Rational:
        return self.factor * Rational(2) ** (n + self.shift)


# the depth every catalog check runs to, and how close to pi it must end
_CATALOG_DEPTH = 25
_CATALOG_TOLERANCE = Rational(1, 10**12)

CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("2^n * sqrt(2 - sqrt(2 + ... + sqrt(2 + sqrt(2))))",
                 Seed(2, 2, 1), Rational(1), 0),
    CatalogEntry("3*2^(n-1) * sqrt(2 - sqrt(2 + ... + sqrt(2 + sqrt(3))))",
                 Seed(2, 3, 1), Rational(3), -1),
    CatalogEntry("(3/5)*2^(n-1) * sqrt(2 - sqrt(2 + ... + sqrt(2 - sqrt(3))))",
                 Seed(2, 3, -1), Rational(3, 5), -1),
    CatalogEntry("(4/3)*2^(n-2) * sqrt(2 - sqrt(2 + ... + sqrt(2 - sqrt(2))))",
                 Seed(2, 2, -1), Rational(4, 3), -2),
)


class CatalogResult(Record):
    """A formula that passed every check (a failed one raises CatalogFailure)."""

    __slots__ = ("name", "seed", "error_at_depth")
    name: str
    seed: str
    error_at_depth: FixedReal


def _printed_all_twos_radical(s: Rational, inner_sign: int, n: int, scale: int) -> FixedReal:
    """The classical radical with n square roots, hard-coded for m = 2:
    sqrt(2 - sqrt(2 + ... + sqrt(2 +- sqrt(s)))). Independent of the engine's
    chain construction, so it checks the radical shape."""
    t = FixedReal.from_fraction(s, scale).sqrt()
    if inner_sign < 0:
        t = -t
    two = FixedReal.from_fraction(2, scale)
    for _ in range(n - 2):
        t = (two + t).sqrt()
    return (two - t).sqrt()


def reproduce_catalog(ctx: PrecisionContext) -> Report:
    """Verify the four classical formulas against the general machinery.

    For each entry: (a) the engine prefactor R * 2**(k-1) / f(k+2) reduces to
    the printed coefficient at n = k + 1 as an exact rational for every k up
    to the depth, (b) the literal all-twos radical matches the engine value,
    and (c) the depth-25 approximant is within the tolerance of pi. Any
    mismatch raises CatalogFailure naming the formula.
    """
    catalog = plan("depth", ctx, k=_CATALOG_DEPTH)
    work, scale = catalog.work, catalog.measure_bits
    tol_fixed = FixedReal.from_fraction(_CATALOG_TOLERANCE, scale)
    results = []
    for entry in CATALOG:
        ratio = exact_ratio_lookup(entry.seed)
        if ratio is None:
            raise CatalogFailure(f"{entry.name}: seed unexpectedly uncataloged")
        for k in range(1, _CATALOG_DEPTH + 1):
            f_log2 = f_power_form(k + 2, entry.seed.m).exact_log2()
            if f_log2 is None:
                raise CatalogFailure(f"{entry.name}: scale factor not exact at k={k}")
            # R * 2**(k-1) / 2**f_log2 = factor * 2**(k+1+shift) exactly when
            # R = factor * 2**d, checked cross-multiplied on integers
            d = entry.shift + 2 + f_log2
            if (ratio.numerator * entry.factor.denominator << max(-d, 0)
                    != entry.factor.numerator * ratio.denominator << max(d, 0)):
                raise CatalogFailure(
                    f"{entry.name}: prefactor {ratio * Rational(2) ** (k - 1 - f_log2)} "
                    f"!= printed {entry.coefficient(k + 1)} at n={k + 1}"
                )
        shape_k = 8
        printed = _printed_all_twos_radical(
            entry.seed.s, entry.seed.sign, shape_k + 1, work
        ).mul_fraction(entry.coefficient(shape_k + 1))
        via_literal = nested_literal(entry.seed, shape_k, ctx).rescale(work).mul_fraction(
            ratio * Rational(2) ** (shape_k - 1)
        )
        shape_gap = abs(printed - via_literal)
        # both routes agree to ~2^(-B + 2k) absolute; structural mismatches are O(1)
        if shape_gap.mantissa > (1 << (work - ctx.scale_bits + 2 * shape_k + 16)):
            raise CatalogFailure(f"{entry.name}: literal radical shape mismatch")
        approx = pi_method1(entry.seed, _CATALOG_DEPTH, ctx, "exact")
        err = abs(approx.value.rescale(scale) - pi_fixed(scale))  # the rescale up is exact
        if not err < tol_fixed:
            raise CatalogFailure(
                f"{entry.name}: depth-{_CATALOG_DEPTH} approximant off by {err.to_decimal(18)}"
            )
        results.append(CatalogResult(entry.name, entry.seed.describe(), err))
    meta = {
        "depth": _CATALOG_DEPTH,
        "bits": ctx.scale_bits,
        "index_shift": "printed n = engine k + 1",
        "tolerance": str(_CATALOG_TOLERANCE),
    }
    return Report(results, meta)


# -- identity suite -----------------------------------------------------------


class IdentityResult(Record):
    __slots__ = ("name", "passed", "worst_residual", "detail")
    name: str
    passed: bool
    worst_residual: str
    detail: str


def _within(pairs) -> tuple[bool, int]:
    """Whether every (residual, bound) pair has residual < bound, and the worst
    residual (0 for no pairs)."""
    passed, worst = True, 0
    for residual, bound in pairs:
        passed = passed and residual < bound
        worst = max(worst, residual)
    return passed, worst


def _theta0(seed: Seed, scale_bits: int) -> FixedReal:
    """theta0 = 2*pi/R of a cataloged seed, from its exact angle ratio R and
    the Chudnovsky pi: a fixed cost at any precision, and independent of the
    doubled sines it bounds."""
    return pi_fixed(scale_bits).mul_fraction(2 / exact_ratio_lookup(seed))


def verify_identities(ctx: PrecisionContext) -> Report:
    """Run the recursion module's invariant suite and report per-identity
    pass/fail with worst-case residuals."""
    seeds = [entry.seed for entry in CATALOG]
    results = []

    # each m's forms f(2), ..., f(65) built once; neighbours compared for k in [2, 64]
    scale_ok = all(nxt.squared() == form.times_two()
                   for forms in ([f_power_form(k, m) for k in range(2, 66)] for m in (2, 3, 5, 10))
                   for form, nxt in zip(forms, forms[1:]))
    results.append(
        IdentityResult(
            "scale identity f(k+1)^2 = 2 f(k) (exact exponents, k in [2,64], m in {2,3,5,10})",
            scale_ok, "0", "rational exponent arithmetic",
        )
    )

    # the depth-20 runs and the depth-30 doubled sines, both admitted before either runs
    depth = 20
    work, mono_work = plan("depth", ctx, k=depth).work, plan("depth", ctx, k=30).work
    runs = [(seed, run_at_scale(seed, depth, work)) for seed in seeds]
    states = [st for _, run in runs for st in run]
    one = FixedReal.from_fraction(1, work)
    pyth_ok, pyth_worst = _within(
        (abs((st.x * st.x + st.c * st.c - one).mantissa), 1 << (st.k + 6)) for st in states
    )
    results.append(
        IdentityResult(
            "pythagorean x^2 + c^2 = 1 within 2^(-B+k+6)",
            pyth_ok, f"{pyth_worst} units at {work} bits", f"4 seeds, k <= {depth}",
        )
    )
    norm_ok, norm_worst = _within(
        (abs((st.x * st.f - st.g).mantissa), 1 << (st.k + 6)) for st in states
    )
    results.append(
        IdentityResult(
            "normalization x * f = g within 2^(-B+k+6)",
            norm_ok, f"{norm_worst} units at {work} bits", f"4 seeds, k <= {depth}",
        )
    )

    lit_ok, lit_worst = _within(
        (abs((nested_literal(seed, k, ctx) - run[k].c.rescale(ctx.scale_bits)).mantissa),
         1 << (2 * k + 8))
        for seed, run in runs for k in (1, 2, 5, 10, 15, 20)
    )
    results.append(
        IdentityResult(
            "literal radical = stable recursion within 2^(-B+2k+8)",
            lit_ok, f"worst gap < 2^{lit_worst.bit_length()} units at {ctx.scale_bits} bits",
            f"4 seeds, k <= {depth}",
        )
    )

    seed0 = Seed(1, 0, 1)
    viete_ok, viete_worst = _within(
        (abs((viete_product(k, ctx).value - pi_method1(seed0, k, ctx, "exact").value).mantissa),
         1 << 8)
        for k in (1, 5, 10, 20, 30)
    )
    results.append(
        IdentityResult(
            "product form = matched recursion form within 2^(-B+8)",
            viete_ok, f"{viete_worst} units at {ctx.scale_bits} bits", "k in {1,5,10,20,30}",
        )
    )

    # each seed's doubled sines for k <= 30 at the depth-30 scale, then its
    # theta0 from the exact ratio, not from the recursion under test
    chains = [
        [*(s for _, s in islice(_doubled_sines(seed.value(mono_work), "stable"), 30)),
         _theta0(seed, mono_work)]
        for seed in seeds
    ]
    mono_ok = all(a < b for chain in chains for a, b in zip(chain, chain[1:]))
    results.append(
        IdentityResult(
            "doubled sines strictly increase and stay below theta0",
            mono_ok, "-", "4 seeds, k <= 30",
        )
    )

    # |f(k) - 2| = 2(e^u - 1) with u = ln(m/2)/2^(k-2), bounded by u*f(k), and
    # exactly 0 at m = 2 (where u = 0); compared exactly on integers, in units
    # of 2**-work with u = a/b the float's exact ratio: 2**work overflows a float
    two = FixedReal.from_fraction(2, work)
    f_ok = True
    for m in (2, 3, 5, 10):
        for k, f in scale_factors(m, 40, work).items():
            if k >= 6:
                a, b = (abs(math.log(m / 2)) / 2 ** (k - 2)).as_integer_ratio()
                gap = abs(f - two).mantissa
                f_ok = f_ok and gap * b <= a * f.mantissa + (0 if m == 2 else b << 8)
    results.append(
        IdentityResult(
            "scale factor tends to 2: |f(k) - 2| <= |ln(m/2)|/2^(k-2) * f(k), exact 2 at m=2",
            f_ok, "-", "m in {2,3,5,10}, k in [6,40]",
        )
    )

    return Report(results, {"bits": ctx.scale_bits, "working_bits": work})
