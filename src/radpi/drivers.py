"""Approximant drivers: pi by deepening the recursion, pi by growing the
starting term, their combination, the unity limits, the self-consistent
arccos, the classical product cross-check, and the seed's binomial series.

Angle ratios (the pure number 2*pi/theta0) come in two kinds. For cataloged
starting terms the ratio is an exact rational and the resulting pi approximant
is genuinely free of any stored pi. For everything else the ratio is computed
from pi and a self-consistent arccos; the approximant records which kind was
used so callers can tell the two apart.
"""

from __future__ import annotations

from itertools import islice

from ._record import Record
from .arith import FixedReal, PrecisionContext, Rational, admit_cost, pi_fixed
from .errors import CatalogMissError, ConvergenceError, DomainError, PrecisionError, UsageError
from .recursion import Seed, _doubled_sines, half_angle_step, run_at_scale

# Exact 2*pi/arccos(x0) for starting terms whose angle is a rational multiple
# of pi, keyed by (x0**2, sign).
_EXACT_RATIOS: dict[tuple[Rational, int], Rational] = {
    (Rational(0), 1): Rational(4),
    (Rational(0), -1): Rational(4),
    (Rational(1, 4), 1): Rational(6),
    (Rational(1, 4), -1): Rational(3),
    (Rational(1, 2), 1): Rational(8),
    (Rational(1, 2), -1): Rational(8, 3),
    (Rational(3, 4), 1): Rational(12),
    (Rational(3, 4), -1): Rational(12, 5),
    (Rational(1), -1): Rational(2),
}

MISPRINT_DIAGNOSTIC = (
    "MISPRINT: the as-printed prefactor 1/sqrt(m*s) makes this expression "
    "decay like 1/m instead of approaching pi; use the corrected variant "
    "1/sqrt(2*m) for the convergent form"
)


class AngleRatio(Record):
    """2*pi/theta0, exact rational when cataloged, else a computed value."""

    __slots__ = ("kind", "rational", "fixed")
    _defaults = {"rational": None, "fixed": None}
    kind: str  # "exact" | "self_consistent"
    rational: Rational | None
    fixed: FixedReal | None

    def apply(self, value: FixedReal) -> FixedReal:
        if self.kind == "exact":
            return value.mul_fraction(self.rational)
        return value * self.fixed.rescale(value.scale_bits)


class Approximant(Record):
    """A single approximant: its value, the number it approaches, the method
    and angle-ratio kind that made it, and any diagnostic."""

    __slots__ = ("value", "target", "method", "ratio_kind", "diagnostic")
    _defaults = {"ratio_kind": None, "diagnostic": None}
    value: FixedReal
    target: str  # "pi" | "one"
    method: str
    ratio_kind: str | None
    diagnostic: str | None


def exact_ratio_lookup(seed: Seed) -> Rational | None:
    return _EXACT_RATIOS.get((seed.x0_squared, seed.sign))


def _self_consistent(seed: Seed, mode: str) -> bool:
    """Whether the ratio in ``mode`` takes a self-consistent arccos (mode self, or
    auto off the catalog): the plan prices it and ``_resolve_ratio`` runs it by this rule."""
    return mode == "self" or (mode == "auto" and exact_ratio_lookup(seed) is None)


def _resolve_ratio(seed: Seed, mode: str, work: int) -> AngleRatio:
    """The angle ratio in the requested mode (auto, exact, or self); a
    self-consistent ratio is computed at ``work`` bits."""
    if mode not in ("auto", "exact", "self"):
        raise DomainError(f"unknown ratio mode {mode!r}")
    if _self_consistent(seed, mode):
        theta0 = arccos_by_recursion(seed.value(work), PrecisionContext(work))
        return AngleRatio("self_consistent", fixed=pi_fixed(work) * 2 / theta0)
    rational = exact_ratio_lookup(seed)
    if rational is None:
        raise CatalogMissError(f"no exact angle ratio cataloged for seed ({seed.describe()})")
    return AngleRatio("exact", rational=rational)


class Plan(Record):
    """An admitted request: its working bits, its steps (an arccos's depth cap,
    a series' terms), its whole cost in working bits x steps, and its reference scale."""

    __slots__ = ("work", "steps", "bit_steps", "measure_bits")
    work: int
    steps: int
    bit_steps: int
    measure_bits: int


def plan(route: str, ctx: PrecisionContext | None, **params) -> Plan:
    """The plan of one request, refused by ``admit_cost`` before any work
    starts; its reference scale is 4x its working bits unless stated.

    depth    k, and a ratio's seed and ratio_mode (auto): k steps at the scale
             plus 2k + 64, or plus an explicit guard (2 bits a step over 64);
             the run, a ``_self_consistent`` ratio's arccos and their sum are
             refused in that order
    method2  m, d: one step at twice the cancelled bits plus slack, as depth
    arccos   x0_bits (0): B/2 + 24 steps at the working bits, or at an x0's
             own scale plus one when it is that fine
    taylor   m, d, terms: the exact sum, rounded once at the output scale (no
             guard); ctx None plans the sum alone
    audit    seed, k, audited_bits: both variants at the audited bits and the
             auto ratio 64 bits past the reference, measured at the context's scale
    table    a known method, params, sweep: the rows' sum, refused after each row
    """
    if route == "table":
        if params["method"] not in _TABLE_METHODS:
            raise DomainError(f"unknown table method {params['method']!r}")
        plan_row, _ = _TABLE_METHODS[params["method"]]
        work = steps = bit_steps = 0
        for index in params["sweep"]:  # stops at the first row over the bound
            row = plan_row(params["params"], index, ctx)
            work, steps = max(work, row.work), steps + row.steps
            bit_steps += row.bit_steps
            admit_cost(bit_steps)
        return Plan(work, steps, bit_steps, 4 * work) if work else Plan(ctx.working_bits, 0, 0, 0)
    if route == "arccos":
        steps, work = ctx.scale_bits // 2 + 24, ctx.working_bits
        admit_cost(work * steps, work)
        if params.get("x0_bits", 0) >= work:
            work = params["x0_bits"] + 1
            admit_cost(work * steps, work)
        return Plan(work, steps, work * steps, 4 * work)
    if route == "taylor":
        m, d, terms = Rational(params["m"]), Rational(params["d"]), params["terms"]
        if m <= 0 or d <= 0:
            raise DomainError("m and d must be positive")
        u = d**2 / m**2
        if u >= 1:
            raise DomainError("series requires d < m")
        if terms < 1:
            raise DomainError("terms must be >= 1")
        # the partial sum's numerator and denominator each grow by about the
        # bits of u's denominator plus 2 per term: the sum's working bits
        work = 2 * (u.denominator.bit_length() + 2) * terms
        admit_cost(work * terms, work)
        if ctx is None:
            return Plan(work, terms, work * terms, 0)
        # the value and its limit are built at the working bits (the limit at 4x)
        admit_cost(ctx.working_bits, ctx.working_bits)
        return Plan(ctx.scale_bits, terms, work * terms, 4 * ctx.working_bits)
    if route == "audit":
        audited, k = params["audited_bits"], params["k"]
        if audited < 24:
            raise DomainError("audited_bits must be >= 24")
        if ctx.scale_bits < 4 * audited:
            raise DomainError("reference precision must be >= 4x audited_bits")
        scale = ctx.scale_bits
        # the naive and the stable run, and the ratio 64 bits past the reference
        bit_steps = 2 * (audited + scale) * k
        if _self_consistent(params["seed"], "auto"):
            bit_steps += plan("arccos", PrecisionContext(scale + 64)).bit_steps
        admit_cost(bit_steps, scale)
        return Plan(scale + 64, k, bit_steps, scale)
    if route == "depth":
        k = steps = params["k"]
        if k < 1:
            raise DomainError("k must be >= 1")
        allowed = None if ctx.guard_bits is None else (ctx.guard_bits - 64) // 2
        if allowed is not None and allowed < k:
            raise PrecisionError(f"depth {k} exceeds precision budget "
                                 f"(guard_bits={ctx.guard_bits} allows {max(allowed, 0)})")
        work = ctx.working_bits if allowed is not None else ctx.scale_bits + 2 * k + 64
        seed = params.get("seed")
    elif route == "method2":
        m, d = Rational(params["m"]), Rational(params["d"])
        if d <= 0 or d >= m:
            raise DomainError("method2 requires 0 < d < m")
        # m - sqrt(s) ~= d**2/(2m): budget twice the cancelled bits plus slack
        cancelled = (m.numerator * d.denominator) // (m.denominator * d.numerator) + 2
        work, steps = ctx.working_bits + 64 + 4 * cancelled.bit_length(), 1
        seed = Seed(m, m**2 - d**2)
    else:
        raise UsageError(f"unknown plan route {route!r}")
    admit_cost(work * steps, work)
    bit_steps = work * steps
    if seed is not None and _self_consistent(seed, params.get("ratio_mode", "auto")):
        bit_steps += plan("arccos", PrecisionContext(work)).bit_steps
        admit_cost(bit_steps)
    return Plan(work, steps, bit_steps, 4 * work)


def pi_method1(
    seed: Seed,
    k: int,
    ctx: PrecisionContext,
    ratio_mode: str = "auto",
    variant: str = "stable",
) -> Approximant:
    """R * 2**(k-1) * sin(theta0 / 2**k) with R the angle ratio.

    Convergence is quartic per step: the error is about pi * (theta0/2**k)**2 / 6.
    """
    work = plan("depth", ctx, seed=seed, k=k, ratio_mode=ratio_mode).work
    ratio = _resolve_ratio(seed, ratio_mode, work)
    states = run_at_scale(seed, k, work, variant)
    value = ratio.apply(states[k].scaled_sine) / 2
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="pi",
        method="method1",
        ratio_kind=ratio.kind,
    )


def pi_method2(m, d, ctx: PrecisionContext, variant: str = "corrected") -> Approximant:
    """Single-step approximant from a large starting term, s = m**2 - d**2.

    corrected:  (2*pi/theta0) * sqrt((m - sqrt(s)) / (2*m)), which converges
                to pi like pi * d**2 / (24 * m**2).
    as_printed: (2*pi/theta0) * sqrt(m - sqrt(s)) / sqrt(m*s), which decays
                like sqrt(2)*pi/m and is emitted only with a MISPRINT
                diagnostic for the documented discrepancy check.
    """
    if variant not in ("corrected", "as_printed"):
        raise DomainError(f"unknown method2 variant {variant!r}")
    m, d = Rational(m), Rational(d)
    work = plan("method2", ctx, m=m, d=d).work
    s = m**2 - d**2
    ratio = _resolve_ratio(Seed(m, s), "auto", work)
    sqrt_s = FixedReal.from_fraction(s, work).sqrt()
    m_fixed = FixedReal.from_fraction(m, work)
    if variant == "corrected":
        value = ratio.apply(((m_fixed - sqrt_s) / (m_fixed * 2)).sqrt())
        diagnostic = None
    else:
        scaled = ratio.apply((m_fixed - sqrt_s).sqrt())
        value = scaled / FixedReal.from_fraction(m * s, work).sqrt()
        diagnostic = MISPRINT_DIAGNOSTIC
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="pi",
        method=f"method2_{variant}",
        ratio_kind=ratio.kind,
        diagnostic=diagnostic,
    )


def pi_combined(m, d, k: int, ctx: PrecisionContext) -> Approximant:
    """Deepen the recursion from a large starting term: error ~ pi*d**2/(6*4**k*m**2)."""
    seed = Seed.from_m_d(m, d)
    if seed.s == 0:
        raise DomainError("combined method requires d < m")
    inner = pi_method1(seed, k, ctx)
    return Approximant(inner.value, inner.target, "combined", inner.ratio_kind)


def unity_formula(seed: Seed, k: int, ctx: PrecisionContext) -> Approximant:
    """2**k * sin(theta0 / 2**k) / theta0, converging to 1 like theta0**2/(6*4**k).

    theta0 comes from the self-consistent arccos, whose internal depth always
    exceeds k by well over 16 steps at the chosen working precision.
    """
    work = plan("depth", ctx, seed=seed, k=k, ratio_mode="self").work
    theta0 = arccos_by_recursion(seed.value(work), PrecisionContext(work))
    states = run_at_scale(seed, k, work, "stable")
    value = states[k].scaled_sine / theta0
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="one",
        method="unity",
        ratio_kind="self_consistent",
    )


def arccos_by_recursion(x0: FixedReal, ctx: PrecisionContext) -> FixedReal:
    """arccos(x0) as the limit of the doubled sines 2**k * sin(theta0/2**k).

    Needs no stored value of pi: iterate the stable recursion at the working
    bits of its plan until successive doubled sines agree to
    2**(-scale_bits - 8), then round to the output scale. Result matches the
    series arccos well within 2**(-scale_bits + 16).

    x0 enters exact and each step rounds about one unit (one root, one
    division by a cosine near 1): a few N units after N steps, far below the
    2**(G - 8) tolerance. A rounded x0 would cost more: d(arccos)/dx =
    -1/sin(theta0) magnifies its error by up to 2**(s/2) at an s-bit x0 next
    to -1. So an x0 at the working bits or finer runs, and is admitted, at
    its own scale plus one, where the first step's (1 + x0)/2 is exact too.
    """
    out_bits = ctx.scale_bits
    one_in = 1 << x0.scale_bits
    if x0.mantissa < -one_in:
        raise DomainError("arccos argument below -1")
    if x0.mantissa > one_in - (1 << max(0, x0.scale_bits - out_bits // 2)):
        raise DomainError(
            "arccos argument too close to 1 for the requested precision "
            "(requires x0 <= 1 - 2**(-scale_bits/2))"
        )
    run = plan("arccos", ctx, x0_bits=x0.scale_bits)
    work = run.work
    tol = 1 << (work - out_bits - 8)
    sines = _doubled_sines(x0.rescale(work), "stable")
    _, previous = next(sines)
    for _, scaled in islice(sines, run.steps - 1):
        if abs(scaled.mantissa - previous.mantissa) < tol:
            return scaled.rescale(out_bits)
        previous = scaled
    raise ConvergenceError(
        f"arccos recursion did not converge within {run.steps} steps "
        f"at {work} working bits"
    )


def viete_product(k: int, ctx: PrecisionContext) -> Approximant:
    """2 divided by the product of the cosine iterates from x0 = 0.

    Algebraically equal to 2**(k+1) * sin(pi / 2**(k+1)); kept as a literal
    running product so it cross-checks the recursion-based route.
    """
    work = plan("depth", ctx, k=k).work
    x = FixedReal.zero(work)
    value = FixedReal.from_int(2, work)
    for _ in range(k):
        x = half_angle_step(x)
        value = value / x
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="pi",
        method="viete",
        ratio_kind="exact",
    )


def taylor_seed_exact(m, d, terms: int) -> Rational:
    """Exact partial sum of (1 - d**2/m**2)**(1/2) by the binomial series: the
    coefficients binom(1/2, j) times (-d**2/m**2)**j for j = 0..terms-1."""
    plan("taylor", None, m=m, d=d, terms=terms)
    u = Rational(d) ** 2 / Rational(m) ** 2
    total = Rational(0)
    coeff = power = Rational(1)
    for j in range(terms):
        total += coeff * power
        coeff *= (Rational(1, 2) - j) / (j + 1)
        power *= -u
    return total


# Each table method's row at a sweep index (k, or m for method2) from the
# table's params, as a pair: its plan, and its driver call. plan("table"),
# analysis.convergence_table and the CLI's compute all read this one table.
_TABLE_METHODS = {
    "method1": (
        lambda p, k, ctx: plan("depth", ctx, seed=p["seed"], k=k,
                               ratio_mode=p.get("ratio_mode", "auto")),
        lambda p, k, ctx: pi_method1(p["seed"], k, ctx, p.get("ratio_mode", "auto"),
                                     p.get("variant", "stable"))),
    **{f"method2_{variant}": (lambda p, m, ctx: plan("method2", ctx, m=m, d=p.get("d", 1)),
                              lambda p, m, ctx, v=variant: pi_method2(m, p.get("d", 1), ctx, v))
       for variant in ("corrected", "as_printed")},
    "combined": (
        lambda p, k, ctx: plan("depth", ctx, seed=Seed.from_m_d(p["m"], p.get("d", 1)), k=k),
        lambda p, k, ctx: pi_combined(p["m"], p.get("d", 1), k, ctx)),
    "unity": (
        lambda p, k, ctx: plan("depth", ctx, seed=p["seed"], k=k, ratio_mode="self"),
        lambda p, k, ctx: unity_formula(p["seed"], k, ctx)),
    "viete": (lambda p, k, ctx: plan("depth", ctx, k=k), lambda p, k, ctx: viete_product(k, ctx)),
}
