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

from fractions import Fraction
from itertools import islice

from ._record import NEW_DICT, Record
from .arith import FixedReal, PrecisionContext, pi_fixed
from .errors import CatalogMissError, ConvergenceError, DomainError
from .recursion import Seed, _doubled_sines, half_angle_step, run_at_scale

# Exact 2*pi/arccos(x0) for starting terms whose angle is a rational multiple
# of pi, keyed by (x0**2, sign).
_EXACT_RATIOS: dict[tuple[Fraction, int], Fraction] = {
    (Fraction(0), 1): Fraction(4),
    (Fraction(0), -1): Fraction(4),
    (Fraction(1, 4), 1): Fraction(6),
    (Fraction(1, 4), -1): Fraction(3),
    (Fraction(1, 2), 1): Fraction(8),
    (Fraction(1, 2), -1): Fraction(8, 3),
    (Fraction(3, 4), 1): Fraction(12),
    (Fraction(3, 4), -1): Fraction(12, 5),
    (Fraction(1), -1): Fraction(2),
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
    rational: Fraction | None
    fixed: FixedReal | None

    def apply(self, value: FixedReal) -> FixedReal:
        if self.kind == "exact":
            return value.mul_fraction(self.rational)
        return value * self.fixed.rescale(value.scale_bits)


class Approximant(Record):
    """A single approximant with the parameters needed to reproduce it."""

    __slots__ = ("value", "target", "method", "params", "ratio_kind", "diagnostic")
    _defaults = {"params": NEW_DICT, "ratio_kind": None, "diagnostic": None}
    value: FixedReal
    target: str  # "pi" | "one" | "seed_value"
    method: str
    params: dict[str, str]
    ratio_kind: str | None
    diagnostic: str | None


def exact_ratio_lookup(seed: Seed) -> Fraction | None:
    return _EXACT_RATIOS.get((seed.x0_squared, seed.sign))


def _resolve_ratio(seed: Seed, mode: str, work: int) -> AngleRatio:
    """The angle ratio in the requested mode (auto, exact, or self); a
    self-consistent ratio is computed at ``work`` bits."""
    if mode not in ("auto", "exact", "self"):
        raise DomainError(f"unknown ratio mode {mode!r}")
    if mode in ("auto", "exact"):
        rational = exact_ratio_lookup(seed)
        if rational is not None:
            return AngleRatio("exact", rational=rational)
        if mode == "exact":
            raise CatalogMissError(
                f"no exact angle ratio cataloged for seed ({seed.describe()})"
            )
    theta0 = arccos_by_recursion(seed.value(work), PrecisionContext(work))
    two_pi = pi_fixed(work) * 2
    return AngleRatio("self_consistent", fixed=two_pi / theta0)


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
    if k < 1:
        raise DomainError("k must be >= 1")
    work = ctx.scale_bits + ctx.guard_for_depth(k)
    ratio = _resolve_ratio(seed, ratio_mode, work)
    states = run_at_scale(seed, k, work, variant)
    value = ratio.apply(states[k].scaled_sine) / 2
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="pi",
        method="method1",
        params={
            "seed": seed.describe(),
            "k": str(k),
            "bits": str(ctx.scale_bits),
            "guard_bits": str(work - ctx.scale_bits),
            "ratio_mode": ratio_mode,
            "variant": variant,
        },
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
    m, d = Fraction(m), Fraction(d)
    if d <= 0 or d >= m:
        raise DomainError("method2 requires 0 < d < m")
    s = m**2 - d**2
    # m - sqrt(s) ~= d**2/(2m): budget twice the cancelled bits plus slack.
    cancelled = (m.numerator * d.denominator) // (m.denominator * d.numerator) + 2
    work = ctx.working_bits + 64 + 4 * cancelled.bit_length()
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
        params={
            "m": str(m),
            "d": str(d),
            "s": str(s),
            "bits": str(ctx.scale_bits),
            "guard_bits": str(work - ctx.scale_bits),
        },
        ratio_kind=ratio.kind,
        diagnostic=diagnostic,
    )


def pi_combined(m, d, k: int, ctx: PrecisionContext) -> Approximant:
    """Deepen the recursion from a large starting term: error ~ pi*d**2/(6*4**k*m**2)."""
    seed = Seed.from_m_d(m, d)
    if seed.s == 0:
        raise DomainError("combined method requires d < m")
    inner = pi_method1(seed, k, ctx)
    return Approximant(
        value=inner.value,
        target="pi",
        method="combined",
        params={
            "m": str(Fraction(m)),
            "d": str(Fraction(d)),
            "k": str(k),
            "bits": str(ctx.scale_bits),
            "guard_bits": inner.params["guard_bits"],
        },
        ratio_kind=inner.ratio_kind,
    )


def unity_formula(seed: Seed, k: int, ctx: PrecisionContext) -> Approximant:
    """2**k * sin(theta0 / 2**k) / theta0, converging to 1 like theta0**2/(6*4**k).

    theta0 comes from the self-consistent arccos, whose internal depth always
    exceeds k by well over 16 steps at the chosen working precision.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    work = ctx.scale_bits + ctx.guard_for_depth(k)
    theta0 = arccos_by_recursion(seed.value(work), PrecisionContext(work))
    states = run_at_scale(seed, k, work, "stable")
    value = states[k].scaled_sine / theta0
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="one",
        method="unity",
        params={
            "seed": seed.describe(),
            "k": str(k),
            "bits": str(ctx.scale_bits),
            "guard_bits": str(work - ctx.scale_bits),
        },
        ratio_kind="self_consistent",
    )


def arccos_by_recursion(x0: FixedReal, ctx: PrecisionContext) -> FixedReal:
    """arccos(x0) as the limit of the doubled sines 2**k * sin(theta0/2**k).

    Needs no stored value of pi: iterate the stable recursion until successive
    doubled sines agree to 2**(-scale_bits - 8), then round to the output
    scale. Result matches the series arccos well within 2**(-scale_bits + 16).
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
    # the stable doubled sine loses about one unit per step, not two bits, so
    # an explicit guard is the headroom of the working bits, not a depth budget
    depth_cap = out_bits // 2 + 24
    guard = ctx.guard_bits if ctx.guard_bits is not None else ctx.guard_for_depth(depth_cap)
    work = out_bits + guard
    tol = 1 << (guard - 8)
    sines = _doubled_sines(x0.rescale(work), "stable")
    _, previous = next(sines)
    for _, scaled in islice(sines, depth_cap - 1):
        if abs(scaled.mantissa - previous.mantissa) < tol:
            return scaled.rescale(out_bits)
        previous = scaled
    raise ConvergenceError(
        f"arccos recursion did not converge within {depth_cap} steps "
        f"at {work} working bits"
    )


def viete_product(k: int, ctx: PrecisionContext) -> Approximant:
    """2 divided by the product of the cosine iterates from x0 = 0.

    Algebraically equal to 2**(k+1) * sin(pi / 2**(k+1)); kept as a literal
    running product so it cross-checks the recursion-based route.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    work = ctx.scale_bits + ctx.guard_for_depth(k)
    x = FixedReal.zero(work)
    value = FixedReal.from_int(2, work)
    for _ in range(k):
        x = half_angle_step(x)
        value = value / x
    return Approximant(
        value=value.rescale(ctx.scale_bits),
        target="pi",
        method="viete",
        params={"k": str(k), "bits": str(ctx.scale_bits), "guard_bits": str(work - ctx.scale_bits)},
        ratio_kind="exact",
    )


def seed_series_coefficients(terms: int) -> list[Fraction]:
    """Binomial coefficients binom(1/2, j) for j = 0..terms-1, as exact rationals."""
    if terms < 1:
        raise DomainError("terms must be >= 1")
    coeffs = [Fraction(1)]
    for j in range(1, terms):
        coeffs.append(coeffs[-1] * (Fraction(1, 2) - (j - 1)) / j)
    return coeffs


def taylor_seed_exact(m, d, terms: int) -> Fraction:
    """Exact partial sum of (1 - d**2/m**2)**(1/2) by the binomial series."""
    m, d = Fraction(m), Fraction(d)
    if m <= 0 or d <= 0:
        raise DomainError("m and d must be positive")
    u = d**2 / m**2
    if u >= 1:
        raise DomainError("series requires d < m")
    total = Fraction(0)
    power = Fraction(1)
    for coeff in seed_series_coefficients(terms):
        total += coeff * power
        power *= -u
    return total
