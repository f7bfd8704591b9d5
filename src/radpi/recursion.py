"""Half-angle recursion engine: coupled cosine/sine iterates and the
scaled-radicand chain with its closed-form scale function.

Indexing is zero-based: state 0 holds the starting term x0 = sign*sqrt(s)/m
with theta0 = arccos(x0); state k holds x = cos(theta0 / 2**k) and
c = sin(theta0 / 2**k). Each state also carries the unnormalized radicand g
and the scale factor f with x = g / f, plus the doubled sine 2**k * c that
drivers consume (tracking the doubled sine directly keeps one unit of
relative precision per step instead of losing k bits to rescaling).
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count

from ._record import Record, set_field
from .arith import FixedReal, PrecisionContext
from .errors import DomainError, UsageError

# Rounding slack accepted on |x| <= 1 preconditions: 16 units in the last place.
_UNIT_SLACK = 16


def _to_fraction(value) -> Fraction:
    if isinstance(value, FixedReal):
        return value.to_fraction()
    return Fraction(value)


class PowerForm(Record):
    """Exact value 2**p * m**q with rational exponents."""

    __slots__ = ("p", "q", "m")
    p: Fraction
    q: Fraction
    m: Fraction

    def times_two(self) -> "PowerForm":
        return PowerForm(self.p + 1, self.q, self.m)

    def squared(self) -> "PowerForm":
        return PowerForm(2 * self.p, 2 * self.q, self.m)

    def exact_value(self) -> Fraction | None:
        """Exact rational value when one exists (m a power of two, or q = 0)."""
        num, den = self.m.numerator, self.m.denominator
        if num & (num - 1) == 0 and den & (den - 1) == 0:
            exp2 = self.p + self.q * (num.bit_length() - den.bit_length())
            if exp2.denominator == 1:
                return Fraction(2) ** int(exp2)
        if self.q == 0 and self.p.denominator == 1:
            return Fraction(2) ** int(self.p)
        return None


def f_power_form(k: int, m) -> PowerForm:
    """Scale factor at chain position k >= 2: exponents ((2**(k-2)-1)/2**(k-2), 1/2**(k-2))."""
    if k < 2:
        raise DomainError(f"scale function undefined for k={k} < 2")
    den = 1 << (k - 2)
    return PowerForm(Fraction(den - 1, den), Fraction(1, den), _to_fraction(m))


def scale_factors(m, k_max: int, scale_bits: int) -> dict[int, FixedReal]:
    """Scale factors f(2), ..., f(k_max) at ``scale_bits``, keyed by k.

    f(2) = m and f(k+1) = sqrt(2 f(k)), the engine's own step, so each k costs
    one square root until f reaches its fixed point 2 exactly (at once for m = 2).
    """
    if k_max < 2:
        raise DomainError(f"scale function undefined for k={k_max} < 2")
    two = FixedReal.from_int(2, scale_bits)
    f_val = FixedReal.from_fraction(_to_fraction(m), scale_bits)
    factors = {2: f_val}
    for k in range(3, k_max + 1):
        if f_val != two:
            f_val = (two * f_val).sqrt()
        factors[k] = f_val
    return factors


class Seed(Record):
    """Starting term x0 = sign * sqrt(s) / m of the recursion.

    m and s are exact rationals so that seeds whose angle is a rational
    multiple of pi are recognized exactly. The pair s = m**2 with sign +1
    (x0 = 1, theta0 = 0) is rejected; x0 = -1 is allowed.
    """

    __slots__ = ("m", "s", "sign")
    m: Fraction
    s: Fraction
    sign: int

    def __init__(self, m, s, sign: int = 1) -> None:
        m, s = _to_fraction(m), _to_fraction(s)
        if sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if m <= 0:
            raise DomainError("m must be positive")
        if s < 0:
            raise DomainError("s must be non-negative")
        if s > m**2:
            raise DomainError("s must satisfy s <= m**2 (|x0| <= 1)")
        if s == m**2 and sign > 0:
            raise DomainError("x0 = 1 is rejected (zero angle divides by zero)")
        set_field(self, "m", m)
        set_field(self, "s", s)
        set_field(self, "sign", sign)

    @classmethod
    def from_m_d(cls, m, d, sign: int = 1) -> "Seed":
        m, d = _to_fraction(m), _to_fraction(d)
        if d <= 0:
            raise DomainError("d must be positive")
        s = m**2 - d**2
        if s < 0:
            raise DomainError("d must satisfy d <= m")
        return cls(m, s, sign)

    @classmethod
    def from_x0(cls, x0) -> "Seed":
        x0 = _to_fraction(x0)
        return cls(Fraction(1), x0**2, -1 if x0 < 0 else 1)

    @property
    def x0_squared(self) -> Fraction:
        return self.s / self.m**2

    @property
    def d_squared(self) -> Fraction:
        return self.m**2 - self.s

    def value(self, scale_bits: int) -> FixedReal:
        """x0 as a FixedReal (one rounding: the square root of an exact ratio)."""
        root = FixedReal.from_fraction(self.x0_squared, scale_bits).sqrt()
        return -root if self.sign < 0 else root

    def sine0(self, scale_bits: int) -> FixedReal:
        """sin(theta0) = sqrt(1 - x0**2), from the exact ratio d**2/m**2."""
        return FixedReal.from_fraction(self.d_squared / self.m**2, scale_bits).sqrt()

    def describe(self) -> str:
        sgn = "+" if self.sign > 0 else "-"
        return f"m={self.m}, s={self.s}, sign={sgn}"


class RecursionState(Record):
    """One step of the coupled recursion.

    Invariants (within rounding at the carried scale): x**2 + c**2 = 1,
    x = g / f with f the scale factor at chain position k + 2, and
    scaled_sine = 2**k * c. No angle value is stored.
    """

    __slots__ = ("k", "x", "c", "scaled_sine", "g", "f")
    k: int
    x: FixedReal
    c: FixedReal
    scaled_sine: FixedReal
    g: FixedReal
    f: FixedReal


def _clamped_unit(x: FixedReal) -> FixedReal:
    one = 1 << x.scale_bits
    if abs(x.mantissa) > one + _UNIT_SLACK:
        raise DomainError("cosine iterate outside [-1, 1] beyond rounding slack")
    if x.mantissa > one:
        return FixedReal(one, x.scale_bits)
    if x.mantissa < -one:
        return FixedReal(-one, x.scale_bits)
    return x


def half_angle_step(x_prev: FixedReal) -> FixedReal:
    """cos(y) from cos(2y): sqrt((1 + x_prev) / 2)."""
    x = _clamped_unit(x_prev)
    return ((FixedReal.one(x.scale_bits) + x) / 2).sqrt()


def sine_step_naive(x_prev: FixedReal) -> FixedReal:
    """sin(y) from cos(2y): sqrt((1 - x_prev) / 2).

    Cancels catastrophically as x_prev approaches 1; kept deliberately so the
    cancellation audit can measure the loss.
    """
    x = _clamped_unit(x_prev)
    return ((FixedReal.one(x.scale_bits) - x) / 2).sqrt()


def radicand_step(g_prev: FixedReal, f_k: FixedReal) -> FixedReal:
    """One link of the plus chain: sqrt(f_k + g_prev)."""
    rad = f_k + g_prev
    if rad.mantissa < 0:
        raise DomainError("negative radicand in plus chain")
    return rad.sqrt()


def _doubled_sines(x: FixedReal, variant: str) -> Iterator[tuple[FixedReal, FixedReal]]:
    """(cos(theta0 / 2**j), 2**j * sin(theta0 / 2**j)) for j = 1, 2, ... from
    x = cos(theta0), at x's scale.

    The first sine is the naive square root, which has no cancellation away
    from x = 1. After it the stable variant advances the doubled sine by one
    division by the new cosine; the naive variant recomputes it from the
    previous cosine.
    """
    for j in count(1):
        x_prev, x = x, half_angle_step(x)
        if j == 1 or variant == "naive":
            scaled = sine_step_naive(x_prev).times_pow2(j)
        else:
            scaled = scaled / x
        yield x, scaled


def run_recursion(
    seed: Seed, k: int, ctx: PrecisionContext, variant: str = "stable"
) -> list[RecursionState]:
    """States 0..k at the context's working scale; the variants are those of
    ``_doubled_sines``."""
    if k < 1:
        raise DomainError("k must be >= 1")
    guard = ctx.guard_for_depth(k)
    return run_at_scale(seed, k, ctx.scale_bits + guard, variant)


def run_at_scale(
    seed: Seed, k: int, scale_bits: int, variant: str = "stable"
) -> list[RecursionState]:
    """Raw engine at an explicit scale, without guard management.

    Exposed for the cancellation audit, which deliberately runs without guard
    bits to measure rounding behavior at a fixed precision.
    """
    if variant not in ("stable", "naive"):
        raise UsageError(f"unknown variant {variant!r}")
    x = seed.value(scale_bits)
    c = seed.sine0(scale_bits)
    g = FixedReal.from_fraction(seed.s, scale_bits).sqrt()
    if seed.sign < 0:
        g = -g
    f_val = FixedReal.from_fraction(seed.m, scale_bits)
    states = [RecursionState(0, x, c, c, g, f_val)]
    two = FixedReal.from_int(2, scale_bits)
    for j, (x, scaled) in zip(range(1, k + 1), _doubled_sines(x, variant)):
        g = radicand_step(g, f_val)
        f_val = (two * f_val).sqrt()
        states.append(RecursionState(j, x, scaled.times_pow2(-j), scaled, g, f_val))
    return states


def nested_literal(seed: Seed, k: int, ctx: PrecisionContext) -> FixedReal:
    """sin(theta0 / 2**k) evaluated as the literal nested radical.

    Builds the plus chain innermost-out with the scale factors from
    ``scale_factors``, applies the single outermost minus, and divides
    by the outer scale factor:

        c_k = sqrt(f(k+1) - g_{k-1}) / f(k+2),  g_j = sqrt(f(j+1) + g_{j-1})

    with g_0 = sign * sqrt(s). The outer subtraction of two quantities that
    both tend to 2 is the cancellation the audit measures. Result is at the
    context's output scale.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    guard = ctx.guard_for_depth(k)
    work = ctx.scale_bits + guard
    f_vals = scale_factors(seed.m, k + 2, work)
    g = FixedReal.from_fraction(seed.s, work).sqrt()
    if seed.sign < 0:
        g = -g
    for j in range(1, k):
        g = radicand_step(g, f_vals[j + 1])
    rad = f_vals[k + 1] - g
    if rad.mantissa < 0:
        # chain noise is O(k) units at the working scale; anything larger is real
        if rad.mantissa < -(64 + 4 * k):
            raise DomainError("outer radicand negative beyond rounding slack")
        rad = FixedReal.zero(work)
    c = rad.sqrt() / f_vals[k + 2]
    return c.rescale(ctx.scale_bits)
