"""Half-angle recursion engine: coupled cosine/sine iterates and the
scaled-radicand chain with its closed-form scale function.

Indexing is zero-based: state 0 holds the starting term x0 = sign*sqrt(s)/m
with theta0 = arccos(x0); state k holds x = cos(theta0 / 2**k) and
c = sin(theta0 / 2**k). Each state also carries the unnormalized radicand g
and the scale factor f with x = g / f, plus the doubled sine 2**k * c that
drivers consume (tracking the doubled sine directly keeps one unit of
relative precision per step instead of losing k bits to rescaling).

The scale factors come from the one chain ``scale_factors``, which the engine,
``nested_literal`` and the identity suite all read; the radicands g come from
the one plus chain ``_plus_chain``, which the engine and ``nested_literal`` read.
At m = 2 every factor is exactly 2 and costs no root, so an engine step there
takes two square roots (half angle and radicand); elsewhere f costs a third
until it rounds to 2.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, count, islice

from ._record import Record, set_field
from .arith import FixedReal, PrecisionContext, Rational, _rational_text
from .errors import DomainError, UsageError

# Rounding slack accepted on |x| <= 1 preconditions: 16 units in the last place.
_UNIT_SLACK = 16


class PowerForm(Record):
    """Exact value 2**p * m**q with dyadic exponents held as integers over one
    power of two: p = a / 2**e and q = b / 2**e. The constructor reduces them
    to lowest terms (a or b odd, or e = 0), so equal forms have equal fields.
    m is a positive int or Rational."""

    __slots__ = ("a", "b", "e", "m")
    a: int
    b: int
    e: int
    m: int | Rational

    def __init__(self, a: int, b: int, e: int, m) -> None:
        while e and not (a | b) & 1:
            a, b, e = a >> 1, b >> 1, e - 1
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "e", e)
        set_field(self, "m", m)

    def times_two(self) -> "PowerForm":
        return PowerForm(self.a + (1 << self.e), self.b, self.e, self.m)

    def squared(self) -> "PowerForm":
        return PowerForm(2 * self.a, 2 * self.b, self.e, self.m)

    def exact_log2(self) -> int | None:
        """The integer n with value 2**n, when m is a power of two or q = 0
        and n comes out whole; None otherwise."""
        num, den = self.m.numerator, self.m.denominator
        if self.b and (num & (num - 1) or den & (den - 1)):  # m**q is no power of two
            return None
        n = self.a + self.b * (num.bit_length() - den.bit_length())
        return None if n & ((1 << self.e) - 1) else n >> self.e


def _positive(m):
    """m as an int or a Rational, rejected unless positive, as ``Seed`` rejects it."""
    if not isinstance(m, (int, Rational)):
        m = Rational(m)
    if m <= 0:
        raise DomainError("m must be positive")
    return m


def f_power_form(k: int, m) -> PowerForm:
    """Scale factor at chain position k >= 2: exponents p = (2**e - 1)/2**e and
    q = 1/2**e with e = k - 2, already in lowest terms since q's numerator is 1."""
    if k < 2:
        raise DomainError(f"scale function undefined for k={k} < 2")
    e = k - 2
    return PowerForm((1 << e) - 1, 1, e, _positive(m))


def scale_factors(m, k_max: int, scale_bits: int) -> dict[int, FixedReal]:
    """Scale factors f(2), ..., f(k_max) at ``scale_bits``, keyed by k.

    f(2) = m and f(k+1) = sqrt(2 f(k)), so each k costs one square root until
    f reaches its fixed point 2 exactly (at once for m = 2); m must be
    positive. This is the one f chain: ``run_at_scale``, ``nested_literal``
    and the identity suite read their factors from it.
    """
    if k_max < 2:
        raise DomainError(f"scale function undefined for k={k_max} < 2")
    two = 2 << scale_bits
    f_val = FixedReal.from_fraction(_positive(m), scale_bits)
    factors = {2: f_val}
    for k in range(3, k_max + 1):
        if f_val.mantissa != two:
            f_val = FixedReal(f_val.mantissa << 1, scale_bits).sqrt()  # 2f by an exact shift
        factors[k] = f_val
    return factors


class Seed(Record):
    """Starting term x0 = sign * sqrt(s) / m of the recursion.

    m and s are exact Rationals (of anything that ``Rational`` takes) so that
    seeds whose angle is a rational multiple of pi are recognized exactly. The
    pair s = m**2 with sign +1 (x0 = 1, theta0 = 0) is rejected; x0 = -1 is
    allowed.
    """

    __slots__ = ("m", "s", "sign", "x0_squared")
    m: Rational
    s: Rational
    sign: int
    x0_squared: Rational  # s/m**2, computed once

    def __init__(self, m, s, sign: int = 1) -> None:
        m, s = Rational(m), Rational(s)
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
        set_field(self, "x0_squared", s / m**2)

    @classmethod
    def from_m_d(cls, m, d, sign: int = 1) -> "Seed":
        m, d = Rational(m), Rational(d)
        if d <= 0:
            raise DomainError("d must be positive")
        s = m**2 - d**2
        if s < 0:
            raise DomainError("d must satisfy d <= m")
        return cls(m, s, sign)

    @classmethod
    def from_x0(cls, x0) -> "Seed":
        x0 = Rational(x0)
        return cls(1, x0**2, -1 if x0 < 0 else 1)

    def value(self, scale_bits: int) -> FixedReal:
        """x0 as a FixedReal (one rounding: the square root of an exact ratio)."""
        root = FixedReal.from_fraction(self.x0_squared, scale_bits).sqrt()
        return -root if self.sign < 0 else root

    def sine0(self, scale_bits: int) -> FixedReal:
        """sin(theta0) = sqrt(1 - x0**2), from the exact ratio."""
        return FixedReal.from_fraction(1 - self.x0_squared, scale_bits).sqrt()

    def describe(self, width: int | None = None) -> str:
        """m, s and the sign in full; with ``width``, an m or s of more
        characters shows its first ``width`` and its length, so that an error
        line naming the seed stays short."""
        m, s = _rational_text(self.m), _rational_text(self.s)
        if width is not None:
            m, s = (t if len(t) <= width else f"{t[:width]}... ({len(t)} characters)"
                    for t in (m, s))
        return f"m={m}, s={s}, sign={'+' if self.sign > 0 else '-'}"


class RecursionState(Record):
    """One step of the coupled recursion.

    Invariants (within rounding at the carried scale): x**2 + c**2 = 1,
    x = g / f with f the scale factor at chain position k + 2 (read from
    ``scale_factors``), and scaled_sine = 2**k * c. No angle value is stored.
    """

    __slots__ = ("k", "x", "c", "scaled_sine", "g", "f")
    k: int
    x: FixedReal
    c: FixedReal
    scaled_sine: FixedReal
    g: FixedReal
    f: FixedReal


def _clamped_unit(x: FixedReal) -> int:
    """x's mantissa, clamped to [-1, 1] when within the rounding slack of it."""
    one, m = 1 << x.scale_bits, x.mantissa
    if abs(m) > one + _UNIT_SLACK:
        raise DomainError("cosine iterate outside [-1, 1] beyond rounding slack")
    return one if m > one else -one if m < -one else m


# 1 +- x >= 0 on the clamped mantissa, so halving it by a shift truncates as a division would.
def half_angle_step(x_prev: FixedReal) -> FixedReal:
    """cos(y) from cos(2y): sqrt((1 + x_prev) / 2)."""
    bits = x_prev.scale_bits
    return FixedReal(((1 << bits) + _clamped_unit(x_prev)) >> 1, bits).sqrt()


def sine_step_naive(x_prev: FixedReal) -> FixedReal:
    """sin(y) from cos(2y): sqrt((1 - x_prev) / 2).

    Cancels catastrophically as x_prev approaches 1; kept deliberately so the
    cancellation audit can measure the loss.
    """
    bits = x_prev.scale_bits
    return FixedReal(((1 << bits) - _clamped_unit(x_prev)) >> 1, bits).sqrt()


def radicand_step(g_prev: FixedReal, f_k: FixedReal) -> FixedReal:
    """One link of the plus chain: sqrt(f_k + g_prev), its radicand formed on
    the mantissa at f_k's scale, as ``half_angle_step`` forms its own. The
    chain never forms a negative radicand (see ``nested_literal``); the root
    refuses one passed in."""
    return FixedReal(f_k.mantissa + g_prev.mantissa, f_k.scale_bits).sqrt()


def _plus_chain(seed: Seed, factors: dict[int, FixedReal]) -> Iterator[FixedReal]:
    """g_0 = sign * sqrt(s), then g_j = sqrt(f(j+1) + g_{j-1}) for each f(j+1) of
    ``factors`` (keyed from 2), lazily and at their scale."""
    root = FixedReal.from_fraction(seed.s, factors[2].scale_bits).sqrt()
    return accumulate(factors.values(), radicand_step, initial=-root if seed.sign < 0 else root)


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


def run_at_scale(
    seed: Seed, k: int, scale_bits: int, variant: str = "stable"
) -> list[RecursionState]:
    """States 0..k at an explicit scale, without guard management; the
    variants are those of ``_doubled_sines``.

    Depth routes pass their plan's working bits; the cancellation audit
    deliberately runs without guard bits to measure rounding behavior at a
    fixed precision.
    """
    if variant not in ("stable", "naive"):
        raise UsageError(f"unknown variant {variant!r}")
    x, c = seed.value(scale_bits), seed.sine0(scale_bits)
    f = scale_factors(seed.m, k + 2, scale_bits)
    chain = _plus_chain(seed, f)
    states = [RecursionState(0, x, c, c, next(chain), f[2])]
    for j, (x, scaled), g in zip(range(1, k + 1), _doubled_sines(x, variant), chain):
        states.append(RecursionState(j, x, scaled.times_pow2(-j), scaled, g, f[j + 2]))
    return states


def nested_literal(seed: Seed, k: int, ctx: PrecisionContext) -> FixedReal:
    """sin(theta0 / 2**k) evaluated as the literal nested radical.

    Builds the plus chain innermost-out (``_plus_chain``, which the engine
    reads too), applies the single outermost minus, and divides by the outer
    scale factor:

        c_k = sqrt(f(k+1) - g_{k-1}) / f(k+2),  g_j = sqrt(f(j+1) + g_{j-1})

    with g_0 = sign * sqrt(s). The outer subtraction of two quantities that
    both tend to 2 is the cancellation the audit measures. Result is at the
    context's output scale.

    The outer radicand is never negative, so it needs no clamp. Every root in
    both chains is a floor root at W working bits, and F, G denote the
    mantissas: F_2 = floor(m 2**W) and F_(j+1) = floor(sqrt(2 F_j 2**W)) (the
    f chain's stop at exactly 2 keeps this), G_(j-1) = floor(sqrt((F_j +
    G_(j-2)) 2**W)), and |G_0| = floor(sqrt(floor(s 2**W) 2**W)) <= F_2 since
    s <= m**2. If F_j >= G_(j-2), then 2 F_j >= F_j + G_(j-2), and the floor
    root is monotone, so F_(j+1) >= G_(j-1). By induction from F_2 >= G_0,
    F_(k+1) - G_(k-1) >= 0 for every seed and every k; the bound is tight.
    """
    from .drivers import plan  # drivers imports this module
    work = plan("depth", ctx, k=k).work
    f_vals = scale_factors(seed.m, k + 2, work)
    *_, g = islice(_plus_chain(seed, f_vals), k)  # g_{k-1}
    c = (f_vals[k + 1] - g).sqrt() / f_vals[k + 2]
    return c.rescale(ctx.scale_bits)
