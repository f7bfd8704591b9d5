"""Recursion engine: step maps, exact scale-factor algebra, state invariants,
and the literal nested-radical evaluator.

Frozen values are 60-digit mpmath computations of the closed forms (sines and
cosines of the dyadic fractions of pi that the cataloged seeds generate).
"""

from fractions import Fraction
from itertools import islice

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radpi.recursion
from radpi import (
    DomainError,
    FixedReal,
    PrecisionContext,
    PowerForm,
    PrecisionError,
    Seed,
    f_power_form,
    half_angle_step,
    nested_literal,
    radicand_step,
    scale_factors,
    sine_step_naive,
)
from radpi.drivers import plan
from radpi.recursion import run_at_scale

COS_PI_8 = "0.923879532511286756128183189396788286822416625863642486115098"
SIN_PI_8 = "0.382683432365089771728459984030398866761344562485627041433801"
SIN_PI_12 = "0.258819045102520762348898837624048328349068901319930513814003"
SIN_PI_16 = "0.195090322016128267848284868477022240927691617751954807754502"
SQRT_HALF = "0.707106781186547524400844362104849039284835937688474036588340"
SQRT_2_PLUS_SQRT2 = "1.847759065022573512256366378793576573644833251727284972230228"
SQRT_2_MINUS_SQRT3 = "0.517638090205041524697797675248096656698137802639861027628006"

BITS = 128


def close_to(x: FixedReal, decimal: str, digits: int = 30) -> bool:
    return x.rescale(BITS).to_decimal(digits + 2)[: digits + 2] == decimal[: digits + 2]


class TestStepMaps:
    def test_half_angle_fixed_points(self):
        one = FixedReal.from_fraction(1, BITS)
        assert half_angle_step(one) == one
        assert half_angle_step(-one).mantissa == 0
        assert close_to(half_angle_step(FixedReal(0, BITS)), SQRT_HALF)

    def test_half_angle_clamps_within_slack_only(self):
        just_over = FixedReal((1 << BITS) + 3, BITS)
        assert half_angle_step(just_over) == FixedReal.from_fraction(1, BITS)
        with pytest.raises(DomainError):
            half_angle_step(FixedReal((1 << BITS) + (1 << 8), BITS))

    def test_sine_naive_values(self):
        one = FixedReal.from_fraction(1, BITS)
        assert sine_step_naive(one).mantissa == 0
        assert close_to(sine_step_naive(FixedReal(0, BITS)), SQRT_HALF)
        # sin(pi/6) = 1/2 exactly: the radicand 1/4 is dyadic, so no rounding
        got = sine_step_naive(FixedReal.from_fraction(Fraction("0.5"), BITS))
        assert got == FixedReal.from_fraction(Fraction("0.5"), BITS)

    def test_radicand_step(self):
        two = FixedReal.from_fraction(2, BITS)
        assert close_to(radicand_step(two.sqrt(), two), SQRT_2_PLUS_SQRT2)
        assert radicand_step(FixedReal(0, BITS), FixedReal.from_fraction(4, BITS)) == two
        g1_neg = radicand_step(-FixedReal.from_fraction(3, BITS).sqrt(), two)
        assert close_to(g1_neg, SQRT_2_MINUS_SQRT3)

    def test_radicand_step_negative(self):
        with pytest.raises(DomainError):
            radicand_step(FixedReal.from_fraction(-3, BITS), FixedReal.from_fraction(2, BITS))


def _clamped(x: FixedReal) -> FixedReal:
    one = FixedReal.from_fraction(1, x.scale_bits)
    return one if x > one else -one if x < -one else x


def _factors_by_products(m, k_max: int, bits: int) -> dict[int, FixedReal]:
    two = FixedReal.from_fraction(2, bits)
    f = FixedReal.from_fraction(Fraction(m), bits)
    factors = {2: f}
    for k in range(3, k_max + 1):
        if f != two:
            f = (two * f).sqrt()
        factors[k] = f
    return factors


class TestStepsOnTheMantissa:
    """Each step builds its radicand on the mantissa; it gives the bytes of the
    FixedReal expressions ((one +- x) / 2).sqrt() and (two * f).sqrt()."""

    @pytest.mark.parametrize("bits", [64, 128, 1001])
    @pytest.mark.parametrize("units", [-1, 0, 1, 16])  # past |x| = 1; 16 is the clamp's slack
    @pytest.mark.parametrize("sign", [1, -1])
    def test_at_plus_and_minus_one(self, bits, units, sign):
        one = FixedReal.from_fraction(1, bits)
        x = FixedReal(sign * ((1 << bits) + units), bits)
        assert half_angle_step(x) == ((one + _clamped(x)) / 2).sqrt()
        assert sine_step_naive(x) == ((one - _clamped(x)) / 2).sqrt()

    @pytest.mark.parametrize("sign", [1, -1])
    def test_one_unit_past_the_slack_raises(self, sign):
        x = FixedReal(sign * ((1 << BITS) + 16 + 1), BITS)
        with pytest.raises(DomainError):
            half_angle_step(x)
        with pytest.raises(DomainError):
            sine_step_naive(x)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(64, 700).flatmap(
        lambda bits: st.tuples(st.just(bits), st.integers(-(1 << bits) - 16, (1 << bits) + 16))))
    def test_anywhere_in_the_slack(self, drawn):
        bits, mantissa = drawn
        one, x = FixedReal.from_fraction(1, bits), FixedReal(mantissa, bits)
        assert half_angle_step(x) == ((one + _clamped(x)) / 2).sqrt()
        assert sine_step_naive(x) == ((one - _clamped(x)) / 2).sqrt()

    @pytest.mark.parametrize("bits", [64, 160, 1024])
    @pytest.mark.parametrize("m", [1, 2, 3, 10**6])
    def test_scale_factors(self, m, bits):
        assert scale_factors(m, 64, bits) == _factors_by_products(m, 64, bits)


class TestPowerForm:
    @pytest.mark.parametrize(
        "k,p,q",
        [(2, Fraction(0), Fraction(1)), (3, Fraction(1, 2), Fraction(1, 2)), (5, Fraction(7, 8), Fraction(1, 8))],
    )
    def test_exponents(self, k, p, q):
        form = f_power_form(k, 2)
        assert (Fraction(form.a, 1 << form.e), Fraction(form.b, 1 << form.e)) == (p, q)

    def test_k_below_two_rejected(self):
        with pytest.raises(DomainError):
            f_power_form(1, 2)

    def test_value_is_exactly_two_for_m_two(self):
        for k in range(2, 65):
            assert f_power_form(k, 2).exact_log2() == 1

    def test_scale_identity_exact(self):
        for m in (2, 3, 5, 10, Fraction(7, 3)):
            for k in range(2, 65):
                assert f_power_form(k + 1, m).squared() == f_power_form(k, m).times_two()


def _exact_log2_by_fractions(p: Fraction, q: Fraction, m: Fraction) -> int | None:
    """The exact-value rule on Fraction exponents: m a power of two, or q = 0."""
    num, den = m.numerator, m.denominator
    if num & (num - 1) == 0 and den & (den - 1) == 0:
        exp2 = p + q * (num.bit_length() - den.bit_length())
        if exp2.denominator == 1:
            return int(exp2)
    if q == 0 and p.denominator == 1:
        return int(p)
    return None


class TestPowerFormParity:
    """The integer exponents over 2**e against the Fraction formulas."""

    @pytest.mark.parametrize("m", [2, 3, 5, 10, Fraction(7, 3), Fraction(1, 2), 4, Fraction(1, 8)])
    def test_exponents_and_exact_value(self, m):
        for k in range(2, 65):
            q = Fraction(1, 2 ** (k - 2))
            p = 1 - q
            form = f_power_form(k, m)
            for got, (want_p, want_q) in ((form, (p, q)), (form.squared(), (2 * p, 2 * q)),
                                          (form.times_two(), (p + 1, q))):
                got_p, got_q = Fraction(got.a, 1 << got.e), Fraction(got.b, 1 << got.e)
                assert (got_p, got_q) == (want_p, want_q), (k, m)
                assert got.exact_log2() == _exact_log2_by_fractions(want_p, want_q, Fraction(m))

    def test_fields_are_kept_in_lowest_terms(self):
        assert PowerForm(12, 4, 3, 3) == PowerForm(3, 1, 1, 3)
        assert (PowerForm(12, 0, 2, 3).a, PowerForm(12, 0, 2, 3).e) == (3, 0)
        assert PowerForm(12, 0, 2, 3).exact_log2() == 3  # q = 0: 2**3
        assert PowerForm(1, 0, 1, 3).exact_log2() is None  # p = 1/2

    @pytest.mark.parametrize("m", [0, -2, Fraction(-1, 3), "0"])
    def test_m_not_positive_rejected_like_a_seed(self, m):
        with pytest.raises(DomainError, match="m must be positive"):
            f_power_form(3, m)
        with pytest.raises(DomainError, match="m must be positive"):
            scale_factors(m, 4, 64)
        with pytest.raises(DomainError, match="m must be positive"):
            Seed(m, 0)


def _f_mpmath(k, m):
    den, m = 1 << (k - 2), Fraction(m)
    base = mpmath.mpf(m.numerator) / m.denominator
    return mpmath.power(2, mpmath.mpf(den - 1) / den) * mpmath.power(base, mpmath.mpf(1) / den)


class TestScaleFactors:
    def test_k3_is_sqrt_2m(self):
        got = scale_factors(3, 3, 192)[3]
        want = FixedReal.from_fraction(6, 192).sqrt()
        assert abs((got - want).mantissa) < 1 << 8

    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        for m in (3, 5, 10):
            factors = scale_factors(m, 12, 160)
            for k in (4, 7, 12):
                got = factors[k].to_decimal(40)
                assert got[:36] == mpmath.nstr(_f_mpmath(k, m), 45, strip_zeros=False)[:36]

    def test_keys_run_from_two(self):
        assert list(scale_factors(3, 9, 96)) == list(range(2, 10))
        with pytest.raises(DomainError):
            scale_factors(3, 1, 96)

    def test_exactly_two_for_m_two(self):
        two = FixedReal.from_fraction(2, 160)
        assert all(v == two for v in scale_factors(2, 64, 160).values())

    @pytest.mark.parametrize("m,exact", [(4, {2: 4}), (Fraction(1, 2), {2: Fraction(1, 2), 3: 1})])
    def test_power_of_two_m_is_exact_only_at_some_k(self, m, exact):
        mpmath.mp.dps = 50
        factors = scale_factors(m, 12, 160)
        for k, value in factors.items():
            if k in exact:
                assert value == FixedReal.from_fraction(Fraction(exact[k]), 160)
                continue
            assert f_power_form(k, m).exact_log2() is None
            text = mpmath.nstr(_f_mpmath(k, m), 60, strip_zeros=False)
            want = FixedReal.from_fraction(Fraction(text), 160)
            assert abs((value - want).mantissa) < 1 << 8

    def test_one_square_root_per_k(self, monkeypatch):
        calls = []
        real_sqrt = FixedReal.sqrt
        monkeypatch.setattr(FixedReal, "sqrt", lambda self: calls.append(1) or real_sqrt(self))
        scale_factors(3, 40, 128)
        assert len(calls) == 40 - 2
        calls.clear()
        scale_factors(2, 40, 128)  # f is at its fixed point 2 from the start
        assert calls == []

    @pytest.mark.parametrize("m", [1, 2, 3, 5, Fraction(1, 2), Fraction(7, 3), 18, 32])
    def test_same_chain_as_the_engine(self, m):
        k = 30
        factors = scale_factors(m, k + 2, 192)
        states = run_at_scale(Seed(m, Fraction(m) ** 2 / 4, -1), k, 192)
        assert [factors[j + 2] for j in range(k + 1)] == [st.f for st in states]

    def test_rational_factor_after_an_irrational_root_is_exact(self):
        # f(3) = sqrt(2 * 18) = 6: one root of 36, not sqrt(2) * sqrt(18)
        assert scale_factors(18, 3, 160)[3] == FixedReal.from_fraction(6, 160)


class TestSeed:
    def test_value_and_sine(self):
        seed = Seed(2, 2, 1)
        assert close_to(seed.value(BITS), SQRT_HALF)
        assert close_to(seed.sine0(BITS), SQRT_HALF)

    def test_rejects_unit_start(self):
        with pytest.raises(DomainError):
            Seed(2, 4, 1)

    def test_allows_negative_one(self):
        seed = Seed(2, 4, -1)
        assert seed.value(BITS) == -FixedReal.from_fraction(1, BITS)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            Seed(0, 0, 1)
        with pytest.raises(DomainError):
            Seed(2, 5, 1)
        with pytest.raises(DomainError):
            Seed(2, -1, 1)
        with pytest.raises(DomainError):
            Seed(2, 2, 0)

    def test_from_m_d(self):
        seed = Seed.from_m_d(5, 3)
        assert (seed.m, seed.s) == (5, 16)

    def test_from_x0(self):
        seed = Seed.from_x0(Fraction(-4, 5))
        assert seed.sign == -1
        assert seed.x0_squared == Fraction(16, 25)


class TestRunRecursion:
    def test_first_state_from_octant_seed(self, ctx128):
        states = run_at_scale(Seed(2, 2, 1), 1, plan("depth", ctx128, k=1).work)
        assert close_to(states[1].x, COS_PI_8)
        assert close_to(states[1].c, SIN_PI_8)

    def test_right_angle_seed(self, ctx128):
        states = run_at_scale(Seed(1, 0, 1), 1, plan("depth", ctx128, k=1).work)
        assert close_to(states[1].x, SQRT_HALF)
        assert close_to(states[1].c, SQRT_HALF)

    def test_straight_angle_seed(self, ctx128):
        states = run_at_scale(Seed(2, 4, -1), 2, plan("depth", ctx128, k=2).work)
        assert close_to(states[2].x, SQRT_HALF)
        assert close_to(states[2].c, SQRT_HALF)

    def test_naive_and_stable_agree_at_guarded_precision(self, ctx128):
        naive = run_at_scale(Seed(2, 3, 1), 12, plan("depth", ctx128, k=12).work, "naive")
        stable = run_at_scale(Seed(2, 3, 1), 12, plan("depth", ctx128, k=12).work, "stable")
        gap = abs((naive[12].c - stable[12].c).mantissa)
        assert gap < 1 << (2 * 12 + 8)

    def test_budget_enforced_for_explicit_guard(self):
        ctx = PrecisionContext(128, 72)
        with pytest.raises(PrecisionError):
            run_at_scale(Seed(2, 2, 1), 5, plan("depth", ctx, k=5).work)

    @pytest.mark.parametrize("seed", [Seed(2, 2, 1), Seed(2, 3, 1), Seed(2, 3, -1), Seed(2, 2, -1), Seed(5, 16, 1)])
    def test_state_invariants(self, seed, ctx128):
        states = run_at_scale(seed, 20, plan("depth", ctx128, k=20).work)
        work = states[0].x.scale_bits
        one = FixedReal.from_fraction(1, work)
        for st_ in states:
            bound = 1 << (st_.k + 6)
            assert abs((st_.x * st_.x + st_.c * st_.c - one).mantissa) < bound
            assert abs((st_.x * st_.f - st_.g).mantissa) < bound
            assert -(1 << work) - 16 <= st_.x.mantissa
            assert 0 <= st_.c.mantissa <= one.mantissa + 16

    def test_scaled_sine_matches_c(self, ctx128):
        states = run_at_scale(Seed(2, 3, -1), 15, plan("depth", ctx128, k=15).work)
        for st_ in states[1:]:
            gap = abs((st_.scaled_sine - st_.c.times_pow2(st_.k)).mantissa)
            assert gap <= 1 << st_.k

    # set-up takes 3 roots (x0, sine0, g0) and step 1 one more for its naive
    # sine; each step then roots the half angle and the radicand, plus f while
    # f is off its fixed point 2, which at m = 2 it never is
    @pytest.mark.parametrize("seed,per_step", [(Seed(2, 2, 1), 2), (Seed(5, 16, 1), 3)])
    def test_square_roots_per_step(self, seed, per_step, monkeypatch):
        calls = []
        real_sqrt = FixedReal.sqrt
        monkeypatch.setattr(FixedReal, "sqrt", lambda self: calls.append(1) or real_sqrt(self))
        k = 30
        run_at_scale(seed, k, 192)
        assert len(calls) == 3 + 1 + per_step * k

    def test_monotone_doubling(self, ctx128):
        states = run_at_scale(Seed(2, 2, 1), 30, plan("depth", ctx128, k=30).work)
        doubled = [st_.scaled_sine for st_ in states[1:]]
        assert all(a < b for a, b in zip(doubled, doubled[1:]))


class TestNestedLiteral:
    def test_octant_one_level(self, ctx128):
        got = nested_literal(Seed(2, 2, 1), 1, ctx128)
        assert close_to(got, SIN_PI_8)

    def test_hexagon_one_level(self, ctx128):
        got = nested_literal(Seed(2, 3, 1), 1, ctx128)
        assert close_to(got, SIN_PI_12)

    def test_octant_two_levels(self, ctx128):
        got = nested_literal(Seed(2, 2, 1), 2, ctx128)
        assert close_to(got, SIN_PI_16)

    @pytest.mark.parametrize("seed", [Seed(2, 2, 1), Seed(2, 2, -1), Seed(2, 3, 1), Seed(2, 3, -1)])
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 20])
    def test_matches_stable_recursion(self, seed, k, ctx128):
        lit = nested_literal(seed, k, ctx128)
        rec = run_at_scale(seed, k, plan("depth", ctx128, k=k).work)[k].c.rescale(128)
        assert abs((lit - rec).mantissa) < 1 << (2 * k + 8)

    def test_square_roots_grow_linearly_with_depth(self, ctx128, monkeypatch):
        calls = []
        real_sqrt = FixedReal.sqrt
        monkeypatch.setattr(FixedReal, "sqrt", lambda self: calls.append(1) or real_sqrt(self))
        k = 20
        nested_literal(Seed(3, 7, 1), k, ctx128)
        # one chain of k roots, sqrt(s), k - 1 plus-chain links, one outer root
        assert len(calls) == 2 * k + 1

    @pytest.mark.parametrize("seed", [Seed(3, 7, 1), Seed(3, 7, -1), Seed(5, 16, 1), Seed(10, 50, -1)])
    def test_matches_recursion_for_non_dyadic_scale_factors(self, seed, ctx128):
        # m != 2 exercises the exact-exponent evaluation of every chain factor
        for k in (1, 4, 9, 15):
            lit = nested_literal(seed, k, ctx128)
            rec = run_at_scale(seed, k, plan("depth", ctx128, k=k).work)[k].c.rescale(128)
            assert abs((lit - rec).mantissa) < 1 << (2 * k + 8)

    @pytest.mark.parametrize("k", [1, 5, 20])
    def test_a_link_one_unit_over_f_is_refused_by_the_root(self, k, ctx128, monkeypatch):
        # no seed leaves g_(k-1) over f(k+1) (the floor-root induction), so the
        # chain's last link is forged: at f(k+1) the radicand is 0, one unit over
        # it the outer root refuses it
        real_chain = radpi.recursion._plus_chain

        def chain_over(units):
            def chain(seed, f):
                *links, _ = islice(real_chain(seed, f), k)
                yield from [*links, FixedReal(f[k + 1].mantissa + units, f[k + 1].scale_bits)]
            return chain

        monkeypatch.setattr(radpi.recursion, "_plus_chain", chain_over(0))
        assert nested_literal(Seed(2, 2, 1), k, ctx128) == FixedReal(0, 128)
        monkeypatch.setattr(radpi.recursion, "_plus_chain", chain_over(1))
        with pytest.raises(DomainError, match="square root of negative value"):
            nested_literal(Seed(2, 2, 1), k, ctx128)


def _outer_radicand(seed: Seed, k: int, bits: int) -> int:
    """nested_literal's f(k+1) - g_(k-1), as a mantissa at ``bits``."""
    factors = scale_factors(seed.m, k + 2, bits)
    *_, g = islice(radpi.recursion._plus_chain(seed, factors), k)
    return (factors[k + 1] - g).mantissa


@settings(max_examples=200, deadline=None)
@given(
    m=st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    s_frac=st.fractions(min_value=0, max_value=1),
    sign=st.sampled_from([1, -1]),
    k=st.integers(min_value=1, max_value=40),
    bits=st.sampled_from([64, 96, 200]),
)
def test_the_outer_radicand_is_never_negative(m, s_frac, sign, k, bits):
    # every root is a floor root, so f(j+1) >= g_(j-1) by induction from
    # f(2) >= |g_0|: no seed and no depth needs a clamp (and a plus-chain link
    # would raise on a negative radicand of its own)
    if s_frac == 1 and sign == 1:
        sign = -1  # x0 = 1 is rejected
    assert _outer_radicand(Seed(m, s_frac * m * m, sign), k, bits) >= 0


def test_the_outer_radicand_reaches_exactly_zero():
    # s one part in 10^300 under m^2: g_0 is one unit under f(2), and from
    # k = 2 on the floors bring g_(k-1) level with f(k+1)
    seed = Seed(3, 9 - Fraction(1, 10**300), 1)
    assert [_outer_radicand(seed, k, 64) for k in (1, 2, 3, 40)] == [1, 0, 0, 0]
    assert all(_outer_radicand(seed, k, bits) == 0 for k in (2, 40) for bits in (96, 200))


def test_run_at_scale_rejects_unknown_variant():
    from radpi.errors import UsageError

    with pytest.raises(UsageError):
        run_at_scale(Seed(2, 2, 1), 3, 96, "heroic")


def test_nested_literal_depth_check(ctx128):
    with pytest.raises(DomainError):
        nested_literal(Seed(2, 2, 1), 0, ctx128)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=40),
    s_frac=st.fractions(min_value=0, max_value=1),
    sign=st.sampled_from([1, -1]),
    k=st.integers(min_value=1, max_value=12),
)
def test_pythagorean_property(m, s_frac, sign, k):
    s = s_frac * m * m
    if s == m * m and sign == 1:
        s = Fraction(m * m) - Fraction(1, 7)
    seed = Seed(m, s, sign)
    ctx = PrecisionContext(96)
    states = run_at_scale(seed, k, plan("depth", ctx, k=k).work)
    work = states[0].x.scale_bits
    one = FixedReal.from_fraction(1, work)
    for st_ in states:
        assert abs((st_.x * st_.x + st_.c * st_.c - one).mantissa) < 1 << (st_.k + 6)
