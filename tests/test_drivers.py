"""Drivers: the two pi methods, their combination, unity, the self-consistent
arccos, the product cross-check, and the binomial seed series.

Frozen values are 60-digit mpmath evaluations of the closed forms; several
tests re-derive them in place to keep the strings honest.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radpi.arith
import radpi.drivers
from radpi import (
    CatalogMissError,
    DomainError,
    FixedReal,
    PrecisionContext,
    Seed,
    arccos_by_recursion,
    arccos_oracle,
    pi_combined,
    pi_method1,
    pi_method2,
    pi_oracle,
    taylor_seed_exact,
    unity_formula,
    viete_product,
)
from radpi.drivers import _EXACT_RATIOS, _resolve_ratio, exact_ratio_lookup

OCTAGON = "3.061467458920718173827679872243190934090756499885016331470407"
HEXADECAGON = "3.121445152258052285572557895632355854843065884031276924072032"
TRIACONTADIGON = "3.136548490545939263814258044436539067556373541360018152232480"
PENTAGONAL_K4 = "3.127593089176103798031372282398698742690799753988112011471534"
M2_CORR_5_3 = "3.087667800425639032738508245001264951956922424612092286781513"
M2_CORR_13_5 = "3.121230335014114784332067264124238930748866958188388713105480"
AS_PRINTED_1E4 = "0.000444288295852157986498789434548237254886939891079253994985"
UNITY_K1 = "0.900316316157106069555199191006740582664574149955220625571438"
UNITY_K2 = "0.974495358404432645115278476342091029780201153677165571667665"
TWO_SQRT2 = "2.828427124746190097603377448419396157139343750753896146353359"
RATIO_SELF_08 = "9.764062907307236246123155293671246310635813210750043913561643"
ARCCOS_08 = "0.643501108793284386802809228717322638041510591115312382865606"
PI_60 = "3.141592653589793238462643383279502884197169399375105820974944"


def dec(approx, digits=40):
    return approx.value.to_decimal(digits)


class TestAngleRatio:
    CATALOG = [
        (Seed(1, 0, 1), Fraction(4)),
        (Seed(2, 1, 1), Fraction(6)),
        (Seed(2, 1, -1), Fraction(3)),
        (Seed(2, 2, 1), Fraction(8)),
        (Seed(2, 2, -1), Fraction(8, 3)),
        (Seed(2, 3, 1), Fraction(12)),
        (Seed(2, 3, -1), Fraction(12, 5)),
        (Seed(2, 4, -1), Fraction(2)),
        (Seed(4, 8, 1), Fraction(8)),  # same x0 as (2,2,+) via s/m^2
    ]

    @pytest.mark.parametrize("seed,expected", CATALOG)
    def test_exact_catalog(self, seed, expected):
        ratio = _resolve_ratio(seed, "exact", 192)
        assert ratio.kind == "exact"
        assert ratio.rational == expected

    def test_miss_raises(self):
        with pytest.raises(CatalogMissError):
            _resolve_ratio(Seed(5, 16, 1), "exact", 192)

    def test_self_consistent_value(self):
        ratio = _resolve_ratio(Seed(5, 16, 1), "self", 192)
        assert ratio.kind == "self_consistent"
        got = ratio.fixed.rescale(128).to_decimal(36)
        assert got[:32] == RATIO_SELF_08[:32]

    def test_auto_prefers_exact(self):
        assert _resolve_ratio(Seed(2, 2, 1), "auto", 192).kind == "exact"
        assert _resolve_ratio(Seed(5, 16, 1), "auto", 192).kind == "self_consistent"

    def test_catalog_holds_every_pi_free_seed(self):
        """x0 = +-sqrt(s)/m has x0^2 rational, so cos 2theta0 = 2 x0^2 - 1 is
        rational. If theta0 is a rational multiple of pi, so is 2 theta0, and
        by Niven's theorem cos 2theta0 is then 0, +-1/2 or +-1. x0 = 1 (theta0
        = 0) has no ratio 2 pi/theta0; the other nine seeds are the catalog."""
        niven = (Fraction(-1), Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1))
        seeds = {((c + 1) / 2, sign) for c in niven for sign in (1, -1)} - {(Fraction(1), 1)}
        assert set(_EXACT_RATIOS) == seeds
        with mpmath.workdps(60):
            for (x0_squared, sign), ratio in _EXACT_RATIOS.items():
                x0 = sign * mpmath.sqrt(mpmath.mpf(x0_squared.numerator) / x0_squared.denominator)
                exact = mpmath.mpf(ratio.numerator) / ratio.denominator
                assert mpmath.almosteq(2 * mpmath.pi / mpmath.acos(x0), exact, 1e-50)

    def test_no_small_seed_outside_the_catalog_has_a_rational_angle(self):
        """Every seed with m <= 12 whose theta0/pi lies within 1e-40 of a
        fraction with denominator <= 1000 is cataloged, and no other is."""
        with mpmath.workdps(60):
            for m in range(1, 13):
                for s in range(m * m + 1):
                    for sign in (1, -1):
                        if (s, sign) == (m * m, 1):
                            continue  # x0 = 1, theta0 = 0
                        x0 = sign * mpmath.sqrt(s) / m
                        turns = mpmath.acos(x0) / mpmath.pi
                        near = Fraction(mpmath.nstr(turns, 55)).limit_denominator(1000)
                        rational = abs(turns - mpmath.mpf(near.numerator) / near.denominator)
                        cataloged = exact_ratio_lookup(Seed(m, s, sign)) is not None
                        assert (rational < 1e-40) == cataloged, (m, s, sign)


class TestPiMethod1:
    def test_octagon_value(self, ctx128):
        assert dec(pi_method1(Seed(2, 2, 1), 1, ctx128))[:38] == OCTAGON[:38]

    def test_hexadecagon_value(self, ctx128):
        assert dec(pi_method1(Seed(2, 2, 1), 2, ctx128))[:38] == HEXADECAGON[:38]

    def test_pentagonal_seed_depth_four(self, ctx128):
        assert dec(pi_method1(Seed(2, 3, -1), 4, ctx128))[:38] == PENTAGONAL_K4[:38]

    def test_converges(self, ctx256):
        # truncation bound: pi^3 / (96 * 4^40) ~= 2^-81.6
        err = pi_method1(Seed(2, 2, 1), 40, ctx256).value - pi_oracle(ctx256)
        assert abs(err.mantissa) < 1 << (256 - 80)

    @pytest.mark.parametrize(
        "seed",
        [Seed(1, 0, 1), Seed(2, 1, 1), Seed(2, 1, -1), Seed(2, 2, 1),
         Seed(2, 2, -1), Seed(2, 3, 1), Seed(2, 3, -1), Seed(2, 4, -1)],
    )
    def test_ratio_mode_independence(self, seed, ctx128):
        exact = pi_method1(seed, 10, ctx128, "exact").value
        selfc = pi_method1(seed, 10, ctx128, "self").value
        assert abs((exact - selfc).mantissa) < 1 << 24

    def test_records_ratio_kind(self, ctx128):
        assert pi_method1(Seed(2, 2, 1), 3, ctx128).ratio_kind == "exact"
        assert pi_method1(Seed(5, 16, 1), 3, ctx128).ratio_kind == "self_consistent"

    def test_bad_depth(self, ctx128):
        with pytest.raises(DomainError):
            pi_method1(Seed(2, 2, 1), 0, ctx128)


class TestPiMethod2:
    def test_corrected_small_seed(self, ctx128):
        assert dec(pi_method2(5, 3, ctx128))[:38] == M2_CORR_5_3[:38]

    def test_corrected_pythagorean_seed(self, ctx128):
        assert dec(pi_method2(13, 5, ctx128))[:38] == M2_CORR_13_5[:38]

    def test_as_printed_decays(self, ctx128):
        approx = pi_method2(10000, 1, ctx128, "as_printed")
        assert dec(approx)[:30] == AS_PRINTED_1E4[:30]
        assert approx.diagnostic is not None and "MISPRINT" in approx.diagnostic

    def test_as_printed_tenfold_ratio(self, ctx128):
        v3 = pi_method2(1000, 1, ctx128, "as_printed").value
        v4 = pi_method2(10000, 1, ctx128, "as_printed").value
        ratio = v3.rescale(256) / v4.rescale(256)
        assert FixedReal.from_int(9, 256) < ratio < FixedReal.from_int(11, 256)

    def test_corrected_error_shrinks_per_decade(self, ctx128):
        scale = 512
        pi_ref = pi_oracle(PrecisionContext(scale))
        errs = [
            abs(pi_method2(m, 1, ctx128).value.rescale(scale) - pi_ref)
            for m in (100, 1000)
        ]
        ratio = errs[0] / errs[1]
        assert FixedReal.from_int(90, scale) < ratio < FixedReal.from_int(110, scale)

    def test_domain(self, ctx128):
        with pytest.raises(DomainError):
            pi_method2(5, 5, ctx128)
        with pytest.raises(DomainError):
            pi_method2(5, 0, ctx128)
        with pytest.raises(DomainError):
            pi_method2(5, 3, ctx128, "sideways")


class TestCatalogedLargeSeedRatio:
    # x0 = sqrt(3)/2 at (m, d) = (2, 1): the ratio 12 is cataloged, so the
    # approximant is pi-free; (50, 1) has no cataloged ratio
    def test_method2(self, ctx128):
        assert pi_method2(2, 1, ctx128).ratio_kind == "exact"
        assert pi_method2(50, 1, ctx128).ratio_kind == "self_consistent"

    def test_combined(self, ctx128):
        assert pi_combined(2, 1, 5, ctx128).ratio_kind == "exact"
        assert pi_combined(50, 1, 5, ctx128).ratio_kind == "self_consistent"


class TestPiCombined:
    def test_single_step_equals_method2(self, ctx128):
        # at depth 1 the combined form reduces algebraically to the corrected
        # two-radical form; both pipelines must agree to working precision
        a = pi_combined(5, 3, 1, ctx128).value
        b = pi_method2(5, 3, ctx128).value
        assert abs((a - b).mantissa) < 1 << 16

    def test_depth_quarters_error(self, ctx128):
        scale = 512
        pi_ref = pi_oracle(PrecisionContext(scale))
        errs = [
            abs(pi_combined(5, 3, k, ctx128).value.rescale(scale) - pi_ref)
            for k in range(5, 9)
        ]
        for hi, lo in zip(errs, errs[1:]):
            ratio = hi / lo
            assert FixedReal.from_decimal("3.8", scale) < ratio < FixedReal.from_decimal("4.2", scale)

    def test_doubling_m_quarters_error(self, ctx128):
        scale = 512
        pi_ref = pi_oracle(PrecisionContext(scale))
        errs = [
            abs(pi_combined(m, 1, 5, ctx128).value.rescale(scale) - pi_ref)
            for m in (10, 20, 40)
        ]
        for hi, lo in zip(errs, errs[1:]):
            ratio = hi / lo
            assert FixedReal.from_decimal("3.5", scale) < ratio < FixedReal.from_decimal("4.5", scale)


class TestUnityFormula:
    def test_right_angle_first_steps(self, ctx128):
        seed = Seed(1, 0, 1)
        assert dec(unity_formula(seed, 1, ctx128))[:38] == UNITY_K1[:38]
        assert dec(unity_formula(seed, 2, ctx128))[:38] == UNITY_K2[:38]

    def test_deep_value_near_one(self, ctx128):
        got = unity_formula(Seed(1, 0, 1), 20, ctx128).value
        gap = abs((got - FixedReal.one(128)).mantissa)
        assert gap < (1 << 128) // 10**12

    def test_target_recorded(self, ctx128):
        assert unity_formula(Seed(2, 2, 1), 4, ctx128).target == "one"


class TestArccosByRecursion:
    def test_zero(self, ctx128):
        got = arccos_by_recursion(FixedReal.zero(128), ctx128)
        want = pi_oracle(ctx128) / 2
        assert abs((got - want).mantissa) < 1 << 16

    def test_point_eight(self, ctx128):
        got = arccos_by_recursion(FixedReal.from_decimal("0.8", 128), ctx128)
        assert got.to_decimal(36)[:34] == ARCCOS_08[:34]

    def test_negative_one_gives_pi(self, ctx128):
        got = arccos_by_recursion(FixedReal.from_int(-1, 128), ctx128)
        assert abs((got - pi_oracle(ctx128)).mantissa) < 1 << 16

    def test_near_one_rejected(self, ctx128):
        x = FixedReal((1 << 128) - 1, 128)
        with pytest.raises(DomainError):
            arccos_by_recursion(x, ctx128)

    def test_matches_series_oracle_random_points(self, ctx128):
        for text in ("0.125", "0.47", "-0.31", "-0.875", "0.96"):
            x = FixedReal.from_decimal(text, 128)
            rec = arccos_by_recursion(x, ctx128)
            ser = arccos_oracle(x, ctx128)
            assert abs((rec - ser).mantissa) < 1 << 16

    @pytest.mark.parametrize("bits", [128, 256, 1024, 2048])
    def test_bound_holds_at_the_ends_of_the_domain(self, bits):
        # the documented 2**(-B + 16) at the largest accepted x0 = 1 - 2**(-B/2),
        # at -1 and one ulp above it; one ulp past the upper end is rejected
        ctx = PrecisionContext(bits)
        one = 1 << bits
        largest = one - (1 << (bits - bits // 2))
        for mantissa in (largest, -one, -one + 1):
            x = FixedReal(mantissa, bits)
            gap = arccos_by_recursion(x, ctx) - arccos_oracle(x, ctx)
            assert abs(gap.mantissa) <= 1 << 16, (bits, mantissa - largest)
        with pytest.raises(DomainError):
            arccos_by_recursion(FixedReal(largest + 1, bits), ctx)

    @pytest.mark.parametrize("bits", [256, 1024])
    @pytest.mark.parametrize("extra", [-1, 0, 1, 20])
    def test_bound_holds_for_an_x0_finer_than_the_working_bits(self, bits, extra):
        # an x0 at or past the working bits stays exact: rounding it to them
        # would cost 1/sin(theta0) units at the ends of the domain, where the
        # bound is tightest
        ctx = PrecisionContext(bits)
        scale = ctx.working_bits + extra
        one = 1 << scale
        largest = one - (1 << (scale - bits // 2))
        for mantissa in (largest, largest - 1, largest - 3, -one + 1, -one + 3):
            x = FixedReal(mantissa, scale)
            gap = arccos_by_recursion(x, ctx) - arccos_oracle(x, ctx)
            assert abs(gap.mantissa) <= 1 << 16, (bits, extra, mantissa - largest)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=(1 << 127)))
    def test_complement_identity(self, mantissa):
        ctx = PrecisionContext(128)
        x = FixedReal(mantissa, 128)
        total = arccos_by_recursion(x, ctx) + arccos_by_recursion(-x, ctx)
        assert abs((total - pi_oracle(ctx)).mantissa) < 1 << 16


class TestVieteProduct:
    def test_single_factor(self, ctx128):
        assert dec(viete_product(1, ctx128))[:38] == TWO_SQRT2[:38]

    def test_two_factors_equal_octagon_route(self, ctx128):
        assert dec(viete_product(2, ctx128))[:38] == OCTAGON[:38]

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 17, 25, 30])
    def test_matches_method1_at_same_index(self, k, ctx128):
        v = viete_product(k, ctx128).value
        p = pi_method1(Seed(1, 0, 1), k, ctx128, "exact").value
        assert abs((v - p).mantissa) < 1 << 8

    def test_converges_to_pi(self, ctx128):
        err = viete_product(30, ctx128).value - pi_oracle(ctx128)
        assert abs(err.mantissa) < (1 << 128) // 10**16


class TestTaylorSeed:
    def test_no_offset_is_one(self):
        assert taylor_seed_exact(5, Fraction(1, 10**9), 6) < 1
        assert taylor_seed_exact(5, Fraction(1, 10**9), 1) == 1

    def test_partial_sum_terms_4(self):
        # 1 - 0.18 - 0.0162 - 0.0029160 exactly
        assert taylor_seed_exact(5, 3, 4) == Fraction(200221, 250000)

    def test_converges_to_four_fifths(self):
        gap = taylor_seed_exact(5, 3, 40) - Fraction(4, 5)
        assert 0 < gap < Fraction(1, 10**9)

    def test_monotone_decreasing_partial_sums(self):
        sums = [taylor_seed_exact(5, 3, t) for t in range(1, 30)]
        assert all(a > b for a, b in zip(sums, sums[1:]))

    def test_domain(self, ctx128):
        with pytest.raises(DomainError):
            taylor_seed_exact(3, 3, 5)
        with pytest.raises(DomainError):
            taylor_seed_exact(3, 4, 5)
        with pytest.raises(DomainError):
            taylor_seed_exact(3, 1, 0)

    @settings(max_examples=30)
    @given(
        m=st.integers(min_value=2, max_value=30),
        d=st.integers(min_value=1, max_value=29),
        terms=st.integers(min_value=2, max_value=25),
    )
    def test_sums_bound_the_limit_from_above(self, m, d, terms):
        if d >= m:
            d = m - 1
        limit_sq = Fraction(m * m - d * d, m * m)
        partial = taylor_seed_exact(m, d, terms)
        assert partial**2 >= limit_sq  # series decreases toward the limit


def test_deep_high_precision_run():
    # guard sizing must hold far beyond the acceptance depths
    from radpi import correct_decimal_digits
    from radpi.arith import pi_fixed

    ctx = PrecisionContext(1024)
    approx = pi_method1(Seed(2, 2, 1), 200, ctx)
    scale = 4 * (1024 + 2 * 200 + 64)
    err = abs(approx.value.rescale(scale) - pi_fixed(scale))
    assert correct_decimal_digits(err) >= 119  # truncation ~ 1e-122


def test_unity_at_obtuse_seed(ctx128):
    # theta0 = arccos(-0.8) ~ 2.498; |U - 1| ~ theta0^2 / (6 * 4^15) ~ 9.7e-10
    got = unity_formula(Seed(5, 16, -1), 15, ctx128).value
    gap = abs((got - FixedReal.one(128)).mantissa)
    assert gap < (1 << 128) // 10**8
    assert gap > (1 << 128) // 10**11


def test_invalid_ratio_mode():
    with pytest.raises(DomainError):
        _resolve_ratio(Seed(2, 2, 1), "sideways", 192)


# every public driver, in each of its variants and ratio modes
_EVERY_DRIVER = {
    **{f"method1 {mode} {variant}": (lambda ctx, mode=mode, variant=variant:
                                     pi_method1(Seed(2, 2), 6, ctx, mode, variant))
       for mode in ("auto", "exact", "self") for variant in ("stable", "naive")},
    **{f"method2 {variant}": lambda ctx, variant=variant: pi_method2(50, 1, ctx, variant)
       for variant in ("corrected", "as_printed")},
    "combined": lambda ctx: pi_combined(50, 1, 4, ctx),
    "unity": lambda ctx: unity_formula(Seed.from_x0("0.3"), 6, ctx),
    "viete": lambda ctx: viete_product(6, ctx),
}


@pytest.mark.parametrize("name", list(_EVERY_DRIVER))
def test_drivers_return_numbers_without_formatting_params(name, ctx128, monkeypatch):
    def refuse(*args):
        raise AssertionError("a driver formatted a parameter")

    monkeypatch.setattr(Seed, "describe", refuse)
    for module in ("arith", "recursion", "drivers"):
        monkeypatch.setattr(f"radpi.{module}._rational_text", refuse, raising=False)
    approx = _EVERY_DRIVER[name](ctx128)
    assert approx.value.scale_bits == 128
    assert approx.target in ("pi", "one")


# each exact-ratio route, and two routes whose ratio needs pi
_PI_FREE = {
    "method1 exact (2, 3, +)": lambda ctx: pi_method1(Seed(2, 3, 1), 8, ctx, "exact"),
    "method1 auto (2, 2, -)": lambda ctx: pi_method1(Seed(2, 2, -1), 8, ctx),
    "method1 auto (1, 0, +)": lambda ctx: pi_method1(Seed(1, 0, 1), 8, ctx),
    "combined (2, 1)": lambda ctx: pi_combined(2, 1, 8, ctx),
    "method2 (2, 1)": lambda ctx: pi_method2(2, 1, ctx),
    "viete": lambda ctx: viete_product(8, ctx),
}
_READS_PI = {
    "method1 self (2, 2, +)": lambda ctx: pi_method1(Seed(2, 2, 1), 8, ctx, "self"),
    "method2 (5, 1)": lambda ctx: pi_method2(5, 1, ctx),
}


@pytest.mark.parametrize("name", [*_PI_FREE, *_READS_PI])
def test_exact_ratio_results_read_no_stored_pi(name, ctx128, monkeypatch):
    # with both ways to a stored pi broken, an exact-ratio route returns its
    # value unchanged, and a route whose ratio needs pi fails (the patch bites)
    call = _PI_FREE.get(name) or _READS_PI[name]
    before = call(ctx128)

    def refuse(*args):
        raise AssertionError("read a stored pi")

    monkeypatch.setattr(radpi.arith, "_pi_mantissa", refuse)
    monkeypatch.setattr(radpi.drivers, "pi_fixed", refuse)
    if name in _READS_PI:
        with pytest.raises(AssertionError, match="read a stored pi"):
            call(ctx128)
        return
    after = call(ctx128)
    assert after.ratio_kind == before.ratio_kind == "exact"
    assert after == before


@pytest.mark.parametrize("bits", [64, 128, 256])
@pytest.mark.parametrize("guard", [32, 40, 64, 80, 120, 200, 240, 400])
def test_arccos_explicit_guard_sets_the_working_bits(bits, guard):
    # the working precision is bits + guard at the depth cap bits/2 + 24; the
    # result stays under one ulp from the truncated oracle at every guard the
    # context accepts, and equals the default run at the default guard 64
    ctx = PrecisionContext(bits, guard)
    ref_ctx = PrecisionContext(4 * bits)
    for text in ("-1", "-0.93", "-0.3", "0", "0.25", "0.8", "0.999"):
        x0 = FixedReal.from_decimal(text, bits)
        got = arccos_by_recursion(x0, ctx)
        ref = arccos_oracle(x0.rescale(4 * bits), ref_ctx)
        assert abs(got.rescale(4 * bits) - ref).mantissa < 1 << (3 * bits), text
        if guard == 64:
            assert got == arccos_by_recursion(x0, PrecisionContext(bits))


def test_parallel_runs_are_reproducible(ctx128):
    # everything is immutable and pure; concurrent evaluation must agree
    # with the sequential results bit for bit
    from concurrent.futures import ThreadPoolExecutor

    jobs = [(Seed(2, 2, 1), k) for k in range(1, 9)] + [(Seed(2, 3, -1), k) for k in range(1, 9)]
    sequential = [pi_method1(seed, k, ctx128).value for seed, k in jobs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda job: pi_method1(job[0], job[1], ctx128).value, jobs))
    assert sequential == parallel


def test_mpmath_cross_check_of_frozen_strings():
    mpmath.mp.dps = 70
    def s(x):
        return mpmath.nstr(x, 62, strip_zeros=False)[:55]

    assert s(8 * mpmath.sin(mpmath.pi / 8)) == OCTAGON[:55]
    assert s(16 * mpmath.sin(mpmath.pi / 16)) == HEXADECAGON[:55]
    assert s(mpmath.mpf(12) / 5 * 8 * mpmath.sin(5 * mpmath.pi / 96)) == PENTAGONAL_K4[:55]
    th = mpmath.acos(mpmath.mpf(4) / 5)
    assert s(2 * mpmath.pi / th * mpmath.sqrt(mpmath.mpf(1) / 10)) == M2_CORR_5_3[:55]
    assert s(2 * mpmath.sqrt(2) / mpmath.pi) == UNITY_K1[:55]
    assert s(2 * mpmath.pi / th) == RATIO_SELF_08[:55]
