"""Fixed-point carrier, integer square root, and the series references.

Frozen expected values were computed independently with mpmath at 60 digits;
the mpmath cross-checks below keep the frozen strings honest.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radpi import (
    DomainError,
    FixedReal,
    PrecisionContext,
    UsageError,
    arccos_oracle,
    decimal_digits_for_bits,
    isqrt,
    pi_oracle,
)
from radpi.arith import MAX_WORKING_BITS, _pi_mantissa

PI_60 = "3.141592653589793238462643383279502884197169399375105820974944"
ARCCOS_08 = "0.643501108793284386802809228717322638041510591115312382865606"
TWENTYTWO_SEVENTHS_GAP = "0.001264489267349618680213759577639972945687743482037036167912"


def fr(text: str, bits: int = 128) -> FixedReal:
    return FixedReal.from_decimal(text, bits)


class TestFixedRealBasics:
    def test_add_exact(self):
        one = FixedReal.from_int(1, 64)
        assert (one + one) == FixedReal.from_int(2, 64)

    def test_mul_dyadic_exact(self):
        half = fr("0.5", 64)
        assert (half * half) == fr("0.25", 64)

    def test_div_one_third_at_8_bits(self):
        # floor(256 / 3) = 85
        q = FixedReal.from_int(1, 8) / FixedReal.from_int(3, 8)
        assert q.mantissa == 85

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            FixedReal.from_int(1, 64) / FixedReal.zero(64)

    def test_scale_mismatch(self):
        with pytest.raises(UsageError):
            FixedReal.from_int(1, 64) + FixedReal.from_int(1, 65)

    def test_rescale_widen_exact_narrow_truncates(self):
        x = FixedReal(85, 8)
        assert x.rescale(16).mantissa == 85 << 8
        assert FixedReal(0b1011, 4).rescale(2).mantissa == 0b10

    def test_negative_truncation_toward_zero(self):
        # -1/3 at 8 bits: toward zero gives -85, floor would give -86
        q = FixedReal.from_int(-1, 8) / FixedReal.from_int(3, 8)
        assert q.mantissa == -85

    def test_mul_fraction(self):
        x = FixedReal.from_int(10, 64)
        assert x.mul_fraction(Fraction(3, 5)) == FixedReal.from_int(6, 64)

    def test_from_decimal_rejects_exponent_form(self):
        with pytest.raises(UsageError):
            FixedReal.from_decimal("1e5", 64)

    def test_decimal_round_trip_example(self):
        x = fr("2.7182818284590452353602874713526624977572", 128)
        assert x.to_decimal(36).startswith("2.718281828459045235360287471352662497")

    @given(
        st.integers(min_value=-(10**30), max_value=10**30),
        st.integers(min_value=0, max_value=25),
    )
    def test_decimal_round_trip_property(self, units, frac_len):
        text = str(abs(units))
        if frac_len:
            text = f"{abs(units) // 10**frac_len}.{abs(units) % 10**frac_len:0{frac_len}d}"
        if units < 0:
            text = "-" + text
        bits = 192
        digits = min(frac_len, decimal_digits_for_bits(bits))
        parsed = FixedReal.from_decimal(text, bits)
        back = FixedReal.from_decimal(parsed.to_decimal(digits), bits)
        tol = (10 ** max(frac_len - digits, 0)) * ((1 << bits) // 10**digits + 2)
        assert abs(parsed.mantissa - back.mantissa) <= tol


class TestIsqrt:
    @pytest.mark.parametrize(
        "n,root", [(16, 4), (15, 3), (0, 0), (1, 1), (2, 1), (10**40, 10**20), (10**40 - 1, 10**20 - 1)]
    )
    def test_examples(self, n, root):
        assert isqrt(n) == root

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            isqrt(-1)

    @given(st.integers(min_value=0, max_value=1 << 1024))
    def test_floor_contract_against_stdlib(self, n):
        r = isqrt(n)
        assert r * r <= n < (r + 1) * (r + 1)
        assert r == math.isqrt(n)

    def test_bulk_random_sample(self):
        import random

        rng = random.Random(0)
        for _ in range(20000):
            n = rng.getrandbits(rng.randrange(1, 1025))
            r = isqrt(n)
            assert r * r <= n < (r + 1) * (r + 1)


class TestFixedSqrt:
    def test_zero_and_one_exact(self):
        assert FixedReal.zero(64).sqrt() == FixedReal.zero(64)
        assert FixedReal.one(64).sqrt() == FixedReal.one(64)

    def test_sqrt_two_at_32_bits(self):
        got = FixedReal.from_int(2, 32).sqrt()
        assert got.mantissa == math.isqrt(2 << 64)
        assert got.to_decimal(8).startswith("1.414213")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            FixedReal.from_int(-1, 64).sqrt()

    @given(st.integers(min_value=0, max_value=(4 << 96) - 1))
    def test_square_residual_bound(self, mantissa):
        x = FixedReal(mantissa, 96)
        r = x.sqrt()
        residual = abs((r * r - x).mantissa)
        assert residual < 1 << 2  # 2^(-B+2) for values in [0, 4)

    @given(
        st.integers(min_value=0, max_value=(4 << 96) - 1),
        st.integers(min_value=0, max_value=(4 << 96) - 1),
    )
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert FixedReal(lo, 96).sqrt() <= FixedReal(hi, 96).sqrt()


class TestPiOracle:
    def test_first_digits_at_64_bits(self, ctx128):
        assert pi_oracle(PrecisionContext(64)).to_decimal(17).startswith("3.1415926535897932")

    def test_sixty_digits_vs_mpmath(self):
        got = pi_oracle(PrecisionContext(256)).to_decimal(60)
        mpmath.mp.dps = 70
        assert got[:58] == mpmath.nstr(mpmath.pi, 62, strip_zeros=False)[:58]
        assert got[:58] == PI_60[:58]

    def test_scale_self_consistency(self):
        lo = pi_oracle(PrecisionContext(64)).to_decimal(17)
        hi = pi_oracle(PrecisionContext(128)).to_decimal(17)
        assert lo == hi

    def test_archimedes_fraction_gap(self):
        # 22/7 - pi at high precision
        scale = 256
        gap = FixedReal.from_fraction(Fraction(22, 7), scale) - pi_oracle(PrecisionContext(scale))
        assert gap.to_decimal(40).startswith(TWENTYTWO_SEVENTHS_GAP[:38])

    def test_six_hundred_digits_vs_mpmath(self):
        # the reference scales reach 4 * MAX_WORKING_BITS = 262144 bits; the
        # exact-floor tests below check pi there, in binary
        mpmath.mp.dps = 640
        got = pi_oracle(PrecisionContext(2048)).to_decimal(610)
        want = mpmath.nstr(mpmath.pi, 625, strip_zeros=False)
        assert got[:610] == want[:610]

    @staticmethod
    def _floor_pi(bits: int) -> int:
        # rounded to bits + 128 bits, pi * 2**bits keeps 126 fraction bits, so
        # its floor is exact unless all of those are ones
        with mpmath.workprec(bits + 128):
            return int(mpmath.floor(mpmath.ldexp(mpmath.pi, bits)))

    def test_exact_floor_at_every_scale_to_2048_bits(self):
        assert [b for b in range(64, 2049) if _pi_mantissa(b) != self._floor_pi(b)] == []

    # 11790: pi * 2**11790 has 16 zero bits after the binary point, so a
    # reference with fewer guard bits returns floor - 1 there. 16656 is the
    # warm-up's 4 * (4096 + 68); 262144 the largest reference scale admitted.
    @pytest.mark.parametrize("bits", [11790, 16656, 65536, 4 * MAX_WORKING_BITS])
    def test_exact_floor_at_reference_scales(self, bits):
        assert _pi_mantissa(bits) == self._floor_pi(bits)


class TestArccosOracle:
    def test_endpoints(self, ctx128):
        bits = 128
        assert arccos_oracle(FixedReal.one(bits), ctx128).mantissa == 0
        gap = arccos_oracle(FixedReal.from_int(-1, bits), ctx128) - pi_oracle(ctx128)
        assert abs(gap.mantissa) < 1 << 8

    def test_zero_gives_half_pi(self, ctx128):
        got = arccos_oracle(FixedReal.zero(128), ctx128)
        want = pi_oracle(ctx128) / 2
        assert abs((got - want).mantissa) < 1 << 8

    def test_point_eight(self, ctx128):
        got = arccos_oracle(fr("0.8"), ctx128)
        assert got.to_decimal(36).startswith(ARCCOS_08[:34])

    def test_mpmath_cross_check(self, ctx128):
        mpmath.mp.dps = 50
        for text in ("0.125", "0.3", "0.5", "0.77", "0.9375", "-0.3", "-0.9"):
            got = arccos_oracle(fr(text), ctx128).to_decimal(34)
            want = mpmath.nstr(mpmath.acos(mpmath.mpf(text)), 40, strip_zeros=False)
            assert got[:30] == want[:30]

    def test_mpmath_cross_check_high_precision(self, ctx256):
        # criterion-level reference precision: 70 digits at 256 bits
        mpmath.mp.dps = 90
        for text in ("0.8", "0.05", "-0.99"):
            got = arccos_oracle(FixedReal.from_decimal(text, 256), ctx256).to_decimal(70)
            want = mpmath.nstr(mpmath.acos(mpmath.mpf(text)), 80, strip_zeros=False)
            assert got[:70] == want[:70]

    # both arctan branches (|x| <= 1/2 and above) and the pi - a quadrant
    @pytest.mark.parametrize("bits,text", [
        *((bits, text) for bits in (1024, 4096)
          for text in ("-0.999", "-0.5", "0", "0.3", "0.5", "0.9375")),
        (16384, "-0.999"),
    ])
    def test_documented_bound_vs_mpmath(self, bits, text):
        x = FixedReal.from_decimal(text, bits)
        got = arccos_oracle(x, PrecisionContext(bits))
        with mpmath.workprec(bits + 64):
            want = mpmath.acos(mpmath.ldexp(x.mantissa, -bits))
            err = abs(mpmath.ldexp(got.mantissa, -bits) - want)
            assert err < mpmath.ldexp(1, 8 - bits)

    def test_out_of_range(self, ctx128):
        with pytest.raises(DomainError):
            arccos_oracle(fr("1.5"), ctx128)

    @settings(max_examples=40)
    @given(st.integers(min_value=1, max_value=(1 << 128) - 1))
    def test_complement_identity(self, mantissa):
        ctx = PrecisionContext(128)
        x = FixedReal(mantissa, 128)
        total = arccos_oracle(x, ctx) + arccos_oracle(-x, ctx)
        assert abs((total - pi_oracle(ctx)).mantissa) < 1 << 10


class TestPrecisionContext:
    def test_minimums(self):
        with pytest.raises(UsageError):
            PrecisionContext(32)
        with pytest.raises(UsageError):
            PrecisionContext(128, 16)

    def test_guard_rule(self):
        assert PrecisionContext(128).bits_for_depth(20) == 232

    def test_explicit_guard_is_a_budget(self):
        from radpi import PrecisionError

        ctx = PrecisionContext(128, 80)
        assert ctx.bits_for_depth(8) == 208
        with pytest.raises(PrecisionError, match=r"guard_bits=80 allows 8\)"):
            ctx.bits_for_depth(9)

    def test_budget_under_64_bits_reports_no_depth(self):
        from radpi import PrecisionError

        with pytest.raises(PrecisionError, match=r"guard_bits=40 allows 0\)"):
            PrecisionContext(128, 40).bits_for_depth(5)
