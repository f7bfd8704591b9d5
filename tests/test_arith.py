"""Fixed-point carrier, integer square root, and the series references.

Frozen expected values were computed independently with mpmath at 60 digits;
the mpmath cross-checks below keep the frozen strings honest.
"""

import math
import operator
import re
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
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
from radpi.arith import (
    MAX_WORKING_BITS,
    Rational,
    _int,
    _pi_mantissa,
    _rational_text,
    _tdiv,
    _tshift,
)
from radpi.drivers import plan

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

    @given(st.integers(min_value=-(1 << 300), max_value=1 << 300),
           st.integers(min_value=-(1 << 300), max_value=1 << 300),
           st.integers(min_value=0, max_value=320))
    def test_truncating_shift_is_the_truncating_division(self, a, b, n):
        # multiply, narrowing rescale and times_pow2(-n) shift instead of dividing
        assert _tshift(a, n) == _tdiv(a, 1 << n)
        x = FixedReal(a, n)
        assert x.rescale(0).mantissa == _tdiv(a, 1 << n)
        assert x.times_pow2(-n).mantissa == _tdiv(a, 1 << n)
        assert (x * FixedReal(b, n)).mantissa == _tdiv(a * b, 1 << n)


class TestDecimalTextPastTheIntStrLimit:
    # 20000 bits print 6018 fraction digits, past the 4300 digits that Python
    # 3.11 converts between int and str by default
    BITS = 20000

    def test_to_decimal_prints_every_digit_at_any_limit(self, int_str_digits):
        x = FixedReal(-_pi_mantissa(self.BITS) * 7, self.BITS)
        digits = decimal_digits_for_bits(self.BITS)
        got = x.to_decimal(digits)
        int_str_digits(640)  # the least limit Python accepts
        assert x.to_decimal(digits) == got
        int_str_digits(0)
        scaled = (-x.mantissa * 10**digits) >> self.BITS
        assert got == f"-{scaled // 10**digits}.{scaled % 10**digits:0{digits}d}"

    def test_from_decimal_reads_every_digit(self, int_str_digits):
        digits = decimal_digits_for_bits(self.BITS)
        text = FixedReal(_pi_mantissa(self.BITS) << 40, self.BITS).to_decimal(digits)
        got = FixedReal.from_decimal(text, self.BITS)
        int_str_digits(0)
        assert got.mantissa == (int(text.replace(".", "")) << self.BITS) // 10**digits

    @pytest.mark.parametrize("num, den", [(0, 1), (7, 3), (-(10**6000) - 7, 1),
                                          (3**9001, 2**9001), (-1, 10**5000 + 1)],
                             ids=["0", "7/3", "-10^6000-7", "3^9001/2^9001", "-1/(10^5000+1)"])
    def test_rationals_print_and_parse_every_digit(self, int_str_digits, num, den):
        value = Fraction(num, den)
        num = abs(value.numerator)
        int_str_digits(640)
        text, digits = _rational_text(value), _rational_text(num)
        back = _int(f"{digits[:1]}_{digits[1:]}" if len(digits) > 1 else digits)
        int_str_digits(0)
        assert (text, digits, back) == (str(value), str(num), num)


# The grammar that from_decimal read through a regex: after strip(), a sign,
# digits of any script (what `\d` matches), and a point with optional digits.
_DECIMAL_RE = re.compile(r"^([+-]?)(\d+)(?:\.(\d*))?$")


@settings(max_examples=200)
@given(st.one_of(st.from_regex(_DECIMAL_RE), st.text(" +-.0123456789_e/\n\t\u0663\u00b2", max_size=8)))
@example("\u0661\u0662.\u0663")  # Arabic-Indic digits: \d matches them, and so does the scanner
@example(" -7. ")
@example("\u00b2")  # a superscript two is a digit to isdigit, not to \d
def test_from_decimal_reads_what_the_decimal_regex_read(text):
    match = _DECIMAL_RE.match(text.strip())
    if match is None:
        with pytest.raises(UsageError, match="malformed decimal literal"):
            FixedReal.from_decimal(text, 64)
        return
    sign, whole, frac = match[1], match[2], match[3] or ""
    value = Fraction(int(whole + frac), 10 ** len(frac))
    assert FixedReal.from_decimal(text, 64) == FixedReal.from_fraction(
        -value if sign == "-" else value, 64)


_FRACTIONS = st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**30))
_MODULUS = sys.hash_info.modulus


class TestRational:
    """The rational against the Fraction of the same value."""

    @settings(max_examples=300)
    @given(_FRACTIONS, st.one_of(_FRACTIONS, st.integers(-(10**30), 10**30)))
    @example(Fraction(3, 4), 0)
    @example(Fraction(0), Fraction(0))
    def test_arithmetic_with_int_or_rational_on_either_side(self, a, b):
        other = b if isinstance(b, int) else Rational(b)
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            for (x, y), (fx, fy) in (((Rational(a), other), (a, b)), ((other, Rational(a)), (b, a))):
                try:
                    expected = op(fx, fy)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(x, y)
                    continue
                got = op(x, y)
                assert type(got) is Rational
                assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    @settings(max_examples=300)
    @given(_FRACTIONS, st.one_of(_FRACTIONS, st.integers(-(10**30), 10**30)))
    @example(Fraction(1, 3), Fraction(1, 3))
    @example(Fraction(-2), -2)
    def test_comparisons_and_equality(self, a, b):
        other = b if isinstance(b, int) else Rational(b)
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne):
            assert op(Rational(a), other) == op(a, b)
            assert op(other, Rational(a)) == op(b, a)
        assert Rational(a) == a and a == Rational(a)  # against the Fraction itself

    @settings(max_examples=300)
    @given(_FRACTIONS, st.integers(-8, 8))
    @example(Fraction(0), -1)
    @example(Fraction(-2, 3), -3)
    def test_powers(self, a, n):
        try:
            expected = a**n
        except ZeroDivisionError:
            with pytest.raises(ZeroDivisionError):
                Rational(a) ** n
            return
        got = Rational(a) ** n
        assert (got.numerator, got.denominator) == (expected.numerator, expected.denominator)

    @settings(max_examples=300)
    @given(_FRACTIONS)
    @example(Fraction(-1))  # hash(-1) is -2
    @example(Fraction(1, _MODULUS))  # no inverse modulo the hash prime
    @example(Fraction(-3, 2 * _MODULUS))
    def test_hash_and_text(self, a):
        assert hash(Rational(a)) == hash(a)
        assert {a: "fraction"}[Rational(a)] == "fraction"
        assert {Rational(a): "rational"}[a] == "rational"
        assert _rational_text(Rational(a)) == str(Rational(a)) == str(a)

    def test_built_from_ints_literals_floats_and_fractions(self):
        assert Rational(6, -4) == Fraction(-3, 2)
        assert Rational(" -1_5e-1 ") == Fraction(-3, 2)
        assert Rational(0.1) == Fraction(0.1)
        assert Rational(Fraction(7, 3), 2) == Fraction(7, 6)
        with pytest.raises(ZeroDivisionError):
            Rational(1, 0)
        with pytest.raises(ValueError):
            Rational("1 / 2")

    # every literal has the rational flags' bound: the digits of 10**n are n + 1
    def test_literal_past_19726_digits_is_over_the_cost_bound(self):
        from radpi import PrecisionError

        with pytest.raises(PrecisionError, match=r"^request over the cost bound: a rational of "
                                                 r"19728 digits \(at most 19726\)$"):
            Rational("1e-19727")

    def test_literal_of_19726_digits_builds(self):
        assert Rational("1e-19725") == Fraction(1, 10**19725)

    # the exponent reads a chunk at a time, and a size past the bound prints a
    # chunk at a time, at Python's 4300-digit int/str limit
    def test_exponent_past_4300_digits(self, int_str_digits):
        from radpi import PrecisionError

        int_str_digits(4300)
        assert Rational("1e-" + "0" * 5000 + "1") == Fraction(1, 10)
        assert Rational("-2.5E+" + "0_0" * 2500 + "2") == -250
        with pytest.raises(PrecisionError, match=r"^request over the cost bound: a rational of "
                                                 rf"1{'0' * 5000} digits \(at most 19726\)$"):
            Rational("1e-" + "9" * 5000)
        with pytest.raises(PrecisionError, match=r"^request over the cost bound: a rational of "
                                                 r"100000000 digits \(at most 19726\)$"):
            Rational("1e-99999999")


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

    @pytest.mark.parametrize("bits", [128, 1024, 4096])
    def test_shares_no_root_with_the_engine(self, bits, monkeypatch):
        # a fault in the engine's isqrt must not move the reference it is checked against
        xs = [FixedReal.from_decimal(text, bits) for text in ("-0.9", "-0.3", "0.3", "0.77")]
        ctx = PrecisionContext(bits)
        want = [arccos_oracle(x, ctx).mantissa for x in xs]

        def broken(n):
            raise AssertionError("arccos reference took the engine's isqrt")

        monkeypatch.setattr("radpi.arith.isqrt", broken)
        assert [arccos_oracle(x, ctx).mantissa for x in xs] == want

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
        assert plan("depth", PrecisionContext(128), k=20).work == 232

    def test_explicit_guard_is_a_budget(self):
        from radpi import PrecisionError

        ctx = PrecisionContext(128, 80)
        assert plan("depth", ctx, k=8).work == 208
        with pytest.raises(PrecisionError, match=r"guard_bits=80 allows 8\)"):
            plan("depth", ctx, k=9)

    def test_budget_under_64_bits_reports_no_depth(self):
        from radpi import PrecisionError

        with pytest.raises(PrecisionError, match=r"guard_bits=40 allows 0\)"):
            plan("depth", PrecisionContext(128, 40), k=5)
