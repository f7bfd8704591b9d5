"""Arbitrary-precision fixed-point arithmetic and series-based reference values.

A value is a dyadic rational ``mantissa * 2**-scale_bits`` carried as a plain
Python integer, so every operation reduces to exact integer work plus at most
one explicit truncation toward zero (faithful rounding, error <= 1 unit in the
last place). All operands of a binary operation must share the same scale;
rescaling is always explicit.

The module also provides the two reference constants used for error
measurement: pi from the Chudnovsky series, by binary splitting on exact
integers, and arccos from a reduced arctangent series. Both take their square
roots with ``math.isqrt``, not the engine's ``isqrt``, so they are independent
of the half-angle recursions they are used to check.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from ._record import Record, set_field
from .errors import DomainError, PrecisionError, UsageError

# log10(2) ~= 30103/100000 (4.3e-9 high; exact enough for digit counts at any
# scale this package reaches).
_LOG10_2_NUM = 30103
_LOG10_2_DEN = 100000

# Decimal text converts 500 digits at a time: under 640, the least int/str
# digit limit Python 3.11+ accepts, so no output depends on the interpreter.
_CHUNK = 500
_CHUNK_BASE = 10**_CHUNK


def decimal_digits_for_bits(bits: int) -> int:
    """Number of trustworthy fraction digits at a binary scale."""
    return (bits * _LOG10_2_NUM) // _LOG10_2_DEN - 2


def _tdiv(a: int, b: int) -> int:
    """Integer division truncated toward zero (Python's ``//`` floors)."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _tshift(a: int, n: int) -> int:
    """``_tdiv(a, 1 << n)`` by a shift, not a long division."""
    return a >> n if a >= 0 else -(-a >> n)


def _digits(n: int, width: int) -> str:
    """``str(n)`` of an n >= 0, zero-padded to ``width``, a chunk at a time."""
    chunks = []
    while n >= _CHUNK_BASE:
        n, low = divmod(n, _CHUNK_BASE)
        chunks.append(str(low).zfill(_CHUNK))
    return (str(n) + "".join(reversed(chunks))).zfill(width)


def _int(digits: str) -> int:
    """``int(digits)`` of a digit string (with int's underscores between
    digits; 0 for an empty one), a chunk at a time."""
    digits, n = digits.replace("_", ""), 0
    for i in range(0, len(digits), _CHUNK):
        n = n * 10 ** len(digits[i:i + _CHUNK]) + int(digits[i:i + _CHUNK])
    return n


def _rational_text(value: int | Rational) -> str:
    """``str(Fraction(value))`` of an int or a Rational, printed a chunk at a time."""
    text = ("-" if value < 0 else "") + _digits(abs(value.numerator), 0)
    return text if value.denominator == 1 else f"{text}/{_digits(value.denominator, 0)}"


def _rational_literal(text: str) -> tuple[int, int]:
    """(numerator, denominator), converted a chunk at a time, of text in Python
    3.11's ``Fraction`` grammar on every Python (a digit: ``str.isdecimal``, what
    ``re`` reads as ``\\d``); else ValueError. One of more digits as written, its
    exponent applied, than always fit in MAX_WORKING_BITS bits is over the cost
    bound before it is built."""
    body = text.strip()
    sign, body = -1 if body[:1] == "-" else 1, body[1:] if body[:1] in "+-" else body
    parts = body.split("_")  # each underscore stands between two digits
    num, slash, denom = "".join(parts).partition("/")
    mantissa, e, exp = num.replace("E", "e").partition("e")
    whole, dot, decimal = mantissa.partition(".")  # one side may be empty
    if not (all(a[-1:].isdecimal() and b[:1].isdecimal() for a, b in zip(parts, parts[1:]))
            and (whole + decimal).isdecimal()
            and (not e or (exp[1:] if exp[:1] in "+-" else exp).isdecimal())
            and (not slash or not dot and not e and denom.isdecimal())):
        raise ValueError(f"invalid literal for a rational: {text!r}")
    shift = _int(exp.lstrip("+-")) * (-1 if exp[:1] == "-" else 1) - len(decimal)
    digits = whole + decimal  # the value is digits * 10**shift / denom
    size = max(len(digits.lstrip("0")) + max(shift, 0), len(denom.lstrip("0")), 1 - shift)
    bound = decimal_digits_for_bits(MAX_WORKING_BITS)  # 19726
    if size > bound:
        raise PrecisionError("request over the cost bound: a rational of "
                             f"{_digits(size, 0)} digits (at most {bound})")
    return sign * _int(digits) * 10 ** max(shift, 0), _int(denom or "1") * 10 ** max(-shift, 0)


def _operator(op):
    """op's forward and reflected Rational methods: op(an, ad, bn, bd) of the operands'
    lowest-terms integer ratios; NotImplemented for an operand without one."""
    return (lambda a, b: op(*a._values(), *b.as_integer_ratio())
            if hasattr(b, "as_integer_ratio") else NotImplemented,
            lambda b, a: op(*a.as_integer_ratio(), *b._values())
            if hasattr(a, "as_integer_ratio") else NotImplemented)


class Rational(Record):
    """An exact numerator/denominator in lowest terms (denominator > 0) of ints,
    a ``_rational_literal`` or anything with ``as_integer_ratio()``: a Fraction's
    ``==``, ``hash`` and ``str``, without the ``re`` and ``decimal`` it loads."""

    __slots__ = ("numerator", "denominator")
    numerator: int
    denominator: int

    def __init__(self, value, denominator: int = 1) -> None:
        value, d = _rational_literal(value) if isinstance(value, str) else value.as_integer_ratio()
        d *= denominator
        if d == 0:
            raise ZeroDivisionError(f"Rational({value}, 0)")
        g = math.gcd(value, d) if d > 0 else -math.gcd(value, d)
        set_field(self, "numerator", value // g)
        set_field(self, "denominator", d // g)

    as_integer_ratio = Record._values  # (numerator, denominator)

    __add__, __radd__ = _operator(lambda an, ad, bn, bd: Rational(an * bd + bn * ad, ad * bd))
    __sub__, __rsub__ = _operator(lambda an, ad, bn, bd: Rational(an * bd - bn * ad, ad * bd))
    __mul__, __rmul__ = _operator(lambda an, ad, bn, bd: Rational(an * bn, ad * bd))
    __truediv__, __rtruediv__ = _operator(lambda an, ad, bn, bd: Rational(an * bd, ad * bn))
    __eq__ = _operator(lambda an, ad, bn, bd: an == bn and ad == bd)[0]
    __lt__ = _operator(lambda an, ad, bn, bd: an * bd < bn * ad)[0]
    __le__ = _operator(lambda an, ad, bn, bd: an * bd <= bn * ad)[0]
    __gt__ = _operator(lambda an, ad, bn, bd: an * bd > bn * ad)[0]
    __ge__ = _operator(lambda an, ad, bn, bd: an * bd >= bn * ad)[0]

    def __neg__(self) -> "Rational":
        return Rational(-self.numerator, self.denominator)

    def __pow__(self, n: int) -> "Rational":
        num, den = (self.numerator, self.denominator)[::1 if n >= 0 else -1]
        return Rational(num ** abs(n), den ** abs(n)) if isinstance(n, int) else NotImplemented

    def __hash__(self) -> int:  # Fraction's: |numerator| / denominator modulo a prime
        try:
            h = hash(abs(self.numerator)) * pow(self.denominator, -1, sys.hash_info.modulus)
        except ValueError:  # the denominator is a multiple of the prime
            h = sys.hash_info.inf
        return hash(h if self.numerator >= 0 else -h)

    __str__ = _rational_text


def isqrt(n: int) -> int:
    """Floor square root of a non-negative integer by Newton iteration.

    The initial guess ``2**ceil(bit_length/2)`` is >= sqrt(n), so the iterates
    decrease monotonically; the first non-decrease is exactly floor(sqrt(n)).
    The engine keeps this loop, not the faster ``math.isqrt``, until the
    benchmark's peak memory stops growing with its op count (ROADMAP items 1
    and 2); the pi and arccos references use ``math.isqrt``, so they share no
    root with it.
    """
    if n < 0:
        raise DomainError("isqrt of negative integer")
    if n == 0:
        return 0
    x = 1 << ((n.bit_length() + 1) // 2)
    while True:
        y = (x + n // x) // 2
        if y >= x:
            return x
        x = y


class FixedReal(Record):
    """Signed fixed-point real: value = mantissa * 2**-scale_bits."""

    __slots__ = ("mantissa", "scale_bits")
    mantissa: int
    scale_bits: int

    def __init__(self, mantissa: int, scale_bits: int) -> None:
        if scale_bits < 0:
            raise UsageError("scale_bits must be non-negative")
        set_field(self, "mantissa", mantissa)
        set_field(self, "scale_bits", scale_bits)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int, scale_bits: int) -> "FixedReal":
        return cls(n << scale_bits, scale_bits)

    @classmethod
    def from_fraction(cls, fr: int | Rational, scale_bits: int) -> "FixedReal":
        return cls(_tdiv(fr.numerator << scale_bits, fr.denominator), scale_bits)

    @classmethod
    def from_decimal(cls, text: str, scale_bits: int) -> "FixedReal":
        """Parse ``[+-]digits[.digits]``; no exponent form. Truncates toward zero."""
        body = text.strip()
        int_part, _, frac_part = (body[1:] if body[:1] in "+-" else body).partition(".")
        if not int_part.isdecimal() or not (int_part + frac_part).isdecimal():
            raise UsageError(f"malformed decimal literal: {text!r}")
        mant = _tdiv(_int(int_part + frac_part) << scale_bits, 10 ** len(frac_part))
        return cls(-mant if body[:1] == "-" else mant, scale_bits)

    @classmethod
    def zero(cls, scale_bits: int) -> "FixedReal":
        return cls(0, scale_bits)

    @classmethod
    def one(cls, scale_bits: int) -> "FixedReal":
        return cls(1 << scale_bits, scale_bits)

    # -- conversions -------------------------------------------------------

    def rescale(self, scale_bits: int) -> "FixedReal":
        """Move to another scale: exact when widening, truncating when narrowing."""
        diff = scale_bits - self.scale_bits
        if diff == 0:
            return self
        if diff > 0:
            return FixedReal(self.mantissa << diff, scale_bits)
        return FixedReal(_tshift(self.mantissa, -diff), scale_bits)

    def to_decimal(self, digits: int) -> str:
        """Plain decimal string with ``digits`` fraction digits, truncated toward zero."""
        if digits < 0:
            raise UsageError("digits must be non-negative")
        text = _digits((abs(self.mantissa) * 10**digits) >> self.scale_bits, digits + 1)
        body = f"{text[:-digits]}.{text[-digits:]}" if digits else text
        return "-" + body if self.mantissa < 0 else body

    # -- arithmetic (same-scale operands; rescaling is explicit) -----------

    def _coscale(self, other: "FixedReal") -> None:
        if not isinstance(other, FixedReal):
            raise UsageError(f"expected FixedReal, got {type(other).__name__}")
        if other.scale_bits != self.scale_bits:
            raise UsageError(
                f"scale mismatch: {self.scale_bits} vs {other.scale_bits} bits"
            )

    def __add__(self, other: "FixedReal") -> "FixedReal":
        self._coscale(other)
        return FixedReal(self.mantissa + other.mantissa, self.scale_bits)

    def __sub__(self, other: "FixedReal") -> "FixedReal":
        self._coscale(other)
        return FixedReal(self.mantissa - other.mantissa, self.scale_bits)

    def __neg__(self) -> "FixedReal":
        return FixedReal(-self.mantissa, self.scale_bits)

    def __abs__(self) -> "FixedReal":
        return FixedReal(abs(self.mantissa), self.scale_bits)

    def __mul__(self, other):
        if isinstance(other, int):
            return FixedReal(self.mantissa * other, self.scale_bits)
        self._coscale(other)
        return FixedReal(
            _tshift(self.mantissa * other.mantissa, self.scale_bits),
            self.scale_bits,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            if other == 0:
                raise DomainError("division by zero")
            return FixedReal(_tdiv(self.mantissa, other), self.scale_bits)
        self._coscale(other)
        if other.mantissa == 0:
            raise DomainError("division by zero")
        return FixedReal(
            _tdiv(self.mantissa << self.scale_bits, other.mantissa), self.scale_bits
        )

    def mul_fraction(self, fr: int | Rational) -> "FixedReal":
        """Multiply by an int or a Rational with a single truncation."""
        return FixedReal(_tdiv(self.mantissa * fr.numerator, fr.denominator), self.scale_bits)

    def times_pow2(self, n: int) -> "FixedReal":
        """Multiply by 2**n (exact for n >= 0, truncating for n < 0)."""
        if n >= 0:
            return FixedReal(self.mantissa << n, self.scale_bits)
        return FixedReal(_tshift(self.mantissa, -n), self.scale_bits)

    def sqrt(self) -> "FixedReal":
        """Floor square root at the same scale: isqrt(mantissa << scale_bits)."""
        if self.mantissa < 0:
            raise DomainError("square root of negative value")
        return FixedReal(isqrt(self.mantissa << self.scale_bits), self.scale_bits)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):  # Record's, field by field without its tuples
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mantissa == other.mantissa and self.scale_bits == other.scale_bits

    __hash__ = Record.__hash__

    def __lt__(self, other: "FixedReal") -> bool:
        self._coscale(other)
        return self.mantissa < other.mantissa

    def __le__(self, other: "FixedReal") -> bool:
        self._coscale(other)
        return self.mantissa <= other.mantissa

    def __gt__(self, other: "FixedReal") -> bool:
        self._coscale(other)
        return self.mantissa > other.mantissa

    def __ge__(self, other: "FixedReal") -> bool:
        self._coscale(other)
        return self.mantissa >= other.mantissa

    def __repr__(self) -> str:
        shown = min(self.scale_bits, 12)
        return f"FixedReal({self.to_decimal(decimal_digits_for_bits(max(shown * 4, 16)))}@{self.scale_bits}b)"


# The cost bound of every request, checked before any work starts: no engine
# run works at more than MAX_WORKING_BITS bits, and none (nor the rows of a
# table together) takes more than MAX_BIT_STEPS working bits x half-angle steps.
MAX_WORKING_BITS = 1 << 16
MAX_BIT_STEPS = 1 << 29


def admit_cost(bit_steps: int, work: int = 0) -> None:
    """Refuse with PrecisionError a request over the cost bound: ``work``
    working bits, or ``bit_steps`` working bits x half-angle steps."""
    if work > MAX_WORKING_BITS:
        raise PrecisionError(
            f"request over the cost bound: {work} working bits (at most {MAX_WORKING_BITS})"
        )
    if bit_steps > MAX_BIT_STEPS:
        raise PrecisionError(
            f"request over the cost bound: {bit_steps} working bits x half-angle steps "
            f"(at most {MAX_BIT_STEPS})"
        )


class PrecisionContext(Record):
    """Working precision: output scale plus guard bits for internal slack.

    ``guard_bits=None`` lets each route of a requested depth size the guard
    for that depth by the rule ``2*depth + 64`` (the final 2**k scaling
    amplifies absolute error by 2**k and radicand cancellation can cost
    another k bits). An explicit guard is honored as a hard budget instead.
    The self-consistent arccos runs at ``working_bits``, the scale plus 64 or
    plus the explicit guard. ``drivers.plan`` applies both rules.
    """

    __slots__ = ("scale_bits", "guard_bits")
    scale_bits: int
    guard_bits: int | None

    def __init__(self, scale_bits: int, guard_bits: int | None = None) -> None:
        if scale_bits < 64:
            raise UsageError("scale_bits must be >= 64")
        if guard_bits is not None and guard_bits < 32:
            raise UsageError("guard_bits must be >= 32")
        set_field(self, "scale_bits", scale_bits)
        set_field(self, "guard_bits", guard_bits)

    @property
    def working_bits(self) -> int:
        return self.scale_bits + (self.guard_bits if self.guard_bits is not None else 64)


# -- reference constants ----------------------------------------------------


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """(P, Q, T) of Chudnovsky terms a..b-1 by binary splitting (Haible and
    Papanikolaou 1998): T/Q sums them, and its limit is 426880*sqrt(10005)/pi."""
    if b - a == 1:
        p = q = 1
        if a:
            p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
            q = a * a * a * 10939058860032000  # 640320**3 // 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a & 1 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, mid)
    p2, q2, t2 = _chudnovsky(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


@lru_cache(maxsize=None)
def _pi_mantissa(bits: int) -> int:
    """pi * 2**bits within 1: the Chudnovsky series (47.1 bits a term) at 32
    guard bits is at most 1.05 under pi * 2**(bits+32) and 2**-38 over it, so
    this is floor(pi * 2**bits) unless pi * 2**bits is within 2**-31 of an
    integer."""
    w = bits + 32
    _, q, t = _chudnovsky(0, w // 47 + 2)
    return (426880 * math.isqrt(10005 << 2 * w) * q // t) >> 32


def pi_oracle(ctx: PrecisionContext) -> FixedReal:
    """pi at the context's output scale, within 2**-scale_bits."""
    return FixedReal(_pi_mantissa(ctx.scale_bits), ctx.scale_bits)


def pi_fixed(scale_bits: int) -> FixedReal:
    """pi at an arbitrary scale (internal helper for working precisions)."""
    return FixedReal(_pi_mantissa(scale_bits), scale_bits)


def _ref_sqrt(x: FixedReal) -> FixedReal:
    """``x.sqrt()`` by ``math.isqrt``: the same floor root, without the engine's
    Newton loop."""
    return FixedReal(math.isqrt(x.mantissa << x.scale_bits), x.scale_bits)


def _arctan_fixed(t: FixedReal) -> FixedReal:
    """arctan(t) at t's scale via argument halving plus the power series.

    Repeated t <- t / (1 + sqrt(1 + t^2)) halves the argument; once |t| is
    below 2**-8 the alternating series gains 16 bits per term.
    """
    bits = t.scale_bits
    one = FixedReal.one(bits)
    small = FixedReal(1 << (bits - 8), bits)
    halvings = 0
    while abs(t) > small:
        t = t / (one + _ref_sqrt(one + t * t))
        halvings += 1
    tt = t * t
    term = t
    total = t
    n = 1
    while term.mantissa != 0:
        term = term * tt
        contrib = term / (2 * n + 1)
        total = total - contrib if n & 1 else total + contrib
        n += 1
    return total.times_pow2(halvings)


def arccos_oracle(x: FixedReal, ctx: PrecisionContext) -> FixedReal:
    """arccos(x) within 2**(-scale_bits + 8), for -1 <= x <= 1.

    Uses arctan on sqrt(1-x^2)/x with quadrant handling; the small-|x| branch
    goes through arcsin to keep the arctan argument bounded.
    """
    out_bits = ctx.scale_bits
    one_in = 1 << x.scale_bits
    if abs(x.mantissa) > one_in:
        raise DomainError("arccos argument outside [-1, 1]")
    if x.mantissa == one_in:
        return FixedReal.zero(out_bits)
    if x.mantissa == -one_in:
        return pi_fixed(out_bits)

    work = max(out_bits, x.scale_bits) + 64
    xw = x.rescale(work)
    one = FixedReal.one(work)
    half_pi = pi_fixed(work) / 2
    if abs(xw.mantissa) * 2 <= one.mantissa:
        # arccos(x) = pi/2 - arctan(x / sqrt(1 - x^2)); argument stays <= 0.578
        res = half_pi - _arctan_fixed(xw / _ref_sqrt(one - xw * xw))
    else:
        ax = abs(xw)
        a = _arctan_fixed(_ref_sqrt(one - ax * ax) / ax)
        res = a if xw.mantissa > 0 else pi_fixed(work) - a
    return res.rescale(out_bits)
