"""Correctness checks against series oracles, computed outside the timed section.

A pi (or unity) approximant of the form (pi/x) * sin(x), with x = theta0/2**k,
has the exact truncation error pi * (1 - sin(x)/x), which lies in
[pi*(x**2/6 - x**4/120), pi*x**2/6]. Every approximant the workloads request
is of that form, so each result is checked against that two-sided window
(widened by rounding), using an independent Machin pi at 64 extra bits.
Arccos results are checked against the package's series `arccos_oracle`.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from functools import lru_cache

# Relative slack on the float-evaluated truncation window.
_REL = 1e-9
LOG10_2 = math.log10(2)


@lru_cache(maxsize=None)
def pi_mantissa(bits: int) -> int:
    """floor(pi * 2**bits) within one unit: 16 atan(1/5) - 4 atan(1/239)."""
    guard = 32
    one = 1 << (bits + guard)

    def atan_recip(x: int) -> int:
        power = one // x
        total = power
        x2 = x * x
        n = 1
        while power:
            power //= x2
            term = power // (2 * n + 1)
            total += -term if n & 1 else term
            n += 1
        return total

    return (16 * atan_recip(5) - 4 * atan_recip(239)) >> guard


def to_float(mantissa: int, scale: int) -> float:
    """mantissa * 2**-scale as a float, without overflowing on huge mantissas."""
    shift = max(0, abs(mantissa).bit_length() - 62)
    return math.ldexp(mantissa >> shift if mantissa >= 0 else -((-mantissa) >> shift),
                      shift - scale)


def theta(m, s, sign: int) -> float:
    """arccos(sign*sqrt(s)/m) as atan2(sqrt(m**2 - s), sign*sqrt(s)); stable near 0."""
    m, s = Fraction(m), Fraction(s)
    return math.atan2(math.sqrt(m * m - s), sign * math.sqrt(s))


def theta_x0(x0: Fraction) -> float:
    return theta(1, x0 * x0, -1 if x0 < 0 else 1)


def theta_m_d(m, d) -> float:
    m, d = Fraction(m), Fraction(d)
    return theta(m, m * m - d * d, 1)


def digits_of(err: float, bits: int) -> int:
    """Correct decimal digits for an absolute error, capped at the output precision."""
    cap = int(bits * LOG10_2)
    if err <= 0:
        return cap
    return max(0, min(cap, math.floor(-math.log10(err))))


def check_window(value: Fraction, x: float, target: str, bits: int, slack: float = 0.0):
    """(ok, digits, reason) for value ~ target with truncation argument x."""
    scale = bits + 64
    ref = pi_mantissa(scale) if target == "pi" else 1 << scale
    err = to_float(ref - (value.numerator << scale) // value.denominator, scale)
    factor = math.pi if target == "pi" else 1.0
    lo = factor * (x * x / 6 - x ** 4 / 120) * (1 - _REL)
    hi = factor * x * x / 6 * (1 + _REL)
    rounding = math.ldexp(1.0, -bits + 12) + slack
    ok = lo - rounding <= err <= hi + rounding
    reason = None if ok else f"{target} error {err:.6e} outside [{lo:.6e}, {hi:.6e}]"
    return ok, digits_of(abs(err), bits), reason


def check_arccos(value_mantissa: int, oracle_mantissa: int, bits: int, slack_units: int = 0):
    """Arccos within 2**(-bits+16) of the oracle, both at `bits`."""
    gap = abs(value_mantissa - oracle_mantissa)
    ok = gap <= (1 << 16) + slack_units
    reason = None if ok else f"arccos off by {gap} units at {bits} bits"
    return ok, digits_of(to_float(gap, bits), bits), reason


def recomputed_abs_error(approx: str, target: str, measure_bits: int, bits: int) -> str:
    """The abs_error string a report row must carry: the printed approximant
    parsed at measure_bits, differenced against the target there, truncated
    to `bits` and printed with the approximant's number of digits."""
    value = Fraction(approx)
    digits = len(approx.partition(".")[2])
    parsed = (value.numerator << measure_bits) // value.denominator
    ref = pi_mantissa(measure_bits) if target == "pi" else 1 << measure_bits
    err = abs(parsed - ref) >> (measure_bits - bits)
    whole, frac = divmod((err * 10**digits) >> bits, 10**digits)
    return f"{whole}.{frac:0{digits}d}"


def check_row(index: int, approx: str, abs_error: str | None, measure_bits: int | None,
              x: float, target: str, bits: int):
    """Window check on a printed row, plus the abs_error recomputation when the
    measurement scale is known."""
    digits = len(approx.partition(".")[2])
    ok, got_digits, reason = check_window(Fraction(approx), x, target, bits, 10.0 ** -digits)
    if ok and abs_error is not None and measure_bits is not None:
        expect = recomputed_abs_error(approx, target, measure_bits, bits)
        if expect != abs_error:
            ok, reason = False, f"row {index}: abs_error {abs_error} != recomputed {expect}"
    return ok, got_digits, reason


# -- parsing of radpi's three output formats ---------------------------------


def parse_rows(text: str, fmt: str):
    """(header, rows, meta) from a rendered table; rows are lists of cell
    strings in header order, meta maps key -> str (empty for csv, which
    prints none)."""
    if fmt == "json":
        payload = json.loads(text)
        rows = [[str(v) if v is not None else "" for v in row.values()]
                for row in payload["rows"]]
        header = list(payload["rows"][0].keys()) if payload["rows"] else []
        return header, rows, {k: str(v) for k, v in payload["meta"].items()}
    lines = text.splitlines()
    if fmt == "csv":
        header, *rows = csv.reader(lines)
        return header, rows, {}
    meta = {}
    body = []
    for line in lines:
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        else:
            body.append(line)
    if not body:
        return [], [], meta
    return body[0].split(), [line.split() for line in body[1:]], meta


def report_rows(text: str, fmt: str):
    """[(index, approximant, abs_error)] and measure_bits (None if not printed)."""
    header, rows, meta = parse_rows(text, fmt)
    col = {name: i for i, name in enumerate(header)}
    out = [(int(r[col["index"]]), r[col["approximant"]], r[col["abs_error"]]) for r in rows]
    mb = meta.get("measure_bits")
    return out, int(mb) if mb not in (None, "") else None
