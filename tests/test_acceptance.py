"""Acceptance gate: one test per criterion, at the stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Every tolerance here is fixed; nothing is calibrated at run
time.
"""

import time
from fractions import Fraction

import pytest

from radpi import (
    FixedReal,
    PrecisionContext,
    Seed,
    arccos_by_recursion,
    arccos_oracle,
    cancellation_audit,
    f_power_form,
    nested_literal,
    pi_combined,
    pi_method1,
    pi_method2,
    pi_oracle,
    reproduce_catalog,
    taylor_seed_exact,
    unity_formula,
    viete_product,
)
from radpi.cli import run_command
from radpi.drivers import plan
from radpi.recursion import run_at_scale


def check(criterion: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {criterion}: {description}"


def tiny(power_of_ten: int, scale: int) -> FixedReal:
    return FixedReal.from_fraction(Fraction(1, 10**power_of_ten), scale)


def measure_errors(values, target, scale):
    ref = target.rescale(scale) if isinstance(target, FixedReal) else target
    return [abs(v.rescale(scale) - ref) for v in values]


def ratios_in(errors, lo: str, hi: str) -> bool:
    scale = errors[0].scale_bits
    lo_f = FixedReal.from_fraction(Fraction(lo), scale)
    hi_f = FixedReal.from_fraction(Fraction(hi), scale)
    return all(lo_f < (a / b) < hi_f for a, b in zip(errors, errors[1:]))


def test_criterion_01_method1_convergence_and_runtime():
    ctx = PrecisionContext(256)
    start = time.perf_counter()
    approx = pi_method1(Seed(2, 2, 1), 50, ctx)
    elapsed = time.perf_counter() - start
    scale = 4 * (256 + 2 * 50 + 64)
    err = measure_errors([approx.value], pi_oracle(PrecisionContext(scale)), scale)[0]
    check(1, "seed (2,2,+), 256 bits, depth 50: error < 1e-28 and runtime < 1 s",
          err < tiny(28, scale) and elapsed < 1.0)


def test_criterion_02_quartic_step_rate():
    ctx = PrecisionContext(192)
    scale = 4 * (192 + 2 * 21 + 64)
    pi_ref = pi_oracle(PrecisionContext(scale))
    values = [pi_method1(Seed(2, 2, 1), k, ctx).value for k in range(10, 22)]
    errs = measure_errors(values, pi_ref, scale)
    check(2, "error ratios within [3.9, 4.1] for depths 10..20 at 192 bits",
          ratios_in(errs, "3.9", "4.1"))


def test_criterion_03_catalog_reproduction():
    report = reproduce_catalog(PrecisionContext(128))
    ok = len(report.rows) == 4  # a failed check raises CatalogFailure
    check(3, "all four classical forms: exact prefactors and error(25) < 1e-12", ok)


def test_criterion_04_scale_function_identity():
    ok = True
    for m in (2, 3, 5, 10):
        for k in range(2, 65):
            if f_power_form(k + 1, m).squared() != f_power_form(k, m).times_two():
                ok = False
    for k in range(2, 65):
        if f_power_form(k, 2).exact_log2() != 1:
            ok = False
    check(4, "f(k+1)^2 = 2 f(k) exactly for k in [2,64], m in {2,3,5,10}; f(k) = 2 at m = 2", ok)


def test_criterion_05_literal_recursive_equivalence():
    ctx = PrecisionContext(128)
    ok = True
    for seed in (Seed(2, 2, 1), Seed(2, 2, -1), Seed(2, 3, 1), Seed(2, 3, -1)):
        states = run_at_scale(seed, 20, plan("depth", ctx, k=20).work)
        for k in range(1, 21):
            lit = nested_literal(seed, k, ctx)
            rec = states[k].c.rescale(128)
            if abs((lit - rec).mantissa) >= 1 << (2 * k + 8):
                ok = False
    check(5, "literal radical = stable recursion within 2^(-128+2k+8), k <= 20, 4 seeds", ok)


def test_criterion_06_method2_corrected_rate():
    ctx = PrecisionContext(128)
    scale = 4 * (128 + 256)
    pi_ref = pi_oracle(PrecisionContext(scale))
    values = [pi_method2(m, 1, ctx).value for m in (100, 1000, 10000)]
    errs = measure_errors(values, pi_ref, scale)
    check(6, "corrected form: error shrinks 90x..110x per decade of m; m=1e4 within 1e-7",
          ratios_in(errs, "90", "110") and errs[-1] < tiny(7, scale))


def test_criterion_07_as_printed_divergence(capsys):
    ctx = PrecisionContext(128)
    scale = 512
    v3 = pi_method2(1000, 1, ctx, "as_printed").value.rescale(scale)
    v4 = pi_method2(10000, 1, ctx, "as_printed").value.rescale(scale)
    ratio = v3 / v4
    in_band = FixedReal.from_fraction(9, scale) < ratio < FixedReal.from_fraction(11, scale)
    small = v4 < FixedReal.from_fraction(Fraction("0.2"), scale)
    code = run_command(["compute", "--method", "method2", "--variant", "as-printed",
                        "--m", "10000", "--d", "1"])
    captured = capsys.readouterr()
    with capsys.disabled():
        check(7, "as-printed values decay 10x per decade, stay far from pi, CLI flags MISPRINT",
              in_band and small and code == 0 and "MISPRINT" in captured.err)


def test_criterion_08_combined_method_rates():
    ctx = PrecisionContext(128)
    scale = 4 * (128 + 2 * 16 + 64)
    pi_ref = pi_oracle(PrecisionContext(scale))
    depth_vals = [pi_combined(100, 1, k, ctx).value for k in range(5, 17)]
    depth_errs = measure_errors(depth_vals, pi_ref, scale)
    m_vals = [pi_combined(m, 1, 5, ctx).value for m in (50, 100, 200, 400)]
    m_errs = measure_errors(m_vals, pi_ref, scale)
    check(8, "combined: depth step quarters error (3.8..4.2); doubling m quarters error (3.6..4.4)",
          ratios_in(depth_errs, "3.8", "4.2") and ratios_in(m_errs, "3.6", "4.4"))


def test_criterion_09_unity_formulas():
    ctx = PrecisionContext(128)
    scale = 4 * (128 + 2 * 21 + 64)
    one = FixedReal.from_fraction(1, scale)
    u20 = unity_formula(Seed(1, 0, 1), 20, ctx).value
    near_one = abs(u20.rescale(scale) - one) < tiny(12, scale)
    values = [unity_formula(Seed(5, 16, 1), k, ctx).value for k in range(10, 22)]
    errs = measure_errors(values, one, scale)
    check(9, "unity: |U(20) - 1| < 1e-12 at x0 = 0; quartic ratios for seed (5,16,+)",
          near_one and ratios_in(errs, "3.9", "4.1"))


def test_criterion_10_self_consistent_arccos():
    ctx = PrecisionContext(256)
    x = FixedReal.from_fraction(Fraction("0.8"), 256)
    gap_point8 = abs(arccos_by_recursion(x, ctx) - arccos_oracle(x, ctx))
    gap_pi = abs(arccos_by_recursion(FixedReal.from_fraction(-1, 256), ctx) - pi_oracle(ctx))
    check(10, "arccos via recursion matches series arccos at 0.8 and pi at -1 to 50+ digits",
          gap_point8 < tiny(50, 256) and gap_pi < tiny(50, 256))


def test_criterion_11_cancellation_audit():
    rows = cancellation_audit(Seed(2, 2, 1), 40, 53, PrecisionContext(256)).rows
    scale = rows[-1].stable_error.scale_bits
    stable_ok = rows[-1].stable_error < tiny(13, scale)
    naive_ok = rows[-1].naive_error > tiny(7, scale)
    errs = [r.naive_error.mantissa for r in rows]
    k_min = min(range(len(errs)), key=lambda i: errs[i])
    tail_start = len(errs) - 1
    while tail_start > 0 and errs[tail_start - 1] <= errs[tail_start]:
        tail_start -= 1
    eventually_increasing = tail_start <= 30 and errs[-1] > 100 * errs[k_min]
    check(11, "audit at 53 bits: stable(40) <= 1e-13, naive(40) >= 1e-7, naive eventually increases",
          stable_ok and naive_ok and eventually_increasing)


def test_criterion_12_viete_cross_check():
    ctx = PrecisionContext(128)
    ok = True
    for k in range(1, 31):
        v = viete_product(k, ctx).value
        p = pi_method1(Seed(1, 0, 1), k, ctx, "exact").value
        if abs((v - p).mantissa) >= 1 << 8:
            ok = False
    scale = 4 * (128 + 124)
    err = measure_errors([viete_product(30, ctx).value], pi_oracle(PrecisionContext(scale)), scale)[0]
    check(12, "product form = matched recursion within 2^(-120); |P(30) - pi| < 1e-16",
          ok and err < tiny(16, scale))


def test_criterion_13_taylor_seed_partial_sums():
    sums = [taylor_seed_exact(5, 3, t) for t in range(1, 41)]
    monotone = all(a > b for a, b in zip(sums, sums[1:]))
    limit = Fraction(4, 5)
    above = all(s > limit for s in sums)
    close = sums[-1] - limit < Fraction(1, 10**9)
    check(13, "binomial partial sums decrease monotonically to 0.8; |S(40) - 0.8| < 1e-9",
          monotone and above and close)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
