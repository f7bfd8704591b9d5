"""Analysis layer: convergence tables, the cancellation audit, catalog
reproduction, and the identity suite."""

from fractions import Fraction

import pytest

import radpi.analysis
import radpi.drivers
import radpi.recursion
from radpi import (
    DomainError,
    FixedReal,
    PrecisionContext,
    Seed,
    arccos_by_recursion,
    arccos_oracle,
    cancellation_audit,
    convergence_table,
    correct_decimal_digits,
    pi_method2,
    pi_oracle,
    reproduce_catalog,
    verify_identities,
)
from radpi.analysis import CATALOG, CatalogEntry, CoefficientRule
from radpi.arith import Rational
from radpi.errors import CatalogFailure


class TestCorrectDigits:
    @pytest.mark.parametrize(
        "fr,expected",
        [
            (Fraction(1, 1000), 3),
            (Fraction(1, 10**12), 12),
            (Fraction(3, 10**13), 12),  # 3e-13 -> floor(12.52) = 12
            (Fraction(7, 10), 0),
            (Fraction(1), 0),
            (Fraction(314, 100), -1),
            (Fraction(1000), -3),
        ],
    )
    def test_values(self, fr, expected):
        assert correct_decimal_digits(FixedReal.from_fraction(fr, 192)) == expected

    def test_boundary_powers_of_ten(self):
        # 10^-d is dyadic-truncated just below the boundary, so the floor
        # stays at d for the representable neighbor
        for d in (1, 5, 17):
            x = FixedReal.from_fraction(Fraction(1, 10**d), 256)
            assert correct_decimal_digits(x) == d

    def test_zero_is_none(self):
        assert correct_decimal_digits(FixedReal.zero(64)) is None


class TestConvergenceTable:
    def test_method1_first_rows(self, ctx128):
        report = convergence_table("method1", {"seed": Seed(2, 2, 1)}, [1, 2, 3], ctx128)
        approx = [r.approximant[:9] for r in report.rows]
        assert approx == ["3.0614674", "3.1214451", "3.1365484"]
        assert report.rows[0].error_ratio is None
        assert report.rows[1].error_ratio is not None

    def test_method1_ratios_go_quartic(self, ctx128):
        report = convergence_table("method1", {"seed": Seed(2, 2, 1)}, list(range(5, 12)), ctx128)
        for row in report.rows[1:]:
            assert 3.5 < float(row.error_ratio) < 4.5

    def test_method2_rows_shrink_per_decade(self, ctx128):
        report = convergence_table("method2_corrected", {"d": 1}, [100, 1000], ctx128)
        assert 90 < float(report.rows[1].error_ratio) < 110

    def test_unity_first_rows(self, ctx128):
        report = convergence_table("unity", {"seed": Seed(1, 0, 1)}, [1, 2], ctx128)
        assert report.rows[0].approximant[:9] == "0.9003163"
        assert report.rows[1].approximant[:9] == "0.9744953"

    def test_error_recompute_matches_stored_exactly(self, ctx128):
        report = convergence_table("method1", {"seed": Seed(2, 3, 1)}, [2, 4], ctx128)
        scale = report.meta["measure_bits"]
        digits = report.meta["oracle_digits"]
        pi_ref = pi_oracle(PrecisionContext(scale))
        for row in report.rows:
            recomputed = abs(FixedReal.from_decimal(row.approximant, scale) - pi_ref)
            assert recomputed.rescale(128).to_decimal(digits) == row.abs_error

    def test_empty_sweep(self, ctx128):
        report = convergence_table("viete", {}, [], ctx128)
        assert report.rows == []

    def test_unknown_method(self, ctx128):
        with pytest.raises(DomainError):
            convergence_table("bisection", {}, [1], ctx128)

    def test_unknown_method_with_an_empty_sweep(self, ctx128):
        with pytest.raises(DomainError, match="^unknown table method 'bisection'$"):
            convergence_table("bisection", {}, [], ctx128)


@pytest.fixture(scope="module")
def audit_rows():
    return cancellation_audit(Seed(2, 2, 1), 40, 53, PrecisionContext(256))


class TestCancellationAudit:
    def test_stable_floor(self, audit_rows):
        scale = audit_rows[-1].stable_error.scale_bits
        bound = FixedReal.from_fraction(Fraction(1, 10**13), scale)
        assert audit_rows[-1].stable_error < bound

    def test_naive_blowup(self, audit_rows):
        scale = audit_rows[-1].naive_error.scale_bits
        bound = FixedReal.from_fraction(Fraction(1, 10**7), scale)
        assert audit_rows[-1].naive_error > bound

    def test_u_shape(self, audit_rows):
        errs = [r.naive_error for r in audit_rows]
        k_min = min(range(len(errs)), key=lambda i: errs[i].mantissa)
        assert k_min < len(errs) - 5  # bottoms out well before the end
        # a non-decreasing tail exists and the growth from the bottom is large
        tail_start = len(errs) - 1
        while tail_start > 0 and errs[tail_start - 1].mantissa <= errs[tail_start].mantissa:
            tail_start -= 1
        assert tail_start <= 30
        assert errs[-1].mantissa > 100 * errs[k_min].mantissa

    def test_min_naive_above_final_stable(self, audit_rows):
        min_naive = min(r.naive_error.mantissa for r in audit_rows)
        assert min_naive > audit_rows[-1].stable_error.mantissa

    def test_digits_lost_positive_late(self, audit_rows):
        assert audit_rows[-1].digits_lost > 8

    def test_preconditions(self):
        with pytest.raises(DomainError):
            cancellation_audit(Seed(2, 2, 1), 5, 16, PrecisionContext(256))
        with pytest.raises(DomainError):
            cancellation_audit(Seed(2, 2, 1), 5, 53, PrecisionContext(128))

    def test_accepts_self_ratio_seed(self):
        rows = cancellation_audit(Seed(5, 16, 1), 8, 53, PrecisionContext(256))
        assert len(rows) == 8
        assert rows[0].naive_error.mantissa > 0


class TestReproduceCatalog:
    def test_all_four_pass(self, ctx128):
        report = reproduce_catalog(ctx128)
        assert len(report.results) == 4
        assert all(r.prefactor_exact and r.radical_shape_ok and r.converged for r in report.results)

    def test_depth_errors_small(self, ctx128):
        report = reproduce_catalog(ctx128)
        for r in report.results:
            scale = r.error_at_depth.scale_bits
            assert r.error_at_depth < FixedReal.from_fraction(Fraction(1, 10**12), scale)

    def test_index_shift_documented(self, ctx128):
        assert "k + 1" in reproduce_catalog(ctx128).meta["index_shift"]

    @pytest.mark.parametrize("factor, shift, failure", [
        (Fraction(2), -1, None),  # 2 * 2^(n-1) is the rule 2^n written another way
        (Fraction(1), 1, ": prefactor 4 != printed 8 at n=2$"),
        (Fraction(3, 2), 0, ": prefactor 4 != printed 6 at n=2$"),
    ])
    def test_prefactor_is_checked_exactly(self, factor, shift, failure, ctx128, monkeypatch):
        first = CATALOG[0]
        entry = CatalogEntry(first.name, first.seed, CoefficientRule(factor, shift))
        monkeypatch.setattr(radpi.analysis, "CATALOG", (entry, *CATALOG[1:]))
        if failure is None:
            assert all(r.prefactor_exact for r in reproduce_catalog(ctx128).results)
        else:
            with pytest.raises(CatalogFailure, match=failure):
                reproduce_catalog(ctx128)


class TestVerifyIdentities:
    def test_all_pass(self, ctx128):
        report = verify_identities(ctx128)
        assert report.all_passed, [r.name for r in report.results if not r.passed]
        names = " ".join(r.name for r in report.results)
        assert "scale identity" in names
        assert "pythagorean" in names
        assert "normalization" in names

    def test_one_depth_20_run_per_seed(self, ctx128, monkeypatch):
        depths = []
        real_run = radpi.analysis.run_at_scale

        def counting_run(seed, k, scale_bits, variant="stable"):
            depths.append(k)
            return real_run(seed, k, scale_bits, variant)

        monkeypatch.setattr(radpi.analysis, "run_at_scale", counting_run)
        assert verify_identities(ctx128).all_passed
        # the three state checks share one run; monotonicity reads the doubled
        # sines alone, without the g/f chain of a run
        assert depths == [20] * 4

    def test_cost_is_the_same_at_every_precision(self, monkeypatch):
        counts = {"steps": 0, "sqrt": 0}
        real_step, real_sqrt = radpi.recursion.half_angle_step, FixedReal.sqrt

        def counting_step(x_prev):
            counts["steps"] += 1
            return real_step(x_prev)

        def counting_sqrt(self):
            counts["sqrt"] += 1
            return real_sqrt(self)

        for module in (radpi.recursion, radpi.drivers):
            monkeypatch.setattr(module, "half_angle_step", counting_step)
        monkeypatch.setattr(FixedReal, "sqrt", counting_sqrt)
        seen = []
        for bits in (64, 256, 1024, 2048):
            counts.update(steps=0, sqrt=0)
            assert verify_identities(PrecisionContext(bits)).all_passed
            seen.append((counts["steps"], counts["sqrt"]))
        # a fixed number of half-angle steps: theta0 comes from the exact ratio,
        # not from an arccos whose depth grows with the bits
        assert len(set(seen)) == 1, seen
        assert seen[0][0] <= 340

    @pytest.mark.parametrize("bits", [64, 256, 1024])
    @pytest.mark.parametrize("entry", CATALOG, ids=lambda entry: entry.seed.describe())
    def test_theta0_is_the_arccos_within_its_stated_bounds(self, entry, bits):
        # theta0 = 2*pi/R at the monotonicity scale, against arccos of the
        # seed at that scale: the oracle within 2^(-w+8), the recursion within
        # 2^(-w+16)
        work = bits + 124
        theta0 = radpi.analysis._theta0(entry.seed, work)
        x0, ctx = entry.seed.value(work), PrecisionContext(work)
        assert abs((theta0 - arccos_oracle(x0, ctx)).mantissa) < 1 << 8
        assert abs((theta0 - arccos_by_recursion(x0, ctx)).mantissa) < 1 << 16


# One run at 256 bits: the scale-function algebra is integer work, so few
# rationals are built (79 and 60, with a margin), and the square roots (the
# engine's work) are pinned.
@pytest.mark.parametrize("report, sqrt_calls", [(verify_identities, 938), (reproduce_catalog, 288)])
def test_exact_algebra_builds_few_rationals(report, sqrt_calls, ctx256, monkeypatch):
    counts = {"rationals": 0, "sqrt": 0}
    real_init, real_sqrt = Rational.__init__, FixedReal.sqrt

    def counting_init(self, *args, **kwargs):
        counts["rationals"] += 1
        real_init(self, *args, **kwargs)

    def counting_sqrt(self):
        counts["sqrt"] += 1
        return real_sqrt(self)

    monkeypatch.setattr(Rational, "__init__", counting_init)
    monkeypatch.setattr(FixedReal, "sqrt", counting_sqrt)
    report(ctx256)
    assert counts["rationals"] <= {verify_identities: 89, reproduce_catalog: 70}[report], counts
    assert counts["sqrt"] == sqrt_calls, counts


def test_combined_beats_both_individually(ctx128):
    # the combination converges faster than either knob alone
    scale = 512
    pi_ref = pi_oracle(PrecisionContext(scale))

    def err(value):
        return abs(value.rescale(scale) - pi_ref)

    from radpi import pi_combined, pi_method1

    e_combined = err(pi_combined(100, 1, 10, ctx128).value)
    e_method1 = err(pi_method1(Seed(2, 2, 1), 10, ctx128).value)
    e_method2 = err(pi_method2(100, 1, ctx128).value)
    assert e_combined < e_method1
    assert e_combined < e_method2
