"""Admission: one rule sizes every route of k half-angle steps, and a request
over the cost bound is refused with exit 3 before any work starts."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import radpi.analysis
import radpi.cli
import radpi.drivers
from radpi import (
    CatalogMissError,
    DomainError,
    FixedReal,
    PrecisionContext,
    PrecisionError,
    Seed,
    UsageError,
    arccos_by_recursion,
    cancellation_audit,
    convergence_table,
    nested_literal,
    pi_combined,
    pi_method1,
    taylor_seed_exact,
    unity_formula,
    viete_product,
)
from radpi.arith import MAX_BIT_STEPS, MAX_WORKING_BITS
from radpi.cli import run_command
from radpi.drivers import Plan, plan

ROOT = Path(__file__).resolve().parents[1]

# every route of k half-angle steps, called at depth k
DEPTH_ROUTES = {
    "method1": lambda k, ctx: pi_method1(Seed(2, 2, 1), k, ctx),
    "combined": lambda k, ctx: pi_combined(50, 1, k, ctx),
    "unity": lambda k, ctx: unity_formula(Seed(5, 16, -1), k, ctx),
    "viete": lambda k, ctx: viete_product(k, ctx),
    "nested_literal": lambda k, ctx: nested_literal(Seed(2, 3, 1), k, ctx),
    "method1 table": lambda k, ctx: convergence_table("method1", {"seed": Seed(2, 2, 1)},
                                                      [k], ctx),
    "combined table": lambda k, ctx: convergence_table("combined", {"m": 50, "d": 1}, [k], ctx),
}


@pytest.mark.parametrize("route", sorted(DEPTH_ROUTES))
def test_every_depth_route_admits_by_one_rule(route):
    call = DEPTH_ROUTES[route]
    with pytest.raises(DomainError, match=r"^k must be >= 1$"):
        call(0, PrecisionContext(128))
    with pytest.raises(PrecisionError,
                       match=r"^depth 5 exceeds precision budget \(guard_bits=40 allows 0\)$"):
        call(5, PrecisionContext(128, 40))


def depth_bits(ctx, k):
    return plan("depth", ctx, k=k).work


def test_bits_for_depth_is_admitted_exactly_at_both_bounds():
    # 8192 steps at 65536 working bits are exactly 2**29 bit-steps
    k = MAX_BIT_STEPS // MAX_WORKING_BITS
    scale = MAX_WORKING_BITS - 2 * k - 64
    assert depth_bits(PrecisionContext(scale), k) == MAX_WORKING_BITS
    with pytest.raises(PrecisionError, match=r"65537 working bits \(at most 65536\)$"):
        depth_bits(PrecisionContext(scale + 1), k)


def test_working_bits_bound_alone():
    scale = MAX_WORKING_BITS - 2 - 64
    assert depth_bits(PrecisionContext(scale), 1) == MAX_WORKING_BITS
    with pytest.raises(PrecisionError, match=r"working bits \(at most 65536\)$"):
        depth_bits(PrecisionContext(scale + 1), 1)


def test_bit_steps_bound_alone():
    # deeper than 8192 steps, the product binds below the working-bits bound
    k = 10_000
    work = MAX_BIT_STEPS // k
    scale = work - 2 * k - 64
    assert depth_bits(PrecisionContext(scale), k) * k <= MAX_BIT_STEPS
    with pytest.raises(PrecisionError, match=r"x half-angle steps \(at most 536870912\)$"):
        depth_bits(PrecisionContext(scale + 1), k)


def test_budget_message_wins_over_the_cost_bound():
    with pytest.raises(PrecisionError, match=r"^depth 100000000 exceeds precision budget"):
        depth_bits(PrecisionContext(10**9, 40), 10**8)


def arccos_bits(ctx):
    run = plan("arccos", ctx)
    return run.steps, run.work


def test_arccos_is_admitted_at_16384_bits_and_explicit_guards_at_the_bound():
    # the default run is at the context's working bits, as an explicit guard's is
    assert arccos_bits(PrecisionContext(16384)) == (8216, 16384 + 64)
    # an explicit guard sets the working bits at the same depth cap
    guard = MAX_BIT_STEPS // 8216 - 16384
    assert arccos_bits(PrecisionContext(16384, guard)) == (8216, 16384 + guard)
    with pytest.raises(PrecisionError, match="cost bound"):
        arccos_bits(PrecisionContext(16384, guard + 1))


def test_an_x0_finer_than_the_working_bits_admits_its_own_scale():
    # the run widens to the x0's scale plus one, and that run is admitted
    with pytest.raises(PrecisionError, match=r"^request over the cost bound: 65537 working bits"):
        arccos_by_recursion(FixedReal.zero(MAX_WORKING_BITS), PrecisionContext(128))


def test_a_table_row_counts_its_depth_run_and_its_self_consistent_arccos():
    ctx = PrecisionContext(16000)
    work = depth_bits(ctx, 3)
    depth_cap, arccos_work = arccos_bits(PrecisionContext(work))
    x0 = Seed.from_x0(Fraction(3, 10))

    def cost(method, params):
        return plan("table", ctx, method=method, params=params, sweep=[3]).bit_steps

    assert cost("viete", {}) == work * 3
    assert cost("method1", {"seed": Seed(2, 2, 1)}) == work * 3
    assert cost("method1", {"seed": x0}) == work * 3 + arccos_work * depth_cap
    assert cost("unity", {"seed": Seed(2, 2, 1)}) == work * 3 + arccos_work * depth_cap


@pytest.mark.parametrize("sweep", [[], [1]])
def test_an_unknown_table_method_is_refused_before_any_row(sweep):
    with pytest.raises(DomainError, match="^unknown table method 'bogus'$"):
        plan("table", PrecisionContext(128), method="bogus", params={}, sweep=sweep)


@pytest.fixture
def no_work(monkeypatch):
    """Make every engine run, ratio and reference value fail the test, so a
    row that the dispatch builds, a compute request or a driver call reaches
    none of them before its whole cost is admitted."""
    def tripwire(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("run_at_scale", "pi_fixed", "_resolve_ratio"):
        monkeypatch.setattr(radpi.analysis, name, tripwire)
    for name in ("run_at_scale", "pi_fixed", "_resolve_ratio", "arccos_by_recursion",
                 "half_angle_step"):
        monkeypatch.setattr(radpi.drivers, name, tripwire)


def test_table_is_refused_before_its_first_row(no_work):
    with pytest.raises(PrecisionError, match="cost bound"):
        convergence_table("viete", {}, range(1, 10**8), PrecisionContext(128))
    # five self-consistent rows at 16000 bits: each arccos alone is admitted,
    # and the first four together (520191832 bit-steps) are too
    with pytest.raises(PrecisionError, match="cost bound"):
        convergence_table("unity", {"seed": Seed.from_x0(Fraction(3, 10))}, range(1, 6),
                          PrecisionContext(16000))


# 1000 steps at 31730 working bits, and the self-consistent arccos at those
# bits: each part is inside the bound, and their sum is not
@pytest.mark.parametrize("driver", [
    lambda seed, k, ctx: pi_method1(seed, k, ctx, "self"),
    unity_formula,
], ids=["method1", "unity"])
def test_a_driver_admits_its_depth_run_and_its_arccos_as_one_cost(no_work, driver):
    with pytest.raises(PrecisionError, match=r"536904866 working bits x half-angle steps"):
        driver(Seed.from_x0(Fraction(3, 10)), 1000, PrecisionContext(29666))


@pytest.mark.parametrize("k_max, audited_bits", [(10**8, 53), (40, 10**9)])
def test_audit_is_refused_before_any_work(no_work, k_max, audited_bits):
    reference = PrecisionContext(max(128, 4 * audited_bits))
    with pytest.raises(PrecisionError, match="cost bound"):
        cancellation_audit(Seed(2, 2, 1), k_max, audited_bits, reference)


@pytest.mark.parametrize("mode", ["auto", "exact", "self", "sideways"])
@pytest.mark.parametrize("seed", [Seed(2, 2, 1), Seed(5, 16, 1)], ids=["(2, 2, +)", "(5, 16, +)"])
def test_the_depth_plan_prices_an_arccos_exactly_when_the_ratio_runs_one(seed, mode,
                                                                        monkeypatch):
    ctx, k = PrecisionContext(128), 6
    depth = plan("depth", ctx, seed=seed, k=k, ratio_mode=mode)
    planned = depth.bit_steps - depth.work * k
    assert planned in (0, plan("arccos", PrecisionContext(depth.work)).bit_steps)
    runs = []
    real = radpi.drivers.arccos_by_recursion
    monkeypatch.setattr(radpi.drivers, "arccos_by_recursion",
                        lambda *args: runs.append(args) or real(*args))
    try:
        radpi.drivers._resolve_ratio(seed, mode, depth.work)
    except (DomainError, CatalogMissError):
        pass
    assert bool(planned) == bool(runs)
    assert bool(runs) == (mode == "self" or (mode, seed) == ("auto", Seed(5, 16, 1)))


def test_an_audit_request_makes_one_audit_plan(monkeypatch, capsys):
    routes = []
    real = radpi.drivers.plan

    def counting(route, ctx, **params):
        routes.append(route)
        return real(route, ctx, **params)

    for module in (radpi.drivers, radpi.analysis, radpi.cli):
        monkeypatch.setattr(module, "plan", counting)
    for seed in (["--m", "2", "--s", "2"], ["--m", "5", "--s", "16"]):
        routes.clear()
        assert run_command(["audit", "--k", "5", *seed]) == 0
        assert routes.count("audit") == 1, routes
    capsys.readouterr()


def test_taylor_terms_are_refused_before_the_sum():
    with pytest.raises(PrecisionError, match="cost bound"):
        taylor_seed_exact(5, 3, 10**9)


REFUSED = [
    ["compute", "--method", "viete", "--k", "100000000"],
    ["compute", "--method", "viete", "--k", "3", "--bits", "100000000000"],
    ["arccos", "--x0", "0.3", "--bits", "10000000"],
    ["audit", "--k", "100000000"],
    ["audit", "--audited-bits", "1000000000"],
    ["table", "--method", "viete", "--k-range", "1:100000000"],
    ["table", "--method", "method2", "--m-range", "10,100", "--bits", "4000000"],
    ["compute", "--method", "taylor", "--m", "5", "--d", "3", "--terms", "1000000000"],
    ["verify", "--bits", "100000000"],
    ["reproduce", "--bits", "100000000"],
    ["compute", "--method", "unity", "--x0", "0.3", "--k", "1000", "--bits", "29666"],
    ["compute", "--method", "method1", "--x0", "0.3", "--k", "1000", "--bits", "29666"],
    ["compute", "--method", "combined", "--m", "50", "--d", "1", "--k", "1000",
     "--bits", "29666"],
    # rationals past MAX_WORKING_BITS bits, refused before their power of ten is built
    ["arccos", "--x0", "1e-1000000"],
    ["arccos", "--x0", "1e-99999999"],
    ["compute", "--method", "method1", "--m", "1e-1000000", "--s", "2", "--k", "3"],
    ["compute", "--method", "method1", "--m", "1e-99999999", "--s", "2", "--k", "3"],
]


@pytest.mark.parametrize("argv", REFUSED, ids=" ".join)
def test_request_over_the_cost_bound_exits_3_at_once(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "radpi", *argv],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.startswith("radpi: error: request over the cost bound: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# Grids around the bound. With an arccos at x0 = 0.3 or for m = 50, d = 1, a
# depth run is admitted up to 32645 bits at k = 1 and up to 29665 bits at
# k = 1000; method2 with d = 1 up to 32559 bits at m = 50 and up to 32543
# bits at m = 1000.
_DEPTH_GRID = [(bits, k) for bits in (29665, 29666, 32645, 32646) for k in (1, 1000)]
_STRADDLES = {
    "method1 --x0": (["--method", "method1", "--x0", "0.3"], "--k", _DEPTH_GRID),
    "unity": (["--method", "unity", "--x0", "0.3"], "--k", _DEPTH_GRID),
    "combined uncataloged": (["--method", "combined", "--m", "50", "--d", "1"], "--k",
                             _DEPTH_GRID),
    "method2": (["--method", "method2", "--d", "1"], "--m",
                [(bits, m) for bits in (32543, 32544, 32559, 32560) for m in (50, 1000)]),
}

_OUTCOMES = {3: "radpi: error: request over the cost bound: ",
             70: "radpi: internal error: AssertionError: work started\n"}


@pytest.mark.parametrize("route", sorted(_STRADDLES))
def test_compute_is_refused_exactly_when_its_one_row_table_is(no_work, capsys, route):
    flags, index_flag, grid = _STRADDLES[route]
    codes = set()
    for bits, index in grid:
        sweep = ["--k-range", f"{index}:{index}"] if index_flag == "--k" else \
            ["--m-range", str(index)]
        outcomes = []
        for argv in (["compute", *flags, index_flag, str(index)], ["table", *flags, *sweep]):
            code = run_command([*argv, "--bits", str(bits)])
            err = capsys.readouterr().err
            # refused, or admitted and stopped by the tripwire at its first work
            assert err.startswith(_OUTCOMES[code]), err
            outcomes.append(code)
        assert outcomes[0] == outcomes[1], (bits, index)
        codes.add(outcomes[0])
    assert codes == {3, 70}


# Each grid cell's request as a plan, and for a table method as a one-row
# table: its working bits, steps, bit-steps and reference scale, or its
# refusal, as recorded from the admission helpers that the plan replaced.
PLANS = json.loads((ROOT / "tests" / "data" / "plans.json").read_text(encoding="utf-8"))


def _seed(p):
    m, s, sign = p["seed"]
    return Seed(Fraction(m), Fraction(s), sign)


def _plan(route, ctx, bits, p):
    if route == "method1":
        return plan("depth", ctx, seed=_seed(p), k=p["k"], ratio_mode=p["ratio_mode"])
    if route == "combined":
        return plan("depth", ctx, seed=Seed.from_m_d(Fraction(p["m"]), Fraction(p["d"])),
                    k=p["k"])
    if route == "unity":
        return plan("depth", ctx, seed=_seed(p), k=p["k"], ratio_mode="self")
    if route == "viete":
        return plan("depth", ctx, k=p["k"])
    if route.startswith("method2"):
        return plan("method2", ctx, m=Fraction(p["m"]), d=Fraction(p["d"]))
    if route == "audit":  # at the reference that the command line builds from its bits
        return plan("audit", PrecisionContext(max(bits, 4 * p["audited_bits"])), seed=_seed(p),
                    k=p["k"], audited_bits=p["audited_bits"])
    if route == "reproduce":
        return plan("depth", ctx, k=25)
    if route == "verify":  # the identities' depth-20 runs and depth-30 doubled sines
        shallow, deep = plan("depth", ctx, k=20), plan("depth", ctx, k=30)
        return Plan(shallow.work, deep.steps, shallow.bit_steps + deep.bit_steps, deep.work)
    return plan(route, ctx, **p)  # arccos, taylor


# each table method's params and sweep index in a cell
_ONE_ROW = {
    "method1": lambda p: ({"seed": _seed(p), "ratio_mode": p["ratio_mode"]}, p["k"]),
    "combined": lambda p: ({"m": Fraction(p["m"]), "d": Fraction(p["d"])}, p["k"]),
    "unity": lambda p: ({"seed": _seed(p)}, p["k"]),
    "viete": lambda p: ({}, p["k"]),
    "method2_corrected": lambda p: ({"d": Fraction(p["d"])}, int(p["m"])),
    "method2_as_printed": lambda p: ({"d": Fraction(p["d"])}, int(p["m"])),
}


def _outcome(call):
    try:
        result = call()
    except (PrecisionError, DomainError, UsageError) as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    return {"plan": [result.work, result.steps, result.bit_steps, result.measure_bits]}


@pytest.mark.parametrize("route", sorted({cell["route"] for cell in PLANS}))
def test_every_plan_matches_the_recorded_grid(route):
    cells = [cell for cell in PLANS if cell["route"] == route]
    assert len(cells) >= 16
    for cell in cells:
        ctx = PrecisionContext(cell["bits"], cell["guard"])
        p = cell["params"]
        want = {key: cell[key] for key in ("plan", "refused") if key in cell}
        assert _outcome(lambda: _plan(route, ctx, cell["bits"], p)) == want, cell
        if route in _ONE_ROW:
            params, index = _ONE_ROW[route](p)
            assert _outcome(lambda: plan("table", ctx, method=route, params=params,
                                         sweep=[index])) == want, cell
