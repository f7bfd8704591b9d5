"""Seeded workload generators, the calls they make, and the check for each op.

Every workload is a closed loop with one caller: the next op starts when the
previous one returns. Ops come in fixed-composition blocks: the block lists
the same (kind, bits) cells for every seed, and the seed draws the parameters
inside each cell (depth, starting term, sweep range, format) from equal-width
strata. Percentiles then land at the same place of the mix on every seed.
The compositions put the p50 and the p90 inside clusters of ops that take
tens of milliseconds or more, where scheduler noise averages out.
"""

from __future__ import annotations

import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import checks

# The four classical forms plus x0 = 0, as (m, s, sign): all have exact ratios.
CATALOG_SEEDS = ((2, 2, 1), (2, 3, 1), (2, 3, -1), (2, 2, -1), (1, 0, 1))


@dataclass
class Op:
    kind: str
    bits: int
    params: dict = field(default_factory=dict)
    known_defect: str | None = None  # failures of this op are a named open defect


def strata(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """n integers, one uniform draw from each of n equal slices of [lo, hi], shuffled."""
    width = (hi - lo + 1) / n
    out = [rng.randint(lo + math.floor(i * width), lo + math.ceil((i + 1) * width) - 1)
           for i in range(n)]
    rng.shuffle(out)
    return out


def random_x0(rng: random.Random, denominator: int = 1000) -> Fraction:
    """A rational in (-0.95, 0.95) that is not a cataloged x0 (0 or +-1/2)."""
    limit = denominator * 95 // 100
    while True:
        p = rng.randint(-limit + 1, limit - 1)
        if p != 0 and 2 * abs(p) != denominator:
            return Fraction(p, denominator)


def log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def x_for(theta: float, k: int) -> float:
    return math.ldexp(theta, -k)


# -- exact-depth --------------------------------------------------------------


def exact_depth_block(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    seeds = list(CATALOG_SEEDS)
    rng.shuffle(seeds)
    for bits, singles, vietes, tables in ((1024, 4, 1, 3), (4096, 9, 2, 1)):
        for i, k in enumerate(strata(rng, 8, 64, singles)):
            ops.append(Op("method1", bits, {"seed": seeds[i % len(seeds)], "k": k}))
        for k in strata(rng, 8, 64, vietes):
            ops.append(Op("viete", bits, {"k": k}))
        # one 4096-bit sweep per block dominates the block's time: keep it shallow
        top = 40 if bits == 1024 else 8
        for i, lo in enumerate(strata(rng, 1, top, tables)):
            rows = rng.randint(10, 15)
            ops.append(Op("table1", bits, {"seed": seeds[(i + 2) % len(seeds)],
                                           "ks": list(range(lo, lo + rows))}))
    rng.shuffle(ops)
    return ops


# -- self-consistent ----------------------------------------------------------

_SELF_KINDS = ("arccos", "method2", "combined", "unity", "method1self")


def self_consistent_block(rng: random.Random) -> list[Op]:
    cells = [(256, kind) for kind in _SELF_KINDS + ("table2", "table2")]
    cells += [(1024, kind) for kind in _SELF_KINDS * 2]
    cells += [(2048, kind) for kind in _SELF_KINDS]
    depths = iter(strata(rng, 4, 24, len(cells)))
    ops = []
    for bits, kind in cells:
        k = next(depths)
        d = rng.randint(1, 5)
        if kind == "arccos":
            params = {"x0": random_x0(rng)}
        elif kind == "method2":
            params = {"m": log_uniform_int(rng, 10, 10**6), "d": d}
        elif kind == "combined":
            params = {"m": log_uniform_int(rng, 10, 10**6), "d": d, "k": min(k, 16)}
        elif kind == "table2":
            ms = sorted({log_uniform_int(rng, 10, 10**6) for _ in range(rng.randint(3, 5))})
            params = {"d": d, "ms": ms}
        else:
            params = {"x0": random_x0(rng), "k": k}
        ops.append(Op(kind, bits, params))
    rng.shuffle(ops)
    return ops


# -- in-process calls and checks ------------------------------------------------


def prepare(radpi, op: Op):
    """Build the inputs outside the timed section; return the timed call.

    Package functions are looked up on the `radpi` module at call time, so a
    traced pass sees the wrapped versions.
    """
    p = op.params
    ctx = radpi.PrecisionContext(op.bits)
    kind = op.kind
    if kind == "method1":
        seed = radpi.Seed(*p["seed"])
        return lambda: radpi.pi_method1(seed, p["k"], ctx)
    if kind == "viete":
        return lambda: radpi.viete_product(p["k"], ctx)
    if kind == "table1":
        params = {"seed": radpi.Seed(*p["seed"]), "ratio_mode": "exact"}
        return lambda: radpi.convergence_table("method1", params, p["ks"], ctx)
    if kind == "arccos":
        x0 = radpi.Seed.from_x0(p["x0"]).value(op.bits)
        return lambda: radpi.arccos_by_recursion(x0, ctx)
    if kind == "method2":
        return lambda: radpi.pi_method2(p["m"], p["d"], ctx)
    if kind == "combined":
        return lambda: radpi.pi_combined(p["m"], p["d"], p["k"], ctx)
    if kind == "unity":
        seed = radpi.Seed.from_x0(p["x0"])
        return lambda: radpi.unity_formula(seed, p["k"], ctx)
    if kind == "method1self":
        seed = radpi.Seed.from_x0(p["x0"])
        return lambda: radpi.pi_method1(seed, p["k"], ctx, "self")
    if kind == "table2":
        return lambda: radpi.convergence_table("method2_corrected", {"d": p["d"]}, p["ms"], ctx)
    raise ValueError(f"unknown op kind {kind!r}")


@lru_cache(maxsize=None)
def arccos_reference(radpi, x0: Fraction, bits: int) -> int:
    """Mantissa of arccos_oracle at `bits` for x0 rounded as the package rounds it."""
    x = radpi.Seed.from_x0(x0).value(bits)
    return radpi.arccos_oracle(x, radpi.PrecisionContext(bits)).mantissa


def _fixed_fraction(value) -> Fraction:
    return Fraction(value.mantissa, 1 << value.scale_bits)


def check_in_process(radpi, op: Op, result):
    """(ok, digits, reason) for one in-process result."""
    p, bits, kind = op.params, op.bits, op.kind
    if kind == "arccos":
        return checks.check_arccos(result.mantissa, arccos_reference(radpi, p["x0"], bits), bits)
    if kind in ("table1", "table2"):
        sweep = p["ks"] if kind == "table1" else p["ms"]
        if [row.index for row in result.rows] != list(sweep):
            return False, 0, "table rows do not match the sweep"
        total = 0
        for row in result.rows:
            if kind == "table1":
                x = x_for(checks.theta(*p["seed"]), row.index)
            else:
                x = x_for(checks.theta_m_d(row.index, p["d"]), 1)
            ok, digits, reason = checks.check_row(
                row.index, row.approximant, row.abs_error, result.meta["measure_bits"],
                x, "pi", bits)
            if not ok:
                return ok, 0, reason
            total += digits
        return True, total, None
    if kind in ("method1", "viete") and result.ratio_kind != "exact":
        return False, 0, f"ratio_kind {result.ratio_kind!r} on a pi-free seed"
    if kind == "method1":
        x = x_for(checks.theta(*p["seed"]), p["k"])
    elif kind == "viete":
        x = x_for(math.pi, p["k"] + 1)
    elif kind == "method2":
        x = x_for(checks.theta_m_d(p["m"], p["d"]), 1)
    elif kind == "combined":
        x = x_for(checks.theta_m_d(p["m"], p["d"]), p["k"])
    else:  # unity, method1self
        x = x_for(checks.theta_x0(p["x0"]), p["k"])
    target = "one" if kind == "unity" else "pi"
    return checks.check_window(_fixed_fraction(result.value), x, target, bits)


# -- cli-process --------------------------------------------------------------

FORMATS = ("text", "csv", "json")

# Malformed requests from the documented error classes: (tag, argv, exit code,
# known open defect). At this commit the three defects exit 1 with a traceback;
# they run as once-per-run probes, outside the timed mix and outside `failed`.
_NEAR_ONE = "0." + "9" * 40
MALFORMED = (
    ("usage-missing-k", ["compute", "--method", "method1", "--m", "2", "--s", "2"], 64, None),
    ("usage-bad-range", ["table", "--method", "method1", "--m", "2", "--s", "2",
                         "--k-range", "9:3"], 64, None),
    ("usage-low-bits", ["compute", "--method", "viete", "--k", "5", "--bits", "32"], 64, None),
    ("usage-unknown-flag", ["arccos", "--x0", "0.3", "--digits", "5"], 64, None),
    ("domain-d-ge-m", ["compute", "--method", "method2", "--m", "5", "--d", "7"], 2, None),
    ("catalog-miss", ["compute", "--method", "method1", "--m", "3", "--s", "2", "--k", "5",
                      "--ratio-mode", "exact"], 2, None),
    ("domain-near-one", ["arccos", "--x0", _NEAR_ONE], 2, None),
    ("precision-guard", ["compute", "--method", "method1", "--m", "2", "--s", "2",
                         "--k", "30", "--guard-bits", "40"], 3, None),
    ("io-unwritable", ["compute", "--method", "viete", "--k", "5",
                       "--out", ".perfbench/missing/out.txt"], 74, None),
    ("x0-nan", ["arccos", "--x0", "nan"], 64, "x0-nonfinite"),
    ("x0-inf", ["arccos", "--x0", "inf"], 64, "x0-nonfinite"),
    ("audit-k0", ["audit", "--k", "0"], 64, "audit-k0"),
)

# verify_identities converts 2**working_bits to a float, which overflows from
# about 920 output bits on: `radpi verify --bits 1024` ends in a traceback.
VERIFY_OVERFLOW = "verify-overflow"


def _seed_flags(seed) -> list[str]:
    m, s, sign = seed
    return ["--m", str(m), "--s", str(s), "--sign", "+" if sign > 0 else "-"]


def _x0_text(x0: Fraction) -> str:
    return f"{'-' if x0 < 0 else ''}0.{abs(x0.numerator) * 1000 // x0.denominator:03d}"


def cli_block(rng: random.Random) -> list[Op]:
    """20 well-formed requests over all six subcommands plus one malformed one.

    The malformed request is drawn from the classes without a known defect,
    so no timed request fails while the package is correct.

    Bits are stratified over [128, 256] and formats dealt evenly. The four
    verify requests run at 256 bits, so the slowest 19% of every block is one
    homogeneous cluster, and the p90 falls near its middle.
    """
    ops = []
    bits_draws = iter(strata(rng, 128, 256, 16))
    formats = list(FORMATS * 7)[:20]
    rng.shuffle(formats)
    fmt_draws = iter(formats)

    def add(kind, argv, bits=None, **check):
        bits = bits or next(bits_draws)
        fmt = next(fmt_draws)
        ops.append(Op(kind, bits, {"argv": argv + ["--bits", str(bits), "--format", fmt],
                                   "fmt": fmt, **check}))

    seeds = list(CATALOG_SEEDS)
    rng.shuffle(seeds)
    depths = iter(strata(rng, 5, 28, 6))
    for seed in seeds[:2]:
        k = next(depths)
        add("compute", ["compute", "--method", "method1", "--k", str(k)] + _seed_flags(seed),
            rows={k: x_for(checks.theta(*seed), k)})
    x0, k = random_x0(rng), next(depths)
    add("compute", ["compute", "--method", "method1", "--x0", _x0_text(x0), "--k", str(k)],
        rows={k: x_for(checks.theta_x0(x0), k)})
    m, d = log_uniform_int(rng, 10, 10**6), rng.randint(1, 5)
    add("compute", ["compute", "--method", "method2", "--m", str(m), "--d", str(d)],
        rows={m: x_for(checks.theta_m_d(m, d), 1)})
    m, d, k = log_uniform_int(rng, 10, 10**6), rng.randint(1, 5), next(depths)
    add("compute", ["compute", "--method", "combined", "--m", str(m), "--d", str(d),
                    "--k", str(k)], rows={k: x_for(checks.theta_m_d(m, d), k)})
    x0, k = random_x0(rng), next(depths)
    add("compute", ["compute", "--method", "unity", "--x0", _x0_text(x0), "--k", str(k)],
        rows={k: x_for(checks.theta_x0(x0), k)}, target="one")
    k = next(depths)
    add("compute", ["compute", "--method", "viete", "--k", str(k)],
        rows={k: x_for(math.pi, k + 1)})
    lo_method1, lo_viete = strata(rng, 1, 24, 2)
    seed, lo = seeds[2], lo_method1
    ks = range(lo, lo + 6)
    add("table", ["table", "--method", "method1", "--k-range", f"{lo}:{ks[-1]}"]
        + _seed_flags(seed), rows={k: x_for(checks.theta(*seed), k) for k in ks})
    d = rng.randint(1, 5)
    ms = sorted({log_uniform_int(rng, 10, 10**6) for _ in range(3)})
    add("table", ["table", "--method", "method2", "--m-range", ",".join(map(str, ms)),
                  "--d", str(d)], rows={m: x_for(checks.theta_m_d(m, d), 1) for m in ms})
    lo = lo_viete
    ks = range(lo, lo + 6)
    add("table", ["table", "--method", "viete", "--k-range", f"{lo}:{ks[-1]}"],
        rows={k: x_for(math.pi, k + 1) for k in ks})
    m, d, lo = log_uniform_int(rng, 10, 1000), rng.randint(1, 5), rng.randint(1, 8)
    ks = range(lo, lo + 4)
    add("table", ["table", "--method", "combined", "--m", str(m), "--d", str(d),
                  "--k-range", f"{lo}:{ks[-1]}"],
        rows={k: x_for(checks.theta_m_d(m, d), k) for k in ks})
    for _ in range(2):
        x0 = random_x0(rng)
        add("arccos", ["arccos", "--x0", _x0_text(x0)], x0=_x0_text(x0))
    for seed in seeds[:2]:
        k = rng.randint(5, 40)
        add("audit", ["audit", "--k", str(k), "--audited-bits", "53"] + _seed_flags(seed),
            k=k)
    add("reproduce", ["reproduce"])
    for _ in range(4):
        add("verify", ["verify"], bits=256)
    ops.append(rng.choice([op for op in malformed_ops() if op.known_defect is None]))
    rng.shuffle(ops)
    return ops


def malformed_ops() -> list[Op]:
    return [Op("malformed", 0, {"argv": argv, "tag": tag, "expect": code}, known)
            for tag, argv, code, known in MALFORMED]


def golden_argvs() -> list[list[str]]:
    """Each subcommand x each format at 128 and 1024 bits."""
    base = (
        ["compute", "--method", "method1", "--m", "2", "--s", "2", "--k", "20"],
        ["table", "--method", "method1", "--m", "2", "--s", "3", "--sign", "-",
         "--k-range", "1:10"],
        ["arccos", "--x0", "0.8"],
        ["audit", "--k", "40", "--audited-bits", "53"],
        ["reproduce"],
        ["verify"],
    )
    return [argv + ["--bits", str(bits), "--format", fmt]
            for bits in (128, 1024) for argv in base for fmt in FORMATS]


# Every child interpreter runs without `site`: radpi is stdlib-only and is
# imported from src through PYTHONPATH, so the .pth hooks of whatever
# environment runs the benchmark stay out of the timings.
PYTHON = [sys.executable, "-S"]


def run_cli(argv: list[str], cwd, env, launcher: list[str] | None = None):
    """One radpi process; returns (exit code, stdout, stderr)."""
    command = PYTHON + (launcher or ["-m", "radpi"]) + argv
    proc = subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8", "replace"), \
        proc.stderr.decode("utf-8", "replace")


def _check_report_rows(radpi, op: Op, text: str):
    p = op.params
    rows, measure_bits = checks.report_rows(text, p["fmt"])
    if op.kind == "arccos":
        (_, approx, _), = rows
        oracle = arccos_reference(radpi, Fraction(p["x0"]), op.bits)
        value = Fraction(approx)
        digits = len(approx.partition(".")[2])
        slack = -(-(1 << op.bits) // 10**digits)
        return checks.check_arccos((value.numerator << op.bits) // value.denominator,
                                   oracle, op.bits, slack)
    expected = p["rows"]
    if [index for index, _, _ in rows] != list(expected):
        return False, 0, "rows do not match the request"
    total = 0
    for index, approx, abs_error in rows:
        ok, digits, reason = checks.check_row(index, approx, abs_error, measure_bits,
                                              expected[index], p.get("target", "pi"), op.bits)
        if not ok:
            return False, 0, reason
        total += digits
    return True, total, None


def _check_listing(op: Op, text: str):
    """Structural checks for audit, reproduce and verify output."""
    fmt = op.params["fmt"]
    if fmt == "text" and op.kind != "audit":
        lines = [line for line in text.splitlines() if not line.startswith("# ")]
        ok = bool(lines) and all(line.startswith("PASS ") for line in lines)
        expected = 4 if op.kind == "reproduce" else None
        ok = ok and (expected is None or len(lines) == expected)
        return ok, 0, None if ok else f"{op.kind} printed a non-PASS line"
    header, rows, _ = checks.parse_rows(text, fmt)
    col = {name: i for i, name in enumerate(header)}
    if op.kind == "audit":
        ok = [int(r[col["k"]]) for r in rows] == list(range(1, op.params["k"] + 1))
        return ok, 0, None if ok else "audit rows do not cover 1..k"
    flags = ("prefactor_exact", "radical_shape_ok", "converged") if op.kind == "reproduce" \
        else ("passed",)
    ok = bool(rows) and all(r[col[f]] == "True" for r in rows for f in flags)
    if op.kind == "reproduce":
        ok = ok and len(rows) == 4
    return ok, 0, None if ok else f"{op.kind} reported a failure"


def check_cli(radpi, op: Op, outcome, golden: str | None = None):
    """(ok, digits, reason) for one radpi process."""
    code, stdout, stderr = outcome
    if "Traceback" in stderr:
        return False, 0, f"exit {code} with a traceback: {stderr.strip().splitlines()[-1]}"
    if op.kind == "malformed":
        ok = code == op.params["expect"]
        return ok, 0, None if ok else f"exit {code}, expected {op.params['expect']}"
    if code != 0:
        return False, 0, f"exit {code}: {stderr.strip()[:200]}"
    if golden is not None and stdout != golden:
        return False, 0, "stdout differs from the golden bytes"
    try:
        if op.kind in ("compute", "table", "arccos"):
            return _check_report_rows(radpi, op, stdout)
        return _check_listing(op, stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return False, 0, f"unparseable {op.params['fmt']} output: {exc!r}"


def golden_op(argv: list[str]) -> Op:
    """The Op for a golden argv, with the same structural checks as the mix."""
    kind = argv[0]
    bits = int(argv[argv.index("--bits") + 1])
    fmt = argv[argv.index("--format") + 1]
    params = {"argv": argv, "fmt": fmt}
    known = VERIFY_OVERFLOW if kind == "verify" and bits >= 1024 else None
    if kind == "compute":
        params["rows"] = {20: x_for(checks.theta(2, 2, 1), 20)}
    elif kind == "table":
        params["rows"] = {k: x_for(checks.theta(2, 3, -1), k) for k in range(1, 11)}
    elif kind == "arccos":
        params["x0"] = "0.8"
    elif kind == "audit":
        params["k"] = 40
    return Op(kind, bits, params, known)
