"""Engine bits, pinned: the mantissas of the self-consistent arccos, of every
raw engine state, of the literal nested radical and of the scale factors, as
the engine produced them before its doubled-sine loops were merged into one
(the scale factors only where they are rational, since the other values
depend on how the roots are chained). The arccos pins at 2048 and 4096 bits,
where the extrapolated stop runs longest, were taken from the loop that
stopped on Romberg's second column, before it stopped on the fourth; those at
guard 32, where the tolerance is tightest, and at the ends of the domain from
the loop that stopped on the fourth column, before it stopped on the sixth.
The arccos then ran its plan's count of steps on the tenth column, built one
Romberg row per step, and then a shorter count on the fourteenth column, one
exact sum over its last 15 doubled sines; it now runs floor(sqrt(B)) steps
and sums the arcsine series of its last doubled sine, and every pin replays.

Each entry of tests/data/engine_pins.json names its inputs and the hex
mantissas they gave; the test recomputes them. Running this file as a script
rewrites the data file from the current engine.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import radpi.drivers
from radpi import (
    FixedReal,
    PrecisionContext,
    Seed,
    arccos_by_recursion,
    nested_literal,
    scale_factors,
)
from radpi.drivers import plan
from radpi.recursion import run_at_scale

PINS_PATH = Path(__file__).resolve().parent / "data" / "engine_pins.json"

_ARCCOS_X0 = ("-1", "-0.999", "-0.8", "-0.5", "-0.3", "0", "0.1", "0.3", "0.5",
              "0.7071", "0.8", "0.9", "0.99", "0.999")
_STATE_SEEDS = ((2, 2, 1), (2, 3, -1), (5, 16, -1), ("7/3", 5, 1))
_CATALOG_SEEDS = ((2, 2, 1), (2, 3, 1), (2, 3, -1), (2, 2, -1))
# m and the k at which f(k) = 2**p * m**q is rational (every k for m = 2)
_SCALE_EXACT = (("2", tuple(range(2, 41))), ("4", (2,)), ("1/2", (2, 3)), ("8", (2, 3)),
                ("32", (2, 3, 4)), ("1/8", (2, 3, 4)))
# the ends of the arccos domain at B bits, as mantissas: the largest accepted
# x0 = 1 - 2**(-B/2), and -1 + 2**-B and -1 + 2**(-B/2) next to -1
_ARCCOS_EDGES = {
    "1-2^(-B/2)": lambda bits: (1 << bits) - (1 << (bits - bits // 2)),
    "-1+2^-B": lambda bits: -(1 << bits) + 1,
    "-1+2^(-B/2)": lambda bits: -(1 << bits) + (1 << (bits - bits // 2)),
}


def _hex(value: FixedReal) -> str:
    return hex(value.mantissa)


def _seed(m, s, sign) -> Seed:
    return Seed(Fraction(m), Fraction(s), sign)


def _cases() -> list[dict]:
    cases = []
    for bits in (128, 256, 1024):
        for guard in (None, bits + 112, bits + 200):
            for x0 in _ARCCOS_X0:
                cases.append({"kind": "arccos", "x0": x0, "bits": bits, "guard": guard})
    for m, s, sign in _STATE_SEEDS:
        for variant in ("stable", "naive"):
            cases.append({"kind": "run_at_scale", "seed": [str(m), str(s), sign],
                          "k": 30, "scale_bits": 192, "variant": variant})
    for m, s, sign in _CATALOG_SEEDS:
        cases.append({"kind": "nested_literal", "seed": [str(m), str(s), sign],
                      "k_max": 20, "bits": 128})
    for m, ks in _SCALE_EXACT:
        cases.append({"kind": "scale_factors", "m": m, "k_max": 40, "scale_bits": 160,
                      "exact_k": list(ks)})
    for bits in (2048, 4096):  # where the run is longest
        for x0 in ("-1", "-0.999", "0", "0.3", "0.999"):
            cases.append({"kind": "arccos", "x0": x0, "bits": bits, "guard": None})
    for bits in (2048, 4096):  # at the least guard, where the rounding is closest
        for x0 in ("-1", "-0.999", "0", "0.3", "0.999"):
            cases.append({"kind": "arccos", "x0": x0, "bits": bits, "guard": 32})
    for bits in (1024, 2048, 4096):
        for x0 in _ARCCOS_EDGES:
            for guard in (None, 32):
                cases.append({"kind": "arccos", "x0": x0, "bits": bits, "guard": guard})
    return cases


def _arccos_input(case: dict) -> tuple[FixedReal, PrecisionContext]:
    edge = _ARCCOS_EDGES.get(case["x0"])
    x0 = (FixedReal(edge(case["bits"]), case["bits"]) if edge
          else FixedReal.from_fraction(Fraction(case["x0"]), case["bits"]))
    return x0, PrecisionContext(case["bits"], case["guard"])


def _compute(case: dict):
    kind = case["kind"]
    if kind == "arccos":
        return _hex(arccos_by_recursion(*_arccos_input(case)))
    if kind == "run_at_scale":
        states = run_at_scale(_seed(*case["seed"]), case["k"], case["scale_bits"],
                              case["variant"])
        return [[_hex(st.x), _hex(st.c), _hex(st.scaled_sine), _hex(st.g), _hex(st.f)]
                for st in states]
    if kind == "nested_literal":
        ctx = PrecisionContext(case["bits"])
        seed = _seed(*case["seed"])
        return [_hex(nested_literal(seed, k, ctx)) for k in range(1, case["k_max"] + 1)]
    if kind == "scale_factors":
        factors = scale_factors(Fraction(case["m"]), case["k_max"], case["scale_bits"])
        return [_hex(factors[k]) for k in case["exact_k"]]
    raise ValueError(f"unknown pin kind {kind!r}")


def _case_id(case: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in case.items() if key != "mantissas")


PINS = json.loads(PINS_PATH.read_text(encoding="utf-8")) if PINS_PATH.exists() else []


@pytest.mark.parametrize("case", PINS, ids=[_case_id(c) for c in PINS])
def test_engine_bits_are_pinned(case):
    assert _compute(case) == case["mantissas"]


def test_the_arccos_runs_its_planned_count_at_every_pinned_input(monkeypatch):
    # the loop reads exactly plan("arccos", ctx, x0=x0).steps = j doubled
    # sines, and its series sums at most N_max = (w + 2) // (2j - 4) + 1 terms
    yields, terms = [], []
    sines, series = radpi.drivers._doubled_sines, radpi.drivers._arcsin_terms
    monkeypatch.setattr(radpi.drivers, "_doubled_sines", lambda x, variant: (
        yields.append(pair) or pair for pair in sines(x, variant)))
    monkeypatch.setattr(radpi.drivers, "_arcsin_terms", lambda t, j, w: (
        terms.append(term) or term for term in series(t, j, w)))
    cases = [case for case in PINS if case["kind"] == "arccos"]
    for case in cases:
        x0, ctx = _arccos_input(case)
        yields.clear()
        terms.clear()
        arccos_by_recursion(x0, ctx)
        run = plan("arccos", ctx, x0=x0)
        assert len(yields) == run.steps, _case_id(case)
        assert len(terms) <= (run.work + 2) // (2 * run.steps - 4) + 1, _case_id(case)
        assert run.bit_steps == run.work * (run.steps + (run.work + 2) // (2 * run.steps - 4) + 1)
    assert len(cases) == 164


def test_pins_cover_every_case():
    assert [_case_id(c) for c in PINS] == [_case_id(c) for c in _cases()]


if __name__ == "__main__":
    pins = [{**case, "mantissas": _compute(case)} for case in _cases()]
    PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n", encoding="utf-8")
