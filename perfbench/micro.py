"""Layer microbenchmarks on the 128/1024/4096/16384-bit grid.

Each figure is the median over several timed batches, with the batch size
calibrated so that one batch takes at least a few milliseconds. The uncached
oracles are timed on their own lines, so a faster reference cannot hide a
slower approximant.
"""

from __future__ import annotations

import random
import statistics
import time

GRID = (128, 1024, 4096, 16384)
ORACLE_GRID = (128, 1024, 4096)
STEP_DEPTH = 9


def _per_call(fn, batches: int = 5, min_batch_s: float = 0.005) -> float:
    """Median seconds per call of fn()."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= min_batch_s:
            break
        n *= 4
    samples = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return statistics.median(samples)


def _median_time(fn, reps: int) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def layer_micro(radpi, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    fixed = radpi.FixedReal
    out: dict[str, float] = {}
    for bits in GRID:
        # operands in [1, 2) with full-width random mantissas
        x = fixed((1 << bits) | rng.getrandbits(bits), bits)
        y = fixed((1 << bits) | rng.getrandbits(bits), bits)
        out[f"arith.sqrt_us.b{bits}"] = _per_call(x.sqrt) * 1e6
        out[f"arith.mul_us.b{bits}"] = _per_call(lambda: x * y) * 1e6
        out[f"arith.div_us.b{bits}"] = _per_call(lambda: x / y) * 1e6
    seed_form = radpi.Seed(2, 3, 1)
    run_at_scale = radpi.recursion.run_at_scale
    for bits in GRID:
        reps = 3 if bits >= 16384 else 5
        deep = _median_time(lambda: run_at_scale(seed_form, STEP_DEPTH, bits), reps)
        one = _median_time(lambda: run_at_scale(seed_form, 1, bits), reps)
        out[f"recursion.step_us.b{bits}"] = (deep - one) / (STEP_DEPTH - 1) * 1e6
    pi_mantissa = radpi.arith._pi_mantissa
    for bits in ORACLE_GRID:
        out[f"arith.pi_ref_ms.b{bits}"] = _median_time(
            lambda: pi_mantissa.__wrapped__(bits), 5) * 1e3
    for bits in ORACLE_GRID:
        x0 = fixed(rng.randrange(-(1 << bits), 1 << bits) * 95 // 100, bits)
        ctx = radpi.PrecisionContext(bits)

        def uncached_arccos():
            pi_mantissa.cache_clear()
            radpi.arccos_oracle(x0, ctx)

        out[f"arith.arccos_ref_ms.b{bits}"] = _median_time(uncached_arccos, 5) * 1e3
    return out
