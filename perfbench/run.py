"""radpi benchmark: one workload per invocation, checked against series oracles.

    python3 perfbench/run.py --workload exact-depth --seed 1 --seconds 34 --trace 0

Run from the root of a source checkout; radpi is imported from ./src (it need
not be installed). Workloads:

  exact-depth      pi-free approximants from cataloged seeds at 1024/4096 bits
  self-consistent  uncataloged seeds: the self-consistent arccos and everything
                   built on it, at 256/1024/2048 bits
  cli-process      one `python -m radpi` process per request, all subcommands
                   and formats at 128-256 bits, ~5% malformed requests

With --trace 0 the run is untraced and the last stdout line carries the
end-to-end metrics; with --trace 1 a fixed number of blocks runs untraced and
then traced, and the last line carries the per-layer metrics. Spans of the
traced pass are written to .perfbench/spans-<workload>.tsv.gz.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import micro
import workloads
from tracing import Tracer
from workloads import Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPS = 15
# Times taken in child processes are scaled to a host on which a bare
# `python -S -c pass` takes FLOOR_NOMINAL_S, using the floor (median of
# FLOOR_REPS starts) measured next to them. Process start-up (exec, page
# faults, imports) swings by up to 1.5x with the load on a shared host, three
# to four times more than in-process arithmetic does, and the floor swings
# with it; no radpi change can move it.
FLOOR_NOMINAL_S = 0.010
FLOOR_REPS = 8


@dataclass(frozen=True)
class Workload:
    """Block generator, set-up warm-up ops and traced block count of one workload."""

    name: str
    block: Callable[[random.Random], list[Op]]
    warm: list[Op]
    trace_blocks: int
    in_process: bool = True


WORKLOADS = {
    w.name: w for w in (
        Workload("exact-depth", workloads.exact_depth_block, [
            Op(kind, bits, params)
            for bits in (1024, 4096)
            for kind, params in (("method1", {"seed": (2, 2, 1), "k": 8}),
                                 ("viete", {"k": 8}),
                                 ("table1", {"seed": (2, 2, 1), "ks": [1, 2]}))
        ], trace_blocks=8),
        Workload("self-consistent", workloads.self_consistent_block, [
            Op("arccos", 256, {"x0": Fraction(3, 10)}),
            Op("method2", 256, {"m": 100, "d": 1}),
            Op("combined", 256, {"m": 100, "d": 1, "k": 4}),
            Op("unity", 256, {"x0": Fraction(3, 10), "k": 4}),
            Op("method1self", 256, {"x0": Fraction(3, 10), "k": 4}),
            Op("table2", 256, {"d": 1, "ms": [10, 100]}),
        ], trace_blocks=4),
        Workload("cli-process", workloads.cli_block, [
            Op("compute", 128, {"argv": ["compute", "--method", "viete", "--k", "8"]}),
        ], trace_blocks=3, in_process=False),
    )
}


class Runner:
    """Executes and checks ops of one workload, in-process or as processes.

    With a tracer set, in-process ops run under its wrappers (installed by the
    caller) and each CLI request runs through cli_child.py, whose spans are
    merged into the tracer.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # child interpreters cache bytecode, as a default installation does
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.radpi = None
        self.tracer: Tracer | None = None

    def load(self) -> None:
        """Import radpi here; in-process workloads also run their warm-up once."""
        self.radpi = importlib.import_module("radpi")
        if not self.workload.in_process:
            importlib.import_module("radpi.cli")
            return
        for op in self.workload.warm:
            self.execute(op)

    def setup_sample(self) -> float:
        """Seconds a fresh interpreter spends importing radpi and warming up."""
        out = subprocess.run(workloads.PYTHON + [str(BENCH_DIR / "setup_child.py"),
                                                 self.workload.name],
                             cwd=ROOT, env=self.env, capture_output=True, check=True,
                             timeout=120).stdout
        return float(out.split()[-1])

    def execute(self, op: Op, launcher=None):
        if self.workload.in_process:
            return workloads.prepare(self.radpi, op)()
        return workloads.run_cli(op.params["argv"], ROOT, self.env, launcher)

    def timed(self, op: Op, index: int):
        """(outcome, seconds); an in-process exception becomes the outcome."""
        if self.workload.in_process:
            if self.tracer is not None:
                self.tracer.current_op = index
            call = workloads.prepare(self.radpi, op)
            t0 = time.perf_counter()
            try:
                outcome = call()
            except Exception as exc:  # the op boundary: record and keep running
                outcome = exc
            return outcome, time.perf_counter() - t0
        if self.tracer is None:
            t0 = time.perf_counter()
            outcome = self.execute(op)
            return outcome, time.perf_counter() - t0
        spans = OUT_DIR / "child-spans.json"
        t0 = time.perf_counter()
        outcome = self.execute(op, [str(BENCH_DIR / "cli_child.py"), str(spans)])
        latency = time.perf_counter() - t0
        if spans.exists():
            self.tracer.extend(json.loads(spans.read_text(encoding="utf-8")), index)
            spans.unlink()
        return outcome, latency

    def check(self, op: Op, outcome, golden=None):
        if isinstance(outcome, Exception):
            return False, 0, f"raised {outcome!r}"
        if self.workload.in_process:
            return workloads.check_in_process(self.radpi, op, outcome)
        return workloads.check_cli(self.radpi, op, outcome, golden)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_blocks(runner: Runner, blocks, seconds=None, between=None):
    """Run whole blocks until `seconds` have been measured (or all blocks, if
    None). `between(measured_s)` runs after each block; its time is not
    measured, and it may return a factor for the times of that block (None
    for 1). Returns the records and the time they took, both scaled."""
    records = []
    measured = scaled = 0.0
    for block in blocks:
        first = len(records)
        t0 = time.perf_counter()
        for op in block:
            outcome, latency = runner.timed(op, len(records))
            records.append((op, outcome, latency))
        spent = time.perf_counter() - t0
        measured += spent
        factor = between(measured) if between is not None else None
        if factor is not None:
            records[first:] = [(op, outcome, latency * factor)
                               for op, outcome, latency in records[first:]]
            spent *= factor
        scaled += spent
        if seconds is not None and measured >= seconds:
            break
    return records, scaled


def block_stream(workload: Workload, seed: int):
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        yield workload.block(rng)


def check_records(runner: Runner, records):
    """[(op, ok, digits, reason)] for timed records."""
    return [(op, *runner.check(op, outcome)) for op, outcome, _ in records]


def check_fixed_requests(runner: Runner, probes_only: bool = False):
    """Untimed, once per run. Returns (checked, open): `checked` holds the golden
    and malformed requests without a known defect (golden stdout must match
    where it exists); `open` holds the known-defect probes that still fail.
    Probes stay out of `failed`, so a run fails only on a new defect."""
    goldens = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
    requests = [(workloads.golden_op(entry["argv"]), entry["stdout"]) for entry in goldens]
    requests += [(op, None) for op in workloads.malformed_ops()]
    checked, still_open = [], []
    for op, golden in requests:
        if probes_only and op.known_defect is None:
            continue
        result = (op, *runner.check(op, runner.execute(op), golden))
        if op.known_defect is None:
            checked.append(result)
        elif not result[1]:
            still_open.append(result)
    for op, _ok, _digits, reason in still_open:
        print(f"known defect still open [{op.known_defect}] {op.params['argv']}: {reason}",
              file=sys.stderr)
    print(f"# known defects still open: {len(still_open)} probes "
          f"({', '.join(sorted({op.known_defect for op, *_ in still_open})) or 'none'})")
    return checked, still_open


def summarize_failures(checked) -> int:
    """Number of failed checks; each reason goes to stderr."""
    failed = 0
    for op, ok, _digits, reason in checked:
        if not ok:
            failed += 1
            print(f"failed {op.kind} {op.params.get('argv', op.params)}: {reason}",
                  file=sys.stderr)
    return failed


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def probe_ms(runner: Runner, code: str, reps: int = 5):
    """Median wall time of `python -S -c code`, and the median float it prints."""
    walls, printed = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        out = subprocess.run(workloads.PYTHON + ["-c", code], cwd=ROOT, env=runner.env,
                             capture_output=True, check=True, timeout=60).stdout
        walls.append(time.perf_counter() - t0)
        if out.strip():
            printed.append(float(out))
    return statistics.median(walls) * 1e3, (statistics.median(printed) * 1e3 if printed else 0.0)


def end_to_end(runner: Runner, args):
    # Set-up samples are spread over the run, so that they see the same
    # machine conditions as the timed ops; the first also writes the .pyc files.
    setup_raw, setup, floor = [], [], []
    cli = not runner.workload.in_process

    def between(measured):
        """A set-up sample when one is due, scaled by the floor measured next
        to it; on cli-process, the floor after every block scales that block."""
        due = len(setup) < SETUP_REPS and measured >= len(setup) * args.seconds / SETUP_REPS
        if not (due or cli):
            return None
        floor.append(probe_ms(runner, "pass", FLOOR_REPS)[0] / 1e3)
        scale = FLOOR_NOMINAL_S / floor[-1]
        if due:
            setup_raw.append(runner.setup_sample())
            setup.append(setup_raw[-1] * scale)
        return scale if cli else None

    between(0.0)
    records, elapsed = run_blocks(runner, block_stream(runner.workload, args.seed),
                                  args.seconds, between)
    while len(setup) < SETUP_REPS:
        between(math.inf)
    rss = peak_rss_mb(runner.workload.in_process)
    checked = check_records(runner, records)
    latencies = [lat if ok else math.inf for (_, _, lat), (_, ok, _, _) in zip(records, checked)]
    good = sum(1 for _, ok, _, _ in checked if ok)
    digits = sum(d for _, ok, d, _ in checked if ok)
    extra = [] if runner.workload.in_process else check_fixed_requests(runner)[0]
    failed = summarize_failures(checked + extra)
    metrics = {
        "setup_s": statistics.median(setup),
        "throughput_ops_s": good / elapsed,
        "latency_p50_ms": nearest_rank(latencies, 0.5) * 1e3,
        "latency_p90_ms": nearest_rank(latencies, 0.9) * 1e3,
        "digits_per_s": digits / elapsed,
        "peak_rss_mb": rss,
    }
    print(f"# {len(records)} timed ops in {elapsed:.3f} s{' (scaled)' if cli else ''}, "
          f"{len(extra)} untimed fixed requests")
    print(f"# floor: bare interpreter start {statistics.median(floor) * 1e3:.3f} ms "
          f"(median of {len(floor)} points, {FLOOR_REPS} starts each); "
          f"unscaled set-up {statistics.median(setup_raw):.6f} s")
    return metrics, len(checked) + len(extra), failed


def per_layer(runner: Runner, args):
    ops = [op for block, _ in zip(block_stream(runner.workload, args.seed),
                                  range(runner.workload.trace_blocks)) for op in block]
    if runner.workload.in_process:
        run_blocks(runner, [ops])  # fill the package's caches before either timed pass
    untraced, wall_plain = run_blocks(runner, [ops])
    tracer = runner.tracer = Tracer()
    if runner.workload.in_process:
        tracer.install()
    try:
        traced, wall_traced = run_blocks(runner, [ops])
    finally:
        tracer.uninstall()
        runner.tracer = None
    metrics = tracer.layer_metrics()
    tracer.write(OUT_DIR / f"spans-{runner.workload.name}.tsv.gz")
    metrics.update(micro.layer_micro(runner.radpi, args.seed))
    if runner.workload.in_process:
        interp_ms = import_ms = 0.0
    else:
        interp_ms, _ = probe_ms(runner, "pass")
        _, import_ms = probe_ms(runner, "import time; t = time.perf_counter(); "
                                        "import radpi.cli; print(time.perf_counter() - t)")
    metrics["cli.interp_ms"] = interp_ms
    metrics["cli.import_ms"] = import_ms
    metrics["cli.traceback_count"] = sum(
        1 for _, outcome, _ in traced
        if isinstance(outcome, tuple) and "Traceback" in outcome[2])
    checked = check_records(runner, untraced + traced)
    failed = summarize_failures(checked)
    still_open = [] if runner.workload.in_process else \
        check_fixed_requests(runner, probes_only=True)[1]
    metrics["cli.known_defect_probes_failed"] = len(still_open)
    metrics["failed_share"] = failed / len(checked)
    metrics["trace.overhead_s"] = wall_traced - wall_plain
    print(f"# {len(ops)} ops per pass: untraced {wall_plain:.3f} s, traced {wall_traced:.3f} s, "
          f"{len(tracer.start)} spans")
    return metrics, len(checked), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "radpi" / "__init__.py").is_file():
        print(f"error: no radpi sources at {SRC}; run from a radpi checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    runner = Runner(WORKLOADS[args.workload])
    runner.load()
    if not Path(runner.radpi.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported radpi from {runner.radpi.__file__}, not {SRC}", file=sys.stderr)
        return 2
    print("# env " + json.dumps({
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "workload": args.workload, "seed": args.seed}))
    gc.collect()
    if args.trace:
        metrics, attempted, failed = per_layer(runner, args)
    else:
        metrics, attempted, failed = end_to_end(runner, args)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
