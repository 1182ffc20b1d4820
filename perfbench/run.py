#!/usr/bin/env python3
"""Benchmark of sumprod's exact kernels, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it). Workloads are defined
in `workloads.py`, their exact oracles in `oracle.py`, and the metric names
and units in `BENCHMARK.json` at the root.

The seed picks one of 16 input sets (seed % 16), each with recorded exact
results (see workloads.py and oracle.py). The loop is closed with one
client: one op at a time. Every pass of a workload runs in a fresh worker
process (this script with `--role`), one after another, so nothing the
program might keep in memory carries over from one pass to the next. Passes are started while the next one is expected to
end within `--seconds` (there is always at least one). BLAS/OpenMP threads
are capped at the number of usable cores.

--trace 0 reports the end-to-end metrics:
  wall_s       median over passes of the time to the exact results of all ops
  setup_s      median time from spawning a worker to inputs generated and
               warmed up (process start and import included); a
               set-up-only worker runs before each pass (and after the
               last, until there are enough samples), so the samples
               spread over the run
  peak_rss_mb  median ru_maxrss of the workers that ran a pass
It also measures, for report.py only, op latency percentiles:
  op_p50_ms    median and nearest-rank p90 of the latencies of all ops run
  op_p90_ms    (anneal: one chain; bulk-*: one call sequence; suite-grid:
               one run_suite call). Both are unchanged by repeating every
               op, so they do not jump with the number of passes that fit.
They are not end-to-end metrics of BENCHMARK.json: on this class of
2-core VM the host's speed shifts by 20-30% for tens of seconds at a time,
and a median over single chains flips with it (10-run spread up to 0.32),
while wall_s, a median over whole passes, stays within its bound.
--trace 1 runs one untraced pass, one tracemalloc pass and traced passes
for `--seconds`, and reports the per-layer metrics (see tracer.py); times
are medians over the traced passes, counts are per pass.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. An op fails when it raises, yields a suite
cell with status `error`, or differs from its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(HERE, "out")

WORKLOADS = ("bulk-random", "bulk-dense", "suite-grid", "anneal")
ROLES = ("setup", "pass", "traced", "memory")
MIN_SETUP_SAMPLES = 6
MAX_PASSES = 50
RUN_LIMIT_S = 175.0
# measured in every untraced run but printed only by report.py
INFO_UNITS = {"op_p50_ms": "ms", "op_p90_ms": "ms"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


# -- worker ------------------------------------------------------------------------

def import_sumprod():
    sys.path.insert(0, SRC)
    import sumprod
    if os.path.dirname(os.path.dirname(os.path.abspath(sumprod.__file__))) != SRC:
        raise BenchError(f"imported sumprod from {sumprod.__file__}, not {SRC}")
    return sumprod


def run_pass(ops, spans=None) -> tuple:
    """Time each op; summarize its output untimed. Returns (wall_s, records)."""
    records = []
    wall = 0.0
    for i, op in enumerate(ops):
        if spans is not None:
            spans.op_id = i
        raised = None
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:   # recorded per op; the oracle judges it
            result = None
            raised = type(exc).__name__
        dt = time.perf_counter() - t0
        wall += dt
        out = None
        if raised is None:
            try:
                out = op.summarize(result)
            except Exception as exc:   # output not even readable: a failure
                raised = f"summary {type(exc).__name__}"
        del result
        records.append({"name": op.name, "ms": dt * 1e3, "out": out,
                        "raised": raised})
    return wall, records


def worker(workload: str, seed: int, role: str) -> dict:
    sumprod = import_sumprod()
    import tracer
    import workloads
    os.makedirs(SCRATCH, exist_ok=True)
    ops = workloads.setup(workload, seed, SCRATCH)
    result = {"ready": time.monotonic()}
    if role == "setup":
        return result
    if role == "traced":
        spans = tracer.SpanTracer()
        tracer.install(sumprod, spans.wrap)
        wall, records = run_pass(ops, spans)
        result["layers"] = spans.layer_metrics()
        result["root_s"] = spans.root_s
        spans.write_spans(os.path.join(SCRATCH, f"spans-{workload}.jsonl"))
    elif role == "memory":
        peaks = tracer.PeakTracer()
        tracer.install(sumprod, peaks.wrap)
        wall, records = run_pass(ops)
        result["layers"] = peaks.layer_metrics()
    else:
        wall, records = run_pass(ops)
    result.update(wall_s=wall, ops=records,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result


# -- runner ------------------------------------------------------------------------

class Runner:
    """Spawns workers one at a time and keeps every run inside RUN_LIMIT_S."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = worker_env()

    def spawn(self, role: str) -> dict:
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", self.workload, "--seed", str(self.seed),
               "--role", role]
        t0 = time.monotonic()
        if t0 >= self.deadline:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env,
                                  cwd=ROOT, timeout=self.deadline - t0)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{role} worker exceeded the run time limit")
        if proc.returncode != 0:
            raise BenchError(f"{role} worker exited with {proc.returncode}")
        res = json.loads(proc.stdout.decode().splitlines()[-1])
        res["setup_s"] = res["ready"] - t0
        return res

    def measure(self, role: str, probes: list = None) -> list:
        """Passes while the next one is expected to end within --seconds.

        With `probes`, a set-up-only worker runs before each pass and its
        set-up time is appended there, so set-up samples spread over the run.
        """
        passes = []
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            if probes is not None:
                probes.append(self.spawn("setup")["setup_s"])
            res = self.spawn(role)
            passes.append(res)
            now = time.monotonic()
            if len(passes) >= MAX_PASSES \
                    or now - start + (now - t0) > self.seconds \
                    or now + (now - t0) > self.deadline:
                return passes


def percentile(values, q: int) -> float:
    """Nearest-rank percentile: the smallest value with q% of values <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(runner: Runner, expected: dict, tally) -> tuple:
    setups = []
    passes = runner.measure("pass", setups)
    for res in passes:
        tally.check_pass(expected, res["ops"])
    setups += [res["setup_s"] for res in passes]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    op_ms = [op["ms"] for res in passes for op in res["ops"]]
    metrics = {
        "wall_s": statistics.median(res["wall_s"] for res in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in passes) / 1024,
        "op_p50_ms": statistics.median(op_ms),
        "op_p90_ms": percentile(op_ms, 90),
    }
    samples = {"wall_s": len(passes), "setup_s": len(setups),
               "peak_rss_mb": len(passes), "op_p50_ms": len(op_ms),
               "op_p90_ms": len(op_ms)}
    return metrics, samples


def per_layer(runner: Runner, expected: dict, tally) -> tuple:
    plain = runner.spawn("pass")
    # the slow tracemalloc pass goes before the traced passes, which then
    # stop in time for the run limit
    memory = runner.spawn("memory")
    traced = runner.measure("traced")
    reference = [(op["name"], op["out"], op["raised"]) for op in plain["ops"]]
    for res in [plain] + traced + [memory]:
        tally.check_pass(expected, res["ops"])
        if [(op["name"], op["out"], op["raised"]) for op in res["ops"]] \
                != reference:
            tally.failed += 1
            tally.correct = False
            tally.problems.append("outputs differ from the untraced pass")

    metrics = {}
    first = traced[0]["layers"]
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        else:
            metrics[name] = value
            if any(r["layers"][name] != value for r in traced):
                print(f"warning: {name} differs between traced passes",
                      file=sys.stderr)
    walls = [r["wall_s"] for r in traced]
    metrics["trace.wall_s"] = statistics.median(walls)
    metrics["trace.outside_s"] = statistics.median(
        r["wall_s"] - r["root_s"] for r in traced)
    metrics["trace.overhead_ratio"] = metrics["trace.wall_s"] / plain["wall_s"]
    metrics.update(memory["layers"])
    timed = [n for n in metrics if n.endswith("_s")] + ["trace.overhead_ratio"]
    samples = {name: len(traced) if name in timed else 1 for name in metrics}
    return metrics, samples


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple:
    """One benchmark run.

    Returns (result printed by main, samples behind each metric, the
    informational metrics as {name: {"value", "unit"}}).
    """
    import oracle
    spec = load_spec()
    runner = Runner(workload, seed, seconds)
    tally = oracle.Tally()
    computed, samples = (per_layer if trace else end_to_end)(
        runner, oracle.expected(workload, seed), tally)
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if names ^ (set(computed) - set(INFO_UNITS)):
        raise BenchError(f"metrics {sorted(names ^ set(computed))} "
                         "are not both computed and listed in BENCHMARK.json")
    for problem in tally.problems:
        print(f"oracle: {problem}", file=sys.stderr)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {m["name"]: {"value": computed[m["name"]],
                                      "unit": m["unit"]} for m in wanted}}
    info = {name: {"value": computed[name], "unit": unit}
            for name, unit in INFO_UNITS.items() if name in computed}
    return result, samples, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=ROLES, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sumprod", "__init__.py")):
        print(f"error: no sumprod sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.role:
            result = worker(args.workload, args.seed, args.role)
        else:
            seconds = args.seconds or load_spec()["run_seconds"]
            result, _, _ = run(args.workload, args.seed, max(1, seconds),
                            bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
