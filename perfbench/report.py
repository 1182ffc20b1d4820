#!/usr/bin/env python3
"""Run the benchmark and print every metric by name, unit and sample count.

    python3 perfbench/report.py [--workload NAME ...] [--runs 10] [--traced-runs 1]
                                [--first-seed 0] [--seconds S]
                                [--save FILE] [--load FILE] [--trajectory LABEL]

For each workload (default: those of BENCHMARK.json): `--runs` untraced runs with seeds first-seed, first-seed+1,
..., then `--traced-runs` traced runs. For every metric it prints the median
over runs, the quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, the metric's bound from BENCHMARK.json, the number of runs
and the samples behind one run's value. End-to-end metrics whose spread
exceeds a third of their bound are flagged (setup_s has no spread gate).
It also prints the informational op latency percentiles (see run.py) and
ops_failed_frac = failed / attempted per workload.

--save writes the raw run results as JSON lines; --load prints from such a
file instead of running. --trajectory LABEL appends the summary as an entry
to trajectory.json next to this script.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys

import run

TRAJECTORY = os.path.join(run.HERE, "trajectory.json")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def collect(args, sink=None) -> list:
    spec = run.load_spec()
    seconds = args.seconds or spec["run_seconds"]
    records = []
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        plan = [(0, seed) for seed in range(args.first_seed,
                                            args.first_seed + args.runs)]
        plan += [(1, args.first_seed + i) for i in range(args.traced_runs)]
        for trace, seed in plan:
            result, samples, info = run.run(workload, seed, seconds,
                                            bool(trace))
            rec = {"workload": workload, "seed": seed, "trace": trace,
                   "seconds": seconds, "result": result, "samples": samples,
                   "info": info}
            records.append(rec)
            if sink is not None:
                sink.write(json.dumps(rec) + "\n")
                sink.flush()
            print(f"{workload} seed {seed} trace {trace}: "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"correct {result['correct']}", file=sys.stderr)
    return records


def summarize(records: list) -> dict:
    spec = run.load_spec()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    out = {}
    for rec in records:
        w = out.setdefault(rec["workload"], {"runs": {}, "failed": [],
                                             "attempted": [], "correct": True})
        res = rec["result"]
        w["correct"] = w["correct"] and res["correct"]
        if rec["trace"] == 0:
            w["failed"].append(res["failed"])
            w["attempted"].append(res["attempted"])
        for name, m in list(res["metrics"].items()) + \
                list(rec.get("info", {}).items()):
            entry = w["runs"].setdefault(name, {"unit": m["unit"], "values": [],
                                                "samples": [], "trace": rec["trace"]})
            entry["values"].append(m["value"])
            entry["samples"].append(rec["samples"][name])
    summary = {}
    for workload, w in out.items():
        metrics = {}
        for name, entry in w["runs"].items():
            q1, med, q3 = quartiles(entry["values"])
            metrics[name] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(name) if entry["trace"] == 0 else None,
                "unit": entry["unit"], "runs": len(entry["values"]),
                "samples_per_run": statistics.median(entry["samples"]),
                "trace": entry["trace"]}
        fracs = [f / a for f, a in zip(w["failed"], w["attempted"])]
        summary[workload] = {
            "correct": w["correct"],
            "ops_failed_frac": statistics.median(fracs) if fracs else None,
            "attempted": statistics.median(w["attempted"]) if fracs else None,
            "metrics": metrics}
    return summary


def print_summary(summary: dict) -> bool:
    steady = True
    head = (f"{'workload':<12} {'metric':<30} {'median':>14} {'q1':>14} "
            f"{'q3':>14} {'spread':>8} {'bound':>6} {'unit':<6} runs samples")
    print(head)
    for workload, w in summary.items():
        for name, m in w["metrics"].items():
            flag = ""
            if m["bound"] is not None and name != "setup_s" \
                    and m["spread"] > m["bound"] / 3:
                flag = "  <- spread above bound/3"
                steady = False
            bound = f"{m['bound']:.2f}" if m["bound"] is not None else "-"
            print(f"{workload:<12} {name:<30} {m['median']:>14.6g} "
                  f"{m['q1']:>14.6g} {m['q3']:>14.6g} {m['spread']:>8.4f} "
                  f"{bound:>6} {m['unit']:<6} {m['runs']:>4} "
                  f"{m['samples_per_run']:>7g}{flag}")
        if w["ops_failed_frac"] is not None:
            print(f"{workload:<12} {'ops_failed_frac':<30} "
                  f"{w['ops_failed_frac']:>14.6g} (of {w['attempted']:g} ops, "
                  f"correct={w['correct']})")
    return steady


def host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"{len(os.sched_getaffinity(0))} cores, {model}, Python {platform.python_version()}"


def append_trajectory(label: str, summary: dict, records: list) -> None:
    entries = []
    if os.path.exists(TRAJECTORY):
        with open(TRAJECTORY) as fh:
            entries = json.load(fh)
    entries.append({
        "label": label,
        "date": datetime.date.today().isoformat(),
        "host": host(),
        "seconds": records[0]["seconds"],
        "seeds": sorted({r["seed"] for r in records}),
        "workloads": summary})
    with open(TRAJECTORY, "w") as fh:
        json.dump(entries, fh, indent=1)
        fh.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--save")
    ap.add_argument("--load")
    ap.add_argument("--trajectory")
    args = ap.parse_args()
    if args.load:
        with open(args.load) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    elif args.save:
        with open(args.save, "w") as fh:
            records = collect(args, fh)
    else:
        records = collect(args)
    summary = summarize(records)
    steady = print_summary(summary)
    if args.trajectory:
        append_trajectory(args.trajectory, summary, records)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
