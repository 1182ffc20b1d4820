#!/usr/bin/env python3
"""Record the golden outputs that `oracle.py` checks against.

    python3 perfbench/record_golden.py [--workload NAME ...]

Runs one untraced pass per seed slot of each workload on the current code and
writes `golden/<workload>.json`. Ops with a closed form are checked against
it instead of being recorded. Only re-record when a change is meant to alter
an exact output, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import oracle
import run


def record(workload: str) -> dict:
    closed = oracle.closed_forms(workload)
    slots = {}
    for slot in range(oracle.SLOTS):
        res = run.Runner(workload, slot, 0).spawn("pass")
        exp = {}
        for op in res["ops"]:
            name = op["name"]
            if op["raised"] is not None:
                exp[name] = {"raises": op["raised"]}
            elif name in closed:
                if op["out"] != closed[name]:
                    raise SystemExit(f"{workload} slot {slot} {name}: "
                                     f"{op['out']} != closed form {closed[name]}")
            else:
                exp[name] = op["out"]
        slots[str(slot)] = exp
        print(f"{workload} slot {slot}: {res['wall_s']:.2f} s", file=sys.stderr)
    return {"slots": slots}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    os.makedirs(oracle.GOLDEN_DIR, exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        golden = record(workload)
        with open(oracle.golden_path(workload), "w") as fh:
            json.dump(golden, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
