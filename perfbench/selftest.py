#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of sumprod).

    python3 perfbench/selftest.py [--workload NAME ...]

1. The oracle accepts every workload's recorded outputs and rejects each of
   them once a single expected value is made wrong.
2. Tracing rebinds only foreign bindings, and uninstalling restores them.
3. For each workload named (default: anneal, the quickest), a traced pass
   returns outputs identical to an untraced pass, and its per-layer self
   times plus tracer bookkeeping plus time outside every span add up to the
   traced wall time, with the eight timed layers covering nearly all of it.

Exits non-zero on the first failed check.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import sys

import oracle
import run
import tracer

# share of the traced wall time, less the tracer's own bookkeeping, that the
# eight timed layers must cover; the rest is time outside every span
MIN_LAYER_SHARE = 0.99


class SelfTestFailure(Exception):
    pass


def require(cond, message) -> None:
    if not cond:
        raise SelfTestFailure(message)


def fake_pass(exp: dict) -> list:
    """The op records a perfect run would produce for `exp`."""
    ops = []
    for name, value in exp.items():
        if isinstance(value, dict) and "raises" in value:
            ops.append({"name": name, "out": None, "raised": value["raises"]})
        elif isinstance(value, dict) and "cells" in value:
            ops.append({"name": name, "raised": None,
                        "out": {"cells": dict(value["cells"]), "errors": []}})
        else:
            ops.append({"name": name, "out": copy.deepcopy(value), "raised": None})
    return ops


def corrupt(value):
    """A deliberately wrong copy of one expected value."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value[::-1] + "x"
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:]
    if "raises" in value:
        return {"raises": "ValueError"}
    key = next(iter(value["cells"]))
    return {"cells": dict(value["cells"], **{key: "0" * 16}), "errors": []}


def check_oracle() -> None:
    for workload in run.WORKLOADS:
        exp = oracle.expected(workload, 0)
        ops = fake_pass(exp)
        ok = oracle.Tally()
        ok.check_pass(exp, ops)
        known = sum(1 for v in exp.values() if isinstance(v, dict) and "raises" in v)
        require(ok.correct and ok.failed == known, (workload, ok.problems))
        for name in exp:
            bad = dict(exp, **{name: corrupt(exp[name])})
            t = oracle.Tally()
            t.check_pass(bad, ops)
            require(not t.correct, f"{workload}/{name}: wrong value accepted")
            require(t.failed > known or "raises" in exp[name],
                    f"{workload}/{name}: wrong value not counted as failed")
        print(f"ok  oracle accepts {workload} outputs and rejects "
              f"{len(exp)} corrupted expected values")


def check_install() -> None:
    sumprod = run.import_sumprod()
    # the package re-exports functions named like some modules (energy)
    energy, families, repfn = (importlib.import_module(f"sumprod.{m}")
                               for m in ("energy", "families", "repfn"))
    originals = (repfn.rep_function, energy.energy, families.is_prime)
    spans = tracer.SpanTracer()
    patched = tracer.install(sumprod, spans.wrap)
    try:
        require(getattr(energy.rep_function, "__wrapped__", None) is originals[0],
                "foreign binding energy.rep_function not wrapped")
        require(getattr(sumprod.energy, "__wrapped__", None) is originals[1],
                "package binding sumprod.energy not wrapped")
        require(repfn.rep_function is originals[0],
                "own binding repfn.rep_function was wrapped")
        require(energy.energy is originals[1],
                "own binding energy.energy was wrapped")
        require(families.is_prime is originals[2], "field layer was wrapped")
    finally:
        tracer.uninstall(patched)
    require(energy.rep_function is originals[0] and sumprod.energy is originals[1],
            "uninstall incomplete")
    print(f"ok  {len(patched)} foreign bindings wrapped, own bindings untouched")


def check_traced(workload: str) -> None:
    runner = run.Runner(workload, 0, 0)
    plain = runner.spawn("pass")
    traced = runner.spawn("traced")
    same = [(o["name"], o["out"], o["raised"]) for o in plain["ops"]] == \
        [(o["name"], o["out"], o["raised"]) for o in traced["ops"]]
    require(same, f"{workload}: traced outputs differ from untraced ones")
    layers = traced["layers"]
    self_s = sum(layers[f"{layer}.self_s"] for layer in tracer.TIMED_LAYERS)
    wall = traced["wall_s"]
    outside_s = wall - traced["root_s"]
    total = self_s + layers["trace.bookkeeping_s"] + outside_s
    require(abs(total - wall) <= 1e-6 * wall + 1e-6,
            f"{workload}: self {self_s} + bookkeeping + outside {outside_s} "
            f"!= wall {wall}")
    require(all(layers[f"{layer}.self_s"] >= 0 for layer in tracer.TIMED_LAYERS),
            f"{workload}: negative self time")
    share = self_s / (wall - layers["trace.bookkeeping_s"])
    require(share >= MIN_LAYER_SHARE, f"{workload}: layers cover only {share:.1%}")
    print(f"ok  {workload}: traced outputs identical; layer self times cover "
          f"{share:.2%} of {wall:.3f} s traced wall less bookkeeping "
          f"{layers['trace.bookkeeping_s']:.3f} s, outside spans {outside_s * 1e3:.2f} ms; "
          f"traced/untraced wall {wall / plain['wall_s']:.3f}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    try:
        check_oracle()
        check_install()
        for workload in args.workload or ["anneal"]:
            check_traced(workload)
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
