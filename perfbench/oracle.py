"""Exact expected output of every op, and the check that counts failures.

`bulk-dense` energies and set sizes have closed forms. Everything else is a
golden value recorded by `record_golden.py` on the commit that defined the
benchmark: exact energies and sizes, regularization sizes and set digests,
anneal best ratios with best-set digests, and per-cell digests of the suite
output with `elapsed_ms` removed.

This module needs no sumprod import, so the parent process can check results.
"""

from __future__ import annotations

import json
import os

SLOTS = 16
BULK_N = 10_000
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def closed_forms(workload: str) -> dict:
    if workload != "bulk-dense":
        return {}
    n = BULK_N
    return {
        # interval: r_{I-I}(d) = n - |d|;  coset gH: r_{A/A}(h) = n on H
        "e4-add": n**4 + 2 * sum(j**4 for j in range(1, n)),
        "e4-mul": n**5,
        "sumset": 2 * n - 1,
        "prodset": n,
    }


def golden_path(workload: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{workload}.json")


def expected(workload: str, seed: int) -> dict:
    """op name -> expected output for this seed."""
    with open(golden_path(workload)) as fh:
        golden = json.load(fh)
    exp = dict(golden["slots"][str(seed % SLOTS)])
    exp.update(closed_forms(workload))
    return exp


class Tally:
    """Attempted / failed op counts; `correct` is false once an output is wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems = []

    def _fail(self, what: str, wrong: bool) -> None:
        self.failed += 1
        if wrong:
            self.correct = False
            self.problems.append(what)

    def check(self, name: str, exp, out, raised) -> None:
        """Compare one op result with its expected value.

        An op fails if it raises, yields a suite cell with status `error`, or
        differs from its oracle. Only a raise of the recorded exception class
        (a known defect kept visible on purpose) leaves `correct` true.
        """
        if exp is None:
            self.attempted += 1
            self._fail(f"{name}: no oracle", True)
        elif isinstance(exp, dict) and "raises" in exp:
            if raised is not None:
                self.attempted += 1
                self._fail(f"{name}: raised {raised}", raised != exp["raises"])
            else:   # the defect was fixed: the run must complete cleanly
                self.attempted += max(1, len(out["cells"]))
                for key in out["errors"]:
                    self._fail(f"{name}/{key}: error", False)
        elif isinstance(exp, dict) and "cells" in exp:
            if raised is not None:
                self.attempted += 1
                self._fail(f"{name}: raised {raised}", True)
                return
            got = out["cells"]
            for key in list(exp["cells"]) + [k for k in got if k not in exp["cells"]]:
                self.attempted += 1
                if got.get(key) != exp["cells"].get(key):
                    self._fail(f"{name}/{key}: differs", True)
                elif key in out["errors"]:
                    self._fail(f"{name}/{key}: error", False)
        else:
            self.attempted += 1
            if raised is not None:
                self._fail(f"{name}: raised {raised}", True)
            elif out != exp:
                self._fail(f"{name}: {out!r} != {exp!r}", True)

    def check_pass(self, exp: dict, ops: list) -> None:
        """ops: worker records {"name", "out", "raised"} of one pass."""
        names = [op["name"] for op in ops]
        if sorted(names) != sorted(exp):
            self.correct = False
            self.problems.append("op list differs from the oracle's")
        for op in ops:
            self.check(op["name"], exp.get(op["name"]), op["out"], op["raised"])
