"""The four benchmark workloads: inputs from a seed, warm-up, and timed ops.

Each op is one call (or a short fixed sequence of calls) into sumprod whose
output is reduced, outside the timed region, to a small exact summary that
`oracle.py` compares against closed forms or golden values.

Every input is derived from the slot `seed % SLOTS`, so the same seed always
gives the same inputs and every slot has recorded exact results.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass
from typing import Any, Callable, List

import sumprod as sp
from oracle import BULK_N, SLOTS

P31 = 2**31 - 1
XUE_N = 4096
ANNEAL_CHAINS = 100
ANNEAL_N = 256
ANNEAL_STEPS = 20

FAMILIES = ["ap", "gp", "random", "subgroup"]
# Config (b) leaves out pluennecke and kmps: their tables exceed the default
# budget at 512 (pluennecke at 128 too), and BudgetExceeded aborts the whole
# run_suite with no manifest.
SUITE_CONFIGS = {
    "grid-small": dict(lemmas=list(sp.suite.KNOWN_LEMMAS), families=FAMILIES,
                       sizes=[32, 64]),
    "grid-large": dict(lemmas=["cauchy-schwarz", "sdz", "mixed", "rss",
                               "regular", "main"],
                       families=FAMILIES, sizes=[128, 512]),
    # the two known exact-or-refuse defects: both raise on purpose today
    "pluennecke-256": dict(lemmas=["pluennecke"], families=["random"],
                           sizes=[256]),
    "cs-budget-1000": dict(lemmas=["cauchy-schwarz"], table_budget=1000),
}


@dataclass
class Op:
    """One timed call; `summarize` runs untimed on its result."""

    name: str
    run: Callable[[], Any]
    summarize: Callable[[Any], Any]


def slot_of(seed: int) -> int:
    return seed % SLOTS


def derive(slot: int, *key) -> int:
    raw = ":".join(str(k) for k in (slot,) + key).encode()
    return int.from_bytes(hashlib.sha256(raw).digest()[:8], "big")


def set_digest(S: "sp.ElemSet") -> str:
    data = S.ints.tobytes() if S.ints is not None else repr(S.elements()).encode()
    return hashlib.blake2b(data, digest_size=8).hexdigest()


# -- bulk-random / bulk-dense ---------------------------------------------------

def _xue(A, op):
    d = sp.xue_regularize(A, 4, op)
    rep = sp.check_regular(d, A, 4)
    return d, rep


def _xue_summary(res):
    d, rep = res
    return [len(d.B), len(d.C), len(d.S_tau), d.tau, rep.passed, d.rounds,
            set_digest(d.B), set_digest(d.C), set_digest(d.S_tau)]


def _bulk_ops(e_add, e_mul, s_add, s_mul, x_add, x_mul) -> List[Op]:
    return [
        Op("e4-add", lambda: sp.energy(e_add, e_add, 4, "add"),
           lambda m: m.value),
        Op("e4-mul", lambda: sp.energy(e_mul, e_mul, 4, "mul"),
           lambda m: m.value),
        Op("sumset", lambda: sp.combine(s_add, s_add, "add"), len),
        Op("prodset", lambda: sp.combine(s_mul, s_mul, "mul"), len),
        Op("xue-add", lambda: _xue(x_add, "add"), _xue_summary),
        Op("xue-mul", lambda: _xue(x_mul, "mul"), _xue_summary),
    ]


def _random_set(rng, field, n):
    return sp.ElemSet(field, rng.sample(range(field.p), n))


def bulk_random(slot: int) -> List[Op]:
    field = sp.GroundField.prime(P31)
    rng = random.Random(derive(slot, "bulk-random"))
    A = _random_set(rng, field, BULK_N)
    A4 = _random_set(rng, field, XUE_N)
    return _bulk_ops(A, A, A, A, A4, A4)


def _coset(order: int, rng) -> "sp.ElemSet":
    """g * H for the subgroup H of the given order in F_q, q = prime_with_subgroup."""
    q = sp.prime_with_subgroup(order)
    H = sp.subgroup_of_order(q, order)
    g = rng.randrange(1, q)
    return sp.ElemSet(H.field, [g * h % q for h in H])


def bulk_dense(slot: int) -> List[Op]:
    """Interval / AP (no wraparound) and subgroup cosets.

    Translating or dilating these sets leaves every closed form and every
    regularization size unchanged; the seed moves them across F_p.
    """
    field = sp.GroundField.prime(P31)
    rng = random.Random(derive(slot, "bulk-dense"))
    s = rng.randrange(0, P31 - 2 * BULK_N)
    interval = sp.ElemSet(field, range(s, s + BULK_N))
    coset = _coset(BULK_N, rng)
    step = rng.randrange(1, 1000)
    s = rng.randrange(0, P31 - step * XUE_N)
    ap = sp.ElemSet(field, range(s, s + step * XUE_N, step))
    coset4 = _coset(XUE_N, rng)
    return _bulk_ops(interval, coset, interval, coset, ap, coset4)


def _bulk_warmup() -> None:
    field = sp.GroundField.prime(P31)
    rng = random.Random(0)
    A = _random_set(rng, field, 64)
    for op in _bulk_ops(A, A, A, A, A, A):
        op.summarize(op.run())


# -- suite-grid -----------------------------------------------------------------

def suite_cells(out_dir: str) -> dict:
    """Per-cell digests of suite.csv rows and report JSON, minus elapsed_ms."""
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        statuses = json.load(fh)["cells"]
    with open(os.path.join(out_dir, "suite.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(statuses):
        raise RuntimeError(f"{len(rows)} CSV rows for {len(statuses)} cells")
    cells, errors = {}, []
    for row, st in zip(rows, statuses):
        row.pop("elapsed_ms")
        key = st["cell"]
        path = os.path.join(out_dir, key + ".json")
        report = None
        if os.path.exists(path):
            with open(path) as fh:
                report = json.load(fh)
            report.pop("elapsed_ms")
        blob = json.dumps([row, st, report], sort_keys=True).encode()
        cells[key] = hashlib.blake2b(blob, digest_size=8).hexdigest()
        if st["status"] == "error":
            errors.append(key)
    return {"cells": cells, "errors": errors}


class SuiteCall:
    """run_suite into a fresh out-dir; the dir is removed after summarizing."""

    def __init__(self, scratch: str, slot: int, overrides: dict):
        self.scratch = scratch
        self.slot = slot
        self.overrides = overrides

    def run(self):
        out = tempfile.mkdtemp(dir=self.scratch, prefix="suite-")
        try:
            sp.run_suite(sp.ExperimentConfig(seed=self.slot, out_dir=out,
                                             **self.overrides))
        except BaseException:
            shutil.rmtree(out, ignore_errors=True)
            raise
        return out

    @staticmethod
    def summarize(out: str) -> dict:
        try:
            return suite_cells(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)


def suite_grid(slot: int, scratch: str) -> List[Op]:
    ops = []
    for name, overrides in SUITE_CONFIGS.items():
        call = SuiteCall(scratch, slot, overrides)
        ops.append(Op(name, call.run, call.summarize))
    return ops


def _suite_warmup(scratch: str) -> None:
    call = SuiteCall(scratch, 0, dict(lemmas=list(sp.suite.KNOWN_LEMMAS),
                                      families=["ap"], sizes=[16]))
    call.summarize(call.run())


# -- anneal -----------------------------------------------------------------------

def _anneal_summary(st) -> list:
    # the final state pins the whole trajectory, not only its best point
    return [st.best_ratio, set_digest(st.best), st.current_ratio,
            set_digest(st.current)]


def _chain(name, seed_set, steps, rng_seed) -> Op:
    return Op(name,
              lambda: sp.local_search_min_ratio(seed_set, steps,
                                                rng_seed=rng_seed),
              _anneal_summary)


def anneal(slot: int) -> List[Op]:
    field = sp.GroundField.prime(P31)
    ops = []
    for j in range(ANNEAL_CHAINS):
        seed_set = sp.gen_family(sp.FamilySpec(
            kind="random", n=ANNEAL_N, field=field, seed=derive(slot, "set", j)))
        ops.append(_chain(f"chain-{j:03d}", seed_set, ANNEAL_STEPS,
                          derive(slot, "rng", j)))
    return ops


def _anneal_warmup() -> None:
    field = sp.GroundField.prime(P31)
    S = sp.gen_family(sp.FamilySpec(kind="random", n=32, field=field, seed=0))
    op = _chain("warmup", S, 2, 0)
    op.summarize(op.run())


# -- registry ---------------------------------------------------------------------

def setup(workload: str, seed: int, scratch: str) -> List[Op]:
    """Generate the inputs for `seed`, warm every code path up, return the ops."""
    slot = slot_of(seed)
    if workload == "bulk-random":
        ops = bulk_random(slot)
        _bulk_warmup()
    elif workload == "bulk-dense":
        ops = bulk_dense(slot)
        _bulk_warmup()
    elif workload == "suite-grid":
        ops = suite_grid(slot, scratch)
        _suite_warmup(scratch)
    elif workload == "anneal":
        ops = anneal(slot)
        _anneal_warmup()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops
