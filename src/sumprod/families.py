"""Probe-set families (AP, GP, random, subgroup, interval) and the
sum-product-ratio local search."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .field import ElemSet, GroundField, is_prime, primitive_root
from .setalgebra import combine

FAMILY_KINDS = ("ap", "gp", "random", "subgroup", "interval")


@dataclass(frozen=True)
class FamilySpec:
    """Deterministic description of one probe set."""

    kind: str                       # one of FAMILY_KINDS
    n: int
    field: GroundField
    start: int = 0
    step: int = 1
    base: int = 1
    ratio: int = 2
    seed: int = 0
    lo: Optional[int] = None        # random kind, char-zero sampling range
    hi: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("family size must be >= 1")
        if self.kind == "gp" and self.ratio in (0, 1):
            raise ValueError("gp ratio must not be 0 or 1")
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")


def subgroup_of_order(p: int, order: int) -> ElemSet:
    """The unique multiplicative subgroup of F_p^* with the given order."""
    if (p - 1) % order != 0:
        raise ValueError(f"order {order} does not divide p-1 = {p - 1}")
    g = primitive_root(p)
    h = pow(g, (p - 1) // order, p)
    elems = []
    x = 1
    for _ in range(order):
        elems.append(x)
        x = x * h % p
    return ElemSet(GroundField.prime(p), elems)


def prime_with_subgroup(order: int, near: int = 1 << 31) -> int:
    """Largest prime p <= near with order | p-1 (for subgroup probe cells).

    Staying below 2^31 keeps every element in int32 range, which the fast
    table kernels rely on.
    """
    p = near - (near - 1) % order
    while p > order:
        if is_prime(p):
            return p
        p -= order
    raise ValueError(f"no prime p <= {near} with {order} | p-1")


def probe_field(kind: str, n: int, field: GroundField) -> GroundField:
    """The field of a probe cell: `field`, except that a subgroup of order n
    needs n | p-1, so a subgroup cell moves to F_q with
    q = prime_with_subgroup(n, near=p) when n does not divide p-1."""
    if kind == "subgroup" and field.is_prime_mode and (field.p - 1) % n:
        return GroundField.prime(prime_with_subgroup(n, near=field.p))
    return field


def probe_set(kind: str, n: int, field: GroundField, seed: int) -> ElemSet:
    """The probe set of one suite or `verify` cell, over
    probe_field(kind, n, field): APs start at 1, GPs are 3·7^i."""
    return gen_family(FamilySpec(kind=kind, n=n,
                                 field=probe_field(kind, n, field), start=1,
                                 base=3, ratio=7, seed=seed))


def gen_family(spec: FamilySpec) -> ElemSet:
    """Deterministic set of exactly n elements."""
    field = spec.field
    n = spec.n
    if field.is_prime_mode and n > field.p:
        raise ValueError(f"cannot fit {n} distinct elements in F_{field.p}")

    if spec.kind == "ap":
        vals = [spec.start + i * spec.step for i in range(n)]
    elif spec.kind == "interval":
        vals = [spec.start + i for i in range(n)]
    elif spec.kind == "gp":
        vals = []
        x = spec.base
        for _ in range(n):  # reduce as we go: ratio**n is astronomical
            vals.append(x)
            x = x * spec.ratio % field.p if field.is_prime_mode \
                else x * spec.ratio
    elif spec.kind == "subgroup":
        if not field.is_prime_mode:
            raise ValueError("subgroup family needs prime mode")
        return subgroup_of_order(field.p, n)
    else:  # random
        rng = random.Random(spec.seed)
        if field.is_prime_mode:
            vals = rng.sample(range(field.p), n)
        else:
            lo = spec.lo if spec.lo is not None else 0
            hi = spec.hi if spec.hi is not None else max(100 * n * n, 1000)
            vals = rng.sample(range(lo, hi), n)

    S = ElemSet(field, vals)
    if len(S) != n:
        raise ValueError(
            f"{spec.kind} family collapsed to {len(S)} < {n} distinct elements")
    return S


OPERATOR_COMBOS = (("add", "mul"), ("add", "div"), ("sub", "mul"),
                   ("sub", "div"))


def sum_product_ratios(A: ElemSet, budget: Optional[int] = None,
                       combos=OPERATOR_COMBOS) -> dict:
    """{"∘1/∘2": max{|A ∘1 A|, |A ∘2 A|} / |A|^(5/4)} for each pair of
    combos, 0 dropped for the product side; each set is built once, in the
    order A+A, A-A, AA, A/A (A+A first: none has more pairs)."""
    if len(A) < 2:
        raise ValueError("sum-product ratio needs |A| >= 2")
    Az = A.remove_zero()
    need = {op for pair in combos for op in pair}
    sizes = {op: len(combine(X, X, op, budget=budget))
             for X, op in ((A, "add"), (A, "sub"), (Az, "mul"), (Az, "div"))
             if op in need}
    return {f"{a}/{m}": max(sizes[a], sizes[m]) / len(A) ** 1.25
            for a, m in combos}


def sum_product_ratio(A: ElemSet, addop: str = "add", mulop: str = "mul",
                      budget: Optional[int] = None) -> float:
    """`sum_product_ratios` for the one pair (addop, mulop)."""
    if addop not in ("add", "sub") or mulop not in ("mul", "div"):
        raise ValueError(f"bad operator pair ({addop}, {mulop})")
    return sum_product_ratios(A, budget, [(addop, mulop)])[f"{addop}/{mulop}"]


@dataclass
class SearchState:
    """Simulated-annealing trajectory over fixed-size subsets of F_p."""

    current: ElemSet
    current_ratio: float
    best: ElemSet
    best_ratio: float
    rng_seed: int
    steps: int
    t0: float
    cooling: float


def local_search_min_ratio(seed_set: ElemSet, steps: int, rng_seed: int = 0,
                           t0: float = 0.1, cooling: float = 0.999,
                           addop: str = "add", mulop: str = "mul",
                           budget: Optional[int] = None) -> SearchState:
    """Anneal single-element swaps to minimize the sum-product ratio.

    Move: drop a uniform member, insert a uniform non-member residue;
    Metropolis acceptance with geometric cooling. Deterministic given seeds.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if not (math.isfinite(t0) and t0 >= 0):
        raise ValueError(f"t0 must be finite and >= 0, got {t0}")
    if not 0 <= cooling <= 1:
        raise ValueError(f"cooling must lie in [0, 1], got {cooling}")
    if len(seed_set) < 4:
        raise ValueError("need |seed| >= 4")
    if not seed_set.field.is_prime_mode:
        raise ValueError("search explores residues; prime mode required")
    p = seed_set.field.p
    rng = random.Random(rng_seed)

    current = set(seed_set.elements())
    ratio = sum_product_ratio(seed_set, addop, mulop, budget=budget)
    best, best_ratio = frozenset(current), ratio
    temp = t0
    for _ in range(steps):
        out = rng.choice(sorted(current))
        while True:
            cand = rng.randrange(p)
            if cand not in current:
                break
        trial = set(current)
        trial.discard(out)
        trial.add(cand)
        trial_set = ElemSet(seed_set.field, trial)
        trial_ratio = sum_product_ratio(trial_set, addop, mulop, budget=budget)
        delta = trial_ratio - ratio
        if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
            current, ratio = trial, trial_ratio
            if ratio < best_ratio:
                best, best_ratio = frozenset(current), ratio
        temp *= cooling

    fld = seed_set.field
    return SearchState(
        current=ElemSet(fld, current), current_ratio=ratio,
        best=ElemSet(fld, best), best_ratio=best_ratio,
        rng_seed=rng_seed, steps=steps, t0=t0, cooling=cooling)
