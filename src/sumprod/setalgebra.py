"""Sum/difference/product/ratio sets and iterated spans kA - lA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .field import ElemSet
from .repfn import _flat_sorted_int, _int_fast_ok, _object_table, _prepare


@dataclass(frozen=True)
class SpanSpec:
    """k plus-copies and l minus-copies of a set."""

    k: int
    l: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0 or self.k + self.l < 1:
            raise ValueError(f"need k,l >= 0 and k+l >= 1, got ({self.k},{self.l})")


def combine(A: ElemSet, B: ElemSet, op: str,
            budget: Optional[int] = None) -> ElemSet:
    """The exact set {a ∘ b}; support of rep_function(A, B, op)."""
    B2, _ = _prepare(A, B, op, budget)
    if len(A) == 0 or len(B2) == 0:
        return ElemSet.empty(A.field)
    if _int_fast_ok(A.field, op, A.ints, B2.ints):
        vals, _ = _flat_sorted_int(A, B2, op, "support")
        return ElemSet._from_sorted_array(A.field, vals)
    return ElemSet(A.field, _object_table(A, B2, op).keys())


def iterated_span(A: ElemSet, spec: SpanSpec,
                  budget: Optional[int] = None) -> ElemSet:
    """kA - lA by left-fold of combine."""
    k, l = spec.k, spec.l
    acc = None
    for _ in range(k):
        acc = A if acc is None else combine(acc, A, "add", budget)
    if l > 0 and acc is None:
        # 0A - lA == -(lA); build lA then negate
        neg = ElemSet(A.field, [A.field.neg(v) for v in A])
        acc = neg
        for _ in range(l - 1):
            acc = combine(acc, neg, "add", budget)
        return acc
    for _ in range(l):
        acc = combine(acc, A, "sub", budget)
    return acc
