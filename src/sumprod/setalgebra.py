"""Sum/difference/product/ratio sets and iterated spans kA - lA."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .field import ElemSet
from .repfn import _table


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
    return _table(A, B, op, "support", budget=budget)


def iterated_span(A: ElemSet, spec: SpanSpec,
                  budget: Optional[int] = None) -> ElemSet:
    """kA - lA by left-fold of combine from A, or from {0} when k = 0."""
    acc = A if spec.k else ElemSet(A.field, [0])
    for _ in range(spec.k - 1):
        acc = combine(acc, A, "add", budget)
    for _ in range(spec.l):
        acc = combine(acc, A, "sub", budget)
    return acc
