"""Sum/difference/product/ratio sets and iterated spans kA - lA by doubling,
ending in kA's self-difference when k = l; each table charged |X||Y| pairs."""

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
    """kA - lA as one table, kA's self-difference (a half sub table) if k = l,
    with jA built by doubling: X + X for X = (j//2)A, then + A if j is odd
    ({0} for j = 0). Each table must fit the budget: |A+A|^2 for 2A - 2A."""
    def times(j: int) -> ElemSet:
        if j < 2:
            return A if j else ElemSet(A.field, [0])
        X = times(j // 2)
        X = combine(X, X, "add", budget)
        return combine(X, A, "add", budget) if j % 2 else X

    K = times(spec.k)
    L = K if spec.l == spec.k else times(spec.l)
    return combine(K, L, "sub", budget) if spec.l else K
