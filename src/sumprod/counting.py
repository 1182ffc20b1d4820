"""Exact solution counts for the equations behind the incidence-type lemmas.

All three counters contract multiplicity tables (sums of squares / inner
products) rather than enumerating tuples; counts are exact Python ints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .energy import _TABLE_OP, _spectrum_moment
from .field import ElemSet, FieldMismatch
from .repfn import (BudgetExceeded, _check_budget, _collision_spectrum,
                    _exact_dot, _in_grid, _sorted_lookup, rep_function,
                    table_budget)


def f_collision_count(X: ElemSet, Y: ElemSet, Z: ElemSet,
                      budget: Optional[int] = None) -> int:
    """|{(x1,x2,y1,y2,z1,z2): x1(y1+z1) = x2(y2+z2)}| over X^2 x Y^2 x Z^2.

    Computed as sum of m(v)^2 = sum m^2 hist[m] over the spectrum of the
    pair table X x (Y+Z), Y+Z the multiset of the |Y||Z| sums
    (`repfn._collision_spectrum`). Requires 0 not in X, Y, Z.
    """
    for name, S in (("X", X), ("Y", Y), ("Z", Z)):
        if 0 in S:
            raise ValueError(f"0 in {name}: the collision lemma needs subsets of F*")
    if X.field != Y.field or Y.field != Z.field:
        raise FieldMismatch("X, Y, Z must share a field")
    budget = budget if budget is not None else table_budget()
    if len(X) * len(Y) * len(Z) > budget:
        raise BudgetExceeded(
            f"{len(X)}x{len(Y)}x{len(Z)} triples exceed budget {budget}")
    if len(X) == 0 or len(Y) == 0 or len(Z) == 0:
        return 0
    return _spectrum_moment(_collision_spectrum(X, Y, Z), 2).value


def bilinear_count(A: ElemSet, B: ElemSet, C: ElemSet, D: ElemSet,
                   budget: Optional[int] = None) -> int:
    """|{(a,b,c,d): c = ab + d}| = sum_v m_{AB}(v) * r_{C-D}(v)."""
    for S in (B, C, D):
        if S.field != A.field:
            raise FieldMismatch("all four sets must share a field")
    if min(len(A), len(B), len(C), len(D)) == 0:
        return 0
    prod = rep_function(A, B, "mul", budget=budget)
    diff = rep_function(C, D, "sub", budget=budget)
    if isinstance(prod.values, np.ndarray) and isinstance(diff.values, np.ndarray):
        idx, hit = _sorted_lookup(diff.values, prod.values)
        return _exact_dot(prod.counts[hit], diff.counts[idx[hit]])
    dd = diff.to_dict()
    return sum(c * dd.get(v, 0) for v, c in prod.items())


def tautological_count(B: ElemSet, D: ElemSet, P: ElemSet,
                       budget: Optional[int] = None) -> int:
    """Solutions (a,b,c,d) in B^4 with a-b in D and a+c,b+c,a+d,b+d all in P.

    Contracted as sum over pairs (a,b) with a-b in D of g(a,b)^2 where
    g(a,b) = |{c in B: a+c in P and b+c in P}|.
    """
    if B.field != D.field or B.field != P.field:
        raise FieldMismatch("B, D, P must share a field")
    n = len(B)
    if n == 0 or len(D) == 0 or len(P) == 0:
        return 0
    return _pair_popularity_square_sum(B, B, D, P, budget=budget)


def _pair_popularity_square_sum(pairs_from: ElemSet, B: ElemSet, D: ElemSet,
                                P: ElemSet, op: str = "add",
                                budget: Optional[int] = None) -> int:
    """sum over (a,b) in pairs_from^2 with a∘b^-1 in D of g(a,b)^2.

    op "add": pair condition a-b in D, popularity condition a+c in P.
    op "mul": pair condition a/b in D, popularity condition a*c in P.
    g(a,b) = |{c in B : a∘c in P and b∘c in P}|.

    Two `_in_grid` masks carry both conditions, so every input takes one
    route: popular[i, c] = a_i∘c in P gives g = popular popular^T as one
    float64 matmul (exact: each entry is at most |B|), and the pair mask
    a_i∘a_j^-1 in D, False for a/0, selects the g(a,b) that are summed.
    """
    F = pairs_from
    nf, nb = len(F), len(B)
    if nf == 0 or nb == 0:
        return 0
    _check_budget(nf, nb, budget)
    _check_budget(nf, nf, budget)

    popular = _in_grid(F, B, op, P).astype(np.float64)
    g = popular @ popular.T
    gi = g[_in_grid(F, F, _TABLE_OP[op], D)]
    gi = gi.astype(np.int64)
    return _exact_dot(gi, gi)


def count_energy_equiv(A: ElemSet, op: str = "add", k: int = 2,
                       oracle_budget: int = 64) -> int:
    """Direct-loop count of 2k-tuples realising equal op-combinations.

    Brute-force oracle for energy(); k=2 walks all quadruples, k=4 enumerates
    the pair list and counts repeats with list.count. No table contraction.
    """
    if k not in (2, 4):
        raise ValueError("oracle supports k in {2, 4}")
    if len(A) > oracle_budget:
        raise BudgetExceeded(f"|A|={len(A)} above oracle budget {oracle_budget}")
    field = A.field
    elems = list(A)
    if op == "mul":
        fop = field.div
        pairs = [(a, b) for a in elems for b in elems if b != 0]
    elif op == "add":
        fop = field.sub
        pairs = [(a, b) for a in elems for b in elems]
    else:
        raise ValueError(f"op must be add or mul, got {op!r}")

    vals = [fop(a, b) for a, b in pairs]
    if k == 2:
        # quadruple loop (a,b,a',b'): outer pass in Python, inner comparison
        # scan via list.count
        return sum(vals.count(v) for v in vals)
    return sum(vals.count(v) ** 4 for v in set(vals))
