"""Refinement procedures: the popular-sum rule, its iteration, and the
Rudnev/Xue regular decomposition.

The regular decomposition's published statement gives only the conclusions, so
the iterative construction here is ours; its contract is the testable output
property enforced by check_regular, not the construction itself.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

import numpy as np

from .field import ElemSet
from .energy import _TABLE_OP, dyadic_slice, energy
from .repfn import OPS, _membership_counts, _table
from .report import VerificationReport

DEFAULT_SLACK_C = 64.0  # c of the default polylog slack c * log2(n)^3
# the popularity rule keeps a when a∘b is popular for >= THETA |A| of the b;
# its iteration runs at eps = C1 / log2|A| and keeps |B| >= (1 - C1)|A|
THETA = Fraction(2, 3)
C1 = 0.5


def popular_sums(A: ElemSet, eps, op: str = "add",
                 budget: Optional[int] = None) -> ElemSet:
    """P_A = {x in A∘A : r_{A∘A}(x) >= eps * |A|^2 / |A∘A|}, exact threshold."""
    if len(A) == 0:
        raise ValueError("popular set of an empty set")

    def band(hist: np.ndarray) -> Tuple[int, int]:
        # every r(x) is at least 1; an empty table keeps nothing
        support = int(hist[1:].sum())  # |A∘A|
        cutoff = math.ceil(Fraction(eps) * len(A) ** 2 / support) \
            if support else 1
        return max(1, cutoff), hist.size

    return _table(A, A, op, "level", band, budget)[1]


def popularity_rule(A: ElemSet, eps, op: str = "add",
                    budget: Optional[int] = None) -> ElemSet:
    """R_eps(A) = {a in A : |{b in A : a∘b in P_A}| >= THETA |A|}, P_A the
    popular set `popular_sums(A, eps, op)` and ∘ any of add, sub, mul, div."""
    if len(A) == 0:
        raise ValueError("popularity rule on an empty set")
    P = popular_sums(A, eps, op, budget)
    good = _membership_counts(A, A, P, op)
    return A.select(good >= math.ceil(THETA * len(A)))


@dataclass
class ReguCertificate:
    """Measured witness for the energy-stability iteration."""

    eps: float
    s: float
    c1: float
    c2: float                 # E_s(R_eps(B)) / E_s(B), measured
    rounds: int
    refined: ElemSet          # R_eps(B)
    size_guarantee_ok: bool   # |B| >= (1 - c1)|A|


def regu_iterate(A: ElemSet, s: float = 4 / 3, op: str = "add",
                 budget: Optional[int] = None
                 ) -> Tuple[ElemSet, ReguCertificate]:
    """Find B ⊆ A with |B| >= (1 - C1)|A| whose energy survives one more
    refinement.

    Iterates X -> R_eps(X) under op at eps = C1 / log2|A|, which lies in
    (0, 1/8] since |A| >= 16, while E_s drops by more than a factor 1/2: the
    additive E_s for add and sub, the multiplicative one for mul and div.
    Keeps the best measured ratio; aborts to best-seen after ceil(log2 |A|)
    rounds or as soon as the size guarantee would break.
    """
    if len(A) < 16:
        raise ValueError(f"|A| = {len(A)} too small for the eps schedule")
    if op not in OPS:
        raise ValueError(f"unknown op {op!r}")
    eps = C1 / math.log2(len(A))
    energy_op = "mul" if op in ("mul", "div") else "add"
    min_size = (1 - C1) * len(A)

    X = A
    ex = float(energy(X, X, s, energy_op, budget=budget).value)
    best = None  # (c2, B, refined, round)
    max_rounds = math.ceil(math.log2(len(A)))
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        Y = popularity_rule(X, eps, op, budget)
        if len(Y) == 0:
            break
        ey = float(energy(Y, Y, s, energy_op, budget=budget).value)
        c2 = ey / ex
        if best is None or c2 > best[0]:
            best = (c2, X, Y, rounds)
        if c2 >= 0.5 or len(Y) < min_size:
            break
        X, ex = Y, ey
    if best is None:
        # R_eps emptied immediately; A itself is the only admissible witness
        best = (0.0, A, ElemSet.empty(A.field), rounds)
    c2, B, refined, used = best
    cert = ReguCertificate(
        eps=eps, s=s, c1=C1, c2=c2, rounds=used, refined=refined,
        size_guarantee_ok=len(B) >= min_size or B is A)
    return B, cert


@dataclass
class RegularDecomposition:
    """Output of the regular decomposition: C ⊆ B ⊆ A, level set S_tau of B∘B."""

    B: ElemSet
    C: ElemSet
    S_tau: ElemSet
    tau: int
    op: str                   # add | mul
    k: float
    a_size: int
    rounds: int
    energy_value: Union[int, float]  # E_k(B), exact for integer k
    energy_ratio: float       # E_k(B) / (|S_tau| tau^k)
    r_ratio_min: float        # min over C of r_{S+B}(c)|A| / (|S|tau)
    r_ratio_max: float
    notes: str = ""


def xue_regularize(A: ElemSet, k: float = 4.0, op: str = "add",
                   budget: Optional[int] = None) -> RegularDecomposition:
    """Iteratively extract (B, C, S_tau, tau) with concentrated E_k(B).

    Each round: dyadic-extract the dominant level set of r_{B∘B^-1}, keep the
    candidates popular against S_tau shifted by B, and shrink to the popular
    half if fewer than half qualify. Best-scoring round wins; at most
    ceil(log2 |A|) rounds. Each round builds its table once, as one level
    set; the winning round's slice also gives E_k(B), and its counts C's
    ratios.
    """
    if op not in ("add", "mul"):
        raise ValueError(f"op must be add or mul, got {op!r}")
    if op == "mul":
        A = A.remove_zero()
    n = len(A)
    if n == 0:
        raise ValueError("cannot regularize the empty set")

    if n < 4:
        sl = dyadic_slice(A, A, k, op, budget)
        rc = _membership_counts(A, A, sl.support, _TABLE_OP[op])
        return _finish_decomposition(A, A, A, sl.support, sl.t, op, k, 0,
                                     sl.energy_value, rc,
                                     notes="degenerate |A| < 4")

    L = math.ceil(math.log2(n))
    cand = A
    best = None  # (score, B, C, S, tau, round, E_k(B), counts over C)
    for rnd in range(1, L + 1):
        if len(cand) < 2:
            break
        sl = dyadic_slice(cand, cand, k, op, budget)
        S, tau = sl.support, sl.t
        rc = _membership_counts(cand, cand, S, _TABLE_OP[op])
        # rc sums to sum_{s in S} r(s) >= |S| tau over <= n candidates, so
        # max(rc) >= |S| tau / n >= cutoff: C is never empty
        cutoff = max(1, math.ceil(Fraction(len(S) * tau, 2 * n * L)))
        mask = rc >= cutoff
        n_thr = int(mask.sum())
        if best is None or n_thr > best[0]:
            best = (n_thr, cand, cand.select(mask), S, tau, rnd,
                    sl.energy_value, rc[mask])
        if n_thr >= len(cand) / 2:
            break
        upper = np.zeros(len(cand), dtype=bool)
        upper[np.argsort(rc, kind="stable")[len(cand) // 2:]] = True
        cand = cand.select(upper)

    _, B, C, S, tau, rnd, e_val, rc_C = best
    return _finish_decomposition(A, B, C, S, tau, op, k, rnd, e_val, rc_C)


def _finish_decomposition(A: ElemSet, B: ElemSet, C: ElemSet, S: ElemSet,
                          tau: int, op: str, k: float, rounds: int,
                          e_val, rc: np.ndarray,
                          notes: str = "") -> RegularDecomposition:
    """Assemble the result from E_k(B) and the counts r_{S+B}(c) for c in
    C, in any order."""
    n = len(A)
    denom = len(S) * tau ** k
    scale = n / (len(S) * tau)
    ratios = rc.astype(np.float64) * scale
    return RegularDecomposition(
        B=B, C=C, S_tau=S, tau=tau, op=op, k=k, a_size=n, rounds=rounds,
        energy_value=e_val, energy_ratio=float(e_val) / denom,
        r_ratio_min=float(ratios.min(initial=np.inf)),
        r_ratio_max=float(ratios.max(initial=0.0)),
        notes=notes)


def default_slack(n: int, c: float = DEFAULT_SLACK_C) -> float:
    """K = c * log2(n)^3, the polylog allowance used by the checkers.

    Raises ValueError unless c is a positive finite number: a NaN K fails
    every check and an infinite one passes every check.
    """
    if not (math.isfinite(c) and c > 0):
        raise ValueError(f"slack constant must be a positive finite "
                         f"number, got {c}")
    return c * max(1.0, math.log2(max(n, 2))) ** 3


def check_regular(d: RegularDecomposition, A: ElemSet, k: float,
                  K: Optional[float] = None,
                  budget: Optional[int] = None) -> VerificationReport:
    """Verify the decomposition's conclusions within slack K.

    (a) |C|, |B| >= |A|/K; (b) E_k(B)/(|S|tau^k) in [1, K] (lower bound exact);
    (c) r_{S+B}(c)|A|/(|S|tau) in [1/K, K] for every c in C.
    """
    t0 = time.perf_counter()
    if d.op == "mul":
        A = A.remove_zero()
    if not (d.C.issubset(d.B) and d.B.issubset(A)):
        raise ValueError("decomposition does not refine the given set")
    n = len(A)
    if K is None:
        K = default_slack(n)

    e = energy(d.B, d.B, k, d.op, budget=budget)
    if float(k).is_integer():
        denom = len(d.S_tau) * d.tau ** int(k)
        lower_exact = int(e.value) >= denom  # exact sub-sum bound
        ratio_b = int(e.value) / denom
    else:
        denom = len(d.S_tau) * d.tau ** k
        lower_exact = float(e.value) >= denom
        ratio_b = float(e.value) / denom

    ok_a = len(d.C) * K >= n and len(d.B) * K >= n and len(d.C) > 0
    ok_b = lower_exact and ratio_b <= K

    rc = _membership_counts(d.C, d.B, d.S_tau, _TABLE_OP[d.op])
    scale = n / (len(d.S_tau) * d.tau)
    ratios = rc.astype(np.float64) * scale
    ok_c = bool(len(ratios) and (ratios >= 1 / K).all() and (ratios <= K).all())

    passed = bool(ok_a and ok_b and ok_c)
    return VerificationReport(
        lemma=f"regular-decomposition-{d.op}",
        inputs={"n": n, "k": k, "|B|": len(d.B), "|C|": len(d.C),
                "|S|": len(d.S_tau), "tau": d.tau,
                "field": A.field.describe()},
        lhs=ratio_b, rhs_shape=float(K), fitted_constant=ratio_b,
        slack=float(K), passed=passed,
        notes=(f"clauses a={ok_a} b={ok_b} c={ok_c}; "
               f"r-ratio range [{float(ratios.min(initial=np.inf)):.4g}, "
               f"{float(ratios.max(initial=0)):.4g}]"),
        elapsed_ms=(time.perf_counter() - t0) * 1e3)
