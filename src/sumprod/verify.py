"""Empirical verifiers: fitted implied constants for every inequality used.

Theorem-backed checks (Cauchy-Schwarz, Pluennecke-Ruzsa, the tautological
lower bound) are asserted exactly; incidence-flavoured upper bounds report a
fitted constant against a configurable ceiling or polylog slack.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional

from .counting import (_pair_popularity_square_sum, bilinear_count,
                       f_collision_count)
from .energy import _dyadic_slice, cauchy_schwarz_check, dyadic_slice, energy
from .field import ElemSet, GroundField
from .families import FamilySpec, gen_family, prime_with_subgroup, \
    sum_product_ratio
from .regularize import (PopularityParams, check_regular, default_slack,
                         popular_sums, regu_iterate, xue_regularize)
from .repfn import BudgetExceeded, _check_budget
from .report import ConstraintCheck, ConstraintViolation, VerificationReport
from .setalgebra import SpanSpec, combine, iterated_span

DEFAULT_FITTED_CEILING = 16.0
DEFAULT_P = 2**31 - 1  # |A| <= 2^15 then satisfies |A| << sqrt(p) with headroom


def _log(x) -> float:
    return math.log(x) if x > 0 else float("-inf")


def _fitted(lhs, rhs_num, rhs_den=1) -> float:
    """lhs / (rhs_num/rhs_den) via logs; safe for huge exact integers."""
    if lhs == 0:
        return 0.0
    return math.exp(_log(lhs) - _log(rhs_num) + _log(rhs_den))


def check_pluennecke(A: ElemSet, k: int, l: int,
                     budget: Optional[int] = None) -> VerificationReport:
    """|kA - lA| <= |A+A|^(k+l) / |A|^(k+l-1); a theorem, asserted exactly."""
    t0 = time.perf_counter()
    span = iterated_span(A, SpanSpec(k, l), budget=budget)
    doubling = combine(A, A, "add", budget=budget)
    lhs = len(span)
    rhs = Fraction(len(doubling) ** (k + l), len(A) ** (k + l - 1))
    passed = lhs <= rhs
    return VerificationReport(
        lemma="pluennecke-ruzsa",
        inputs={"n": len(A), "k": k, "l": l, "field": A.field.describe()},
        lhs=float(lhs), rhs_shape=float(rhs),
        fitted_constant=float(Fraction(lhs) / rhs), slack=1.0, passed=passed,
        notes=f"|A+A|={len(doubling)}",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def _require_p_budget(product: int, budget: int, what: str) -> None:
    # "<<" hypotheses enforced with factor-4 headroom
    if product > budget // 4:
        raise ConstraintViolation(
            f"{what}: {product} exceeds {budget}/4")


def check_kmps(X: ElemSet, Y: ElemSet, Z: ElemSet,
               ceiling: float = DEFAULT_FITTED_CEILING,
               budget: Optional[int] = None) -> VerificationReport:
    """Collision count of f(x,y,z) = x(y+z) against its incidence shape."""
    t0 = time.perf_counter()
    field = X.field
    if field.is_prime_mode:
        _require_p_budget(len(X) * len(Y) * len(Z), field.p ** 2,
                          "|X||Y||Z| << p^2")
    count = f_collision_count(X, Y, Z, budget=budget)
    sz = len(X) * len(Y) * len(Z)
    shape = sz ** 1.5 + max(len(X), min(len(Y), len(Z))) * sz
    fitted = count / shape if shape else float("inf")
    return VerificationReport(
        lemma="kmps-collision",
        inputs={"|X|": len(X), "|Y|": len(Y), "|Z|": len(Z),
                "field": field.describe()},
        lhs=float(count), rhs_shape=shape, fitted_constant=fitted,
        slack=ceiling, passed=fitted <= ceiling,
        notes=f"count={count}",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def check_sdz(A: ElemSet, B: ElemSet, C: ElemSet, D: ElemSet,
              ceiling: float = DEFAULT_FITTED_CEILING,
              budget: Optional[int] = None) -> VerificationReport:
    """Count of c = ab + d against the point-line incidence shape."""
    t0 = time.perf_counter()
    field = A.field
    if field.is_prime_mode:
        _require_p_budget(len(A) * len(B) * len(C) * len(D) ** 2 * 4,
                          field.p ** 4, "|A||B||C||D|^2 << p^4")
    count = bilinear_count(A, B, C, D, budget=budget)
    shape = (len(A) * len(B) * len(C)) ** 0.75 * len(D) ** 0.5 \
        + len(A) * len(D) + len(B) * len(C)
    fitted = count / shape if shape else float("inf")
    return VerificationReport(
        lemma="sdz-bilinear",
        inputs={"|A|": len(A), "|B|": len(B), "|C|": len(C), "|D|": len(D),
                "field": field.describe()},
        lhs=float(count), rhs_shape=shape, fitted_constant=fitted,
        slack=ceiling, passed=fitted <= ceiling,
        notes=f"count={count}",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


# variant -> (op of E_4(B), op of E_k(C, U), k)
MIXED_VARIANTS = {
    "E4+E2x": ("add", "mul", 2),
    "E4xE2+": ("mul", "add", 2),
    "E4xE4+": ("mul", "add", 4),
    "E4+E4x": ("add", "mul", 4),
}


def check_mixed_energy(A: ElemSet, U: ElemSet, variant: str,
                       slack_c: float = 64.0,
                       budget: Optional[int] = None) -> VerificationReport:
    """Mixed energy products E_4(B) E_k(C,U)^(4/k) against |A|^7 |U|^(1+4/k).

    B and C come from the regularization of A under the op of E_4(B).
    """
    t0 = time.perf_counter()
    if variant not in MIXED_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    bop, cop, k = MIXED_VARIANTS[variant]
    power = 4 // k
    field = A.field
    n = len(A)
    K = default_slack(n, slack_c)

    if field.is_prime_mode:
        # |A-A| for an additive B, |A/A| for a multiplicative one; the cross
        # term |A/U| or |A-U| takes the other operation
        if bop == "add":
            own, own_text = len(combine(A, A, "sub", budget=budget)), "A-A"
        else:
            Az = A.remove_zero()
            own, own_text = len(combine(Az, Az, "div", budget=budget)), "A/A"
        if k == 2:
            _require_p_budget(len(U) * n * own, field.p ** 2,
                              f"|U||A||{own_text}| << p^2")
        else:
            if bop == "add":
                cross = len(combine(A, U.remove_zero(), "div", budget=budget))
            else:
                cross = len(combine(A, U, "sub", budget=budget))
            cross_text = "A/U" if bop == "add" else "A-U"
            _require_p_budget(own * n * cross * len(U) ** 2, field.p ** 4,
                              f"|{own_text}||A||{cross_text}||U|^2 << p^4")

    d = xue_regularize(A, 4, bop, budget=budget)
    B, C = d.B, d.C
    if len(C) == 0:
        raise ValueError("regularization degenerate: empty C")

    lhs = int(energy(B, B, 4, bop, budget=budget).value) \
        * int(energy(C, U, k, cop, budget=budget).value) ** power
    rhs = n ** 7 * len(U) ** (power + 1)

    fitted = _fitted(lhs, rhs)
    return VerificationReport(
        lemma=f"mixed-energy-{variant}",
        inputs={"n": n, "|U|": len(U), "|B|": len(B), "|C|": len(C),
                "field": field.describe()},
        lhs=float(lhs), rhs_shape=float(rhs), fitted_constant=fitted,
        slack=K, passed=fitted <= K,
        notes=f"tau={d.tau} |S|={len(d.S_tau)}",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def check_rss_proposition(A: ElemSet, variant: str = "additive",
                          params: Optional[PopularityParams] = None,
                          slack_c: float = 64.0,
                          budget: Optional[int] = None) -> VerificationReport:
    """Full double-counting pipeline for the fourth-moment proposition.

    Clause (a): the exact tautological-count lower bound |D| t ceil(2|B|/3)^2
    forced by the popularity rule. Clause (b): the proposition's final
    inequality within polylog slack. Dyadic levels (t, nu, mu) are reported.

    The E stage is decided from the histogram of the A x F table: once its
    level mu is chosen, |E| is known, and when energy(A, E, 4) would exceed
    the budget (|A| x |E∖{0}| pairs, `_prepare`'s rule and message) the cell
    reports final=skipped with |E| and mu, and E is never written out. The
    p-constraints, whose A-E (A/E) table the same budget refuses, are then
    skipped too.
    """
    t0 = time.perf_counter()
    if variant not in ("additive", "multiplicative"):
        raise ValueError(f"unknown variant {variant!r}")
    add = variant == "additive"
    if not add:
        A = A.remove_zero()
    if len(A) < 16:
        raise ValueError(f"|A| = {len(A)} below the pipeline minimum 16")

    rule = "popular-sums" if add else "popular-products"
    cop = "add" if add else "mul"      # combining operator
    dop = "sub" if add else "div"      # difference/ratio tables
    eop = "add" if add else "mul"      # energy flavour
    n = len(A)
    K = default_slack(n, slack_c)

    def degenerate(why: str) -> VerificationReport:
        return VerificationReport(
            lemma=f"rss-proposition-{variant}",
            inputs={"n": n, "field": A.field.describe()},
            lhs=0.0, rhs_shape=0.0, fitted_constant=float("inf"), slack=K,
            passed=False, notes=f"degenerate: {why}",
            elapsed_ms=(time.perf_counter() - t0) * 1e3)

    B, cert = regu_iterate(A, 4 / 3, params, rule)
    C = cert.refined
    if len(C) == 0:
        return degenerate("popularity rule emptied B")

    P = popular_sums(C, cert.eps, op=cop)
    slice_d = dyadic_slice(C, C, 4 / 3, eop, budget)
    slice_f = dyadic_slice(B, B, 4 / 3, eop, budget)
    D, t = slice_d.support, slice_d.t
    F, nu = slice_f.support, slice_f.t
    if min(len(D), len(F)) == 0:
        return degenerate("empty dyadic support")

    # clause (a): exact lower bound for the restricted tautological count
    count = _pair_popularity_square_sum(C, B, D, P, op=cop, budget=budget)
    lower = len(D) * t * math.ceil(Fraction(2, 3) * len(B)) ** 2
    clause_a = count >= lower

    # clause (b): the final inequality, within polylog slack. The (E, mu)
    # stage needs an |A| x |F| table (and then |A| x |E|), which blows past
    # any sane budget for unstructured sets; skipped cells report that
    # explicitly rather than failing — clause (a) never needs E.
    lhs = float(slice_f.energy_value) ** 3  # E_{4/3}(B), from F's table
    span = len(combine(A, A, cop, budget=budget))
    span8 = span ** 8
    m4a = energy(A, A, 4, eop, budget=budget)
    e4a = int(m4a.value)
    # set sizes the p-constraints need, as these tables give them: |A+A|
    # (|AA|), and the supports of r_{A-A} (r_{A/A}) and r_{A-E} (r_{A/E})
    names = ("A+A", "A-A", "A-E1") if add else ("AA", "A/A", "A/E2")
    known = {names[0]: span, names[1]: m4a.support_size}
    E = None
    mu, e_size = 0, "n/a"
    final_ok = None
    fitted = float("nan")
    rhs_num = 0
    rhs_den = n ** 24

    def energy_fits(t: int, size: int) -> None:
        # energy(A, E, 4) needs |A| x |E∖{0}| pairs; A holds no 0 in the
        # multiplicative variant, so no ratio is 0 and |E∖{0}| = |E|
        nonlocal mu, e_size
        mu, e_size = t, size
        _check_budget(n, size, budget)

    try:
        E = _dyadic_slice(A, F, 2, eop, budget, energy_fits).support
        m4ae = energy(A, E, 4, eop, budget=budget)
        known[names[2]] = m4ae.support_size
        e4ae = int(m4ae.value)
        rhs_num = span8 * e4a ** 2 * e4ae * mu ** 4 * nu ** 4
        fitted = _fitted(lhs, rhs_num, rhs_den)
        final_ok = fitted <= K
    except BudgetExceeded as exc:
        final_note = f"final=skipped ({exc})"
    if final_ok is not None:
        final_note = f"final={final_ok}"

    notes = (f"clause_a={clause_a} (count={count} lower={lower}) "
             f"{final_note} t={t} nu={nu} mu={mu} "
             f"|D|={len(D)} |F|={len(F)} "
             f"|E|={e_size} c2={cert.c2:.4g}")
    if A.field.is_prime_mode and E is not None:
        aux = {"E1" if add else "E2": E}
        try:
            broken = [c.constraint_id
                      for c in _p_constraints(A, aux, known, budget)
                      if not c.satisfied]
        except BudgetExceeded:
            broken = []
        if broken:
            notes += f" p-constraints violated: {broken}"
    return VerificationReport(
        lemma=f"rss-proposition-{variant}",
        inputs={"n": n, "|B|": len(B), "|C|": len(C), "t": t, "nu": nu,
                "mu": mu, "clause_a": clause_a, "final": final_ok,
                "field": A.field.describe()},
        lhs=lhs, rhs_shape=_fitted(rhs_num, 1, rhs_den) if rhs_num else 0.0,
        fitted_constant=fitted, slack=K,
        passed=bool(clause_a and final_ok is not False),
        notes=notes, elapsed_ms=(time.perf_counter() - t0) * 1e3)


def p_constraint_check(A: ElemSet, aux: Dict[str, ElemSet],
                       budget: Optional[int] = None) -> List[ConstraintCheck]:
    """Exact evaluation of the four size-vs-p constraints plus the
    Pluennecke-based sufficient conditions.

    aux may provide any of E1, E2, F1, F2; only the applicable constraints are
    evaluated. Char-zero input yields all-pass.
    """
    return _p_constraints(A, aux, {}, budget)


def _p_constraints(A: ElemSet, aux: Dict[str, ElemSet], known: Dict[str, int],
                   budget: Optional[int]) -> List[ConstraintCheck]:
    """`p_constraint_check` with some set sizes already known.

    known maps any of "A-A", "A/A", "A+A", "AA", "A-E1" and "A/E2" to the
    size of that set (A/A and AA over A∖{0}, A/E2 over E2∖{0}). Every other
    size is built with `combine`, in the order of the checks, so a budget
    that a known table fit in raises where `p_constraint_check` does.
    """
    field = A.field
    if not field.is_prime_mode:
        return [ConstraintCheck(cid, 0, 1) for cid in ("i", "ii", "iii", "iv")]
    p2 = field.p ** 2
    p4 = field.p ** 4
    n = len(A)
    Az = A.remove_zero()

    def size(name: str, X: ElemSet, Y: ElemSet, op: str) -> int:
        if name in known:
            return known[name]
        return len(combine(X, Y, op, budget=budget))

    checks = []
    ratio_size = size("A/A", Az, Az, "div")
    diff_size = size("A-A", A, A, "sub")

    if "E1" in aux:
        E1 = aux["E1"]
        prod = len(E1) ** 2 * n * ratio_size * size("A-E1", A, E1, "sub")
        checks.append(ConstraintCheck("i", prod, p4))
    if "E2" in aux:
        E2 = aux["E2"]
        prod = len(E2) ** 2 * n * diff_size \
            * size("A/E2", A, E2.remove_zero(), "div")
        checks.append(ConstraintCheck("ii", prod, p4))
    if "F1" in aux:
        checks.append(ConstraintCheck("iii", len(aux["F1"]) * n * diff_size, p2))
    if "F2" in aux:
        checks.append(ConstraintCheck("iv", len(aux["F2"]) * n * ratio_size, p2))

    sum_size = size("A+A", A, A, "add")
    prod_size = size("AA", Az, Az, "mul")
    checks.append(ConstraintCheck(
        "surrogate-i", sum_size ** 10 * prod_size ** 2, p4 * n ** 7))
    checks.append(ConstraintCheck(
        "surrogate-iii", sum_size ** 2 * prod_size ** 2, n * p2))
    return checks


OPERATOR_COMBOS = (("add", "mul"), ("add", "div"), ("sub", "mul"),
                   ("sub", "div"))


def sum_product_ratios(A: ElemSet, budget: Optional[int] = None) -> dict:
    """A's sum-product ratio under each of the OPERATOR_COMBOS."""
    return {f"{a}/{m}": sum_product_ratio(A, a, m, budget=budget)
            for a, m in OPERATOR_COMBOS}


def check_main_theorem(A: ElemSet, floor: float = 0.25,
                       budget: Optional[int] = None,
                       family: Optional[str] = None) -> VerificationReport:
    """The smallest of A's sum-product ratios against the floor."""
    t0 = time.perf_counter()
    lo = min(sum_product_ratios(A, budget).values())
    return VerificationReport(
        lemma="main-theorem-ratio",
        inputs={"n": len(A), "family": family, "field": A.field.describe()},
        lhs=lo, rhs_shape=floor, fitted_constant=lo / floor,
        slack=1.0, passed=lo >= floor, notes="min over add/sub x mul/div",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def main_theorem_probe(families=("ap", "gp", "random", "subgroup"),
                       sizes=(16, 32, 64, 128, 256, 512, 1024),
                       p: int = DEFAULT_P, seed: int = 0,
                       floor: float = 0.25,
                       budget: Optional[int] = None) -> dict:
    """Sweep probe families; record the min sum-product ratio over all four
    operator combinations. Cells violating |A| <= sqrt(p)/2 are skipped."""
    cells = []
    for kind in families:
        for size in sizes:
            cell_p = p
            if kind == "subgroup" and (p - 1) % size != 0:
                cell_p = prime_with_subgroup(size, near=p)
            field = GroundField.prime(cell_p)
            if size > math.isqrt(cell_p) // 2:
                cells.append({"family": kind, "n": size, "p": cell_p,
                              "status": "skipped: |A| > sqrt(p)/2"})
                continue
            spec = FamilySpec(kind=kind, n=size, field=field, start=1,
                              base=3, ratio=7, seed=seed + size)
            ratios = sum_product_ratios(gen_family(spec), budget)
            cells.append({"family": kind, "n": size, "p": cell_p,
                          "ratios": ratios, "min": min(ratios.values()),
                          "status": "ok"})
    overall_min = min((c["min"] for c in cells if "min" in c),
                      default=float("inf"))
    return {"cells": cells, "min_ratio": overall_min, "floor": floor,
            "pass": overall_min >= floor}


# -- the lemma registry: what the suite and `sumprod verify` run ---------------

@dataclass(frozen=True)
class LemmaParams:
    """What the registered checks read; family labels the main check's A."""

    k: int = 2
    l: int = 2
    ceiling: float = DEFAULT_FITTED_CEILING
    slack_c: float = 64.0
    floor: float = 0.25
    budget: Optional[int] = None
    family: Optional[str] = None


# run(sets, variant, params) checks `arity` sets. The suite runs every variant
# ((None,) for a lemma without variants) on draw(A, rand), where
# rand(size, offset) is a random set drawn at the cell seed + offset.
Lemma = namedtuple("Lemma", "arity variants run draw",
                   defaults=(lambda A, rand: (A,),))


LEMMAS: Dict[str, Lemma] = {
    "pluennecke": Lemma(1, (None,), lambda S, v, p: check_pluennecke(
        S[0], p.k, p.l, budget=p.budget)),
    "cauchy-schwarz": Lemma(1, ("add", "mul"), lambda S, v, p:
                            cauchy_schwarz_check(S[0], v, budget=p.budget)),
    "kmps": Lemma(3, (None,), lambda S, v, p: check_kmps(
        *S, ceiling=p.ceiling, budget=p.budget),
        lambda A, rand: (A.remove_zero(), rand(len(A), 1).remove_zero(),
                         rand(len(A), 2).remove_zero())),
    "sdz": Lemma(4, (None,), lambda S, v, p: check_sdz(
        *S, ceiling=p.ceiling, budget=p.budget),
        lambda A, rand: (A, *(rand(len(A), i) for i in (1, 2, 3)))),
    "mixed": Lemma(2, tuple(MIXED_VARIANTS), lambda S, v, p:
                   check_mixed_energy(*S, v, slack_c=p.slack_c,
                                      budget=p.budget),
                   lambda A, rand: (A, rand(max(4, len(A) // 4), 1))),
    "rss": Lemma(1, ("additive", "multiplicative"), lambda S, v, p:
                 check_rss_proposition(S[0], v, slack_c=p.slack_c,
                                       budget=p.budget)),
    "regular": Lemma(1, ("add", "mul"), lambda S, v, p: check_regular(
        xue_regularize(S[0], 4, v, budget=p.budget), S[0], 4,
        default_slack(len(S[0]), p.slack_c), budget=p.budget)),
    "main": Lemma(1, (None,), lambda S, v, p: check_main_theorem(
        S[0], p.floor, p.budget, p.family)),
}


def run_lemma(name: str, sets: tuple, variant: Optional[str],
              params: LemmaParams) -> VerificationReport:
    """Run one variant of a registered lemma on its sets."""
    return LEMMAS[name].run(sets, variant, params)
