"""Empirical verifiers: fitted implied constants for every inequality used.

Theorem-backed checks (Cauchy-Schwarz, Pluennecke-Ruzsa, the tautological
lower bound) are asserted exactly; incidence-flavoured upper bounds report a
fitted constant against a configurable ceiling or polylog slack.
"""

from __future__ import annotations

import math
import re
import time
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from .counting import (_pair_popularity_square_sum, bilinear_count,
                       f_collision_count)
from .energy import _dyadic_slice, cauchy_schwarz_check, dyadic_slice, energy
from .field import ElemSet, GroundField
from .families import (OPERATOR_COMBOS, probe_field, probe_set,
                       sum_product_ratios)
from .regularize import (DEFAULT_SLACK_C, check_regular, default_slack,
                         popular_sums, regu_iterate, xue_regularize)
from .repfn import BudgetExceeded, _check_budget
from .report import ConstraintCheck, ConstraintViolation, VerificationReport
from .setalgebra import SpanSpec, combine, iterated_span

DEFAULT_FITTED_CEILING = 16.0
DEFAULT_RATIO_FLOOR = 0.25  # the main theorem's sum-product ratio floor
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
    """|kA - lA| <= |A+A|^(k+l) / |A|^(k+l-1), a theorem asserted exactly on
    kA - lA built by doubling, which refuses 2A - 2A when |A+A|^2 pairs are
    over budget. Raises ValueError for an empty A, where the bound is 0/0."""
    if len(A) == 0:
        raise ValueError("Pluennecke-Ruzsa needs a nonempty set")
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
    """Collision count of f(x,y,z) = x(y+z) against its incidence shape.
    Raises ValueError for an empty set, where the shape is 0."""
    if not (len(X) and len(Y) and len(Z)):
        raise ValueError("the KMPS collision count needs nonempty X, Y, Z")
    t0 = time.perf_counter()
    field = X.field
    if field.is_prime_mode:
        _require_p_budget(len(X) * len(Y) * len(Z), field.p ** 2,
                          "|X||Y||Z| << p^2")
    count = f_collision_count(X, Y, Z, budget=budget)
    sz = len(X) * len(Y) * len(Z)
    shape = sz ** 1.5 + max(len(X), min(len(Y), len(Z))) * sz
    fitted = count / shape
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
    """Count of c = ab + d against the point-line incidence shape.
    Raises ValueError for an empty set."""
    if not (len(A) and len(B) and len(C) and len(D)):
        raise ValueError("the SDZ bilinear count needs nonempty A, B, C, D")
    t0 = time.perf_counter()
    field = A.field
    if field.is_prime_mode:
        _require_p_budget(len(A) * len(B) * len(C) * len(D) ** 2 * 4,
                          field.p ** 4, "|A||B||C||D|^2 << p^4")
    count = bilinear_count(A, B, C, D, budget=budget)
    shape = (len(A) * len(B) * len(C)) ** 0.75 * len(D) ** 0.5 \
        + len(A) * len(D) + len(B) * len(C)
    fitted = count / shape
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
# variant -> the p-constraint its hypothesis gate checks, U as its set X
MIXED_CONSTRAINTS = {"E4+E2x": "iii", "E4xE2+": "iv", "E4xE4+": "i",
                     "E4+E4x": "ii"}


def check_mixed_energy(A: ElemSet, U: ElemSet, variant: str,
                       slack_c: float = DEFAULT_SLACK_C,
                       budget: Optional[int] = None) -> VerificationReport:
    """Mixed energy products E_4(B) E_k(C,U)^(4/k) against |A|^7 |U|^(1+4/k).

    B, C and E_4(B) come from the regularization of A under E_4's op.
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
        _require_p_budget(*_p_constraint(
            MIXED_CONSTRAINTS[variant], "U",
            _set_product(A, {"U": U}, {}, budget), field.p))

    d = xue_regularize(A, 4, bop, budget=budget)
    B, C = d.B, d.C
    if len(C) == 0:
        raise ValueError("regularization degenerate: empty C")

    lhs = int(d.energy_value) \
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
                          slack_c: float = DEFAULT_SLACK_C,
                          budget: Optional[int] = None) -> VerificationReport:
    """Full double-counting pipeline for the fourth-moment proposition.

    B and its refinement C = R_eps(B) come from `regu_iterate` under add
    (additive) or mul (multiplicative), at the rule's fixed constants
    theta = 2/3 and c1 = 1/2. Clause (a): the exact tautological-count lower
    bound |D| t ceil(2|B|/3)^2 forced by the popularity rule. Clause (b): the
    proposition's final inequality within polylog slack. Dyadic levels
    (t, nu, mu) are reported.

    The E stage is decided from the histogram of the A x F table: once its
    level mu is chosen, |E| is known, and when energy(A, E, 4) would exceed
    the budget (|A| x |E∖{0}| pairs, `_table`'s rule and message) the cell
    reports final=skipped with |E| and mu. E is then never written out,
    except that inside a suite cell an A x F table of at most
    `repfn._MEMO_PAIRS` pairs is kept whole, as its rep table
    (`repfn.table_memo`). The p-constraints, whose A-E (A/E) table the same
    budget refuses, are then skipped too.
    """
    t0 = time.perf_counter()
    if variant not in ("additive", "multiplicative"):
        raise ValueError(f"unknown variant {variant!r}")
    add = variant == "additive"
    if not add:
        A = A.remove_zero()
    if len(A) < 16:
        raise ValueError(f"|A| = {len(A)} below the pipeline minimum 16")

    cop = "add" if add else "mul"      # combining operator, energy flavour
    n = len(A)
    K = default_slack(n, slack_c)

    def degenerate(why: str) -> VerificationReport:
        return VerificationReport(
            lemma=f"rss-proposition-{variant}",
            inputs={"n": n, "field": A.field.describe()},
            lhs=0.0, rhs_shape=0.0, fitted_constant=float("inf"), slack=K,
            passed=False, notes=f"degenerate: {why}",
            elapsed_ms=(time.perf_counter() - t0) * 1e3)

    B, cert = regu_iterate(A, 4 / 3, cop, budget)
    C = cert.refined
    if len(C) == 0:
        return degenerate("popularity rule emptied B")

    P = popular_sums(C, cert.eps, cop, budget)
    slice_d = dyadic_slice(C, C, 4 / 3, cop, budget)
    slice_f = dyadic_slice(B, B, 4 / 3, cop, budget)
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
    m4a = energy(A, A, 4, cop, budget=budget)
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
        E = _dyadic_slice(A, F, 2, cop, budget, energy_fits).support
        m4ae = energy(A, E, 4, cop, budget=budget)
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


# The size-vs-p constraints (i)-(iv) that |A| << p^(1/2) stands for: id ->
# (its auxiliary set X, the product of set sizes, the power of p it is under)
P_CONSTRAINTS = {
    "i": ("E1", "|A/A||A||A-X||X|^2", 4),
    "ii": ("E2", "|A-A||A||A/X||X|^2", 4),
    "iii": ("F1", "|X||A||A-A|", 2),
    "iv": ("F2", "|X||A||A/A|", 2),
}


def _set_product(A: ElemSet, aux: Dict[str, ElemSet], known: Dict[str, int],
                 budget: Optional[int]) -> Callable[[str], int]:
    """product(text): the product of the sizes that text names as |S| or
    |S|^e, S being A, a set in aux, or A∘Y written "A+A", "AA", "A-Y" or
    "A/Y" (Y is A or in aux). A set whose size known does not give is built
    with `combine` when first read, AA and A/A over A∖{0}, A/Y over Y∖{0}
    (`combine` drops a 0 from a div right operand)."""
    sizes = {"A": len(A), **{y: len(Y) for y, Y in aux.items()}, **known}

    def size(name: str) -> int:
        if name not in sizes:
            op = {"+": "add", "-": "sub", "/": "div"}.get(name[1], "mul")
            y = name[1:] if op == "mul" else name[2:]
            X = A.remove_zero() if y == "A" and op in ("mul", "div") else A
            Y = X if y == "A" else aux[y]
            sizes[name] = len(combine(X, Y, op, budget=budget))
        return sizes[name]
    return lambda text: math.prod(size(name) ** int(e or 1) for name, e in
                                  re.findall(r"\|([^|]+)\|(?:\^(\d+))?", text))


def _p_constraint(cid: str, x: str, product: Callable[[str], int], p: int):
    """(product, p^power, text) of constraint cid, with X the set named x."""
    _, text, power = P_CONSTRAINTS[cid]
    text = text.replace("X", x)
    return product(text), p ** power, f"{text} << p^{power}"


def _p_constraints(A: ElemSet, aux: Dict[str, ElemSet], known: Dict[str, int],
                   budget: Optional[int]) -> List[ConstraintCheck]:
    """`p_constraint_check` with the sizes in known given (named as in
    `_set_product`): each other set is built when a check first reads it,
    so a budget a known table fit in raises where `p_constraint_check` does."""
    field = A.field
    if not field.is_prime_mode:
        return [ConstraintCheck(cid, 0, 1) for cid in P_CONSTRAINTS]
    p, n = field.p, len(A)
    product = _set_product(A, aux, known, budget)
    return [ConstraintCheck(cid, *_p_constraint(cid, x, product, p)[:2])
            for cid, (x, _, _) in P_CONSTRAINTS.items() if x in aux] + [
        ConstraintCheck("surrogate-i", product("|A+A|^10|AA|^2"),
                        p ** 4 * n ** 7),
        ConstraintCheck("surrogate-iii", product("|A+A|^2|AA|^2"),
                        n * p ** 2)]


def check_main_theorem(A: ElemSet, floor: float = DEFAULT_RATIO_FLOOR,
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
                       budget: Optional[int] = None) -> dict:
    """Sweep probe families; record the min sum-product ratio over all four
    operator combinations against DEFAULT_RATIO_FLOOR. Cells violating
    |A| <= sqrt(p)/2 are skipped."""
    cells = []
    for kind in families:
        for size in sizes:
            field = probe_field(kind, size, GroundField.prime(p))
            cell_p = field.p
            if size > math.isqrt(cell_p) // 2:
                cells.append({"family": kind, "n": size, "p": cell_p,
                              "status": "skipped: |A| > sqrt(p)/2"})
                continue
            ratios = sum_product_ratios(
                probe_set(kind, size, field, seed + size), budget)
            cells.append({"family": kind, "n": size, "p": cell_p,
                          "ratios": ratios, "min": min(ratios.values()),
                          "status": "ok"})
    overall_min = min((c["min"] for c in cells if "min" in c),
                      default=float("inf"))
    return {"cells": cells, "min_ratio": overall_min,
            "floor": DEFAULT_RATIO_FLOOR,
            "pass": overall_min >= DEFAULT_RATIO_FLOOR}


# -- the lemma registry: what the suite and `sumprod verify` run ---------------

@dataclass(frozen=True)
class LemmaParams:
    """What the registered checks read; family labels the main check's A."""

    k: int = 2
    l: int = 2
    ceiling: float = DEFAULT_FITTED_CEILING
    slack_c: float = DEFAULT_SLACK_C
    floor: float = DEFAULT_RATIO_FLOOR
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
