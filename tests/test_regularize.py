import dataclasses
import importlib
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ElemSet, GroundField, check_regular,
                     default_slack, energy, popular_sums, popularity_rule,
                     regu_iterate, xue_regularize)
from sumprod import regularize, repfn
from sumprod.regularize import _membership_counts

from conftest import P31, membership_case, random_set
from oracles import naive_membership_counts

# the package binds the name `energy` to the function
energy_mod = importlib.import_module("sumprod.energy")


def test_popular_sums_frozen(c0):
    A = ElemSet(c0, [0, 1, 2, 3])
    # threshold 8/7; counts of A+A are 1,2,3,4,3,2,1
    assert sorted(popular_sums(A, Fraction(1, 2))) == [1, 2, 3, 4, 5]
    assert sorted(popular_sums(ElemSet(c0, [0, 1]), 1)) == [1]


def test_popular_sums_tiny_eps_keeps_all(c0):
    A = ElemSet(c0, [0, 1, 7])
    from sumprod import combine
    assert popular_sums(A, Fraction(1, 1000)) == combine(A, A, "add")


def test_popularity_rule_frozen(c0):
    A = ElemSet(c0, [0, 1, 2, 3])
    assert popularity_rule(A, Fraction(1, 2)) == A  # good-b counts 3,4,4,3
    assert len(popularity_rule(ElemSet(c0, [0, 1]), 1)) == 0


def test_popularity_rule_full_when_p_is_everything(c0):
    A = ElemSet(c0, [2, 9, 20])
    assert popularity_rule(A, Fraction(1, 10**6)) == A


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=12),
       st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100)))
def test_rule_outputs_are_subsets(xs, eps):
    c0 = GroundField.char0()
    A = ElemSet(c0, xs)
    from sumprod import combine
    assert popular_sums(A, eps).issubset(combine(A, A, "add"))
    assert popularity_rule(A, eps).issubset(A)


def test_regu_iterate_size_guarantee(fp):
    for seed in range(4):
        A = random_set(fp, 64, seed=seed)
        B, cert = regu_iterate(A, 4 / 3)
        assert len(B) >= (1 - cert.c1) * len(A)
        assert cert.size_guarantee_ok
        assert B.issubset(A)
        assert cert.c2 > 0


def test_regu_iterate_fixed_point_ap(c0):
    A = ElemSet(c0, range(64))
    B, cert = regu_iterate(A, 4 / 3)
    assert len(B) >= 32
    assert cert.c2 > 0


def test_regu_iterate_rejects_small(c0):
    with pytest.raises(ValueError):
        regu_iterate(ElemSet(c0, range(8)), 4 / 3)


def test_xue_degenerate_singleton(c0):
    d = xue_regularize(ElemSet(c0, [0]), 4, "add")
    assert sorted(d.B) == [0] and sorted(d.C) == [0]
    assert sorted(d.S_tau) == [0] and d.tau == 1
    dm = xue_regularize(ElemSet(GroundField.prime(7), [1]), 4, "mul")
    assert sorted(dm.S_tau) == [1] and dm.tau == 1
    rep = check_regular(d, ElemSet(c0, [0]), 4, K=2)
    assert rep.passed


def test_xue_level_property_exact(fp):
    from sumprod import rep_function
    for kind, A in (("ap", ElemSet(fp, range(1, 65))),
                    ("random", random_set(fp, 64, seed=9))):
        d = xue_regularize(A, 4, "add")
        counts = rep_function(d.B, d.B, "sub").to_dict()
        assert d.C.issubset(d.B) and d.B.issubset(A)
        for s in d.S_tau:
            assert d.tau <= counts[s] < 2 * d.tau, kind


def test_check_regular_passes_structured(fp, c0):
    A = ElemSet(c0, range(64))
    d = xue_regularize(A, 4, "add")
    assert check_regular(d, A, 4, default_slack(64)).passed
    G = ElemSet(fp, [pow(3, i, fp.p) for i in range(64)])
    dg = xue_regularize(G, 4, "mul")
    assert check_regular(dg, G, 4, default_slack(64)).passed


@pytest.mark.parametrize("c", [0, -64.0, float("nan"), float("inf")])
def test_default_slack_refuses_constant_not_positive_finite(c):
    # a NaN K fails every check and an infinite one passes every check
    with pytest.raises(ValueError, match="positive finite"):
        default_slack(64, c)


def test_check_regular_detects_corruption(c0):
    A = ElemSet(c0, range(64))
    d = xue_regularize(A, 4, "add")
    bad = dataclasses.replace(d, tau=2 * d.tau)
    rep = check_regular(bad, A, 4, default_slack(64))
    assert not rep.passed
    assert "b=False" in rep.notes  # clause (b): sub-sum lower bound breaks


def test_check_regular_rejects_foreign_set(c0):
    A = ElemSet(c0, range(64))
    d = xue_regularize(A, 4, "add")
    with pytest.raises(ValueError):
        check_regular(d, ElemSet(c0, range(5)), 4, 100.0)


@pytest.mark.parametrize("op", ["add", "mul"])
def test_xue_builds_each_round_histogram_once(fp, op):
    # one kernel build per round: its level reduction gives both the round's
    # slice and its histogram, and no other table is sorted
    A = random_set(fp, 200, seed=5, lo=1)
    with mock.patch.object(energy_mod, "_table",
                           wraps=energy_mod._table) as flat, \
            mock.patch.object(repfn, "_sort_reduce",
                              wraps=repfn._sort_reduce) as sort, \
            mock.patch.object(regularize, "dyadic_slice",
                              wraps=regularize.dyadic_slice) as rounds:
        d = xue_regularize(A, 4, op)
    assert flat.call_count == sort.call_count == rounds.call_count \
        >= d.rounds >= 1
    assert all(c.args[3] == "level" for c in flat.call_args_list)


def test_determinism(fp):
    A = random_set(fp, 128, seed=3)
    d1 = xue_regularize(A, 4, "add")
    d2 = xue_regularize(A, 4, "add")
    assert d1.B == d2.B and d1.C == d2.C and d1.S_tau == d2.S_tau \
        and d1.tau == d2.tau


def test_membership_counts_char0_mul_does_not_wrap(c0):
    # 2^32 * 2^32 = 2^64 is 0 in int64 arithmetic
    T = ElemSet(c0, [2**32])
    assert _membership_counts(T, T, ElemSet(c0, [0]), "mul").tolist() == [0]
    # P_A = {0}: 0 is hit three times, 2^64 once; only 0 has two products
    # in P_A, 2^32 has one
    A = ElemSet(c0, [0, 2**32])
    assert popularity_rule(A, Fraction(9, 10), rule="popular-products") \
        == ElemSet(c0, [0])


@settings(max_examples=400, deadline=None)
@given(membership_case())
def test_membership_counts_vs_object_path(case):
    T, B, P, op, swap = case
    got = _membership_counts(T, B, P, op)
    assert got.dtype == np.int64 and got.shape == (len(T),)
    assert got.tolist() == naive_membership_counts(T, B, P, op), swap


def _ap_plus_random(field, m, extra, op):
    rng = random.Random(0)
    if op == "add":
        core = range(1, m + 1)
    else:
        core = [pow(3, i, field.p) for i in range(m)]
    return ElemSet(field, list(core) + rng.sample(range(1, field.p), extra))


@pytest.mark.parametrize("op", ["add", "mul"])
@pytest.mark.parametrize("case, k, rounds", [
    ("ap", 4, 1), ("random", 4, 1), ("tiny", 4, 0),
    ("structured-half", 2, 2), ("structured-subset", 2, 1)])
def test_xue_outputs_match_recomputation(op, case, k, rounds):
    """energy_ratio and the r-ratio range equal an independent
    recomputation on (C, B, S_tau), and C is the threshold set of B."""
    fp = GroundField.prime(P31)
    A = {"ap": ElemSet(fp, range(1, 65)),
         "random": random_set(fp, 64, seed=9),
         "tiny": ElemSet(fp, [1, 2, 5]),
         "structured-half": _ap_plus_random(fp, 26, 27, op),
         "structured-subset": _ap_plus_random(fp, 30, 30, op)}[case]
    d = xue_regularize(A, k, op)
    assert d.rounds == rounds
    if op == "mul":
        A = A.remove_zero()
    n, S, tau = len(A), d.S_tau, d.tau
    shift = "sub" if op == "add" else "div"

    e = energy(d.B, d.B, k, op)
    assert d.energy_value == e.value
    assert d.energy_ratio == float(e.value) / (len(S) * tau ** k)
    scale = n / (len(S) * tau)
    ratios = [c * scale for c in naive_membership_counts(d.C, d.B, S, shift)]
    assert d.r_ratio_min == min(ratios) and d.r_ratio_max == max(ratios)

    if rounds == 0:
        assert d.C == d.B == A
    else:
        counts = naive_membership_counts(d.B, d.B, S, shift)
        L = math.ceil(math.log2(n))
        cutoff = max(1, math.ceil(Fraction(len(S) * tau, 2 * n * L)))
        assert d.C == ElemSet(fp, [b for b, c in zip(d.B, counts)
                                   if c >= cutoff])
        assert len(d.C) > 0
    if case == "structured-subset":
        assert len(d.C) < len(d.B)
