from collections import Counter
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumprod import (ElemSet, GroundField, bilinear_count, count_energy_equiv,
                     f_collision_count, tautological_count)

from sumprod import repfn
from sumprod.counting import _pair_popularity_square_sum
from sumprod.families import subgroup_of_order

from conftest import (P31, edge_values, forced_threads, pair_popularity_case,
                      pair_table_case, random_set, traced_peak)
from oracles import (naive_bilinear, naive_f_collision, naive_pair_popularity,
                     naive_tautological)

tiny = st.lists(st.integers(1, 25), min_size=1, max_size=6)
tiny0 = st.lists(st.integers(-12, 12), min_size=1, max_size=6)


def test_f_collision_frozen(c0):
    one = ElemSet(c0, [1])
    two = ElemSet(c0, [1, 2])
    assert f_collision_count(one, one, one) == 1
    assert f_collision_count(two, two, two) == 14
    assert f_collision_count(one, one, two) == 2


def test_f_collision_rejects_zero(c0):
    with pytest.raises(ValueError):
        f_collision_count(ElemSet(c0, [0, 1]), ElemSet(c0, [1]),
                          ElemSet(c0, [1]))


def test_bilinear_frozen(c0):
    one = ElemSet(c0, [1])
    assert bilinear_count(one, one, one, ElemSet(c0, [0])) == 1
    F5 = GroundField.prime(5)
    o5 = ElemSet(F5, [1])
    assert bilinear_count(o5, o5, o5, o5) == 0
    assert bilinear_count(ElemSet(c0, [1, 2]), ElemSet(c0, [1, 2]),
                          ElemSet(c0, [1, 2, 3, 4, 5]),
                          ElemSet(c0, [0, 1])) == 8


def test_tautological_frozen(c0):
    assert tautological_count(ElemSet(c0, [0, 1]), ElemSet(c0, [1]),
                              ElemSet(c0, [0, 1, 2])) == 4
    B = ElemSet(c0, [0, 1, 2])
    assert tautological_count(B, ElemSet.empty(c0), B) == 0
    assert tautological_count(B, B, ElemSet.empty(c0)) == 0


def test_energy_equiv_frozen(c0):
    A = ElemSet(c0, [0, 1, 2])
    assert count_energy_equiv(A, "add", 2) == 19
    assert count_energy_equiv(ElemSet(c0, [5]), "add", 4) == 1
    assert count_energy_equiv(ElemSet(c0, [1, 2, 4]), "mul", 2) == 19


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([GroundField.prime(3), GroundField.prime(31),
                        GroundField.prime(101), GroundField.prime(P31),
                        GroundField.char0()]),
       st.data())
def test_f_collision_vs_naive(field, data):
    # char0 values next to 2^31 put x and y+z on both sides of the mul
    # bound; prime fields draw values next to 0 and p, so y+z wraps
    X, Y, Z = (ElemSet(field, data.draw(st.lists(
        edge_values(field, [1 << 31]), min_size=1, max_size=5))).remove_zero()
        for _ in range(3))
    if min(len(X), len(Y), len(Z)) == 0:
        return
    assert f_collision_count(X, Y, Z) == naive_f_collision(X, Y, Z)


@settings(max_examples=150, deadline=None)
@given(pair_table_case(), st.data())
def test_f_collision_vs_naive_on_table_cases(pair, data):
    # X and Y drawn apart; Z is one of them or drawn on its own, with
    # values next to 0 and p (next to 2^31 in char0)
    X, Y, _ = pair
    Z = data.draw(st.sampled_from([X, Y]) | st.builds(
        lambda v: ElemSet(X.field, v),
        st.lists(edge_values(X.field, [1 << 31]), max_size=12)))
    X, Y, Z = (S.remove_zero() for S in (X, Y, Z))
    if min(len(X), len(Y), len(Z)) == 0:
        return
    assert f_collision_count(X, Y, Z) == naive_f_collision(X, Y, Z)


def counted_f_collision(X, Y, Z):
    """sum of m(v)^2, with m counted over every triple."""
    f = X.field
    m = Counter(f.mul(x, f.add(y, z)) for x in X for y in Y for z in Z)
    return sum(c * c for c in m.values())


@pytest.mark.parametrize("p, order", [(101, 20), (P31, 31), (65537, 64)])
def test_f_collision_long_runs(p, order):
    # X a subgroup and Y, Z its cosets: x(y+z) repeats each value many
    # times, so the sorted products form long runs
    F = GroundField.prime(p)
    H = subgroup_of_order(p, order)
    X, Y = H, ElemSet(F, [2 * h for h in H])
    Z = ElemSet(F, [3 * h for h in H])
    for sets in ((X, Y, Z), (X, X, X), (Y, X, Z)):
        assert f_collision_count(*sets) == counted_f_collision(*sets)


@settings(max_examples=40, deadline=None)
@given(tiny0, tiny0, tiny0, tiny0, st.booleans())
def test_bilinear_vs_naive(a, b, c, d, prime):
    field = GroundField.prime(31) if prime else GroundField.char0()
    A, B, C, D = (ElemSet(field, v) for v in (a, b, c, d))
    assert bilinear_count(A, B, C, D) == naive_bilinear(A, B, C, D)


@settings(max_examples=30, deadline=None)
@given(tiny0, tiny0, tiny0, st.booleans())
def test_tautological_vs_naive(b, d, p, prime):
    field = GroundField.prime(31) if prime else GroundField.char0()
    B, D, P = (ElemSet(field, v) for v in (b, d, p))
    assert tautological_count(B, D, P) == naive_tautological(B, D, P)


def test_pair_popularity_mul_with_zero_in_pairs_from():
    # a/0 is no ratio: an inverse of 0 taken as 0 counted such pairs (112)
    F13 = GroundField.prime(13)
    F, B, D, P = (ElemSet(F13, v) for v in ([0, 1, 2, 3], [1, 2, 4, 5],
                                            [0, 1, 2, 7], [0, 2, 4, 5, 8, 10]))
    assert naive_pair_popularity(F, B, D, P, "mul") == 70
    assert _pair_popularity_square_sum(F, B, D, P, op="mul") == 70


def test_pair_popularity_mul_with_zero_in_pairs_from_is_int():
    # 0 in F leaves only a/0 without a ratio, which the pair mask marks
    # False, so both masks come from int grids and no object loop runs
    F13 = GroundField.prime(13)
    F, B, D, P = (ElemSet(F13, v) for v in ([0, 1, 2, 3], [1, 2, 4, 5],
                                            [0, 1, 2, 7], [0, 2, 4, 5, 8, 10]))
    with mock.patch.object(repfn, "_grid", wraps=repfn._grid) as grid:
        assert _pair_popularity_square_sum(F, B, D, P, op="mul") == 70
    assert [c.args[2] for c in grid.call_args_list] == ["mul", "div"]
    assert 0 not in grid.call_args_list[1].args[1]


@settings(max_examples=30, deadline=None)
@given(tiny0, tiny0, tiny0, tiny0, st.booleans())
def test_pair_popularity_mul_vs_naive(f, b, d, p, prime):
    field = GroundField.prime(31) if prime else GroundField.char0()
    F, B, D, P = (ElemSet(field, v) for v in (f, b, d, p))
    assert _pair_popularity_square_sum(F, B, D, P, op="mul") == \
        naive_pair_popularity(F, B, D, P, "mul")


@settings(max_examples=200, deadline=None)
@given(pair_popularity_case())
@example(tuple(ElemSet(GroundField.char0(), v) for v in
               ([1, 2], [Fraction(1, 2), 1], [0, 1], [2, 3])) + ("add",))
def test_pair_popularity_at_fast_path_bounds(case):
    # the example has int pairs but a rational B: only the check of the
    # pair op on (F, B) keeps it off the int grid
    F, B, D, P, op = case
    assert _pair_popularity_square_sum(F, B, D, P, op=op) == \
        naive_pair_popularity(F, B, D, P, op)


@settings(max_examples=25, deadline=None)
@given(tiny0, tiny0, tiny0, st.integers(-10, 10))
def test_tautological_translation_invariance(b, d, p, s):
    c0 = GroundField.char0()
    B, D, P = (ElemSet(c0, v) for v in (b, d, p))
    # a, b, c, d all shift by s, so sums a+c etc. shift by 2s; D is unchanged
    Bs = ElemSet(c0, [x + s for x in B])
    Ps = ElemSet(c0, [x + 2 * s for x in P])
    assert tautological_count(B, D, P) == tautological_count(Bs, D, Ps)


@settings(max_examples=30, deadline=None)
@given(tiny, tiny, tiny)
def test_f_collision_diagonal_floor(xs, ys, zs):
    c0 = GroundField.char0()
    X, Y, Z = (ElemSet(c0, v) for v in (xs, ys, zs))
    assert f_collision_count(X, Y, Z) >= len(X) * len(Y) * len(Z)


@pytest.mark.parametrize("F", [GroundField.prime(101), GroundField.char0()])
def test_tautological_budget_message(F):
    # the pair-popularity grids are refused by the rule and message of
    # every other table
    from sumprod import BudgetExceeded
    B = ElemSet(F, range(1, 11))
    with pytest.raises(BudgetExceeded, match=r"^10x10 pairs exceed budget 99$"):
        tautological_count(B, B, B, budget=99)
    assert tautological_count(B, B, B, budget=100) == \
        naive_tautological(B, B, B)


def test_energy_equiv_budget(c0):
    from sumprod import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        count_energy_equiv(ElemSet(c0, range(65)), "add", 2)
    with pytest.raises(ValueError):
        count_energy_equiv(ElemSet(c0, [1, 2]), "add", 3)



def collision_route(X, Y, Z):
    """(f_collision_count(X, Y, Z), whether it took the int kernel)."""
    with mock.patch.object(repfn, "_sorted_table",
                           wraps=repfn._sorted_table) as kernel, \
            mock.patch.object(repfn, "Counter",
                              wraps=repfn.Counter) as counter:
        got = f_collision_count(X, Y, Z)
    assert kernel.call_count + counter.call_count == 1
    return got, kernel.call_count == 1


@pytest.mark.parametrize("M, fits", [((1 << 30) - 1, True), (1 << 30, False)])
def test_f_collision_on_both_sides_of_the_packing_limit(M, fits):
    # the limit is the int kernel's char0 mul bound |x|, |y+z| < 2^31. With
    # E = M + 2^30, at 2^31 - 1 for the first M and at 2^31 for the second,
    # a sum y + z = +-E and an x = +-E each sit on the kernel's side of it
    # (fits) or on the exact Counter's. The triple with +-M(M+1) among its
    # products stays on the kernel's side for both M.
    C0 = GroundField.char0()
    E = M + (1 << 30)
    inside = (ElemSet(C0, [M, -M]), ElemSet(C0, [M, 1]), ElemSet(C0, [-1, 1]))
    edge = [(ElemSet(C0, [1, 3, -2]), ElemSet(C0, [M, 1, -M]),
             ElemSet(C0, [1 << 30, -(1 << 30), -1])),
            (ElemSet(C0, [E, -E, 2]), ElemSet(C0, [M, 1, -1]),
             ElemSet(C0, [-1, 1, 2])),
            (ElemSet(C0, [E, 1]), ElemSet(C0, [M, 1]), ElemSet(C0, [1 << 30]))]
    for sets, on_kernel in [(inside, True)] + [(e, fits) for e in edge]:
        got, kernel = collision_route(*sets)
        assert kernel == on_kernel
        assert got == counted_f_collision(*sets)


def collision_cases(F, order):
    """Random X with 0 in Y+Z, AP Y and Z, and a subgroup with two cosets,
    over the prime field F."""
    p = F.p
    H = subgroup_of_order(p, order)
    ap = ElemSet(F, range(1, 31))
    return [(random_set(F, 20, 1, lo=1),
             ElemSet(F, [1, 2, 5, 7, 11, 13]),
             ElemSet(F, [p - 1, p - 7, 3, 4, 9])),
            (random_set(F, 9, 2, lo=1), ap, ap),
            (H, ElemSet(F, [2 * h for h in H]), ElemSet(F, [3 * h for h in H]))]


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("p, order", [(101, 20), (P31, 31)])
def test_f_collision_kernel_on_forced_threads(p, order, threads):
    # the row split of X x (Y+Z) on 1, 2 and 3 threads, in pieces of at
    # most 64 values, counts what every triple gives
    for X, Y, Z in collision_cases(GroundField.prime(p), order):
        with forced_threads(threads):
            got, kernel = collision_route(X, Y, Z)
        assert kernel
        assert got == counted_f_collision(X, Y, Z)


@pytest.mark.parametrize("threads", [1, 2])
def test_f_collision_spectrum_fault_raises(threads):
    # a spectrum that lost one run no longer holds |X||Y||Z| triples
    real = repfn._region_spectrum

    def drop_one(piece):
        hist, long = real(piece)
        if long:
            return hist, long[1:]
        hist = hist.copy()
        hist[np.flatnonzero(hist)[-1]] -= 1
        return hist, long

    F = GroundField.prime(101)
    X, Y, Z = collision_cases(F, 20)[0]
    with forced_threads(threads), \
            mock.patch.object(repfn, "_region_spectrum", drop_one), \
            pytest.raises(ArithmeticError, match="spectrum mass"):
        f_collision_count(X, Y, Z)


def test_f_collision_peak_is_four_bytes_a_triple():
    # random 128^3 over F_p fills the row split's int32 table on every core:
    # 4 bytes a triple, the int64 sums, and per thread one row block of
    # products and the reducer's chunk buffers
    F = GroundField.prime(P31)
    X, Y, Z = (random_set(F, 128, seed, lo=1) for seed in (31, 32, 33))
    triples, sums = 128 ** 3, 128 ** 2
    assert triples >= repfn._PARALLEL_MIN
    got, peak = traced_peak(lambda: f_collision_count(X, Y, Z))
    buffers = repfn._threads() * (16 * repfn._BLOCK + 64 * repfn._CHUNK)
    assert peak <= 4 * triples + 8 * sums + buffers + (1 << 16)
    assert got == counted_f_collision(X, Y, Z)
