from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sumprod import (ElemSet, GroundField, bilinear_count, count_energy_equiv,
                     f_collision_count, tautological_count)

from sumprod import counting, repfn
from sumprod.counting import _pair_popularity_square_sum
from sumprod.families import subgroup_of_order

from conftest import P31, edge_values, pair_popularity_case, pair_table_case
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



@pytest.mark.parametrize("M, fits", [((1 << 30) - 1, True), (1 << 30, False)])
def test_f_collision_on_both_sides_of_the_packing_limit(M, fits):
    # four sums y + z pack their index in 2 bits, so the products x(y+z)
    # must span fewer than 2^61 - 1 values: +-M(M+1) spans 2^61 - 2^31 for
    # M = 2^30 - 1, and 2^61 + 2^31 for M = 2^30, which takes the exact
    # Counter route
    C0 = GroundField.char0()
    X, Y, Z = ElemSet(C0, [M, -M]), ElemSet(C0, [M, 1]), ElemSet(C0, [-1, 1])
    routes = []
    real = counting._packed_sort

    def spy(grid):
        out = real(grid)
        routes.append(out is not None)
        return out

    with mock.patch.object(counting, "_packed_sort", spy), \
            mock.patch.object(counting, "Counter",
                              wraps=counting.Counter) as counter:
        got = f_collision_count(X, Y, Z)
    assert routes == [fits]
    assert counter.call_count == (not fits)
    assert got == counted_f_collision(X, Y, Z)
