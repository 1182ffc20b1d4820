"""The lookup kernels: `repfn._sorted_lookup` and `repfn._in_grid`.

`_sorted_lookup` is one plain searchsorted: it must give a valid idx
everywhere, hit = vals in arr, and an exact idx where hit. `_in_grid`
answers which entries of a grid X ∘ Y lie in S: by one packed sort of the
keys with their flat index, by a plain searchsorted for int keys too far
apart to pack, and by the field's exact ops for every other input. Each
route must give the mask of the naive oracle.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import ElemSet, FieldMismatch, GroundField, repfn
from sumprod.families import prime_with_subgroup, subgroup_of_order
from sumprod.repfn import OPS, _in_grid, _sorted_lookup

from oracles import naive_membership_counts

C0 = GroundField.char0()


def plain(arr, vals):
    """searchsorted in key order, clipped to arr, written out."""
    idx = np.searchsorted(arr, vals)
    np.clip(idx, 0, max(arr.size - 1, 0), out=idx)
    hit = arr[idx] == vals if arr.size else np.zeros(vals.shape, dtype=bool)
    return idx, hit


def check(arr, vals):
    idx, hit = _sorted_lookup(arr, vals)
    assert idx.shape == hit.shape == vals.shape
    assert idx.dtype == np.intp and hit.dtype == bool
    want_idx, want_hit = plain(arr, vals)
    assert np.array_equal(hit, want_hit)
    assert np.array_equal(hit, np.isin(vals, arr))
    if arr.size == 0:
        assert not idx.any()
        return
    assert ((idx >= 0) & (idx < arr.size)).all()
    assert np.array_equal(arr[idx[hit]], vals[hit])
    # arr holds distinct values, so a hit has exactly one index
    assert np.array_equal(idx[hit], want_idx[hit])


def keys(rng, arr, size):
    """Keys from arr, from between its values, below its min and above its
    max, with repeats."""
    lo, hi = (int(arr[0]), int(arr[-1])) if arr.size else (0, 100)
    pool = np.concatenate([arr, arr + 1, [lo - 5, lo - 1, hi + 1, hi + 7]])
    return rng.choice(pool, size=size).astype(np.int64)


SIZES = [1, 7, 1023, 1024, 1025, 4099]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("arr_size", [0, 1, 2, 50, 3000])
def test_matches_plain_search_1d(size, arr_size):
    rng = np.random.default_rng(size * 31 + arr_size)
    arr = np.unique(rng.integers(-10**6, 10**6, arr_size))
    vals = keys(rng, arr, size)
    check(arr, vals)
    check(arr, np.sort(vals))


@pytest.mark.parametrize("shape", [(3, 5), (31, 33), (32, 32), (33, 32),
                                   (64, 65), (1, 2048), (2048, 1), (0, 40)])
def test_matches_plain_search_2d(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    arr = np.unique(rng.integers(0, 2**31 - 1, 700))
    vals = keys(rng, arr, shape[0] * shape[1]).reshape(shape)
    check(arr, vals)
    check(np.zeros(0, dtype=np.int64), vals)


@pytest.mark.parametrize("size", [1023, 1024])
def test_extremes_and_repeats(size):
    arr = np.asarray([-(2**62), -3, 0, 5, 2**62], dtype=np.int64)
    edge = [-(2**63), -(2**62) - 1, -(2**62), -4, -3, 0, 1, 5, 6, 2**62,
            2**63 - 1]
    vals = np.resize(np.asarray(edge, dtype=np.int64), size)
    check(arr, vals)
    check(arr, np.full(size, 5, dtype=np.int64))
    check(arr, np.full(size, 4, dtype=np.int64))
    check(arr, np.sort(vals))


@pytest.mark.parametrize("size", [1023, 1024])
def test_descending_keys(size):
    arr = np.arange(0, 4000, 3, dtype=np.int64)
    vals = np.arange(size, dtype=np.int64)[::-1].copy()
    check(arr, vals)
    check(arr, vals[::-1].copy())


def oracle(X, Y, op, S):
    """mask[i][j] = X[i] op Y[j] in S by the field's ops; False for a
    zero denominator."""
    f = X.field
    fop = getattr(f, op)
    return np.asarray([[not (op == "div" and y == 0) and fop(x, y) in S
                        for y in Y] for x in X],
                      dtype=bool).reshape(len(X), len(Y))


def check_mask(X, Y, op, S):
    got = _in_grid(X, Y, op, S)
    assert got.dtype == bool and got.shape == (len(X), len(Y))
    assert np.array_equal(got, oracle(X, Y, op, S))
    assert got.sum(axis=1).tolist() == naive_membership_counts(X, Y, S, op)
    return got


def grid_isin(X, Y, op, S):
    """np.isin of the int grid, with a 0 of Y left out of a div grid and
    given back as a False column."""
    y = Y.ints[Y.ints != 0] if op == "div" else Y.ints
    want = np.isin(repfn._grid(X.ints, y, op, X.field.p), S.ints)
    if op == "div" and 0 in Y:
        want = np.pad(want, ((0, 0), (1, 0)))
    return want


FIELDS = [GroundField.prime(101), GroundField.prime(2**31 - 1), C0]


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("field", FIELDS, ids=["F101", "F2^31-1", "char0"])
def test_in_grid_matches_isin_and_oracle(field, op):
    rng = np.random.default_rng(OPS.index(op))
    top = 60 if field.is_prime_mode and field.p == 101 else 10**6
    for trial in range(6):
        xs = rng.integers(0 if field.is_prime_mode else -top, top, 40)
        ys = rng.integers(0 if field.is_prime_mode else -top, top, 30)
        X, Y = ElemSet(field, xs.tolist()), ElemSet(field, ys.tolist())
        prods = [getattr(field, op)(int(x), int(y))
                 for x in xs[:20] for y in ys[:20]
                 if not (op == "div" and field.canonical(int(y)) == 0)]
        S = ElemSet(field, prods + rng.integers(-top, top, 20).tolist())
        got = check_mask(X, Y, op, S)
        if repfn._int_fast_ok(field, op, X.ints, Y.ints):
            assert np.array_equal(got, grid_isin(X, Y, op, S))
        assert got.any()


@pytest.mark.parametrize("op", OPS)
def test_in_grid_zero_in_both_sides(op):
    # a div grid leaves y = 0 out (no inverse is taken of it) and gives it
    # back as a False column; 0 / y = 0 stays a key
    F = GroundField.prime(101)
    X, Y = ElemSet(F, [0, 1, 5, 77]), ElemSet(F, [0, 2, 3, 50])
    S = ElemSet(F, [0, 2, 10, 51, 81])
    with mock.patch.object(repfn, "_inverses",
                           wraps=repfn._inverses) as inverses:
        got = check_mask(X, Y, op, S)
    assert np.array_equal(got, grid_isin(X, Y, op, S))
    if op == "div":
        assert not got[:, 0].any() and got[0, 1:].all()
        assert inverses.call_count == 1
        assert 0 not in inverses.call_args.args[0]
        only = _in_grid(X, ElemSet(F, [0]), op, S)
        assert only.shape == (4, 1) and not only.any()


@pytest.mark.parametrize("sets", [
    [1, 2, 3], [0, 1, Fraction(1, 2)]], ids=["int", "rational"])
@pytest.mark.parametrize("op", ["pow", "", "ADD"])
def test_in_grid_refuses_an_unknown_op(sets, op):
    # the operand front checks the op before any route is chosen
    F = C0 if Fraction(1, 2) in sets else GroundField.prime(101)
    X = ElemSet(F, sets)
    with pytest.raises(ValueError, match=f"^unknown operator {op!r}$"):
        _in_grid(X, X, op, X)


@pytest.mark.parametrize("other", [GroundField.prime(103), C0])
@pytest.mark.parametrize("side", ["X", "Y", "S"])
@pytest.mark.parametrize("op", OPS)
def test_in_grid_refuses_sets_over_another_field(op, side, other):
    # X, Y and the looked-up S must share one field, on every route
    sets = {name: ElemSet(GroundField.prime(101), [0, 1, 2, 3])
            for name in "XYS"}
    sets[side] = ElemSet(other, [0, 1, 2, 3])
    with pytest.raises(FieldMismatch, match="^field mismatch: "):
        _in_grid(sets["X"], sets["Y"], op, sets["S"])


@pytest.mark.parametrize("op", OPS)
def test_in_grid_object_route_on_rationals(op):
    X = ElemSet(C0, [Fraction(1, 2), 0, 3, Fraction(-5, 3)])
    Y = ElemSet(C0, [Fraction(3, 2), 0, 1, 2])
    S = ElemSet(C0, [Fraction(3, 4), 2, Fraction(5, 2), 0, Fraction(1, 4),
                     Fraction(1, 3), Fraction(-1, 6), 3, Fraction(-10, 3)])
    with mock.patch.object(repfn, "_grid", wraps=repfn._grid) as grid:
        got = check_mask(X, Y, op, S)
    assert grid.call_count == 0 and got.any()
    # int sets take the object route where the op is inexact in int64
    Xi, Yi = ElemSet(C0, [1, 2, 6]), ElemSet(C0, [0, 2, 3])
    Si = ElemSet(C0, [2, 3, Fraction(1, 2), Fraction(2, 3)])
    check_mask(Xi, Yi, op, Si)


@pytest.mark.parametrize("op", OPS)
@pytest.mark.parametrize("field, some", [
    (GroundField.prime(101), [1, 2, 3]), (C0, [1, 2, 3]),
    (C0, [1, 2, Fraction(1, 2)])], ids=["F101", "char0", "char0-rational"])
def test_in_grid_empty_sides(field, some, op):
    full, empty = ElemSet(field, some), ElemSet(field, [])
    for X, Y, S in [(empty, full, full), (full, empty, full),
                    (full, full, empty), (empty, empty, empty)]:
        got = _in_grid(X, Y, op, S)
        assert got.dtype == bool and got.shape == (len(X), len(Y))
        assert not got.any()


@pytest.mark.parametrize("hits", [0, 1, 5, 6, 9, 10])
def test_in_grid_on_both_sides_of_half_hits(hits):
    # up to half of the keys hit, the hits are marked; past half, the
    # misses are; 10 keys x + 10y in one grid of two columns
    X, Y = ElemSet(C0, range(5)), ElemSet(C0, [0, 10])
    S = ElemSet(C0, [k if k < 5 else k + 5 for k in range(hits)])
    got = check_mask(X, Y, "add", S)
    assert int(got.sum()) == hits


def test_in_grid_subgroup_grid_is_all_hits():
    H = subgroup_of_order(prime_with_subgroup(64), 64)
    for op in ("mul", "div"):
        assert check_mask(H, H, op, H).all()


def spread(rng, n, top):
    """n distinct ints in [0, top] holding 0 and top (n = 1: {0}, top 0)."""
    vals = {0, top}
    while len(vals) < n:
        vals.add(int(rng.integers(0, top + 1)))
    return sorted(vals)


def packing_grid(rows, cols, bits_left, fits, seed):
    """Char0 sets X (rows values) and Y (cols values) whose sums X + Y span
    2^bits_left - 2 values (the most that packs) or one more, and S holding
    sums, their neighbours and both extremes."""
    rng = np.random.default_rng(seed)
    span = (1 << bits_left) - 2 + (not fits)
    base = -(span // 3)
    dx = 0 if rows == 1 else span if cols == 1 else span // 2
    X = ElemSet(C0, [base + v for v in spread(rng, rows, dx)])
    Y = ElemSet(C0, spread(rng, cols, span - dx))
    sums = (X.ints[:, None] + Y.ints[None, :]).ravel()
    picked = rng.choice(sums, size=min(40, sums.size), replace=False)
    S = ElemSet(C0, [base, base + span, base - 1, base + span + 1,
                     *picked.tolist(), *(picked + 1).tolist()])
    return S, X, Y


@pytest.mark.parametrize("rows", [1, 2, 3, 1000])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("fits", [True, False])
def test_hits_on_both_sides_of_the_packing_limit(rows, axis, fits):
    # keys packed with a flat index of `bits` bits must span at most
    # 2^(63 - bits) - 2 values; one more takes the plain searchsorted, with
    # the same mask. axis 1 puts the `rows` values on the Y side.
    shape = (rows, 7) if axis == 0 else (7, rows)
    bits = max(1, (rows * 7 - 1).bit_length())
    S, X, Y = packing_grid(*shape, 63 - bits, fits, rows * 10 + axis)
    assert int(X.ints[-1] + Y.ints[-1] - X.ints[0] - Y.ints[0]) == \
        (1 << (63 - bits)) - 2 + (not fits)
    packed = []
    real = repfn._packed_sort

    def spy(grid):
        out = real(grid)
        packed.append(out is not None)
        return out

    with mock.patch.object(repfn, "_packed_sort", spy), \
            mock.patch.object(repfn, "_sorted_lookup",
                              wraps=repfn._sorted_lookup) as lookup:
        got = _in_grid(X, Y, "add", S)
    assert packed == [fits]
    assert lookup.call_count == (not fits)
    want = np.isin(X.ints[:, None] + Y.ints[None, :], S.ints)
    assert got.shape == shape and np.array_equal(got, want)
    assert got[0, 0] and got[-1, -1]


@settings(max_examples=60, deadline=None)
@given(arr=st.lists(st.integers(-50, 50), max_size=30, unique=True),
       vals=st.lists(st.integers(-60, 60), max_size=80),
       cols=st.sampled_from([1, 2, 4]))
def test_random_keys_either_route(arr, vals, cols):
    # the same keys through the plain search, and through `_in_grid` as a
    # grid vals + {0, 1, 3, 7}[:cols] on the packed and the plain route
    arr = np.asarray(sorted(arr), dtype=np.int64)
    flat = np.asarray(vals[:len(vals) // cols * cols], dtype=np.int64)
    check(arr, flat.reshape(-1, cols))
    X, Y = ElemSet(C0, vals), ElemSet(C0, [0, 1, 3, 7][:cols])
    want = np.isin(X.ints[:, None] + Y.ints[None, :], arr)
    S = ElemSet(C0, arr.tolist())
    assert np.array_equal(_in_grid(X, Y, "add", S), want)
    with mock.patch.object(repfn, "_packed_sort", lambda grid: None):
        assert np.array_equal(_in_grid(X, Y, "add", S), want)


element = st.one_of(st.integers(-12, 12),
                    st.fractions(-3, 3, max_denominator=3))


@settings(max_examples=150, deadline=None)
@given(xs=st.lists(element, max_size=8), ys=st.lists(element, max_size=8),
       ss=st.lists(element, max_size=12), op=st.sampled_from(OPS),
       prime=st.booleans())
def test_in_grid_random_keys(xs, ys, ss, op, prime):
    if prime:
        field = GroundField.prime(13)
        xs, ys, ss = ([int(v) for v in vs] for vs in (xs, ys, ss))
    else:
        field = C0
    X, Y, S = (ElemSet(field, v) for v in (xs, ys, ss))
    check_mask(X, Y, op, S)
