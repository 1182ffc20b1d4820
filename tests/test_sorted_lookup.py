"""`repfn._sorted_lookup` on both sides of its crossover.

Below `_LOOKUP_SORT_MIN` keys (or for keys flagged ascending) the keys are
searched in their own order; from there on they are argsorted, searched in
ascending order and scattered back. Both routes must give a valid idx
everywhere, the same hit as a plain searchsorted, and an exact idx where hit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import repfn
from sumprod.repfn import _LOOKUP_SORT_MIN, _sorted_lookup


def plain(arr, vals):
    """The unsorted route: searchsorted in key order, clipped to arr."""
    idx = np.searchsorted(arr, vals)
    np.clip(idx, 0, max(arr.size - 1, 0), out=idx)
    hit = arr[idx] == vals if arr.size else np.zeros(vals.shape, dtype=bool)
    return idx, hit


def check(arr, vals, ascending=False):
    idx, hit = _sorted_lookup(arr, vals, ascending)
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


SIZES = [1, 7, _LOOKUP_SORT_MIN - 1, _LOOKUP_SORT_MIN, _LOOKUP_SORT_MIN + 1,
         4 * _LOOKUP_SORT_MIN + 3]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("arr_size", [0, 1, 2, 50, 3000])
def test_matches_plain_search_1d(size, arr_size):
    rng = np.random.default_rng(size * 31 + arr_size)
    arr = np.unique(rng.integers(-10**6, 10**6, arr_size))
    vals = keys(rng, arr, size)
    check(arr, vals)
    check(arr, np.sort(vals), ascending=True)
    check(arr, np.sort(vals))  # sorted but not flagged


@pytest.mark.parametrize("shape", [(3, 5), (31, 33), (32, 32), (33, 32),
                                   (64, 65), (1, 2 * _LOOKUP_SORT_MIN),
                                   (2 * _LOOKUP_SORT_MIN, 1), (0, 40)])
def test_matches_plain_search_2d(shape):
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    arr = np.unique(rng.integers(0, 2**31 - 1, 700))
    vals = keys(rng, arr, shape[0] * shape[1]).reshape(shape)
    check(arr, vals)
    check(np.zeros(0, dtype=np.int64), vals)


@pytest.mark.parametrize("size", [_LOOKUP_SORT_MIN - 1, _LOOKUP_SORT_MIN])
def test_extremes_and_repeats(size):
    arr = np.asarray([-(2**62), -3, 0, 5, 2**62], dtype=np.int64)
    edge = [-(2**63), -(2**62) - 1, -(2**62), -4, -3, 0, 1, 5, 6, 2**62,
            2**63 - 1]
    vals = np.resize(np.asarray(edge, dtype=np.int64), size)
    check(arr, vals)
    check(arr, np.full(size, 5, dtype=np.int64))
    check(arr, np.full(size, 4, dtype=np.int64))
    check(arr, np.sort(vals), ascending=True)


def test_route_follows_the_crossover():
    # the argsort runs from _LOOKUP_SORT_MIN keys on, and never on keys
    # flagged ascending
    arr = np.arange(0, 4000, 3, dtype=np.int64)
    calls = []
    real = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(a.size)
        return real(a, *args, **kwargs)

    with mock.patch.object(repfn.np, "argsort", spy):
        for size in (_LOOKUP_SORT_MIN - 1, _LOOKUP_SORT_MIN):
            vals = np.arange(size, dtype=np.int64)[::-1].copy()
            check(arr, vals)
            check(arr, vals[::-1].copy(), ascending=True)
    assert calls == [_LOOKUP_SORT_MIN]


@settings(max_examples=60, deadline=None)
@given(arr=st.lists(st.integers(-50, 50), max_size=30, unique=True),
       vals=st.lists(st.integers(-60, 60), max_size=80),
       cols=st.sampled_from([1, 2, 4]))
def test_random_keys_either_route(arr, vals, cols):
    arr = np.asarray(sorted(arr), dtype=np.int64)
    vals = np.asarray(vals[:len(vals) // cols * cols], dtype=np.int64)
    vals = vals.reshape(-1, cols)
    for crossover in (0, 1 << 30):
        with mock.patch.object(repfn, "_LOOKUP_SORT_MIN", crossover):
            check(arr, vals)


def packing_grid(rows, cols, bits_left, fits, seed):
    """A grid whose keys span 2^bits_left - 2 values (the most that packs)
    or one more, with repeats of arr's values, the extremes and keys in
    between."""
    rng = np.random.default_rng(seed)
    span = (1 << bits_left) - 2 + (not fits)
    base = -(1 << 62) if bits_left > 62 else -(span // 3)
    arr = np.unique(np.concatenate((
        [base, base + span], base + rng.integers(0, span, 40, dtype=np.int64),
        [base + 1, base + span - 1])))
    grid = np.clip(rng.choice(np.concatenate((arr, arr + 1, arr - 1)),
                              size=(rows, cols)), base, base + span)
    grid[0, 0], grid[-1, -1] = base, base + span
    return arr, grid.astype(np.int64)


@pytest.mark.parametrize("rows", [1, 2, 3, 1000])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("fits", [True, False])
def test_hits_on_both_sides_of_the_packing_limit(rows, axis, fits):
    # keys packed with a k of `bits` bits must span at most 2^(63 - bits)
    # - 2 values; one more takes the lookup route, with the same counts
    size = rows if axis == 0 else 7
    bits = max(1, (size - 1).bit_length())
    arr, grid = packing_grid(rows, 7, 63 - bits, fits, rows * 10 + axis)
    want = np.isin(grid, arr).sum(axis=1 - axis)
    assert (repfn._packed_sort(grid.copy(), axis) is not None) == fits
    with mock.patch.object(repfn, "_sorted_lookup",
                           wraps=repfn._sorted_lookup) as lookup:
        got = repfn._hits_per(arr, grid.copy(), axis)
    assert (lookup.call_count == 0) == fits
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


@settings(max_examples=80, deadline=None)
@given(arr=st.lists(st.integers(-50, 50), max_size=30, unique=True),
       vals=st.lists(st.integers(-60, 60), min_size=1, max_size=80),
       cols=st.sampled_from([1, 2, 5]), axis=st.sampled_from([0, 1]))
def test_hits_per_random_keys(arr, vals, cols, axis):
    arr = np.asarray(sorted(arr), dtype=np.int64)
    grid = np.resize(np.asarray(vals, dtype=np.int64), (len(vals), cols))
    want = np.isin(grid, arr).sum(axis=1 - axis)
    assert repfn._hits_per(arr, grid.copy(), axis).tolist() == want.tolist()
