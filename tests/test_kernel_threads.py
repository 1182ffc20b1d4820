"""The int pair kernel split over several threads.

Tables below repfn._PARALLEL_MIN pairs, and every table on a one-core
machine, fill, sort and reduce on one thread; these tests lower the
threshold to 0 and ask for 2, 3 or 5 threads (3 and 5 split the rows
unevenly), so that tiny tables take the threaded path too. They also shrink
repfn._CHUNK, so that each worker reduces its slice in several pieces.
"""

import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from sumprod import (ElemSet, GroundField, RepFn, combine, count_spectrum,
                     rep_function)
from sumprod import repfn
from sumprod.families import subgroup_of_order
from sumprod.repfn import _object_table, _sort_reduce

from conftest import (P31, forced_threads, pair_table_case, random_set,
                      self_table_case, table_and_half, traced_peak)

REDUCTIONS = ("support", "rep", "spectrum", "level")


def repeated(hist):
    """The band of the "level" reduction: every value hit twice or more."""
    return 2, hist.size


def int_arrays(out):
    """The int64 arrays of a `repfn._table` result."""
    if isinstance(out, RepFn):
        return [out.values, out.counts]
    if isinstance(out, ElemSet):
        return [out.ints]
    if isinstance(out, tuple):  # "level": (hist, S)
        return [out[0], out[1].ints]
    return [out]


def results(A, B, op):
    """rep_function, count_spectrum and combine of A∘B, as plain lists."""
    r = rep_function(A, B, op)
    if isinstance(r.values, np.ndarray):
        assert r.values.dtype == r.counts.dtype == np.int64
    spectrum = count_spectrum(A, B, op)
    assert spectrum.dtype == np.int64
    support = combine(A, B, op)
    if support.ints is not None:
        assert support.ints.dtype == np.int64
    return r.to_dict(), spectrum.tolist(), sorted(support.elements())


def check_against_object_path(A, B, op):
    pairs = _object_table(A, B.remove_zero() if op == "div" else B, op)
    assert rep_function(A, B, op).to_dict() == dict(pairs)
    want = np.bincount(np.asarray(list(pairs.values()), dtype=np.int64),
                       minlength=1)
    assert count_spectrum(A, B, op).tolist() == want.tolist()
    assert combine(A, B, op) == ElemSet(A.field, pairs.keys())


@pytest.mark.parametrize("threads", [2, 3])
@settings(max_examples=150, deadline=None)
@given(case=self_table_case())
def test_threaded_self_tables_match_object_path(threads, case):
    with forced_threads(threads):
        check_against_object_path(*case)


@pytest.mark.parametrize("threads", [2, 3])
@settings(max_examples=150, deadline=None)
@given(case=pair_table_case())
def test_threaded_pair_tables_match_object_path(threads, case):
    with forced_threads(threads):
        check_against_object_path(*case)


# char0 div tables take the object path
ARRAY_CASES = [(field, n, m, op) for field, n, m in [
    (GroundField.prime(101), 90, 40),  # many repeated values
    (GroundField.prime(65537), 300, 170),
    (GroundField.prime(P31), 300, 170),
    (GroundField.char0(), 300, 170)]
    for op in ["add", "sub", "mul", "div"]
    if field.is_prime_mode or op != "div"]


@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("field,n,m,op", ARRAY_CASES)
@pytest.mark.parametrize("shape", ["same", "copy", "rect"])
def test_threaded_arrays_equal_one_thread(threads, field, n, m, op, shape):
    A = random_set(field, n, seed=1, lo=1)
    B = {"same": A, "copy": ElemSet(field, list(A)),
         "rect": random_set(field, m, seed=2, lo=1)}[shape]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the workers' row blocks
    try:
        for reduce in REDUCTIONS:
            # small row blocks, so that each thread's range spans several
            with forced_threads(1, block=1000):
                one, one_half = table_and_half(A, B, op, reduce, repeated)
            with forced_threads(threads, block=1000), mock.patch.object(
                    repfn, "ThreadPoolExecutor",
                    wraps=ThreadPoolExecutor) as pool:
                many, many_half = table_and_half(A, B, op, reduce, repeated)
            assert pool.call_args == mock.call(threads)
            assert many_half == one_half
            outputs = list(zip(int_arrays(many), int_arrays(one)))
            assert len(outputs) == (2 if reduce in ("rep", "level") else 1)
            for got, want in outputs:
                assert got.dtype == want.dtype == np.int64
                assert np.array_equal(got, want)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("flat", [
    [], [7], [4] * 5, [1, 1, 1, 2, 3, 5, 5], [-9, 0, 0, 0, 6]])
def test_rle(dtype, flat):
    # every split of the table into two or three slices, reduced in pieces
    # of at most two values
    want = Counter(flat)
    size = len(flat)
    splits = [[0, size]] + [[0, i, j, size] for i in range(size + 1)
                            for j in range(i, size + 1)]
    for edges in splits:
        # partitioned at the edges, each slice in reverse order
        table = np.sort(np.asarray(flat, dtype=dtype))
        for lo, hi in zip(edges[:-1], edges[1:]):
            table[lo:hi] = table[lo:hi][::-1].copy()
        with mock.patch.object(repfn, "_CHUNK", 2):
            rep = _sort_reduce(table.copy(), edges, "rep", None, map)
            support = _sort_reduce(table.copy(), edges, "support", None, map)
            hist = _sort_reduce(table.copy(), edges, "spectrum", None,
                                map).hist
            levels = {band: _sort_reduce(table.copy(), edges, "level", None,
                                         map, lambda h, band=band: band)
                      for band in [(1, 2), (2, 4), (3, 9), (1, 9), (6, 9)]}
        vals, counts = rep.values, rep.counts
        assert vals.dtype == counts.dtype == support.values.dtype == np.int64
        assert vals.tolist() == support.values.tolist() == sorted(want)
        assert counts.tolist() == [want[v] for v in sorted(want)]
        assert support.counts is None
        assert hist.tolist() == np.bincount(list(want.values()),
                                            minlength=2).tolist()
        # every reduction carries the trimmed histogram
        trimmed = np.bincount(list(want.values()), minlength=1).tolist()
        assert rep.hist.tolist() == support.hist.tolist() == trimmed
        for (lo, hi), level in levels.items():
            assert level.values.dtype == np.int64
            assert level.values.tolist() == [v for v in sorted(want)
                                             if lo <= want[v] < hi]
            assert level.hist.tolist() == trimmed


# p = 101, n = 90: nearly every value repeats, so runs cross every cut
SEAM_CASES = {
    "self": lambda F: (random_set(F, 90, seed=7),) * 2,
    "rect": lambda F: (random_set(F, 90, seed=7), random_set(F, 60, seed=8)),
    # every ratio of a coset of the subgroup of order 50 is hit 50 times
    "coset": lambda F: (ElemSet(F, [3 * h % 101 for h in
                                    subgroup_of_order(101, 50)]),) * 2,
    # one value, 0, spans every slice
    "zero": lambda F: (ElemSet(F, [0]), random_set(F, 90, seed=7)),
    # fewer pairs than threads leave slices empty
    "tiny": lambda F: (ElemSet(F, [5]), ElemSet(F, [7, 9])),
    "tiny-self": lambda F: (ElemSet(F, [5, 9]),) * 2,
}


@pytest.mark.parametrize("threads", [2, 3, 5])
@pytest.mark.parametrize("case", sorted(SEAM_CASES))
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
@pytest.mark.parametrize("chunk", [1, 4, repfn._CHUNK])
def test_seams_match_object_path_and_one_thread(threads, case, op, chunk):
    F = GroundField.prime(101)
    A, B = SEAM_CASES[case](F)
    pairs = _object_table(A, B.remove_zero() if op == "div" else B, op)
    want = (dict(pairs),
            np.bincount(np.asarray(list(pairs.values()), dtype=np.int64),
                        minlength=1).tolist(),
            sorted(pairs))
    # the log path of div spectra runs at every table size here
    with mock.patch.multiple(repfn, _LOG_MIN=0, _LOG_SIDE=0):
        with forced_threads(1, chunk=chunk):
            one = results(A, B, op)
        with forced_threads(threads, chunk=chunk):
            many = results(A, B, op)
    assert many == one == want


@pytest.mark.parametrize("threads", [1, 2])
def test_peak_memory_is_table_plus_outputs(threads):
    # about 2*10^6 pairs: the int32 table and the int64 outputs are the
    # floor, and every other buffer scales with the row block or the chunk,
    # not with the table (a table-sized bool mask alone would add 1.9 MiB).
    # A spectrum holds no table: one value bucket per thread, its gather
    # buffers and the operands' sorted copies.
    F = GroundField.prime(P31)
    A = random_set(F, 2000, seed=21)
    B = random_set(F, 1000, seed=22)
    piece, bucket = 1 << 12, 1 << 15
    slack = (1 << 16) + threads * 32 * piece
    with forced_threads(threads, block=piece, chunk=piece):
        S, peak = traced_peak(lambda: combine(A, A, "add"))
        assert peak <= 4 * (2000 * 2001 // 2) + 8 * len(S) + slack
        r, peak = traced_peak(lambda: rep_function(A, B, "sub"))
        assert peak <= 4 * 2000 * 1000 + 16 * len(r) + slack
        with mock.patch.multiple(repfn, _BUCKET=bucket, _GATHER=piece):
            hist, peak = traced_peak(lambda: count_spectrum(A, B, "sub"))
        assert peak <= threads * (4 * bucket + 64 * piece) \
            + 32 * (2000 + 1000) + 8 * hist.size + slack


# name -> (A, its table's int64 slots, what the result holds per value):
# a half add table of n(n+1)/2 pairs, a mirrored half sub table of
# N = n(n-1)/2 pairs (2N + 1 slots), and the full n^2 add rep table of an
# AP, whose 2n - 1 values, with their counts, are a small share of the
# slots
MEMORY_CASES = {
    "add": lambda F: (random_set(F, 2000, seed=21), 2000 * 2001 // 2, 8),
    "sub": lambda F: (random_set(F, 2000, seed=22), 2000 * 1999 + 1, 8),
    "ap-rep": lambda F: (ElemSet(F, range(0, 6000, 3)), 2000 * 2000, 16),
}


@pytest.mark.parametrize("case", MEMORY_CASES)
@pytest.mark.parametrize("threads", [1, 2])
def test_support_is_written_over_its_table(threads, case):
    # about 2*10^6 pairs: the int32 half table is sorted in the top bytes of
    # its int64 output, one slot per pair (2N + 1 for a mirrored half sub
    # table), and the support is written over it, so the peak is that
    # buffer, not the table plus the support; what the result holds after
    # the shrink is its values (and counts) alone
    F = GroundField.prime(P31)
    A, slots, per_value = MEMORY_CASES[case](F)
    op = "sub" if case == "sub" else "add"
    piece = 1 << 12
    slack = (1 << 16) + threads * 32 * piece
    tracemalloc.start()
    try:
        with forced_threads(threads, block=piece, chunk=piece):
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            if case == "ap-rep":
                S = rep_function(A, A, op)
            else:
                S = combine(A, A, op)
            now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    values = S.values if case == "ap-rep" else S.ints
    # the values are in the slots; a rep table's counts come on top
    assert peak - held <= 8 * slots + (per_value - 8) * values.size + slack
    assert now - held <= per_value * values.size + slack
    a = A.ints[:, None]
    want = np.unique((a - A.ints if op == "sub" else a + A.ints) % P31)
    assert values.tolist() == want.tolist()
