"""The int pair kernel split over several threads.

Tables below repfn._PARALLEL_MIN pairs, and every table on a one-core
machine, fill and sort on one thread; these tests lower the threshold to 0
and ask for 2 or 3 threads (3 splits the rows unevenly), so that tiny tables
take the threaded path too.
"""

import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from sumprod import ElemSet, GroundField, combine, count_spectrum, rep_function
from sumprod import repfn
from sumprod.repfn import _flat_sorted_int, _object_table, _rle

from conftest import P31, pair_table_case, random_set, self_table_case


def forced_threads(threads, block=repfn._BLOCK):
    return mock.patch.multiple(repfn, _threads=lambda: threads,
                               _PARALLEL_MIN=0, _BLOCK=block)


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
        for support in (False, True):
            # small row blocks, so that each thread's range spans several
            with forced_threads(1, block=1000):
                one, one_half = _flat_sorted_int(A, B, op, support)
            with forced_threads(threads, block=1000), mock.patch.object(
                    repfn, "ThreadPoolExecutor",
                    wraps=ThreadPoolExecutor) as pool:
                many, many_half = _flat_sorted_int(A, B, op, support)
            assert pool.call_args == mock.call(threads)
            assert many_half == one_half
            assert many.dtype == one.dtype
            assert np.array_equal(many, one)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("flat", [
    [], [7], [4] * 5, [1, 1, 1, 2, 3, 5, 5], [-9, 0, 0, 0, 6]])
def test_rle(dtype, flat):
    vals, counts = _rle(np.asarray(flat, dtype=dtype))
    want = Counter(flat)
    assert vals.dtype == np.int64 and counts.dtype == np.int64
    assert vals.tolist() == sorted(want)
    assert counts.tolist() == [want[v] for v in sorted(want)]
