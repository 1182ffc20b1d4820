"""Free heap handed back to the system before every large pair table.

Each int-kernel table or grid of at least repfn._PARALLEL_MIN pairs first
calls `repfn._release_heap`, which runs glibc's `malloc_trim(0)` where the
C library has it and does nothing elsewhere. These tests count the calls
on every route a table takes, check the no-op, and on Linux with glibc
measure that freed heap left resident by earlier arrays is given back.
"""

import os
import subprocess
import sys
import textwrap
from unittest import mock

import pytest

import sumprod
from sumprod import (ElemSet, GroundField, combine, count_spectrum,
                     f_collision_count, rep_function, repfn)
from sumprod.energy import dyadic_slice

from conftest import P31, random_set

FP = GroundField.prime(P31)
T = 600  # repfn._PARALLEL_MIN in these tests
ONE = ElemSet(FP, [1])

# name -> (call, set sizes of a table of at least T pairs, of one below)
CASES = {
    "support": (lambda X, Y: combine(X, Y, "add"), (24, 25), (24, 24)),
    # a half table: 630 and 595 pairs
    "self-support": (lambda X: combine(X, X, "add"), (35,), (34,)),
    "rep": (lambda X, Y: rep_function(X, Y, "mul"), (24, 25), (24, 24)),
    # value buckets
    "spectrum": (lambda X, Y: count_spectrum(X, Y, "sub"), (24, 25),
                 (24, 24)),
    "level": (lambda X, Y: dyadic_slice(X, Y, 2), (24, 25), (24, 24)),
    # over discrete logs
    "div": (lambda X, Y: count_spectrum(X, Y, "div"), (24, 25), (24, 24)),
    # the spectrum of X x (Y + {1})
    "collision": (lambda X, Y: f_collision_count(X, Y, ONE), (24, 25),
                  (24, 24)),
    "grid": (lambda X, Y: repfn._in_grid(X, Y, "add", X), (24, 25),
             (24, 24)),
}


@pytest.mark.parametrize("large", [True, False])
@pytest.mark.parametrize("case", CASES)
def test_heap_is_released_once_per_large_table(case, large):
    call, big, small = CASES[case]
    sets = [random_set(FP, n, seed=i, lo=1)
            for i, n in enumerate(big if large else small)]
    with mock.patch.multiple(repfn, _PARALLEL_MIN=T, _LOG_MIN=0,
                             _LOG_SIDE=1), \
            mock.patch.object(repfn, "_release_heap") as release:
        call(*sets)
    assert release.call_count == int(large)


def test_release_heap_is_a_no_op_without_malloc_trim():
    repfn._malloc_trim.cache_clear()
    try:
        # musl and macOS: a C library without the symbol
        with mock.patch.object(repfn.ctypes, "CDLL", return_value=object()):
            assert repfn._malloc_trim() is None
            repfn._release_heap()
        repfn._malloc_trim.cache_clear()
        with mock.patch.object(repfn.os, "name", "nt"):
            assert repfn._malloc_trim() is None
            repfn._release_heap()
    finally:
        repfn._malloc_trim.cache_clear()


# frees a 31 MiB array, which raises glibc's mmap threshold to its size,
# then 40 arrays of 1 MiB, which came from the heap and stay resident; a
# combine of 2,098,176 pairs (a half add table) must give them back
_RETAINED = textwrap.dedent("""
    import os
    import numpy as np
    from sumprod import ElemSet, GroundField, combine

    def rss():
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    A = ElemSet(GroundField.prime(2**31 - 1), range(0, 3 * 2048, 3))
    big = np.ones(31 << 17)
    del big
    small = [np.ones(1 << 17) for _ in range(40)]
    del small
    before = rss()
    S = combine(A, A, "add")
    assert len(S) == 4095
    print(before, rss())
""")


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or repfn._malloc_trim() is None,
                    reason="needs Linux with glibc's malloc_trim")
def test_large_table_hands_freed_heap_back():
    src = os.path.dirname(os.path.dirname(sumprod.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _RETAINED], env=env,
                         capture_output=True, text=True, timeout=120,
                         check=True).stdout
    before, after = map(int, out.split())
    # without the trim RSS rose by the table's touched pages (about 3 MiB)
    assert before - after >= 20 << 20, (before, after)
