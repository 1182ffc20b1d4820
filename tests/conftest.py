import contextlib
import random
import re
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import strategies as st

from sumprod import ElemSet, GroundField, repfn

P31 = 2**31 - 1

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    # one human-readable verdict line per acceptance criterion, emitted
    # outside per-test capture so it always reaches the terminal
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if m:
        num, name = m.group(1), m.group(2)
        verdict = "PASS" if report.outcome == "passed" else "FAIL"
        print(f"\ncriterion {num} ({name}): {verdict}", flush=True)


def forced_threads(threads, block=repfn._BLOCK, chunk=64):
    """Run the int pair kernel's threaded path on `threads` threads at every
    table size, reducing in pieces of at most `chunk` values."""
    return mock.patch.multiple(repfn, _threads=lambda: threads,
                               _PARALLEL_MIN=0, _BLOCK=block, _CHUNK=chunk)


def table_and_half(A, B, op, reduce, band=None):
    """(repfn._table(A, B, op, reduce, band), the half flag of the one int
    kernel build it makes)."""
    with mock.patch.object(repfn, "_sorted_table",
                           wraps=repfn._sorted_table) as kernel:
        out = repfn._table(A, B, op, reduce, band)
    (half,) = [call.args[4] for call in kernel.call_args_list]
    return out, half


@contextlib.contextmanager
def sorted_tables():
    """Record the size of each table the row split sorts and reduces
    (`repfn._sort_reduce`); yields the list of sizes. No view of a table is
    kept: a support's buffer is shrunk after the call, which a held view
    would block."""
    sizes = []
    real = repfn._sort_reduce

    def spy(flat, *args):
        sizes.append(flat.size)
        return real(flat, *args)

    with mock.patch.object(repfn, "_sort_reduce", spy):
        yield sizes


def traced_peak(fn):
    """(fn(), peak bytes traced above the bytes held before the call)."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.fixture
def c0():
    return GroundField.char0()


@pytest.fixture
def fp():
    return GroundField.prime(P31)


def random_set(field: GroundField, n: int, seed: int, lo: int = 0,
               hi: int = None) -> ElemSet:
    rng = random.Random(seed)
    if field.is_prime_mode:
        hi = hi if hi is not None else field.p
        return ElemSet(field, rng.sample(range(lo, hi), n))
    hi = hi if hi is not None else max(1000, 100 * n * n)
    return ElemSet(field, rng.sample(range(lo, hi), n))


_EDGE_FIELDS = (GroundField.prime(3), GroundField.prime(101),
                GroundField.prime(P31), GroundField.char0())


def edge_values(field: GroundField, edges=()):
    """Values next to 0 and p in prime mode, so that sums and differences
    wrap; in char0, small values and values next to each bound in `edges`,
    on both sides and with both signs."""
    if field.is_prime_mode:
        p = field.p
        return st.integers(0, min(p - 1, 40)) | \
            st.integers(max(0, p - 40), p - 1)
    value = st.integers(-20, 20)
    for edge in edges:
        value = value | st.builds(lambda sign, k, e=edge: sign * (e + k),
                                  st.sampled_from([1, -1]),
                                  st.integers(-6, 1))
    return value


@st.composite
def self_table_case(draw):
    """(A, B, op) with B equal to A in content, as A itself or as a copy.

    Char0 values sit next to the int fast-path bounds (2^31 for mul, 2^61
    for add/sub). 0 and the empty set are drawn too.
    """
    field = draw(st.sampled_from(_EDGE_FIELDS))
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    value = edge_values(field, [1 << (31 if op == "mul" else 61)])
    A = ElemSet(field, draw(st.lists(value, max_size=12)))
    B = A if draw(st.booleans()) else ElemSet(field, list(A))
    return A, B, op


@st.composite
def pair_table_case(draw):
    """(A, B, op) with A and B drawn apart, usually of different sizes.

    Values are drawn as in `self_table_case`; 0 and empty sets occur.
    """
    field = draw(st.sampled_from(_EDGE_FIELDS))
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    value = edge_values(field, [1 << (31 if op == "mul" else 61)])
    A = ElemSet(field, draw(st.lists(value, max_size=12)))
    B = ElemSet(field, draw(st.lists(value, max_size=12)))
    return A, B, op


@st.composite
def membership_case(draw):
    """(T, B, P, op, swap) for r-counts |{b in B : t∘b in P}|.

    swap=True draws |P| < |B| (the P-side grid), swap=False |P| >= |B|.
    Char0 values sit next to 2^31, next to 2^61, or next to 2^31, 2^61 and
    the int64 limit at once, so products, sums and differences may outgrow
    int64; each set contains 0 half of the time.
    """
    field = draw(st.sampled_from(_EDGE_FIELDS))
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    value = edge_values(field, draw(st.sampled_from(
        [(), (1 << 31,), (1 << 61,), (1 << 31, 1 << 61, (1 << 63) - 8)])))

    def elems(max_size):
        vals = set(draw(st.lists(value, max_size=max_size)))
        if draw(st.booleans()):
            vals.add(0)
        return sorted(vals)

    T = elems(8)
    one, two = sorted((elems(10), elems(10)), key=len)
    swap = draw(st.booleans()) and len(one) < len(two)
    B, P = (two, one) if swap else (one, two)
    return (ElemSet(field, T), ElemSet(field, B), ElemSet(field, P), op,
            swap)


@st.composite
def pair_popularity_case(draw):
    """(F, B, D, P, op) for the pair-popularity count, op add or mul.

    Char0 values sit next to 2^31 and 2^61, and a set holds a rational now
    and then, so int and object operands meet in one call.
    """
    field = draw(st.sampled_from(_EDGE_FIELDS))
    value = edge_values(field, [1 << 31, 1 << 61])
    if not field.is_prime_mode:
        value = value | st.builds(Fraction, st.integers(-9, 9),
                                  st.integers(2, 3))
    sets = [ElemSet(field, draw(st.lists(value, max_size=6)))
            for _ in range(4)]
    return (*sets, draw(st.sampled_from(["add", "mul"])))
