"""The value-bucketed pair kernel, `repfn._bucket_table`.

Add/sub tables of at least repfn._PARALLEL_MIN pairs that reduce to a
spectrum or a level set are cut into value buckets of at most
repfn._BUCKET pairs (or the pairs of one value, if more), and each bucket
is gathered from runs of the sorted operand, sorted and reduced on its own.
These tests lower the threshold to 0 and shrink _BUCKET, so that tiny
tables are cut into many buckets with edges next to heavy values, and
compare the results with the object path, with filters of the
`rep_function` table and with the row-split kernel.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (BudgetExceeded, ElemSet, GroundField, count_spectrum,
                     rep_function)
from sumprod import repfn
from sumprod.repfn import _object_table, _plan, _table

from conftest import (P31, pair_table_case, random_set, self_table_case,
                      traced_peak)

F101 = GroundField.prime(101)
C0 = GroundField.char0()


def bucketed(threads, bucket, gather=repfn._GATHER):
    """Every add/sub spectrum and level set through the bucketed kernel on
    `threads` threads, in buckets of `bucket` pairs."""
    return mock.patch.multiple(repfn, _threads=lambda: threads,
                               _PARALLEL_MIN=0, _BUCKET=bucket,
                               _GATHER=gather)


def spy_buckets():
    return mock.patch.object(repfn, "_bucket_table",
                             wraps=repfn._bucket_table)


def bands(hist):
    """One-run bands, dyadic bands, the whole table, and empty bands."""
    top = hist.size - 1
    out = [(m, m + 1) for m in np.flatnonzero(hist).tolist()]
    out += [(1 << j, 2 << j) for j in range(top.bit_length())]
    return out + [(1, top + 1), (2, top + 1), (0, 1), (3, 3),
                  (top + 1, top + 3)]


def check_against_object_path(A, B, op):
    pairs = _object_table(A, B, op)
    want = np.bincount(np.asarray(list(pairs.values()), dtype=np.int64),
                       minlength=1).tolist()
    r = rep_function(A, B, op)
    with spy_buckets() as kernel:
        got = count_spectrum(A, B, op).tolist()
        assert got[:len(want)] == want and not any(got[len(want):])
        for lo, hi in bands(np.asarray(want)):
            hist, S = _table(A, B, op, "level", lambda h: (lo, hi))
            assert hist.tolist() == want
            assert list(S.elements()) == sorted(
                x for x, c in r.items() if lo <= c < hi), (lo, hi)
            assert list(S.elements()) == sorted(
                x for x, c in pairs.items() if lo <= c < hi)
    # a half table of one value has no pairs to bucket, and values the
    # int rule refuses take the object table
    empty = op == "sub" and len(B) == 1 and A == B
    fast = repfn._int_fast_ok(A.field, op, A.ints, B.ints)
    assert kernel.call_count == (1 + len(bands(np.asarray(want)))
                                 if fast and not empty else 0)


def named_sets(field):
    """Sets whose sums and differences wrap around 0 mod p, pile up on a
    few heavy values (APs), or are negative (char0)."""
    if field.is_prime_mode:
        p = field.p
        ap = [(p - 40 + 3 * i) % p for i in range(30)]  # wraps past 0
        ends = [0, 1, 2, p - 1, p - 2, p - 3]
        return {"ap": ap, "ends": ends, "ap-ends": sorted(set(ap + ends)),
                "random": random_set(field, 40, seed=3).elements()}
    return {"ap": [-45 + 3 * i for i in range(30)],
            "ends": [-2**40, -1, 0, 1, 2**40],
            "mixed": [-7, -3, 0, 4, 9, 2**20, -2**33],
            "random": random_set(field, 40, seed=3, lo=-10**6).elements()}


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bucket", [1, 64])
@pytest.mark.parametrize("field", [F101, GroundField.prime(P31), C0],
                         ids=["p101", "p31", "char0"])
@pytest.mark.parametrize("op", ["add", "sub"])
def test_named_sets_match_object_path(threads, bucket, field, op):
    sets = [ElemSet(field, x) for x in named_sets(field).values()]
    with bucketed(threads, bucket):
        for A, B in zip(sets, sets[1:] + sets[:1]):
            check_against_object_path(A, A, op)  # half for sub
            check_against_object_path(A, B, op)


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=25, deadline=None)
@given(case=self_table_case(), bucket=st.sampled_from([1, 3, 50]))
def test_self_tables_match_object_path(threads, case, bucket):
    A, B, op = case
    if op in ("add", "sub") and len(A):
        with bucketed(threads, bucket):
            check_against_object_path(A, B, op)


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=25, deadline=None)
@given(case=pair_table_case(), bucket=st.sampled_from([1, 3, 50]))
def test_pair_tables_match_object_path(threads, case, bucket):
    A, B, op = case
    if op in ("add", "sub") and len(A) and len(B):
        with bucketed(threads, bucket):
            check_against_object_path(A, B, op)


def row_split(a, b, op, mod, half, reduce, band=None):
    """`_sorted_table` on the row-split kernel."""
    with mock.patch.object(repfn, "_PARALLEL_MIN", 1 << 62):
        return repfn._sorted_table(a, b, op, mod, half, reduce, band)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("bucket", [1, 5, 1 << 22])
@pytest.mark.parametrize("mod", [100, 101, 2**31 - 2, 2**31 - 1])
def test_moduli_match_row_split(threads, bucket, mod):
    # the log path takes sub tables mod p - 1, which is even: a half
    # table's class mod / 2 is taken once, as the row split takes it
    rng = np.random.default_rng(mod)
    a = np.unique(np.concatenate((rng.integers(0, mod, 60), [0, mod // 2,
                                                             mod - 1])))
    b = np.unique(rng.integers(0, mod, 45))
    cases = [(a, a, "sub", True), (a, b, "sub", False), (b, a, "add", False),
             (a, a, "add", False)]
    for x, y, op, half in cases:
        want = row_split(x, y, op, mod, half, "spectrum").hist
        levels = [row_split(x, y, op, mod, half, "level", lambda h, b=b: b)
                  for b in bands(want)]
        with bucketed(threads, bucket), spy_buckets() as kernel:
            got = repfn._sorted_table(x, y, op, mod, half, "spectrum").hist
            assert np.array_equal(got, want)
            for (lo, hi), level in zip(bands(want), levels):
                got = repfn._sorted_table(x, y, op, mod, half, "level",
                                          lambda h: (lo, hi))
                assert np.array_equal(got.hist, level.hist)
                assert got.values.dtype == np.int64
                assert np.array_equal(got.values, level.values)
        assert kernel.call_count == 1 + len(levels)


@pytest.mark.parametrize("half", [True, False])
@pytest.mark.parametrize("limit", [1, 2, 3, 30, 31, 10**6])
def test_plan_cuts_at_exact_counts(half, limit):
    # an AP piles its differences on a few heavy values: every bucket holds
    # at most max(limit, rows) pairs, the counts are exact, and a bucket is
    # only as wide as its cut allows
    a = np.arange(0, 93, 3, dtype=np.int64)  # 31 values
    b = a if half else np.arange(5, 101, 7, dtype=np.int64)
    terms, lo, hi = repfn._bucket_terms(a, b, "sub", 101, half, np.int32)
    rows = terms[0].shift.size
    total = a.size * (a.size - 1) // 2 if half else a.size * b.size
    edges, counts = _plan(terms, lo, hi, total, max(limit, rows))
    assert edges[0] == lo and edges[-1] == hi
    assert (np.diff(edges) > 0).all() and (counts > 0).all()
    assert int(counts.sum()) == total
    assert (counts <= max(limit, rows)).all()
    # each count is the number of pairs in its bucket: of a half table,
    # the pairs of the classes 1..50 in it
    rep = repfn._sorted_table(a, b, "sub", 101, half, "rep")
    mult = dict(zip(rep.values.tolist(), rep.counts.tolist()))
    for e0, e1, c in zip(edges[:-1], edges[1:], counts):
        assert c == sum(m for v, m in mult.items()
                        if e0 <= v < e1 and (v <= 50 or not half))


def test_one_value_at_the_bucket_limit():
    # r(x) = 40 = the rows of the table for one value: a bucket of one value
    # holds every pair of it, whatever _BUCKET is
    A = ElemSet(F101, range(40))
    B = ElemSet(F101, range(0, 80, 2))
    with bucketed(2, 1):
        check_against_object_path(A, B, "add")
        check_against_object_path(A, A, "sub")


@pytest.mark.parametrize("threads", [1, 2])
def test_level_regathers_only_band_buckets(threads):
    # a level set gathers every bucket for its histogram, and again only
    # the buckets that hold band values; a refused band gathers none again
    A = random_set(F101, 90, seed=7)
    B = random_set(F101, 60, seed=8)
    r = rep_function(A, B, "sub")
    top = max(r.counts)
    real = repfn._copy_runs
    with bucketed(threads, 50), mock.patch.object(
            repfn, "_copy_runs", wraps=real) as copies:
        count_spectrum(A, B, "sub")
        first = copies.call_count  # one per term and bucket
        copies.reset_mock()
        _, S = _table(A, B, "sub", "level", lambda h: (top, top + 1))
        assert S.ints.tolist() == [x for x, c in r.items() if c == top]
        assert first < copies.call_count < 2 * first
        copies.reset_mock()
        _table(A, B, "sub", "level", lambda h: (1, top + 1))
        assert copies.call_count == 2 * first
        for band in [(0, 1), (top + 1, top + 2), (4, 4)]:
            copies.reset_mock()
            assert len(_table(A, B, "sub", "level", lambda h: band)[1]) == 0
            assert copies.call_count == first

        def refuse(hist):
            raise BudgetExceeded("refused")

        copies.reset_mock()
        with pytest.raises(BudgetExceeded):
            _table(A, B, "sub", "level", refuse)
        assert copies.call_count == first


@pytest.mark.parametrize("reduce", ["spectrum", "level"])
@pytest.mark.parametrize("shift", [-1, 1])
def test_gather_size_check_raises(reduce, shift):
    # a bucket whose gathered size differs from its planned count raises
    A = random_set(F101, 50, seed=1)
    real = repfn._plan

    def off_by_one(*args):
        edges, counts = real(*args)
        counts = counts.copy()
        counts[0] += shift
        return edges, counts

    with bucketed(2, 40), mock.patch.object(repfn, "_plan", off_by_one):
        with pytest.raises(RuntimeError, match="bucket"):
            _table(A, random_set(F101, 40, seed=2), "add", reduce,
                   lambda h: (1, h.size))


def test_plan_mass_check_raises():
    a = np.arange(10, dtype=np.int64)
    terms, lo, hi = repfn._bucket_terms(a, a, "add", 101, False, np.int32)
    with pytest.raises(RuntimeError, match="expected 99"):
        _plan(terms, lo, hi, 99, 10)


@pytest.mark.parametrize("threads", [1, 2])
def test_spectrum_and_refused_level_stay_within_buckets(threads):
    # 512 x 2^17 pairs: the int32 table alone would take 256 MiB; the
    # bucketed kernel holds one bucket and its gather buffers per thread,
    # the operands' sorted copies (int32 and int64) and the histogram
    F = GroundField.prime(P31)
    A = random_set(F, 512, seed=31)
    B = ElemSet(F, np.random.default_rng(32).choice(
        P31, 1 << 17, replace=False).tolist())
    table = 4 * len(A) * len(B)
    bucket, gather = 1 << 20, 1 << 14

    def refuse(hist):
        raise BudgetExceeded("refused")

    with mock.patch.multiple(repfn, _threads=lambda: threads,
                             _BUCKET=bucket, _GATHER=gather):
        bound = threads * (4 * bucket + 64 * gather) + 32 * len(B) \
            + (1 << 18)
        hist, peak = traced_peak(lambda: count_spectrum(A, B, "sub"))
        assert int(hist @ np.arange(hist.size)) == len(A) * len(B)
        assert peak <= bound < table // 8

        def refused():
            with pytest.raises(BudgetExceeded):
                _table(A, B, "sub", "level", refuse)

        _, peak = traced_peak(refused)
        assert peak <= bound
