"""The cell-scoped table memo, `repfn.table_memo`.

Inside a `table_memo` block `_table` builds a table of at most
_MEMO_PAIRS pairs once, as its rep table, and serves every reduction from
it: a spectrum as a copy of its histogram, a support or rep table as the
rep table itself, and a level set by one call of its band and a count
filter. A larger table is built on every request. These tests ask for
every reduction of one table, edge bands included, on every route (row
split, threaded row split, value buckets, discrete logs, the object
table), and compare each answer with the one the route gives outside a
block, array lengths and dtypes included. They also count the builds and
check the budget, the band calls, read-only results and the scope: one
memo per suite cell, empty once the cell ends, none outside a cell.
"""

import contextlib
import csv
import json
import math
import os
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from sumprod import (BudgetExceeded, ElemSet, ExperimentConfig, GroundField,
                     RepFn, repfn, run_suite, suite)
from sumprod.energy import _dyadic_slice
from sumprod.repfn import _table, table_memo

from conftest import (P31, forced_threads, pair_table_case, random_set,
                      self_table_case)

F101 = GroundField.prime(101)
FP = GroundField.prime(P31)
C0 = GroundField.char0()

ROUTES = {
    "row-split": contextlib.nullcontext,
    "threads": lambda: forced_threads(2),
    "buckets": lambda: mock.patch.multiple(repfn, _threads=lambda: 2,
                                           _PARALLEL_MIN=0, _BUCKET=64),
    "logs": lambda: mock.patch.multiple(repfn, _LOG_MIN=0, _LOG_SIDE=0),
}


def band_a(hist):
    return 1, hist.size


def band_b(hist):
    return 2, 4


def band_empty(hist):
    # lo above the largest count
    return hist.size, hist.size + 1


def band_top(hist):
    return hist.size - 1, math.inf


# every reduction, each asked for at least twice, and level sets of four
# bands; band_a is [1, hist.size), every count
REQUESTS = [("spectrum", None), ("rep", None), ("support", None),
            ("level", band_a), ("spectrum", None), ("level", band_a),
            ("level", band_b), ("level", band_empty), ("level", band_b),
            ("level", band_top), ("support", None), ("rep", None),
            ("spectrum", None)]


def plain(got):
    """A result as comparable data: every array with its dtype and length."""
    def arr(x):
        if isinstance(x, np.ndarray):
            return ("array", str(x.dtype), x.shape, x.tolist())
        return (type(x).__name__, list(x))

    if isinstance(got, np.ndarray):
        return arr(got)
    if isinstance(got, RepFn):
        return ("rep", got.op, got.excluded_pairs, arr(got.values),
                arr(got.counts), arr(got.count_histogram()))
    if isinstance(got, ElemSet):
        return ("set", got.field, arr(got.ints) if got.ints is not None
                else got.elements())
    hist, S = got
    return ("level", arr(hist), plain(S))


@contextlib.contextmanager
def builds():
    """Yields the count of tables built so far: each build makes one call
    of the int kernel or of the object table."""
    with mock.patch.object(repfn, "_sorted_table",
                           wraps=repfn._sorted_table) as kernel, \
            mock.patch.object(repfn, "_object_table",
                              wraps=repfn._object_table) as objects:
        yield lambda: kernel.call_count + objects.call_count


def check_memo_matches_route(A, B, op, requests=REQUESTS):
    """Each request inside one block gives the answer the route gives
    outside it; returns the number of tables built inside the block."""
    want = [plain(_table(A, B, op, reduce, band))
            for reduce, band in requests]
    with builds() as built, table_memo():
        got = [plain(_table(A, B, op, reduce, band))
               for reduce, band in requests]
    assert got == want
    return built()


def named_tables():
    """Sets on which every route has something to do: wrapping APs, a set
    holding 0, a random set, char0 sets, and rationals (object table)."""
    p = FP.p
    ap = ElemSet(FP, [(p - 40 + 3 * i) % p for i in range(30)])
    zero = ElemSet(FP, [0, 1, 2, 3, 5, 8, 13, 21, p - 1, p - 2])
    rnd = random_set(FP, 40, seed=5)
    small = ElemSet(F101, range(0, 100, 7))
    c0 = ElemSet(C0, [-45 + 3 * i for i in range(30)] + [0, 2**20])
    frac = ElemSet(C0, [Fraction(1, 2), Fraction(-3, 4), 1, 2, 5, 0])
    return {"ap": (ap, ap), "ap-copy": (ap, ElemSet(FP, ap.elements())),
            "zero": (zero, zero), "ap-zero": (ap, zero),
            "rnd-ap": (rnd, ap), "F101": (small, small),
            "char0": (c0, c0), "char0-pair": (c0, ElemSet(C0, range(9))),
            "frac": (frac, frac), "frac-pair": (frac, c0)}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
@pytest.mark.parametrize("name", sorted(named_tables()))
def test_memo_serves_what_the_route_builds(route, op, name):
    A, B = named_tables()[name]
    with ROUTES[route]():
        builds = check_memo_matches_route(A, B, op)
    # the rep table, built at the first request, serves every other one
    assert builds == 1


@pytest.mark.parametrize("start", range(len(REQUESTS)))
def test_any_first_request_builds_once(start):
    A = random_set(FP, 25, seed=3)
    requests = REQUESTS[start:] + REQUESTS[:start]
    assert check_memo_matches_route(A, A, "sub", requests) == 1


@pytest.mark.parametrize("reduce", ["support", "rep", "level"])
def test_large_tables_build_every_request(reduce):
    A = random_set(FP, 30, seed=1)
    requests = [(reduce, band_a), ("spectrum", None), (reduce, band_a),
                ("spectrum", None)]
    with mock.patch.object(repfn, "_MEMO_PAIRS", len(A) ** 2 - 1):
        assert check_memo_matches_route(A, A, "sub", requests) == 4
        with table_memo() as memo:
            _table(A, A, "sub", reduce, band_a)
            assert memo == {}
    with mock.patch.object(repfn, "_MEMO_PAIRS", len(A) ** 2):
        assert check_memo_matches_route(A, A, "sub", requests) == 1


@pytest.mark.parametrize("op", ["add", "mul"])
def test_self_support_and_spectrum_build_once(op):
    # the route builds a self add/mul support from the i <= j pairs only;
    # the memo's rep table holds every pair, so it serves the spectrum too
    A = ElemSet(FP, range(1, 20))
    requests = [("support", None), ("spectrum", None), ("support", None),
                ("spectrum", None)]
    assert check_memo_matches_route(A, A, op, requests) == 1


@settings(max_examples=40, deadline=None)
@given(case=self_table_case())
def test_self_tables_memo_on_and_off(case):
    check_memo_matches_route(*case)


@settings(max_examples=40, deadline=None)
@given(case=pair_table_case())
def test_pair_tables_memo_on_and_off(case):
    check_memo_matches_route(*case)


def test_budget_refuses_inside_a_block():
    A = ElemSet(FP, range(1, 30))
    with table_memo():
        _table(A, A, "add", "spectrum")
        _table(A, A, "add", "rep")
        for reduce in ("spectrum", "rep"):
            with pytest.raises(BudgetExceeded):
                _table(A, A, "add", reduce, budget=len(A) ** 2 - 1)


def test_a_served_level_set_calls_band_once():
    A = ElemSet(FP, range(1, 40))
    calls = []

    def band(hist):
        calls.append(hist.tolist())
        return 2, 3

    want = plain(_table(A, A, "add", "level", band))
    with table_memo():
        assert plain(_table(A, A, "add", "level", band)) == want
        with builds() as built:
            assert plain(_table(A, A, "add", "level", band)) == want
        assert built() == 0
    assert calls == [want[1][3]] * 3


def test_a_level_set_of_another_band_calls_band_once():
    A = ElemSet(FP, range(1, 40))
    want = plain(_table(A, A, "sub", "level", band_b))
    calls = []

    def other(hist):
        calls.append(hist.tolist())
        return band_b(hist)

    with table_memo():
        _table(A, A, "sub", "level", band_a)
        with builds() as built:
            assert plain(_table(A, A, "sub", "level", other)) == want
            assert plain(_table(A, A, "sub", "level", band_b)) == want
        assert built() == 0
    assert len(calls) == 1


def test_a_refused_dyadic_slice_still_raises_on_a_hit():
    # rss refuses a slice from inside its band (the `chosen` hook); a slice
    # the memo knows must be refused the same way, by one band call
    A = ElemSet(FP, range(1, 64))
    seen = []

    def refuse(t, size):
        seen.append((t, size))
        raise BudgetExceeded(f"level {t} holds {size} values")

    with table_memo():
        kept = _dyadic_slice(A, None, 4, "add", None)
        with builds() as built:
            with pytest.raises(BudgetExceeded, match="level"):
                _dyadic_slice(A, None, 4, "add", None, chosen=refuse)
            again = _dyadic_slice(A, None, 4, "add", None)
        assert built() == 0
    assert len(seen) == 1 and seen[0][0] == kept.t
    assert again.support == kept.support


def test_a_refused_first_slice_keeps_its_table():
    # the first request of a block builds the rep table before the band
    # refuses; the next request is served from it
    A = ElemSet(FP, range(1, 64))
    want = _dyadic_slice(A, None, 4, "add", None)

    def refuse(t, size):
        raise BudgetExceeded(f"level {t} holds {size} values")

    with table_memo(), builds() as built:
        with pytest.raises(BudgetExceeded, match="level"):
            _dyadic_slice(A, None, 4, "add", None, chosen=refuse)
        assert built() == 1
        got = _dyadic_slice(A, None, 4, "add", None)
        assert built() == 1
    assert got == want


def test_served_results_are_read_only_or_copies():
    A = ElemSet(FP, range(1, 30))
    with table_memo():
        r = _table(A, A, "mul", "rep")
        S = _table(A, A, "mul", "support")
        hist, L = _table(A, A, "mul", "level", band_a)
        spec = _table(A, A, "mul", "spectrum")
        for served in (r, _table(A, A, "mul", "rep")):
            for arr in (served.values, served.counts,
                        served.count_histogram()):
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 7
        for T in (S, _table(A, A, "mul", "support")):
            with pytest.raises(ValueError, match="read-only"):
                T.ints[0] = 7
        # histograms and level sets are copies: a caller's write changes
        # no later answer
        want, level = spec.tolist(), L.ints.tolist()
        spec[:] = 0
        hist[:] = 0
        L.ints[0] = 7
        assert _table(A, A, "mul", "spectrum").tolist() == want
        hist, L = _table(A, A, "mul", "level", band_a)
        assert hist.tolist() == want and L.ints.tolist() == level


def test_object_rep_counts_are_a_tuple():
    frac = ElemSet(C0, [Fraction(1, 2), 1, 2])
    with table_memo():
        assert isinstance(_table(frac, frac, "add", "rep").counts, tuple)
    assert isinstance(_table(frac, frac, "add", "rep").counts, tuple)


def test_no_memo_outside_a_block():
    A = ElemSet(FP, range(1, 30))
    assert repfn._MEMO.get() is None
    with builds() as built:
        for _ in range(2):
            _table(A, A, "add", "spectrum")
    assert built() == 2
    with table_memo() as memo:
        _table(A, A, "add", "spectrum")
        assert len(memo) == 1 and repfn._MEMO.get() is memo
    assert memo == {} and repfn._MEMO.get() is None


def test_a_block_ends_empty_when_it_raises():
    A = ElemSet(FP, range(1, 30))
    with pytest.raises(RuntimeError):
        with table_memo() as memo:
            _table(A, A, "add", "spectrum")
            raise RuntimeError("cell failed")
    assert memo == {} and repfn._MEMO.get() is None


SUITE = dict(lemmas=list(suite.KNOWN_LEMMAS), families=["ap", "random"],
             sizes=[16, 32])


def suite_outputs(out_dir):
    """Every file a suite run writes, elapsed times dropped."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name)) as fh:
            if name == "suite.csv":
                rows = list(csv.DictReader(fh))
                for row in rows:
                    row.pop("elapsed_ms")
                files[name] = rows
            elif name.endswith(".json"):
                data = json.load(fh)
                data.pop("elapsed_ms", None)
                data.pop("wall_ms", None)
                files[name] = data
    return files


def test_one_memo_per_cell_empty_after_it(tmp_path):
    blocks, memos, asked, built = [], [], [], []
    opened, served = repfn.table_memo, repfn._memo_route

    def counting():
        blocks.append(1)
        return opened()

    def memo_route(memo, *args):
        if all(m is not memo for m in memos):
            memos.append(memo)
        *request, build = args
        asked.append(1)

        def counted(reduce, band):
            built.append(1)
            return build(reduce, band)

        return served(memo, *request, counted)

    with mock.patch.object(suite, "table_memo", counting), \
            mock.patch.object(repfn, "_memo_route", memo_route):
        m = run_suite(ExperimentConfig(out_dir=str(tmp_path / "on"),
                                       **SUITE))
    cells = {c["cell"].rsplit("-", 1)[0] for c in m.cells}
    assert len(blocks) == len(cells)
    assert memos and all(memo == {} for memo in memos)
    assert repfn._MEMO.get() is None
    # the cells build fewer tables than they ask for
    assert 0 < len(built) < len(asked)
    with mock.patch.object(suite, "table_memo", mock.MagicMock()):
        run_suite(ExperimentConfig(out_dir=str(tmp_path / "off"), **SUITE))
    assert suite_outputs(tmp_path / "on") == suite_outputs(tmp_path / "off")
