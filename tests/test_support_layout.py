"""Supports and rep tables written inside their own pair table's buffer.

The row split fills and sorts a "support" or "rep" table in the top bytes
of its int64 output, writes the values over it in value order and then
shrinks the buffer to them in place. These tests compare `combine` and
`rep_function` with np.unique of the outer table, on one, two and three
threads (each piece gathers its values over its own part of the table,
and the pieces are moved into place in turn), with reducing pieces of 1,
4 and 2^16 values and on both sides of repfn._PARALLEL_MIN, and check
that every result is a strictly increasing int64 array that owns its
memory, so that none pins the table-sized buffer. Under a trace or profile
hook the shrink refuses, and the values copied out must be the same. A
support or rep table whose pieces miss or repeat a pair fails the mass
check of its histogram.
"""

import sys
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from sumprod import ElemSet, GroundField, combine, rep_function
from sumprod import repfn
from sumprod.families import prime_with_subgroup, subgroup_of_order

from conftest import P31, forced_threads, random_set

FP, C0 = GroundField.prime(P31), GroundField.char0()


def _subgroup():
    return subgroup_of_order(prime_with_subgroup(64), 64)


def _wrapping():
    # values next to 0 and p, so that sums and differences wrap
    return ElemSet(FP, [*range(1, 25), *range(P31 - 24, P31)])


# name -> (A, B, op); B is A (or a copy of it) for the self tables
CASES = {
    "half-add-fp": lambda: (random_set(FP, 50, 1),) * 2 + ("add",),
    "half-mul-fp": lambda: (random_set(FP, 50, 2),) * 2 + ("mul",),
    "half-sub-fp": lambda: (random_set(FP, 50, 3),) * 2 + ("sub",),
    "half-sub-char0": lambda: (random_set(C0, 50, 4),) * 2 + ("sub",),
    "half-add-char0": lambda: (random_set(C0, 50, 5),) * 2 + ("add",),
    "half-sub-wrapping": lambda: (_wrapping(),) * 2 + ("sub",),
    "half-add-copy": lambda: (random_set(FP, 50, 6),
                              ElemSet(FP, random_set(FP, 50, 6)), "add"),
    "cross-add-fp": lambda: (random_set(FP, 40, 7), random_set(FP, 30, 8),
                             "add"),
    "cross-sub-fp": lambda: (random_set(FP, 40, 9), random_set(FP, 30, 10),
                             "sub"),
    "cross-div-fp": lambda: (random_set(FP, 40, 11),
                             ElemSet(FP, [0, *random_set(FP, 30, 12)]),
                             "div"),
    "cross-mul-char0": lambda: (random_set(C0, 40, 13, lo=-500, hi=500),
                                random_set(C0, 30, 14, lo=-500, hi=500),
                                "mul"),
    "cross-sub-char0": lambda: (random_set(C0, 40, 15),
                                random_set(C0, 30, 16), "sub"),
    # support << pairs: the buffer shrinks to a small share of its slots
    "ap-add-fp": lambda: (ElemSet(FP, range(P31 - 300, P31, 3)),) * 2
    + ("add",),
    "ap-sub-char0": lambda: (ElemSet(C0, range(-500, 500, 7)),) * 2
    + ("sub",),
    "ap-cross-sub-fp": lambda: (ElemSet(FP, range(0, 400, 5)),
                                ElemSet(FP, range(0, 300, 5)), "sub"),
    "subgroup-mul": lambda: (_subgroup(),) * 2 + ("mul",),
    "subgroup-div": lambda: (_subgroup(),) * 2 + ("div",),
    # one value: a one-pair table, and the empty half sub table of {7}
    "one-add": lambda: (ElemSet(FP, [7]),) * 2 + ("add",),
    "one-sub": lambda: (ElemSet(FP, [7]),) * 2 + ("sub",),
    "one-sub-char0": lambda: (ElemSet(C0, [-7]),) * 2 + ("sub",),
    "one-cross-mul": lambda: (ElemSet(FP, [3]), ElemSet(FP, [P31 - 5]),
                              "mul"),
}


def outer(A: ElemSet, B: ElemSet, op: str):
    """(values, counts) of the outer table A ∘ B by np.unique, B without 0
    for div."""
    p = A.field.p
    if op == "div":
        B = B.remove_zero()
        b = np.asarray([pow(int(y), -1, p) for y in B.ints], dtype=np.int64)
        op = "mul"
    else:
        b = B.ints
    a = A.ints[:, None]
    table = {"add": a + b, "sub": a - b, "mul": a * b}[op]
    if p is not None:
        table %= p
    return np.unique(table, return_counts=True)


def owned_int64(arr: np.ndarray) -> None:
    # an array that owns exactly its values' memory, strictly increasing
    assert arr.dtype == np.int64
    assert arr.flags.owndata and arr.base is None
    assert (np.diff(arr) > 0).all()


@pytest.mark.parametrize("side", ["parallel", "one-thread"])
@pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("case", CASES)
def test_support_and_rep_match_the_outer_table(case, threads, chunk, side):
    A, B, op = CASES[case]()
    values, counts = outer(A, B, op)
    # _PARALLEL_MIN = 0 puts every table above the threshold, 2^40 below
    with mock.patch.multiple(
            repfn, _threads=lambda: threads, _CHUNK=chunk,
            _PARALLEL_MIN=0 if side == "parallel" else 1 << 40):
        S = combine(A, B, op)
        r = rep_function(A, B, op)
    owned_int64(S.ints)
    assert S.ints.tolist() == values.tolist()
    owned_int64(r.values)
    assert r.counts.dtype == np.int64 and r.counts.flags.owndata
    assert r.values.tolist() == values.tolist()
    assert r.counts.tolist() == counts.tolist()
    pairs = [(a, b) for a in A for b in B if not (op == "div" and b == 0)]
    fop = getattr(A.field, op)
    assert dict(Counter(fop(a, b) for a, b in pairs)) == r.to_dict()



def _profile(frame, event, arg):
    pass


def _trace(frame, event, arg):
    return _trace


HOOKS = {"setprofile": (sys.setprofile, sys.getprofile, _profile),
         "settrace": (sys.settrace, sys.gettrace, _trace)}


@pytest.mark.parametrize("side", ["parallel", "one-thread"])
@pytest.mark.parametrize("hook", HOOKS)
@pytest.mark.parametrize("case", ["ap-add-fp", "ap-sub-char0",
                                  "ap-cross-sub-fp", "half-sub-fp"])
def test_support_and_rep_are_the_same_under_a_hook(case, hook, side):
    # a trace or profile hook snapshots the kernel frame's locals, whose
    # reference to the buffer makes the in-place shrink refuse; the values
    # are then copied out
    A, B, op = CASES[case]()
    set_hook, get_hook, fn = HOOKS[hook]
    with mock.patch.multiple(
            repfn, _threads=lambda: 2,
            _PARALLEL_MIN=0 if side == "parallel" else 1 << 40):
        want = combine(A, B, op).ints, rep_function(A, B, op)
        # a hook already set (cProfile's, coverage's) acts the same and
        # cannot be set back from Python, so it stays
        own = get_hook() is None
        if own:
            set_hook(fn)
        try:
            S, r = combine(A, B, op).ints, rep_function(A, B, op)
        finally:
            if own:
                set_hook(None)
    owned_int64(S)
    owned_int64(r.values)
    assert S.tolist() == want[0].tolist()
    assert r.values.tolist() == want[1].values.tolist()
    assert r.counts.tolist() == want[1].counts.tolist()


@pytest.mark.parametrize("fault", ["drop", "repeat"])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case,reduce", [
    ("half-sub-fp", "support"), ("half-add-fp", "support"),
    ("half-mul-fp", "support"), ("half-sub-char0", "rep"),
    ("cross-div-fp", "rep"), ("cross-add-fp", "support")])
def test_pieces_that_miss_or_repeat_a_pair_fail_the_mass_check(
        case, reduce, threads, fault):
    # the row split hands `_reduce` pieces that miss or repeat the first
    # pair of the table, as a fault in the fill or in the seam stitch would
    # leave them; each piece still writes its own runs, so the histogram's
    # mass against the table's pairs (n^2 for a mirrored self sub table,
    # n(n+1)/2 for the i <= j half of a self add/mul support) catches it
    A, B, op = CASES[case]()
    real = repfn._reduce

    def faulty(pieces, *args):
        first = pieces[0]
        first = first[1:] if fault == "drop" else np.append(first[:1], first)
        return real([first, *pieces[1:]], *args)

    with forced_threads(threads), mock.patch.object(repfn, "_reduce",
                                                    faulty):
        with pytest.raises(ArithmeticError, match=f"{reduce} mass"):
            repfn._table(A, B, op, reduce)
