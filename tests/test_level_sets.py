"""Level sets of representation functions from one table build.

The int pair kernel's "level" reduction writes out only the values x with
lo <= r(x) < hi, where [lo, hi) is chosen from the table's histogram. These
tests compare it with filtering the full RepFn table, on 2, 3 and 5 forced
threads and in pieces of 1, 4 and 2^16 values, and check the callers that
moved to it: dyadic slices, popular sums, the rss proposition and its
p-constraints.
"""

import importlib
import json
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ElemSet, GroundField, check_rss_proposition,
                     dyadic_extract, energy_rep, p_constraint_check,
                     popular_sums, rep_function, setalgebra, verify)
from sumprod import repfn
from sumprod.energy import _dyadic_level, _level_set, dyadic_slice
from sumprod.repfn import _flat_sorted_int

from conftest import (P31, forced_threads, pair_table_case, random_set,
                      self_table_case, traced_peak)

# the package binds the name `energy` to the function
energy_mod = importlib.import_module("sumprod.energy")

THREADS = [2, 3, 5]
CHUNKS = [1, 4, repfn._CHUNK]
ENERGY_OP = {"sub": "add", "div": "mul"}


def filtered(r, lo, hi):
    """The level set {x : lo <= r(x) < hi} of a RepFn, as an ElemSet."""
    return ElemSet(r.field, [x for x, c in r.items() if lo <= c < hi])


def bands(hist):
    """Every one-run band [m, m+1), the dyadic bands [2^j, 2^(j+1)), the
    whole table, runs of two or more, and empty bands (below every count,
    lo = hi, above the top)."""
    top = hist.size - 1
    out = [(m, m + 1) for m in np.flatnonzero(hist).tolist()]
    out += [(1 << j, 2 << j) for j in range(top.bit_length())]
    return out + [(1, top + 1), (2, top + 1), (0, 1), (2, 2),
                  (top + 1, top + 3)]


def check_level_sets(A, B, op):
    r = rep_function(A, B, op)
    want = r.count_histogram().tolist()
    for lo, hi in bands(np.asarray(want)):
        hist, S = _level_set(A, B, op, lambda h: (lo, hi))
        assert hist.dtype == np.int64 and hist.tolist() == want
        assert S == filtered(r, lo, hi), (lo, hi)
        if S.ints is not None:
            assert S.ints.dtype == np.int64
    if op not in ENERGY_OP or len(A) == 0 or len(B) == 0:
        return
    for k in (4 / 3, 2, 4):
        if len(r) == 0:
            with pytest.raises(ValueError):
                dyadic_slice(A, B, k, ENERGY_OP[op])
            continue
        sl = dyadic_slice(A, B, k, ENERGY_OP[op])
        assert sl == dyadic_extract(r, k)
        assert sl.max_multiplicity == max(r.counts)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=30, deadline=None)
@given(case=self_table_case())
def test_self_level_sets_match_rep_function(threads, chunk, case):
    with forced_threads(threads, chunk=chunk):
        check_level_sets(*case)


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=30, deadline=None)
@given(case=pair_table_case())
def test_pair_level_sets_match_rep_function(threads, chunk, case):
    with forced_threads(threads, chunk=chunk):
        check_level_sets(*case)


F101 = GroundField.prime(101)
C0 = GroundField.char0()
# p = 101, n = 90: nearly every value repeats, so runs cross every cut
CASES = {
    "half-sub": (random_set(F101, 90, seed=7),) * 2 + ("sub",),
    "half-sub-char0": (random_set(C0, 40, seed=7),) * 2 + ("sub",),
    "rect-sub": (random_set(F101, 90, seed=7), random_set(F101, 60, seed=8),
                 "sub"),
    "div-zero": (random_set(F101, 90, seed=7),
                 ElemSet(F101, [0, *random_set(F101, 30, seed=9, lo=1)]),
                 "div"),
    # one value, 0, hit 90 times, spans every slice
    "one-run": (ElemSet(F101, [0]), random_set(F101, 90, seed=7), "mul"),
    "object": (ElemSet(C0, [Fraction(1, 2), 1, 3, 2**62]),
               ElemSet(C0, [0, 1, Fraction(5, 3)]), "add"),
}


@pytest.mark.parametrize("threads", THREADS)
@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_level_set_cases(threads, chunk, case):
    with forced_threads(threads, chunk=chunk):
        check_level_sets(*CASES[case])


@pytest.mark.parametrize("threads", [1, *THREADS])
@pytest.mark.parametrize("field", [F101, C0])
def test_half_sub_band_holds_r0(threads, field):
    # r(0) = |A| is written by the main thread, once, when the band holds it
    A = random_set(field, 40, seed=3)
    r = rep_function(A, A, "sub")
    with forced_threads(threads, chunk=4):
        (hist, vals), half = _flat_sorted_int(A, A, "sub", "level",
                                              lambda h: (40, 41))
        assert half and vals.tolist() == [0]
        (_, vals), _ = _flat_sorted_int(A, A, "sub", "level",
                                        lambda h: (2, 41))
    assert vals.tolist() == filtered(r, 2, 41).ints.tolist()
    assert 0 in vals.tolist() and hist.tolist() == \
        r.count_histogram().tolist()


@pytest.mark.parametrize("threads", [1, *THREADS])
def test_level_histogram_is_trimmed(threads):
    # the class histogram of a half table is padded to |A| + 1; the max
    # multiplicity must be the true one after the mirror, and the band
    # chooser sees the histogram the call returns
    A = random_set(F101, 60, seed=4)
    seen = []
    with forced_threads(threads, chunk=4):
        (hist, _), _ = _flat_sorted_int(A, A, "sub", "level",
                                        lambda h: seen.append(h) or (1, 1))
    assert hist[-1] > 0 and hist.size - 1 == 60
    assert seen[0] is hist
    B = random_set(F101, 60, seed=5)
    with forced_threads(threads, chunk=4):
        (hist, vals), _ = _flat_sorted_int(A, B, "add", "level",
                                           lambda h: (1, 1))
    assert vals.size == 0 and hist[-1] > 0
    assert hist.size - 1 == max(rep_function(A, B, "add").counts)


def test_dyadic_band_rule_is_shared(c0):
    # the band chooser of dyadic_slice is the rule dyadic_extract applies
    A = ElemSet(c0, range(16))
    r = energy_rep(A, A, "add")
    for k in (4 / 3, 2, 4):
        t, _ = _dyadic_level(r.count_histogram(), k)
        assert dyadic_extract(r, k).t == dyadic_slice(A, A, k).t == t
    with pytest.raises(ValueError):
        _dyadic_level(np.zeros(1, dtype=np.int64), 2)


def popular_reference(A, eps, op):
    r = rep_function(A, A, op)
    if len(r) == 0:
        return ElemSet.empty(A.field)
    cutoff = math.ceil(Fraction(eps) * len(A) ** 2 / len(r))
    return filtered(r, cutoff, math.inf)


@pytest.mark.parametrize("threads", [1, 3])
@settings(max_examples=80, deadline=None)
@given(case=self_table_case(),
       eps=st.sampled_from([Fraction(1, 1000), Fraction(1, 3), 0.37, 1, 2]))
def test_popular_sums_match_rep_function_filter(threads, case, eps):
    A, _, op = case
    if len(A) == 0:
        return
    with forced_threads(threads, chunk=4):
        assert popular_sums(A, eps, op) == popular_reference(A, eps, op)


def reference_slice(A, B=None, k=2.0, op="add", budget=None):
    return dyadic_extract(energy_rep(A, B, op, budget), k)


def reference_constraints(A, aux, known, budget, helper=verify._p_constraints):
    # the public check, which knows no size, on the unpatched helper
    with mock.patch.object(verify, "_p_constraints", helper):
        return p_constraint_check(A, aux, budget)


def table_builds(record):
    """Patch every binding of the int kernel entry to record (A, B)."""
    orig = repfn._flat_sorted_int

    def spy(A, B, op, reduce, band=None):
        record.append((A, B))
        return orig(A, B, op, reduce, band)

    return mock.patch.multiple(repfn, _flat_sorted_int=spy), \
        mock.patch.multiple(setalgebra, _flat_sorted_int=spy), \
        mock.patch.multiple(energy_mod, _flat_sorted_int=spy)


def builds_over(builds, A, E):
    """Tables over A x E (or A x E∖{0}) among the recorded builds."""
    return sum(X == A and Y in (E, E.remove_zero()) for X, Y in builds)


def run_rss(A, variant, budget, reference):
    """(report, |A x E builds|) of one check_rss_proposition call."""
    builds, slices = [], []

    def keep_slices(*args, **kwargs):
        sl = reference_slice(*args, **kwargs) if reference \
            else dyadic_slice(*args, **kwargs)
        slices.append(sl)
        return sl

    patches = [*table_builds(builds),
               mock.patch.object(verify, "dyadic_slice", keep_slices)]
    if reference:
        patches.append(mock.patch.object(verify, "_p_constraints",
                                         reference_constraints))
    for p in patches:
        p.start()
    try:
        rep = check_rss_proposition(A, variant, budget=budget)
    finally:
        for p in reversed(patches):
            p.stop()
    A0 = A if variant == "additive" else A.remove_zero()
    # the third slice, when it was taken, is E
    E = slices[2].support if len(slices) > 2 else None
    return rep, E, (builds_over(builds, A0, E) if E is not None else 0)


def rss_cases():
    F1009, F65537 = GroundField.prime(1009), GroundField.prime(65537)
    ap = ElemSet(F65537, range(3, 3 + 5 * 24, 5))
    return [
        # p-constraint (i) or (ii) and both surrogates are violated
        (random_set(F1009, 48, seed=48), None),
        (ap, None),
        (random_set(GroundField.prime(P31), 40, seed=1), None),
        # the A x E energy exceeds the budget that A x F fits in: E is
        # known, its size is not, and the constraints are skipped
        (ap, 50_000),
        # the A x F slice exceeds it: no E
        (random_set(F1009, 48, seed=48), 5_000),
    ]


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
@pytest.mark.parametrize("case", range(5))
def test_rss_reports_match_reference(variant, case):
    A, budget = rss_cases()[case]
    got, E, builds = run_rss(A, variant, budget, reference=False)
    want, want_E, want_builds = run_rss(A, variant, budget, reference=True)
    got, want = got.to_dict(), want.to_dict()
    got.pop("elapsed_ms")
    want.pop("elapsed_ms")
    # as JSON text, where a skipped final fit's nan equals itself
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    assert E == want_E
    if E is not None:
        # energy(A, E, 4) is the only table over A x E, where the public
        # p_constraint_check builds A-E (A/E) once more; a budget that
        # refuses the energy refuses both
        fits = "final=skipped" not in got["notes"]
        assert (builds, want_builds) == ((1, 2) if fits else (0, 0))


def test_rss_reports_name_violated_constraints():
    A = random_set(GroundField.prime(1009), 48, seed=48)
    notes = {v: check_rss_proposition(A, v).notes
             for v in ("additive", "multiplicative")}
    assert "'i'" in notes["additive"] and "'ii'" in notes["multiplicative"]


@pytest.mark.parametrize("threads", [1, 2])
def test_level_peak_memory_is_table_plus_selection(threads):
    # about 2*10^6 pairs: the int32 table, the histogram and the selected
    # int64 values are the floor; every other buffer scales with the row
    # block or the piece. Building the RepFn and filtering it costs its
    # int64 values and counts on top, which this bound refuses.
    F = GroundField.prime(P31)
    A = random_set(F, 2000, seed=21)
    B = random_set(F, 1000, seed=22)
    piece = 1 << 12
    slack = (1 << 16) + threads * 32 * piece

    def bound(hist, selected):
        return 4 * 2000 * 1000 + 8 * hist.size + 8 * selected + slack

    with forced_threads(threads, block=piece, chunk=piece):
        for band in (lambda h: (1, 2), lambda h: (2, h.size)):
            (hist, vals), peak = traced_peak(
                lambda: _flat_sorted_int(A, B, "sub", "level", band)[0])
            assert peak <= bound(hist, vals.size)
        sl, peak = traced_peak(lambda: dyadic_slice(A, B, 2, "add"))
        hist = rep_function(A, B, "sub").count_histogram()
        assert peak <= bound(hist, len(sl.support))
        old, peak = traced_peak(
            lambda: dyadic_extract(rep_function(A, B, "sub"), 2))
        assert old == sl
        assert peak > bound(hist, len(sl.support))
