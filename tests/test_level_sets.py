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
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ElemSet, GroundField, check_rss_proposition,
                     dyadic_extract, energy_rep, p_constraint_check,
                     popular_sums, regularize, rep_function, setalgebra,
                     verify)
from sumprod import repfn
from sumprod.energy import _dyadic_level, dyadic_slice
from sumprod.repfn import BudgetExceeded, _table

from conftest import (P31, forced_threads, pair_table_case, random_set,
                      self_table_case, table_and_half, traced_peak)

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
        hist, S = _table(A, B, op, "level", lambda h: (lo, hi))
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
        (hist, S), half = table_and_half(A, A, "sub", "level",
                                         lambda h: (40, 41))
        assert half and S.ints.tolist() == [0]
        _, S = _table(A, A, "sub", "level", lambda h: (2, 41))
    assert S.ints.tolist() == filtered(r, 2, 41).ints.tolist()
    assert 0 in S.ints.tolist() and hist.tolist() == \
        r.count_histogram().tolist()


@pytest.mark.parametrize("threads", [1, *THREADS])
def test_level_histogram_is_trimmed(threads):
    # the class histogram of a half table is padded to |A| + 1; the max
    # multiplicity must be the true one after the mirror, and the band
    # chooser sees the histogram the call returns
    A = random_set(F101, 60, seed=4)
    seen = []
    with forced_threads(threads, chunk=4):
        hist, _ = _table(A, A, "sub", "level",
                         lambda h: seen.append(h) or (1, 1))
    assert hist[-1] > 0 and hist.size - 1 == 60
    assert seen[0] is hist
    B = random_set(F101, 60, seed=5)
    with forced_threads(threads, chunk=4):
        hist, S = _table(A, B, "add", "level", lambda h: (1, 1))
    assert len(S) == 0 and hist[-1] > 0
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
    """Patch every binding of the table entry to record (A, B) of each
    table it returns (a table its budget refuses is never built)."""
    orig = repfn._table

    def spy(A, B, op, reduce, band=None, budget=None):
        out = orig(A, B, op, reduce, band, budget)
        record.append((A, B))
        return out

    return [mock.patch.multiple(mod, _table=spy)
            for mod in (repfn, setalgebra, energy_mod, regularize)]


class RssRecord:
    """What one check_rss_proposition call did at the E stage: E (None when
    it was not written out), the kernel builds, the `energy` and `combine`
    calls, the band scans that wrote E's values and the traced peak of the
    E stage (None unless asked for)."""

    def __init__(self):
        self.E = self.F = None
        self.builds, self.energies, self.combines, self.e_scans = \
            [], [], [], []
        self.e_peak = None

    def over(self, A, E):
        """(kernel builds, energy calls, combine calls) over A x E or
        A x E∖{0}."""
        return tuple(sum(X == A and Y in (E, E.remove_zero())
                         for X, Y in calls)
                     for calls in (self.builds, self.energies, self.combines))


def run_rss(A, variant, budget, reference, trace=False):
    """(report, RssRecord) of one check_rss_proposition call.

    The reference takes the route that writes E out whatever its size:
    every slice through `dyadic_extract(energy_rep(...))`, E handed over so
    that energy(A, E, 4) refuses it where it is over the budget, and the
    public `p_constraint_check`, which then refuses A-E (A/E) too. Its
    level and |E| reach the pipeline's note through the same callback, whose
    own refusal the reference ignores.
    """
    rec = RssRecord()
    real_energy, real_combine = verify.energy, verify.combine
    real_slice, real_scan = verify._dyadic_slice, repfn._run_starts

    def keep_slices(*args, **kwargs):
        return reference_slice(*args, **kwargs) if reference \
            else dyadic_slice(*args, **kwargs)

    def energy_spy(X, Y=None, *args, **kwargs):
        rec.energies.append((X, Y))
        return real_energy(X, Y, *args, **kwargs)

    def combine_spy(X, Y, *args, **kwargs):
        rec.combines.append((X, Y))
        return real_combine(X, Y, *args, **kwargs)

    def scan_spy(part, lo, hi):
        rec.e_scans.append(part.size)
        return real_scan(part, lo, hi)

    def e_stage(X, F, k, op, budget, chosen):
        rec.F = F
        if reference:
            sl = reference_slice(X, F, k, op, budget)
            try:
                chosen(sl.t, len(sl.support))
            except BudgetExceeded:
                pass
        else:
            with mock.patch.object(repfn, "_run_starts", scan_spy):
                sl = real_slice(X, F, k, op, budget, chosen)
        rec.E = sl.support
        return sl

    def traced_e_stage(*args):
        tracemalloc.start()
        held = tracemalloc.get_traced_memory()[0]
        try:
            return e_stage(*args)
        finally:
            rec.e_peak = tracemalloc.get_traced_memory()[1] - held
            tracemalloc.stop()

    patches = [*table_builds(rec.builds),
               mock.patch.object(verify, "dyadic_slice", keep_slices),
               mock.patch.object(verify, "_dyadic_slice",
                                 traced_e_stage if trace else e_stage),
               mock.patch.object(verify, "energy", energy_spy),
               mock.patch.object(verify, "combine", combine_spy)]
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
    return rep, rec


def rss_cases():
    F1009, F65537 = GroundField.prime(1009), GroundField.prime(65537)
    ap = ElemSet(F65537, range(3, 3 + 5 * 24, 5))
    return [
        # p-constraint (i) or (ii) and both surrogates are violated
        (random_set(F1009, 48, seed=48), None),
        (ap, None),
        (random_set(GroundField.prime(P31), 40, seed=1), None),
        # the A x E energy exceeds the budget that A x F fits in: |E| is
        # read from the histogram, E is not written out, and the
        # constraints are skipped
        (ap, 50_000),
        # the A x F slice exceeds it: no E
        (random_set(F1009, 48, seed=48), 5_000),
    ]


def report_json(rep):
    """The report as JSON text without elapsed_ms, where a skipped final
    fit's nan equals itself."""
    d = rep.to_dict()
    d.pop("elapsed_ms")
    return json.dumps(d, sort_keys=True)


def check_rss_against_reference(A, variant, budget):
    """The report equals the reference's; where energy(A, E, 4) fits, it is
    the only table over A x E, and where it does not, E is neither written
    out nor used."""
    got, rec = run_rss(A, variant, budget, reference=False)
    want, ref = run_rss(A, variant, budget, reference=True)
    assert report_json(got) == report_json(want)
    if ref.E is None:  # the A x F table is over the budget itself
        assert rec.E is None and "|E|=n/a" in got.notes
        return got
    A0 = A if variant == "additive" else A.remove_zero()
    assert f"|E|={len(ref.E)} " in got.notes
    # the reference writes E and hands it to energy(A, E, 4), once
    assert ref.over(A0, ref.E)[1] == 1
    if "final=skipped" in got.notes:
        # here E's values are never written, and no table over A x E is
        # asked for: neither the energy nor the constraints' A-E (A/E),
        # which the same budget refuses
        assert rec.E is None and rec.e_scans == []
        assert rec.over(A0, ref.E) == (0, 0, 0)
        assert ref.over(A0, ref.E)[0] == 0
        assert "exceed budget" in got.notes
    else:
        # energy(A, E, 4) is the only table over A x E, where the public
        # p_constraint_check builds A-E (A/E) once more if its budget
        # lets it get that far
        assert rec.E == ref.E and rec.e_scans
        assert rec.over(A0, rec.E) == (1, 1, 0)
        assert ref.over(A0, ref.E)[0] in (1, 2)
    return got


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
@pytest.mark.parametrize("case", range(5))
def test_rss_reports_match_reference(variant, case):
    A, budget = rss_cases()[case]
    check_rss_against_reference(A, variant, budget)


def e_stage_cases():
    """(A, variant) with E large enough that the pipeline's other tables
    fit a budget of |A| x |E∖{0}| pairs."""
    rnd = random_set(GroundField.prime(P31), 40, seed=1)
    return [(rnd, "additive"), (rnd, "multiplicative"),
            (ElemSet(GroundField.prime(65537), range(3, 3 + 5 * 24, 5)),
             "multiplicative"),
            (ElemSet(GroundField.char0(), [x * x + 3 * x for x in range(32)]),
             "additive")]


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("side", ["fits", "over"])
@pytest.mark.parametrize("via", ["argument", "SUMPROD_BUDGET"])
def test_rss_e_stage_on_both_sides_of_the_budget(case, side, via,
                                                  monkeypatch):
    # a budget of exactly |A| x |E∖{0}| pairs fits energy(A, E, 4), one
    # pair less does not; the same budget lets every other table through
    A, variant = e_stage_cases()[case]
    _, ref = run_rss(A, variant, None, reference=True)
    A0 = A if variant == "additive" else A.remove_zero()
    pairs = len(A0) * len(ref.E.remove_zero() if variant != "additive"
                          else ref.E)
    budget = pairs - (side == "over")
    if via == "SUMPROD_BUDGET":
        monkeypatch.setenv("SUMPROD_BUDGET", str(budget))
        budget = None
    got = check_rss_against_reference(A, variant, budget)
    skipped = f"final=skipped ({len(A0)}x{len(ref.E)} pairs exceed budget " \
        f"{pairs - 1})"
    assert (skipped in got.notes) == (side == "over")
    assert got.inputs["mu"] > 0


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_skipped_e_stage_allocates_nothing_of_e_size(variant):
    # a budget one pair short of energy(A, E, 4): the skipped E stage holds
    # the int32 A x F table, its histogram and buffers of the row block or
    # the piece, never E's int64 values; the reference writes E out
    A = random_set(GroundField.prime(P31), 64, seed=9)
    _, ref = run_rss(A, variant, None, reference=True)
    A0 = A if variant == "additive" else A.remove_zero()
    budget = len(A0) * len(ref.E) - 1
    piece, bucket = 1 << 10, 1 << 13
    slack = (1 << 16) + 2 * 32 * piece
    # the A x F table is bucketed; its div form is taken over logs
    with forced_threads(2, block=piece, chunk=piece), mock.patch.multiple(
            repfn, _BUCKET=bucket, _GATHER=piece, _LOG_MIN=0, _LOG_SIDE=0):
        got, rec = run_rss(A, variant, budget, reference=False, trace=True)
        _, ref = run_rss(A, variant, budget, reference=True, trace=True)
    assert "final=skipped" in got.notes and rec.E is None
    # r_{A-F} (r_{A/F}) takes at most |A| as a multiplicity; a div table
    # also holds the checked logs of A and F, their int64 temporaries and
    # those of the check of the 2^16 + 2^15 entry power tables
    bound = 2 * (4 * bucket + 64 * piece) + 8 * (len(A0) + 1) \
        + 96 * (len(A0) + len(rec.F)) + slack
    if variant == "multiplicative":
        bound += 16 << 16
    assert 8 * len(ref.E) > 4 * slack
    assert rec.e_peak <= bound
    assert ref.e_peak > bound + 8 * len(ref.E)


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_rss_regularization_stage_keeps_the_budget(variant, monkeypatch):
    # the budget argument reaches regu_iterate and popular_sums: it lets
    # their tables through whatever SUMPROD_BUDGET says, and one below
    # |A|^2 pairs refuses the first table before any is built
    A = random_set(GroundField.prime(P31), 64, seed=0)
    monkeypatch.setenv("SUMPROD_BUDGET", "100")
    rep = check_rss_proposition(A, variant, budget=10**8)
    assert rep.inputs["|B|"] > 0
    monkeypatch.delenv("SUMPROD_BUDGET")
    builds = []
    patches = table_builds(builds)
    for p in patches:
        p.start()
    try:
        with pytest.raises(BudgetExceeded, match="exceed budget 1000"):
            check_rss_proposition(A, variant, budget=1000)
    finally:
        for p in reversed(patches):
            p.stop()
    assert builds == []


def test_rss_reports_name_violated_constraints():
    A = random_set(GroundField.prime(1009), 48, seed=48)
    notes = {v: check_rss_proposition(A, v).notes
             for v in ("additive", "multiplicative")}
    assert "'i'" in notes["additive"] and "'ii'" in notes["multiplicative"]


@pytest.mark.parametrize("threads", [1, 2])
def test_level_peak_memory_is_table_plus_selection(threads):
    # about 2*10^6 pairs, never held whole: one value bucket per thread and
    # its gather buffers, the operands' sorted copies, the histogram and
    # the selected int64 values are the floor; every other buffer scales
    # with the piece. Building the RepFn and filtering it costs its int32
    # table and int64 values and counts on top, which this bound refuses.
    F = GroundField.prime(P31)
    A = random_set(F, 2000, seed=21)
    B = random_set(F, 1000, seed=22)
    piece, bucket = 1 << 12, 1 << 15
    slack = (1 << 16) + threads * 32 * piece

    def bound(hist, selected):
        return threads * (4 * bucket + 64 * piece) + 32 * (2000 + 1000) \
            + 8 * hist.size + 8 * selected + slack

    with forced_threads(threads, block=piece, chunk=piece), \
            mock.patch.multiple(repfn, _BUCKET=bucket, _GATHER=piece):
        for band in (lambda h: (1, 2), lambda h: (2, h.size)):
            (hist, S), peak = traced_peak(
                lambda: _table(A, B, "sub", "level", band))
            assert peak <= bound(hist, len(S))
        sl, peak = traced_peak(lambda: dyadic_slice(A, B, 2, "add"))
        hist = rep_function(A, B, "sub").count_histogram()
        assert peak <= bound(hist, len(sl.support))
        old, peak = traced_peak(
            lambda: dyadic_extract(rep_function(A, B, "sub"), 2))
        assert old == sl
        assert peak > bound(hist, len(sl.support))


@pytest.mark.parametrize("fault", ["drop", "extra"])
@pytest.mark.parametrize("route,op,reduce", [
    pytest.param("rows-1", "mul", "level", id="rows-1-mul"),
    pytest.param("rows-1", "sub", "level", id="rows-1-sub"),
    pytest.param("rows-2", "mul", "level", id="rows-2-mul"),
    pytest.param("buckets-1", "sub", "level", id="buckets-1-sub"),
    pytest.param("buckets-2", "add", "level", id="buckets-2-add"),
    pytest.param("rows-1", "sub", "support", id="rows-1-sub-support"),
    pytest.param("rows-2", "mul", "support", id="rows-2-mul-support"),
    pytest.param("rows-1", "mul", "rep", id="rows-1-mul-rep"),
    pytest.param("rows-2", "sub", "rep", id="rows-2-sub-rep")])
def test_piece_writing_other_than_its_share_raises(route, op, reduce, fault):
    # a piece whose run scan keeps one run less or one value more than its
    # share raises, for every reduction the scan writes, on the row split
    # (a half sub table with its mirror too) and on the value buckets alike
    F = GroundField.prime(101)
    A = random_set(F, 60, seed=3)
    B = A if op == "sub" else random_set(F, 40, seed=4)
    real = repfn._run_starts

    def faulty(part, lo, hi):
        new = real(part, lo, hi)
        # clear the first run start kept, or set the first position not kept
        new[np.flatnonzero(new if fault == "drop" else ~new)[:1]] = \
            fault == "extra"
        return new

    kernel, threads = route.split("-")
    # one thread splits no rows below _PARALLEL_MIN; above it, add/sub
    # level sets take the buckets
    sizes = {"_BUCKET": 50} if kernel == "buckets" else \
        {"_PARALLEL_MIN": 0 if threads == "2" else 1 << 40}
    band = (lambda h: (1, h.size)) if reduce == "level" else None
    with forced_threads(int(threads)), mock.patch.multiple(repfn, **sizes), \
            mock.patch.object(repfn, "_run_starts", faulty), \
            mock.patch.object(repfn, "_bucket_table",
                              wraps=repfn._bucket_table) as buckets, \
            mock.patch.object(repfn, "ThreadPoolExecutor",
                              wraps=repfn.ThreadPoolExecutor) as pool:
        with pytest.raises(RuntimeError, match="share"):
            _table(A, B, op, reduce, band)
    assert buckets.called == (kernel == "buckets")
    assert pool.called == (threads == "2")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("reduce", ["rep", "support"])
def test_row_piece_writing_other_than_its_runs_raises(threads, reduce):
    # a slice whose histogram scan counts one run too many writes other
    # than its share
    F = GroundField.prime(101)
    A = random_set(F, 60, seed=3)
    real = repfn._region_spectrum

    def one_more(piece):
        hist, long = real(piece)
        hist[1] += 1
        return hist, long

    with forced_threads(threads), mock.patch.object(
            repfn, "_region_spectrum", one_more):
        with pytest.raises(RuntimeError, match="share"):
            _table(A, random_set(F, 40, seed=4), "mul", reduce)
