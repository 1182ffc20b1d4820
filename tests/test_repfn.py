import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sumprod import (BudgetExceeded, ElemSet, GroundField, count_spectrum,
                     rep_function)
from sumprod import repfn
from sumprod.repfn import (_exact_dot, _grid, _int_fast_ok, _inverses,
                           _object_table, _table)

from conftest import (P31, forced_threads, pair_table_case, random_set,
                      self_table_case, sorted_tables, table_and_half)

small_sets = st.lists(st.integers(-50, 50), min_size=1, max_size=12)


def test_rep_sub_table(c0):
    A = ElemSet(c0, [0, 1, 2])
    r = rep_function(A, A, "sub")
    assert r.to_dict() == {-2: 1, -1: 2, 0: 3, 1: 2, 2: 1}


def test_rep_empty_rhs(c0):
    A = ElemSet(c0, [0, 1, 2])
    r = rep_function(A, ElemSet.empty(c0), "add")
    assert len(r) == 0 and sum(c for _, c in r.items()) == 0


def test_rep_div_subgroup_mod7():
    F7 = GroundField.prime(7)
    A = ElemSet(F7, [1, 2, 4])
    r = rep_function(A, A, "div")
    assert r.to_dict() == {1: 3, 2: 3, 4: 3}
    assert r.excluded_pairs == 0


def test_div_excludes_zero_denominators(c0):
    A = ElemSet(c0, [0, 1, 2])
    r = rep_function(A, A, "div")
    assert r.excluded_pairs == 3  # (a, 0) for each a
    assert sum(c for _, c in r.items()) == 9 - 3


def test_budget_error(c0):
    A = ElemSet(c0, range(100))
    with pytest.raises(BudgetExceeded):
        rep_function(A, A, "add", budget=10)


@pytest.mark.parametrize("env,budget", [(None, repfn.DEFAULT_BUDGET),
                                        ("", repfn.DEFAULT_BUDGET),
                                        ("5000", 5000), (" 12 ", 12)])
def test_table_budget_reads_the_variable(monkeypatch, env, budget):
    if env is None:
        monkeypatch.delenv("SUMPROD_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SUMPROD_BUDGET", env)
    assert repfn.table_budget() == budget


@pytest.mark.parametrize("env", ["0", "-5", "1e8", "x", "10.0"])
def test_table_budget_refuses_what_is_no_positive_integer(monkeypatch, env):
    monkeypatch.setenv("SUMPROD_BUDGET", env)
    with pytest.raises(ValueError, match=f"^SUMPROD_BUDGET must be a "
                                         f"positive integer, got '{env}'$"):
        repfn.table_budget()


@settings(max_examples=60, deadline=None)
@given(small_sets, small_sets,
       st.sampled_from(["add", "sub", "mul", "div"]), st.booleans())
def test_mass_conservation(xs, ys, op, prime):
    field = GroundField.prime(101) if prime else GroundField.char0()
    A, B = ElemSet(field, xs), ElemSet(field, ys)
    r = rep_function(A, B, op)
    assert sum(c for _, c in r.items()) + r.excluded_pairs == len(A) * len(B)
    assert all(c >= 1 for _, c in r.items())


@settings(max_examples=40, deadline=None)
@given(small_sets, st.booleans())
def test_difference_symmetry(xs, prime):
    field = GroundField.prime(101) if prime else GroundField.char0()
    A = ElemSet(field, xs)
    r = rep_function(A, A, "sub").to_dict()
    for x, c in r.items():
        assert r[field.sub(0, x)] == c


def test_ratio_symmetry_prime():
    F = GroundField.prime(101)
    A = ElemSet(F, [3, 7, 20, 50, 99])
    r = rep_function(A, A, "div").to_dict()
    for x, c in r.items():
        assert r[F.div(1, x)] == c


@settings(max_examples=40, deadline=None)
@given(small_sets, small_sets, st.sampled_from(["add", "sub", "mul", "div"]))
def test_count_spectrum_matches_rep(xs, ys, op):
    field = GroundField.char0()
    A, B = ElemSet(field, xs), ElemSet(field, ys)
    r = rep_function(A, B, op)
    hist = count_spectrum(A, B, op)
    from collections import Counter
    want = Counter(c for _, c in r.items())
    got = {m: int(h) for m, h in enumerate(hist.tolist()) if h and m}
    assert got == dict(want)


def test_count_histogram_is_computed_once(fp):
    r = rep_function(random_set(fp, 60, seed=4), random_set(fp, 50, seed=5),
                     "sub")
    hist = r.count_histogram()
    assert r.count_histogram() is hist
    assert not hist.flags.writeable
    assert hist.tolist() == np.bincount(r.counts).tolist()


def test_count_spectrum_large_prime_path(fp):
    A = random_set(fp, 500, seed=11)
    B = random_set(fp, 400, seed=12)
    hist = count_spectrum(A, B, "sub")
    assert int(sum(m * h for m, h in enumerate(hist.tolist()))) == 500 * 400


@settings(max_examples=300, deadline=None)
@given(self_table_case())
def test_self_tables_match_object_path(case):
    A, B, op = case
    pairs = _object_table(A, B.remove_zero() if op == "div" else B, op)
    assert rep_function(A, B, op).to_dict() == dict(pairs)
    want = np.bincount(np.asarray(list(pairs.values()), dtype=np.int64),
                       minlength=1)
    assert count_spectrum(A, B, op).tolist() == want.tolist()


@pytest.mark.parametrize("op,table,support", [
    ("sub", 50 * 49 // 2, 50 * 49 // 2),
    ("add", 50 * 50, 50 * 51 // 2),
    ("mul", 50 * 50, 50 * 51 // 2),
    ("div", 50 * 50, 50 * 50)])
def test_self_tables_build_half_square(fp, op, table, support):
    A = random_set(fp, 50, seed=3, lo=1)
    copy = ElemSet(fp, list(A))
    for reduce in ("rep", "spectrum", "support"):
        with sorted_tables() as sizes:
            _table(A, copy, op, reduce)
        assert sizes[-1] == (support if reduce == "support" else table)


def half_fill_sets(p):
    """Sets whose self tables test the row split's half fill mod p: n = 1
    and 2, sums that hit p (0 after the wrap), p - 1 and p + 1, and nine
    values, one row more than a block of 72 pairs holds."""
    return {
        "n=1": [5],
        "n=2": [3, p - 3],
        "wrap": [0, 1, 7, (p - 1) // 2, (p + 1) // 2, 12, p - 13, p - 12,
                 p - 7, p - 2, p - 1],
        "block+1": [1, 2, 4, 9, 16, 33, p - 33, p - 9, p - 1],
    }


@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("op,reduce", [("add", "support"), ("mul", "support"),
                                       ("sub", "support"), ("sub", "rep")])
@pytest.mark.parametrize("kind", ["n=1", "n=2", "wrap", "block+1"])
@pytest.mark.parametrize("p", [101, P31])
def test_half_fill_matches_object_path(p, kind, op, reduce, threads):
    F = GroundField.prime(p)
    values = half_fill_sets(p)[kind]
    A, copy = ElemSet(F, values), ElemSet(F, values)
    assert len(A) == len(values)
    # 72 pairs a block: 8 rows of 9, so "block+1" ends with a one-row block
    with forced_threads(threads, block=72):
        got, half = table_and_half(A, copy, op, reduce)
    assert half
    pairs = _object_table(A, A, op)
    if reduce == "support":
        assert list(got) == sorted(pairs)
    else:
        assert got.to_dict() == dict(pairs)


@pytest.mark.parametrize("op", ["add", "sub"])
def test_large_table_on_usable_cores(fp, op):
    # above the one-thread threshold: filled and sorted on every core this
    # process may use, on one thread when pinned to one core
    A = random_set(fp, 1500, seed=5)
    r, half = table_and_half(A, ElemSet(fp, list(A)[:-1]), op, "rep")
    vals, counts = r.values, r.counts
    a, b = A.ints, A.ints[:-1]
    want = np.remainder(a[:, None] + b if op == "add" else a[:, None] - b,
                        fp.p)
    assert want.size >= repfn._PARALLEL_MIN and not half
    want_vals, want_counts = np.unique(want, return_counts=True)
    assert vals.dtype == counts.dtype == np.int64
    assert np.array_equal(vals, want_vals)
    assert np.array_equal(counts, want_counts)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 101, 65537, P31]), st.data())
def test_inverses_match_pow(p, data):
    xs = data.draw(st.lists(st.integers(1, p - 1), max_size=40))
    inv = _inverses(np.asarray(xs, dtype=np.int64), p)
    assert inv.tolist() == [pow(x, p - 2, p) for x in xs]


@pytest.mark.parametrize("bad", [0, 101, 202])
def test_inverses_refuse_multiples_of_p(bad):
    with pytest.raises(ArithmeticError):
        _inverses(np.asarray([1, bad, 5], dtype=np.int64), 101)
    with pytest.raises(ValueError):
        _inverses(np.asarray([1], dtype=np.int64), 2**31 + 11)


@pytest.mark.parametrize("op,bound", [("add", 1 << 61), ("sub", 1 << 61),
                                      ("mul", 1 << 31)])
def test_fast_rule_char0_bounds(c0, op, bound):
    small = np.asarray([-3, 0, 7], dtype=np.int64)

    def ok(*values):
        return _int_fast_ok(c0, op, small, np.asarray(values, dtype=np.int64))

    assert ok() and ok(bound - 1) and ok(-(bound - 1))
    assert not ok(bound) and not ok(-bound) and not ok(1, bound + 5)
    # every operand is bounded, not only the last
    assert not _int_fast_ok(c0, op, np.asarray([bound]), small)


def test_fast_rule_refusals(c0, fp):
    one = np.asarray([1], dtype=np.int64)
    assert _int_fast_ok(fp, "div", one, one)
    assert _int_fast_ok(fp, "mul", one)
    assert not _int_fast_ok(c0, "div", one, one)
    assert not _int_fast_ok(c0, "div", one)
    assert not _int_fast_ok(GroundField.prime(2**31 + 11), "add", one, one)
    # None (a set with rationals) or exact objects are not int operands
    assert not _int_fast_ok(fp, "add", one, None)
    assert not _int_fast_ok(c0, "add", (1, 2), one)


@settings(max_examples=300, deadline=None)
@given(pair_table_case())
@example((ElemSet(GroundField.char0(), [(1 << 32) - 1, 3]),
          ElemSet(GroundField.char0(), [-2, (1 << 32) - 1]), "mul"))
def test_grid_matches_field_ops(case):
    # wherever the rule accepts, the int64 grid is the exact field op; the
    # example's products would wrap int64 past a char0 mul bound of 2^32
    A, B, op = case
    if op == "div":
        B = B.remove_zero()
    field = A.field
    if not _int_fast_ok(field, op, A.ints, B.ints):
        return
    fop = getattr(field, op)
    assert _grid(A.ints, B.ints, op, field.p).tolist() == \
        [[fop(x, y) for y in B] for x in A]


_DOT_ENTRY = st.integers(0, 40) | st.integers((1 << 26) - 40, (1 << 27) + 40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_DOT_ENTRY, _DOT_ENTRY), max_size=6))
@example([((1 << 27) + 1, (1 << 27) + 1)])
@example([(1 << 26, (1 << 27) - 1)])
def test_exact_dot_on_both_sides_of_2_53(pairs):
    # entries near 2^26..2^27 put sum(x) * max(y) on either side of 2^53;
    # a float64 dot above it drops low bits, e.g. (2^27 + 1)^2
    x = np.asarray([a for a, _ in pairs], dtype=np.int64)
    y = np.asarray([b for _, b in pairs], dtype=np.int64)
    assert _exact_dot(x, y) == sum(a * b for a, b in pairs)


_WIDE_DOT_ENTRY = st.integers(0, 40) | st.integers((1 << 31) - 40,
                                                   (1 << 32) + 40)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_WIDE_DOT_ENTRY, _WIDE_DOT_ENTRY), max_size=6))
@example([((1 << 31) + 1, (1 << 31) + 1)])
@example([((1 << 31) + 1, 1 << 32), (1 << 31, 3)])
@example([(1 << 32, 1 << 32)])
def test_exact_dot_on_both_sides_of_2_63(pairs):
    # entries near 2^31..2^32 put sum(x) * max(y) on either side of 2^63;
    # an int64 dot above it wraps, e.g. 2^32 * 2^32
    x = np.asarray([a for a, _ in pairs], dtype=np.int64)
    y = np.asarray([b for _, b in pairs], dtype=np.int64)
    assert _exact_dot(x, y) == sum(a * b for a, b in pairs)
