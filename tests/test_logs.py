"""Div spectra over discrete logs.

count_spectrum takes r_{A/B} as r_{L_A - L_B} over Z/(p-1),
L = log(A∖{0}), for tables of at least repfn._LOG_MIN pairs whose shorter
side has at least repfn._LOG_SIDE elements, when every prime factor of p-1
is at most 2^16; r_{A/A} is a half table. These tests lower both gates to
0, so that tiny tables take the log path, and compare it with the object
table and with the inverse path (the pair gate raised out of reach).
"""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import ElemSet, GroundField, count_spectrum, energy
from sumprod import repfn
from sumprod.energy import dyadic_slice
from sumprod.repfn import (_discrete_logs, _log_table, _object_table, _pow_g,
                           _table)

from conftest import P31

# p - 1 = 2^5 * 67108859: no log table, every table keeps the inverses
P_BIG_FACTOR = 2147483489
# p - 1 = 2 * 5 * 65521 (just below 2^16) and 2 * 7 * 65537 (just above)
P_AT_BOUND = 655211
P_OVER_BOUND = 917519


def log_gate(pairs):
    """Take logs from `pairs` pairs on, whatever the shorter side."""
    return mock.patch.multiple(repfn, _LOG_MIN=pairs, _LOG_SIDE=0)


def spy():
    return mock.patch.object(repfn, "_discrete_logs",
                             wraps=repfn._discrete_logs)


def object_spectrum(A, B):
    table = _object_table(A, B.remove_zero(), "div")
    return np.bincount(np.asarray(list(table.values()), dtype=np.int64),
                       minlength=1).tolist()


def check_log_path(A, B=None):
    """The log path agrees with the object table and the inverse path."""
    B = A if B is None else B
    with log_gate(0), spy() as logs:
        got = count_spectrum(A, B, "div").tolist()
        moments = [energy(A, B, k, "mul").value for k in (2, 4, 4 / 3)]
    # {0} / {0} has no pairs and no logs to take
    assert logs.call_count == (4 if len(B.remove_zero()) else 0)
    with log_gate(1 << 62), spy() as logs:
        want = count_spectrum(A, B, "div").tolist()
        want_moments = [energy(A, B, k, "mul").value for k in (2, 4, 4 / 3)]
    assert logs.call_count == 0
    assert got == want == object_spectrum(A, B)
    assert moments == want_moments


def coset(p, order, shift):
    g = _log_table(p).g
    h = pow(g, (p - 1) // order, p)
    return [shift * pow(h, j, p) % p for j in range(order)]


def named_sets(p):
    """Sets that meet the exactness traps of the log path."""
    rng = random.Random(p)
    top = min(p - 1, 150)
    some = rng.sample(range(1, p), top)
    pm = some[:top // 2]
    order = {3: 2, 5: 2, 101: 20, P31: 462}[p]
    return {
        "one": [some[0]],
        "two": some[:2],
        "zero-and-one": [0, some[0]],
        "x-and-minus-x": [some[0], p - some[0]],
        "random": some,
        "with-zero": [0] + some,
        "plus-minus": pm + [p - x for x in pm],  # class (p-1)/2: a/b = -1
        "plus-minus-zero": [0] + pm + [p - x for x in pm[:len(pm) // 2]],
        "coset": coset(p, order, some[-1]),
        "coset-zero": [0] + coset(p, order, some[-1]),
        "units": list(range(1, top + 1)),
    }


@pytest.mark.parametrize("p", [3, 5, 101, P31])
@pytest.mark.parametrize("name", list(named_sets(101)))
def test_log_spectrum_matches_object_and_inverse_paths(p, name):
    check_log_path(ElemSet(GroundField.prime(p), named_sets(p)[name]))


@pytest.mark.parametrize("p", [3, 101, P31])
def test_log_path_with_zero_on_either_side(p):
    F = GroundField.prime(p)
    units = named_sets(p)["plus-minus"]
    check_log_path(ElemSet(F, [0] + units), ElemSet(F, units))
    check_log_path(ElemSet(F, units), ElemSet(F, [0] + units))


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([3, 5, 101, P31]), data=st.data())
def test_log_spectrum_random_sets(p, data):
    value = st.integers(0, min(p - 1, 40)) | st.integers(max(0, p - 40), p - 1)
    vals = set(data.draw(st.lists(value, min_size=1, max_size=14)))
    if data.draw(st.booleans()):  # close the set under x -> -x
        vals |= {(p - v) % p for v in vals}
    check_log_path(ElemSet(GroundField.prime(p), vals))


def test_log_spectrum_on_threads():
    F = GroundField.prime(P31)
    A = ElemSet(F, named_sets(P31)["plus-minus-zero"])
    with mock.patch.multiple(repfn, _threads=lambda: 3, _PARALLEL_MIN=0,
                             _BLOCK=1000):
        check_log_path(A)


def test_coset_energy_closed_form():
    # in log space a coset of the subgroup of order n is a coset of a
    # subgroup of Z/(p-1): r_{A/A} = n on H, so E_4 = n^5
    A = ElemSet(GroundField.prime(P31), coset(P31, 462, 12345))
    with log_gate(0), spy() as logs:
        assert energy(A, A, 4, "mul").value == 462**5
        assert count_spectrum(A, A, "div").tolist() == [0] * 462 + [462]
    assert logs.call_count == 2


@pytest.mark.parametrize("p", [3, 5, 101, P_AT_BOUND, P31])
def test_logs_satisfy_generator(p):
    table = _log_table(p)
    rng = random.Random(p)
    x = np.asarray(sorted(rng.sample(range(1, p), min(p - 1, 2000))),
                   dtype=np.int64)
    logs = _discrete_logs(x, table)
    assert logs.dtype == np.int64
    assert ((0 <= logs) & (logs < p - 1)).all()
    assert [pow(table.g, L, p) for L in logs.tolist()] == x.tolist()
    if p < 1000:  # a generator: logs of all of F_p^* are all of Z/(p-1)
        assert sorted(_discrete_logs(np.arange(1, p), table).tolist()) == \
            list(range(p - 1))


def test_log_table_gate():
    assert _log_table(P_BIG_FACTOR) is None
    assert _log_table(P_OVER_BOUND) is None
    table = _log_table(P_AT_BOUND)
    assert [part[0] for part in table.parts] == [2, 5, 65521]
    assert _log_table(P31).g == 7


@pytest.mark.parametrize("x", [[0], [5, 0, 9], [P31], [3, -P31]])
def test_zero_has_no_log(x):
    with pytest.raises(ArithmeticError, match="no discrete log"):
        _discrete_logs(np.asarray(x, dtype=np.int64), _log_table(P31))


def corrupted(table, part, field):
    parts = list(table.parts)
    q, e, roots, digits, steps = parts[part]
    if field == "digits":
        digits = digits.copy()
        digits[[0, 1]] = digits[[1, 0]]
    elif field == "roots":
        roots = roots.copy()
        roots[-1] -= 1
    else:
        steps = (steps[0][::-1].copy(),) + steps[1:]
    parts[part] = (q, e, roots, digits, steps)
    return table._replace(parts=tuple(parts))


# P31 - 1 = 2 * 3^2 * 7 * 11 * 31 * 151 * 331: only the part of 3^2 has a
# digit to strip
@pytest.mark.parametrize("field,part", [
    *[(field, part) for field in ("digits", "roots") for part in range(7)],
    ("steps", 1)])
def test_corrupted_log_table_raises(field, part):
    table = _log_table(P31)
    x = np.arange(1, 3000, dtype=np.int64)
    with pytest.raises(ArithmeticError):
        _discrete_logs(x, corrupted(table, part, field))
    # the cached table itself is untouched
    assert (_discrete_logs(x, table) >= 0).all()


def test_mass_check_raises():
    A = ElemSet(GroundField.prime(P31), named_sets(P31)["random"])
    table = repfn._sorted_table

    def drop_one(*args):
        got = table(*args)
        got.hist[1] -= 1  # one class fewer in the half table's spectrum
        return got

    with log_gate(0), mock.patch.object(repfn, "_sorted_table", drop_one):
        with pytest.raises(ArithmeticError, match="mass"):
            count_spectrum(A, A, "div")


@pytest.mark.parametrize("p", [P_BIG_FACTOR, P_OVER_BOUND])
def test_large_factor_prime_never_takes_log_path(p):
    F = GroundField.prime(p)
    A = ElemSet(F, [0] + random.Random(1).sample(range(1, p), 60))
    with log_gate(0), spy() as logs:
        got = count_spectrum(A, A, "div").tolist()
        energy(A, A, 4, "mul")
    assert logs.call_count == 0
    assert got == object_spectrum(A, A)


def test_gate_refusals():
    F = GroundField.prime(P31)
    A = ElemSet(F, named_sets(P31)["random"])
    B = ElemSet(F, list(A)[1:])
    with spy() as logs:
        count_spectrum(A, A, "div")  # below the default gates
        with log_gate(0):
            count_spectrum(A, A, "sub")
            repfn.rep_function(A, A, "div")
        assert logs.call_count == 0
        with log_gate(len(A) ** 2):
            count_spectrum(A, A, "div")
        assert logs.call_count == 1
        # a rectangular table takes logs as well, of both sides at once
        with log_gate(0):
            assert count_spectrum(A, B, "div").tolist() == \
                object_spectrum(A, B)
        assert logs.call_count == 2
        # a shorter side below _LOG_SIDE keeps the inverses at any size
        with mock.patch.object(repfn, "_LOG_MIN", 0):
            count_spectrum(A, B, "div")
        assert logs.call_count == 2
    C = ElemSet(GroundField.char0(), [0, 1, 2, 4, -2])
    with log_gate(0):  # char0 has no logs
        assert count_spectrum(C, C, "div").tolist() == object_spectrum(C, C)


def level_bands(hist):
    top = hist.size - 1
    return [(m, m + 1) for m in np.flatnonzero(hist).tolist()] + \
        [(1, top + 1), (2, top + 1), (0, 1), (top + 1, top + 2)]


def check_log_levels(A, B=None):
    """Level sets and dyadic slices over logs agree with the inverse path
    and with filters of the object table."""
    B = A if B is None else B
    pairs = _object_table(A, B.remove_zero(), "div")
    want = np.asarray(object_spectrum(A, B))
    want = want[:np.flatnonzero(want)[-1] + 1] if want.any() else want[:1]
    for lo, hi in level_bands(want):
        with log_gate(0), spy() as logs:
            hist, S = _table(A, B, "div", "level", lambda h: (lo, hi))
        assert logs.call_count == (1 if len(A.remove_zero())
                                   and len(B.remove_zero()) else 0)
        with log_gate(1 << 62):
            inv_hist, inv_S = _table(A, B, "div", "level",
                                     lambda h: (lo, hi))
        assert hist.tolist() == inv_hist.tolist() == want.tolist()
        assert S == inv_S
        assert list(S.elements()) == sorted(
            x for x, c in pairs.items() if lo <= c < hi), (lo, hi)
    if len(pairs):
        for k in (2, 4):
            with log_gate(0):
                got = dyadic_slice(A, B, k, "mul")
            with log_gate(1 << 62):
                assert got == dyadic_slice(A, B, k, "mul")


@pytest.mark.parametrize("p", [3, 101, P31])
@pytest.mark.parametrize("name", list(named_sets(101)))
def test_log_level_sets_match_object_and_inverse_paths(p, name):
    check_log_levels(ElemSet(GroundField.prime(p), named_sets(p)[name]))


CROSS = [("random", "coset"), ("with-zero", "plus-minus"),
         ("plus-minus-zero", "units"), ("coset-zero", "plus-minus"),
         ("zero-and-one", "random"), ("one", "with-zero")]


@pytest.mark.parametrize("p", [5, 101, P31])
@pytest.mark.parametrize("names", CROSS, ids="/".join)
def test_cross_log_tables_match_object_and_inverse_paths(p, names):
    F = GroundField.prime(p)
    A, B = (ElemSet(F, named_sets(p)[name]) for name in names)
    for X, Y in ((A, B), (B, A)):
        check_log_path(X, Y)
        check_log_levels(X, Y)


@pytest.mark.parametrize("threads", [1, 2])
def test_log_tables_on_buckets(threads):
    # the log path's sub tables mod p-1 through the bucketed kernel: the
    # class (p-1)/2 of a half table and the 0 of A beside tiny buckets
    F = GroundField.prime(P31)
    sets = named_sets(P31)
    A = ElemSet(F, sets["plus-minus-zero"])
    B = ElemSet(F, sets["coset"])
    with mock.patch.multiple(repfn, _threads=lambda: threads,
                             _PARALLEL_MIN=0, _BUCKET=5), \
            mock.patch.object(repfn, "_bucket_table",
                              wraps=repfn._bucket_table) as kernel:
        check_log_path(A)
        check_log_levels(A)
        check_log_levels(A, B)
    assert kernel.call_count > 0


@pytest.mark.parametrize("side", [255, 256])
def test_shorter_side_gate(side):
    # with the pair gate at 0, a div table takes logs once the shorter of
    # A∖{0} and B∖{0} holds 256 elements
    F = GroundField.prime(P31)
    rng = random.Random(side)
    A = ElemSet(F, [0] + rng.sample(range(1, P31), 400))
    B = ElemSet(F, [0] + rng.sample(range(1, P31), side))
    C = ElemSet(F, rng.sample(range(1, P31), side))
    with mock.patch.object(repfn, "_LOG_MIN", 0), spy() as logs:
        got = [count_spectrum(X, Y, "div").tolist()
               for X, Y in ((A, B), (B, A), (C, C))]
    assert logs.call_count == (3 if side >= 256 else 0)
    assert got == [object_spectrum(X, Y) for X, Y in ((A, B), (B, A), (C, C))]


@pytest.mark.parametrize("which", [0, 1])
def test_corrupted_power_table_raises(which):
    table = _log_table(P31)
    powers = [part.copy() for part in table.powers]
    powers[which][7] += 1
    bad = table._replace(powers=tuple(powers))
    s = np.arange(0, P31 - 1, 99991, dtype=np.int64)
    with pytest.raises(ArithmeticError, match="power tables"):
        _pow_g(s, bad)
    with pytest.raises(ArithmeticError):
        _discrete_logs(np.arange(1, 3000, dtype=np.int64), bad)
    A = ElemSet(GroundField.prime(P31), named_sets(P31)["random"])
    with log_gate(0), mock.patch.object(repfn, "_log_table",
                                        lambda p: bad):
        with pytest.raises(ArithmeticError):
            count_spectrum(A, A, "div")
        with pytest.raises(ArithmeticError):
            _table(A, A, "div", "level", lambda h: (1, h.size))
    # the cached table itself is untouched
    assert (_pow_g(s, table) == [pow(7, x, P31) for x in s.tolist()]).all()


@pytest.mark.parametrize("fault", ["drop", "repeat", "shift"])
def test_failed_map_back_raises(fault):
    # a level set over logs that does not map back to its band's count of
    # distinct values raises
    A = ElemSet(GroundField.prime(P31), named_sets(P31)["plus-minus-zero"])
    real = repfn._sorted_table

    def faulty(*args):
        out = real(*args)
        if args[5] != "level":
            return out
        s = out.values
        s = {"drop": s[1:], "repeat": np.append(s, s[-1]),
             "shift": np.append(s[1:], s[-1])}[fault]
        return out._replace(values=s)

    with log_gate(0), mock.patch.object(repfn, "_sorted_table", faulty):
        with pytest.raises(ArithmeticError, match="maps back"):
            _table(A, A, "div", "level", lambda h: (1, h.size))


@pytest.mark.parametrize("p", [P_BIG_FACTOR, P_OVER_BOUND])
def test_large_factor_prime_levels_and_cross_tables_keep_inverses(p):
    F = GroundField.prime(p)
    rng = random.Random(2)
    A = ElemSet(F, [0] + rng.sample(range(1, p), 60))
    B = ElemSet(F, rng.sample(range(1, p), 40))
    with log_gate(0), spy() as logs:
        got = count_spectrum(A, B, "div").tolist()
        hist, S = _table(A, A, "div", "level", lambda h: (1, h.size))
        _table(A, B, "div", "level", lambda h: (2, h.size))
    assert logs.call_count == 0
    assert got == object_spectrum(A, B)
    assert len(S) == len(_object_table(A, A.remove_zero(), "div"))
