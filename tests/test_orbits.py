"""Add/sub spectra and level sets over orbit representatives.

When a subgroup G of F_p^* of order m > 1 fixes A∖{0} and B∖{0}, r_{A±B}
is constant on each coset of G, and `repfn._orbits` counts it from about
|A||B|/m representative pairs, for tables of at least repfn._ORBIT_MIN
pairs. These tests lower that gate to 0, so that small tables take the
orbit route, and compare it with the sort route (the gate raised out of
reach) and with the object table. Its exactness guards must raise
ArithmeticError under `python -O` too: a wrong m and a dropped orbit are
injected below.
"""

import contextlib
import math
import random
from unittest import mock

import numpy as np
import pytest

from sumprod import ElemSet, GroundField, count_spectrum, energy, repfn
from sumprod.energy import _dyadic_slice, dyadic_slice
from sumprod.families import subgroup_of_order
from sumprod.repfn import BudgetExceeded, _object_table, _table
from sumprod.verify import check_rss_proposition

from conftest import P31

# p - 1 = 2^9 * 3 * 23 * 89 * 683, the field of the suite's subgroup cells
P_SUITE = 2147483137
# p - 1 = 2^5 * 67108859: the only subgroups of usable order are 2-groups
P_BIG_FACTOR = 2147483489

# (p, m): m prime, a prime power and composite for each p
ORDERS = [(P31, 7), (P31, 9), (P31, 42),
          (P_SUITE, 3), (P_SUITE, 16), (P_SUITE, 24),
          (P_BIG_FACTOR, 2), (P_BIG_FACTOR, 8), (P_BIG_FACTOR, 32)]


def orbit_gate(pairs):
    return mock.patch.object(repfn, "_ORBIT_MIN", pairs)


@contextlib.contextmanager
def recorded(name):
    """Record what each call of repfn.<name> returns; yields the list."""
    out = []
    real = getattr(repfn, name)

    def spy(*args):
        got = real(*args)
        out.append(got)
        return got

    with mock.patch.object(repfn, name, spy):
        yield out


def union_of_cosets(p, m, count, seed, zero=False):
    """`count` distinct cosets x·H of the subgroup H of order m, with 0 if
    `zero`."""
    rng = random.Random(seed)
    H = subgroup_of_order(p, m).ints.tolist()
    out = set()
    while len(out) < count * m:
        x = rng.randrange(1, p)
        out |= {x * h % p for h in H}
    return ElemSet(GroundField.prime(p), sorted(out | ({0} if zero else set())))


def stabiliser_order(S, p):
    """The order of the largest subgroup of F_p^* that fixes S∖{0}, by
    brute force over the divisors of p - 1."""
    units = {x for x in S.ints.tolist() if x}
    g = repfn.primitive_root(p)
    best = 1
    for d in range(1, len(units) + 1):
        if (p - 1) % d == 0 and len(units) % d == 0:
            h = pow(g, (p - 1) // d, p)
            if all(x * h % p in units for x in units):
                best = d
    return best


def bands(hist, r0):
    """One-run bands, r(0)'s band, the whole table, empty bands and
    [top, ∞)."""
    top = hist.size - 1
    out = [(c, c + 1) for c in np.flatnonzero(hist).tolist()]
    return out + [(r0, r0 + 1), (1, top + 1), (0, 1), (3, 3),
                  (top + 1, top + 3), (top, math.inf), (1, math.inf)]


def check_orbit_route(A, B, op, m):
    """The orbit route serves spectrum and level requests with order m (or
    declines them for m = 1), and agrees with the sort route and, for
    small tables, the object table."""
    with orbit_gate(0), recorded("_stabiliser") as orders, \
            recorded("_orbits") as served:
        got = count_spectrum(A, B, op)
    assert orders == [m] and (served[0] is None) == (m == 1)
    with orbit_gate(1 << 62), recorded("_orbits") as served:
        want = count_spectrum(A, B, op)
    assert served == [None]
    assert got.tolist() == want.tolist()
    if len(A) * len(B) <= 20_000:
        table = _object_table(A, B, op)
        assert got.tolist() == np.bincount(
            np.fromiter(table.values(), np.int64), minlength=2).tolist()
    r0 = len(set(A.ints.tolist()) & {(-x if op == "add" else x) % A.field.p
                                     for x in B.ints.tolist()})
    trimmed = want[:np.flatnonzero(want)[-1] + 1]
    for lo, hi in bands(trimmed, r0):
        with orbit_gate(0), recorded("_orbits") as served:
            hist, S = _table(A, B, op, "level", lambda h: (lo, hi))
        assert (served[0] is None) == (m == 1)
        with orbit_gate(1 << 62):
            want_hist, want_S = _table(A, B, op, "level", lambda h: (lo, hi))
        assert hist.tolist() == want_hist.tolist() == trimmed.tolist()
        assert S == want_S, (lo, hi)


@pytest.mark.parametrize("p,m", ORDERS)
@pytest.mark.parametrize("zero", ["none", "A", "B", "both"])
@pytest.mark.parametrize("threads", [1, 2])
def test_orbit_route_matches_sort_route(p, m, zero, threads):
    A = union_of_cosets(p, m, 1, seed=m, zero=zero in ("A", "both"))
    B = union_of_cosets(p, m, 3, seed=p + m, zero=zero in ("B", "both"))
    H = subgroup_of_order(p, m)
    # the sort route takes the value buckets on `threads` threads
    with mock.patch.multiple(repfn, _threads=lambda: threads,
                             _PARALLEL_MIN=0):
        for op in ("add", "sub"):
            check_orbit_route(A, B, op, math.gcd(stabiliser_order(A, p),
                                                 stabiliser_order(B, p)))
            check_orbit_route(B, B, op, stabiliser_order(B, p))  # self
            check_orbit_route(B, A, op, math.gcd(stabiliser_order(A, p),
                                                 stabiliser_order(B, p)))
            check_orbit_route(H, H, op, m)


@pytest.mark.parametrize("p,m", ORDERS)
def test_sets_stable_under_g_only(p, m):
    # unions of cosets of G whose stabiliser is G itself, not a larger
    # subgroup, take exactly m; a subgroup of order 2m fixes neither
    A = union_of_cosets(p, m, 2, seed=3 * m)
    B = union_of_cosets(p, m, 5, seed=5 * m, zero=True)
    assert stabiliser_order(A, p) == stabiliser_order(B, p) == m
    for op in ("add", "sub"):
        check_orbit_route(A, B, op, m)
        check_orbit_route(A, A, op, m)


def test_stabiliser_is_the_common_one():
    # A is fixed by the subgroup of order 42, B by that of order 14 only:
    # the route takes their common subgroup, of order 14
    A = union_of_cosets(P31, 42, 2, seed=1)
    B = union_of_cosets(P31, 14, 3, seed=2, zero=True)
    assert stabiliser_order(A, P31) == 42
    assert stabiliser_order(B, P31) == 14
    for op in ("add", "sub"):
        check_orbit_route(A, B, op, 14)
        check_orbit_route(B, A, op, 14)


def test_stabiliser_against_brute_force():
    # p - 1 = 2^2 * 5^2
    rng = random.Random(101)
    for m in (1, 2, 4, 5, 10, 20, 25, 50, 100):
        for count in range(1, 100 // m + 1):
            S = union_of_cosets(101, m, count, seed=rng.random())
            T = union_of_cosets(101, m, 1, seed=rng.random())
            a = S.ints[S.ints != 0]
            b = T.ints[T.ints != 0]
            want = math.gcd(stabiliser_order(S, 101),
                            stabiliser_order(T, 101))
            assert repfn._stabiliser(a, b, 101) == want >= m


@pytest.mark.parametrize("p,m", ORDERS)
def test_probed_values_do_not_decide(p, m):
    # cosets of G below, and m values at the top of F_p that are no coset:
    # the first 8 values of the set are fixed by G, but the set is not, so
    # a lookup of a prefix cannot decide
    prefix = 8
    T = union_of_cosets(p, m, -(-2 * prefix // m), seed=m)
    S = ElemSet(T.field, T.ints.tolist() + list(range(p - m, p)))
    h = pow(repfn.primitive_root(p), (p - 1) // m, p)
    probed = S.ints[:prefix].tolist()
    assert all(x * h % p in set(S.ints.tolist()) for x in probed)
    assert stabiliser_order(S, p) < m
    for op in ("add", "sub"):
        check_orbit_route(T, T, op, m)
        check_orbit_route(S, T, op, stabiliser_order(S, p))


@pytest.mark.parametrize("p", [P31, P_SUITE, P_BIG_FACTOR])
def test_route_declines_trivial_stabilisers(p):
    # random sets of even size (so gcd(p-1, |A|, |B|) > 1), a set fixed by
    # -1 against one that is not, and {0}: each table takes the sort route
    F = GroundField.prime(p)
    rng = random.Random(p)
    R = ElemSet(F, rng.sample(range(1, p), 64))
    half = rng.sample(range(1, p), 32)
    PM = ElemSet(F, half + [p - x for x in half])
    Z = ElemSet(F, [0])
    for A, B in ((R, R), (R, PM), (PM, R), (Z, PM), (PM, Z)):
        for op in ("add", "sub"):
            with orbit_gate(0), recorded("_orbits") as served, \
                    mock.patch.object(repfn, "_cosets",
                                      wraps=repfn._cosets) as cosets:
                got = count_spectrum(A, B, op)
            assert served == [None] and cosets.call_count == 0
            table = _object_table(A, B, op)
            assert got.tolist() == np.bincount(
                np.fromiter(table.values(), np.int64), minlength=2).tolist()


def test_route_declines_below_its_gate_and_above_a_bucket():
    A = union_of_cosets(P31, 42, 3, seed=7)
    with recorded("_orbits") as served, \
            mock.patch.object(repfn, "_stabiliser",
                              wraps=repfn._stabiliser) as search:
        count_spectrum(A, A, "sub")
    assert served == [None] and search.call_count == 0
    # 3 x 126 representatives, over a bucket of 100
    with orbit_gate(0), mock.patch.object(repfn, "_BUCKET", 100), \
            recorded("_orbits") as served:
        got = count_spectrum(A, A, "sub")
    assert served == [None]
    with orbit_gate(0):
        assert count_spectrum(A, A, "sub").tolist() == got.tolist()


def test_support_and_rep_tables_keep_their_routes():
    A = union_of_cosets(P31, 42, 2, seed=9)
    with orbit_gate(0), recorded("_orbits") as served:
        S = _table(A, A, "add", "support")
        r = _table(A, A, "sub", "rep")
    assert served == [None, None]
    assert len(S) == len(_object_table(A, A, "add"))
    assert r.to_dict() == dict(_object_table(A, A, "sub"))


def test_energies_and_dyadic_slices_over_orbits():
    A = union_of_cosets(P_SUITE, 24, 4, seed=4, zero=True)
    B = union_of_cosets(P_SUITE, 48, 2, seed=5)
    for X, Y in ((A, A), (A, B)):
        for k in (2, 4, 4 / 3):
            with orbit_gate(0):
                got = energy(X, Y, k, "add")
            with orbit_gate(1 << 62):
                assert got == energy(X, Y, k, "add")
        with orbit_gate(0):
            got = dyadic_slice(X, Y, 2, "add")
        with orbit_gate(1 << 62):
            assert got == dyadic_slice(X, Y, 2, "add")


def test_chosen_hook_refuses_inside_the_band():
    # the rss E stage reads mu and |E| from the band call and refuses the
    # slice there: BudgetExceeded, and no orbit is expanded
    A = subgroup_of_order(P_SUITE, 64)
    F = union_of_cosets(P_SUITE, 64, 40, seed=6)
    seen = []

    def refuse(t, size):
        seen.append((t, size))
        raise BudgetExceeded(f"{len(A)}x{size} pairs exceed budget 1")

    for gate in (0, 1 << 62):
        with orbit_gate(gate), \
                mock.patch.object(repfn, "_stabiliser",
                                  wraps=repfn._stabiliser) as search, \
                mock.patch.object(repfn, "_geometric",
                                  wraps=repfn._geometric) as expand:
            with pytest.raises(BudgetExceeded):
                _dyadic_slice(A, F, 2, "add", None, refuse)
        assert search.call_count == (0 if gate else 1)
        assert expand.call_count == 0
    # the orbit route and the sort route offer the same level
    assert seen[0] == seen[1]


def test_rss_subgroup_report_is_the_same_over_orbits():
    # the E stage of the 128-element subgroup is a 128 x 333,312 table
    A = subgroup_of_order(P_SUITE, 128)
    with recorded("_orbits") as served:
        got = check_rss_proposition(A, "additive")
    assert any(x is not None for x in served)
    with orbit_gate(1 << 62):
        want = check_rss_proposition(A, "additive")
    for report in (got, want):
        report.elapsed_ms = 0.0
    assert got == want


# -- fault injection: each must raise ArithmeticError, also under python -O


def wrong_order(m):
    return mock.patch.object(repfn, "_stabiliser", lambda a, b, p: m)


@pytest.mark.parametrize("reduce", ["spectrum", "level"])
def test_wrong_order_raises(reduce):
    H = subgroup_of_order(P31, 42)
    C = union_of_cosets(P31, 21, 2, seed=11)  # fixed by 21, not by 42
    D = union_of_cosets(P31, 21, 1, seed=12)
    band = lambda h: (1, h.size)  # noqa: E731
    cases = [
        (H, H, 84),  # 84 divides neither p - 1 nor |A∖{0}|
        (C, C, 42),  # neither set is a union of cosets of order 42
        (H, D, 42),  # A is, B is not
        (D, H, 42),  # B is, A is not
        (H, H, 5),   # 5 does not divide p - 1
    ]
    for A, B, m in cases:
        for op in ("add", "sub"):
            with orbit_gate(0), wrong_order(m), \
                    pytest.raises(ArithmeticError):
                _table(A, B, op, reduce, band)


@contextlib.contextmanager
def dropped_orbit():
    """Drop the last orbit of the table's representatives; the cosets of
    the sets themselves stay whole."""
    real_runs, real_cosets = repfn._orbit_runs, repfn._cosets

    def runs(v, m, p):
        first, counts = real_runs(v, m, p)
        return first[:-1], counts[:-1]

    def cosets(s, m, p):
        with mock.patch.object(repfn, "_orbit_runs", real_runs):
            return real_cosets(s, m, p)

    with mock.patch.multiple(repfn, _orbit_runs=runs, _cosets=cosets):
        yield


@pytest.mark.parametrize("reduce", ["spectrum", "level"])
@pytest.mark.parametrize("zero", [False, True])
def test_dropped_orbit_count_raises(reduce, zero):
    A = union_of_cosets(P_SUITE, 16, 2, seed=13, zero=zero)
    B = union_of_cosets(P_SUITE, 16, 3, seed=14)
    for op in ("add", "sub"):
        for lo, hi in ((1, math.inf), (1, 2), (0, 1)):
            with orbit_gate(0), dropped_orbit(), \
                    pytest.raises(ArithmeticError):
                _table(A, B, op, reduce, lambda h: (lo, hi))


@pytest.mark.parametrize("expand", [
    lambda c, q, p: np.ones(q, dtype=np.int64),  # m copies of 1
    lambda c, q, p: np.arange(1, q, dtype=np.int64),  # m - 1 elements
])
def test_wrong_expansion_raises(expand):
    # a level set that does not expand to its band's count of distinct
    # values raises, though its histogram holds the table's mass
    A = union_of_cosets(P31, 42, 1, seed=15, zero=True)
    B = union_of_cosets(P31, 42, 2, seed=16)
    for op in ("add", "sub"):
        with orbit_gate(0), mock.patch.object(repfn, "_geometric", expand), \
                pytest.raises(ArithmeticError, match="expands to"):
            _table(A, B, op, "level", lambda h: (1, math.inf))
