import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ElemSet, GroundField, RepFn, cauchy_schwarz_check,
                     combine, count_energy_equiv, dyadic_extract, energy,
                     energy_rep, rep_function)
from sumprod.energy import dyadic_slice

small_sets = st.lists(st.integers(-40, 40), min_size=1, max_size=14)


def test_energy_frozen_values(c0):
    A = ElemSet(c0, [0, 1, 2])
    assert energy(A, A, 2, "add").value == 19
    assert energy(A, A, 4, "add").value == 115  # 3^4 + 2*2^4 + 2*1^4
    m = energy(A, A, 4 / 3, "add")
    assert not m.exact
    assert abs(m.value - (3 ** (4 / 3) + 2 * 2 ** (4 / 3) + 2)) < 1e-9
    assert abs(m.value - 11.3664) < 5e-5


def test_energy_singleton(c0):
    A = ElemSet(c0, [7])
    for k in (2, 4, 1.5):
        for op in ("add", "mul"):
            assert float(energy(A, A, k, op).value) == 1.0


def test_energy_validation(c0):
    A = ElemSet(c0, [1, 2])
    with pytest.raises(ValueError):
        energy(A, A, 0, "add")
    with pytest.raises(ValueError):
        energy(A, A, 2, "sub")
    with pytest.raises(ValueError):
        energy(ElemSet.empty(c0), None, 2, "add")


@pytest.mark.parametrize("k", [0, -1, float("nan"), float("inf"),
                               float("-inf")])
def test_energy_refuses_exponent_not_positive_finite(c0, k):
    A = ElemSet(c0, [0, 1, 5])
    with pytest.raises(ValueError, match="positive finite"):
        energy(A, A, k, "add")
    with pytest.raises(ValueError, match="positive finite"):
        dyadic_slice(A, A, k, "mul")


def test_energy_accepts_small_k(c0):
    A = ElemSet(c0, [0, 1, 2])
    m = energy(A, A, 0.5, "add")
    assert abs(m.value - (3**0.5 + 2 * 2**0.5 + 2)) < 1e-12


def test_dyadic_frozen(c0):
    A = ElemSet(c0, [0, 1, 2])
    sl = dyadic_extract(rep_function(A, A, "sub"), 2)
    assert sorted(sl.support) == [-1, 0, 1] and sl.t == 2
    assert sl.certificate_ok


def test_dyadic_constant_one(c0):
    S = ElemSet(c0, [0, 5, 11])
    sl = dyadic_extract(rep_function(S, ElemSet(c0, [0]), "add"), 2)
    assert sl.support == S and sl.t == 1


def test_dyadic_singleton(c0):
    A = ElemSet(c0, [0])
    sl = dyadic_extract(rep_function(A, A, "sub"), 2)
    assert sorted(sl.support) == [0] and sl.t == 1


def test_dyadic_refuses_table_without_positive_count(c0):
    # raises under python -O too, where an assert would let it through
    r = RepFn(c0, "add", np.asarray([1]), np.asarray([0]), 0,
              np.bincount([0]))
    with pytest.raises(ValueError):
        dyadic_extract(r, 2)


def test_dyadic_band_property(c0):
    A = ElemSet(c0, range(16))
    r = rep_function(A, A, "sub")
    sl = dyadic_extract(r, 4)
    counts = r.to_dict()
    for d in sl.support:
        assert sl.t <= counts[d] < 2 * sl.t
    assert sl.certificate_ok  # AP(16), k=4 stresses the certificate


@settings(max_examples=60, deadline=None)
@given(small_sets, st.sampled_from([4 / 3, 2.0, 4.0]),
       st.sampled_from(["add", "mul"]), st.booleans())
def test_dyadic_certificate_property(xs, k, op, prime):
    field = GroundField.prime(101) if prime else GroundField.char0()
    A = ElemSet(field, xs)
    if op == "mul":
        A = A.remove_zero()
    if len(A) == 0:
        return
    sl = dyadic_extract(energy_rep(A, A, op), k)
    assert sl.certificate_ok
    assert sl.num_buckets * len(sl.support) * sl.t ** k >= \
        float(sl.energy_value) * (1 - 1e-12)


def test_cauchy_schwarz_frozen(c0):
    A = ElemSet(c0, [0, 1, 2])
    rep = cauchy_schwarz_check(A, "add")
    assert rep.passed and rep.lhs == 81 and rep.rhs_shape == 95
    G = ElemSet(c0, [1, 2, 4])
    repm = cauchy_schwarz_check(G, "mul")
    assert repm.passed and repm.lhs == 81 and repm.rhs_shape == 95


def test_cauchy_schwarz_singleton(c0):
    rep = cauchy_schwarz_check(ElemSet(c0, [5]), "add")
    assert rep.passed and rep.lhs == 1 and rep.rhs_shape == 1


@settings(max_examples=40, deadline=None)
@given(small_sets, st.sampled_from(["add", "mul"]))
def test_energy_matches_oracle(xs, op):
    A = ElemSet(GroundField.char0(), xs)
    if op == "mul" and len(A.remove_zero()) == 0:
        return
    e = energy(A, A, 2, op)
    assert int(e.value) == count_energy_equiv(A, op, 2)


@settings(max_examples=40, deadline=None)
@given(small_sets)
def test_energy_monotone_under_subset(xs):
    c0 = GroundField.char0()
    A = ElemSet(c0, xs)
    Ap = ElemSet(c0, xs[: max(1, len(xs) // 2)])
    assert int(energy(Ap, A, 2, "add").value) <= int(energy(A, A, 2, "add").value)


@settings(max_examples=30, deadline=None)
@given(small_sets)
def test_hoelder_chain(xs):
    c0 = GroundField.char0()
    A = ElemSet(c0, xs)
    e43 = float(energy(A, A, 4 / 3, "add").value)
    e2 = int(energy(A, A, 2, "add").value)
    supp = len(combine(A, A, "sub"))
    assert e43 <= supp ** (1 / 3) * e2 ** (2 / 3) * (1 + 1e-12)


def test_energy_name_is_the_function_and_the_module_is_imported_by_path():
    # the package re-exports the function `energy` under its submodule's
    # name, so `sumprod.energy` (and `import sumprod.energy as E`) is the
    # function; a spy on the module must reach it by its import path
    import importlib
    import inspect
    from unittest import mock

    import sumprod
    module = importlib.import_module("sumprod.energy")
    assert inspect.ismodule(module) and module.__name__ == "sumprod.energy"
    assert inspect.isfunction(sumprod.energy)
    assert sumprod.energy is module.energy is energy
    A = ElemSet(GroundField.prime(101), [1, 2, 3, 5, 8, 13])
    with mock.patch("sumprod.energy._table", wraps=module._table) as spy:
        got = dyadic_slice(A, A, 4, "add")
    assert spy.call_count == 1
    assert spy.call_args.args[2:4] == ("sub", "level")
    assert got == dyadic_slice(A, A, 4, "add")
