import contextlib
import math
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sumprod import (ConstraintViolation, ElemSet, GroundField,
                     VerificationReport, check_kmps, check_mixed_energy,
                     check_pluennecke, check_rss_proposition, check_sdz,
                     energy, main_theorem_probe, p_constraint_check, verify,
                     xue_regularize)

from conftest import random_set


def test_pluennecke_holds(c0, fp):
    for A in (ElemSet(c0, range(16)), random_set(fp, 32, seed=1),
              ElemSet(c0, [2 ** i for i in range(10)])):
        for k, l in ((1, 1), (2, 1), (2, 2), (3, 1)):
            rep = check_pluennecke(A, k, l)
            assert rep.passed, (k, l, rep.notes)
            assert rep.fitted_constant <= 1


def test_kmps_trivial(c0):
    one = ElemSet(c0, [1])
    rep = check_kmps(one, one, one)
    assert rep.passed and rep.lhs == 1 and rep.fitted_constant == 0.5


def test_kmps_p_constraint():
    F = GroundField.prime(31)
    A = ElemSet(F, range(1, 21))
    with pytest.raises(ConstraintViolation):
        check_kmps(A, A, A)  # 20^3 > 31^2 / 4


def test_sdz_trivial(c0):
    one = ElemSet(c0, [1])
    rep = check_sdz(one, one, one, ElemSet(c0, [0]))
    assert rep.passed and abs(rep.fitted_constant - 1 / 3) < 1e-12


def test_sdz_derived_example(c0):
    rep = check_sdz(ElemSet(c0, [1, 2]), ElemSet(c0, [1, 2]),
                    ElemSet(c0, [1, 2, 3, 4, 5]), ElemSet(c0, [0, 1]))
    assert rep.lhs == 8
    shape = 20 ** 0.75 * 2 ** 0.5 + 4 + 10
    assert abs(rep.rhs_shape - shape) < 1e-9
    assert abs(rep.fitted_constant - 8 / shape) < 1e-9
    assert rep.passed


def test_mixed_trivial(c0):
    one = ElemSet(c0, [1])
    for variant in ("E4+E2x", "E4xE2+", "E4xE4+", "E4+E4x"):
        rep = check_mixed_energy(one, one, variant)
        assert rep.passed and rep.lhs == 1.0 and rep.rhs_shape == 1.0


def test_mixed_ap_char0(c0):
    A = ElemSet(c0, range(1, 65))
    U = ElemSet(c0, range(1, 17))
    rep = check_mixed_energy(A, U, "E4+E2x")
    assert rep.passed and rep.fitted_constant <= rep.slack


def test_mixed_subgroup_mul():
    from sumprod import prime_with_subgroup, subgroup_of_order
    p = prime_with_subgroup(64)  # largest prime <= 2^31 with 64 | p-1
    H = subgroup_of_order(p, 64)
    rep = check_mixed_energy(H, H, "E4xE2+")
    assert rep.passed


def test_mixed_rejects_unknown_variant(c0):
    with pytest.raises(ValueError):
        check_mixed_energy(ElemSet(c0, [1]), ElemSet(c0, [1]), "E2+E2x")


def test_rss_additive_ap(c0):
    A = ElemSet(c0, range(1, 65))
    rep = check_rss_proposition(A, "additive")
    assert rep.passed
    assert rep.inputs["clause_a"] and rep.inputs["final"]
    assert rep.inputs["t"] >= 1 and rep.inputs["nu"] >= 1 \
        and rep.inputs["mu"] >= 1


def test_rss_multiplicative_gp(c0):
    A = ElemSet(c0, [2 ** i for i in range(64)])
    rep = check_rss_proposition(A, "multiplicative")
    assert rep.inputs["clause_a"]


def test_rss_small_set_rejected(c0):
    with pytest.raises(ValueError):
        check_rss_proposition(ElemSet(c0, range(8)), "additive")
    with pytest.raises(ValueError):
        check_rss_proposition(ElemSet(c0, range(16)), "sideways")


def test_p_constraints_char0_all_pass(c0):
    A = ElemSet(c0, range(10))
    assert all(c.satisfied for c in p_constraint_check(A, {}))


def test_p_constraints_large_p_ap(fp):
    A = ElemSet(fp, range(1, 17))
    checks = p_constraint_check(A, {"E1": A, "E2": A, "F1": A, "F2": A})
    assert {c.constraint_id for c in checks} == \
        {"i", "ii", "iii", "iv", "surrogate-i", "surrogate-iii"}
    assert all(c.satisfied for c in checks)
    assert all(c.margin > 1 for c in checks)


def test_p_constraint_iii_fails_small_p():
    F = GroundField.prime(101)
    A = ElemSet(F, range(1, 65))
    checks = {c.constraint_id: c for c in p_constraint_check(A, {"F1": A})}
    assert not checks["iii"].satisfied  # 64*64*|A-A| >> 101^2


def test_probe_small_sweep():
    res = main_theorem_probe(families=("ap", "subgroup"), sizes=(16, 32),
                             seed=1)
    assert res["pass"] and res["min_ratio"] >= 0.25
    assert all(c["status"] == "ok" for c in res["cells"])


def test_probe_skips_oversized_cells():
    res = main_theorem_probe(families=("ap",), sizes=(16,), p=101)
    assert "skipped" in res["cells"][0]["status"]


def test_report_roundtrip(c0):
    rep = check_pluennecke(ElemSet(c0, range(8)), 2, 1)
    back = VerificationReport.from_json(rep.to_json())
    assert back == rep


def test_registry_arity_matches_the_suite_draw(fp):
    from sumprod.verify import LEMMAS
    A = ElemSet(fp, range(1, 33))
    drawn = []

    def rand(size, offset):
        drawn.append((size, offset))
        return random_set(fp, size, seed=offset)

    for name, lem in LEMMAS.items():
        drawn.clear()
        sets = lem.draw(A, rand)
        assert len(sets) == lem.arity, name
        assert lem.variants and len(set(lem.variants)) == len(lem.variants)
        assert len(drawn) == lem.arity - 1, name
        assert [o for _, o in drawn] == list(range(1, lem.arity)), name
    assert LEMMAS["mixed"].draw(A, rand)[1] == random_set(fp, 8, seed=1)
    zero = ElemSet(fp, range(0, 32))
    assert all(0 not in S.elements()
               for S in LEMMAS["kmps"].draw(zero, lambda n, o: zero))


def test_run_lemma_matches_the_direct_checks(fp):
    from sumprod import cauchy_schwarz_check
    from sumprod.verify import LemmaParams, run_lemma

    def same(a, b):
        a, b = a.to_dict(), b.to_dict()
        a.pop("elapsed_ms"), b.pop("elapsed_ms")
        return a == b

    A, B, C, D = (random_set(fp, 24, seed=s) for s in range(4))
    p = LemmaParams(k=2, l=1, ceiling=8.0, slack_c=16.0, budget=10**7)
    assert same(run_lemma("pluennecke", (A,), None, p),
                check_pluennecke(A, 2, 1))
    assert same(run_lemma("cauchy-schwarz", (A,), "mul", p),
                cauchy_schwarz_check(A, "mul"))
    assert same(run_lemma("kmps", (A, B, C), None, p),
                check_kmps(A, B, C, ceiling=8.0))
    assert same(run_lemma("sdz", (A, B, C, D), None, p),
                check_sdz(A, B, C, D, ceiling=8.0))
    assert same(run_lemma("mixed", (A, B), "E4xE2+", p),
                check_mixed_energy(A, B, "E4xE2+", slack_c=16.0))
    assert same(run_lemma("rss", (A,), "multiplicative", p),
                check_rss_proposition(A, "multiplicative", slack_c=16.0))


@pytest.mark.parametrize("field", [GroundField.prime(101), GroundField.char0()],
                         ids=["F101", "char0"])
def test_every_lemma_refuses_or_reports_on_empty_sets(field):
    # an empty set is a bad input: a check refuses it with ValueError
    # (`sumprod verify` prints "error: ...") or reports on it; no other
    # exception may escape, and a report may not fail on a shape of 0
    # (fitted = inf)
    from sumprod.verify import LEMMAS, LemmaParams, run_lemma
    for name, lem in LEMMAS.items():
        for variant in lem.variants:
            sets = (ElemSet(field, []),) * lem.arity
            try:
                rep = run_lemma(name, sets, variant, LemmaParams())
            except ValueError:
                continue
            assert isinstance(rep, VerificationReport), (name, variant)
            assert rep.passed or math.isfinite(rep.fitted_constant), \
                (name, variant)


@pytest.mark.parametrize("lemma", ["kmps", "sdz"])
def test_counts_refuse_any_empty_set(lemma):
    # one empty set of three (four) leaves no incidence shape to fit
    from sumprod.verify import LEMMAS, LemmaParams, run_lemma
    F = GroundField.prime(2**31 - 1)
    arity = LEMMAS[lemma].arity
    for empty in range(arity):
        sets = [ElemSet(F, range(1, 9))] * arity
        sets[empty] = ElemSet(F, [])
        with pytest.raises(ValueError, match="nonempty"):
            run_lemma(lemma, tuple(sets), None, LemmaParams())


def test_main_check_and_sweep_share_the_ratios():
    from sumprod import FamilySpec, gen_family, sum_product_ratio
    from sumprod.verify import (OPERATOR_COMBOS, check_main_theorem,
                                sum_product_ratios)
    F = GroundField.prime(2**31 - 1)
    A = gen_family(FamilySpec(kind="gp", n=32, field=F, start=1, base=3,
                              ratio=7, seed=1 + 32))
    ratios = sum_product_ratios(A)
    assert ratios == {f"{a}/{m}": sum_product_ratio(A, a, m)
                      for a, m in OPERATOR_COMBOS}
    rep = check_main_theorem(A, floor=2.0, family="gp")
    assert rep.lhs == min(ratios.values()) and rep.rhs_shape == 2.0
    assert rep.passed is (rep.lhs >= 2.0)
    assert rep.inputs == {"n": 32, "family": "gp", "field": F.describe()}
    res = main_theorem_probe(families=("gp",), sizes=(32,), seed=1)
    assert res["cells"][0]["ratios"] == ratios
    assert res["min_ratio"] == rep.lhs


@pytest.mark.parametrize("values", [range(1, 33), range(0, 40, 3),
                                    [0, 1], [5, 9]])
def test_main_theorem_builds_each_table_once(values):
    # A+A, A-A, AA and A/A are built once each, A+A first, and every ratio
    # is sum_product_ratio's float, 0 dropped on the product side
    from unittest import mock
    from sumprod import families, sum_product_ratio, verify
    from sumprod.setalgebra import combine
    A = ElemSet(GroundField.prime(2**31 - 1), values)
    want = {f"{a}/{m}": sum_product_ratio(A, a, m)
            for a, m in verify.OPERATOR_COMBOS}
    calls = []

    def spy(X, Y, op, budget=None):
        calls.append((X, op))
        return combine(X, Y, op, budget=budget)

    with mock.patch.object(verify, "combine", spy), \
            mock.patch.object(families, "combine", spy):
        rep = verify.check_main_theorem(A)
    Az = A.remove_zero()
    assert calls == [(A, "add"), (A, "sub"), (Az, "mul"), (Az, "div")]
    assert verify.sum_product_ratios(A) == want
    assert rep.lhs == min(want.values())


@pytest.mark.parametrize("addop,mulop", [("add", "mul"), ("sub", "div")])
def test_sum_product_ratio_builds_only_its_pair(addop, mulop):
    # one pair's ratio builds its two sets only, additive first
    from unittest import mock
    from sumprod import families, sum_product_ratio
    from sumprod.setalgebra import combine
    A = ElemSet(GroundField.prime(2**31 - 1), range(0, 40, 3))
    calls = []

    def spy(X, Y, op, budget=None):
        calls.append((X, op))
        return combine(X, Y, op, budget=budget)

    with mock.patch.object(families, "combine", spy):
        got = sum_product_ratio(A, addop, mulop)
    assert calls == [(A, addop), (A.remove_zero(), mulop)]
    assert got == max(len(combine(A, A, addop)),
                      len(combine(*(A.remove_zero(),) * 2, mulop))) \
        / len(A) ** 1.25


def test_main_theorem_refusals_match_sum_product_ratio():
    from sumprod import BudgetExceeded, sum_product_ratio
    from sumprod.verify import sum_product_ratios
    F = GroundField.prime(2**31 - 1)
    with pytest.raises(ValueError, match=r"needs \|A\| >= 2"):
        sum_product_ratios(ElemSet(F, [3]))
    A = random_set(F, 20, seed=2)
    with pytest.raises(BudgetExceeded) as got:
        sum_product_ratios(A, budget=399)
    with pytest.raises(BudgetExceeded) as want:
        sum_product_ratio(A, budget=399)
    assert str(got.value) == str(want.value) == \
        "20x20 pairs exceed budget 399"


@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_rss_degenerate_reports(c0, variant):
    # neither degenerate branch is reached by the probe families, so force
    # each: an emptied refinement, then an empty dyadic support
    from types import SimpleNamespace
    from unittest import mock
    from sumprod import verify
    A = ElemSet(c0, range(1, 33))
    want = {"lemma": f"rss-proposition-{variant}",
            "inputs": {"n": 32, "field": c0.describe()}, "lhs": 0.0,
            "rhs_shape": 0.0, "fitted_constant": float("inf"),
            "slack": verify.default_slack(32), "pass": False}
    empty = SimpleNamespace(refined=ElemSet(c0, []), eps=0.5, c2=1.0)
    with mock.patch.object(verify, "regu_iterate",
                           return_value=(A, empty)):
        rep = check_rss_proposition(A, variant).to_dict()
    rep.pop("elapsed_ms")
    assert rep == dict(want, notes="degenerate: popularity rule emptied B")
    real = verify.dyadic_slice

    def no_support(*args):
        sl = real(*args)
        return SimpleNamespace(support=ElemSet(c0, []), t=sl.t,
                               energy_value=sl.energy_value)

    with mock.patch.object(verify, "dyadic_slice", side_effect=no_support):
        rep = check_rss_proposition(A, variant).to_dict()
    rep.pop("elapsed_ms")
    assert rep == dict(want, notes="degenerate: empty dyadic support")


@pytest.mark.parametrize("variant", ["E4+E2x", "E4xE2+", "E4xE4+", "E4+E4x"])
def test_mixed_energy_takes_e4_from_the_decomposition(variant):
    # E_4(B) is read off the table of the decomposition's winning round:
    # the only energy the check builds itself is E_k(C, U)
    F = GroundField.prime(2**31 - 1)
    A, U = random_set(F, 48, seed=5), random_set(F, 16, seed=6)
    with mock.patch.object(verify, "energy", wraps=verify.energy) as spy:
        rep = check_mixed_energy(A, U, variant)
    bop, cop, k = verify.MIXED_VARIANTS[variant]
    assert [c.args[2:4] for c in spy.call_args_list] == [(k, cop)]
    d = xue_regularize(A, 4, bop)
    e4 = energy(d.B, d.B, 4, bop).value
    assert d.energy_value == e4
    assert rep.lhs == float(e4 * energy(d.C, U, k, cop).value ** (4 // k))


# variant -> (auxiliary role U takes, constraint id): the size-vs-p gate of
# each mixed variant is that p-constraint with U as its auxiliary set
@contextlib.contextmanager
def combine_calls():
    """Record (X, Y, op) of each `combine` that verify calls."""
    calls = []
    real = verify.combine

    def spy(X, Y, op, budget=None):
        calls.append((X, Y, op))
        return real(X, Y, op, budget=budget)

    with mock.patch.object(verify, "combine", spy):
        yield calls


MIXED_GATES = {"E4+E2x": ("F1", "iii"), "E4xE2+": ("F2", "iv"),
               "E4+E4x": ("E2", "ii"), "E4xE4+": ("E1", "i")}


@pytest.mark.parametrize("zero", [False, True])
@pytest.mark.parametrize("variant,message", [
    ("E4+E2x", "|U||A||A-A| << p^2: 28320 exceeds 10201/4"),
    ("E4xE2+", "|U||A||A/A| << p^2: 46560 exceeds 10201/4"),
    ("E4xE4+", "|A/A||A||A-U||U|^2 << p^4: 75240960 exceeds 104060401/4"),
    ("E4+E4x", "|A-A||A||A/U||U|^2 << p^4: 43046400 exceeds 104060401/4"),
])
def test_mixed_gate_refuses_at_small_p(variant, message, zero):
    # |A| = 30 and |U| = 16 in F_101 break each variant's constraint; with
    # 0 in U, A/U drops it and A-U and |U| keep it, which here gives the
    # same sizes
    F = GroundField.prime(101)
    A = ElemSet(F, range(1, 31))
    U = ElemSet(F, range(0, 96, 6) if zero else range(2, 98, 6))
    assert len(U) == 16 and (0 in U.elements()) is zero
    with pytest.raises(ConstraintViolation) as exc:
        check_mixed_energy(A, U, variant)
    assert str(exc.value) == message


@pytest.mark.parametrize("variant", list(MIXED_GATES))
def test_mixed_gate_passes_at_large_p(variant):
    F = GroundField.prime(2**31 - 1)
    A, U = random_set(F, 30, seed=3), random_set(F, 8, seed=4)
    rep = check_mixed_energy(A, U, variant)
    assert rep.lemma == f"mixed-energy-{variant}"
    assert rep.inputs["n"] == 30 and rep.inputs["|U|"] == 8


class _PastTheGate(Exception):
    pass


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([31, 101, 211, 1009]), st.data())
def test_mixed_gate_is_its_p_constraint(p, data):
    # the gate refuses iff 4 * product > bound for the product that
    # p_constraint_check reports under the variant's id with U in its role
    F = GroundField.prime(p)
    elems = st.lists(st.integers(0, p - 1), min_size=2, max_size=40,
                     unique=True)
    A = ElemSet(F, data.draw(elems))
    U = ElemSet(F, data.draw(elems))
    U = data.draw(st.sampled_from([U, U.remove_zero(),
                                   ElemSet(F, [0, *U.elements()])]))
    variant = data.draw(st.sampled_from(list(MIXED_GATES)))
    role, cid = MIXED_GATES[variant]
    (c,) = [c for c in p_constraint_check(A, {role: U})
            if c.constraint_id == cid]
    with mock.patch.object(verify, "xue_regularize",
                           side_effect=_PastTheGate):
        if 4 * c.product > c.budget:
            with pytest.raises(ConstraintViolation,
                               match=f": {c.product} exceeds {c.budget}/4$"):
                check_mixed_energy(A, U, variant)
        else:
            with pytest.raises(_PastTheGate):
                check_mixed_energy(A, U, variant)


@pytest.mark.parametrize("p", [101, 2**31 - 1])
@pytest.mark.parametrize("variant", list(MIXED_GATES))
def test_mixed_gate_builds_its_supports_in_order(variant, p):
    # one support for k = 2, two for k = 4: the variant's own A-A (A/A over
    # A∖{0}), then the cross A/U (`combine` drops U's 0) or A-U
    F = GroundField.prime(p)
    A = ElemSet(F, [0, *range(1, 60, 2)])
    U = ElemSet(F, [0, *range(3, 40, 5)])
    Az = A.remove_zero()
    want = {"E4+E2x": [(A, A, "sub")], "E4xE2+": [(Az, Az, "div")],
            "E4+E4x": [(A, A, "sub"), (A, U, "div")],
            "E4xE4+": [(Az, Az, "div"), (A, U, "sub")]}[variant]
    with combine_calls() as calls:
        try:
            check_mixed_energy(A, U, variant)
        except ConstraintViolation:
            assert p == 101
    assert calls == want


@pytest.mark.parametrize("p", [1009, 2**31 - 1])
@pytest.mark.parametrize("variant", ["additive", "multiplicative"])
def test_rss_p_constraints_build_their_supports_in_order(variant, p):
    # the notes reuse |A+A| (|AA|), |A-A| (|A/A|) and |A-E1| (|A/E2|) from
    # the pipeline's tables and build the other two, A/A then AA over
    # A∖{0} (A-A then A+A), after the pipeline's own A+A (AA)
    A = random_set(GroundField.prime(p), 40, seed=1)
    with combine_calls() as calls:
        rep = check_rss_proposition(A, variant)
    assert "final=skipped" not in rep.notes
    Az = A.remove_zero()
    assert calls == ([(A, A, "add"), (Az, Az, "div"), (Az, Az, "mul")]
                     if variant == "additive" else
                     [(Az, Az, "mul"), (Az, Az, "sub"), (Az, Az, "add")])


def test_p_constraint_check_builds_only_the_sets_it_reads():
    # (iii) reads A-A alone; the surrogates read A+A and AA over A∖{0}
    F = GroundField.prime(2**31 - 1)
    A = ElemSet(F, [0, *random_set(F, 20, seed=2).elements()])
    with combine_calls() as calls:
        p_constraint_check(A, {"F1": random_set(F, 8, seed=3)})
    Az = A.remove_zero()
    assert calls == [(A, A, "sub"), (A, A, "add"), (Az, Az, "mul")]
