import pytest

from sumprod import (ConstraintViolation, ElemSet, GroundField,
                     VerificationReport, check_kmps, check_mixed_energy,
                     check_pluennecke, check_rss_proposition, check_sdz,
                     main_theorem_probe, p_constraint_check)

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
