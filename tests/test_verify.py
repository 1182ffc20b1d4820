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
