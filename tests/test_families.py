import pytest

from sumprod import (ElemSet, FamilySpec, GroundField, gen_family,
                     local_search_min_ratio, prime_with_subgroup,
                     primitive_root, subgroup_of_order, sum_product_ratio)

from conftest import P31


def test_gen_ap(c0):
    spec = FamilySpec(kind="ap", n=5, field=c0, start=0, step=1)
    assert sorted(gen_family(spec)) == [0, 1, 2, 3, 4]


def test_gen_gp(c0):
    spec = FamilySpec(kind="gp", n=4, field=c0, base=1, ratio=2)
    assert sorted(gen_family(spec)) == [1, 2, 4, 8]


def test_gen_subgroup_mod7():
    F7 = GroundField.prime(7)
    spec = FamilySpec(kind="subgroup", n=3, field=F7)
    assert sorted(gen_family(spec)) == [1, 2, 4]  # cubes mod 7
    assert sorted(subgroup_of_order(7, 3)) == [1, 2, 4]


def test_gen_random_deterministic(fp):
    spec = FamilySpec(kind="random", n=20, field=fp, seed=5)
    assert gen_family(spec) == gen_family(spec)
    assert len(gen_family(spec)) == 20


def test_gen_validation(c0, fp):
    with pytest.raises(ValueError):
        FamilySpec(kind="gp", n=4, field=c0, ratio=1)
    with pytest.raises(ValueError):
        FamilySpec(kind="cantor", n=4, field=c0)
    with pytest.raises(ValueError):
        gen_family(FamilySpec(kind="subgroup", n=5, field=GroundField.prime(7)))


def smallest_generator(p):
    """The least g whose powers are all of F_p^*, by listing them."""
    for g in range(1, p):
        powers, x = set(), 1
        for _ in range(p - 1):
            x = x * g % p
            powers.add(x)
        if len(powers) == p - 1:
            return g


def prime_factors(n):
    """The primes dividing n, by trial division."""
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def test_primitive_root():
    assert primitive_root(7) == 3
    for p in range(3, 300, 2):
        if prime_factors(p) == {p}:
            assert primitive_root(p) == smallest_generator(p), p
    # P31, and p - 1 = 2^9 * 3 * 23 * 89 * 683 and 2^5 * 67108859: g
    # generates F_p^* (no g^((p-1)/q) is 1) and no smaller value does
    for p in (P31, 2147483137, 2147483489):
        g, qs = primitive_root(p), prime_factors(p - 1)
        assert all(pow(g, (p - 1) // q, p) != 1 for q in qs)
        assert all(any(pow(h, (p - 1) // q, p) == 1 for q in qs)
                   for h in range(2, g))
    # a second call is served from the cache
    before = primitive_root.cache_info()
    assert primitive_root(2147483489) == g
    after = primitive_root.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def test_prime_with_subgroup():
    p = prime_with_subgroup(16)
    assert p <= 2**31 and (p - 1) % 16 == 0  # int32-friendly
    assert len(subgroup_of_order(p, 16)) == 16


def test_ratio_spot_values(c0):
    A = ElemSet(c0, range(1, 9))
    assert abs(sum_product_ratio(A) - 30 / 8 ** 1.25) < 1e-12
    assert abs(sum_product_ratio(ElemSet(c0, [1, 2])) - 3 / 2 ** 1.25) < 1e-12
    gp = ElemSet(c0, [2 ** i for i in range(8)])
    assert abs(sum_product_ratio(gp) - 36 / 8 ** 1.25) < 1e-12


def test_ratio_validation(c0):
    with pytest.raises(ValueError):
        sum_product_ratio(ElemSet(c0, [1]))
    with pytest.raises(ValueError):
        sum_product_ratio(ElemSet(c0, [1, 2]), addop="mul")


def test_search_zero_steps():
    F = GroundField.prime(1009)
    seed = ElemSet(F, range(1, 17))
    st = local_search_min_ratio(seed, 0, rng_seed=1)
    assert st.best == seed
    assert st.best_ratio == sum_product_ratio(seed)


def test_search_never_worsens():
    F = GroundField.prime(1009)
    seed = ElemSet(F, range(1, 17))
    st = local_search_min_ratio(seed, 200, rng_seed=2)
    assert st.best_ratio <= sum_product_ratio(seed)
    assert st.best_ratio <= st.current_ratio or st.best_ratio <= sum_product_ratio(seed)
    assert len(st.best) == 16


def test_search_deterministic():
    F = GroundField.prime(1009)
    seed = ElemSet(F, range(1, 17))
    a = local_search_min_ratio(seed, 100, rng_seed=7)
    b = local_search_min_ratio(seed, 100, rng_seed=7)
    assert a.best == b.best and a.best_ratio == b.best_ratio


@pytest.mark.parametrize("t0,cooling", [
    (0.1, float("nan")), (0.1, float("inf")), (0.1, 1.001), (0.1, -0.5),
    (-1.0, 0.999), (float("nan"), 0.999), (float("inf"), 0.999)])
def test_search_refuses_a_bad_schedule(t0, cooling):
    seed = ElemSet(GroundField.prime(1009), range(1, 17))
    with pytest.raises(ValueError, match="t0" if cooling == 0.999
                       else "cooling"):
        local_search_min_ratio(seed, 5, t0=t0, cooling=cooling)


@pytest.mark.parametrize("t0,cooling", [(0.0, 0.0), (0.0, 1.0), (2.0, 1.0)])
def test_search_takes_schedules_at_the_bounds(t0, cooling):
    seed = ElemSet(GroundField.prime(1009), range(1, 17))
    st = local_search_min_ratio(seed, 5, t0=t0, cooling=cooling)
    assert (st.t0, st.cooling) == (t0, cooling) and len(st.best) == 16


def test_search_validation(c0):
    with pytest.raises(ValueError):
        local_search_min_ratio(ElemSet(GroundField.prime(101), [1, 2, 3, 4]),
                               -1)
    with pytest.raises(ValueError):
        local_search_min_ratio(ElemSet(c0, [1, 2, 3, 4]), 10)


def test_search_refuses_a_seed_of_all_residues():
    # no residue is left to swap in, so the move loop would never end
    with pytest.raises(ValueError, match="all of F_5"):
        local_search_min_ratio(ElemSet(GroundField.prime(5), range(5)), 1)
