import random
import re

import pytest
from hypothesis import strategies as st

from sumprod import ElemSet, GroundField

P31 = 2**31 - 1

_CRITERION = re.compile(r"test_criterion_(\d+)_(\w+)")


def pytest_runtest_logreport(report):
    # one human-readable verdict line per acceptance criterion, emitted
    # outside per-test capture so it always reaches the terminal
    if report.when != "call":
        return
    m = _CRITERION.search(report.nodeid)
    if m:
        num, name = m.group(1), m.group(2)
        verdict = "PASS" if report.outcome == "passed" else "FAIL"
        print(f"\ncriterion {num} ({name}): {verdict}", flush=True)


@pytest.fixture
def c0():
    return GroundField.char0()


@pytest.fixture
def fp():
    return GroundField.prime(P31)


def random_set(field: GroundField, n: int, seed: int, lo: int = 0,
               hi: int = None) -> ElemSet:
    rng = random.Random(seed)
    if field.is_prime_mode:
        hi = hi if hi is not None else field.p
        return ElemSet(field, rng.sample(range(lo, hi), n))
    hi = hi if hi is not None else max(1000, 100 * n * n)
    return ElemSet(field, rng.sample(range(lo, hi), n))


_EDGE_FIELDS = (GroundField.prime(3), GroundField.prime(101),
                GroundField.prime(P31), GroundField.char0())


@st.composite
def self_table_case(draw):
    """(A, B, op) with B equal to A in content, as A itself or as a copy.

    Prime-mode values sit next to 0 and p so that sums and differences wrap;
    char0 values sit next to the int fast-path bounds (2^31 for mul, 2^61
    for add/sub), on both sides and with both signs. 0 and the empty set
    are drawn too.
    """
    field = draw(st.sampled_from(_EDGE_FIELDS))
    op = draw(st.sampled_from(["add", "sub", "mul", "div"]))
    if field.is_prime_mode:
        p = field.p
        value = st.integers(0, min(p - 1, 40)) | \
            st.integers(max(0, p - 40), p - 1)
    else:
        edge = 1 << (31 if op == "mul" else 61)
        value = st.integers(-20, 20) | st.builds(
            lambda sign, k: sign * (edge + k),
            st.sampled_from([1, -1]), st.integers(-6, 1))
    A = ElemSet(field, draw(st.lists(value, max_size=12)))
    B = A if draw(st.booleans()) else ElemSet(field, list(A))
    return A, B, op
