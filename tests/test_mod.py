"""The one array reduction of the int kernel, `repfn._mod`.

`_mod(x, p)` reduces x in place as x - (x // p) * p, `_CHUNK` values at a
time. It must agree with np.remainder and with Python's % on the residue
edges 0, p - 1 and (p - 1)^2 (the largest entry of a mul grid), on the
negatives in (-p, p) that sub grids hold, for the moduli p, p - 1 (the
discrete-log path) and a small prime, on arrays of one and two dimensions
around the chunk size, and it may allocate no temporary larger than one
chunk.
"""

import numpy as np
import pytest

from sumprod.repfn import _CHUNK, _mod

from conftest import P31, traced_peak

MODULI = [P31, P31 - 1, 101]
SHAPES = [(0,), (1,), (_CHUNK - 1,), (_CHUNK,), (_CHUNK + 1,),
          (0, 7), (1, 1), (3, (_CHUNK - 1) // 3), (256, _CHUNK // 256),
          (_CHUNK + 1, 1)]


def grid_values(p: int, shape: tuple) -> np.ndarray:
    """int64 values of mul and sub grids mod p in the given shape: the
    edges 0, p - 1, (p - 1)^2, -1 and -(p - 1) first, then random ones in
    (-p, p) and [0, (p - 1)^2]."""
    size = int(np.prod(shape))
    rng = np.random.default_rng(size + p)
    edges = [0, p - 1, (p - 1) ** 2, -1, -(p - 1), 1, p, 2 * p - 1]
    sub = rng.integers(-(p - 1), p, size)
    mul = rng.integers(0, (p - 1) ** 2, size, endpoint=True)
    x = np.where(np.arange(size) % 2 == 0, sub, mul)
    x[:min(size, len(edges))] = edges[:size]
    return x.reshape(shape)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
@pytest.mark.parametrize("p", MODULI)
def test_mod_matches_remainder_and_python(p, shape):
    x = grid_values(p, shape)
    y = x.copy()
    got = _mod(y, p)
    assert got is y and got.shape == shape and got.dtype == np.int64
    assert np.array_equal(got, np.remainder(x, p))
    assert got.ravel().tolist() == [v % p for v in x.ravel().tolist()]


def test_mod_refuses_a_strided_array():
    # a reshape of a strided array is a copy, which the reduction would
    # write in place of x
    x = grid_values(101, (4, 6))
    with pytest.raises(ValueError, match="C-contiguous"):
        _mod(x[:, ::2], 101)


def test_mod_of_a_mul_grid_takes_one_chunk_of_temporaries():
    rng = np.random.default_rng(7)
    a = rng.integers(0, P31, 2048)
    grid = np.multiply(a[:, None], a[None, :])
    want = np.remainder(grid, P31)
    _, peak = traced_peak(lambda: _mod(grid, P31))
    assert np.array_equal(grid, want)
    # one chunk of int64 quotients, plus a few small objects
    assert peak <= _CHUNK * 8 + 4096
