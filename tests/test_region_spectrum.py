"""Run-length spectra of sorted pieces, `repfn._region_spectrum`.

A chunk whose equal adjacent pairs are more than `_DENSE` of its values
takes its run lengths from the run ends; any other chunk locates only its
runs of three or more copies (where two equal pairs touch) and counts the
runs of two from what is left. Each test runs dense, sparse and mixed
pieces through the default rule and through each path forced (`_DENSE` =
-1 takes the run ends everywhere, 2 nowhere), and compares the spectrum
with the "rep" reduction's bincount(counts) or with np.unique's counts.
"""

from unittest import mock

import numpy as np
import pytest

from sumprod import ElemSet, GroundField, count_spectrum, rep_function
from sumprod import repfn
from sumprod.repfn import _region_spectrum, _run_chunks, _sort_reduce

from conftest import P31, forced_threads, random_set, table_and_half

FORCED = {"default": repfn._DENSE, "run ends": -1.0, "adjacencies": 2.0}


def spectrum_of(flat, chunk):
    """The whole histogram of a sorted array, from `_region_spectrum`."""
    with mock.patch.object(repfn, "_CHUNK", chunk):
        hist, long = _region_spectrum(flat)
    for length in long:
        if length >= hist.size:
            hist = np.pad(hist, (0, length + 1 - hist.size))
        hist[length] += 1
    return hist


def trimmed(hist):
    nz = np.flatnonzero(hist)
    return hist[:nz[-1] + 1].tolist() if nz.size else []


def sorted_pieces(kind, rng):
    """Sorted int32 arrays of each kind: dense (long runs), sparse (mostly
    runs of one) and mixed (dense and sparse stretches side by side)."""
    sparse = np.sort(rng.integers(0, 10**9, 5000)).astype(np.int32)
    dense = np.sort(rng.integers(0, 60, 5000)).astype(np.int32)
    if kind == "dense":
        return dense
    if kind == "sparse":
        return sparse
    return np.sort(np.concatenate([dense, sparse, np.full(700, 77)]))


@pytest.mark.parametrize("path", FORCED)
@pytest.mark.parametrize("kind", ["dense", "sparse", "mixed"])
@pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
def test_piece_spectra_match_run_counts(path, kind, chunk):
    flat = sorted_pieces(kind, np.random.default_rng(len(kind) + chunk))
    want = np.bincount(np.unique(flat, return_counts=True)[1])
    with mock.patch.object(repfn, "_DENSE", FORCED[path]):
        assert trimmed(spectrum_of(flat, chunk)) == trimmed(want)


def test_default_rule_takes_each_path():
    # the fixtures above are dense and sparse under the default rule, so
    # the unforced runs cover both paths
    rng = np.random.default_rng(0)
    for kind, dense in (("dense", True), ("sparse", False)):
        flat = sorted_pieces(kind, rng)
        eq = np.count_nonzero(flat[1:] == flat[:-1])
        assert (eq > repfn._DENSE * flat.size) == dense


@pytest.mark.parametrize("values", [
    [0, 0, 0, 3],        # one run of three, one of one
    [1, 2, 2, 4, 4, 4],  # runs that cross the edges of small pieces
    list(range(6)),      # all distinct
    [9, 9, 9, 9, 9],     # one run fills the piece
])
def test_small_pieces(values):
    flat = np.asarray(values, dtype=np.int32)
    want = np.bincount(np.unique(flat, return_counts=True)[1])
    for path in FORCED.values():
        with mock.patch.object(repfn, "_DENSE", path):
            for chunk in (1, 2, 3, 4, 1 << 16):
                assert trimmed(spectrum_of(flat, chunk)) == trimmed(want)


def table_cases():
    F, c0 = GroundField.prime(P31), GroundField.char0()
    ap = ElemSet(F, range(5, 5 + 7 * 90, 7))
    rnd = random_set(F, 90, seed=3)
    mixed = ElemSet(F, list(range(1, 61)) + list(random_set(F, 40, seed=4)))
    return [
        ("dense", ap, ap, "sub"),
        ("dense", ap, ap, "add"),
        ("dense", ElemSet(c0, range(1, 70)), ElemSet(c0, range(1, 50)), "mul"),
        ("sparse", rnd, rnd, "sub"),
        ("sparse", rnd, random_set(F, 70, seed=5), "div"),
        ("mixed", mixed, mixed, "sub"),
        ("mixed", mixed, ap, "add"),
    ]


@pytest.mark.parametrize("path", FORCED)
@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("chunk", [1, 4, 1 << 16])
@pytest.mark.parametrize("case", range(len(table_cases())))
def test_table_spectra_match_rep_counts(path, threads, chunk, case):
    _, A, B, op = table_cases()[case]
    with forced_threads(threads, chunk=chunk), \
            mock.patch.object(repfn, "_DENSE", FORCED[path]):
        got = count_spectrum(A, B, op)
        want = np.bincount(rep_function(A, B, op).counts)
        assert trimmed(got) == trimmed(want)
        if not (A is B or op == "div"):
            # a rectangular table is built whole, and its spectrum is r's
            raw, half = table_and_half(A, B, op, "spectrum")
            assert not half and trimmed(raw) == trimmed(want)


def runs(*lengths, start=0):
    """A sorted int64 array of consecutive values, one run per length."""
    return np.repeat(np.arange(start, start + len(lengths)),
                     lengths).astype(np.int64)


# (sorted values, chunk sizes with _CHUNK = 16, where the case places runs
# on chunk edges and the cut must give exactly these chunks)
RUN_CASES = {
    # x x y y: two runs of two side by side
    "adjacent twos": (runs(2, 2, 1, 2, 2, 1, 1, 2, 2, 1), None),
    # runs of 3 and 4 on a chunk's first and last slots, in both orders
    "3 and 4 at the edges": (
        np.concatenate([runs(3, *[1] * 9, 4), runs(4, *[1] * 9, 3, start=20),
                        runs(4, *[1] * 8, 4, start=40)]), [16, 16, 16]),
    # a chunk of runs of two only: eq = _DENSE * 16, the sparse side
    "only twos": (np.concatenate([runs(*[2] * 8), runs(*[2] * 8, start=8)]),
                  [16, 16]),
    # runs longer than a chunk, between and beside short ones
    "longer than a chunk": (runs(40, 1, 2, 3, 17, 1, 33), None),
    # eq = 8 (sparse) and eq = 9 (dense) in chunks of 16
    "both sides of _DENSE": (
        np.concatenate([runs(3, *[2] * 6, 1), runs(3, 3, *[2] * 5, start=8)]),
        [16, 16]),
}


def reduce_in(flat, threads, reduce):
    """`_sort_reduce` of the sorted flat, split into `threads` slices."""
    flat = flat.copy()
    edges = [flat.size * k // threads for k in range(threads + 1)]
    with repfn._pool(threads) as run:
        return _sort_reduce(flat, edges, reduce, None, run)


@pytest.mark.parametrize("path", FORCED)
@pytest.mark.parametrize("threads", [1, 2, 5])
@pytest.mark.parametrize("case", RUN_CASES)
def test_run_shapes_match_unique_counts(case, threads, path):
    flat, blocks = RUN_CASES[case]
    values, counts = np.unique(flat, return_counts=True)
    want = np.bincount(counts)
    with mock.patch.multiple(repfn, _CHUNK=16, _DENSE=FORCED[path]):
        if blocks is not None:
            assert [c.size for c in _run_chunks(flat)] == blocks
        assert trimmed(spectrum_of(flat, 16)) == trimmed(want)
        assert trimmed(reduce_in(flat, threads, "spectrum").hist) == \
            trimmed(want)
        got = reduce_in(flat, threads, "rep")
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.counts, counts)


def test_dense_boundary_case_takes_both_paths():
    # the two chunks of "both sides of _DENSE" fall on either side of it
    flat, _ = RUN_CASES["both sides of _DENSE"]
    eqs = [int(np.count_nonzero(part[1:] == part[:-1]))
           for part in (flat[:16], flat[16:])]
    assert eqs == [8, 9] and 8 <= repfn._DENSE * 16 < 9
