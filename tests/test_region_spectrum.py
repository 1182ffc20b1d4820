"""Run-length spectra of sorted pieces, `repfn._region_spectrum`.

A piece whose equal adjacent pairs are more than `_DENSE` of its values
takes its run lengths from the run ends; any other piece from the positions
of its equal adjacent pairs. Each test runs dense, sparse and mixed pieces
through the default rule and through each path forced (`_DENSE` = -1 takes
the run ends everywhere, 2 nowhere), and compares the spectrum with the
"rep" reduction's bincount(counts).
"""

from unittest import mock

import numpy as np
import pytest

from sumprod import ElemSet, GroundField, count_spectrum, rep_function
from sumprod import repfn
from sumprod.repfn import _region_spectrum

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
