"""Representation functions r_{A∘B} with exact multiplicities.

Every pair table goes through one entry point, `_table`: `rep_function`,
`count_spectrum`, `setalgebra.combine` and the level sets of `energy` and
`regularize` each ask it for one reduction. It owns the op, field and
budget checks, the empty table, and the choice between the int kernel and
the exact object table.

The hot path (prime mode / int-valued sets) streams A x B in row blocks into
one flat array, sorts it and reduces the sorted runs into what the caller
asks for: the support, the support with its counts, the run-length
histogram, or one level set {x : lo <= r(x) < hi} with the histogram it was
chosen from. Large tables are filled, sorted and reduced on every usable core,
each thread reducing the slice it sorted; runs that cross the slice seams
are stitched, so the results are those of one thread. This is what makes
fourth-moment energies of 10^4-element sets take seconds. Rational or
oversized values fall back to an exact Counter.
"""

from __future__ import annotations

import functools
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, NamedTuple, Optional, Tuple

import numpy as np

from .field import (ElemSet, FieldMismatch, GroundField, _factorize,
                    primitive_root)

OPS = ("add", "sub", "mul", "div")

DEFAULT_BUDGET = 100_000_000  # pair insertions
_BLOCK = 1 << 17  # pairs per row block, so that a block stays in cache
_PARALLEL_MIN = 1 << 21  # pairs; smaller tables fill and sort on one thread
_CHUNK = 1 << 16  # table values a reducing worker scans at a time
_LOG_MIN = _PARALLEL_MIN  # pairs; smaller self div spectra keep the inverses
_LOG_MAX_FACTOR = 1 << 16  # largest prime factor of p-1 the log tables allow
_LOOKUP_SORT_MIN = 1 << 10  # keys; fewer are searched in their own order
_DENSE = 0.5  # share of equal adjacent pairs above which a piece is dense


class BudgetExceeded(RuntimeError):
    """A counting table would exceed the configured insertion budget."""


def table_budget() -> int:
    env = os.environ.get("SUMPROD_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class RepFn:
    """Counting table x -> |{(a,b): a ∘ b = x}|, stored as sorted parallel arrays.

    `values` is either a sorted int64 numpy array or a sorted tuple of exact
    elements; `counts` aligns with it. `excluded_pairs` records zero-denominator
    pairs dropped in div mode. The arrays are never mutated, so the count
    histogram is computed once.
    """

    __slots__ = ("field", "op", "values", "counts", "excluded_pairs",
                 "lhs_size", "rhs_size", "_hist")

    def __init__(self, field: GroundField, op: str, values, counts,
                 excluded_pairs: int, lhs_size: int, rhs_size: int):
        self.field = field
        self.op = op
        self.values = values
        self.counts = counts
        self.excluded_pairs = excluded_pairs
        self.lhs_size = lhs_size
        self.rhs_size = rhs_size
        self._hist = None

    def __len__(self) -> int:
        return len(self.values)

    def total_mass(self) -> int:
        if isinstance(self.counts, np.ndarray):
            return int(self.counts.sum())
        return sum(self.counts)

    def items(self) -> Iterator[Tuple[object, int]]:
        if isinstance(self.values, np.ndarray):
            for v, c in zip(self.values.tolist(), self.counts.tolist()):
                yield v, c
        else:
            yield from zip(self.values, self.counts)

    def support(self) -> ElemSet:
        if isinstance(self.values, np.ndarray):
            return ElemSet._from_sorted_array(
                self.field, self.values.astype(np.int64, copy=False))
        return ElemSet(self.field, self.values, _canonical=True)

    def to_dict(self) -> dict:
        return dict(self.items())

    def count_histogram(self) -> np.ndarray:
        """hist[m] = #values with multiplicity exactly m; read-only."""
        if self._hist is None:
            if len(self.values) == 0:
                hist = np.zeros(1, dtype=np.int64)
            else:
                hist = np.bincount(np.asarray(self.counts, dtype=np.int64))
            hist.flags.writeable = False
            self._hist = hist
        return self._hist


def _int_fast_ok(field: GroundField, op: str, *arrays) -> bool:
    """The one rule for int64 fast paths: is `op` exact on these arrays?

    Pass the arrays that enter the arithmetic; a set that is only looked up
    needs nothing but int values. Every operand must be an int array (None
    or a tuple marks exact objects). F_p needs p < 2^31, so that a product
    of two residues fits int64. Char0 refuses div (ratios are rationals)
    and bounds |v| < 2^31 for mul and |v| < 2^61 for add/sub.
    """
    if not all(isinstance(x, np.ndarray) for x in arrays):
        return False
    if field.is_prime_mode:
        return field.p < (1 << 31)
    if op == "div":
        return False
    bound = 1 << 31 if op == "mul" else 1 << 61
    return all(int(np.abs(x).max(initial=0)) < bound for x in arrays)


def _pow_mod(x: np.ndarray, e: int, p: int) -> np.ndarray:
    """Elementwise x^e mod p for residues x in [0, p), p < 2^31.

    Square-and-multiply stays exact in int64 because every product of two
    residues is below 2^62.
    """
    base = x.copy()
    out = np.ones_like(x)
    while e:
        if e & 1:
            np.multiply(out, base, out=out)
            np.remainder(out, p, out=out)
        np.multiply(base, base, out=base)
        np.remainder(base, p, out=base)
        e >>= 1
    return out


def _inverses(b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p as b^(p-2), checked.

    Raises ArithmeticError unless b * b^-1 == 1 (mod p) for every element,
    which also refuses 0.
    """
    if p >= 1 << 31:
        raise ValueError(f"int64 inverses need p < 2^31, got {p}")
    x = np.remainder(b, p, dtype=np.int64)
    inv = _pow_mod(x, p - 2, p)
    if not (x * inv % p == 1).all():
        raise ArithmeticError(f"a value has no inverse mod {p}")
    return inv


_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _grid(x: np.ndarray, y: np.ndarray, op: str,
          p: Optional[int]) -> np.ndarray:
    """grid[i, j] = x[i] op y[j], reduced mod p in prime mode.

    div multiplies by the checked `_inverses(y, p)`, so a 0 in y raises.
    Exact only where `_int_fast_ok(field, op, x, y)` holds.
    """
    if op == "div":
        y = _inverses(y, p)
        op = "mul"
    grid = _UFUNCS[op](x[:, None], y[None, :])
    if p is not None:
        grid %= p
    return grid


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x[i] * y[i] over two nonnegative int arrays.

    The float64 dot is exact when sum(x) * max(y) < 2^53, because no
    product or partial sum can exceed that; otherwise it runs on Python ints.
    """
    if int(x.sum()) * int(y.max(initial=0)) < 1 << 53:
        return int(np.dot(x.astype(np.float64), y.astype(np.float64)))
    return int(np.dot(x.astype(object), y.astype(object)))


def _threads() -> int:
    """Cores this process may run on (every core where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sorted_table(a: np.ndarray, b: np.ndarray, op: str, p: Optional[int],
                  half: bool, reduce: str, band=None):
    """The sorted flat table of a_i op b_j for op in add, sub, mul, reduced.

    Values are reduced mod p, which need not be prime (the discrete-log
    path passes p - 1); None means char0. half (b equal to a, both sorted
    and distinct) keeps only the pairs i < j for sub, stored as the class
    min(d, p - d) of d = a_j - a_i (char0: d itself), and i <= j for
    add/mul. A modulus up to 2^31 - 1 keeps the values in int32: add/sub use
    a shifted subtraction plus one conditional correction instead of a
    modulo. The table itself is never returned; `_sort_reduce` turns it
    into `reduce`: "support" (sorted distinct int64 values), "rep" (those
    values and their int64 counts), "spectrum" (the run-length histogram)
    or "level" ((hist, values): the histogram of r, trimmed to its largest
    multiplicity, and the sorted int64 values x with lo <= r(x) < hi, where
    [lo, hi) = band(hist)). A half sub table is mirrored into r_{A-A}:
    r(0) = |A| and r(c) = r(-c) = g(c), the class count, so each of its
    reductions, the "spectrum" too, is that of r_{A-A}.

    Tables of at least _PARALLEL_MIN pairs are filled, sorted and reduced
    on every usable core: the rows split into one range of about equal
    output per thread, each written to its own slice of the table, and the
    table is partitioned at the range cuts so that each thread sorts and
    reduces one slice. The results are the same as on one thread.
    """
    n, m = a.size, b.size
    small = p is not None and p <= (1 << 31) - 1
    dtype = np.int32 if small else np.int64
    strict = int(op == "sub")  # sub skips the diagonal
    # offsets[i] is where row i starts in flat; a half row i holds the
    # columns j >= i (> i for sub)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(m - strict - np.arange(n) if half else np.full(n, m),
              out=offsets[1:])
    size = int(offsets[-1])
    out = np.empty(size, dtype=dtype)
    rows = max(1, _BLOCK // max(m, 1))
    mirror = (n, p) if half and strict else None

    shifted = small and op in ("add", "sub")
    if shifted:
        a = a.astype(np.int32)
        # a+b mod p == a-(p-b) mod p; both cases become subtraction in (-p, p)
        b = (p - b).astype(np.int32) if op == "add" else b.astype(np.int32)
        p32 = np.int32(p)

    def fill(lo: int, hi: int) -> None:
        filled = int(offsets[lo])
        for i0 in range(lo, hi, rows):
            i1 = min(hi, i0 + rows)
            # half: the rest of the block is masked
            j0 = i0 + strict if half else 0
            if half and strict:
                # a is sorted, so d = a_j - a_i lies in (0, p) for i < j
                blk = b[None, j0:] - a[i0:i1, None]
            elif shifted:
                blk = a[i0:i1, None] - b[None, j0:]
                blk[blk < 0] += p32
            else:
                blk = _grid(a[i0:i1], b[j0:], op, p)
            if half:
                blk = blk[np.arange(j0, m)[None, :]
                          >= np.arange(i0 + strict, i1 + strict)[:, None]]
                if strict and p is not None:
                    np.minimum(blk, p - blk, out=blk)
            else:
                blk = blk.ravel()
            out[filled:filled + blk.size] = blk
            filled += blk.size
        if filled != offsets[hi]:
            raise RuntimeError(f"pair kernel filled rows {lo}..{hi} up to "
                               f"slot {filled}, expected {offsets[hi]}")

    # an empty table has no range to split
    threads = _threads() if size and size >= _PARALLEL_MIN else 1
    if threads == 1:
        fill(0, n)
        return _sort_reduce(out, [0, size], reduce, mirror, map, band)
    cuts = [size * k // threads for k in range(1, threads)]
    bounds = [0, *np.searchsorted(offsets, cuts).tolist(), n]
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))
        # every value left of a cut is <= every value right of it, so
        # sorting the slices sorts flat
        out.partition(cuts)
        return _sort_reduce(out, [0, *cuts, size], reduce, mirror, pool.map,
                            band)


def _sort_reduce(flat: np.ndarray, edges: list, reduce: str,
                 mirror: Optional[Tuple[int, Optional[int]]], run,
                 band=None):
    """Sort flat's slices edges[i]:edges[i+1] in place and reduce the table.

    Every value of a slice is <= every value of the next, and `run` maps a
    function over the slices (the builtin map, or a pool's). The worker
    that sorts a slice also counts its runs. The seams are stitched here:
    a slice whose first value equals the last value of the previous
    non-empty slice continues that run, so each run belongs to the slice it
    starts in, even a run that spans several slices. Each owning slice
    then reduces whole runs from its first own run start up to the next
    owner's, writing the support ("support"), the support and its counts
    ("rep") into its part of the int64 outputs, or returning its share of
    the run-length histogram ("spectrum"). "level" takes the shares of the
    histogram, merges them, asks band(hist) for [lo, hi), and has each
    owner write the values whose run length lies in [lo, hi) at the offset
    its own share gives. mirror = (n, p) marks a half sub table of n
    values: its classes c and their negatives -c (p - c in F_p) are both
    written, and 0, hit n times; its histogram (a class count g is the
    multiplicity of two values) is folded into that of r_{A-A}.
    """
    count = reduce in ("support", "rep")

    def sort(lo: int, hi: int) -> int:
        part = flat[lo:hi]
        part.sort()  # SIMD introsort; much faster than radix here
        return _count_runs(part) if count else 0

    runs = list(run(sort, edges[:-1], edges[1:]))
    starts, owned = [], []  # first own run start and own runs per owner
    prev = None  # last value of the previous non-empty slice
    for lo, hi, k in zip(edges[:-1], edges[1:], runs):
        if lo == hi:
            continue
        if prev is not None and flat[lo] == prev:
            lo += int(np.searchsorted(flat[lo:hi], prev, "right"))
            k -= 1
        prev = flat[hi - 1]
        if lo < hi:
            starts.append(lo)
            owned.append(k)
    ends = starts[1:] + [flat.size]

    zero = mirror is not None  # a half table writes 0 with count n
    blo = bhi = 0
    if not count:
        parts = list(run(_region_spectrum, [flat] * len(starts), starts,
                         ends))
        size = max([2] + [h.size for h, _ in parts]
                   + [max(long, default=0) + 1 for _, long in parts])
        hist = np.zeros(size, dtype=np.int64)
        for h, long in parts:
            hist[:h.size] += h
            for length in long:
                hist[length] += 1
        if mirror is not None:
            # a class count g is the multiplicity of both c and -c
            n = mirror[0]
            hist = np.pad(2 * hist, (0, max(0, n + 1 - hist.size)))
            hist[n] += 1
        if reduce == "spectrum":
            return hist
        hist = hist[:np.flatnonzero(hist)[-1] + 1 if hist.any() else 1]
        blo, bhi = band(hist)
        owned = [int(h[blo:bhi].sum()) + sum(blo <= x < bhi for x in long)
                 for h, long in parts]
        zero = zero and blo <= mirror[0] < bhi

    k = sum(owned)
    offsets = np.cumsum([0] + owned[:-1]).tolist()
    if mirror is None:
        total, first, neg, top = k, 0, None, None
    else:
        # F_p: 0 < c < p-c, so [0, c..., p-c...]; char0: [-c..., 0, c...]
        n, p = mirror
        total, at_zero = 2 * k + zero, 0 if p is not None else k
        first, neg = at_zero + zero, p if p is not None else 0
        top = total if p is not None else at_zero
    vals = np.empty(total, dtype=np.int64)
    counts = np.empty(total, dtype=np.int64) if reduce == "rep" else None
    if zero:
        vals[at_zero] = 0
        if counts is not None:
            counts[at_zero] = n

    def write(lo: int, hi: int, offset: int) -> None:
        w = w0 = first + offset
        for c0, c1 in _run_chunks(flat, lo, hi):
            part = flat[c0:c1]
            if reduce == "level":
                v = _band_runs(part, blo, bhi)
                vals[w:w + v.size] = v
                w += v.size
                continue
            if part[0] == part[-1]:  # one run
                vals[w] = part[0]
                if counts is not None:
                    counts[w] = part.size
                w += 1
                continue
            new = np.empty(part.size, dtype=bool)  # a run starts here
            new[0] = True
            np.not_equal(part[1:], part[:-1], out=new[1:])
            v = part[new]
            vals[w:w + v.size] = v
            if counts is not None:
                at = np.flatnonzero(new)
                np.subtract(at[1:], at[:-1], out=counts[w:w + at.size - 1])
                counts[w + at.size - 1] = part.size - at[-1]
            w += v.size
        if neg is not None:
            # the negatives of a forward segment, reversed, end at top - offset
            end = top - offset
            fwd, rev = slice(w0, w), slice(end - (w - w0), end)
            np.subtract(neg, vals[fwd][::-1], out=vals[rev])
            if counts is not None:
                counts[rev] = counts[fwd][::-1]

    # an owner with nothing in the band has nothing to scan
    busy = [i for i, c in enumerate(owned) if c]
    list(run(write, [starts[i] for i in busy], [ends[i] for i in busy],
             [offsets[i] for i in busy]))
    if reduce == "level":
        return hist, vals
    return vals if counts is None else (vals, counts)


def _band_runs(part: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Values of the runs of the sorted piece part whose length lies in
    [lo, hi)."""
    if part[0] == part[-1]:  # one run
        return part[:1] if lo <= part.size < hi else part[:0]
    if hi <= 1:
        return part[:0]
    # part[i] == part[i + span] holds at the first L - span positions of a
    # run of L > span values, and nowhere else: each group of consecutive
    # positions is one run, and the group's size gives its length. Only
    # runs of more than span values leave positions, so the higher the
    # band, the fewer there are.
    span = max(1, lo - 1)
    at = np.flatnonzero(part[span:] == part[:-span])
    group = np.empty(at.size, dtype=bool)  # a group (a run) starts here
    group[:1] = True
    np.not_equal(np.diff(at), 1, out=group[1:])
    first = np.flatnonzero(group)
    length = np.diff(first, append=at.size) + span
    at = at[first]
    if lo > 1:
        return part[at[length < hi]]
    # every value that starts a run, less the runs of two or more that
    # reach hi
    keep = np.empty(part.size, dtype=bool)
    keep[0] = True
    np.not_equal(part[1:], part[:-1], out=keep[1:])
    keep[at[length >= hi]] = False
    return part[keep]


def _count_runs(part: np.ndarray) -> int:
    """Number of runs of equal values in the sorted array part."""
    k = int(part.size > 0)
    for c in range(1, part.size, _CHUNK):
        e = min(c + _CHUNK, part.size)
        k += int(np.count_nonzero(part[c:e] != part[c - 1:e - 1]))
    return k


def _run_chunks(flat: np.ndarray, lo: int,
                hi: int) -> Iterator[Tuple[int, int]]:
    """Split flat[lo:hi], whole runs of a sorted table, into pieces of whole
    runs: at most _CHUNK values each, or a single run of any length."""
    while lo < hi:
        cut = lo + _CHUNK
        if cut >= hi:
            cut = hi
        else:
            # back to the start of the run at cut, or on to the end of the
            # run at lo when that one is longer than a chunk
            cut = lo + int(np.searchsorted(flat[lo:cut], flat[cut]))
            if cut == lo:
                cut += int(np.searchsorted(flat[lo:hi], flat[lo], "right"))
        yield lo, cut
        lo = cut


def _region_spectrum(flat: np.ndarray, lo: int,
                     hi: int) -> Tuple[np.ndarray, list]:
    """Run-length histogram of flat[lo:hi], whole runs of a sorted table.

    Returns (hist, long): hist counts the runs of the pieces that hold
    several, `long` lists the lengths of the runs that fill a piece alone
    (of any length, so that hist stays piece-sized). A piece whose equal
    adjacent pairs are more than _DENSE of its values takes the run lengths
    from the run ends, any other piece from those pairs.
    """
    hist = np.zeros(2, dtype=np.int64)
    long = []
    for c0, c1 in _run_chunks(flat, lo, hi):
        part = flat[c0:c1]
        if part[0] == part[-1]:
            long.append(part.size)
            continue
        same = part[1:] == part[:-1]
        eq = int(np.count_nonzero(same))  # equal adjacent pairs
        if eq > _DENSE * part.size:
            # most values repeat, so the run ends (where the next value
            # differs) are the smaller index
            ends = np.flatnonzero(~same)
            mult = np.bincount(np.diff(ends, prepend=-1,
                                       append=part.size - 1))
        else:
            # generic sets repeat few values: the lengths come from the
            # positions of equal adjacent pairs
            hist[1] += part.size - eq  # runs
            if not eq:
                continue
            at = np.flatnonzero(same)
            brk = np.flatnonzero(np.diff(at) != 1)
            run_len = np.diff(np.concatenate(
                (np.asarray([-1], dtype=np.int64), brk,
                 np.asarray([eq - 1], dtype=np.int64))))
            # a run of r equal adjacencies holds r+1 copies of one value
            mult = np.bincount(run_len + 1)
            hist[1] -= run_len.size
        if mult.size > hist.size:
            hist = np.pad(hist, (0, mult.size - hist.size))
        hist[:mult.size] += mult
    return hist, long


def _sorted_lookup(arr: np.ndarray, vals: np.ndarray,
                   ascending: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """(idx, hit) with hit = vals in the sorted array arr, elementwise.

    Where hit is True, arr[idx] equals the value; elsewhere idx is only a
    valid index (or 0 when arr is empty). From _LOOKUP_SORT_MIN keys on,
    the keys are argsorted once and searched in ascending order, so that
    the search walks arr in order instead of at random, and idx and hit
    are scattered back; keys known to be ascending skip the argsort. The
    flag only picks the faster route: the result is the same either way.
    """
    if arr.size == 0:
        return (np.zeros(vals.shape, dtype=np.intp),
                np.zeros(vals.shape, dtype=bool))
    if ascending or vals.size < _LOOKUP_SORT_MIN:
        idx = np.searchsorted(arr, vals)
        np.clip(idx, 0, arr.size - 1, out=idx)
        return idx, arr[idx] == vals
    flat = vals.ravel()
    order = np.argsort(flat)
    found, hit_sorted = _sorted_lookup(arr, flat[order], True)
    idx = np.empty(flat.size, dtype=np.intp)
    idx[order] = found
    hit = np.empty(flat.size, dtype=bool)
    hit[order] = hit_sorted
    return idx.reshape(vals.shape), hit.reshape(vals.shape)


class _LogTable(NamedTuple):
    """Pohlig-Hellman data for discrete logs base g in F_p^*.

    `parts` holds one (q, e, roots, digits, steps) per prime power q^e
    exactly dividing p-1: `roots` are the q-th roots of unity gamma^j
    (gamma = g^((p-1)/q)) in sorted order, `digits` the j of each, and
    steps[i][d] = c_i^d with c_i = g_e^(-q^i), g_e = g^((p-1)/q^e), which
    strips the digit d found at place i < e-1.
    """

    p: int
    g: int
    parts: tuple


def _geometric(c: int, q: int, p: int) -> np.ndarray:
    """[c^0, c^1, ..., c^(q-1)] mod p as int64."""
    out = [1] * q
    for j in range(1, q):
        out[j] = out[j - 1] * c % p
    return np.asarray(out, dtype=np.int64)


@functools.lru_cache(maxsize=None)
def _log_table(p: int) -> Optional[_LogTable]:
    """The log table of F_p, or None when p-1 has a prime factor above
    _LOG_MAX_FACTOR (its roots table would be too large)."""
    factors = _factorize(p - 1)
    if max(factors) > _LOG_MAX_FACTOR:
        return None
    g = primitive_root(p)
    parts = []
    for q, e in sorted(factors.items()):
        powers = _geometric(pow(g, (p - 1) // q, p), q, p)
        order = np.argsort(powers)
        g_e = pow(g, (p - 1) // q**e, p)
        steps = tuple(_geometric(pow(g_e, -q**i, p), q, p)
                      for i in range(e - 1))
        parts.append((q, e, powers[order], order, steps))
    return _LogTable(p, g, tuple(parts))


def _pow_base(g: int, e: np.ndarray, p: int) -> np.ndarray:
    """Elementwise g^e mod p for one base and nonnegative int64 exponents."""
    out = np.ones_like(e)
    e = e.copy()
    while e.any():
        odd = (e & 1).astype(bool)
        out[odd] = out[odd] * g % p
        g = g * g % p
        e >>= 1
    return out


def _discrete_logs(x: np.ndarray, table: _LogTable) -> np.ndarray:
    """Elementwise L in [0, p-1) with g^L = x mod p, checked.

    Vectorised Pohlig-Hellman in int64, exact because p < 2^31 keeps every
    product below 2^62: each base-q digit of L mod q^e is looked up among
    the q-th roots of unity, and the residues are joined by the CRT. Raises
    ArithmeticError for x = 0 mod p and whenever some g^L differs from x.
    """
    p = table.p
    x = np.remainder(x, p, dtype=np.int64)
    if not x.all():
        raise ArithmeticError(f"0 has no discrete log mod {p}")
    logs = np.zeros_like(x)
    mod = 1  # logs is known mod `mod`
    for q, e, roots, digits, steps in table.parts:
        qe = q**e
        h = _pow_mod(x, (p - 1) // qe, p)  # g_e^(L mod q^e)
        part = np.zeros_like(x)
        for i in range(e):
            # h = g_e^(digits of L mod q^e at places >= i), so its q^(e-1-i)
            # power is gamma^(digit i)
            idx, hit = _sorted_lookup(roots, _pow_mod(h, q**(e - 1 - i), p))
            if not hit.all():
                raise ArithmeticError(f"no {q}-th root of unity mod {p} "
                                      f"matches a log digit")
            d = digits[idx]
            part += d * q**i
            if i < e - 1:
                h = h * steps[i][d] % p
        # CRT step; (part - logs) mod q^e times an inverse stays below 2^62
        t = (part - logs) % qe * pow(mod, -1, qe) % qe
        logs += mod * t
        mod *= qe
    if not (_pow_base(table.g, logs, p) == x).all():
        raise ArithmeticError(f"a discrete log mod {p} fails g^L = x")
    return logs


def _self_div_logs(A: ElemSet, B: ElemSet) -> Optional[np.ndarray]:
    """Sorted discrete logs of B when r_{A/B} is taken over logs, else None.

    B holds no 0 (see `_table`). The log path runs in prime mode when
    A∖{0} has B's contents, the table has at least _LOG_MIN pairs and every
    prime factor of p-1 is at most _LOG_MAX_FACTOR. Below about 2^18 pairs
    the logs cost more than the halved table saves (2-3 ms per call).
    """
    if not A.field.is_prime_mode or len(A) * len(B) < _LOG_MIN:
        return None
    a = A.ints[1:] if A.ints[0] == 0 else A.ints
    if not np.array_equal(a, B.ints):
        return None
    table = _log_table(A.field.p)
    if table is None:
        return None
    logs = _discrete_logs(B.ints, table)
    logs.sort()
    return logs


def _object_table(A: ElemSet, B: ElemSet, op: str) -> Counter:
    fop = getattr(A.field, op)
    table = Counter()
    for x in A:
        for y in B:
            table[fop(x, y)] += 1
    return table


def _check_budget(n: int, m: int, budget: Optional[int]) -> None:
    """Refuse an n x m pair table above budget (None: `table_budget()`)."""
    budget = budget if budget is not None else table_budget()
    if n * m > budget:
        raise BudgetExceeded(f"{n}x{m} pairs exceed budget {budget}")


def _table(A: ElemSet, B: ElemSet, op: str, reduce: str, band=None,
           budget: Optional[int] = None):
    """The table of a ∘ b over A x B, reduced: every pair table is built here.

    Checks the op and the fields, drops a 0 from B for div (its |A| pairs
    are recorded as excluded) and refuses a table above the budget. Inputs
    `_int_fast_ok` accepts go to the int kernel `_sorted_table`, all others
    to the exact object table. Returns, by `reduce`:
      "support"   the ElemSet {a ∘ b};
      "rep"       the RepFn r_{A∘B};
      "spectrum"  hist[m] = #{x : r(x) = m}; the int path checks that it
                  holds the |A||B∖{0}| pairs;
      "level"     (hist, S): hist trimmed to the largest multiplicity (an
                  empty table's is [0]) and S = {x : lo <= r(x) < hi}, with
                  [lo, hi) = band(hist).
    When B has A's contents, sub tables and add/mul supports take the
    unordered pairs only, and a large div spectrum is taken over discrete
    logs (see `_self_div_logs`): r_{A/A} is r_{L-L} over Z/(p-1).
    """
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    if A.field != B.field:
        raise FieldMismatch(f"field mismatch: {A.field} vs {B.field}")
    field = A.field
    excluded = 0
    if op == "div" and 0 in B:
        excluded = len(A)
        B = B.remove_zero()
    n, m = len(A), len(B)
    _check_budget(n, m, budget)
    rhs = m + (1 if excluded else 0)
    if not (n and m) and reduce == "rep":
        empty = np.zeros(0, dtype=np.int64)
        return RepFn(field, op, empty, empty, excluded, n, rhs)
    if n and m and _int_fast_ok(field, op, A.ints, B.ints):
        a, b, kop, mod = A.ints, B.ints, op, field.p
        half = (op == "sub" or reduce == "support" and op in ("add", "mul")) \
            and (A is B or np.array_equal(a, b))
        logs = _self_div_logs(A, B) if op == "div" and reduce == "spectrum" \
            else None
        if logs is not None:
            a, b, kop, mod, half = logs, logs, "sub", field.p - 1, True
        elif op == "div":
            b, kop = _inverses(b, mod), "mul"
        out = _sorted_table(a, b, kop, mod, half, reduce, band)
        if reduce == "support":
            return ElemSet._from_sorted_array(field, out)
        if reduce == "rep":
            return RepFn(field, op, *out, excluded, n, rhs)
        if reduce == "level":
            return out[0], ElemSet._from_sorted_array(field, out[1])
        hist = out
        if logs is not None:
            # mod = p-1 is even, so the class mod/2 (a/b = -1) is its own
            # negative: one value hit 2g times, not two values hit g times;
            # g counts the logs L with L + mod/2 among the logs
            low = logs[logs < mod // 2]
            g = int(_sorted_lookup(logs, low + mod // 2, True)[1].sum())
            if g:
                hist[g] -= 2
                hist[2 * g] += 1  # 2g <= |B|: the pairs {a, -a}
            if n > m:
                hist[m] += 1  # 0 in A: the value 0 = 0/b for every b in B
        mass = _exact_dot(np.arange(hist.size), hist)
        if mass != n * m:
            raise ArithmeticError(f"spectrum mass {mass} != {n}x{m} pairs")
        return hist
    table = _object_table(A, B, op)
    if reduce == "support":
        return ElemSet(field, table.keys())
    if reduce == "rep":
        vals = sorted(table)
        return RepFn(field, op, tuple(vals), [table[v] for v in vals],
                     excluded, n, rhs)
    hist = np.bincount(np.fromiter(table.values(), np.int64, len(table)),
                       minlength=1)
    if reduce == "spectrum":
        return hist
    lo, hi = band(hist)
    return hist, ElemSet(field, [x for x, c in table.items() if lo <= c < hi])


def rep_function(A: ElemSet, B: ElemSet, op: str,
                 budget: Optional[int] = None) -> RepFn:
    """Exact representation function r_{A∘B}.

    Div mode excludes zero-denominator pairs and records how many were dropped.
    """
    return _table(A, B, op, "rep", budget=budget)


def count_spectrum(A: ElemSet, B: ElemSet, op: str,
                   budget: Optional[int] = None) -> np.ndarray:
    """Multiplicity histogram of r_{A∘B}: hist[m] = #values hit exactly m times.

    Avoids materialising the value keys, so energies of 10^4-element sets fit
    comfortably in memory. Large self div spectra are taken over discrete
    logs (see `_self_div_logs`): r_{A/A} is r_{L-L} over Z/(p-1).
    """
    return _table(A, B, op, "spectrum", budget=budget)
