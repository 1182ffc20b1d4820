"""Representation functions r_{A∘B} with exact multiplicities.

The one kernel layer: only this module decides, by `_int_fast_ok`,
which inputs take the int64 paths. Every pair table goes through one entry
point, `_table`: `rep_function`, `count_spectrum`, `setalgebra.combine`
and the level sets of `energy` and `regularize` each ask it for one
reduction. It owns the budget check and the choice between the int
kernel and the exact object table, which also takes every empty table.
Every route returns a `_Reduced` of its table's run-length histogram, so
`_table` checks the mass of every table in one place.

The hot path (prime mode / int-valued sets) has two producers of sorted
pieces of whole runs, in value order, and one reducer, `_reduce`, that
turns them into what the caller asks for: the support, the support with its
counts, the run-length histogram ("spectrum") or one level set
{x : lo <= r(x) < hi} with the histogram it was chosen from ("level").
`_reduce` takes each piece's share from one histogram scan
(`_region_spectrum`, which locates only the runs of three or more copies
in a generic chunk and counts the runs of two), and one run scan
(`_run_starts`) writes supports, counts and level sets alike. The row
split (`_sort_reduce`) streams A x B in row blocks into one flat array,
without boolean indexing, sorted in slices on every usable core; runs
that cross the slice seams are stitched, so the results are those of one
thread. A support or rep table is held in
the top bytes of its own int64 output, the values are written over it in
value order, and the buffer is then shrunk to them, so that the table and
the values never take memory side by side. A large add/sub table that
reduces to a spectrum or a level set is never held whole: its value range
is cut into buckets of at most _BUCKET pairs, and each bucket is gathered
from runs of the sorted operand and sorted on its own (`_bucket_table`).
Div spectra and level sets of large tables take the same route over
discrete logs, by `_table`'s one route step (`_div_logs`). This is what
makes fourth-moment energies of 10^4-element sets take seconds in bounded
memory. The route step's other transport serves a large add/sub spectrum
or level set in F_p whose sets a subgroup G of F_p^* fixes (subgroups,
cosets and their unions): r_{A±B} is constant on the cosets of G, so it
is counted from about |A||B|/|G| orbit representatives (`_orbits`); both
add a value the kernel never builds by `_one_more` and finish level sets
by `_finish_level`. Rational or oversized values fall back to a Counter.

Inside a `table_memo` block (one suite cell), `_table` builds each table
of at most _MEMO_PAIRS pairs once, as its rep table, keeps that read-only
and serves every reduction of the table from it (`_memo_route`): the
spectrum is its histogram, the support its values and a level set a count
filter. A larger table, and every table outside a block, is built on each
call.

Every array reduction mod p goes through one in-place helper, `_mod`,
which takes x - (x // p) * p by numpy's vectorised division by a scalar,
at under half the cost of `%`.

Every array comes from the malloc heap. Each table or grid of at least
_PARALLEL_MIN pairs first hands the heap's free pages back to the system
(`_release_heap`, glibc's `malloc_trim(0)`), because glibc keeps freed
heap below its raised thresholds resident and a later table would peak
on top of it. One trim per large table keeps that bound without slowing
small ones: a trim per table, or a lower fixed mmap threshold, cost 10%
to 50% of the wall time for the same peak.

Which entries of a grid x ∘ y lie in a set is asked of one kernel too,
`_in_grid`: the membership counts (`_membership_counts`) and the
pair-popularity count of `counting` are sums and products of its exact
masks. `_table` and `_in_grid` take their operands through one front,
`_operands`. `_collision_spectrum` gives `counting` the spectrum of x(y+z).
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import hashlib
import math
import os
import queue
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
_BUCKET = 1 << 22  # pairs of a value bucket, unless one value holds more
_GATHER = 1 << 16  # short-run values a bucket worker gathers at a time
_LONG_RUN = 512  # values; longer runs are copied as slices
_BIG = 1 << 62  # above every |value| of a char0 add/sub table
_LOG_MIN = _PARALLEL_MIN  # pairs; smaller div tables keep the inverses
_LOG_SIDE = 256  # elements; a div table with a shorter side keeps them too
_LOG_MAX_FACTOR = 1 << 16  # largest prime factor of p-1 the log tables allow
_LOG_PIECE = 1 << 14  # values a log worker takes at a time
_DENSE = 0.5  # share of equal adjacent pairs above which a piece is dense
_ORBIT_MIN = 1 << 21  # pairs; smaller add/sub tables skip the orbit search


class BudgetExceeded(RuntimeError):
    """A counting table would exceed the configured insertion budget."""


def _parse_budget(text: str) -> int:
    """SUMPROD_BUDGET or --budget as a positive integer, else ValueError."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise ValueError(f"must be a positive integer, got {text!r}")
    return budget


def table_budget() -> int:
    """The pair budget SUMPROD_BUDGET sets, DEFAULT_BUDGET where it is unset
    or empty. Raises ValueError unless it is a positive integer."""
    env = os.environ.get("SUMPROD_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    try:
        return _parse_budget(env)
    except ValueError as exc:
        raise ValueError(f"SUMPROD_BUDGET {exc}") from None


class RepFn:
    """Counting table x -> |{(a,b): a ∘ b = x}|, stored as sorted parallel arrays.

    `values` is either a sorted int64 numpy array or a sorted tuple of exact
    elements; `counts` aligns with it (an int64 array or a tuple). `excluded_pairs` records zero-denominator
    pairs dropped in div mode. `hist` is the count histogram that `_table`
    mass-checked, trimmed to the largest count; the arrays are never mutated.
    """

    __slots__ = ("field", "op", "values", "counts", "excluded_pairs", "_hist")

    def __init__(self, field: GroundField, op: str, values, counts,
                 excluded_pairs: int, hist: np.ndarray):
        self.field = field
        self.op = op
        self.values = values
        self.counts = counts
        self.excluded_pairs = excluded_pairs
        hist.flags.writeable = False
        self._hist = hist

    def __len__(self) -> int:
        return len(self.values)

    def items(self) -> Iterator[Tuple[object, int]]:
        if isinstance(self.values, np.ndarray):
            for v, c in zip(self.values.tolist(), self.counts.tolist()):
                yield v, c
        else:
            yield from zip(self.values, self.counts)

    def support(self) -> ElemSet:
        return _elemset(self.field, self.values)

    def to_dict(self) -> dict:
        return dict(self.items())

    def count_histogram(self) -> np.ndarray:
        """hist[m] = #values with multiplicity exactly m; read-only."""
        return self._hist


def _elemset(field: GroundField, values) -> ElemSet:
    """The ElemSet of sorted distinct values (an int array or elements)."""
    if isinstance(values, np.ndarray):
        return ElemSet._from_sorted_array(
            field, values.astype(np.int64, copy=False))
    return ElemSet(field, values, _canonical=True)


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


def _mod(x: np.ndarray, p: int, q: Optional[np.ndarray] = None) -> np.ndarray:
    """x mod p in [0, p), in place, for a C-contiguous int64 array x of any
    shape and sign and 0 < p < 2^31; returns x. Every array reduction of
    the int kernel goes through here.

    It is x - (x // p) * p, taken _CHUNK values at a time through one
    chunk-sized buffer. numpy divides int64 by a scalar with a vectorised
    multiply and shift (libdivide), about 0.5 ns a value on a 2-core x86
    VM, where `%` divides value by value in about 2.5 ns, so the three
    passes cost under half of one `%`. The chunks keep them in cache, and
    no temporary is larger than a chunk; an array of at most one chunk is
    reduced in one step, without the loop's views (2.0 against 3.1 µs on
    512 values). Floor division rounds toward -inf, so a negative x gets
    the remainder `%` gives too; q, if given, is a reused chunk of quotients.
    """
    if not x.flags.c_contiguous:
        raise ValueError("_mod reduces a C-contiguous array in place")
    if q is None and x.size <= _CHUNK:
        q = x // p
        q *= p
        x -= q
        return x
    flat = x.reshape(-1)
    q = np.empty(min(flat.size, _CHUNK), dtype=x.dtype) if q is None else q
    for c in range(0, flat.size, _CHUNK):
        part = flat[c:c + _CHUNK]
        d = q[:part.size]
        np.floor_divide(part, p, out=d)
        d *= p
        part -= d
    return x


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
            _mod(out, p)
        e >>= 1
        if e:
            np.multiply(base, base, out=base)
            _mod(base, p)
    return out


def _inverses(b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p as b^(p-2), checked.

    Raises ArithmeticError unless b * b^-1 == 1 (mod p) for every element,
    which also refuses 0.
    """
    if p >= 1 << 31:
        raise ValueError(f"int64 inverses need p < 2^31, got {p}")
    x = _mod(b.astype(np.int64), p)
    inv = _pow_mod(x, p - 2, p)
    if not (_mod(x * inv, p) == 1).all():
        raise ArithmeticError(f"a value has no inverse mod {p}")
    return inv


_UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _grid(x: np.ndarray, y: np.ndarray, op: str,
          p: Optional[int], q: Optional[np.ndarray] = None) -> np.ndarray:
    """grid[i, j] = x[i] op y[j], reduced mod p in prime mode (`_mod`'s q).

    div multiplies by the checked `_inverses(y, p)`, so a 0 in y raises.
    Exact only where `_int_fast_ok(field, op, x, y)` holds.
    """
    if op == "div":
        y = _inverses(y, p)
        op = "mul"
    grid = _UFUNCS[op](x[:, None], y[None, :])
    return grid if p is None else _mod(grid, p, q)


def _exact_dot(x: np.ndarray, y: np.ndarray) -> int:
    """Exact sum of x[i] * y[i] over two nonnegative int arrays.

    The int64 dot is exact when sum(x) * max(y) < 2^63, because no
    product or partial sum can exceed that; otherwise it runs on Python ints.
    """
    if int(x.sum()) * int(y.max(initial=0)) < 1 << 63:
        return int(np.dot(np.asarray(x, np.int64), np.asarray(y, np.int64)))
    return int(np.dot(x.astype(object), y.astype(object)))


def _threads() -> int:
    """Cores this process may run on (every core where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _pool(threads: int):
    """A map over `threads` threads: the builtin map for one, else a
    thread pool's map; the pool is shut down on exit."""
    if threads == 1:
        yield map
        return
    with ThreadPoolExecutor(threads) as pool:
        yield pool.map


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, looked up once; None where the C library has
    no such symbol (musl, macOS, Windows)."""
    if os.name != "posix":
        return None
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


def _release_heap() -> None:
    """Hand the malloc heap's free pages back to the system, where the C
    library can (`malloc_trim(0)`); else do nothing.

    Freeing a large array raises glibc's mmap threshold to its size (up to
    32 MiB) and its trim threshold to twice that, so later arrays below
    the threshold come from the heap and stay resident after they are
    freed. Each table or grid of at least _PARALLEL_MIN pairs calls this
    before it allocates, so that its peak adds to what live arrays hold,
    not to what freed ones left behind.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


class _Reduced(NamedTuple):
    """What every route of `_table` returns: the run-length histogram of its
    table (trimmed unless it is a spectrum), the sorted values kept (None
    for a spectrum) and their counts ("rep" only)."""

    hist: np.ndarray
    values: object
    counts: object


def _sorted_table(a: np.ndarray, b: np.ndarray, op: str, p: Optional[int],
                  half: bool, reduce: str, band=None):
    """The sorted flat table of a_i op b_j for op in add, sub, mul, reduced.

    Values are reduced mod p, which need not be prime (the discrete-log
    path passes p - 1); None means char0. half (b equal to a, both sorted
    and distinct) keeps only the pairs i < j for sub, stored as the class
    min(d, p - d) of d = a_j - a_i (char0: d itself), and i <= j for
    add/mul. A modulus up to 2^31 - 1 keeps the values in int32: add/sub use
    a shifted subtraction plus one conditional add of p (`where=`) instead
    of a modulo, and mul reduces its int64 block with `_mod`. A half table
    copies one slice per row of each block, with no mask. The table itself
    is never returned; `_reduce` turns it into the `_Reduced` that `reduce`
    names: "spectrum", "support" (sorted distinct int64 values), "rep"
    (with int64 counts) or "level" (the values x with lo <= r(x) < hi,
    [lo, hi) = band(hist)). A half
    sub table is mirrored into r_{A-A}: r(0) = |A| and r(c) = r(-c) = g(c),
    the class count, so each of its reductions, the histogram too, is that
    of r_{A-A}; a half add/mul histogram is that of the i <= j pairs.

    A "support" or "rep" table lives inside its own output: one int64 slot
    per pair (2N + 1 for a mirrored half table of N pairs) is allocated
    first, and the table fills its top bytes, so that `_reduce` writes the
    values over it in value order and the table and the values never take
    memory side by side. The buffer is then shrunk to the values in place
    (`ndarray.resize`, a realloc), so that no result holds the table's
    memory.

    An add/sub "spectrum" or "level" table of at least _PARALLEL_MIN pairs
    is built one value bucket at a time (see `_bucket_table`). Any other
    table of that size is filled, sorted and reduced on every usable core:
    the rows split into one range of about equal output per thread, each
    written to its own slice of the table, and the table is partitioned at
    the range cuts so that each thread sorts and reduces one slice. The
    results are the same as on one thread.
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
    # an empty table has no range to split
    large = bool(size) and size >= _PARALLEL_MIN
    if large:
        _release_heap()
    if large and op in ("add", "sub") and reduce in ("spectrum", "level"):
        return _bucket_table(a, b, op, p, half, reduce, band, dtype)
    rows = max(1, _BLOCK // max(m, 1))
    mirror = (n, p) if half and strict else None
    buf = None
    if reduce in ("support", "rep"):
        # one int64 output slot per pair (2N+1 for a mirrored half table),
        # the table in its top bytes: `_reduce` writes the values over it
        buf = np.empty(2 * size + 1 if mirror else size, dtype=np.int64)
        out = buf.view(dtype)
        out = out[out.size - size:]
    else:
        out = np.empty(size, dtype=dtype)

    shifted = small and op in ("add", "sub")
    if shifted:
        a = a.astype(np.int32)
        # a+b mod p == a-(p-b) mod p; both cases become subtraction in (-p, p)
        b = (p - b).astype(np.int32) if op == "add" else b.astype(np.int32)
        p32 = np.int32(p)

    def fill(lo: int, hi: int) -> None:
        filled = int(offsets[lo])
        q = np.empty(_CHUNK, np.int64) if op == "mul" and p else None
        for i0 in range(lo, hi, rows):
            blk = row = None  # the last block goes before the next is made
            i1 = min(hi, i0 + rows)
            j0 = i0 + strict if half else 0
            if half and strict:
                # a is sorted, so d = a_j - a_i lies in (0, p) for i < j
                blk = b[None, j0:] - a[i0:i1, None]
            elif shifted:
                blk = a[i0:i1, None] - b[None, j0:]
                np.add(blk, p32, out=blk, where=blk < 0)
            else:
                blk = _grid(a[i0:i1], b[j0:], op, p, q)
            if not half:
                out[filled:filled + blk.size] = blk.ravel()
                filled += blk.size
                continue
            # half row i keeps the columns j >= i + strict: blk[r, r:] for
            # r = i - i0, one slice per row
            start = filled
            for r, row in enumerate(blk):
                out[filled:filled + row.size - r] = row[r:]
                filled += row.size - r
            if strict and p is not None:
                d = out[start:filled]
                np.minimum(d, p - d, out=d)
        if filled != offsets[hi]:
            raise RuntimeError(f"pair kernel filled rows {lo}..{hi} up to "
                               f"slot {filled}, expected {offsets[hi]}")

    threads = _threads() if large else 1
    cuts = [size * k // threads for k in range(1, threads)]
    bounds = [0, *np.searchsorted(offsets, cuts).tolist(), n]
    with _pool(threads) as run:
        list(run(fill, bounds[:-1], bounds[1:]))
        if cuts:
            # every value left of a cut is <= every value right of it, so
            # sorting the slices sorts flat
            out.partition(cuts)
        got = _sort_reduce(out, [0, *cuts, size], reduce, mirror, run, band,
                           buf)
    if buf is None:
        return got
    k = got.values.size
    # the values are buf's first k slots; the shrink (a realloc, which
    # hands the tail back) raises ValueError while any reference to buf
    # but this one is held, as a trace or profile hook's snapshot of these
    # locals is; then the values are copied out instead
    got = got._replace(values=None)
    del out
    try:
        buf.resize(k)
    except ValueError:
        buf = buf[:k].copy()
    return got._replace(values=buf)


def _sort_reduce(flat: np.ndarray, edges: list, reduce: str,
                 mirror: Optional[Tuple[int, Optional[int]]], run,
                 band=None, out: Optional[np.ndarray] = None):
    """Sort flat's slices edges[i]:edges[i+1] in place and `_reduce` them.

    Every value of a slice is <= every value of the next, and `run` maps a
    function over the slices (the builtin map, or a pool's). The seams are
    stitched here: a slice whose first value equals the last value of the
    previous non-empty slice continues that run, so each run belongs to
    the slice it starts in, even a run that spans several slices. The
    owners' ranges, from each first own run start up to the next owner's,
    are the pieces `_reduce` gets, as views of flat. `out`, if given, is
    the int64 buffer whose top bytes flat fills, and the values are
    written into it (see `_reduce`).
    """
    def sort(lo: int, hi: int) -> None:
        flat[lo:hi].sort()  # SIMD introsort; much faster than radix here

    list(run(sort, edges[:-1], edges[1:]))
    starts = []  # first own run start per owner
    prev = None  # last value of the previous non-empty slice
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo == hi:
            continue
        if prev is not None and flat[lo] == prev:
            lo += int(np.searchsorted(flat[lo:hi], prev, "right"))
        prev = flat[hi - 1]
        if lo < hi:
            starts.append(lo)
    pieces = [flat[lo:hi] for lo, hi in zip(starts, starts[1:] + [flat.size])]
    return _reduce(pieces, lambda piece, f: f(piece), reduce, mirror, run,
                   band, out)


def _reduce(pieces: list, load, reduce: str,
            mirror: Optional[Tuple[int, Optional[int]]], run, band,
            out: Optional[np.ndarray] = None):
    """Reduce a table held as sorted pieces of whole runs, in value order.

    load(piece, f) returns f(values) for the piece's sorted values, and
    `run` maps a function over the pieces (the builtin map, or a pool's).
    Each piece's part of the run-length histogram is taken first, in one
    scan (`_region_spectrum`), and the parts are merged. "spectrum" returns
    `_Reduced(hist, None, None)`, untrimmed. The others keep the runs
    whose length lies in a band [lo, hi): band(hist) for "level", [1, ∞)
    for "support" and "rep", so
    that a piece's share is its runs in the band. Then each piece that
    holds band runs writes their values (and for "rep" their counts) into
    the int64 outputs at the offset the shares before it give, in one scan
    (`_run_starts`). A piece that writes a count other than its share
    raises RuntimeError. These return a `_Reduced` of the histogram
    (trimmed to its largest multiplicity), the values and the counts.
    mirror = (n, p) marks a half sub table of n values: its classes c are
    written forward, their negatives -c (p - c in F_p) after the forward
    scan, and 0, hit n times; its histogram (a class count g is the
    multiplicity of two values) is folded into that of r_{A-A}.

    `out`, if given, is the int64 buffer whose top bytes hold the pieces
    (the row split's table, in its own dtype), and the values go into its
    first slots; the values returned are a view of it. Each piece's scan
    gathers its values at its own start, which it has already read, and a
    second pass moves them down into place, piece after piece in value
    order. A piece of t values at index r of the table writes at most t
    slots from slot r on, and the table fills the top bytes of at least as
    many slots as it has values, so a value's slot never reaches past the
    first gathered value not yet moved.
    """
    parts = list(run(load, pieces, [_region_spectrum] * len(pieces)))
    hist = _merge_spectra(parts, mirror)
    if reduce == "spectrum":
        return _Reduced(hist, None, None)
    hist = _trim(hist)
    blo, bhi = band(hist) if reduce == "level" else (1, math.inf)
    # the runs of each piece whose length lies in [lo, hi), all shorter
    # than the trimmed histogram
    top = min(bhi, hist.size)
    owned = [int(h[blo:top].sum()) + sum(blo <= x < bhi for x in long)
             for h, long in parts]
    # a half table writes 0 with count n
    zero = mirror is not None and blo <= mirror[0] < bhi

    k = sum(owned)
    offsets = np.cumsum([0] + owned[:-1]).tolist()
    if mirror is None:
        total, first = k, 0
    else:
        # F_p: 0 < c < p-c, so [0, c..., p-c...]; char0: [-c..., 0, c...]
        n, p = mirror
        total, at_zero = 2 * k + zero, 0 if p is not None else k
        first = at_zero + zero
    vals = np.empty(total, dtype=np.int64) if out is None else out
    counts = np.empty(total, dtype=np.int64) if reduce == "rep" else None

    def write(v: np.ndarray, offset: int, share: int) -> None:
        at = slice(first + offset, first + offset + share)
        # a piece of `out`'s table gathers its values at its own start, for
        # `settle`
        dst = vals[at] if out is None else v
        w = 0
        for part in _run_chunks(v):
            new = _run_starts(part, blo, bhi)
            x = part[new]
            w += x.size
            # past its share a piece only counts; an empty pick writes nothing
            if w > share or not x.size:
                continue
            dst[w - x.size:w] = x
            if counts is not None:
                # every run is kept, so a count runs to the next start
                starts = np.flatnonzero(new)
                c = counts[at][w - x.size:w]
                np.subtract(starts[1:], starts[:-1], out=c[:-1])
                c[-1] = part.size - starts[-1]
        if w != share:
            raise RuntimeError(f"a table piece wrote {w} values, its "
                               f"share is {share}")

    def settle(v: np.ndarray, offset: int, share: int) -> None:
        # a chunk never ends past the first value not yet moved; where it
        # overlaps its source, numpy copies through a chunk-sized buffer
        for c in range(0, share, _CHUNK):
            e = min(c + _CHUNK, share)
            vals[first + offset + c:first + offset + e] = v[c:e]

    def each(mapper, f, group: list) -> None:
        list(mapper(load, [pieces[i] for i in group],
                    [functools.partial(f, offset=offsets[i], share=owned[i])
                     for i in group]))

    # a piece with nothing in the band has nothing to scan
    busy = [i for i, c in enumerate(owned) if c]
    each(run, write, busy)
    if out is not None:
        # the gathered values move down after every scan, in value order
        each(map, settle, busy)
    if mirror is not None:
        # the forward values' negatives, reversed, fill the other side
        fwd = slice(first, first + k)
        rev = slice(first + k, total) if p is not None else slice(0, k)
        np.subtract(p if p is not None else 0, vals[fwd][::-1],
                    out=vals[rev])
        if counts is not None:
            counts[rev] = counts[fwd][::-1]
        if zero:
            vals[at_zero] = 0
            if counts is not None:
                counts[at_zero] = n
    return _Reduced(hist, vals[:total], counts)


def _merge_spectra(parts: list, mirror) -> np.ndarray:
    """The run-length histogram of a table from the (hist, long) parts of
    its pieces (see `_region_spectrum`). mirror = (n, p) marks a half sub
    table of n values: a class count g is the multiplicity of both c and
    -c, and 0 is hit n times (`_one_more`)."""
    size = max([2] + [h.size for h, _ in parts]
               + [max(long, default=0) + 1 for _, long in parts])
    hist = np.zeros(size, dtype=np.int64)
    for h, long in parts:
        hist[:h.size] += h
        for length in long:
            hist[length] += 1
    return hist if mirror is None else _one_more(2 * hist, mirror[0])


def _one_more(hist: np.ndarray, c: int) -> np.ndarray:
    """A copy of hist with one more value, hit c times."""
    hist = np.pad(hist, (0, max(0, c + 1 - hist.size)))
    hist[c] += 1
    return hist


def _trim(hist: np.ndarray) -> np.ndarray:
    """hist up to its last nonzero entry ([0] when all are zero)."""
    return hist[:np.flatnonzero(hist)[-1] + 1 if hist.any() else 1]


class _Term(NamedTuple):
    """The pairs (i, j) of a table whose value is shift[i] + col[j] and
    lies in [lo, hi). col is sorted, so the j of row i whose values lie in
    one range form one run of col. col64 and shift64 are int64 copies for
    the searches, whose keys may leave the table's dtype."""

    col: np.ndarray
    shift: np.ndarray
    lo: int
    hi: int
    col64: np.ndarray
    shift64: np.ndarray

    def starts(self, edges: np.ndarray) -> np.ndarray:
        """starts[k, i]: the first j of row i whose value is at least
        edges[k], so that row i's values in [edges[k], edges[l]) are the
        run starts[k, i]:starts[l, i] of col."""
        keys = np.clip(edges, self.lo, self.hi)[:, None] - self.shift64
        return np.searchsorted(self.col64, keys)


def _bucket_terms(a: np.ndarray, b: np.ndarray, op: str, mod: Optional[int],
                  half: bool, dtype) -> Tuple[list, int, int]:
    """(terms, lo, hi): the pairs of an add/sub table as `_Term`s, and the
    range [lo, hi) of its values.

    A full table is a_i + c_j with c = b for add and c = -b (mod `mod`)
    sorted for sub; its rows are the shorter side. Mod `mod`, a row's
    values are a_i + c_j below mod, then a_i + c_j - mod: two terms. A half
    sub table (b is a, sorted and distinct) holds the class min(d, mod - d)
    of d = a_j - a_i, i < j: d itself up to mod // 2, and
    mod - d = a_i + (mod - a_j) below (mod + 1) // 2, so that the class
    mod / 2 of an even mod is taken once. In char0 it holds d >= 1.
    """
    def term(col, shift, lo, hi):
        return _Term(col.astype(dtype), shift.astype(dtype), lo, hi,
                     col.astype(np.int64), shift.astype(np.int64))

    if half:
        if mod is None:
            return [term(a, -a, 1, _BIG)], 1, int(a[-1] - a[0]) + 1
        top = mod // 2 + 1
        return [term(a, -a, 1, top),
                term((mod - a)[::-1], a, 1, (mod + 1) // 2)], 1, top
    if op == "sub":
        b = np.sort(-b if mod is None else _mod(mod - b, mod))
    if b.size < a.size:
        a, b = b, a
    if mod is None:
        return [term(b, a, -_BIG, _BIG)], int(a[0] + b[0]), \
            int(a[-1] + b[-1]) + 1
    low = term(b, a, 0, mod)  # the wrapped term shares its columns
    return [low, low._replace(shift=(a - mod).astype(dtype),
                              shift64=a - mod)], 0, mod


def _plan(terms: list, lo: int, hi: int, total: int,
          limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """(edges, counts): value buckets [edges[k], edges[k+1]) that cover
    [lo, hi) and hold counts[k] <= limit pairs each, from exact pair counts.

    A range of more than limit pairs and more than one value is cut into
    equal parts, until every range holds at most limit pairs or one value
    (a value is never hit by more pairs than the rows); the ranges are then
    joined greedily. Raises unless the counts add up to `total`.
    """
    rows = terms[0].shift.size
    step = max(1, 4 * _GATHER // rows)  # edges searched at a time

    def below(edges):
        # the pairs with a value below each edge, up to one constant
        return np.concatenate([
            sum(t.starts(edges[k:k + step]).sum(axis=1) for t in terms)
            for k in range(0, edges.size, step)])

    edges = np.asarray([lo, hi], dtype=np.int64)
    cum = below(edges)
    if cum[1] - cum[0] != total:
        raise RuntimeError(f"value buckets hold {cum[1] - cum[0]} pairs, "
                           f"expected {total}")
    while True:
        counts, width = np.diff(cum), np.diff(edges)
        over = np.flatnonzero((counts > limit) & (width > 1))
        if not over.size:
            break
        new = []
        for k in over.tolist():
            parts = int(min(width[k], max(16, 4 * counts[k] // limit)))
            new.append(edges[k] + width[k] // parts * np.arange(1, parts))
        # new is sorted and falls strictly between edges
        new = np.concatenate(new)
        at = np.searchsorted(edges, new)
        edges, cum = np.insert(edges, at, new), np.insert(cum, at, below(new))
    cuts = [0]
    while cuts[-1] < edges.size - 1:
        k = int(np.searchsorted(cum, cum[cuts[-1]] + limit, "right")) - 1
        cuts.append(max(k, cuts[-1] + 1))
    return edges[cuts], np.diff(cum[cuts])


def _copy_runs(out: np.ndarray, w: int, term: _Term, start: np.ndarray,
               length: np.ndarray) -> int:
    """Write col[start[i]:start[i] + length[i]] + shift[i] for every row i
    to out from w on; return where the writes end. Runs of at least
    _LONG_RUN values are copied as slices, shorter ones gathered about
    _GATHER values at a time."""
    if w + int(length.sum()) > out.size:
        raise RuntimeError(f"a value bucket holds more than its "
                           f"{out.size} planned pairs")
    long = length >= _LONG_RUN
    for i in np.flatnonzero(long).tolist():
        s, n = int(start[i]), int(length[i])
        np.add(term.col[s:s + n], term.shift[i], out=out[w:w + n])
        w += n
    rows = np.flatnonzero(~long & (length > 0))
    if not rows.size:
        return w
    start, length, shift = start[rows], length[rows], term.shift[rows]
    ends = np.cumsum(length)
    cuts = np.searchsorted(ends, np.arange(_GATHER, int(ends[-1]), _GATHER))
    for r0, r1 in zip([0, *cuts.tolist()], [*cuts.tolist(), rows.size]):
        if r0 == r1:
            continue
        n = int(ends[r1 - 1] - ends[r0] + length[r0])
        # run r of the group starts at index first[r] of the gather
        first = ends[r0:r1] - length[r0:r1] - (ends[r0] - length[r0])
        idx = np.repeat((start[r0:r1] - first).astype(np.int32),
                        length[r0:r1])
        idx += np.arange(n, dtype=np.int32)
        part = out[w:w + n]
        np.take(term.col, idx, out=part)
        part += np.repeat(shift[r0:r1], length[r0:r1])
        w += n
    return w


def _bucket_table(a: np.ndarray, b: np.ndarray, op: str, mod: Optional[int],
                  half: bool, reduce: str, band, dtype):
    """`_sorted_table`'s "spectrum" or "level" of an add/sub table, built
    one value bucket at a time.

    The value range is cut into buckets of at most _BUCKET pairs (or the
    pairs of one value, if more) at edges chosen from exact pair counts
    (`_plan`), and into at least two buckets per thread. Each row adds one
    or two runs of the sorted operand to a bucket (`_bucket_terms`). The
    buckets hold disjoint values, so each is a piece of whole runs for
    `_reduce`, and no array is table-sized: loading a bucket gathers it
    into one of the workers' buffers and sorts it there, and a bucket whose
    gathered size differs from its planned count raises. A level set
    gathers again only the buckets that hold band values.
    """
    terms, lo, hi = _bucket_terms(a, b, op, mod, half, dtype)
    rows = terms[0].shift.size
    total = a.size * (a.size - 1) // 2 if half else a.size * b.size
    threads = _threads()
    limit = max(rows, min(_BUCKET, -(-total // (2 * threads))))
    edges, counts = _plan(terms, lo, hi, total, limit)
    busy = np.flatnonzero(counts)
    buckets = list(zip(edges[busy].tolist(), edges[busy + 1].tolist(),
                       counts[busy].tolist()))

    # one bucket buffer per worker, from the heap `_sorted_table` has
    # just trimmed (`_release_heap`)
    block = np.empty((min(threads, len(buckets)), int(counts.max())), dtype)
    space = queue.SimpleQueue()
    for buf in block:
        space.put(buf)

    def load(bucket, f):
        lo, hi, count = bucket
        buf = space.get()
        try:
            out, w = buf[:count], 0
            for t in terms:
                start, end = t.starts(np.asarray([lo, hi], dtype=np.int64))
                w = _copy_runs(out, w, t, start, end - start)
            if w != count:
                raise RuntimeError(f"a value bucket holds {w} pairs, "
                                   f"planned {count}")
            out.sort()
            return f(out)
        finally:
            space.put(buf)

    with _pool(threads) as run:
        return _reduce(buckets, load, reduce, (a.size, mod) if half else None,
                       run, band)


def _run_starts(part: np.ndarray, lo: int, hi: float) -> np.ndarray:
    """Bool mask of the starts of the runs of the sorted chunk part whose
    length lies in [lo, hi)."""
    n = part.size
    new = np.empty(n, dtype=bool)  # a run starts here
    new[0] = True
    np.not_equal(part[1:], part[:-1], out=new[1:])
    # the run that starts at i is at least L long iff part[i + L - 1] ==
    # part[i]; part holds whole runs, so none reaches past its end
    if lo > 1:
        s = min(lo - 1, n)
        new[n - s:] = False
        new[:n - s] &= part[s:] == part[:n - s]
    if hi <= n:
        s = hi - 1
        new[:n - s] &= part[s:] != part[:n - s]
    return new


def _run_chunks(piece: np.ndarray) -> Iterator[np.ndarray]:
    """Split piece, whole runs of a sorted table, into views of whole runs:
    at most _CHUNK values each, or a single run of any length."""
    lo, hi = 0, piece.size
    while lo < hi:
        cut = lo + _CHUNK
        if cut >= hi:
            cut = hi
        else:
            # back to the start of the run at cut, or on to the end of the
            # run at lo when that one is longer than a chunk
            cut = lo + int(np.searchsorted(piece[lo:cut], piece[cut]))
            if cut == lo:
                cut += int(np.searchsorted(piece[lo:], piece[lo], "right"))
        yield piece[lo:cut]
        lo = cut


def _region_spectrum(piece: np.ndarray) -> Tuple[np.ndarray, list]:
    """Run-length histogram of piece, whole runs of a sorted table.

    Returns (hist, long): hist counts the runs of the chunks that hold
    several, `long` lists the lengths of the runs that fill a chunk alone
    (of any length, so that hist stays chunk-sized). A chunk whose equal
    adjacent pairs are more than _DENSE of its values takes the run lengths
    from the run ends. Any other chunk locates only its runs of three or
    more copies, where two equal adjacent pairs touch: a run of L copies
    holds L - 1 equal pairs and L - 2 touching ones, so the runs of exactly
    two are the equal pairs less the touching ones and the longer runs.
    """
    hist = np.zeros(2, dtype=np.int64)
    long = []
    for part in _run_chunks(piece):
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
            hist[1] += part.size - eq  # runs
            if not eq:
                continue
            # generic sets repeat few values, and most of those twice
            at = np.flatnonzero(same[1:] & same[:-1])
            # a run of g + 2 copies is g adjacent touching pairs; `first`
            # indexes the first of each run's pairs in `at`
            first = np.flatnonzero(np.diff(at, prepend=-2) != 1)
            mult = np.bincount(np.diff(first, append=at.size) + 2,
                               minlength=3)
            mult[2] = eq - at.size - first.size  # runs of exactly two
            hist[1] -= mult[2] + first.size
        if mult.size > hist.size:
            hist = np.pad(hist, (0, mult.size - hist.size))
        hist[:mult.size] += mult
    return hist, long


def _sorted_lookup(arr: np.ndarray,
                   vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(idx, hit) with hit = vals in the sorted array arr, elementwise, by
    one plain `searchsorted`.

    Where hit is True, arr[idx] equals the value; elsewhere idx is only a
    valid index (or 0 when arr is empty).
    """
    if arr.size == 0:
        return (np.zeros(vals.shape, dtype=np.intp),
                np.zeros(vals.shape, dtype=bool))
    idx = np.searchsorted(arr, vals)
    np.clip(idx, 0, arr.size - 1, out=idx)
    return idx, arr[idx] == vals


def _packed_sort(keys: np.ndarray) -> Optional[Tuple[np.ndarray, int, int]]:
    """(P, bits, base): the flat keys packed with their index i as
    (keys[i] - base) << bits | i, base = keys.min(), in one sorted int64
    array; None when the keys' range does not fit the 63 - bits bits left.
    keys (nonempty) are overwritten."""
    bits = max(1, (keys.size - 1).bit_length())
    base = int(keys.min())
    if (int(keys.max()) - base + 1) >> (63 - bits):
        return None
    np.subtract(keys, base, out=keys)
    keys <<= bits
    keys |= np.arange(keys.size)
    keys.sort()
    return keys, bits, base


def _operands(op: str, A: ElemSet, B: ElemSet,
              *looked_up: ElemSet) -> Tuple[ElemSet, Optional[int]]:
    """(B, zero) for a table or grid A ∘ B: refuses an op not in OPS
    (ValueError) and B or a looked-up set over another field than A
    (FieldMismatch). For div a 0 is dropped from B, and zero is the index
    it had there; else zero is None."""
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    for S in (B, *looked_up):
        if S.field != A.field:
            raise FieldMismatch(f"field mismatch: {A.field} vs {S.field}")
    if op != "div" or 0 not in B:
        return B, None
    zero = B.elements().index(0) if B.ints is None \
        else int(np.searchsorted(B.ints, 0))
    return B.remove_zero(), zero


def _in_grid(X: ElemSet, Y: ElemSet, op: str, S: ElemSet) -> np.ndarray:
    """mask[i, j] = X[i] ∘ Y[j] in S, exact; False where op is div and
    Y[j] = 0 (a 0 `_operands` drops, given back as a False column).

    Inputs `_int_fast_ok` accepts (S is only looked up, so it needs int
    values only) build the grid with `_grid`. Its keys are packed with
    their flat index (`_packed_sort`) and sorted once: the keys equal to a
    value of S form one block, found by two ascending searches of S's
    values, and the indices in the blocks, or outside them when those are
    fewer, are marked. Int keys too far apart to pack take one plain
    `_sorted_lookup`; every other input takes the field's exact ops.
    """
    Y, zero = _operands(op, X, Y, S)
    field = X.field
    x, y, s = X.ints, Y.ints, S.ints
    if s is None or not _int_fast_ok(field, op, x, y):
        fop, members = getattr(field, op), frozenset(S)
        hits = np.array([[fop(a, b) in members for b in Y] for a in X],
                        dtype=bool).reshape(len(X), len(Y))
        return hits if zero is None else np.insert(hits, zero, False, axis=1)
    if x.size * y.size >= _PARALLEL_MIN:
        _release_heap()
    grid = _grid(x, y, op, field.p)
    packed = _packed_sort(grid.ravel()) if grid.size else None
    if packed is None:
        hits = _sorted_lookup(s, grid)[1]
    else:
        flat, bits, base = packed
        top = base + (int(flat[-1]) >> bits)
        v = s[np.searchsorted(s, base):np.searchsorted(s, top, "right")]
        v = v - base
        lo = np.searchsorted(flat, v << bits)
        hi = np.searchsorted(flat, (v + 1) << bits)
        found = hi > lo
        # inside[t] = 1 where flat[t] lies in a block: +1 at its start, -1
        # past its end (the blocks are disjoint)
        inside = np.zeros(flat.size + 1, dtype=np.int8)
        inside[lo[found]] = 1
        inside[hi[found]] -= 1
        np.cumsum(inside, out=inside)
        inside = inside[:-1].view(bool)
        # the fewer of the hits and the misses are scattered back
        dense = 2 * np.count_nonzero(inside) > flat.size
        hits = np.full(flat.size, dense)
        hits[flat[inside != dense] & ((1 << bits) - 1)] = not dense
        hits = hits.reshape(x.size, y.size)
    return hits if zero is None else np.insert(hits, zero, False, axis=1)


def _membership_counts(targets: ElemSet, B: ElemSet, P: ElemSet,
                       op: str) -> np.ndarray:
    """count[i] = |{b in B : targets[i] ∘ b in P}|: a row sum of the
    `_in_grid` mask of targets ∘ B in P.

    b -> t∘b is a bijection, so it also counts the s in P whose preimage
    s-t, t-s, s/t or t/s (t, s != 0) lies in B: where P is the smaller set
    and the rule takes that grid, its mask is summed, t = 0 counted apart.
    """
    t, s = targets.ints, P.ints
    pre_op = "sub" if op in ("add", "sub") else "div"
    if not (len(P) < len(B) and _int_fast_ok(targets.field, pre_op, t, s)):
        return _in_grid(targets, B, op, P).sum(axis=1)
    if op in ("add", "mul"):
        out = _in_grid(P, targets, pre_op, B).sum(axis=0)
    else:
        out = _in_grid(targets, P, pre_op, B).sum(axis=1)
    if op in ("mul", "div"):
        # t = 0 maps every b to 0: count all of B (nonzero b for div)
        full = len(B) - int(op == "div" and 0 in B)
        out[t == 0] = full if 0 in P else 0
    return out


class _LogTable(NamedTuple):
    """Pohlig-Hellman data for discrete logs base g in F_p^*.

    `parts` holds one (q, e, roots, digits, steps) per prime power q^e
    exactly dividing p-1: `roots` are the q-th roots of unity gamma^j
    (gamma = g^((p-1)/q)) in sorted order, `digits` the j of each, and
    steps[i][d] = c_i^d with c_i = g_e^(-q^i), g_e = g^((p-1)/q^e), which
    strips the digit d found at place i < e-1. `powers` = (low, high) with
    low[k] = g^k and high[k] = g^(2^16 k), so that
    g^s = low[s & 0xFFFF] * high[s >> 16] for every s in [0, p-1).
    """

    p: int
    g: int
    parts: tuple
    powers: Tuple[np.ndarray, np.ndarray]


def _geometric(c: int, q: int, p: int) -> np.ndarray:
    """[c^0, c^1, ..., c^(q-1)] mod p as int64, doubling the known prefix
    at each step: out[k:2k] = out[:k] * c^k."""
    out = np.ones(q, dtype=np.int64)
    k, ck = 1, c % p
    while k < q:
        part = out[k:2 * k]
        np.multiply(out[:part.size], ck, out=part)
        _mod(part, p)
        k, ck = 2 * k, ck * ck % p
    return out


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
        roots = np.sort(powers)
        digits = np.empty(q, dtype=np.int64)  # the j of gamma^j = roots[k]
        digits[np.searchsorted(roots, powers)] = np.arange(q)
        g_e = pow(g, (p - 1) // q**e, p)
        steps = tuple(_geometric(pow(g_e, -q**i, p), q, p)
                      for i in range(e - 1))
        parts.append((q, e, roots, digits, steps))
    low = _geometric(g, min(p - 1, 1 << 16), p)
    high = _geometric(pow(g, 1 << 16, p), ((p - 2) >> 16) + 1, p)
    return _LogTable(p, g, tuple(parts), (low, high))


def _pow_g(s: np.ndarray, table: _LogTable,
           out: Optional[np.ndarray] = None) -> np.ndarray:
    """Elementwise g^s mod p for int64 s in [0, p-1), from the power
    tables, written to out (s itself will do) _CHUNK values at a time.

    The tables are checked first (low[0] = high[0] = 1, each entry g resp.
    g^(2^16) times the one before), so that a corrupted table raises
    ArithmeticError instead of giving a wrong power.
    """
    p, g = table.p, table.g
    low, high = table.powers
    if not (low[0] == high[0] == 1
            and (low[1:] == _mod(low[:-1] * g, p)).all()
            and (high[1:] == _mod(high[:-1] * pow(g, 1 << 16, p), p)).all()):
        raise ArithmeticError(f"the power tables of g = {g} mod {p} are "
                              f"corrupted")
    out = np.empty_like(s) if out is None else out
    for c in range(0, s.size, _CHUNK):
        part, dst = s[c:c + _CHUNK], out[c:c + _CHUNK]
        np.multiply(low[part & 0xFFFF], high[part >> 16], out=dst)
        _mod(dst, p)
    return out


def _cofactor_powers(x: np.ndarray, moduli: list, p: int) -> list:
    """[x^(N / Q) mod p for Q in moduli], N the product of moduli, by a
    remainder tree: each half of the moduli raises x to the product of the
    other half once, instead of one full power per modulus."""
    if len(moduli) == 1:
        return [x]
    left, right = moduli[:len(moduli) // 2], moduli[len(moduli) // 2:]
    return (_cofactor_powers(_pow_mod(x, math.prod(right), p), left, p)
            + _cofactor_powers(_pow_mod(x, math.prod(left), p), right, p))


def _discrete_logs(x: np.ndarray, table: _LogTable) -> np.ndarray:
    """Elementwise L in [0, p-1) with g^L = x mod p, checked.

    Vectorised Pohlig-Hellman in int64, exact because p < 2^31 keeps every
    product below 2^62: each base-q digit of L mod q^e is looked up among
    the q-th roots of unity, and the residues are joined by the CRT. The
    values are taken in pieces of _LOG_PIECE, split over every usable core
    when there are several. Raises
    ArithmeticError for x = 0 mod p and whenever some g^L differs from x.
    """
    p = table.p
    x = _mod(x.astype(np.int64), p)
    if not x.all():
        raise ArithmeticError(f"0 has no discrete log mod {p}")
    # pieces of _LOG_PIECE values keep each worker's temporaries small
    pieces = [x[i:i + _LOG_PIECE] for i in range(0, x.size, _LOG_PIECE)]
    with _pool(min(_threads(), len(pieces))) as run:
        logs = np.concatenate(list(run(_logs_of, pieces,
                                       [table] * len(pieces))))
    if not (_pow_g(logs, table) == x).all():
        raise ArithmeticError(f"a discrete log mod {p} fails g^L = x")
    return logs


def _logs_of(x: np.ndarray, table: _LogTable) -> np.ndarray:
    """`_discrete_logs` of nonzero residues x, unchecked."""
    p = table.p
    logs = np.zeros_like(x)
    mod = 1  # logs is known mod `mod`
    moduli = [q**e for q, e, *_ in table.parts]
    for (q, e, roots, digits, steps), qe, h in zip(
            table.parts, moduli, _cofactor_powers(x, moduli, p)):
        # h = g_e^(L mod q^e)
        part = np.zeros_like(x)
        for i in range(e):
            # h = g_e^(digits of L mod q^e at places >= i), so its q^(e-1-i)
            # power is gamma^(digit i)
            key = _pow_mod(h, q**(e - 1 - i), p) if i < e - 1 else h
            idx = np.searchsorted(roots, key)
            np.minimum(idx, roots.size - 1, out=idx)
            if not (roots[idx] == key).all():
                raise ArithmeticError(f"no {q}-th root of unity mod {p} "
                                      f"matches a log digit")
            d = digits[idx]
            part += d * q**i
            if i < e - 1:
                h = _mod(h * steps[i][d], p)
        # CRT step; (part - logs) mod q^e times an inverse stays below 2^62
        t = _mod(part - logs, qe)
        t *= pow(mod, -1, qe)
        logs += mod * _mod(t, qe)
        mod *= qe
    return logs


def _check_level(x: np.ndarray, hist: np.ndarray, lo: int, hi: float,
                 what: str) -> None:
    """Raise ArithmeticError unless the sorted values x of a transported
    level set are distinct and as many as hist holds in [lo, hi)."""
    # hi may be math.inf, which is no slice index
    want = int(hist[lo:min(hi, hist.size)].sum())
    if x.size != want or (x[1:] == x[:-1]).any():
        raise ArithmeticError(f"{what} to {x.size} values, not the {want} "
                              f"of its band")


def _finish_level(x: np.ndarray, r0: int, hist: np.ndarray, lo: int,
                  hi: float, what: str) -> _Reduced:
    """The `_Reduced` of a transported level set: its nonzero values x and
    0 if r(0) = r0 > 0 lies in [lo, hi), sorted, checked (`_check_level`)."""
    if r0 and lo <= r0 < hi:
        x = np.append(x, 0)
    x.sort()
    _check_level(x, hist, lo, hi, what)
    return _Reduced(hist, x, None)


def _div_logs(A: ElemSet, B: ElemSet, reduce: str, band):
    """The route step of a large div spectrum or level set over discrete
    logs, else None: (la, lb, M, half, band', finish).

    r_{A/B}(g^s) = r_{la-lb}(s) over Z/(p-1), la and lb the sorted logs of
    A∖{0} and B: the kernel builds their sub table mod M = p-1, half (la is
    lb) when A∖{0} has B's contents. band' hands band the kernel's
    histogram fixed and trimmed and keeps the band it returns, and finish
    fixes the kernel's `_Reduced` and maps a level set of that band back
    by s -> g^s. M is even, so in a half table the class M/2 (the pairs
    a, -a with a/(-a) = -1) is one value hit 2h times, where the kernel
    counts two values hit h times; a 0 in A adds the value 0, hit |lb|
    times (`_one_more`). A level set mapped back must hold as many
    distinct values as its band of the fixed histogram (`_finish_level`).

    `_table` asks it for the div tables `_int_fast_ok` takes, in prime mode
    and with no 0 in B. It takes the route when the table has at least
    _LOG_MIN pairs, the shorter of A∖{0} and B at least _LOG_SIDE elements
    (and one), and every prime factor of p-1 is at most _LOG_MAX_FACTOR.
    Below those sizes the logs cost more than the sub table saves.
    """
    zero = A.ints[0] == 0
    a = A.ints[1:] if zero else A.ints
    if reduce not in ("spectrum", "level") or len(A) * len(B) < _LOG_MIN \
            or min(a.size, len(B)) < max(1, _LOG_SIDE) \
            or (table := _log_table(A.field.p)) is None:
        return None
    M, m = table.p - 1, len(B)
    if np.array_equal(a, B.ints):
        la = lb = np.sort(_discrete_logs(B.ints, table))
        # h = #{L in lb : L + M/2 in lb, L < M/2}, the pairs {a, -a}
        h = int(_sorted_lookup(lb, lb[lb < M // 2] + M // 2)[1].sum())
    else:
        logs = _discrete_logs(np.concatenate((a, B.ints)), table)
        la, lb, h = np.sort(logs[:a.size]), np.sort(logs[a.size:]), 0

    def fix(hist):
        if h:
            hist = _one_more(hist, 2 * h)
            hist[h] -= 2
        return _one_more(hist, m) if zero else hist

    lo = hi = None

    def fixed_band(hist):
        nonlocal lo, hi
        lo, hi = band(_trim(fix(hist)))
        return lo, hi

    def finish(got):
        hist, s = fix(got.hist), got.values
        if reduce == "spectrum":
            return _Reduced(hist, None, None)
        if h:
            s = s[s != M // 2]
            if lo <= 2 * h < hi:
                s = np.append(s, M // 2)
        return _finish_level(_pow_g(s, table, out=s), m if zero else 0,
                             _trim(hist), lo, hi,
                             f"a level set over logs mod {table.p} maps back")

    return la, lb, M, la is lb, fixed_band, finish


_LOW = (1 << 31) - 1  # the residue bits of an orbit key


def _stabiliser(a: np.ndarray, b: np.ndarray, p: int) -> int:
    """The order m of the largest subgroup G of F_p^* with G·a = a and
    G·b = b, for sorted distinct nonzero residues a and b.

    G acts freely, so m divides d = gcd(p-1, |a|, |b|). For each prime
    power q^e of d the subgroups of order q^k, k = e, ..., 1, generated by
    h = g^((p-1)/q^k), are tried down to the first that fixes both sets
    (all of h·s, sorted, equals s); m is the product of the orders found.
    """
    m, g = 1, primitive_root(p)
    for q, e in _factorize(math.gcd(p - 1, a.size, b.size)).items():
        for k in range(e, 0, -1):
            h = pow(g, (p - 1) // q**k, p)
            if all(np.array_equal(np.sort(_mod(s * h, p)), s) for s in (a, b)):
                m *= q**k
                break
    return m


def _orbit_runs(v: np.ndarray, m: int,
                p: int) -> Tuple[np.ndarray, np.ndarray]:
    """(first, counts): the orbits of the subgroup of order m | p-1 that
    the nonzero residues in v (int64, 0s are skipped) fall in, each by its
    least member in v and the number of v in it.

    Each value is keyed by v^m mod p, which two nonzero residues share
    exactly when they lie in one coset of that subgroup, and the packed
    key << 31 | v are sorted once, so that each run of one key is an
    orbit and begins with its least value.
    """
    packed = np.empty_like(v)
    for c in range(0, v.size, _CHUNK):
        part, out = v[c:c + _CHUNK], packed[c:c + _CHUNK]
        np.left_shift(_pow_mod(part, m, p), 31, out=out)
        out |= part
    packed.sort()
    # 0 alone has the key 0
    packed = packed[np.searchsorted(packed, 1):]
    starts = np.flatnonzero(np.diff(packed >> 31, prepend=-1))
    return packed[starts] & _LOW, np.diff(starts, append=packed.size)


def _cosets(s: np.ndarray, m: int, p: int) -> np.ndarray:
    """One member of each coset of the order-m subgroup in the nonzero
    residues s; ArithmeticError unless s is a union of whole cosets.

    A key v^m is shared by gcd(m, p-1) residues, m for m | p-1, so s is a
    union of whole cosets exactly when it meets s.size / m keys; for
    m ∤ p-1 it meets more, and this raises.
    """
    first, _ = _orbit_runs(s, m, p)
    if first.size * m != s.size:
        raise ArithmeticError(f"a set is not a union of cosets of the "
                              f"subgroup of order {m} mod {p}")
    return first


def _orbits(A: ElemSet, B: ElemSet, op: str, reduce: str, band):
    """The orbit transport of a large add/sub spectrum or level set over
    F_p: its `_Reduced`, else None.

    If the subgroup G of order m > 1 fixes A∖{0} and B∖{0}
    (`_stabiliser`), then r_{A±B}(gx) = r_{A±B}(x) for g in G, because
    (a, b) -> (ga, gb) maps the pairs of x onto those of gx. Each orbit
    of pairs with a nonzero member holds m pairs, and one representative
    of each is built: a member of each coset in A∖{0} (`_cosets`) against
    all of B, and 0 against a member of each coset in B∖{0} when 0 is in
    A, about |A||B|/m pairs. Grouped by the cosets their values fall in
    (`_orbit_runs`), they give r on each coset of nonzero values: c
    representatives make m values hit c times. r(0) = |A ∩ B| for sub and
    |A ∩ (−B)| for add is looked up and enters the histogram as one more
    value (`_one_more`). A level set expands its chosen orbits by G's
    elements, and must hold exactly as many distinct values as its band
    of the histogram, or ArithmeticError is raised (`_finish_level`);
    each set's cosets are checked whole, so that a wrong m raises too.

    `_table` asks it for the add/sub spectra and level sets in prime mode
    of at least _ORBIT_MIN pairs. It declines (None) when A∖{0} or B∖{0}
    is empty, when m = 1, and when the representatives number more than
    _BUCKET, so that no array of the route holds more values than a
    value bucket.
    """
    p, a, b = A.field.p, A.ints, B.ints
    if reduce not in ("spectrum", "level") or a.size * b.size < _ORBIT_MIN:
        return None
    # the sorted residues hold 0 first, if at all
    zero = bool(a[0] == 0)
    a0, b0 = a[zero:], b[int(b[0] == 0):]
    if not (a0.size and b0.size):
        return None
    m = _stabiliser(a0, b0, p)
    if m == 1 or a0.size // m * b.size + (b0.size // m if zero else 0) \
            > _BUCKET:
        return None
    ra, rb = _cosets(a0, m, p), _cosets(b0, m, p)
    v = _grid(ra, b, op, p).ravel()
    if zero:
        # 0 + b = b, 0 - b = -b
        v = np.concatenate((v, rb if op == "add" else p - rb))
    first, counts = _orbit_runs(v, m, p)
    small, big = sorted((a, b), key=len)
    r0 = int(_sorted_lookup(big, small if op == "sub"
                            else _mod(-small, p))[1].sum())
    hist = np.bincount(counts, minlength=2) * m
    hist = _one_more(hist, r0) if r0 else hist
    if reduce == "spectrum":
        return _Reduced(hist, None, None)
    hist = _trim(hist)
    lo, hi = band(hist)
    chosen = first[(lo <= counts) & (counts < hi)]
    G = _geometric(pow(primitive_root(p), (p - 1) // m, p), m, p)
    return _finish_level(
        _mod(chosen[:, None] * G, p).ravel(), r0, hist, lo, hi,
        f"a level set over orbits of order {m} mod {p} expands")


def _object_table(A: ElemSet, B: ElemSet, op: str) -> Counter:
    fop = getattr(A.field, op)
    table = Counter()
    for x in A:
        for y in B:
            table[fop(x, y)] += 1
    return table


def _counter_spectrum(table: Counter) -> np.ndarray:
    """hist[m] = #{x : table[x] = m} of an exact object table."""
    return np.bincount(np.fromiter(table.values(), np.int64, len(table)),
                       minlength=1)


def _check_budget(n: int, m: int, budget: Optional[int]) -> None:
    """Refuse an n x m pair table above budget (None: `table_budget()`)."""
    budget = budget if budget is not None else table_budget()
    if n * m > budget:
        raise BudgetExceeded(f"{n}x{m} pairs exceed budget {budget}")


def _check_mass(hist: np.ndarray, pairs: int, reduce: str) -> None:
    """Raise ArithmeticError unless the histogram holds the table's pairs."""
    mass = _exact_dot(np.arange(hist.size), hist)
    if mass != pairs:
        raise ArithmeticError(f"{reduce} mass {mass} != {pairs} pairs")


_MEMO: contextvars.ContextVar = contextvars.ContextVar("table_memo",
                                                       default=None)
_MEMO_PAIRS = 1 << 18  # pairs; a larger table is built on every call


@contextlib.contextmanager
def table_memo() -> Iterator[dict]:
    """A cell-scoped memo: within the block, `_table` builds each table of
    at most _MEMO_PAIRS pairs once.

    The memo maps (field, op, content digests of A and B after `_operands`)
    to that table's rep table, read-only, and every reduction of the table
    is served from it (see `_memo_route`). It lives in a context variable
    while the block runs and is cleared when it ends, so that nothing is
    served outside the block or kept after it. Yields the memo.
    """
    memo = {}
    token = _MEMO.set(memo)
    try:
        yield memo
    finally:
        _MEMO.reset(token)
        memo.clear()


def _digest(S: ElemSet) -> bytes:
    """A 128-bit digest of S's contents (int or exact elements)."""
    if S.ints is not None:
        return hashlib.blake2b(S.ints.tobytes(), digest_size=16,
                               person=b"int64").digest()
    return hashlib.blake2b(repr(S.elements()).encode(), digest_size=16,
                           person=b"exact").digest()


def _level(rep: _Reduced, band) -> _Reduced:
    """The level set of a rep table: its values x with lo <= r(x) < hi,
    [lo, hi) = band(hist), beside a copy of its histogram."""
    lo, hi = band(rep.hist)
    counts = np.asarray(rep.counts, dtype=np.int64)
    keep = (lo <= counts) & (counts < hi)
    values = rep.values[keep] if isinstance(rep.values, np.ndarray) \
        else tuple(x for x, k in zip(rep.values, keep) if k)
    return _Reduced(rep.hist.copy(), values, None)


def _memo_route(memo: dict, A: ElemSet, B: ElemSet, op: str, reduce: str,
                band, build):
    """build(reduce, band), `_table`'s route, or its result served from the
    memo.

    A table of at most _MEMO_PAIRS pairs is built once, as its rep table,
    which is kept read-only. A spectrum is served as a copy of its
    histogram, a support or rep table as the rep table itself, and a level
    set by one band call and a count filter (`_level`), as fresh arrays. A
    larger table is built on every call, and nothing of it is kept.
    """
    if len(A) * len(B) > _MEMO_PAIRS:
        return build(reduce, band)
    key = (A.field, op, _digest(A), _digest(B))
    if key not in memo:
        memo[key] = build("rep", None)
        for x in memo[key]:
            if isinstance(x, np.ndarray):
                x.flags.writeable = False
    kept = memo[key]
    if reduce == "spectrum":
        return _Reduced(kept.hist.copy(), None, None)
    return _level(kept, band) if reduce == "level" else kept


def _table(A: ElemSet, B: ElemSet, op: str, reduce: str, band=None,
           budget: Optional[int] = None):
    """The table of a ∘ b over A x B, reduced: every pair table is built here.

    Takes A and B through `_operands` (a 0 it drops from B for div has its
    |A| pairs recorded as excluded) and refuses a table above the budget.
    Inside a `table_memo` block, a table of at most _MEMO_PAIRS pairs is
    built once there and served from the memo (`_memo_route`). Otherwise
    inputs `_int_fast_ok` accepts go to the int kernel `_sorted_table`, in
    one call, all others to the exact object table. One route step first
    rewrites the request for the kernel: when B has A's contents, sub
    tables and add/mul supports take the unordered pairs only; a div table
    multiplies by the inverses of B, or, if large and reduced to a spectrum
    or level set, is a sub table of discrete logs mod p-1 whose result
    `_div_logs` turns back into r_{A/B}'s. The other transport serves a
    large add/sub spectrum or level set in F_p whose sets a subgroup of
    F_p^* fixes from its orbit representatives (`_orbits`), and the
    kernel is not called. Every route, the memo and the object table give
    a `_Reduced` of the table's histogram and the values (and counts) asked
    for, none for a spectrum; its histogram must hold the table's pairs:
    |A||B∖{0}|, or n(n+1)/2 for the i <= j half of a self add/mul support
    (else ArithmeticError). Returns, by `reduce`:
      "support"   the ElemSet {a ∘ b};
      "rep"       the RepFn r_{A∘B};
      "spectrum"  hist[m] = #{x : r(x) = m};
      "level"     (hist, S): hist trimmed to the largest multiplicity (an
                  empty table's is [0]) and S = {x : lo <= r(x) < hi}, with
                  [lo, hi) = band(hist).
    """
    B, zero = _operands(op, A, B)
    field, n, m = A.field, len(A), len(B)
    _check_budget(n, m, budget)

    def build(reduce, band):
        pairs = n * m
        if n and m and _int_fast_ok(field, op, A.ints, B.ints):
            # the route step: the orbit transport serves the request, or it
            # is rewritten for the kernel
            a, b, kop, mod = A.ints, B.ints, op, field.p
            half = (op == "sub" or reduce == "support"
                    and op in ("add", "mul")) \
                and (A is B or np.array_equal(a, b))
            if half and op != "sub":
                pairs = n * (n + 1) // 2
            got = _orbits(A, B, op, reduce, band) \
                if op in ("add", "sub") and field.is_prime_mode else None
            logs = _div_logs(A, B, reduce, band) if op == "div" else None
            if logs is not None:
                a, b, mod, half, band, finish = logs
                kop = "sub"
            elif op == "div":
                b, kop = _inverses(b, mod), "mul"
            if got is None:
                got = _sorted_table(a, b, kop, mod, half, reduce, band)
                got = got if logs is None else finish(got)
        else:
            table = _object_table(A, B, op)
            got = _Reduced(_counter_spectrum(table), None, None)
            if reduce != "spectrum":
                vals = tuple(sorted(table))
                got = _Reduced(got.hist, vals, tuple(table[x] for x in vals))
                if reduce == "level":
                    got = _level(got, band)
        _check_mass(got.hist, pairs, reduce)
        return got

    memo = _MEMO.get()
    got = build(reduce, band) if memo is None \
        else _memo_route(memo, A, B, op, reduce, band, build)
    if reduce == "spectrum":
        return got.hist
    if reduce == "rep":
        return RepFn(field, op, got.values, got.counts,
                     0 if zero is None else n, got.hist)
    S = _elemset(field, got.values)
    return S if reduce == "support" else (got.hist, S)


def _collision_spectrum(X: ElemSet, Y: ElemSet, Z: ElemSet) -> np.ndarray:
    """The mass-checked spectrum of x(y + z) over X x Y x Z (nonempty, one
    field): by the int kernel on X x (Y+Z), Y+Z the multiset of the |Y||Z|
    sums, where `_int_fast_ok` takes add on (Y, Z) and mul on (X, sums);
    else by one exact Counter over the triples."""
    field, hist = X.field, None
    if _int_fast_ok(field, "add", Y.ints, Z.ints):
        sums = _grid(Y.ints, Z.ints, "add", field.p).ravel()
        if _int_fast_ok(field, "mul", X.ints, sums):
            hist = _sorted_table(X.ints, sums, "mul", field.p, False,
                                 "spectrum").hist
    if hist is None:
        hist = _counter_spectrum(Counter(
            field.mul(x, field.add(y, z)) for x in X for y in Y for z in Z))
    _check_mass(hist, len(X) * len(Y) * len(Z), "spectrum")
    return hist


def rep_function(A: ElemSet, B: ElemSet, op: str,
                 budget: Optional[int] = None) -> RepFn:
    """Exact representation function r_{A∘B}.

    Div mode excludes zero-denominator pairs and records how many were dropped.
    """
    return _table(A, B, op, "rep", budget=budget)


def count_spectrum(A: ElemSet, B: ElemSet, op: str,
                   budget: Optional[int] = None) -> np.ndarray:
    """Multiplicity histogram of r_{A∘B}: hist[m] = #values hit exactly m times.

    No value is written out: a large add/sub table is sorted one value
    bucket of at most _BUCKET pairs at a time, so energies of 10^4-element
    sets take a few bucket-sized buffers. Large div spectra are taken over
    discrete logs (see `_div_logs`): r_{A/B} is r_{L_A - L_B} over
    Z/(p-1), which is bucketed too. A large add/sub spectrum of sets that
    a subgroup G of F_p^* fixes is counted over orbit representatives,
    about |A||B|/|G| pairs (see `_orbits`).
    """
    return _table(A, B, op, "spectrum", budget=budget)
