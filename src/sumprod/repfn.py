"""Representation functions r_{A∘B} with exact multiplicities.

The hot path (prime mode / int-valued sets) streams A x B in row blocks into
one flat array, sorts it and run-length encodes; large tables are filled and
sorted on every usable core. This is what makes fourth-moment energies of
10^4-element sets take seconds. Rational or oversized values fall back to an
exact Counter.
"""

from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional, Tuple

import numpy as np

from .field import ElemSet, FieldMismatch, GroundField

OPS = ("add", "sub", "mul", "div")

DEFAULT_BUDGET = 100_000_000  # pair insertions
_BLOCK = 1 << 17  # pairs per row block, so that a block stays in cache
_PARALLEL_MIN = 1 << 21  # pairs; smaller tables fill and sort on one thread


class BudgetExceeded(RuntimeError):
    """A counting table would exceed the configured insertion budget."""


def table_budget() -> int:
    env = os.environ.get("SUMPROD_BUDGET")
    return int(env) if env else DEFAULT_BUDGET


class RepFn:
    """Counting table x -> |{(a,b): a ∘ b = x}|, stored as sorted parallel arrays.

    `values` is either a sorted int64 numpy array or a sorted tuple of exact
    elements; `counts` aligns with it. `excluded_pairs` records zero-denominator
    pairs dropped in div mode.
    """

    __slots__ = ("field", "op", "values", "counts", "excluded_pairs",
                 "lhs_size", "rhs_size")

    def __init__(self, field: GroundField, op: str, values, counts,
                 excluded_pairs: int, lhs_size: int, rhs_size: int):
        self.field = field
        self.op = op
        self.values = values
        self.counts = counts
        self.excluded_pairs = excluded_pairs
        self.lhs_size = lhs_size
        self.rhs_size = rhs_size

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
                self.field, self.values.astype(np.int64))
        return ElemSet(self.field, self.values, _canonical=True)

    def to_dict(self) -> dict:
        return dict(self.items())

    def count_histogram(self) -> np.ndarray:
        """hist[m] = number of values with multiplicity exactly m."""
        if len(self.values) == 0:
            return np.zeros(1, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        return np.bincount(counts)


def _check_ops(A: ElemSet, B: ElemSet, op: str) -> None:
    if op not in OPS:
        raise ValueError(f"unknown operator {op!r}")
    if A.field != B.field:
        raise FieldMismatch(f"field mismatch: {A.field} vs {B.field}")


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


def _inverses(b: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverses mod p, checked.

    Square-and-multiply over the exponent p-2 stays exact in int64 because
    p < 2^31 keeps every product below 2^62. Raises ArithmeticError unless
    b * b^-1 == 1 (mod p) for every element, which also refuses 0.
    """
    if p >= 1 << 31:
        raise ValueError(f"int64 inverses need p < 2^31, got {p}")
    x = np.remainder(b, p, dtype=np.int64)
    base = x.copy()
    inv = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            np.multiply(inv, base, out=inv)
            np.remainder(inv, p, out=inv)
        np.multiply(base, base, out=base)
        np.remainder(base, p, out=base)
        e >>= 1
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


def _flat_sorted_int(A: ElemSet, B: ElemSet, op: str,
                     support: bool = False) -> Tuple[np.ndarray, bool]:
    """Sorted flat array of op-values over A x B (int fast path only).

    Returns (flat, half). When B has A's contents, the answer follows from
    the unordered pairs, and half is True:
      sub   flat holds the class min(d, p-d) of d = a_j - a_i for i < j
            (char0: d > 0); the diagonal is the known r(0) = |A|. Undo with
            `_mirror_classes`.
      add/mul, support=True: flat holds a_i op a_j for i <= j, which has the
            same support as the full table.
    Otherwise (div, or add/mul tables of multiplicities) flat holds all
    |A||B| values. Prime mode stays in int32 where p allows: add/sub use a
    shifted subtraction plus one conditional correction instead of a modulo.

    Tables of at least _PARALLEL_MIN pairs are filled and sorted on every
    usable core: the rows split into one range of about equal output per
    thread, each written to its own slice of flat, and the sort partitions
    flat at the range cuts and sorts the slices in place. The result is the
    same array as on one thread.
    """
    field = A.field
    a = A.ints
    p = field.p
    half = (op == "sub" or support and op in ("add", "mul")) and \
        (A is B or np.array_equal(a, B.ints))
    b = B.ints
    if op == "div":
        b = _inverses(b, p)
        op = "mul"
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
        out.sort()  # SIMD introsort; much faster than radix here
        return out, half
    cuts = [size * k // threads for k in range(1, threads)]
    bounds = [0, *np.searchsorted(offsets, cuts).tolist(), n]
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))
        # every value left of a cut is <= every value right of it, so
        # sorting the slices sorts flat
        out.partition(cuts)
        list(pool.map(np.ndarray.sort, np.split(out, cuts)))
    return out, half


def _mirror_classes(vals: np.ndarray, counts: Optional[np.ndarray], n: int,
                    p: Optional[int]):
    """Sorted values and counts of r_{A-A} from a half-square sub table.

    `vals` are the sorted classes c, `counts` their class counts g(c) (or
    None when only the values are wanted). r(0) = |A| = n and
    r(c) = r(-c) = g(c), where -c is p-c in F_p.
    """
    k = vals.size
    if p is None:  # -c < 0 < c
        zero, fwd, rev = k, slice(k + 1, None), slice(0, k)
    else:          # 0 < c < p-c
        zero, fwd, rev = 0, slice(1, k + 1), slice(k + 1, None)
    out = np.empty(2 * k + 1, dtype=np.int64)
    out[zero] = 0
    out[fwd] = vals
    if p is None:
        np.negative(vals[::-1], out=out[rev])
    else:
        np.subtract(p, vals[::-1], out=out[rev])
    if counts is not None:
        mult = np.empty(2 * k + 1, dtype=np.int64)
        mult[zero] = n
        mult[fwd] = counts
        mult[rev] = counts[::-1]
        counts = mult
    return out, counts


def _rle(flat: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    if flat.size == 0:
        return flat.astype(np.int64), np.zeros(0, dtype=np.int64)
    keep = np.empty(flat.size, dtype=bool)
    keep[:1] = True
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    starts = np.flatnonzero(keep)
    del keep
    vals = flat[starts].astype(np.int64, copy=False)
    # counts overwrite starts in place: a table-sized diff buffer would set
    # the peak memory of large tables
    counts = starts
    np.subtract(counts[1:], counts[:-1], out=counts[:-1])
    counts[-1] = flat.size - counts[-1]
    return vals, counts


def _sorted_lookup(arr: np.ndarray,
                   vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(idx, hit) with hit = vals in the sorted array arr, elementwise.

    Where hit is True, arr[idx] equals the value; elsewhere idx is only a
    valid index (or 0 when arr is empty).
    """
    if arr.size == 0:
        return (np.zeros(vals.shape, dtype=np.intp),
                np.zeros(vals.shape, dtype=bool))
    idx = np.searchsorted(arr, vals)
    np.clip(idx, 0, arr.size - 1, out=idx)
    return idx, arr[idx] == vals


def _object_table(A: ElemSet, B: ElemSet, op: str) -> Counter:
    fop = getattr(A.field, op)
    table = Counter()
    for x in A:
        for y in B:
            table[fop(x, y)] += 1
    return table


def _prepare(A: ElemSet, B: ElemSet, op: str, budget: Optional[int]):
    _check_ops(A, B, op)
    budget = budget if budget is not None else table_budget()
    excluded = 0
    if op == "div" and 0 in B:
        excluded = len(A)
        B = B.remove_zero()
    if len(A) * len(B) > budget:
        raise BudgetExceeded(f"{len(A)}x{len(B)} pairs exceed budget {budget}")
    return B, excluded


def rep_function(A: ElemSet, B: ElemSet, op: str,
                 budget: Optional[int] = None) -> RepFn:
    """Exact representation function r_{A∘B}.

    Div mode excludes zero-denominator pairs and records how many were dropped.
    """
    field = A.field
    B2, excluded = _prepare(A, B, op, budget)
    rhs = len(B2) + (1 if excluded else 0)

    if len(A) == 0 or len(B2) == 0:
        return RepFn(field, op, np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.int64), excluded, len(A), rhs)

    if _int_fast_ok(A.field, op, A.ints, B2.ints):
        flat, half = _flat_sorted_int(A, B2, op)
        vals, counts = _rle(flat)
        del flat
        if half:
            vals, counts = _mirror_classes(vals, counts, len(A), field.p)
        return RepFn(field, op, vals, counts, excluded, len(A), rhs)

    table = _object_table(A, B2, op)
    vals = sorted(table)
    return RepFn(field, op, tuple(vals), [table[v] for v in vals],
                 excluded, len(A), rhs)


def count_spectrum(A: ElemSet, B: ElemSet, op: str,
                   budget: Optional[int] = None) -> np.ndarray:
    """Multiplicity histogram of r_{A∘B}: hist[m] = #values hit exactly m times.

    Avoids materialising the value keys, so energies of 10^4-element sets fit
    comfortably in memory.
    """
    B2, _ = _prepare(A, B, op, budget)
    if len(A) == 0 or len(B2) == 0:
        return np.zeros(1, dtype=np.int64)
    if _int_fast_ok(A.field, op, A.ints, B2.ints):
        flat, half = _flat_sorted_int(A, B2, op)
        total = flat.size
        eq = flat[1:] == flat[:-1]
        del flat
        # positions of equal adjacent pairs; sparse for generic sets, so the
        # run-length histogram is built from this small index set
        eq_idx = np.flatnonzero(eq)
        del eq
        if eq_idx.size == 0:
            hist = np.asarray([0, total], dtype=np.int64)
        else:
            brk = np.flatnonzero(np.diff(eq_idx) != 1)
            run_len = np.diff(np.concatenate(
                (np.asarray([-1], dtype=np.int64), brk,
                 np.asarray([eq_idx.size - 1], dtype=np.int64))))
            mult = run_len + 1  # a run of r equal-adjacencies means r+1 copies
            distinct = total - int(eq_idx.size)
            hist = np.bincount(mult)
            hist[1] = distinct - int(mult.size)
        if half:
            # a class count g(c) is the multiplicity of both c and -c, and 0
            # is hit |A| times
            n = len(A)
            hist = np.pad(2 * hist, (0, max(0, n + 1 - hist.size)))
            hist[n] += 1
        return hist
    table = _object_table(A, B2, op)
    return np.bincount(np.asarray(list(table.values()), dtype=np.int64))
