"""Representation functions r_{A∘B} with exact multiplicities.

The hot path (prime mode / int-valued sets) streams A x B in row blocks into
one flat array, sorts it and run-length encodes; large tables are filled and
sorted on every usable core. This is what makes fourth-moment energies of
10^4-element sets take seconds. Rational or oversized values fall back to an
exact Counter.
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
_LOG_MIN = _PARALLEL_MIN  # pairs; smaller self div spectra keep the inverses
_LOG_MAX_FACTOR = 1 << 16  # largest prime factor of p-1 the log tables allow


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
                self.field, self.values.astype(np.int64))
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
    |A||B| values; div multiplies by the checked inverses of B.
    """
    a, b = A.ints, B.ints
    half = (op == "sub" or support and op in ("add", "mul")) and \
        (A is B or np.array_equal(a, b))
    if op == "div":
        b = _inverses(b, A.field.p)
        op = "mul"
    return _sorted_table(a, b, op, A.field.p, half), half


def _sorted_table(a: np.ndarray, b: np.ndarray, op: str, p: Optional[int],
                  half: bool) -> np.ndarray:
    """Sorted flat array of a_i op b_j for op in add, sub, mul.

    Values are reduced mod p, which need not be prime (the discrete-log
    path passes p - 1); None means char0. half (b equal to a, both sorted
    and distinct) keeps only the pairs i < j for sub, stored as the class
    min(d, p - d) of d = a_j - a_i (char0: d itself), and i <= j for
    add/mul. A modulus up to 2^31 - 1 keeps the values in int32: add/sub use
    a shifted subtraction plus one conditional correction instead of a
    modulo.

    Tables of at least _PARALLEL_MIN pairs are filled and sorted on every
    usable core: the rows split into one range of about equal output per
    thread, each written to its own slice of flat, and the sort partitions
    flat at the range cuts and sorts the slices in place. The result is the
    same array as on one thread.
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
        return out
    cuts = [size * k // threads for k in range(1, threads)]
    bounds = [0, *np.searchsorted(offsets, cuts).tolist(), n]
    with ThreadPoolExecutor(threads) as pool:
        list(pool.map(fill, bounds[:-1], bounds[1:]))
        # every value left of a cut is <= every value right of it, so
        # sorting the slices sorts flat
        out.partition(cuts)
        list(pool.map(np.ndarray.sort, np.split(out, cuts)))
    return out


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

    B holds no 0 (see `_prepare`). The log path runs in prime mode when
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
    comfortably in memory. Large self div spectra are taken over discrete
    logs (see `_self_div_logs`): r_{A/A} is r_{L-L} over Z/(p-1).
    """
    B2, _ = _prepare(A, B, op, budget)
    if len(A) == 0 or len(B2) == 0:
        return np.zeros(1, dtype=np.int64)
    if not _int_fast_ok(A.field, op, A.ints, B2.ints):
        table = _object_table(A, B2, op)
        return np.bincount(np.asarray(list(table.values()), dtype=np.int64))
    logs = _self_div_logs(A, B2) if op == "div" else None
    self_neg = 0  # g(M/2) on the log path
    if logs is None:
        flat, half = _flat_sorted_int(A, B2, op)
    else:
        M = A.field.p - 1
        flat, half = _sorted_table(logs, logs, "sub", M, True), True
        # M is even, so the class M/2 (a/b = -1) is its own negative; it is
        # the largest class and ends the sorted table
        half_class = flat.dtype.type(M // 2)  # a search casts to its dtype
        self_neg = flat.size - int(np.searchsorted(flat, half_class))
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
        # a class count g(c) is the multiplicity of both c and -c, except
        # for M/2, one value hit 2g(M/2) times; 0 is hit |B2| times
        n = len(B2)
        if self_neg:
            hist[self_neg] -= 1
        hist = np.pad(2 * hist, (0, max(0, n + 1 - hist.size)))
        hist[n] += 1
        if self_neg:
            hist[2 * self_neg] += 1  # 2g(M/2) <= n: the pairs {a, -a}
    if logs is not None and len(A) > len(B2):
        hist[len(B2)] += 1  # 0 in A: the value 0 = 0/b for every b in B2
    mass = _exact_dot(np.arange(hist.size), hist)
    if mass != len(A) * len(B2):
        raise ArithmeticError(f"spectrum mass {mass} != {len(A)}x{len(B2)} "
                              f"pairs")
    return hist
