"""k-th moment energies E_k / E_k^x and dyadic pigeonhole extraction."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .field import ElemSet
from .repfn import RepFn, _table, count_spectrum, rep_function
from .report import VerificationReport
from .setalgebra import combine

ENERGY_OPS = ("add", "mul")

# the difference (ratio) table op of add (mul): additive energy sums
# r_{A-B}^k, multiplicative r_{A/B}^k, and r_{S+B}(c) counts the b with c - b
# in S (c/b in S for mul)
_TABLE_OP = {"add": "sub", "mul": "div"}


@dataclass
class Moment:
    """Value of E_k(A,B); exact int for integer k, float otherwise."""

    k: float
    op: str
    value: Union[int, float]
    exact: bool
    rel_error_bound: float
    support_size: int

    def __float__(self):
        return float(self.value)


def _spectrum_moment(hist: np.ndarray, k: float) -> Moment:
    support = int(hist[1:].sum()) if hist.size > 1 else 0
    if float(k).is_integer():
        kk = int(k)
        value = sum(int(h) * m**kk for m, h in enumerate(hist.tolist()) if h and m)
        return Moment(k, "", value, True, 0.0, support)
    terms = [int(h) * m**k for m, h in sorted(
        ((m, h) for m, h in enumerate(hist.tolist()) if h and m), reverse=True)]
    value = math.fsum(terms)
    # fsum is correctly rounded; the only error is in the m**k evaluations
    rel = len(terms) * 2 * np.finfo(float).eps
    return Moment(k, "", value, False, rel, support)


def _energy_args(A: ElemSet, B: Optional[ElemSet], k: float,
                 op: str) -> ElemSet:
    """Refuse what E_k(A, B) is not defined for; returns B (A if None)."""
    if op not in ENERGY_OPS:
        raise ValueError(f"energy op must be add or mul, got {op!r}")
    if not (math.isfinite(k) and k > 0):
        raise ValueError(f"energy exponent must be a positive finite "
                         f"number, got {k}")
    if B is None:
        B = A
    if len(A) == 0 or len(B) == 0:
        raise ValueError("energy of an empty set")
    return B


def energy(A: ElemSet, B: Optional[ElemSet] = None, k: float = 2.0,
           op: str = "add", budget: Optional[int] = None) -> Moment:
    """E_k(A,B) = sum_x r_{A-B}(x)^k (additive) or over r_{A/B} (multiplicative).

    Exact for integer k; fractional k accumulates doubles in descending-count
    order so results are bit-reproducible.
    """
    B = _energy_args(A, B, k, op)
    hist = count_spectrum(A, B, _TABLE_OP[op], budget=budget)
    m = _spectrum_moment(hist, k)
    m.op = op
    return m


def energy_rep(A: ElemSet, B: Optional[ElemSet] = None, op: str = "add",
               budget: Optional[int] = None) -> RepFn:
    """The representation function whose k-th moments are E_k(A,B)."""
    if B is None:
        B = A
    return rep_function(A, B, _TABLE_OP[op], budget=budget)


@dataclass
class DyadicSlice:
    """Level set extracted by dyadic pigeonholing, with its certificate.

    Every d in `support` has multiplicity in [t, 2t); the certificate is
    (ceil(log2 M) + 1) * |support| * t^k >= E_k with M the max multiplicity.
    """

    support: ElemSet
    t: int
    bucket_index: int
    k: float
    score: float
    energy_value: Union[int, float]
    max_multiplicity: int
    num_buckets: int
    certificate_ok: bool


def _dyadic_level(hist: np.ndarray, k: float) -> Tuple[int, object]:
    """(t, score): the level t maximizing |{d : r(d) in [t,2t)}| * t^k over
    the histogram hist[m] = #{d : r(d) = m}.

    Candidate levels are every multiplicity that occurs plus every power of
    two up to the max multiplicity; ties break toward larger t. This keeps the
    pigeonhole certificate exact (power-of-two levels alone do not).
    """
    if not hist[1:].any():
        raise ValueError("dyadic extraction from an empty representation "
                         "function")
    M = hist.size - 1
    cum = np.cumsum(hist)  # cum[m] = #values with multiplicity <= m

    def band_size(t: int) -> int:
        hi = min(2 * t - 1, M)
        return int(cum[hi] - cum[t - 1])

    candidates = set(int(m) for m in np.flatnonzero(hist) if m >= 1)
    i = 1
    while i <= M:
        candidates.add(i)
        i *= 2

    exact = float(k).is_integer()
    kk = int(k) if exact else k
    best_t, best_score = None, None
    for t in sorted(candidates):
        sz = band_size(t)
        if sz == 0:
            continue
        score = sz * t**kk if exact else sz * t**k
        if best_score is None or score > best_score or \
                (score == best_score and t > best_t):
            best_t, best_score = t, score
    return best_t, best_score


def _certified(support: ElemSet, hist: np.ndarray, t: int, score,
               k: float) -> DyadicSlice:
    """The slice at level t of a table with histogram hist (no trailing
    zeros, so that its last index is the max multiplicity)."""
    M = hist.size - 1
    e_val = _spectrum_moment(hist, k).value
    num_buckets = (M - 1).bit_length() + 1 if M >= 1 else 1  # ceil(log2 M)+1
    cert = num_buckets * score >= e_val
    return DyadicSlice(
        support=support, t=t, bucket_index=t.bit_length() - 1, k=k,
        score=float(score), energy_value=e_val, max_multiplicity=M,
        num_buckets=num_buckets, certificate_ok=bool(cert))


def dyadic_extract(r: RepFn, k: float) -> DyadicSlice:
    """Pick the level t maximizing |{d : r(d) in [t,2t)}| * t^k (see
    `_dyadic_level`) and extract {d : r(d) in [t,2t)} from r."""
    hist = r.count_histogram()
    t, score = _dyadic_level(hist, k)
    counts = np.asarray(r.counts, dtype=np.int64)
    mask = (counts >= t) & (counts < 2 * t)
    if isinstance(r.values, np.ndarray):
        support = ElemSet._from_sorted_array(
            r.field, r.values[mask].astype(np.int64, copy=False))
    else:
        support = ElemSet(
            r.field, [v for v, keep in zip(r.values, mask.tolist()) if keep],
            _canonical=True)
    return _certified(support, hist, t, score, k)


def dyadic_slice(A: ElemSet, B: Optional[ElemSet] = None, k: float = 2.0,
                 op: str = "add", budget: Optional[int] = None) -> DyadicSlice:
    """dyadic_extract(energy_rep(A, B, op), k), from one table build that
    writes out only the extracted level set."""
    return _dyadic_slice(A, B, k, op, budget)


def _dyadic_slice(A: ElemSet, B: Optional[ElemSet], k: float, op: str,
                  budget: Optional[int], chosen=None) -> DyadicSlice:
    """`dyadic_slice`; chosen(t, size), when given, is told the chosen level
    t and the size of its level set before the set is written out, and may
    refuse the slice by raising: then nothing of the set is written."""
    B = _energy_args(A, B, k, op)
    level = None

    def band(hist: np.ndarray) -> Tuple[int, int]:
        nonlocal level
        level = _dyadic_level(hist, k)
        t = level[0]
        if chosen is not None:
            chosen(t, int(hist[t:2 * t].sum()))
        return t, 2 * t

    hist, support = _table(A, B, _TABLE_OP[op], "level", band, budget)
    return _certified(support, hist, *level, k)


def cauchy_schwarz_check(A: ElemSet, op: str = "add",
                         budget: Optional[int] = None) -> VerificationReport:
    """|A|^4 <= E(A)|A+A| (additive) resp. |A|^4 <= E^x(A)|AA|; exact sides."""
    t0 = time.perf_counter()
    if op not in ENERGY_OPS:
        raise ValueError(f"op must be add or mul, got {op!r}")
    if op == "mul":
        A = A.remove_zero()
    if len(A) == 0:
        raise ValueError("empty set after zero removal")
    e = energy(A, A, 2, op, budget=budget)
    span = combine(A, A, op, budget=budget)
    lhs = len(A) ** 4
    rhs = int(e.value) * len(span)
    return VerificationReport(
        lemma=f"cauchy-schwarz-{op}",
        inputs={"n": len(A), "field": A.field.describe()},
        lhs=float(lhs), rhs_shape=float(rhs),
        fitted_constant=lhs / rhs if rhs else float("inf"),
        slack=1.0, passed=lhs <= rhs,
        notes=f"E={int(e.value)} |span|={len(span)}",
        elapsed_ms=(time.perf_counter() - t0) * 1e3)
