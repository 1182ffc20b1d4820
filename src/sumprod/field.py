"""Ground fields (prime F_p or characteristic zero) and exact element sets.

Elements are plain Python ints in prime mode (canonical representative in
[0, p)) and exact ints/Fractions in char-zero mode, so every downstream count
is exact. Sets are stored sorted and duplicate-free; int-valued sets carry a
numpy int64 view for the fast counting kernels.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Optional, Tuple, Union

import numpy as np

Element = Union[int, Fraction]


class FieldMismatch(ValueError):
    """Two sets over different ground fields were combined."""


class ParseError(ValueError):
    """A set file or element token failed to parse."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict:
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.cache
def primitive_root(p: int) -> int:
    """Smallest generator of F_p^*, found once per p: the log table, the
    orbit route and `families.subgroup_of_order` share the cache."""
    factors = _factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise ValueError(f"no primitive root found for {p}")  # unreachable for prime p


@dataclass(frozen=True)
class GroundField:
    """Either F_p for an odd prime p, or the exact rationals ("char0")."""

    mode: str  # "prime" | "char0"
    p: Optional[int] = None

    def __post_init__(self):
        if self.mode == "prime":
            if self.p is None or self.p < 3 or not is_prime(self.p):
                raise ValueError(f"prime mode needs an odd prime p >= 3, got {self.p}")
        elif self.mode == "char0":
            if self.p is not None:
                raise ValueError("char0 mode takes no modulus")
        else:
            raise ValueError(f"unknown field mode {self.mode!r}")

    @staticmethod
    def prime(p: int) -> "GroundField":
        return GroundField("prime", p)

    @staticmethod
    def char0() -> "GroundField":
        return GroundField("char0")

    @property
    def is_prime_mode(self) -> bool:
        return self.mode == "prime"

    def canonical(self, x) -> Element:
        """Reduce x to the unique canonical representative."""
        if self.mode == "prime":
            if isinstance(x, Fraction):
                den = x.denominator % self.p
                if den == 0:
                    raise ZeroDivisionError("denominator divisible by p")
                return x.numerator * pow(den, self.p - 2, self.p) % self.p
            return int(x) % self.p
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def add(self, a, b):
        return (a + b) % self.p if self.mode == "prime" else self.canonical(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.mode == "prime" else self.canonical(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.mode == "prime" else self.canonical(a * b)

    def div(self, a, b):
        if self.mode == "prime":
            if b % self.p == 0:
                raise ZeroDivisionError("division by zero in F_p")
            return a * pow(b, self.p - 2, self.p) % self.p
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return self.canonical(Fraction(a) / Fraction(b))

    def describe(self) -> str:
        return f"prime:{self.p}" if self.mode == "prime" else "char0"

    @staticmethod
    def from_string(text: str) -> "GroundField":
        text = text.strip()
        if text == "char0":
            return GroundField.char0()
        if text.startswith("prime:"):
            return GroundField.prime(int(text.split(":", 1)[1]))
        raise ParseError(f"cannot parse field spec {text!r}")


_INT64_MAX = 2**62  # so a+b fits int64; `_int_fast_ok` bounds a*b's operands


class ElemSet:
    """Sorted, duplicate-free set of field elements.

    Int-valued sets keep a numpy int64 array; sets containing Fractions fall
    back to a plain tuple. Instances are immutable.
    """

    __slots__ = ("field", "_arr", "_objs", "_memb")

    def __init__(self, field: GroundField, values: Iterable, _canonical: bool = False):
        self.field = field
        if _canonical:
            vals = list(values)
        else:
            vals = sorted(set(field.canonical(v) for v in values))
        if all(isinstance(v, int) for v in vals) and all(
            -_INT64_MAX < v < _INT64_MAX for v in vals
        ):
            self._arr = np.asarray(vals, dtype=np.int64)
            self._objs = None
        else:
            self._arr = None
            self._objs = tuple(vals)
        self._memb = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def empty(field: GroundField) -> "ElemSet":
        return ElemSet(field, ())

    @staticmethod
    def _from_sorted_array(field: GroundField, arr: np.ndarray) -> "ElemSet":
        s = ElemSet.__new__(ElemSet)
        s.field = field
        s._arr = arr
        s._objs = None
        s._memb = None
        return s

    # -- views -----------------------------------------------------------------

    @property
    def ints(self) -> Optional[np.ndarray]:
        """Sorted int64 view, or None when the set contains rationals."""
        return self._arr

    def elements(self) -> Tuple[Element, ...]:
        if self._objs is not None:
            return self._objs
        return tuple(int(v) for v in self._arr)

    def __len__(self) -> int:
        return len(self._objs) if self._objs is not None else int(self._arr.size)

    def __iter__(self):
        return iter(self.elements())

    def __contains__(self, x) -> bool:
        x = self.field.canonical(x)
        if self._arr is not None:
            if not isinstance(x, int):
                return False
            i = int(np.searchsorted(self._arr, x))
            return i < self._arr.size and int(self._arr[i]) == x
        if self._memb is None:
            self._memb = frozenset(self._objs)
        return x in self._memb

    def __eq__(self, other) -> bool:
        if not isinstance(other, ElemSet):
            return NotImplemented
        return self.field == other.field and self.elements() == other.elements()

    def __hash__(self):
        return hash((self.field, self.elements()))

    def __repr__(self):
        body = ", ".join(str(v) for v in list(self)[:8])
        tail = ", ..." if len(self) > 8 else ""
        return f"ElemSet({self.field.describe()}, {{{body}{tail}}}, n={len(self)})"

    # -- set operations ----------------------------------------------------------

    def issubset(self, other: "ElemSet") -> bool:
        if self.field != other.field:
            raise FieldMismatch("sets over different fields")
        if self._arr is not None and other._arr is not None:
            if self._arr.size == 0:
                return True
            if other._arr.size == 0:
                return False
            idx = np.searchsorted(other._arr, self._arr)
            idx = np.clip(idx, 0, other._arr.size - 1)
            return bool(np.all(other._arr[idx] == self._arr))
        return set(self.elements()) <= set(other.elements())

    def select(self, mask) -> "ElemSet":
        """The elements at which the boolean mask, one entry per element in
        sorted order, is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (len(self),):
            raise ValueError(f"mask of shape {mask.shape} for a set of "
                             f"{len(self)} elements")
        if self._arr is not None:
            return ElemSet._from_sorted_array(self.field, self._arr[mask])
        return ElemSet(self.field, compress(self._objs, mask.tolist()),
                       _canonical=True)

    def remove_zero(self) -> "ElemSet":
        if 0 not in self:
            return self
        return self.select([v != 0 for v in self._objs]
                           if self._arr is None else self._arr != 0)


def _format_element(v: Element) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return str(v)


def _parse_token(tok: str, field: GroundField) -> Element:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            val = Fraction(int(num), int(den))
        else:
            val = int(tok)
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad element token {tok!r}: {e}") from None
    return field.canonical(val)


def parse_set(text: str, field: GroundField) -> Tuple[ElemSet, int]:
    """Parse one-element-per-line text; returns (set, duplicate_count).

    Lines beginning with '#' are headers/comments and ignored here (see
    read_set_file for header-driven field detection).
    """
    values = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        values.append(_parse_token(line, field))
    distinct = sorted(set(values))
    return ElemSet(field, distinct, _canonical=True), len(values) - len(distinct)


def render_set(s: ElemSet) -> str:
    """Inverse of parse_set, with a field header line."""
    header = (
        f"# field prime {s.field.p}" if s.field.is_prime_mode else "# field char0"
    )
    lines = [header] + [_format_element(v) for v in s]
    return "\n".join(lines) + "\n"


def _field_from_header(text: str) -> Optional[GroundField]:
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("#"):
            continue
        parts = line[1:].split()
        if parts[:1] == ["field"]:
            if parts[1:2] == ["char0"]:
                return GroundField.char0()
            if parts[1:2] == ["prime"] and len(parts) >= 3:
                return GroundField.prime(int(parts[2]))
    return None


def read_set_file(path, field: Optional[GroundField] = None) -> Tuple[ElemSet, int]:
    """Read a set file; the '# field ...' header wins unless a field is forced."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if field is None:
        field = _field_from_header(text)
    if field is None:
        raise ParseError(f"{path}: no '# field ...' header and no field given")
    return parse_set(text, field)


def write_set_file(path, s: ElemSet) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_set(s))
