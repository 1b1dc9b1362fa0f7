"""Ground sets, subsets as bitmasks, and exact rational set functions.

Everything in this module is exact: values are `fractions.Fraction`,
subsets are plain ints with bit i-1 encoding element i, and inequality
tests scale the values to integers once (by the lcm of their
denominators) and compare integer sums.  Floats are never used because
the cone machinery downstream needs exact zero detection.  A linear
form is a plain `{mask: coeff}` dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations, repeat
from math import comb, lcm
from types import MappingProxyType
from typing import Iterable, Optional

#: Largest ground set stored densely (2**n values per function).
DENSE_GROUND_CAP = 12


class UnsupportedSizeError(ValueError):
    """The operation would need dense 2**n storage beyond the cap."""


def _clear_denominators(vec) -> tuple:
    """`(ints, m)`: `m` is the lcm of the denominators of `vec` and
    `ints[i] = vec[i] * m`.

    One pass reads `as_integer_ratio()` once per entry and keeps the
    running lcm; an entry without that method (a `str`) goes through
    `Fraction(x)` first.  `vec` may be any iterable and is read once.
    """
    nums, dens = [], []
    m = 1
    for x in vec:
        try:
            num, den = x.as_integer_ratio()
        except AttributeError:
            num, den = Fraction(x).as_integer_ratio()
        nums.append(num)
        dens.append(den)
        if m % den:
            m = lcm(m, den)
    if m == 1:
        return nums, 1
    return [num * (m // den) for num, den in zip(nums, dens)], m


#: `Fraction(v)` for an int `v`, one shared object per integer: a
#: `Fraction` is immutable, and converting an int anew costs more than
#: the lookup.  Bounded, so arbitrary integers cannot grow it.
_int_fraction = lru_cache(maxsize=1024)(Fraction)


def fraction_tuple(values) -> tuple:
    """`values` as a tuple of `Fraction`s, each equal to `Fraction(v)`:
    an int comes from `_int_fraction`, a `Fraction` passes through and
    anything else (bool, float, str) goes through `Fraction(v)`, with
    its errors.  A tuple of `Fraction`s is returned as it is.

    `type(v) is int` is tested first: `isinstance(v, Fraction)` on an
    int goes through the numeric ABCs and costs more than the cached
    conversion."""
    if type(values) is tuple and all(map(isinstance, values, repeat(Fraction))):
        return values
    return tuple([_int_fraction(v) if type(v) is int
                  else v if isinstance(v, Fraction) else Fraction(v)
                  for v in values])


def mask_of(elements: Iterable[int]) -> int:
    """Bitmask of a collection of elements (element i on bit i-1)."""
    m = 0
    for i in elements:
        m |= 1 << (i - 1)
    return m


def consecutive_masks(sizes: Iterable[int]) -> tuple:
    """Masks of consecutive runs of the given sizes, the first run
    starting at element 1; a size 0 gives the empty mask.  ValueError
    names a negative size."""
    masks = []
    start = 0
    for size in sizes:
        if size < 0:
            raise ValueError(f"run size {size} is negative")
        masks.append(((1 << size) - 1) << start)
        start += size
    return tuple(masks)


def elements_of(mask: int) -> tuple[int, ...]:
    """Sorted elements of a subset mask; ValueError if it is negative."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def set_text(mask: int) -> str:
    if mask == 0:
        return "{}"
    return "{" + ",".join(str(i) for i in elements_of(mask)) + "}"


@dataclass(frozen=True)
class GroundSet:
    """The index set {1, ..., n}."""

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= DENSE_GROUND_CAP:
            raise UnsupportedSizeError(
                f"ground set size {self.n!r} outside supported range "
                f"1..{DENSE_GROUND_CAP}"
            )

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def subsets(self) -> range:
        return range(1 << self.n)

    def singleton(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError(f"element {i} outside ground set 1..{self.n}")
        return 1 << (i - 1)


@dataclass(frozen=True)
class SetFunction:
    """Exact rational function on all subsets of a ground set.

    `values[mask]` is the value on the subset encoded by `mask`; the
    value on the empty set must be 0.  The values are stored as
    `fraction_tuple(values)`: equal int values share one `Fraction`.
    """

    ground: GroundSet
    values: tuple

    def __post_init__(self) -> None:
        vals = fraction_tuple(self.values)
        if len(vals) != 1 << self.ground.n:
            raise ValueError(
                f"expected {1 << self.ground.n} values, got {len(vals)}"
            )
        if vals[0] != 0:
            raise ValueError("value on the empty set must be 0")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.ground.n

    def __call__(self, mask: int) -> Fraction:
        if not 0 <= mask <= self.ground.full_mask:
            raise IndexError(f"mask {mask} outside 0..{self.ground.full_mask}")
        return self.values[mask]

    @cached_property
    def _scaled(self) -> tuple:
        """`(ints, m)` from `_clear_denominators(self.values)`, computed
        once per function for the integer scans."""
        return _clear_denominators(self.values)

    @classmethod
    def from_callable(cls, ground: GroundSet, fn) -> "SetFunction":
        return cls(ground, tuple(fn(a) for a in ground.subsets()))

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)

    def __add__(self, other: "SetFunction") -> "SetFunction":
        if self.ground != other.ground:
            raise ValueError("ground sets differ")
        return SetFunction(
            self.ground, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __rmul__(self, scalar) -> "SetFunction":
        c = Fraction(scalar)
        return SetFunction(self.ground, tuple(c * v for v in self.values))

    __mul__ = __rmul__

    def to_text(self) -> str:
        """One `mask value` line per subset, in mask order."""
        return "\n".join(f"{m} {v}" for m, v in enumerate(self.values))

    @classmethod
    def from_text(cls, text: str, n: Optional[int] = None) -> "SetFunction":
        """Parse the `mask value` line format; missing masks default to 0.
        A malformed line or a negative or repeated mask raises ValueError."""
        entries = {}
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"bad set-function line: {raw!r}")
            try:
                mask, value = int(parts[0]), Fraction(parts[1])
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad set-function line: {raw!r}") from None
            if mask < 0 or mask in entries:
                raise ValueError(f"negative or repeated mask in line: {raw!r}")
            entries[mask] = value
        if not entries:
            raise ValueError("empty set-function input")
        if n is None:
            n = max(entries).bit_length()
            n = max(n, 1)
        ground = GroundSet(n)
        if max(entries) > ground.full_mask:
            raise ValueError("mask out of range for ground set")
        vals = tuple(entries.get(m, Fraction(0)) for m in ground.subsets())
        return cls(ground, vals)

    def to_json_array(self) -> list:
        return [str(v) for v in self.values]


def form_value(form: dict, f: SetFunction) -> Fraction:
    """Value at `f` of the linear form `{mask: coeff}`.  ValueError
    names a mask outside the ground set of `f`."""
    vals = f.values
    total = Fraction(0)
    for mask, coeff in form.items():
        if not 0 <= mask < len(vals):
            raise ValueError(f"mask {mask} outside 0..{len(vals) - 1}")
        total += coeff * vals[mask]
    return total


@dataclass(frozen=True, order=True)
class FacetId:
    """Identifier E(I, K) of an elemental inequality.

    I is a 1- or 2-element mask; K is disjoint from I and empty when
    |I| = 1.  A negative mask raises ValueError.
    """

    I: int
    K: int = 0

    def __post_init__(self) -> None:
        if self.I < 0 or self.K < 0:
            raise ValueError("I and K must be nonnegative masks")
        size = self.I.bit_count()
        if size not in (1, 2):
            raise ValueError("I must have one or two elements")
        if self.I & self.K:
            raise ValueError("I and K must be disjoint")
        if size == 1 and self.K != 0:
            raise ValueError("K must be empty for a single-element I")

    def __str__(self) -> str:
        els = elements_of(self.I)
        if len(els) == 1:
            return f"E({els[0]})"
        ktxt = ",".join(str(i) for i in elements_of(self.K)) or "-"
        return f"E({els[0]},{els[1]}|{ktxt})"


def submasks(sup: int):
    """All subsets of a mask, in ascending numeric order."""
    s = 0
    while True:
        yield s
        if s == sup:
            return
        s = (s - sup) & sup


@cache
def elemental_rows(ground: GroundSet) -> MappingProxyType:
    """The elemental system, the one place it is enumerated: a
    read-only ordered mapping from each facet identifier to the masks
    `(a, b, c, d)` of h(a) + h(b) - h(c) - h(d) >= 0.

    First E(i) = `(N, 0, N - i, 0)` for i = 1..n (h(0) = 0), then
    E(i,j|K) = `(K + i, K + j, K, K + ij)` for i < j, K ascending.  The
    nonzero masks of a row are distinct.  Built once per ground set.
    """
    n, full = ground.n, ground.full_mask
    rows = {}
    for i in range(1, n + 1):
        m = ground.singleton(i)
        rows[FacetId(m)] = (full, 0, full ^ m, 0)
    for i, j in combinations(range(1, n + 1), 2):
        mi, mj = ground.singleton(i), ground.singleton(j)
        for k in submasks(full ^ mi ^ mj):
            rows[FacetId(mi | mj, k)] = (k | mi, k | mj, k, k | mi | mj)
    return MappingProxyType(rows)


def elemental_count(n: int) -> int:
    """Closed-form facet count: n + C(n,2) * 2**(n-2)."""
    if n < 1:
        raise ValueError("n must be positive")
    return n + comb(n, 2) * (1 << max(n - 2, 0))


def polymatroid_violation(f: SetFunction) -> Optional[FacetId]:
    """First elemental inequality violated by `f`, or None if none is:
    one scan of `elemental_rows` on the values scaled to integers,
    testing h(a) + h(b) < h(c) + h(d)."""
    vals, _ = f._scaled
    for fid, (a, b, c, d) in elemental_rows(f.ground).items():
        if vals[a] + vals[b] < vals[c] + vals[d]:
            return fid
    return None


def is_polymatroid(f: SetFunction) -> bool:
    """True iff `f` satisfies every elemental inequality."""
    return polymatroid_violation(f) is None


def is_matroid(f: SetFunction) -> bool:
    """True iff `f` is a polymatroid with integer values bounded by cardinality."""
    for m, v in enumerate(f.values):
        if v.denominator != 1 or not 0 <= v <= m.bit_count():
            return False
    return is_polymatroid(f)


def mutual_info(f: SetFunction, i: int, j: int, K: int = 0) -> Fraction:
    """Conditional mutual information form f(K|i) + f(K|j) - f(K) - f(K|ij)."""
    if i == j:
        raise ValueError("indices must be distinct")
    mi = f.ground.singleton(i)
    mj = f.ground.singleton(j)
    if (mi | mj) & K:
        raise ValueError("conditioning set overlaps {i, j}")
    if not 0 <= K <= f.ground.full_mask:
        raise ValueError("conditioning set out of range")
    return f(K | mi) + f(K | mj) - f(K) - f(K | mi | mj)


def _add_mutual_info(coeffs: dict, i_mask: int, j_mask: int, k_mask: int, weight: int) -> None:
    for m, w in (
        (k_mask | i_mask, weight),
        (k_mask | j_mask, weight),
        (k_mask, -weight),
        (k_mask | i_mask | j_mask, -weight),
    ):
        coeffs[m] = coeffs.get(m, 0) + w


def zhang_yeung_form(ground: GroundSet, roles: tuple[int, int, int, int] = (1, 2, 3, 4)) -> dict:
    """Four-variable non-Shannon inequality as a `{mask: int}` form
    (">=0"): keys ascending, no empty mask and no zero coefficient.

    With roles (a, b, c, d) the form is
        I(a;b) + I(a;cd) + 3 I(c;d|a) + I(c;d|b) - 2 I(c;d).
    The role order is exposed so all 4! assignments can be scanned.
    """
    if ground.n < 4:
        raise UnsupportedSizeError("needs a ground set with at least 4 elements")
    if len(roles) != 4 or len(set(roles)) != 4:
        raise ValueError("roles must be 4 distinct elements")
    a, b, c, d = (ground.singleton(r) for r in roles)
    coeffs: dict = {}
    _add_mutual_info(coeffs, a, b, 0, 1)
    _add_mutual_info(coeffs, a, c | d, 0, 1)
    _add_mutual_info(coeffs, c, d, a, 3)
    _add_mutual_info(coeffs, c, d, b, 1)
    _add_mutual_info(coeffs, c, d, 0, -2)
    return {m: w for m, w in sorted(coeffs.items()) if m and w}
