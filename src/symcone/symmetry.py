"""Orbit averaging, reduced coordinates, and the labelling of facet
orbits of the polymatroid cone.

A partition p of the ground set induces the group of permutations that
keep each block inside itself.  Functions constant on subsets with
equal per-block counts form the symmetric subspace; they compress into
a vector indexed by count tuples (k_1, ..., k_t), 0 <= k_i <= n_i.
`reduce_form` sums a full-space linear form per orbit: by averaging, the
form holds on symmetric polymatroids iff its reduced row holds on Psi_p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import comb, prod
from typing import Optional

from .partitions import Partition, partition_vector
from .setfn import (
    FacetId,
    SetFunction,
    elemental_rows,
    fraction_tuple,
    set_text,
)


class SymmetryError(ValueError):
    """Raised when a function is not symmetric under the given partition.

    Carries a witnessing pair of subsets with equal count vectors but
    different values.
    """

    def __init__(self, mask_a: int, mask_b: int):
        self.mask_a = mask_a
        self.mask_b = mask_b
        super().__init__(
            f"function differs on {set_text(mask_a)} and {set_text(mask_b)} "
            "although their per-block counts agree"
        )


def is_p_symmetric(h: SetFunction, p: Partition) -> bool:
    """True iff h is constant on subsets with equal count vectors."""
    return _symmetry_violation(h, p) is None


def _symmetry_violation(h: SetFunction, p: Partition) -> Optional[tuple]:
    """`(first, a)`: the first mask `a` whose value differs from the value
    on `first`, the smallest mask with the same count tuple.  Compares
    the values scaled to integers."""
    if h.ground != p.ground:
        raise ValueError("ground sets differ")
    position, smallest = p.count_index
    vals, _ = h._scaled
    for a, r in enumerate(position):
        first = smallest[r]
        if vals[a] != vals[first]:
            return (first, a)
    return None


def reduce_form(terms, index) -> tuple:
    """The reduced row of the form `terms`, `(mask, coeff)` pairs whose
    repeated masks add up: the coefficients summed per `position[mask]`
    of `index = (position, smallest)`, shaped like `Partition.count_index`,
    with position 0 (the empty set) dropped.  ValueError names a mask
    outside `0 <= mask < len(position)`."""
    position, smallest = index
    size = len(position)
    sums = [0] * len(smallest)
    for mask, coeff in terms:
        if not 0 <= mask < size:
            raise ValueError(f"mask {mask} outside 0..{size - 1}")
        sums[position[mask]] += coeff
    return tuple(sums[1:])


def symmetrize(h: SetFunction, p: Partition) -> SetFunction:
    """Orbit average of h under the block-permutation group of p.

    Computed by the closed form: the value on a count tuple k is the
    mean of h over all subsets with count tuple k, the orbit size being
    a product of binomials.  `reduce_form` sums the integer-scaled
    values of h (`h._scaled`, common denominator m) per count tuple;
    each mean is then one `Fraction(total, m * orbit_size)`, and
    `from_sym` spreads the means over the subsets.  Equals the
    |group|-term average but costs O(2**n) instead of O(prod n_i!).
    """
    if h.ground != p.ground:
        raise ValueError("ground sets differ")
    vals, m = h._scaled
    sums = (0,) + reduce_form(enumerate(vals), p.count_index)
    sizes = p.block_sizes
    return from_sym(SymVector(p, tuple(
        Fraction(total, m * prod(comb(s, k) for s, k in zip(sizes, tup)))
        for total, tup in zip(sums, p.count_tuples)
    )))


@dataclass(frozen=True)
class SymVector:
    """Reduced coordinates of a symmetric function, one per count tuple
    of the partition, in the order of `Partition.count_tuples`, stored
    as `fraction_tuple(values)`: equal int values share one `Fraction`."""

    partition: Partition
    values: tuple

    def __post_init__(self) -> None:
        vals = fraction_tuple(self.values)
        if len(vals) != len(self.partition.count_tuples):
            raise ValueError("wrong number of reduced coordinates")
        if vals[0] != 0:
            raise ValueError("coordinate at the zero tuple must be 0")
        object.__setattr__(self, "values", vals)

    def __getitem__(self, tup) -> Fraction:
        return self.values[self.partition.count_positions[tuple(tup)]]

    def free_values(self) -> tuple:
        """Coordinates with the origin dropped, in tuple order."""
        return self.values[1:]

    def to_text(self) -> str:
        return "\n".join(
            ",".join(str(k) for k in tup) + " " + str(v)
            for tup, v in zip(self.partition.count_tuples, self.values)
        )


def to_sym(h: SetFunction, p: Partition) -> SymVector:
    """Reduced coordinates of a p-symmetric function.

    Raises SymmetryError naming a violating subset pair when h is not
    symmetric.
    """
    bad = _symmetry_violation(h, p)
    if bad is not None:
        raise SymmetryError(*bad)
    _, smallest = p.count_index
    return SymVector(p, tuple(h.values[m] for m in smallest))


def from_sym(s: SymVector) -> SetFunction:
    """Inflate reduced coordinates back to a full set function."""
    p = s.partition
    position, _ = p.count_index
    return SetFunction(p.ground, tuple(s.values[r] for r in position))


@dataclass(frozen=True)
class OrbitLabel:
    """Pair of count vectors [lambda_I, lambda_K] classifying a facet orbit.

    lambda_I sums to 1 (monotonicity facets, lambda_K = 0) or to 2
    (conditional-information facets).
    """

    lambda_I: tuple
    lambda_K: tuple

    def __post_init__(self) -> None:
        li = tuple(self.lambda_I)
        lk = tuple(self.lambda_K)
        object.__setattr__(self, "lambda_I", li)
        object.__setattr__(self, "lambda_K", lk)
        if len(li) != len(lk):
            raise ValueError("count vectors must have equal length")
        s = sum(li)
        if s not in (1, 2):
            raise ValueError("lambda_I must sum to 1 or 2")
        if s == 1 and any(lk):
            raise ValueError("lambda_K must vanish for monotonicity labels")

    @property
    def t(self) -> int:
        return len(self.lambda_I)

    @property
    def kind(self) -> str:
        """'A' monotonicity, 'B' split pair, 'C' pair within one block."""
        if sum(self.lambda_I) == 1:
            return "A"
        return "C" if 2 in self.lambda_I else "B"

    def blocks_touched(self) -> tuple:
        """1-based positions of the blocks meeting I."""
        return tuple(i + 1 for i, v in enumerate(self.lambda_I) if v)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """`str(self)`, rendered on first use and kept on the frozen label."""
        t = self.t
        ktxt = ",".join(str(k) for k in self.lambda_K)
        if self.kind == "A":
            (l,) = self.blocks_touched()
            return f"[1_{t}({l})|0]"
        if self.kind == "B":
            l1, l2 = self.blocks_touched()
            return f"[1_{t}({l1},{l2})|{ktxt}]"
        (l,) = self.blocks_touched()
        return f"[2_{t}({l})|{ktxt}]"


def facet_orbit_label(fid: FacetId, p: Partition) -> OrbitLabel:
    """Orbit label of an elemental facet under p."""
    return OrbitLabel(partition_vector(fid.I, p), partition_vector(fid.K, p))


def orbit_labels(p: Partition) -> list:
    """All distinct facet-orbit labels, monotonicity labels first.

    Split-pair labels range over count tuples avoiding the full count
    in each touched block; within-block labels need a block of size at
    least two and a count at most size-2 there.  The labels are built
    once per partition; each call returns a fresh list of them.
    """
    return list(_orbit_labels(p))


@cache
def _orbit_labels(p: Partition) -> tuple:
    sizes = p.block_sizes
    t = p.t
    out = []
    for l in range(t):
        e = tuple(1 if i == l else 0 for i in range(t))
        out.append(OrbitLabel(e, (0,) * t))
    for l1 in range(t):
        for l2 in range(l1 + 1, t):
            e = tuple(1 if i in (l1, l2) else 0 for i in range(t))
            for k in p.count_tuples:
                if k[l1] != sizes[l1] and k[l2] != sizes[l2]:
                    out.append(OrbitLabel(e, k))
    for l in range(t):
        if sizes[l] < 2:
            continue
        e = tuple(2 if i == l else 0 for i in range(t))
        for k in p.count_tuples:
            if k[l] <= sizes[l] - 2:
                out.append(OrbitLabel(e, k))
    return tuple(out)


def orbit_count_formula(p: Partition) -> int:
    """Closed-form number of facet orbits.

    t monotonicity orbits, plus for each block pair the split-pair
    count n_{l1} n_{l2} prod_{m != l1,l2} (n_m + 1), plus for each
    block the within-block count (n_l - 1) prod_{m != l} (n_m + 1);
    the last term vanishes for singleton blocks.
    """
    sizes = p.block_sizes
    t = p.t
    total_prod = prod(s + 1 for s in sizes)
    count = t
    for l1 in range(t):
        for l2 in range(l1 + 1, t):
            count += (
                sizes[l1] * sizes[l2] * total_prod
                // ((sizes[l1] + 1) * (sizes[l2] + 1))
            )
    for l in range(t):
        count += (sizes[l] - 1) * total_prod // (sizes[l] + 1)
    return count


def facet_keys(p: Partition) -> dict:
    """The one labelling walk of the elemental facets under p: the number
    of facets per key `(a, b, c, d, I, K)`, the `p.count_index`
    positions of the masks a, b, c, d of each facet's row and of its I
    and K, in walk order.

    A key fixes both what a facet reduces to and its label: its reduced
    row is +1 at positions a and b and -1 at c and d, position 0 (the
    empty set) dropped, and its label is `(count_tuples[I],
    count_tuples[K])`, the `(lambda_I, lambda_K)` of
    `facet_orbit_label`.  So every facet of a key reduces to the same
    row and lies in the same orbit.
    """
    position, _ = p.count_index
    keys: dict = {}
    for fid, (a, b, c, d) in elemental_rows(p.ground).items():
        key = (position[a], position[b], position[c], position[d],
               position[fid.I], position[fid.K])
        keys[key] = keys.get(key, 0) + 1
    return keys


def orbit_sizes(p: Partition) -> dict:
    """Number of elemental facets in each orbit, summed over the keys of
    `facet_keys` that share the I and K positions of one label."""
    sizes: dict = {}
    for (*_, i, k), count in facet_keys(p).items():
        sizes[i, k] = sizes.get((i, k), 0) + count
    tuples = p.count_tuples
    return {OrbitLabel(tuples[i], tuples[k]): count
            for (i, k), count in sizes.items()}
