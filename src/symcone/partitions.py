"""Partitions of the ground set, the refinement order, and canonical
representatives indexed by the integer partitions of n."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from itertools import product
from math import prod
from operator import index
from typing import Optional

from .setfn import GroundSet, consecutive_masks, elements_of

#: A partition vector is a plain tuple of per-block intersection counts.
PartitionVector = tuple
#: An integer partition is a nondecreasing tuple of positive parts.
IntegerPartition = tuple


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint nonempty blocks covering the ground set."""

    ground: GroundSet
    blocks: tuple  # tuple of subset masks

    def __post_init__(self) -> None:
        blocks = tuple(self.blocks)
        object.__setattr__(self, "blocks", blocks)
        union = 0
        for b in blocks:
            if b == 0:
                raise ValueError("blocks must be nonempty")
            if b & union:
                raise ValueError("blocks must be disjoint")
            union |= b
        if union != self.ground.full_mask:
            raise ValueError("blocks must cover the ground set")

    @property
    def t(self) -> int:
        return len(self.blocks)

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def block_sizes(self) -> tuple:
        return tuple(b.bit_count() for b in self.blocks)

    @cached_property
    def count_tuples(self) -> tuple:
        """The count tuples (k_1, ..., k_t), 0 <= k_i <= n_i, in
        lexicographic order: the coordinates of the reduced space."""
        return tuple(product(*(range(s + 1) for s in self.block_sizes)))

    @cached_property
    def strides(self) -> tuple:
        """s_l = prod_{m > l} (n_m + 1), the one statement of the layout of
        `count_tuples`: adding 1 to k_l adds s_l to a tuple's index, so
        the count tuple of a mask sits at sum_l s_l |mask & B_l|."""
        sizes = self.block_sizes
        return tuple(prod(s + 1 for s in sizes[l + 1:]) for l in range(self.t))

    @cached_property
    def count_positions(self) -> dict:
        """Index of each count tuple in `count_tuples`."""
        return {tup: r for r, tup in enumerate(self.count_tuples)}

    @cached_property
    def count_index(self) -> tuple:
        """`(position, smallest)`: `position[mask]` is the index in
        `count_tuples` of the count tuple of `mask`, and `smallest[r]`
        is the smallest mask whose count tuple has index `r` (the first
        k_i elements of each block).  Built once per partition: equal
        partitions share one pair of tuples for the life of the
        process."""
        return _count_index(self)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """`str(self)`, rendered on first use and kept on the frozen
        partition."""
        return "|".join(
            ",".join(str(e) for e in elements_of(b)) for b in self.blocks
        )

    @classmethod
    def parse(cls, text: str, ground: GroundSet) -> "Partition":
        """Parse the `1,2|3,4` block syntax; an element that is not an
        integer, lies outside the ground set, or is repeated within a
        block is named in the ValueError."""
        blocks = []
        for chunk in text.split("|"):
            els = []
            for tok in filter(str.strip, chunk.split(",")):
                try:
                    els.append(int(tok))
                except ValueError:
                    raise ValueError(f"element {tok.strip()!r} is not an integer "
                                     f"in partition literal {text!r}") from None
            if not els:
                raise ValueError(f"empty block in partition literal {text!r}")
            repeated = next((e for e in els if els.count(e) > 1), None)
            if repeated is not None:
                raise ValueError(f"element {repeated} repeated in partition literal {text!r}")
            blocks.append(sum(ground.singleton(e) for e in els))
        return cls(ground, tuple(blocks))


@cache
def _count_index(p: Partition) -> tuple:
    """`Partition.count_index`, shared by equal partitions: the position
    of each mask is sum_l s_l |mask & B_l| over `p.strides`."""
    pairs = tuple(zip(p.strides, p.blocks))
    position = []
    smallest = {}
    for mask in p.ground.subsets():
        r = 0
        for s, b in pairs:
            r += s * (mask & b).bit_count()
        position.append(r)
        smallest.setdefault(r, mask)
    return tuple(position), tuple(smallest[r] for r in range(len(smallest)))


def partition_vector(A: int, p: Partition) -> PartitionVector:
    """Per-block intersection counts of the subset A."""
    if not 0 <= A <= p.ground.full_mask:
        raise ValueError("subset out of range")
    return tuple((A & b).bit_count() for b in p.blocks)


def block_map(fine: Partition, coarse: Partition) -> Optional[tuple]:
    """For each block of `fine`, the position in `coarse.blocks` of the
    block holding it; None when `coarse` does not coarsen `fine`.

    The one derivation of a coarsening: `refines`, `covers` and the
    isolation checks all read it.
    """
    if fine.ground != coarse.ground:
        raise ValueError("partitions live on different ground sets")
    posmap = []
    for b in fine.blocks:
        # both partitions cover the ground set, so some coarse block meets b
        i = next(i for i, cb in enumerate(coarse.blocks) if cb & b)
        if b & ~coarse.blocks[i]:
            return None
        posmap.append(i)
    return tuple(posmap)


def refines(p1: Partition, p2: Partition) -> bool:
    """True iff every block of p2 is a union of blocks of p1; raises
    ValueError when the ground sets differ."""
    return block_map(p1, p2) is not None


def covers(p2: Partition, p1: Partition) -> bool:
    """True iff p2 is obtained from p1 by merging exactly two blocks,
    that is, p2 coarsens p1 and has one block fewer."""
    return refines(p1, p2) and p2.t == p1.t - 1


@lru_cache(maxsize=None)
def integer_partitions(n: int) -> tuple:
    """All integer partitions of n as nondecreasing tuples.

    Ordered by block count, then lexicographically, matching the order
    in which canonical representatives are listed.
    """
    if n < 1:
        raise ValueError("n must be positive")

    def gen(remaining: int, minimum: int):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    parts = list(gen(n, 1))
    parts.sort(key=lambda q: (len(q), q))
    return tuple(parts)


def canonical_partition(parts) -> Partition:
    """Partition of `GroundSet(sum(parts))` into consecutive blocks of the
    given sizes.  Each part goes through `operator.index`, and the int
    tuple keys one object built on first use: `(2, 3)`, `[2, 3]` and
    `iter((2, 3))` give the same `Partition`, as `(True, 1)` and `(1, 1)`
    do, so its cached properties are computed once and the caches it keys
    compare it by identity.  A repeat call is one cache lookup; parts
    that raise are never cached."""
    return _consecutive_partition(tuple(map(index, parts)))


@cache
def _consecutive_partition(parts: tuple) -> Partition:
    """`canonical_partition` of a tuple of ints: validated and built once."""
    if any(q < 1 for q in parts):
        raise ValueError("parts must be positive")
    if list(parts) != sorted(parts):
        raise ValueError("parts must be nondecreasing")
    return Partition(GroundSet(sum(parts)), consecutive_masks(parts))


def canonical_representatives(n: int) -> list:
    """One consecutive-block partition per integer partition of n."""
    GroundSet(n)  # an n out of range is a ground-set size error
    return [canonical_partition(parts) for parts in integer_partitions(n)]
