"""Constructors for the named rank functions used throughout: uniform
matroids with or without loops, free expansion and its inverse factor
(restriction is a factor too), the generator family of the singleton-block reduced cone, and the
symmetric functions witnessing the gap to the entropic region.
`uniform_factor` builds every factor of a uniform matroid that `uniform`,
`u_km` and the isolation witnesses name, from its count-tuple values."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .partitions import Partition, canonical_partition
from .setfn import GroundSet, SetFunction, consecutive_masks, elements_of, is_polymatroid
from .symmetry import SymVector, from_sym, symmetrize


@dataclass(frozen=True)
class ExpansionMap:
    """Per-element images phi(i) in a target ground set, pairwise disjoint."""

    source: GroundSet
    target: GroundSet
    images: tuple  # mask per source element, index i-1

    def __post_init__(self) -> None:
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.source.n:
            raise ValueError("one image mask per source element required")
        union = 0
        for m in images:
            if not 0 <= m <= self.target.full_mask:
                raise ValueError("image outside the target ground set")
            if m & union:
                raise ValueError("images must be pairwise disjoint")
            union |= m

    def of_mask(self, B: int) -> int:
        """phi(B), the union of the images of the elements of B."""
        return sum(m for i, m in enumerate(self.images) if B >> i & 1)


def canonical_expansion(h: SetFunction) -> ExpansionMap:
    """Images as consecutive target blocks of sizes h({i}), in order."""
    singles = [h(h.ground.singleton(i)) for i in range(1, h.n + 1)]
    if any(v.denominator != 1 for v in singles):
        raise ValueError("expansion needs integer singleton values")
    sizes = [int(v) for v in singles]
    images = consecutive_masks(sizes)
    return ExpansionMap(h.ground, GroundSet(sum(sizes)), images)


def uniform_factor(p: Partition, rank: int, weights) -> SetFunction:
    """min(rank, sum of weights[b] * k[b]) on each count tuple k of p: the
    factor of a uniform matroid giving each element of block b its own
    weights[b] columns (0 makes loops).  ValueError unless the rank and
    the weights are nonnegative ints, one weight per block."""
    return from_sym(SymVector(p, uniform_factor_values(p, rank, weights)))


def uniform_factor_values(p: Partition, rank: int, weights) -> tuple:
    """The reduced values of `uniform_factor(p, rank, weights)`, one int
    per count tuple of p in `p.count_tuples` order, with its errors."""
    weights = tuple(weights)
    if len(weights) != p.t or any(type(w) is not int or w < 0 for w in weights):
        raise ValueError(f"weights {weights} must be one nonnegative int per block")
    if type(rank) is not int or rank < 0:
        raise ValueError(f"rank {rank!r} must be a nonnegative int")
    return tuple([min(rank, sum(map(mul, weights, k))) for k in p.count_tuples])


def uniform(m: int, n: int) -> SetFunction:
    """Uniform matroid rank min(m, |A|)."""
    if not 0 <= m <= n:
        raise ValueError(f"rank {m} out of range for {n} elements")
    GroundSet(n)  # n = 0 is a ground-set size error, not a bad part
    return uniform_factor(canonical_partition((n,)), m, (1,))


def uniform_on_support(rank: int, support: int, ground: GroundSet) -> SetFunction:
    """Uniform matroid of the given rank on `support`, loops elsewhere."""
    if not 0 < support <= ground.full_mask:
        raise ValueError("support must be a nonempty subset of the ground set")
    if not 1 <= rank <= support.bit_count():
        raise ValueError("rank out of range for the support")
    return SetFunction.from_callable(
        ground, lambda a: Fraction(min(rank, (a & support).bit_count()))
    )


def free_expansion(h: SetFunction, phi: ExpansionMap) -> SetFunction:
    """Split every element into h({i}) freely placed ones.

    The expanded rank of A is the exact minimum over all source subsets
    B of h(B) + |A \\ phi(B)|; the result is always a matroid when h is
    an integer polymatroid.
    """
    if phi.source != h.ground:
        raise ValueError("expansion map does not match the ground set")
    if not h.is_integer_valued():
        raise ValueError("free expansion needs an integer-valued function")
    if not is_polymatroid(h):
        raise ValueError("free expansion needs a polymatroid")
    for i in range(1, h.n + 1):
        if phi.images[i - 1].bit_count() != h(h.ground.singleton(i)):
            raise ValueError(f"image size of element {i} differs from h(.)")
    # integer-valued, so the scaled values are the values themselves
    pairs = [(v, ~phi.of_mask(b)) for b, v in enumerate(h._scaled[0])]

    def rank(a: int) -> int:
        return min(v + (a & outside).bit_count() for v, outside in pairs)

    return SetFunction.from_callable(phi.target, rank)


def factor(g: SetFunction, phi: ExpansionMap) -> SetFunction:
    """Pull a function on the target back through phi: h(B) = g(phi(B))."""
    if phi.target != g.ground:
        raise ValueError("expansion map does not match the ground set")
    return SetFunction.from_callable(
        phi.source, lambda b: g.values[phi.of_mask(b)]
    )


def restrict(f: SetFunction, M: int) -> SetFunction:
    """Restriction of `f` to the subset M, relabelled order-preservingly:
    the factor of f through the injection of {1..|M|} onto M."""
    if M == 0:
        raise ValueError("cannot restrict to the empty set")
    if not 0 <= M <= f.ground.full_mask:
        raise ValueError("subset out of range")
    els = elements_of(M)
    onto = ExpansionMap(GroundSet(len(els)), f.ground, tuple(1 << (e - 1) for e in els))
    return factor(f, onto)


def u1_loop(n: int) -> SetFunction:
    """Indicator rank |A intersect {1}|: one free element, loops elsewhere."""
    if n < 1:
        raise ValueError("n must be positive")
    return uniform_on_support(1, 1, GroundSet(n))


def u_km(k: int, m: int, n: int) -> SetFunction:
    """Factor of U_{k,m} giving element 1 m - n + 1 columns, the others one."""
    if not n - 1 <= m <= 2 * n - 2:
        raise ValueError(f"m={m} out of range for n={n}")
    if not max(1, m - n + 1) <= k <= n - 1:
        raise ValueError(f"k={k} out of range for (m, n)=({m}, {n})")
    return uniform_factor(canonical_partition((1, n - 1)), k, (m - n + 1, 1))


def family_Un_tags(n: int) -> list:
    """Tags of the generator family: the loop matroid first, then
    (m ascending, k ascending)."""
    if n < 2:
        raise ValueError("the family needs at least 2 elements")
    tags = [f"u1loop:{n}"]
    for m in range(n - 1, 2 * n - 1):
        for k in range(max(1, m - n + 1), n):
            tags.append(f"ukm:{k},{m},{n}")
    return tags


def family_Un(n: int) -> list:
    """Generators of the reduced cone for a singleton first block.

    Contains 1 + (n-1) + n(n-1)/2 functions, each symmetric under the
    partition {{1}, {2..n}}.
    """
    return [build_family(tag) for tag in family_Un_tags(n)]


def gap_witness_blocks(p: Partition) -> SetFunction:
    """Symmetric polymatroid outside the closed entropic region: the
    function of `gap_witness_values(p)`, with its errors."""
    return from_sym(SymVector(p, gap_witness_values(p)))


def gap_witness_values(p: Partition) -> tuple:
    """The reduced values of `gap_witness_blocks(p)`, one int per count
    tuple of p in `p.count_tuples` order.

    Needs a two-block partition with both blocks of size >= 2; pairs
    inside the first block get value 4, all other pairs 3, singletons
    2, and everything larger 4.
    """
    if p.t != 2:
        raise ValueError("witness needs a two-block partition")
    if min(p.block_sizes) < 2:
        raise ValueError("witness needs both blocks of size at least 2")

    def value(k: tuple) -> int:
        c = sum(k)
        if c < 2:
            return 2 * c
        if c == 2:
            return 4 if k[0] == 2 else 3
        return 4

    return tuple(map(value, p.count_tuples))


def gap_witness(n1: int, n2: int) -> SetFunction:
    """Witness on {1..n1+n2} with first block {1..n1}."""
    if n1 < 2 or n2 < 2:
        raise ValueError("both blocks must have size at least 2")
    return gap_witness_blocks(Partition(GroundSet(n1 + n2), consecutive_masks((n1, n2))))


def build_family(tag: str) -> SetFunction:
    """Build a member from its literal tag.

    Syntax: `uniform:m,n`, `ukm:k,m,n`, `u1loop:n`, `gap:n1,n2`.
    """
    try:
        kind, _, argtext = tag.partition(":")
        args = [int(x) for x in argtext.split(",")] if argtext else []
    except ValueError as exc:
        raise ValueError(f"bad family tag {tag!r}") from exc
    if kind == "uniform" and len(args) == 2:
        return uniform(*args)
    if kind == "ukm" and len(args) == 3:
        return u_km(*args)
    if kind == "u1loop" and len(args) == 1:
        return u1_loop(args[0])
    if kind == "gap" and len(args) == 2:
        return gap_witness(*args)
    raise ValueError(f"bad family tag {tag!r}")


# ---------------------------------------------------------------------------
# Random sampling helpers for property checks


def random_polymatroid(ground: GroundSet, rng: random.Random) -> SetFunction:
    """Random conic combination of uniform-on-support rank functions.

    Each term draws a support, a rank, then a weight w / q.  The
    weights are scaled to ints over m = lcm(q, ...), so each subset
    sums ints and builds one `Fraction(total, m)`."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        support = rng.randint(1, ground.full_mask)
        rank = rng.randint(1, support.bit_count())
        terms.append((rng.randint(0, 6), rng.randint(1, 4), rank, support))
    m = lcm(*(q for _, q, _, _ in terms))
    scaled = [(w * (m // q), r, s) for w, q, r, s in terms]
    return SetFunction(ground, tuple(
        Fraction(sum(w * min(r, (a & s).bit_count()) for w, r, s in scaled), m)
        for a in ground.subsets()
    ))


def random_symmetric_function(p: Partition, rng: random.Random) -> SetFunction:
    """Random symmetric function: half the time an averaged polymatroid,
    otherwise free symmetric values (rarely a polymatroid)."""
    if rng.random() < 0.5:
        return symmetrize(random_polymatroid(p.ground, rng), p)
    values = [Fraction(0)] + [
        Fraction(rng.randint(0, 8), rng.randint(1, 3))
        for _ in p.count_tuples[1:]
    ]
    return from_sym(SymVector(p, tuple(values)))
