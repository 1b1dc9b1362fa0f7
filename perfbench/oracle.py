"""Independent reference computations used to check the program's answers.

Nothing here imports symcone: every expected answer the benchmark
compares against is recomputed from the definitions, so a defect in the
package cannot hide behind the same defect in its checker.  Partitions
are canonical: consecutive blocks of the given nondecreasing sizes,
element i on bit i-1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from functools import lru_cache
from math import comb, lcm, prod


def blocks_of(parts) -> tuple:
    """Block masks of the canonical partition with these block sizes."""
    out, start = [], 0
    for size in parts:
        out.append(((1 << size) - 1) << start)
        start += size
    return tuple(out)


def partition_literal(parts) -> str:
    """The `1,2|3,4` literal of the canonical partition."""
    out, start = [], 1
    for size in parts:
        out.append(",".join(str(e) for e in range(start, start + size)))
        start += size
    return "|".join(out)


def integer_partitions(n: int) -> list:
    """Nondecreasing integer partitions of n, by block count then lexicographic."""

    def gen(remaining, minimum):
        if remaining == 0:
            yield ()
            return
        for first in range(minimum, remaining + 1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return sorted(gen(n, 1), key=lambda q: (len(q), q))


def count_tuples(parts) -> list:
    """Reduced coordinates: count tuples in lexicographic order, origin dropped."""
    return list(product(*(range(s + 1) for s in parts)))[1:]


@lru_cache(maxsize=None)
def mask_counts(parts) -> tuple:
    """Count tuple of every subset mask."""
    blocks = blocks_of(parts)
    return tuple(tuple((mask & b).bit_count() for b in blocks)
                 for mask in range(1 << sum(parts)))


def reduce(values, parts) -> tuple:
    """Reduced coordinates of a symmetric function given on every subset."""
    reps = {}
    for mask, key in enumerate(mask_counts(parts)):
        reps.setdefault(key, mask)
    return tuple(values[reps[tup]] for tup in count_tuples(parts))


def inflate(reduced, parts) -> tuple:
    """Full value tuple of the symmetric function with these reduced coordinates."""
    at = dict(zip(count_tuples(parts), reduced))
    at[(0,) * len(parts)] = Fraction(0)
    return tuple(at[key] for key in mask_counts(parts))


def is_polymatroid(values) -> bool:
    """All elemental inequalities hold (values indexed by subset mask)."""
    n = (len(values) - 1).bit_length()
    full = (1 << n) - 1
    for i in range(n):
        if values[full] < values[full ^ (1 << i)]:
            return False
    for i, j in combinations(range(n), 2):
        mi, mj = 1 << i, 1 << j
        rest = full ^ mi ^ mj
        k = rest
        while True:
            if values[k | mi] + values[k | mj] < values[k] + values[k | mi | mj]:
                return False
            if k == 0:
                break
            k = (k - 1) & rest
    return True


def orbit_count(parts) -> int:
    """Number of facet orbits of the reduced cone (closed form)."""
    t = len(parts)
    total = prod(s + 1 for s in parts)
    count = t
    for a, b in combinations(range(t), 2):
        count += parts[a] * parts[b] * total // ((parts[a] + 1) * (parts[b] + 1))
    for s in parts:
        count += (s - 1) * total // (s + 1)
    return count


def elemental_count(n: int) -> int:
    return n + comb(n, 2) * (1 << max(n - 2, 0))


def covers(context_parts, parts) -> bool:
    """Canonical `context` arises from canonical `parts` by merging two blocks."""
    if len(context_parts) != len(parts) - 1:
        return False
    fine, coarse = blocks_of(parts), blocks_of(context_parts)
    if any(not any(b & ~c == 0 for c in coarse) for b in fine):
        return False
    return sum(1 for c in coarse if c not in fine) == 1


# ---------------------------------------------------------------------------
# Named functions, written from their definitions


def uniform_values(m: int, n: int) -> tuple:
    return tuple(Fraction(min(m, a.bit_count())) for a in range(1 << n))


def family_tags(n: int) -> list:
    """Generator family of the singleton-block cone, in the program's order."""
    tags = [f"u1loop:{n}"]
    for m in range(n - 1, 2 * n - 1):
        for k in range(max(1, m - n + 1), n):
            tags.append(f"ukm:{k},{m},{n}")
    return tags


def family_values(tag: str) -> tuple:
    """Values of `uniform:m,n`, `u1loop:n`, `ukm:k,m,n` or `gap:n1,n2`."""
    kind, _, rest = tag.partition(":")
    args = [int(x) for x in rest.split(",")]
    if kind == "uniform":
        return uniform_values(*args)
    if kind == "u1loop":
        return tuple(Fraction(a & 1) for a in range(1 << args[0]))
    if kind == "ukm":
        # U_{k,m} pulled back through: element 1 -> m-n+1 targets, others -> 1.
        k, m, n = args
        head = m - n + 1
        return tuple(
            Fraction(min(k, head * (a & 1) + (a >> 1).bit_count()))
            for a in range(1 << n)
        )
    if kind == "gap":
        n1, n2 = args
        first = (1 << n1) - 1

        def value(a):
            c = a.bit_count()
            if c <= 1:
                return Fraction(2 * c)
            if c == 2:
                return Fraction(4 if a & ~first == 0 else 3)
            return Fraction(4)

        return tuple(value(a) for a in range(1 << (n1 + n2)))
    raise ValueError(f"unknown tag {tag!r}")


def free_expansion_values(values) -> tuple:
    """Free expansion by brute force: min over B of h(B) + |A minus phi(B)|."""
    n = (len(values) - 1).bit_length()
    sizes = [int(values[1 << i]) for i in range(n)]
    images, start = [], 0
    for size in sizes:
        images.append(((1 << size) - 1) << start)
        start += size
    phi = []
    for b in range(1 << n):
        img = 0
        for i in range(n):
            if b >> i & 1:
                img |= images[i]
        phi.append(img)
    return tuple(
        min(values[b] + (a & ~phi[b]).bit_count() for b in range(1 << n))
        for a in range(1 << start)
    )


# ---------------------------------------------------------------------------
# Seeded generators of query points


def symmetric_polymatroid(parts, rng) -> tuple:
    """Random p-symmetric polymatroid: a nonnegative sum of truncated
    weighted block counts min(r, sum_i c_i |A & B_i|), each of which is
    monotone and submodular."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        c = [rng.randint(0, 2) for _ in parts]
        if not any(c):
            c[rng.randrange(len(c))] = 1
        top = sum(ci * s for ci, s in zip(c, parts))
        terms.append((rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, top), c))
    den = lcm(*(b for _, b, _, _ in terms))
    reduced = [
        Fraction(sum(a * (den // b) * min(r, sum(ci * k for ci, k in zip(c, key)))
                     for a, b, r, c in terms), den)
        for key in count_tuples(parts)
    ]
    return inflate(reduced, parts)


def symmetric_point(parts, rng) -> tuple:
    """Membership query: half polymatroids by construction, a quarter
    of them pushed across a face at one coordinate, a quarter free
    symmetric values."""
    kind = rng.random()
    if kind < 0.5:
        return symmetric_polymatroid(parts, rng)
    if kind < 0.75:
        red = list(reduce(symmetric_polymatroid(parts, rng), parts))
        i = rng.randrange(len(red))
        red[i] += Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
        return inflate(red, parts)
    red = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in count_tuples(parts)]
    return inflate(red, parts)


def outside_point(parts, rng) -> tuple:
    """Symmetric function that is not a polymatroid (rejection sampled)."""
    while True:
        red = [Fraction(rng.randint(-4, 6)) for _ in count_tuples(parts)]
        values = inflate(red, parts)
        if not is_polymatroid(values):
            return values
