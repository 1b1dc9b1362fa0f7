import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator

import pytest

from symcone import (
    DecomposeResult,
    GroundSet,
    Partition,
    Ray,
    SetFunction,
    elemental_rows,
    elements_of,
    facet_orbit_label,
    reduced_facet_row,
)


def all_set_partitions(n: int):
    """Every partition of {1..n}, via restricted growth strings."""
    ground = GroundSet(n)
    out = []

    def grow(prefix, maxval):
        if len(prefix) == n:
            blocks = {}
            for elem, label in enumerate(prefix, start=1):
                blocks.setdefault(label, 0)
                blocks[label] |= 1 << (elem - 1)
            out.append(Partition(ground, tuple(blocks[k] for k in sorted(blocks))))
            return
        for v in range(maxval + 2):
            grow(prefix + [v], max(maxval, v))

    grow([0], 0)
    return out


def brute_integer_partition_count(n: int) -> int:
    """Independent count of integer partitions (descending-part recursion)."""

    def count(remaining, largest):
        if remaining == 0:
            return 1
        return sum(
            count(remaining - part, part)
            for part in range(min(remaining, largest), 0, -1)
        )

    return count(n, n)


def random_rational_function(ground: GroundSet, rng: random.Random) -> SetFunction:
    values = [Fraction(0)] + [
        Fraction(rng.randint(-6, 9), rng.randint(1, 4))
        for _ in range((1 << ground.n) - 1)
    ]
    return SetFunction(ground, tuple(values))


@pytest.fixture
def rng():
    return random.Random(20240817)


# Brute-force oracle for `symmetrize`: the explicit block-permutation
# group and its pullback action on set functions.


@dataclass(frozen=True)
class BlockPermutation:
    """Bijection of {1..n}; `mapping[i-1]` is the image of element i."""

    mapping: tuple

    def __post_init__(self) -> None:
        m = tuple(self.mapping)
        object.__setattr__(self, "mapping", m)
        if sorted(m) != list(range(1, len(m) + 1)):
            raise ValueError("mapping is not a bijection of 1..n")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def of_mask(self, mask: int) -> int:
        out = 0
        i = 1
        while mask:
            if mask & 1:
                out |= 1 << (self.mapping[i - 1] - 1)
            mask >>= 1
            i += 1
        return out

    def compose(self, other: "BlockPermutation") -> "BlockPermutation":
        """self after other: (self . other)(i) = self(other(i))."""
        return BlockPermutation(
            tuple(self.mapping[other.mapping[i] - 1] for i in range(self.n))
        )

    @classmethod
    def identity(cls, n: int) -> "BlockPermutation":
        return cls(tuple(range(1, n + 1)))

    def preserves(self, p: Partition) -> bool:
        return all(
            self.of_mask(b) == b for b in p.blocks
        )


def block_permutations(p: Partition) -> Iterator[BlockPermutation]:
    """All permutations fixing each block of p setwise.

    The group has size prod(n_i!); intended for small grounds where it
    serves as the brute-force averaging oracle.
    """
    per_block = []
    for b in p.blocks:
        els = elements_of(b)
        per_block.append([dict(zip(els, img)) for img in permutations(els)])
    n = p.ground.n
    for combo in product(*per_block):
        mapping = list(range(1, n + 1))
        for block_map in combo:
            for src, dst in block_map.items():
                mapping[src - 1] = dst
        yield BlockPermutation(tuple(mapping))


def apply_to_function(sigma: BlockPermutation, h: SetFunction) -> SetFunction:
    """Pullback action: result(A) = h(sigma(A))."""
    if sigma.n != h.n:
        raise ValueError("permutation size does not match ground set")
    return SetFunction(
        h.ground, tuple(h.values[sigma.of_mask(a)] for a in h.ground.subsets())
    )


def fraction_rank(rows) -> int:
    """Rank by Fraction Gauss elimination, sharing no code with symcone."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def fraction_gauss_jordan(rows) -> list:
    """`(index, pivot_col, row)` of the rows kept by Gauss-Jordan
    elimination over Fractions, sharing no code with symcone.

    Rows are taken in listed order; each is reduced against the kept
    rows and kept when it is nonzero, with its pivot at its first
    nonzero column.  Every kept row is scaled to 1 at its pivot and
    is 0 at the other pivot columns: the reduced row echelon form of
    the kept rows, up to row order."""
    kept = []
    for index, row in enumerate(rows):
        v = [Fraction(x) for x in row]
        for _, col, r in kept:
            f = v[col]
            v = [a - f * b for a, b in zip(v, r)]
        col = next((j for j, x in enumerate(v) if x), None)
        if col is None:
            continue
        v = [x / v[col] for x in v]
        kept = [(i, c, [a - r[col] * b for a, b in zip(r, v)])
                for i, c, r in kept]
        kept.append((index, col, v))
    return kept


def fraction_det(square) -> Fraction:
    """Determinant by Fraction Gauss elimination with row swaps."""
    m = [[Fraction(x) for x in r] for r in square]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _primitive(vec) -> tuple:
    g = math.gcd(*vec)
    return tuple(x // g for x in vec)


def is_certified_ray(rows, vec) -> bool:
    """`vec` lies in {x : row . x >= 0} and its tight rows have rank dim - 1."""
    values = [sum(a * b for a, b in zip(row, vec)) for row in rows]
    tight = [row for row, v in zip(rows, values) if v == 0]
    return all(v >= 0 for v in values) and fraction_rank(tight) == len(vec) - 1


def brute_force_rays(rows, dim: int) -> set:
    """Extreme rays of {x : row . x >= 0} by brute force over row subsets.

    Walks every independent set of dim - 1 rows, in index order, keeping
    an integer basis of the kernel of the rows chosen so far.  Each full
    set leaves a one-dimensional kernel; a direction of it that lies in
    the cone with tight rows of rank dim - 1 is an extreme ray.
    """
    rows = [tuple(r) for r in rows]
    verdicts: dict = {}

    def walk(start: int, kernel: list) -> None:
        if len(kernel) == 1:
            x = _primitive(kernel[0])
            for vec in (x, tuple(-a for a in x)):
                if vec not in verdicts:
                    verdicts[vec] = is_certified_ray(rows, vec)
            return
        for j in range(start, len(rows) - len(kernel) + 2):
            coeffs = [sum(a * b for a, b in zip(rows[j], k)) for k in kernel]
            p = next((i for i, c in enumerate(coeffs) if c), None)
            if p is None:
                continue
            walk(j + 1, [
                _primitive([coeffs[p] * a - coeffs[i] * b
                            for a, b in zip(k, kernel[p])])
                for i, k in enumerate(kernel) if i != p
            ])

    walk(0, [tuple(int(i == j) for j in range(dim)) for i in range(dim)])
    return {vec for vec, ok in verdicts.items() if ok}


def reference_clear_denominators(vec) -> tuple:
    """`(ints, m)` by three list passes: convert, lcm of the
    denominators, scale.  The reference for `setfn._clear_denominators`."""
    vals = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    m = math.lcm(*[x.denominator for x in vals])
    if m == 1:
        return [x.numerator for x in vals], 1
    return [x.numerator * (m // x.denominator) for x in vals], m


def reference_facet_reduction(p: Partition, cone) -> bool:
    """`facet_reduction_check(p)` against the rows of `cone`, one facet
    at a time: every elemental facet's own `facet_orbit_label` must
    label a row of `cone` whose coefficients are the facet's own
    `reduced_facet_row`, the row labels must be distinct, and every
    one must be hit."""
    by_label = {label: coeffs for coeffs, label in cone.rows}
    if len(by_label) != len(cone.rows):
        return False
    hit = set()
    for fid in elemental_rows(p.ground):
        label = facet_orbit_label(fid, p)
        if by_label.get(label) != reduced_facet_row(fid, p):
            return False
        hit.add(label)
    return hit == set(by_label)


# Fraction references for the integer kernels of `HCone.contains`,
# `HCone.row_values`, `polymatroid_violation` and the symmetry check.
# They share no code with symcone: rows are plain coefficient tuples and
# set functions plain value sequences indexed by mask.


def fraction_row_values(rows, v) -> list:
    """Row values in Fractions; ints when every entry of v is an int."""
    vals = [Fraction(x) for x in v]
    out = [sum((Fraction(c) * x for c, x in zip(row, vals)), Fraction(0))
           for row in rows]
    if all(isinstance(x, int) for x in v):
        return [int(x) for x in out]
    return out


def fraction_contains(rows, v) -> bool:
    return all(x >= 0 for x in fraction_row_values(rows, v))


def fraction_first_violation(values, n: int):
    """`(I, K)` masks of the first violated elemental inequality, or None.

    Order: E(i) for i = 1..n, then E(i,j|K) for i < j with K ascending.
    """
    vals = [Fraction(x) for x in values]
    full = (1 << n) - 1
    for i in range(n):
        if vals[full] - vals[full & ~(1 << i)] < 0:
            return (1 << i, 0)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            for k in range(full + 1):
                if k & (a | b):
                    continue
                if vals[k | a] + vals[k | b] - vals[k] - vals[k | a | b] < 0:
                    return (a | b, k)
    return None


def dense_elemental_rows(n: int) -> list:
    """`(coefficients, (I, K))` for each elemental inequality, straight
    from the definition, over the 2**n - 1 nonempty-subset coordinates
    (coordinate m - 1 for mask m): h(N) - h(N - i) >= 0 for i = 1..n,
    then I(i;j|K) >= 0 for i < j and K ascending, in the order of
    `fraction_first_violation`."""
    full = (1 << n) - 1

    def dense(terms):
        coeffs = [0] * full
        for mask, c in terms:
            if mask:
                coeffs[mask - 1] += c
        return tuple(coeffs)

    rows = [(dense([(full, 1), (full & ~(1 << i), -1)]), (1 << i, 0))
            for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a, b = 1 << i, 1 << j
            for k in range(full + 1):
                if not k & (a | b):
                    terms = [(k | a, 1), (k | b, 1), (k, -1), (k | a | b, -1)]
                    rows.append((dense(terms), (a | b, k)))
    return rows


def fraction_symmetry_violation(values, blocks):
    """`(first, a)`: the first mask whose value differs from the value on
    the first mask seen with the same per-block counts, or None."""
    seen = {}
    for a, x in enumerate(values):
        counts = tuple(bin(a & b).count("1") for b in blocks)
        first = seen.setdefault(counts, a)
        if Fraction(x) != Fraction(values[first]):
            return (first, a)
    return None


def dense_witness_gate(h: SetFunction, p: Partition):
    """The witness gate read off the dense function, the oracle of the
    reduced Psi_p gate: "polymatroid" unless every elemental inequality
    holds (`fraction_first_violation`), else "symmetry" unless h is
    p-symmetric, else None."""
    if fraction_first_violation(h.values, h.n) is not None:
        return "polymatroid"
    if fraction_symmetry_violation(h.values, p.blocks) is not None:
        return "symmetry"
    return None


# Fraction-tableau simplex, the reference for the integer `conic_decompose`.


def _fraction_generator(g, dim: int) -> tuple:
    vec = g.direction if isinstance(g, Ray) else tuple(g)
    if len(vec) != dim:
        raise ValueError("generator dimension mismatch")
    return tuple(Fraction(x) for x in vec)


def fraction_conic_decompose(v, generators) -> DecomposeResult:
    """Phase-1 simplex with Bland's rule over Fractions.

    Solves min sum(artificials) subject to G c + D a = v, c, a >= 0; a
    positive optimum yields the separating functional from the final
    multipliers.
    """
    target = tuple(Fraction(x) for x in v)
    d = len(target)
    gens = [_fraction_generator(g, d) for g in generators]
    k = len(gens)

    sign = [1 if target[i] >= 0 else -1 for i in range(d)]
    # tableau: k generator columns, d artificial columns, rhs
    width = k + d + 1
    tab = []
    for i in range(d):
        row = [sign[i] * gens[j][i] for j in range(k)]
        row += [Fraction(1 if idx == i else 0) for idx in range(d)]
        row.append(sign[i] * target[i])
        tab.append(row)
    obj = [Fraction(0)] * width
    for i in range(d):
        for j in range(width):
            obj[j] -= tab[i][j]
    for i in range(d):
        obj[k + i] = Fraction(0)

    basis = [k + i for i in range(d)]
    while True:
        enter = next((j for j in range(k + d) if obj[j] < 0), None)
        if enter is None:
            break
        best = None
        for i in range(d):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        _, leave = best
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(d):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tab[leave])]
        basis[leave] = enter

    objective = -obj[-1]
    if objective > 0:
        w = tuple(sign[i] * (obj[k + i] - 1) for i in range(d))
        if not (all(sum(w[i] * g[i] for i in range(d)) >= 0 for g in gens)
                and sum(w[i] * target[i] for i in range(d)) < 0):
            raise ArithmeticError("Farkas certificate does not separate")
        return DecomposeResult(False, certificate=w)

    coeffs = [Fraction(0)] * k
    for i, bv in enumerate(basis):
        if bv < k:
            coeffs[bv] = tab[i][-1]
    if any(sum(coeffs[j] * gens[j][i] for j in range(k)) != target[i]
           for i in range(d)):
        raise ArithmeticError("coefficients do not rebuild the target")
    return DecomposeResult(True, coefficients=tuple(coeffs))
