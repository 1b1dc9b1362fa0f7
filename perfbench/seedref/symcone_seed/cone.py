"""Homogeneous inequality cones, extreme-ray enumeration, and exact
conic decomposition.

All coefficient arithmetic is integer or rational.  The extreme-ray
enumerator is an incremental double description: start from a
simplicial subcone picked from independent rows, then insert the
remaining rows one at a time, combining adjacent positive/negative
ray pairs.  Adjacency is decided by the rank of the common tight rows.
Conic decomposition is a phase-1 rational simplex with Bland's rule;
infeasibility yields a separating functional.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Iterable, Optional, Sequence

from .partitions import Partition, partition_vector
from .setfn import (
    GroundSet,
    UnsupportedSizeError,
    elemental_facet_ids,
    elemental_form,
    is_polymatroid,
)
from .symmetry import SymIndexSet, facet_orbit_label, orbit_labels, to_sym

DEFAULT_MAX_DIM = 20


class NotPointedError(ValueError):
    """The cone contains a line; carries one direction of it."""

    def __init__(self, direction: tuple):
        self.direction = direction
        super().__init__(f"cone is not pointed; contains the line through {direction}")


def _content_normalize(vec: Sequence[int]) -> tuple:
    g = 0
    for x in vec:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in vec)


def _clear_denominators(vec) -> tuple:
    fracs = [Fraction(x) for x in vec]
    lcm = 1
    for f in fracs:
        lcm = lcm * f.denominator // gcd(lcm, f.denominator)
    return tuple(int(f * lcm) for f in fracs)


@dataclass(frozen=True)
class Ray:
    """Primitive integer direction of a 1-dimensional face."""

    direction: tuple

    def __post_init__(self) -> None:
        d = tuple(int(x) for x in self.direction)
        object.__setattr__(self, "direction", d)
        g = 0
        for x in d:
            g = gcd(g, x)
        if g != 1:
            raise ValueError("ray direction must be a primitive integer vector")


def normalize_ray(vec) -> Ray:
    """Clear denominators and divide out the content.

    The orientation is flipped to make the first nonzero component
    positive; for directions inside the cones built here all
    components are nonnegative, so this never leaves the cone.
    """
    ints = _clear_denominators(vec)
    ints = _content_normalize(ints)
    first = next(x for x in ints if x)
    if first < 0:
        ints = tuple(-x for x in ints)
    return Ray(ints)


@dataclass(frozen=True)
class HCone:
    """System of homogeneous `coeffs . x >= 0` rows with labels.

    `coords` optionally names the coordinates (count tuples for reduced
    cones, subset masks for the full cone).
    """

    dim: int
    rows: tuple  # tuple of (coeffs: tuple[int, ...], label)
    coords: Optional[tuple] = None

    def __post_init__(self) -> None:
        seen = set()
        norm = []
        for coeffs, label in self.rows:
            ints = _clear_denominators(coeffs)
            if len(ints) != self.dim:
                raise ValueError("row length does not match dimension")
            if not any(ints):
                raise ValueError("zero row")
            ints = _content_normalize(ints)
            if ints in seen:
                raise ValueError(f"duplicate row {ints}")
            seen.add(ints)
            norm.append((ints, label))
        object.__setattr__(self, "rows", tuple(norm))
        if self.coords is not None and len(self.coords) != self.dim:
            raise ValueError("coordinate labels do not match dimension")

    @cached_property
    def _sparse(self) -> tuple:
        return tuple(
            tuple((i, c) for i, c in enumerate(coeffs) if c)
            for coeffs, _ in self.rows
        )

    def row_values(self, v: Sequence) -> list:
        vals = list(v)
        if len(vals) != self.dim:
            raise ValueError("vector length does not match cone dimension")
        return [sum(c * vals[i] for i, c in sparse) for sparse in self._sparse]

    def contains(self, v: Sequence) -> bool:
        vals = list(v)
        if len(vals) != self.dim:
            raise ValueError("vector length does not match cone dimension")
        zero = Fraction(0)
        for sparse in self._sparse:
            if sum((c * vals[i] for i, c in sparse), zero) < 0:
                return False
        return True

    def tight_labels(self, v: Sequence) -> list:
        return [
            label
            for (coeffs, label), value in zip(self.rows, self.row_values(v))
            if value == 0
        ]

    def drop_row(self, index: int) -> "HCone":
        rows = tuple(r for i, r in enumerate(self.rows) if i != index)
        return HCone(self.dim, rows, self.coords)

    def to_text(self) -> str:
        """Header `dim t labels`, then one `label: c_1 ... c_dim` row per line."""
        lines = [f"{self.dim} {len(self.rows)} labels"]
        for coeffs, label in self.rows:
            lines.append(f"{label}: " + " ".join(str(c) for c in coeffs))
        return "\n".join(lines)


def contains(c: HCone, v: Sequence) -> bool:
    return c.contains(v)


# ---------------------------------------------------------------------------
# H-representations


def _unit(t: int, positions, weight: int = 1) -> tuple:
    out = [0] * t
    for pos in positions:
        out[pos] += weight
    return tuple(out)


def psi_p_hrep(p: Partition) -> HCone:
    """Reduced cone of symmetric polymatroids, one row per facet orbit.

    Coordinates are the count tuples except the all-zero origin, in
    lexicographic order; any origin coefficient is dropped since the
    origin coordinate is identically zero.
    """
    index = SymIndexSet(p)
    free = index.free_tuples
    pos = {tup: i for i, tup in enumerate(free)}
    t = p.t
    sizes = p.block_sizes
    rows = []
    for label in orbit_labels(p):
        coeffs = [0] * len(free)

        def add(tup, w):
            if any(tup):
                coeffs[pos[tup]] += w

        touched = [i - 1 for i in label.blocks_touched()]
        if label.kind == "A":
            (l,) = touched
            top = tuple(sizes)
            below = tuple(s - (1 if i == l else 0) for i, s in enumerate(sizes))
            add(top, 1)
            add(below, -1)
        elif label.kind == "B":
            l1, l2 = touched
            k = label.lambda_K
            add(tuple(k[i] + (1 if i == l1 else 0) for i in range(t)), 1)
            add(tuple(k[i] + (1 if i == l2 else 0) for i in range(t)), 1)
            add(k, -1)
            add(tuple(k[i] + (1 if i in (l1, l2) else 0) for i in range(t)), -1)
        else:
            (l,) = touched
            k = label.lambda_K
            add(tuple(k[i] + (1 if i == l else 0) for i in range(t)), 2)
            add(k, -1)
            add(tuple(k[i] + (2 if i == l else 0) for i in range(t)), -1)
        rows.append((tuple(coeffs), label))
    return HCone(len(free), tuple(rows), coords=free)


def gamma_n_hrep(ground: GroundSet) -> HCone:
    """Full elemental system over the 2**n - 1 nonempty-subset coordinates."""
    dim = ground.full_mask
    rows = []
    for fid in elemental_facet_ids(ground):
        coeffs = [0] * dim
        for mask, c in elemental_form(ground, fid).coeffs:
            coeffs[mask - 1] += int(c)
        rows.append((tuple(coeffs), fid))
    return HCone(dim, tuple(rows), coords=tuple(range(1, dim + 1)))


def reduced_facet_row(fid, p: Partition) -> tuple:
    """Elemental form of a facet summed per count tuple, origin dropped."""
    index = SymIndexSet(p)
    free = index.free_tuples
    pos = {tup: i for i, tup in enumerate(free)}
    coeffs = [0] * len(free)
    for mask, c in elemental_form(p.ground, fid).coeffs:
        tup = partition_vector(mask, p)
        if any(tup):
            coeffs[pos[tup]] += int(c)
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Exact linear algebra helpers (Fraction Gauss; sizes here are tiny)


def _echelon(rows: Iterable[Sequence]) -> list:
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    out = []
    pivot_col = 0
    r = 0
    while r < len(m) and pivot_col < ncols:
        piv = next((i for i in range(r, len(m)) if m[i][pivot_col] != 0), None)
        if piv is None:
            pivot_col += 1
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][pivot_col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][pivot_col] != 0:
                f = m[i][pivot_col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        out.append((r, pivot_col))
        r += 1
        pivot_col += 1
    return m, out


def _row_rank(rows) -> int:
    if not rows:
        return 0
    _, pivots = _echelon(rows)
    return len(pivots)


def _kernel_direction(rows, dim: int) -> Optional[tuple]:
    """A nonzero integer vector orthogonal to all rows, if one exists."""
    if not rows:
        return tuple([1] + [0] * (dim - 1)) if dim else None
    m, pivots = _echelon(rows)
    pivot_cols = {c for _, c in pivots}
    free_col = next((c for c in range(dim) if c not in pivot_cols), None)
    if free_col is None:
        return None
    x = [Fraction(0)] * dim
    x[free_col] = Fraction(1)
    for r, c in reversed(pivots):
        x[c] = -sum(m[r][j] * x[j] for j in range(c + 1, dim))
    return _content_normalize(_clear_denominators(x))


def _greedy_basis(rows, dim: int) -> list:
    """Indices of the first rows forming a full-rank square system."""
    chosen: list = []
    basis_rows: list = []
    for i, row in enumerate(rows):
        if _row_rank(basis_rows + [row]) > len(basis_rows):
            chosen.append(i)
            basis_rows.append(row)
            if len(chosen) == dim:
                return chosen
    return chosen


def _solve_unit(square_rows, j: int) -> tuple:
    """Integer solution of B x = c * e_j with c > 0."""
    d = len(square_rows)
    aug = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0)]
           for i, row in enumerate(square_rows)]
    for col in range(d):
        piv = next(i for i in range(col, d) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(d):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    x = [aug[i][d] for i in range(d)]
    return _content_normalize(_clear_denominators(x))


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def extreme_rays(c: HCone, max_dim: int = DEFAULT_MAX_DIM) -> list:
    """All extreme rays of a pointed cone, lexicographically sorted.

    Rows are inserted in ascending tight-ray-count order; the order is
    a heuristic only and the output is independent of it.
    """
    d = c.dim
    if d > max_dim:
        raise UnsupportedSizeError(
            f"cone dimension {d} exceeds the enumeration cap {max_dim}"
        )
    all_rows = [coeffs for coeffs, _ in c.rows]
    if _row_rank(all_rows) < d:
        raise NotPointedError(_kernel_direction(all_rows, d))

    basis_idx = _greedy_basis(all_rows, d)
    square = [all_rows[i] for i in basis_idx]
    rays = [_solve_unit(square, j) for j in range(d)]
    processed = list(basis_idx)
    remaining = [i for i in range(len(all_rows)) if i not in set(basis_idx)]

    while remaining:
        best = min(
            remaining,
            key=lambda i: (sum(1 for r in rays if _dot(all_rows[i], r) == 0), i),
        )
        remaining.remove(best)
        row = all_rows[best]
        vals = [_dot(row, r) for r in rays]
        pos = [r for r, v in zip(rays, vals) if v > 0]
        zero = [r for r, v in zip(rays, vals) if v == 0]
        neg = [(r, v) for r, v in zip(rays, vals) if v < 0]
        if neg:
            tight = {
                id(r): frozenset(
                    i for i in processed if _dot(all_rows[i], r) == 0
                )
                for r in rays
            }
            vals_by_id = {id(r): v for r, v in zip(rays, vals)}
            new_rays = []
            for rp in pos:
                for rn, vn in neg:
                    common = tight[id(rp)] & tight[id(rn)]
                    if len(common) < d - 2:
                        continue
                    if _row_rank([all_rows[i] for i in common]) != d - 2:
                        continue
                    vp = vals_by_id[id(rp)]
                    combo = [vp * y - vn * x for x, y in zip(rp, rn)]
                    new_rays.append(_content_normalize(combo))
            rays = pos + zero + new_rays
        processed.append(best)

    return [Ray(r) for r in sorted(rays)]


# ---------------------------------------------------------------------------
# Exact conic decomposition (phase-1 simplex, Bland's rule)


@dataclass(frozen=True)
class DecomposeResult:
    """Outcome of a conic decomposition.

    Feasible: `coefficients[i]` is the weight of generator i.
    Infeasible: `certificate` is a functional w with w.g >= 0 for every
    generator g and w.v < 0 for the target.
    """

    feasible: bool
    coefficients: Optional[tuple] = None
    certificate: Optional[tuple] = None


def _generator_vector(g, dim: int) -> tuple:
    vec = g.direction if isinstance(g, Ray) else tuple(g)
    if len(vec) != dim:
        raise ValueError("generator dimension mismatch")
    return tuple(Fraction(x) for x in vec)


def conic_decompose(v: Sequence, generators: Sequence) -> DecomposeResult:
    """Express v as a nonnegative combination of the generators, exactly.

    Solves the phase-1 problem min sum(artificials) subject to
    G c + D a = v, c, a >= 0 with rational pivoting; a positive optimum
    yields the separating functional from the final multipliers.
    """
    target = tuple(Fraction(x) for x in v)
    d = len(target)
    gens = [_generator_vector(g, d) for g in generators]
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
        assert all(
            sum(w[i] * g[i] for i in range(d)) >= 0 for g in gens
        ) and sum(w[i] * target[i] for i in range(d)) < 0
        return DecomposeResult(False, certificate=w)

    coeffs = [Fraction(0)] * k
    for i, bv in enumerate(basis):
        if bv < k:
            coeffs[bv] = tab[i][-1]
    assert all(
        sum(coeffs[j] * gens[j][i] for j in range(k)) == target[i]
        for i in range(d)
    )
    return DecomposeResult(True, coefficients=tuple(coeffs))


# ---------------------------------------------------------------------------
# Orbit reduction check


def facet_reduction_check(p: Partition, samples: int = 20, seed: int = 0) -> bool:
    """Confirm the facet system of the reduced cone.

    Checks that (a) facets sharing an orbit label reduce to the exact
    same row, matching the closed-form row for that label; (b) rows of
    distinct labels are pairwise non-proportional; (c) membership in
    the full elemental cone and in the reduced cone agree on random
    symmetric functions.
    """
    from .families import random_symmetric_function

    reduced = psi_p_hrep(p)
    by_label = {label: coeffs for coeffs, label in reduced.rows}
    if len(by_label) != len(reduced.rows):
        return False

    seen_labels = set()
    for fid in elemental_facet_ids(p.ground):
        label = facet_orbit_label(fid, p)
        if label not in by_label:
            return False
        if reduced_facet_row(fid, p) != by_label[label]:
            return False
        seen_labels.add(label)
    if seen_labels != set(by_label):
        return False

    directions = {_content_normalize(coeffs) for coeffs, _ in reduced.rows}
    if len(directions) != len(reduced.rows):
        return False

    full = gamma_n_hrep(p.ground)
    rng = random.Random(seed)
    for _ in range(samples):
        h = random_symmetric_function(p, rng)
        in_full = full.contains(h.values[1:])
        in_reduced = reduced.contains(to_sym(h, p).free_values())
        if in_full != in_reduced:
            return False
        if in_full != is_polymatroid(h):
            return False
    return True
