"""Homogeneous inequality cones, extreme-ray enumeration, and exact
conic decomposition.

All coefficient arithmetic is integer or rational.  Elemental rows go
through `symmetry.reduce_form`; orbit rows are a closed form.  The
extreme-ray enumerator is an incremental double description over
Python ints: one fraction-free elimination picks independent rows B
and its tags give B^-1, a simplicial subcone; the remaining rows are
inserted one at a time, in the order the cone lists them, combining
adjacent positive/negative ray pairs.  Tight sets are int bitmasks and
adjacency is combinatorial: no third ray is tight on all the rows the
pair shares.  The adjacency test reads an incidence table, one
bitmask of tight rays per row, rebuilt for each inserted row by one
transpose of the tight masks: each is written as a fixed-width binary
string, `zip` takes the columns and `int(..., 2)` reads each back.
Membership tests scale each input to integers once, in one
`as_integer_ratio()` pass, and take integer dot products.  Every
row of the cones built here is an elemental inequality, at most two
+1 and two -1 unit terms, so each cone evaluates its rows through one
unit-term kernel, `x[i] + x[j] - x[k] - x[l]`: membership, row values
and the values of an inserted row over the current rays all read it.
A cone with any other row keeps a sparse loop.  Conic
decomposition is a phase-1 simplex with Bland's rule on a
fraction-free integer tableau; infeasibility yields a separating
functional.  The elimination and the simplex update rows through one
Bareiss pivot step, `_pivot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import gcd
from typing import Optional, Sequence

from .partitions import Partition
from .setfn import (
    GroundSet,
    UnsupportedSizeError,
    _clear_denominators,
    elemental_rows,
)
from .symmetry import facet_keys, orbit_labels, reduce_form

DEFAULT_MAX_DIM = 20


class NotPointedError(ValueError):
    """The cone contains a line; carries one direction of it."""

    def __init__(self, direction: tuple):
        self.direction = direction
        super().__init__(f"cone is not pointed; contains the line through {direction}")


def _content_normalize(vec: Sequence[int]) -> tuple:
    """`vec` divided by the gcd of its entries, as a tuple.  Most
    vectors met in elimination and double description already have
    content 1, and those are returned without a division."""
    g = gcd(*vec)
    if g == 1:
        return tuple(vec)
    if g == 0:
        raise ValueError("zero vector has no direction")
    return tuple(x // g for x in vec)


def _integer_entry(x) -> int:
    """`x` as an int, if it is integral by `as_integer_ratio()`."""
    try:
        num, den = x.as_integer_ratio()
    except (AttributeError, OverflowError, ValueError):
        den = None
    if den != 1:
        raise ValueError(f"ray direction entry {x!r} is not an integer")
    return num


@dataclass(frozen=True)
class Ray:
    """Primitive integer direction of a 1-dimensional face.

    `tight`, when set, is the bitmask of the rows of the cone the ray
    came from on which it is zero: bit i stands for `rows[i]`.
    `extreme_rays` sets it; `normalize_ray` leaves it None.  Equality
    and hashing use `direction` only.  A tuple of ints is kept as
    given; any other entry must be integral by `as_integer_ratio()`
    and is stored as an int, so `Ray((1.5, 2))` raises ValueError.
    """

    direction: tuple
    tight: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        d = self.direction
        if type(d) is not tuple or set(map(type, d)) != {int}:
            d = tuple(map(_integer_entry, d))
            object.__setattr__(self, "direction", d)
        if gcd(*d) != 1:
            raise ValueError("ray direction must be a primitive integer vector")


def normalize_ray(vec) -> Ray:
    """Clear denominators and divide out the content.

    The orientation is flipped to make the first nonzero component
    positive; for directions inside the cones built here all
    components are nonnegative, so this never leaves the cone.
    """
    ints = _content_normalize(_clear_denominators(vec)[0])
    first = next(x for x in ints if x)
    if first < 0:
        ints = tuple(-x for x in ints)
    return Ray(ints)


@dataclass(frozen=True)
class HCone:
    """System of homogeneous `coeffs . x >= 0` rows with labels.

    `coords` optionally names the coordinates (count tuples for reduced
    cones, subset masks for the full cone).  A row tuple of ints that
    normalizing leaves unchanged is kept as given, so cones built from
    another cone's rows share them.  The rows are evaluated through a
    kernel built on first use: when every row is at most two +1 and two
    -1 unit terms, a coefficient of +-2 being its index twice, each row
    is one `(i, j, k, l)` and its value at x is
    `x[i] + x[j] - x[k] - x[l]`, a missing term pointing at a zero slot
    appended to x at index `dim`; otherwise every row is summed over
    its `(index, coeff)` pairs.  `extreme_rays` sums a kernel row with
    a missing term over its pairs too, so its rays carry no zero slot.
    """

    dim: int
    rows: tuple  # tuple of (coeffs: tuple[int, ...], label)
    coords: Optional[tuple] = None

    def __post_init__(self) -> None:
        seen = set()
        norm = []
        for coeffs, label in self.rows:
            if type(coeffs) is not tuple or set(map(type, coeffs)) != {int}:
                coeffs, _ = _clear_denominators(coeffs)
            if len(coeffs) != self.dim:
                raise ValueError("row length does not match dimension")
            if not any(coeffs):
                raise ValueError("zero row")
            ints = _content_normalize(coeffs)
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

    @cached_property
    def _kernel(self) -> Optional[tuple]:
        """One `(i, j, k, l)` per row, its value `x[i] + x[j] - x[k] - x[l]`,
        or None if a row is not of that form; built from the rows, so
        `contains` and `row_values` on a kernel cone never build `_sparse`."""
        flat, pad = [], [self.dim] * 2
        for coeffs, _ in self.rows:
            plus, minus = [], []
            for i, c in enumerate(coeffs):
                if c:
                    if not -2 <= c <= 2:
                        return None
                    (plus if c > 0 else minus).extend((i,) * abs(c))
            if len(plus) > 2 or len(minus) > 2:
                return None
            flat.append(tuple((plus + pad)[:2] + (minus + pad)[:2]))
        return tuple(flat)

    def _scaled(self, v: Sequence) -> tuple:
        ints, m = _clear_denominators(v)
        if len(ints) != self.dim:
            raise ValueError("vector length does not match cone dimension")
        return ints, m

    def row_values(self, v: Sequence) -> list:
        """Value of each row at v: ints when every entry of v is an
        int, Fractions otherwise.  A vector of plain ints (`type(y) is
        int`, so no bool) is read as it is; any other goes through
        `_scaled` first and its sums are divided back by the scale."""
        vals = list(v)
        if set(map(type, vals)) == {int}:
            if len(vals) != self.dim:
                raise ValueError("vector length does not match cone dimension")
            x, m = vals, None
        else:
            x, m = self._scaled(vals)
            if all(isinstance(y, int) for y in vals):
                m = None
        kernel = self._kernel
        if kernel is None:
            sums = [sum(c * x[i] for i, c in sparse) for sparse in self._sparse]
        else:
            x.append(0)
            sums = [x[i] + x[j] - x[k] - x[l] for i, j, k, l in kernel]
        if m is None:
            return sums
        return [Fraction(s, m) for s in sums]

    def contains(self, v: Sequence) -> bool:
        x, _ = self._scaled(v)
        kernel = self._kernel
        if kernel is None:
            return all(sum(c * x[i] for i, c in sparse) >= 0
                       for sparse in self._sparse)
        x.append(0)
        for i, j, k, l in kernel:
            if x[i] + x[j] < x[k] + x[l]:
                return False
        return True

    def tight_labels(self, v: Sequence) -> list:
        return [
            label
            for (coeffs, label), value in zip(self.rows, self.row_values(v))
            if value == 0
        ]

    def to_text(self) -> str:
        """Header `dim t labels`, then one `label: c_1 ... c_dim` row per line."""
        lines = [f"{self.dim} {len(self.rows)} labels"]
        for coeffs, label in self.rows:
            lines.append(f"{label}: " + " ".join(str(c) for c in coeffs))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# H-representations


@cache
def psi_p_hrep(p: Partition) -> HCone:
    """Reduced cone of symmetric polymatroids, one row per facet orbit.

    Built once per partition: equal partitions share one immutable
    cone for the life of the process.

    Coordinates are `p.count_tuples` except the all-zero origin; the
    origin coordinate is identically zero, so its coefficient is
    dropped.  Write [x] for the coordinate at position x of
    `p.count_tuples`, r for the position of lambda_K, s_l for
    `p.strides[l]` (adding 1 to k_l adds s_l to the position) and `top`
    for the position of the full tuple (n_1, ..., n_t).  The row of each
    label is, in closed form:

    - A, block l:          [top] - [top - s_l];
    - B, blocks l1 < l2:   [r + s_l1] + [r + s_l2] - [r] - [r + s_l1 + s_l2];
    - C, block l:          2 [r + s_l] - [r] - [r + 2 s_l].
    """
    coords = p.count_tuples[1:]
    top = len(coords)
    rows = []
    for label in orbit_labels(p):
        touched = [p.strides[i - 1] for i in label.blocks_touched()]
        r = p.count_positions[label.lambda_K]
        if label.kind == "A":
            (s,) = touched
            terms = ((top, 1), (top - s, -1))
        elif label.kind == "B":
            s1, s2 = touched
            terms = ((r + s1, 1), (r + s2, 1), (r, -1), (r + s1 + s2, -1))
        else:
            (s,) = touched
            terms = ((r + s, 2), (r, -1), (r + 2 * s, -1))
        coeffs = [0] * len(coords)
        for x, w in terms:
            if x:
                coeffs[x - 1] = w
        rows.append((tuple(coeffs), label))
    return HCone(len(coords), tuple(rows), coords=coords)


@cache
def gamma_n_hrep(ground: GroundSet) -> HCone:
    """Full elemental system over the 2**n - 1 nonempty-subset coordinates.

    One row per entry of `elemental_rows`, in its order: `reduce_form`
    of +1 at a, b and -1 at c, d by the identity index.  Built once per
    ground set: equal ground sets share one immutable cone for the life
    of the process."""
    dim = ground.full_mask
    identity = (ground.subsets(), ground.subsets())
    rows = tuple(
        (reduce_form(zip(masks, (1, 1, -1, -1)), identity), fid)
        for fid, masks in elemental_rows(ground).items()
    )
    return HCone(dim, rows, coords=tuple(range(1, dim + 1)))


def reduced_facet_row(fid, p: Partition) -> tuple:
    """`reduce_form` of a facet's `elemental_rows` entry by
    `p.count_index`: the per-facet reference for the closed-form rows of
    `psi_p_hrep`.  ValueError if `fid` names no row."""
    masks = elemental_rows(p.ground).get(fid)
    if masks is None:
        raise ValueError("facet id out of range for ground set")
    return reduce_form(zip(masks, (1, 1, -1, -1)), p.count_index)


# ---------------------------------------------------------------------------
# Exact linear algebra: one Bareiss pivot step over Python ints, shared
# by the elimination and the simplex


def _pivot(tab: list, r: int, col: int, den: int) -> int:
    """One fraction-free pivot on `tab[r][col]`, in place (Bareiss).

    Every other row becomes `(p*row - row[col]*tab[r]) // den`, where
    p is the pivot; the division is exact when `den` is the previous
    pivot (1 at the first).  A row that is 0 in `col` is only rescaled,
    and left as it is when `p == den`.  Returns p, the next `den`.
    """
    row = tab[r]
    p = row[col]
    for i, other in enumerate(tab):
        if i == r:
            continue
        f = other[col]
        if f:
            tab[i] = [(p * a - f * b) // den for a, b in zip(other, row)]
        elif p != den:
            tab[i] = [p * a // den for a in other]
    return p


def _eliminate(rows: Sequence[Sequence[int]]) -> tuple:
    """Fraction-free Gauss-Jordan elimination, one row at a time.

    Each row is reduced against the rows kept so far as
    `den*row - sum(row[c_i] * R_i)` and is kept when it is nonzero;
    its first nonzero entry becomes its pivot, and `_pivot` clears that
    column from the kept rows.  Stops at one pivot per column.  Each
    row carries a tag block after its coefficients: the combination of
    kept input rows it is, by kept position, so the tags times the kept
    input rows give the coefficients.  Returns `(kept, den)`: kept is
    `(index, pivot_col, row)` for the first rows spanning the row space,
    every row holds `den` at its own pivot column and 0 at the others,
    and `den` is the last pivot.
    """
    n = len(rows[0]) if rows else 0
    tab, kept, den = [], [], 1
    for index, row in enumerate(rows):
        v = [den * a for a in row] + [0] * n
        v[n + len(kept)] = den
        for (_, c), r in zip(kept, tab):
            f = row[c]
            if f:
                v = [a - f * b for a, b in zip(v, r)]
        col = next((j for j in range(n) if v[j]), None)
        if col is None:
            continue
        tab.append(v)
        den = _pivot(tab, len(kept), col, den)
        kept.append((index, col))
        if len(kept) == n:
            break
    return [(i, c, r) for (i, c), r in zip(kept, tab)], den


def _incidence(tight: Sequence[int], width: int) -> list:
    """The transpose of the tight masks: entry i is the bitmask over
    ray indices k with bit i set in `tight[k]`, for i < `width`.

    Each mask is written as a `width`-digit binary string, rays in
    reverse order; `zip` takes the columns, and `int(col, 2)` reads
    each one back so that ray k lands on bit k.  The last column is
    row 0, so the columns are read in reverse.
    """
    if not tight:
        return [0] * width
    fmt = f"0{width}b"
    columns = zip(*[format(t, fmt) for t in reversed(tight)])
    return [int("".join(col), 2) for col in columns][::-1]


def extreme_rays(c: HCone, max_dim: int = DEFAULT_MAX_DIM) -> list:
    """All extreme rays of a pointed cone, lexicographically sorted.

    One integer elimination checks that the rows have full rank and
    picks the first `dim` independent rows as a basis B; its tags are
    `den` times B^-1, and their primitive columns, signed by `den`, are
    the rays of the starting simplicial cone.  Without full rank, the
    reduced rows give the line direction raised as NotPointedError.  The
    other rows are then inserted in the order `c.rows` lists them (the
    output does not depend on that order).  Each ray carries its tight
    set over the inserted rows as an int bitmask.  A positive/negative
    pair is adjacent iff its common tight set has at least `dim - 2`
    rows and no third ray is tight on all of them (Fukuda & Prodon,
    1996), so no rank is computed inside the loop.  Before each row
    is inserted, `_incidence` transposes the tight masks into one
    bitmask of tight rays per row, and the test ANDs those of the rows
    the pair shares until only the pair is left.  When a third ray is
    left, the highest-indexed one is kept with its tight set for the
    rest of that positive ray's scan: a later pair whose common set lies
    in a kept tight set (of a ray other than its negative ray) is not
    adjacent by the same test, and is skipped.  Once every row is
    inserted, that bitmask covers all of `c.rows`, and each returned
    `Ray` carries it as `tight`.
    """
    d = c.dim
    if d > max_dim:
        raise UnsupportedSizeError(
            f"cone dimension {d} exceeds the enumeration cap {max_dim}"
        )
    all_rows = [coeffs for coeffs, _ in c.rows]
    kept, den = _eliminate(all_rows)
    sign = 1 if den > 0 else -1
    basis_idx = [i for i, _, _ in kept]
    if len(kept) < d:
        # 1 on the first free column and 0 on the others solves every
        # reduced row, so it is orthogonal to every row
        pivots = {col for _, col, _ in kept}
        free = next(j for j in range(d) if j not in pivots)
        line = [0] * d
        line[free] = sign * den
        for _, col, r in kept:
            line[col] = -sign * r[free]
        raise NotPointedError(_content_normalize(line))

    # row c of B^-1 is the tag block of the kept row with pivot c, over den
    rays = []
    for j in range(d):
        x = [0] * d
        for _, col, r in kept:
            x[col] = sign * r[d + j]
        rays.append(_content_normalize(x))
    # tight[k]: bitmask over inserted row indices on which rays[k] is zero
    basis_mask = sum(1 << i for i in basis_idx)
    tight = [basis_mask ^ (1 << i) for i in basis_idx]
    processed = list(basis_idx)
    kernel = c._kernel

    for row in range(len(all_rows)):
        if basis_mask >> row & 1:
            continue
        if kernel is None or d in kernel[row]:
            vals = [sum(a * r[k] for k, a in c._sparse[row]) for r in rays]
        else:
            i, j, k, l = kernel[row]
            vals = [r[i] + r[j] - r[k] - r[l] for r in rays]
        bit = 1 << row
        pos = [k for k, v in enumerate(vals) if v > 0]
        zero = [k for k, v in enumerate(vals) if v == 0]
        neg = [k for k, v in enumerate(vals) if v < 0]
        new_rays, new_tight = [], []
        if neg:
            incidence = _incidence(tight, len(all_rows))
            checks = [(1 << i, incidence[i]) for i in processed]
            everyone = (1 << len(rays)) - 1
            for kp in pos:
                rp, vp, tp = rays[kp], vals[kp], tight[kp]
                # (k, tight[k]) of third rays that ruled out earlier pairs
                thirds = []
                for kn in neg:
                    common = tp & tight[kn]
                    if common.bit_count() < d - 2:
                        continue
                    for kr, tr in thirds:
                        if kr != kn and common & tr == common:
                            break
                    else:
                        pair = (1 << kp) | (1 << kn)
                        rest = everyone
                        for row_bit, tight_rays in checks:
                            if common & row_bit:
                                rest &= tight_rays
                                if rest == pair:
                                    break
                        if rest == pair:
                            vn = vals[kn]
                            new_rays.append(_content_normalize(
                                [vp * y - vn * x for x, y in zip(rp, rays[kn])]))
                            new_tight.append(common | bit)
                        else:
                            kr = (rest ^ pair).bit_length() - 1
                            thirds.append((kr, tight[kr]))
        rays = [rays[k] for k in pos + zero] + new_rays
        tight = ([tight[k] for k in pos] + [tight[k] | bit for k in zero]
                 + new_tight)
        processed.append(row)

    return [Ray(r, t) for r, t in sorted(zip(rays, tight))]


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
    return vec


def conic_decompose(v: Sequence, generators: Sequence) -> DecomposeResult:
    """Express v as a nonnegative combination of the generators, exactly.

    Solves the phase-1 problem min sum(artificials) subject to
    G c + D a = v, c, a >= 0; a positive optimum yields the separating
    functional from the final multipliers.  The target and each
    generator are scaled to integers by their own positive factors,
    which changes no pivot choice; a generator of ints is kept as
    given.  The tableau, objective row last, is kept as integers over
    one common denominator `den`, the determinant of the current basis:
    each `_pivot` divides exactly by the previous `den` (Bareiss, as in
    lrs), and the ratio test cross-multiplies.
    """
    rhs, t_scale = _clear_denominators(v)
    d = len(rhs)
    cols, g_scale = [], []
    for g in generators:
        vec = _generator_vector(g, d)
        ints, m = ((vec, 1) if set(map(type, vec)) == {int}
                   else _clear_denominators(vec))
        cols.append(ints)
        g_scale.append(m)
    k = len(cols)

    sign = [1 if x >= 0 else -1 for x in rhs]
    # tableau: k generator columns, d artificial columns, rhs; the
    # objective is the last row, so each pivot updates it too
    tab = [
        [sign[i] * col[i] for col in cols]
        + [int(idx == i) for idx in range(d)]
        + [sign[i] * rhs[i]]
        for i in range(d)
    ]
    obj = [-sum(col) for col in zip(*tab)] if d else [0] * (k + 1)
    obj[k:k + d] = [0] * d
    tab.append(obj)

    den = 1
    basis = [k + i for i in range(d)]
    while True:
        obj = tab[d]
        enter = next((j for j in range(k + d) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(d):
            a = tab[i][enter]
            if a > 0:
                if leave is None:
                    leave = i
                    continue
                # tab[i][-1] / a against tab[leave][-1] / b, with a, b > 0
                b = tab[leave][enter]
                mine, best = tab[i][-1] * b, tab[leave][-1] * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-1 objective unbounded")  # impossible
        den = _pivot(tab, leave, enter, den)
        basis[leave] = enter

    # Both checks run on the integer system; the Fractions built after
    # them divide it back by the positive scale factors only.
    if obj[-1] < 0:
        w = [sign[i] * (obj[k + i] - den) for i in range(d)]
        if not (all(sum(a * b for a, b in zip(w, col)) >= 0 for col in cols)
                and sum(a * b for a, b in zip(w, rhs)) < 0):
            raise ArithmeticError("Farkas certificate does not separate")
        return DecomposeResult(False, certificate=tuple(Fraction(x, den) for x in w))

    weights = [0] * k
    for i, bv in enumerate(basis):
        if bv < k:
            weights[bv] = tab[i][-1]
    if any(sum(x * col[i] for x, col in zip(weights, cols)) != den * rhs[i]
           for i in range(d)):
        raise ArithmeticError("coefficients do not rebuild the target")
    return DecomposeResult(True, coefficients=tuple(
        Fraction(x * m, den * t_scale) for x, m in zip(weights, g_scale)))


# ---------------------------------------------------------------------------
# Orbit reduction check


def facet_reduction_check(p: Partition) -> bool:
    """Confirm the facet system of the reduced cone.

    Checks that facets sharing an orbit label reduce to the exact same
    row, matching the closed-form row for that label, and that every
    label is hit.  Distinct rows need no check: `HCone` rejects a
    repeated row direction.  The check is exact: at a p-symmetric h each
    elemental row equals `reduced_facet_row(fid, p) . to_sym(h, p)`,
    so it proves that Gamma_n meets the p-symmetric subspace in Psi_p.

    Every elemental facet is walked once, by `symmetry.facet_keys`,
    which keys it by the `p.count_index` positions of its masks a, b,
    c, d, I and K.  Each key is read off its positions alone: its label
    is `(count_tuples[I], count_tuples[K])`, looked up in a table of
    the cone's rows built once per call, and its reduced row is +1 at
    a and b and -1 at c and d, position 0 dropped.  Every facet of a
    key has that row and that label, so no per-facet object is built;
    `facet_orbit_label` and `reduced_facet_row` are the per-facet
    reference.
    """
    reduced = psi_p_hrep(p)
    by_label = {(label.lambda_I, label.lambda_K): coeffs
                for coeffs, label in reduced.rows}
    if len(by_label) != len(reduced.rows):
        return False

    tuples = p.count_tuples
    seen_labels = set()
    for a, b, c, d, i, k in facet_keys(p):
        label = tuples[i], tuples[k]
        coeffs = by_label.get(label)
        if coeffs is None:
            return False
        row = [0] * len(tuples)
        row[a] += 1
        row[b] += 1
        row[c] -= 1
        row[d] -= 1
        if tuple(row[1:]) != coeffs:
            return False
        seen_labels.add(label)
    return len(seen_labels) == len(by_label)
