"""End-to-end checks of the structural claims: extreme-ray inventories
of the reduced cones, the facet-orbit reduction, gap certificates, the
isolation witnesses separating facet orbits, and exact decomposition
over the two-block generator family."""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .cone import (
    DecomposeResult,
    HCone,
    _eliminate,
    conic_decompose,
    extreme_rays,
    facet_reduction_check,
    normalize_ray,
    psi_p_hrep,
)
from .families import family_Un, gap_witness_blocks, uniform, uniform_factor
from .partitions import (
    Partition,
    block_map,
    canonical_partition,
    canonical_representatives,
    covers,
)
from .setfn import (
    DENSE_GROUND_CAP,
    GroundSet,
    SetFunction,
    elements_of,
    form_value,
    polymatroid_violation,
    zhang_yeung_form,
)
from .symmetry import (
    OrbitLabel,
    SymmetryError,
    SymVector,
    from_sym,
    orbit_count_formula,
    orbit_labels,
    to_sym,
)


@dataclass
class Verdict:
    """Outcome of one machine check; failures carry a counterexample."""

    claim: str
    params: dict
    passed: bool
    counterexample: object = None
    elapsed_ms: float = 0.0


@dataclass(frozen=True)
class IsolationWitness:
    """Function pinned to every facet orbit of a context family except one.

    `context` is the coarser partition, merging exactly two blocks of
    `partition`, whose orbit is being split.  The family is the set of
    p-orbits that collapse onto the context orbit of `target`; it is
    derived from `target`, not stored.  Above the one-block partition
    there is no coarser context: `verify_psi_n` checks that case.
    """

    partition: Partition
    target: OrbitLabel
    context: Partition
    function: SetFunction


def _timed(claim: str, params: dict, run) -> Verdict:
    start = time.perf_counter()
    passed, counterexample = run()
    elapsed = (time.perf_counter() - start) * 1000.0
    return Verdict(claim, params, passed, counterexample, elapsed)


def _uncertified_ray(cone, rays):
    """The first ray that fails its certificate, else None.

    A ray is certified when every row is >= 0 on it, its zero rows are
    exactly its `tight` bitmask, and those rows have rank dim - 1."""
    rows = [coeffs for coeffs, _ in cone.rows]
    for r in rays:
        values = cone.row_values(r.direction)
        zero = [i for i, v in enumerate(values) if v == 0]
        if (any(v < 0 for v in values)
                or sum(1 << i for i in zero) != r.tight
                or len(_eliminate([rows[i] for i in zero])[0]) != cone.dim - 1):
            return r
    return None


def _ray_set_comparison(cone, vectors):
    """Certify each enumerated ray, then compare the rays against the
    normalized reduced `vectors`.  Returns `(counterexample, tights)`: on
    success None and the certified `tight` mask of each vector's ray, in
    input order."""
    rays = extreme_rays(cone)
    bad = _uncertified_ray(cone, rays)
    if bad is not None:
        return {"uncertified_ray": list(bad.direction)}, None
    got = {r.direction: r.tight for r in rays}
    want = [normalize_ray(vec).direction for vec in vectors]
    if got.keys() == set(want):
        return None, [got[w] for w in want]
    return {
        "extra": sorted(got.keys() - set(want)),
        "missing": sorted(set(want) - got.keys()),
    }, None


def verify_psi_n(n: int) -> Verdict:
    """The fully symmetric cone has exactly the uniform-matroid rays,
    each tight on all facet rows but one: the isolation check of the
    one-block partition, whose facets form a single family."""
    if n < 2:
        raise ValueError("needs n >= 2")
    p = canonical_partition((n,))
    cone = psi_p_hrep(p)

    def run():
        bad, tights = _ray_set_comparison(
            cone, [to_sym(uniform(m, n), p).free_values() for m in range(1, n + 1)])
        if bad is not None:
            return False, bad
        labels = [label for _, label in cone.rows]
        every_row = (1 << len(labels)) - 1
        for m, tight in enumerate(tights, 1):
            skipped = OrbitLabel((1,), (0,)) if m == n else OrbitLabel((2,), (m - 1,))
            if tight != every_row ^ (1 << labels.index(skipped)):
                return False, {"rank": m, "tight": sorted(
                    str(lab) for i, lab in enumerate(labels) if tight >> i & 1)}
        return True, None

    return _timed("psi-rays", {"n": n}, run)


def verify_psi_1n1(n: int) -> Verdict:
    """The singleton-block cone has exactly the generator-family rays."""
    if n < 2:
        raise ValueError("needs n >= 2")
    p = canonical_partition((1, n - 1))
    cone = psi_p_hrep(p)

    def run():
        vectors = _family_vectors(n)
        if len(vectors) != 1 + (n - 1) + n * (n - 1) // 2:
            return False, {"family_size": len(vectors)}
        bad, _ = _ray_set_comparison(cone, vectors)
        return bad is None, bad

    return _timed("two-block-rays", {"n": n}, run)


def verify_facet_bijection(p: Partition) -> Verdict:
    """Distinct reduced facets match the orbit labels and their count.

    Exact: the label count against `orbit_count_formula`, then
    `facet_reduction_check`, which proves that Gamma_n meets the
    p-symmetric subspace in Psi_p.  It samples no functions.
    """

    def run():
        expected = orbit_count_formula(p)
        enumerated = len(orbit_labels(p))
        if enumerated != expected:
            return False, {"formula": expected, "enumerated": enumerated}
        if not facet_reduction_check(p):
            return False, {"reduction": str(p)}
        return True, None

    return _timed("facet-orbits", {"partition": str(p)}, run)


def two_block_coarsening(p: Partition) -> Optional[Partition]:
    """The first split of p's blocks into two groups of >= 2 elements
    each, else None.  Block 0 is in the first group, block i + 1 when
    bit i of `pick` is set; `pick` runs 0 .. 2**(t-1) - 2, so a
    two-block partition comes back as its own blocks."""
    for pick in range((1 << (p.t - 1)) - 1):
        sel = pick << 1 | 1
        first = sum(b for i, b in enumerate(p.blocks) if sel >> i & 1)
        second = p.ground.full_mask ^ first
        if first.bit_count() >= 2 and second.bit_count() >= 2:
            return Partition(p.ground, (first, second))
    return None


def _witness_vector(h: SetFunction, p: Partition) -> tuple:
    """`(counterexample, vec)`, the gate of every witness check: the first
    violated facet unless h is a polymatroid, else the partition unless
    h is p-symmetric, else None and the reduced vector of h, as an int
    tuple when every coordinate is an integer.

    The two scans run once per function object and partition:
    `h._gates[p]` keeps the violated `FacetId` (or None) and the vector
    (None when h is not p-symmetric), and each call builds its
    counterexample dict anew."""
    gate = h._gates.get(p)
    if gate is None:
        bad, vec = polymatroid_violation(h), None
        if bad is None:
            try:
                vec = to_sym(h, p).free_values()
            except SymmetryError:
                pass
            else:
                if all(x.denominator == 1 for x in vec):
                    vec = tuple(x.numerator for x in vec)
        gate = h._gates[p] = bad, vec
    bad, vec = gate
    if bad is not None:
        return {"violated": str(bad)}, None
    if vec is None:
        return {"symmetry": str(p)}, None
    return None, vec


def verify_gap(p: Partition) -> Verdict:
    """A symmetric polymatroid in the reduced cone violating the
    four-variable non-Shannon inequality, with two roles taken from
    each block of `two_block_coarsening(p)`, the one test of
    applicability: a verdict exists exactly when some split of p's
    blocks has both sides >= 2, and the request is rejected otherwise.
    For the one-block partition or a two-block partition with a
    singleton block no such witness exists (those cones are exactly
    the closed symmetric entropic regions).
    """
    coarse = two_block_coarsening(p)
    if coarse is None and p.t >= 3:
        raise ValueError(f"no two-block coarsening of {p} has both blocks of size >= 2")
    if coarse is None:
        raise ValueError(
            "no gap witness exists: with one block, or two blocks one of "
            "which is a singleton, the reduced cone is exactly the closure "
            "of the symmetric entropic region"
        )

    def run():
        witness = gap_witness_blocks(coarse)
        bad, vec = _witness_vector(witness, p)
        if bad is not None:
            return False, bad
        if not psi_p_hrep(p).contains(vec):
            return False, {"membership": [str(x) for x in vec]}
        first, second = (elements_of(b)[:2] for b in coarse.blocks)
        value = form_value(zhang_yeung_form(p.ground, first + second), witness)
        if value != -1:
            return False, {"zy_value": str(value)}
        return True, None

    return _timed("gap", {"partition": str(p), "coarsening": str(coarse)}, run)


# ---------------------------------------------------------------------------
# Isolation witnesses


def _merge_map(p: Partition, context: Partition) -> tuple:
    """`block_map(p, context)`; ValueError unless it merges two blocks."""
    if not covers(context, p):
        raise ValueError("context must merge exactly two blocks of the partition")
    return block_map(p, context)


def collapse_label(label: OrbitLabel, p: Partition, context: Partition) -> OrbitLabel:
    """Label of the context orbit containing the labelled p-orbit; the
    context must merge exactly two blocks of p, else ValueError."""
    return OrbitLabel(*_collapse(label, _merge_map(p, context), context.t))


def _collapse(label: OrbitLabel, posmap: tuple, t2: int) -> tuple:
    """The count tuples `(lambda_I, lambda_K)` of `collapse_label`,
    through the block map `posmap` into a context with `t2` blocks."""
    li = [0] * t2
    lk = [0] * t2
    for c, ki, kk in zip(posmap, label.lambda_I, label.lambda_K):
        li[c] += ki
        lk[c] += kk
    return tuple(li), tuple(lk)


def build_isolation(p: Partition, target: OrbitLabel, context: Partition) -> IsolationWitness:
    """Construct the explicit witness isolating a facet orbit of p
    inside its context family.

    `target` must label a facet orbit of p, and `context` must merge
    exactly two blocks u, v of p; else ValueError.  A B label with both
    legs in {u, v} takes, on each count tuple k, with i, j = k[u], k[v],
    n1, n2 the sizes of u, v, k1, k2 = lambda_K[u], lambda_K[v] and
    x+ = max(0, x), the value

        i*n2 + j*n1 - i*j - (j - k2 - 1)+ (k1 - i)+ - (i - k1 - 1)+ (k2 - j)+:

    the coverage n1*n2 - (n1 - i)(n2 - j) less one corner correction on
    each mixed quadrant.  Every other witness is a `uniform_factor` with
    the 0/1 weights of a support of blocks: an A label on block l takes
    support {l} and rank n_l; any other label the blocks it touches,
    plus u when none of them is u or v, and rank 1 + the sum of
    lambda_K over the support.  Each witness function is built once per
    distinct key, after every check has passed, and shared by every
    witness with that key; the `IsolationWitness` is new on each call.
    """
    posmap, family, _, _ = _target_family(p, target, context)
    if family is None:
        raise ValueError(f"label {target} does not name a facet orbit of {p}")
    # the merged pair: the two p-blocks sharing a context block
    u, v = (i for i, c in enumerate(posmap) if posmap.count(c) == 2)
    touched = {i - 1 for i in target.blocks_touched()}
    lk = target.lambda_K
    if touched == {u, v}:
        return IsolationWitness(p, target, context,
                                _split_pair_witness(p, u, v, lk[u], lk[v]))
    if target.kind == "A":
        support, rank = touched, p.block_sizes[min(touched)]
    else:
        support = touched if touched & {u, v} else touched | {u}
        rank = 1 + sum(lk[i] for i in support)
    return IsolationWitness(p, target, context,
                            _uniform_witness(p, tuple(sorted(support)), rank))


def _target_family(p: Partition, target: OrbitLabel, context: Partition) -> tuple:
    """`(posmap, family, labels, index)`: `_context_families(p, context)`'s
    block map, and for a facet-orbit target its row's family cone,
    family labels and row index, one dict get.  Any other target has
    family and index None; its labels are those of the family its
    collapse names, empty when there is none."""
    posmap, families, rows = _context_families(p, context)
    row = rows.get(target)
    if row is not None:
        return (posmap, *row)
    family = families.get(_collapse(target, posmap, context.t))
    labels = () if family is None else tuple(label for _, label in family.rows)
    return posmap, None, labels, None


@cache
def _context_families(p: Partition, context: Partition) -> tuple:
    """`(posmap, families, rows)` for a context merging two blocks of p,
    the one table both halves of the isolation claim read: `posmap` is
    `_merge_map(p, context)`, `families` maps each collapsed label
    `(lambda_I, lambda_K)` to an `HCone` of the rows of `psi_p_hrep(p)`
    that collapse onto it, in row order, and `rows` maps the label of
    each row to `(family, labels, index)`: its family cone, that
    family's labels and its index among them.  Built once per pair; a
    context that does not merge exactly two blocks raises ValueError
    on every call."""
    posmap = _merge_map(p, context)
    cone = psi_p_hrep(p)
    grouped: dict = {}
    for coeffs, label in cone.rows:
        grouped.setdefault(_collapse(label, posmap, context.t), []).append((coeffs, label))
    families, rows = {}, {}
    for key, members in grouped.items():
        family = families[key] = HCone(cone.dim, tuple(members), cone.coords)
        labels = tuple(label for _, label in members)
        for index, label in enumerate(labels):
            rows[label] = family, labels, index
    return posmap, families, rows


@cache
def _split_pair_witness(p: Partition, u: int, v: int, k1: int, k2: int) -> SetFunction:
    """The split-pair witness of `build_isolation` for the merged blocks
    u, v of p and the counts k1, k2 of its target's lambda_K on them,
    built once per key and shared by every label with that key."""
    n1, n2 = p.block_sizes[u], p.block_sizes[v]
    values = [i * n2 + j * n1 - i * j
              - max(0, j - k2 - 1) * max(0, k1 - i)
              - max(0, i - k1 - 1) * max(0, k2 - j)
              for i, j in ((k[u], k[v]) for k in p.count_tuples)]
    return from_sym(SymVector(p, values))


@cache
def _uniform_witness(p: Partition, support: tuple, rank: int) -> SetFunction:
    """`uniform_factor(p, rank, weights)` with weight 1 on the blocks of
    the sorted index tuple `support` and 0 elsewhere, built once per key
    and shared by every label with that key."""
    return uniform_factor(p, rank, [int(i in support) for i in range(p.t)])


def check_isolation(w: IsolationWitness) -> Verdict:
    """Verify the three isolation conditions exactly.

    Membership in the reduced cone, strict slack on the target orbit's
    row, equality on every other row of the context family: the rows
    whose labels collapse through `w.context` onto the collapse of
    `w.target`.  Only the family's rows are evaluated, and the target's
    row is told apart by its index in the family, not by comparing
    labels.  A target outside that family (not a facet orbit of p)
    fails with the family as counterexample.  The polymatroid and
    symmetry gate runs once per witness function and partition
    (`_witness_vector`); the family lookup (one dict get,
    `_target_family`), its row values and the timing run on every
    call, and each call returns a new `Verdict`.
    """
    p = w.partition

    def run():
        bad, vec = _witness_vector(w.function, p)
        if bad is not None:
            return False, bad
        _, family, labels, target = _target_family(p, w.target, w.context)
        if family is None:
            return False, {"family": [str(lab) for lab in labels]}
        for index, val in enumerate(family.row_values(vec)):
            if (val <= 0) if index == target else (val != 0):
                return False, {"label": str(labels[index]), "value": str(val)}
        return True, None

    return _timed(
        "isolation",
        {
            "partition": str(p),
            "target": str(w.target),
            "context": str(w.context),
        },
        run,
    )


# ---------------------------------------------------------------------------
# Decomposition over the two-block generator family


@cache
def _family_vectors(n: int) -> tuple:
    """Reduced vectors of the generator family as int tuples, built once
    per n.  Every member is integer-valued; a denominator other than 1
    raises ArithmeticError."""
    p = canonical_partition((1, n - 1))
    vectors = []
    for h in family_Un(n):
        vec = to_sym(h, p).free_values()
        if any(x.denominator != 1 for x in vec):
            raise ArithmeticError(f"generator {len(vectors)} of family_Un({n}) "
                                  "is not integer-valued")
        vectors.append(tuple(x.numerator for x in vec))
    return tuple(vectors)


def decompose_1n(h: SetFunction, n: int) -> DecomposeResult:
    """Nonnegative coefficients over the generator family reconstructing h,
    or a separating certificate; `conic_decompose` checks either exactly."""
    if h.n != n:
        raise ValueError(f"function has {h.n} elements, expected n = {n}")
    if n < 2:
        raise ValueError(f"decomposition needs at least 2 elements, got {n}")
    p = canonical_partition((1, n - 1))
    return conic_decompose(to_sym(h, p).free_values(), _family_vectors(n))


# ---------------------------------------------------------------------------
# Suite runner


# two-block shapes of the gap verdicts; all are checked at every n_max
GAP_PARTS = ((2, 2), (2, 3), (3, 3))


def run_suite(n_max: int = 5, seed: int = 0) -> list:
    """Run the battery of `symcone verify --n-max n_max --seed seed`
    and collect its verdicts.

    The one-block rays are checked for n = 2..n_max.  The two-block
    rays, the facet bijection and the isolation witnesses are checked
    up to min(n_max, 5); the gap witnesses on `GAP_PARTS` and the
    decompositions for n = 3, 4 (five random points each, from
    `seed`) at every n_max.  An n_max below 2 or above
    `DENSE_GROUND_CAP` raises ValueError.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    if n_max > DENSE_GROUND_CAP:
        raise ValueError(f"n_max must be at most {DENSE_GROUND_CAP}, got {n_max}")
    small = min(n_max, 5)
    verdicts = []
    for n in range(2, n_max + 1):
        verdicts.append(verify_psi_n(n))
    for n in range(2, small + 1):
        verdicts.append(verify_psi_1n1(n))
    for n in range(2, small + 1):
        for p in canonical_representatives(n):
            verdicts.append(verify_facet_bijection(p))
    for parts in GAP_PARTS:
        verdicts.append(verify_gap(canonical_partition(parts)))
    for n in range(2, small + 1):
        for p in canonical_representatives(n):
            if p.t != 2:
                continue
            context = canonical_partition((p.n,))
            for label in orbit_labels(p):
                verdicts.append(check_isolation(build_isolation(p, label, context)))
    for n in range(2, small + 1):
        reps = canonical_representatives(n)
        for p in reps:
            for context in reps:
                if not covers(context, p) or context.t == 1:
                    continue
                for label in orbit_labels(p):
                    verdicts.append(check_isolation(build_isolation(p, label, context)))
    for n in (3, 4):
        rng = random.Random(seed)
        gens = family_Un(n)
        for _ in range(5):
            weights = [Fraction(rng.randint(0, 4)) for _ in gens]
            point = SetFunction(GroundSet(n), (0,) * (1 << n))
            for w, g in zip(weights, gens):
                point = point + w * g

            def run(point=point, n=n):
                res = decompose_1n(point, n)
                if res.feasible:
                    return True, None
                return False, {"certificate": [str(x) for x in res.certificate]}

            verdicts.append(_timed("decompose", {"n": n}, run))
    return verdicts
