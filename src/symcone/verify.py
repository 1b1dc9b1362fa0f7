"""End-to-end checks of the structural claims: extreme-ray inventories
of the reduced cones, the facet-orbit reduction, gap certificates, the
isolation witnesses separating facet orbits, and exact decomposition
over the two-block generator family."""

from __future__ import annotations

import random
import time
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from typing import Optional

from .cone import (
    DecomposeResult,
    _eliminate,
    conic_decompose,
    extreme_rays,
    facet_reduction_check,
    normalize_ray,
    psi_p_hrep,
)
from .families import family_Un, gap_witness_blocks, uniform, uniform_factor_values
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


@dataclass(frozen=True, eq=False)
class IsolationWitness:
    """Function pinned to every facet orbit of a context family except one.

    `context` is the coarser partition, merging exactly two blocks of
    `partition`, whose orbit is being split.  The family is the set of
    p-orbits that collapse onto the context orbit of `target`.  Above
    the one-block partition there is no coarser context: `verify_psi_n`
    checks that case.

    A witness is held one of two ways.  `build_isolation` returns an
    entry of the (p, context) witness table: `vector` is its reduced
    int vector, origin dropped, and `_entry` its family rows, their
    labels, the target's index among them and its gate outcome, all
    fixed when the table was built; its `function` is built by
    `from_sym` on first read, once per (p, vector).
    `IsolationWitness(p, target, context, h)` wraps a dense function h
    instead: its `vector` is None, and `check_isolation` reduces and
    gates h on every call.  Equality is identity.
    """

    partition: Partition
    target: OrbitLabel
    context: Partition
    dense: InitVar[Optional[SetFunction]] = None
    vector: Optional[tuple] = None
    _entry: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self, dense) -> None:
        if (dense is None) == (self._entry is None):
            raise ValueError("a witness takes exactly one of a dense function "
                             "and a table entry")
        if dense is not None:
            self.__dict__["function"] = dense  # read before `function` builds one

    @cached_property
    def function(self) -> SetFunction:
        """The witness as a dense `SetFunction`, shared by equal vectors."""
        return _witness_function(self.partition, self.vector)


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


@cache
def _reduction_holds(p: Partition) -> bool:
    """`facet_reduction_check(p)`, run once per partition for the
    witness gate; `verify_facet_bijection` runs it afresh each time."""
    return facet_reduction_check(p)


def _gate(p: Partition, vec) -> Optional[dict]:
    """None when the reduced vector `vec` of a p-symmetric witness is a
    polymatroid, else a new counterexample dict.

    By the facet reduction a p-symmetric function is a polymatroid iff
    its reduced vector lies in Psi_p, so the gate is Psi_p membership,
    resting on a reduction checked for p (`_reduction_holds`): a
    partition where it fails gives `{"reduction": str(p)}`, a vector
    outside the cone `{"violated": label}`, naming the first row of
    `psi_p_hrep(p)` that is negative on it."""
    if not _reduction_holds(p):
        return {"reduction": str(p)}
    cone = psi_p_hrep(p)
    if cone.contains(vec):
        return None
    return {"violated": next(str(label) for (_, label), value
                             in zip(cone.rows, cone.row_values(vec)) if value < 0)}


def _dense_gate(h: SetFunction, p: Partition) -> tuple:
    """`(counterexample, vec)` for a witness given as a dense function:
    `{"symmetry": str(p)}` unless h is p-symmetric, else `_gate` of its
    reduced vector, and that vector (Fractions, origin dropped)."""
    try:
        vec = to_sym(h, p).free_values()
    except SymmetryError:
        return {"symmetry": str(p)}, None
    return _gate(p, vec), vec


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
        bad, _ = _dense_gate(witness, p)
        if bad is not None:
            return False, bad
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
    """The explicit witness isolating a facet orbit of p inside its
    context family: the entry of `target` in the witness table of
    (p, context), built once per pair (`_isolation_table`).

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
    lambda_K over the support.
    """
    witness = _isolation_table(p, context).get(target)
    if witness is None:
        raise ValueError(f"label {target} does not name a facet orbit of {p}")
    return witness


@cache
def _isolation_table(p: Partition, context: Partition) -> dict:
    """The witness of each facet-orbit label of p in a context merging
    two of its blocks, built once per pair; a context that does not
    merge exactly two blocks raises ValueError on every call.

    The rows of `psi_p_hrep(p)` are grouped into context families by
    their collapse through `context`, in row order; a family's rows are
    the cone's own `_kernel` entries `(i, j, k, l)`.  Each label's
    merged pair, support and rank are worked out here, once, into its
    reduced vector, and each distinct vector is gated once (`_gate`).
    The table maps each label to an `IsolationWitness` holding that
    vector and `_entry = (rows, labels, index, gate)`."""
    posmap = _merge_map(p, context)
    # the merged pair: the two p-blocks sharing a context block
    u, v = (i for i, c in enumerate(posmap) if posmap.count(c) == 2)
    cone = psi_p_hrep(p)
    families: dict = {}
    for row, (_, label) in zip(cone._kernel, cone.rows):
        families.setdefault(_collapse(label, posmap, context.t), []).append((row, label))
    gates: dict = {}
    table = {}
    for members in families.values():
        rows = tuple(row for row, _ in members)
        labels = tuple(label for _, label in members)
        for index, label in enumerate(labels):
            vec = _isolation_vector(p, label, u, v)
            if vec not in gates:
                gates[vec] = _gate(p, vec)
            table[label] = IsolationWitness(
                p, label, context, vector=vec, _entry=(rows, labels, index, gates[vec]))
    return table


def _isolation_vector(p: Partition, label: OrbitLabel, u: int, v: int) -> tuple:
    """The reduced int vector, origin dropped, of the witness of the
    facet-orbit `label` when blocks u, v of p are merged (see
    `build_isolation`): its key, then the vector built once per key."""
    touched = {i - 1 for i in label.blocks_touched()}
    lk = label.lambda_K
    if touched == {u, v}:
        return _split_pair_vector(p, u, v, lk[u], lk[v])
    if label.kind == "A":
        support, rank = touched, p.block_sizes[min(touched)]
    else:
        support = touched if touched & {u, v} else touched | {u}
        rank = 1 + sum(lk[i] for i in support)
    return _uniform_vector(p, tuple(sorted(support)), rank)


@cache
def _split_pair_vector(p: Partition, u: int, v: int, k1: int, k2: int) -> tuple:
    """The split-pair witness of `build_isolation` for the merged blocks
    u, v of p and the counts k1, k2 of its target's lambda_K on them."""
    n1, n2 = p.block_sizes[u], p.block_sizes[v]
    return tuple([i * n2 + j * n1 - i * j
                  - max(0, j - k2 - 1) * max(0, k1 - i)
                  - max(0, i - k1 - 1) * max(0, k2 - j)
                  for i, j in ((k[u], k[v]) for k in p.count_tuples[1:])])


@cache
def _uniform_vector(p: Partition, support: tuple, rank: int) -> tuple:
    """`uniform_factor_values(p, rank, weights)`, origin dropped, with
    weight 1 on the blocks of the sorted index tuple `support` and 0
    elsewhere."""
    return uniform_factor_values(p, rank, [int(i in support) for i in range(p.t)])[1:]


@cache
def _witness_function(p: Partition, vec: tuple) -> SetFunction:
    """`from_sym` of a table witness vector, built once per (p, vec)
    and shared by every witness with that vector."""
    return from_sym(SymVector(p, (0, *vec)))


def check_isolation(w: IsolationWitness) -> Verdict:
    """Verify the three isolation conditions exactly.

    Membership in the reduced cone (the gate), strict slack on the
    target orbit's row, equality on every other row of the context
    family: the rows whose labels collapse through `w.context` onto the
    collapse of `w.target`.  Only the family's rows are evaluated, and
    the target's row is told apart by its index in the family.  A
    table witness carries its vector, family rows and gate outcome, so
    the check reads them and looks nothing up.  A dense witness is
    reduced and gated on every call (`_dense_gate`), after its table
    is found, and reads the family rows of its target's table entry; a
    target outside that table (not a facet orbit of p) fails with the
    labels of the family its collapse names as counterexample.  Each
    call returns a new `Verdict` and counterexample dict.
    """
    p = w.partition

    def run():
        if w._entry is None:
            table = _isolation_table(p, w.context)
            bad, vec = _dense_gate(w.function, p)
            if bad is not None:
                return False, bad
            own = table.get(w.target)
            if own is None:
                return False, {"family": _family_labels(p, w.target, w.context)}
            rows, labels, target, _ = own._entry
        else:
            rows, labels, target, bad = w._entry
            if bad is not None:
                return False, dict(bad)
            vec = w.vector
        x = [*vec, 0]  # index dim: the zero slot of a kernel row's missing term
        for index, (i, j, k, l) in enumerate(rows):
            val = x[i] + x[j] - x[k] - x[l]
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


def _family_labels(p: Partition, target: OrbitLabel, context: Partition) -> list:
    """The labels, as text in row order, of the context family that the
    collapse of `target` names; empty when it names none."""
    posmap = _merge_map(p, context)
    key = _collapse(target, posmap, context.t)
    return [str(label) for _, label in psi_p_hrep(p).rows
            if _collapse(label, posmap, context.t) == key]


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
