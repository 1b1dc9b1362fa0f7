import hashlib
import random
import sys
from fractions import Fraction

import pytest

from symcone import (
    DecomposeResult,
    GroundSet,
    HCone,
    OrbitLabel,
    Partition,
    Ray,
    SetFunction,
    SymVector,
    build_isolation,
    canonical_partition,
    canonical_representatives,
    check_isolation,
    collapse_label,
    covers,
    decompose_1n,
    extreme_rays,
    family_Un,
    family_Un_tags,
    from_sym,
    gap_witness,
    mask_of,
    normalize_ray,
    orbit_labels,
    psi_p_hrep,
    refines,
    to_sym,
    two_block_coarsening,
    u1_loop,
    uniform,
    uniform_factor,
    uniform_on_support,
    verify_facet_bijection,
    verify_gap,
    verify_psi_1n1,
    verify_psi_n,
)
import symcone.cone as cone_module
import symcone.verify as verify_module
from symcone.families import gap_witness_blocks, uniform_factor_values
from symcone.partitions import block_map
from symcone.verify import GAP_PARTS, IsolationWitness, run_suite

from conftest import all_set_partitions, dense_witness_gate


def squared_count(p):
    """|A|**2 on p's ground set: p-symmetric, but no polymatroid.  On
    a two-block p the first row of Psi_p it breaks is the split pair
    [1_2(1,2)|0,0] (1 + 1 < 0 + 4); the first elemental row it breaks
    is E(1,2|-)."""
    return from_sym(SymVector(p, tuple(sum(k) ** 2 for k in p.count_tuples)))


def conic_point(n, weights):
    total = SetFunction(GroundSet(n), (0,) * (1 << n))
    for w, g in zip(weights, family_Un(n)):
        total = total + Fraction(w) * g
    return total


class TestRayInventories:
    def test_one_block_sizes(self):
        for n in range(2, 7):
            v = verify_psi_n(n)
            assert v.passed, v.counterexample

    def test_two_block_sizes(self):
        for n in (2, 3, 4):
            v = verify_psi_1n1(n)
            assert v.passed, v.counterexample

    def test_dropping_a_row_exposes_an_extra_ray(self):
        p = canonical_partition((1, 3))
        cone = psi_p_hrep(p)
        mutated = HCone(cone.dim, cone.rows[:-1], cone.coords)
        got = {r.direction for r in extreme_rays(mutated)}
        want = {
            normalize_ray(to_sym(u, p).free_values()).direction
            for u in family_Un(4)
        }
        assert got != want
        assert got - want  # the relaxation introduces an alien ray

    def test_singleton_block_rays_from_eight_to_ten_elements(self):
        # the family members live on n elements although U_{k,m} has up
        # to 2n - 2 > 12 columns
        for n, count in ((8, 36), (9, 45), (10, 55)):
            p = canonical_partition((1, n - 1))
            got = {r.direction for r in extreme_rays(psi_p_hrep(p))}
            want = {normalize_ray(to_sym(h, p).free_values()).direction
                    for h in family_Un(n)}
            assert len(got) == count and got == want
            assert verify_psi_1n1(n).passed

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            verify_psi_n(1)

    def test_wrong_tight_set_fails(self, monkeypatch):
        real = verify_module.extreme_rays

        def corrupt(cone):
            first, *rest = real(cone)
            return [Ray(first.direction, first.tight ^ 1)] + rest

        monkeypatch.setattr(verify_module, "extreme_rays", corrupt)
        first = real(psi_p_hrep(canonical_partition((4,))))[0]
        v = verify_psi_n(4)
        assert not v.passed
        assert v.counterexample == {"uncertified_ray": list(first.direction)}

    def test_rank_paired_with_wrong_ray_fails(self, monkeypatch):
        # U_{n+1-m,n} in place of U_{m,n}: the same ray set, but rank 1
        # is paired with the free matroid, which skips the A row
        real = verify_module.uniform
        monkeypatch.setattr(verify_module, "uniform", lambda m, n: real(n + 1 - m, n))
        labels = [str(label) for _, label in psi_p_hrep(canonical_partition((4,))).rows]
        v = verify_psi_n(4)
        assert not v.passed
        assert v.counterexample == {
            "rank": 1,
            "tight": sorted(lab for lab in labels if lab != str(OrbitLabel((1,), (0,)))),
        }

    def test_ray_that_is_not_extreme_fails(self, monkeypatch):
        # the sum of two rays, with its true zero rows: only the rank
        # of its tight rows can show that it is not extreme
        real = verify_module.extreme_rays
        cone = psi_p_hrep(canonical_partition((1, 3)))
        a, b, *rest = real(cone)
        direction = normalize_ray([x + y for x, y in zip(a.direction, b.direction)]).direction
        values = cone.row_values(direction)
        fake = Ray(direction, sum(1 << i for i, v in enumerate(values) if v == 0))
        assert min(values) >= 0
        monkeypatch.setattr(verify_module, "extreme_rays", lambda c: [fake, b] + rest)
        v = verify_psi_1n1(4)
        assert not v.passed
        assert v.counterexample == {"uncertified_ray": list(direction)}

    def test_ray_outside_the_cone_fails(self, monkeypatch):
        # the negated ray has the same zero rows, so its tight mask and
        # their rank match; only its negative row values show it is not
        # in the cone
        real = verify_module.extreme_rays
        cone = psi_p_hrep(canonical_partition((1, 3)))
        a, *rest = real(cone)
        flipped = Ray(tuple(-x for x in a.direction), a.tight)
        assert min(cone.row_values(flipped.direction)) < 0
        assert verify_module._uncertified_ray(cone, [a]) is None
        assert verify_module._uncertified_ray(cone, [flipped]) is flipped
        monkeypatch.setattr(verify_module, "extreme_rays", lambda c: [flipped] + rest)
        v = verify_psi_1n1(4)
        assert not v.passed
        assert v.counterexample == {"uncertified_ray": list(flipped.direction)}

    def test_short_family_fails(self, monkeypatch):
        # n = 4 has 1 + 3 + 6 generators; one fewer is caught by its count
        real = verify_module._family_vectors
        monkeypatch.setattr(verify_module, "_family_vectors", lambda n: real(n)[:-1])
        v = verify_psi_1n1(4)
        assert not v.passed
        assert v.counterexample == {"family_size": 9}

    def test_family_member_that_is_no_ray_fails(self, monkeypatch):
        # the last generator replaced by the sum of the last two: the
        # count holds, but the sum is no ray and the last ray is unclaimed
        real = verify_module._family_vectors
        *_, a, b = real(4)
        summed = tuple(x + y for x, y in zip(a, b))
        monkeypatch.setattr(verify_module, "_family_vectors",
                            lambda n: real(n)[:-1] + (summed,))
        v = verify_psi_1n1(4)
        assert not v.passed
        assert v.counterexample == {"extra": [normalize_ray(b).direction],
                                    "missing": [normalize_ray(summed).direction]}


class TestFacetBijection:
    def test_all_canonical_n4(self):
        for p in canonical_representatives(4):
            v = verify_facet_bijection(p)
            assert v.passed, (str(p), v.counterexample)

    def test_reports_counts(self):
        v = verify_facet_bijection(canonical_partition((2, 2)))
        assert v.passed and v.params == {"partition": "1,2|3,4"}

    def test_facet_label_outside_cone_fails(self, monkeypatch):
        # the label table the check reads names the first row by a label
        # that is no facet orbit of p, so the facets of that row's own
        # label find no row
        p = canonical_partition((2, 2))
        real = psi_p_hrep(p)
        (coeffs, _), *rest = real.rows
        corrupt = HCone(real.dim, ((coeffs, OrbitLabel((2, 0), (1, 0))), *rest),
                        real.coords)
        monkeypatch.setattr(cone_module, "psi_p_hrep", lambda q: corrupt)
        v = verify_facet_bijection(p)
        assert not v.passed
        assert v.counterexample == {"reduction": str(p)}

    @pytest.mark.parametrize("mask", range(1, 16))
    def test_corrupted_count_position_fails(self, monkeypatch, mask):
        # a partition equal to (2, 2) whose `count_index` sends one mask
        # to the next count tuple: the facets through that mask get a
        # wrong row or a wrong label
        p = Partition(GroundSet(4), canonical_partition((2, 2)).blocks)
        position, smallest = p.count_index
        wrong = list(position)
        wrong[mask] = (position[mask] + 1) % len(smallest)
        monkeypatch.setitem(vars(p), "count_index", (tuple(wrong), smallest))
        v = verify_facet_bijection(p)
        assert not v.passed
        assert v.counterexample == {"reduction": str(p)}

    @pytest.mark.parametrize("corruption", ["changed", "dropped"])
    def test_wrong_closed_form_row_fails(self, monkeypatch, corruption):
        # the exact reduction check alone catches a bad cone row
        p = canonical_partition((2, 2))
        real = psi_p_hrep(p)
        (coeffs, label), *rest = real.rows
        if corruption == "changed":
            rows = ((coeffs[:-1] + (coeffs[-1] + 1,), label), *rest)
        else:
            rows = tuple(rest)
        bad = HCone(real.dim, rows, real.coords)
        monkeypatch.setattr(cone_module, "psi_p_hrep", lambda q: bad)
        v = verify_facet_bijection(p)
        assert not v.passed
        assert v.counterexample == {"reduction": str(p)}

    def test_count_off_by_one_fails(self, monkeypatch):
        p = canonical_partition((2, 2))
        real = verify_module.orbit_count_formula
        monkeypatch.setattr(verify_module, "orbit_count_formula", lambda q: real(q) + 1)
        v = verify_facet_bijection(p)
        assert not v.passed
        assert v.counterexample == {"formula": 13, "enumerated": 12}


class TestGap:
    def test_two_block_cases(self):
        for parts in ((2, 2), (2, 3), (3, 3)):
            v = verify_gap(canonical_partition(parts))
            assert v.passed, v.counterexample

    def test_multi_block_coarsens(self):
        # block 0 joins block 1 in 1|2|3,4 and stays alone in 1,2|3|4
        for p in (canonical_partition((1, 1, 2)),
                  Partition(GroundSet(4), (0b0011, 0b0100, 0b1000))):
            v = verify_gap(p)
            assert v.passed
            assert v.params["coarsening"] == "1,2|3,4"

    def test_inapplicable_partitions_rejected(self):
        with pytest.raises(ValueError):
            verify_gap(canonical_partition((4,)))
        with pytest.raises(ValueError):
            verify_gap(canonical_partition((1, 3)))
        with pytest.raises(ValueError):
            verify_gap(canonical_partition((1, 1, 1)))  # n=3 cannot split 2+2

    def test_non_symmetric_witness_fails(self, monkeypatch):
        # every witness gap_witness_blocks builds is symmetric, so a
        # polymatroid that tells element 1 from element 2 stands in
        monkeypatch.setattr(
            verify_module, "gap_witness_blocks",
            lambda coarse: uniform_on_support(1, mask_of([1]), coarse.ground))
        p = canonical_partition((2, 2))
        v = verify_gap(p)
        assert not v.passed
        assert v.counterexample == {"symmetry": str(p)}

    def test_non_polymatroid_witness_fails(self, monkeypatch):
        # the Psi_p membership half of the witness gate, after symmetry
        monkeypatch.setattr(verify_module, "gap_witness_blocks", squared_count)
        v = verify_gap(canonical_partition((2, 2)))
        assert not v.passed
        assert v.counterexample == {"violated": "[1_2(1,2)|0,0]"}

    def test_witness_off_the_form_bound_fails(self, monkeypatch):
        # U_{2,4} passes the gate and lies in the cone, but the form is
        # 5 on it, not -1
        monkeypatch.setattr(verify_module, "gap_witness_blocks", lambda q: uniform(2, q.n))
        v = verify_gap(canonical_partition((2, 2)))
        assert not v.passed
        assert v.counterexample == {"zy_value": "5"}

    def test_witness_outside_the_cone_fails(self, monkeypatch):
        # a one-row cone asking for a value <= 0 on the tuple (0,1),
        # where the witness is 2; the payload names that row
        p = canonical_partition((2, 2))
        cone = psi_p_hrep(p)
        row = (-1,) + (0,) * (cone.dim - 1)
        monkeypatch.setattr(verify_module, "psi_p_hrep",
                            lambda q: HCone(cone.dim, ((row, "h(0,1) <= 0"),), cone.coords))
        v = verify_gap(p)
        assert not v.passed
        assert v.counterexample == {"violated": "h(0,1) <= 0"}

    def test_form_value_below_minus_one_fails(self, monkeypatch):
        # the witness is pinned to the form value -1, so a value further
        # below 0 fails too
        monkeypatch.setattr(verify_module, "form_value", lambda form, h: Fraction(-2))
        v = verify_gap(canonical_partition((2, 2)))
        assert not v.passed
        assert v.counterexample == {"zy_value": "-2"}

    def test_inapplicable_messages(self):
        theorem = ("no gap witness exists: with one block, or two blocks one of "
                   "which is a singleton, the reduced cone is exactly the closure "
                   "of the symmetric entropic region")
        for parts, message in (((3,), theorem), ((1, 2), theorem), (
                (1, 1, 1), "no two-block coarsening of 1|2|3 has both blocks of size >= 2")):
            with pytest.raises(ValueError) as info:
                verify_gap(canonical_partition(parts))
            assert str(info.value) == message

    def test_coarsening_search(self):
        assert two_block_coarsening(canonical_partition((1, 1, 1))) is None
        q = two_block_coarsening(canonical_partition((1, 1, 1, 1)))
        assert q is not None and sorted(q.block_sizes) == [2, 2]
        for parts in GAP_PARTS:
            p = canonical_partition(parts)
            assert two_block_coarsening(p) == p

    def test_coarsening_search_against_every_grouping(self):
        # every set partition with n <= 6: the search finds the first
        # grouping, in order of the selection mask with block 0 set,
        # whose two sides both have >= 2 elements
        with_split = without_split = 0
        for n in range(1, 7):
            for p in all_set_partitions(n):
                full = p.ground.full_mask
                firsts = [
                    sum(b for i, b in enumerate(p.blocks) if sel >> i & 1)
                    for sel in range(1, 1 << p.t, 2)
                ]
                splits = [f for f in firsts
                          if f.bit_count() >= 2 and (full ^ f).bit_count() >= 2]
                q = two_block_coarsening(p)
                if not splits:
                    assert q is None, str(p)
                    with pytest.raises(ValueError):
                        verify_gap(p)
                    without_split += 1
                    continue
                assert q.blocks == (splits[0], full ^ splits[0]), str(p)
                assert refines(p, q) and min(q.block_sizes) >= 2
                v = verify_gap(p)
                assert v.passed, (str(p), v.counterexample)
                with_split += 1
        assert (with_split, without_split) == (252, 26)


def benchmark_isolation_pairs():
    """The (partition, context) pairs of the benchmark's isolation
    checks: two-block shapes against the one-block context for n <= 6,
    then every cover pair for n <= 5."""
    pairs = [(p, canonical_partition((n,))) for n in range(2, 7)
             for p in canonical_representatives(n) if p.t == 2]
    pairs += [(p, ctx) for n in range(2, 6) for p in canonical_representatives(n)
              for ctx in canonical_representatives(n) if covers(ctx, p)]
    return pairs


def gate_spy(monkeypatch):
    """Count the gate's steps by name: the Psi_p membership gate
    (`verify._gate`) and the symmetry scan of a dense witness
    (`verify.to_sym`)."""
    scans = {"membership": 0, "symmetry": 0}

    def counting(name, real):
        def wrapper(*args):
            scans[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(verify_module, "_gate",
                        counting("membership", verify_module._gate))
    monkeypatch.setattr(verify_module, "to_sym",
                        counting("symmetry", verify_module.to_sym))
    return scans


#: What the isolation checks build once and keep: the witness tables,
#: their vectors and functions, and the per-partition reduction check.
WITNESS_CACHES = ("_isolation_table", "_split_pair_vector", "_uniform_vector",
                  "_witness_function", "_reduction_holds")


@pytest.fixture
def fresh_tables():
    """Empty the witness caches before and after a test, so a test that
    patches what they read neither finds nor leaves a kept outcome."""
    def clear():
        for name in WITNESS_CACHES:
            getattr(verify_module, name).cache_clear()
    clear()
    yield
    clear()


class TestIsolations:
    def test_counting_witness_for_monotonicity_label(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        w = build_isolation(p, OrbitLabel((1, 0), (0, 0)), ctx)
        assert w.function.values == tuple(
            Fraction((a & 0b0011).bit_count()) for a in p.ground.subsets()
        )
        assert check_isolation(w).passed

    def test_truncated_witness_for_within_block_label(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        w = build_isolation(p, OrbitLabel((2, 0), (0, 0)), ctx)
        assert w.function.values == tuple(
            Fraction(min((a & 0b0011).bit_count(), 1)) for a in p.ground.subsets()
        )
        assert check_isolation(w).passed

    def test_split_pair_witness_spot_value(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        w = build_isolation(p, OrbitLabel((1, 1), (0, 0)), ctx)
        s = to_sym(w.function, p)
        assert s[(1, 1)] == 3  # n2 + n1 - 1
        assert check_isolation(w).passed

    def test_witness_values_pinned(self):
        # every witness with n <= 6: each two-block shape against the
        # one-block context, then each cover pair with a context of two
        # or more blocks; the digest was recorded when the witnesses
        # were still built subset by subset
        digest = hashlib.sha256()
        count = 0
        for n in range(2, 7):
            reps = canonical_representatives(n)
            pairs = [(p, canonical_partition((n,))) for p in reps if p.t == 2]
            pairs += [(p, ctx) for p in reps for ctx in reps
                      if ctx.t > 1 and covers(ctx, p)]
            for p, ctx in pairs:
                for label in orbit_labels(p):
                    values = build_isolation(p, label, ctx).function.values
                    digest.update((",".join(map(str, values)) + "\n").encode())
                    count += 1
        assert count == 1645
        assert digest.hexdigest() == (
            "6f7c02f71d21646fd8431f82bb0a05f52c766d6690462fc6b3fb8b02c991f318")

    def test_non_grid_witnesses_are_uniform_factors(self, monkeypatch, fresh_tables):
        # every witness but the split-pair grid is the vector of one
        # uniform_factor_values call, made once per distinct
        # (p, rank, weights) and shared by every label with that key
        built = {}

        def spy(p, rank, weights):
            key = (p, rank, tuple(weights))
            assert key not in built
            built[key] = uniform_factor_values(p, rank, weights)
            return built[key]

        monkeypatch.setattr(verify_module, "uniform_factor_values", spy)
        counts = {"A": 0, "support": 0, "grid": 0}
        grids, uniforms = set(), set()
        for p, ctx in benchmark_isolation_pairs():
            posmap = block_map(p, ctx)
            pair = {i for i, c in enumerate(posmap) if posmap.count(c) == 2}
            for label in orbit_labels(p):
                w = build_isolation(p, label, ctx)
                if {i - 1 for i in label.blocks_touched()} == pair:
                    counts["grid"] += 1
                    grids.add(id(w.vector))
                else:
                    counts["A" if label.kind == "A" else "support"] += 1
                    uniforms.add(id(w.vector))
                    assert any(key[0] is p and w.vector == values[1:]
                               for key, values in built.items())
        assert counts == {"A": 65, "support": 361, "grid": 115}
        assert len(built) == len(uniforms) == 122 and len(grids) == 59

    def test_labels_with_one_split_pair_key_share_a_function(self):
        # both labels have their legs on the merged blocks 1, 2 with
        # lambda_K 0 there; they differ only in lambda_K on block 3
        p = canonical_partition((1, 1, 2))
        ctx = canonical_partition((2, 2))
        a = build_isolation(p, OrbitLabel((1, 1, 0), (0, 0, 0)), ctx)
        b = build_isolation(p, OrbitLabel((1, 1, 0), (0, 0, 2)), ctx)
        assert a is not b and a.target != b.target
        assert a.function is b.function
        assert check_isolation(a).passed and check_isolation(b).passed

    def test_labels_with_one_support_and_rank_share_a_function(self):
        # a B label on blocks 1, 3 and a C label on block 3 (which adds
        # the merged block 1) both take support {1, 3} and rank 1
        p = canonical_partition((1, 1, 2))
        ctx = canonical_partition((2, 2))
        a = build_isolation(p, OrbitLabel((1, 0, 1), (0, 0, 0)), ctx)
        b = build_isolation(p, OrbitLabel((0, 0, 2), (0, 0, 0)), ctx)
        assert a.target.kind == "B" and b.target.kind == "C"
        assert a.function is b.function
        assert a.function.values == uniform_factor(p, 1, (1, 0, 1)).values
        assert check_isolation(a).passed and check_isolation(b).passed

    def test_rejected_inputs_cache_no_witness(self):
        # the table of a valid (partition, context) pair holds every
        # label's witness, so only the tables of the pairs named below
        # are built first
        p = canonical_partition((2, 2))
        q = canonical_partition((1, 1, 2))
        verify_module._isolation_table(p, canonical_partition((4,)))
        caches = [getattr(verify_module, name) for name in WITNESS_CACHES]
        sizes = [c.cache_info().currsize for c in caches]
        # a label of no orbit, a split pair whose lambda_K no orbit has,
        # and a context that merges three blocks
        cases = [
            (p, OrbitLabel((2, 0), (1, 0)), canonical_partition((4,)),
             "does not name a facet orbit"),
            (p, OrbitLabel((1, 1), (1, 2)), canonical_partition((4,)),
             "does not name a facet orbit"),
            (q, OrbitLabel((1, 1, 0), (0, 0, 0)), canonical_partition((4,)),
             "merge exactly two blocks"),
        ]
        for target_p, target, ctx, message in cases:
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError, match=message) as err:
                    build_isolation(target_p, target, ctx)
                messages.append(str(err.value))
            assert messages[0] == messages[1]
        assert [c.cache_info().currsize for c in caches] == sizes

    def test_checks_leave_shared_witnesses_unchanged(self):
        witnesses = [build_isolation(p, label, ctx)
                     for p, ctx in benchmark_isolation_pairs()
                     for label in orbit_labels(p)]
        shared = {id(w.function): w.function for w in witnesses}
        # one function per distinct (p, vector): 181 witness keys, 159 vectors
        assert (len(witnesses), len(shared)) == (541, 159)
        before = {key: (f.values, list(f._scaled[0]), f._scaled[1])
                  for key, f in shared.items()}
        for w in witnesses:
            assert check_isolation(w).passed
        for key, f in shared.items():
            values, ints, m = before[key]
            assert f.values is values
            assert f._scaled == (ints, m)

    def test_all_labels_all_two_block_partitions(self):
        for n in range(2, 7):
            ctx = canonical_partition((n,))
            for p in canonical_representatives(n):
                if p.t != 2:
                    continue
                for label in orbit_labels(p):
                    w = build_isolation(p, label, ctx)
                    v = check_isolation(w)
                    assert v.passed, (str(p), str(label), v.counterexample)

    def test_split_pair_witnesses_past_the_pinned_range(self):
        # the digest stops at n = 6; every B label of a two-block shape
        # has one leg in each block, so each takes the split-pair form
        count = 0
        for n in range(7, 11):
            ctx = canonical_partition((n,))
            for p in canonical_representatives(n):
                if p.t != 2:
                    continue
                for label in orbit_labels(p):
                    if label.kind != "B":
                        continue
                    assert {i - 1 for i in label.blocks_touched()} == {0, 1}
                    v = check_isolation(build_isolation(p, label, ctx))
                    assert v.passed, (str(p), str(label), v.counterexample)
                    count += 1
        assert count == 233

    def test_cover_pairs_cover_all_five_shapes(self):
        shapes = set()
        for n in range(2, 6):
            reps = canonical_representatives(n)
            for p in reps:
                for ctx in reps:
                    if not covers(ctx, p):
                        continue
                    for label in orbit_labels(p):
                        w = build_isolation(p, label, ctx)
                        v = check_isolation(w)
                        assert v.passed, (str(p), str(ctx), str(label))
                        shapes.add((label.kind, collapse_label(label, p, ctx).kind))
        # monotonicity and within-block labels inside and outside the merge,
        # split pairs with two, one, or zero legs in the merged pair
        assert ("A", "A") in shapes
        assert ("C", "C") in shapes
        assert ("B", "C") in shapes  # split of a within-block orbit
        assert ("B", "B") in shapes

    @pytest.mark.parametrize("parts, ctx_parts, label, values", [
        # counting rank on a block outside the merged pair
        ((1, 1, 3), (1, 4), OrbitLabel((0, 0, 1), (0, 0, 0)),
         (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2,
          1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3)),
        # within-block label inside the merged pair: rank 3 on {2,3,4,5}
        ((1, 4), (5,), OrbitLabel((0, 2), (0, 2)),
         (0, 0, 1, 1, 1, 1, 2, 2, 1, 1, 2, 2, 2, 2, 3, 3,
          1, 1, 2, 2, 2, 2, 3, 3, 2, 2, 3, 3, 3, 3, 3, 3)),
        # within-block label outside the pair: rank 3 on {1,3,4,5}
        ((1, 1, 3), (2, 3), OrbitLabel((0, 0, 2), (1, 0, 1)),
         (0, 1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 3, 2, 3,
          1, 2, 1, 2, 2, 3, 2, 3, 2, 3, 2, 3, 3, 3, 3, 3)),
        # split pair with one leg in the merged pair: rank 3 on {1,3,4,5}
        ((1, 1, 3), (1, 4), OrbitLabel((1, 0, 1), (0, 0, 2)),
         (0, 1, 0, 1, 1, 2, 1, 2, 1, 2, 1, 2, 2, 3, 2, 3,
          1, 2, 1, 2, 2, 3, 2, 3, 2, 3, 2, 3, 3, 3, 3, 3)),
        # split pair with no leg in the merged pair: rank 3 on {1,2,4,5}
        ((1, 1, 1, 2), (1, 2, 2), OrbitLabel((1, 0, 0, 1), (0, 1, 0, 1)),
         (0, 1, 1, 2, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3,
          1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 3, 2, 3, 3, 3)),
    ])
    def test_pinned_witness_values(self, parts, ctx_parts, label, values):
        p = canonical_partition(parts)
        w = build_isolation(p, label, canonical_partition(ctx_parts))
        assert w.function.values == values
        assert check_isolation(w).passed

    def test_suite_checks_five_element_cover_pairs(self):
        # the two-block loop already uses the one-block context; cover
        # pairs are the verdicts whose context has two or more blocks
        verdicts = run_suite(5)
        covers5 = [
            v for v in verdicts
            if v.claim == "isolation" and "|" in v.params["context"]
            and len(v.params["partition"].replace("|", ",").split(",")) == 5
        ]
        assert covers5 and all(v.passed for v in verdicts)

    def test_suite_decompose_verdict_fails_on_infeasible_result(self, monkeypatch):
        # a decomposition that comes back infeasible fails its verdict,
        # with the separating certificate as counterexample
        result = DecomposeResult(False, certificate=(Fraction(-1, 2), Fraction(1)))
        monkeypatch.setattr(verify_module, "decompose_1n", lambda h, n: result)
        verdicts = [v for v in run_suite(2) if v.claim == "decompose"]
        assert len(verdicts) == 10
        for v in verdicts:
            assert not v.passed
            assert v.counterexample == {"certificate": ["-1/2", "1"]}

    def test_suite_rejects_n_max_below_two(self):
        for n_max in (1, 0, -3):
            with pytest.raises(ValueError, match="n_max"):
                run_suite(n_max)

    def test_suite_rejects_n_max_above_the_cap(self):
        # checked before any verdict runs, naming the flag, not the ground set
        for n_max in (13, 40):
            with pytest.raises(ValueError) as err:
                run_suite(n_max)
            assert str(err.value) == f"n_max must be at most 12, got {n_max}"

    def test_suite_repeats_cold_and_warm(self):
        # the package's builders keep what they build; a run that finds
        # them filled must give the verdicts of one that finds every
        # cache, wherever it is bound, empty
        for name, mod in sorted(sys.modules.items()):
            if name.startswith("symcone."):
                for val in vars(mod).values():
                    if callable(getattr(val, "cache_info", None)):
                        val.cache_clear()
        cold, warm = ([(v.claim, v.params, v.passed) for v in run_suite(4)]
                      for _ in range(2))
        assert cold == warm
        assert all(passed for _, _, passed in cold)

    def test_witness_takes_a_function_or_a_table_entry(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        w = build_isolation(p, orbit_labels(p)[0], ctx)
        for args, kwargs in (((), {}),
                             ((w.function,), {"vector": w.vector, "_entry": w._entry})):
            with pytest.raises(ValueError, match="exactly one of"):
                IsolationWitness(p, w.target, ctx, *args, **kwargs)
        dense = IsolationWitness(p, w.target, ctx, w.function)
        assert dense.vector is None and dense.function is w.function

    def test_corrupted_witness_fails(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        target = OrbitLabel((1, 0), (0, 0))
        # uniform rank is tight on every monotonicity row: target not strict
        bad = IsolationWitness(p, target, ctx, uniform(2, 4))
        v = check_isolation(bad)
        assert not v.passed
        assert v.counterexample["label"] == str(target)

    def test_non_symmetric_witness_fails(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        target = OrbitLabel((1, 0), (0, 0))
        # a polymatroid that tells element 1 from element 2
        bad = IsolationWitness(p, target, ctx,
                               uniform_on_support(1, mask_of([1]), p.ground))
        v = check_isolation(bad)
        assert not v.passed
        assert v.counterexample == {"symmetry": str(p)}

    def test_non_polymatroid_witness_fails(self):
        p = canonical_partition((2, 2))
        target = OrbitLabel((1, 0), (0, 0))
        bad = IsolationWitness(p, target, canonical_partition((4,)), squared_count(p))
        v = check_isolation(bad)
        assert not v.passed
        assert v.counterexample == {"violated": "[1_2(1,2)|0,0]"}

    def test_witness_strict_on_another_family_row_fails(self):
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        target = OrbitLabel((1, 0), (0, 0))
        # the counting rank is strict on both monotonicity rows
        w = IsolationWitness(p, target, ctx, uniform(4, 4))
        v = check_isolation(w)
        assert not v.passed
        assert v.counterexample == {"label": "[1_2(2)|0]", "value": "1"}

    @pytest.mark.parametrize("target, family", [
        # not an orbit of (2,2); its collapse names a real context orbit
        (OrbitLabel((2, 0), (1, 0)),
         ["[1_2(1,2)|0,1]", "[1_2(1,2)|1,0]", "[2_2(1)|0,1]", "[2_2(2)|1,0]"]),
        # a label of another shape: fails the same way, no IndexError
        (OrbitLabel((1,), (0,)), ["[1_2(1)|0]", "[1_2(2)|0]"]),
    ])
    def test_foreign_target_fails(self, target, family):
        p = canonical_partition((2, 2))
        w = IsolationWitness(p, target, canonical_partition((4,)), uniform(2, 4))
        v = check_isolation(w)
        assert not v.passed
        assert v.counterexample == {"family": family}

    def test_unknown_label_rejected(self):
        p = canonical_partition((2, 2))
        context = canonical_partition((4,))
        for target in (
            OrbitLabel((2, 0), (1, 0)),  # right length, not an orbit of p
            OrbitLabel((1,), (0,)),  # t = 1: collapses onto a real family
            OrbitLabel((0, 1, 0), (0, 0, 0)),  # t = 3: likewise
            OrbitLabel((0, 0, 1), (0, 0, 0)),  # t = 3: collapses onto none
        ):
            with pytest.raises(ValueError, match="does not name a facet orbit"):
                build_isolation(p, target, context)

    def test_context_must_cover(self):
        p = canonical_partition((1, 1, 2))
        with pytest.raises(ValueError):
            build_isolation(
                p, orbit_labels(p)[0], canonical_partition((4,))
            )

    def test_check_rejects_context_that_does_not_cover(self):
        p = canonical_partition((1, 1, 2))
        good = build_isolation(p, orbit_labels(p)[0], canonical_partition((2, 2)))
        bad = IsolationWitness(p, good.target, canonical_partition((4,)), good.function)
        with pytest.raises(ValueError, match="merge exactly two blocks"):
            check_isolation(bad)

    def test_rejected_context_raises_on_every_call(self, monkeypatch):
        # before any scan of the dense function
        p = canonical_partition((1, 1, 2))
        good = build_isolation(p, orbit_labels(p)[0], canonical_partition((2, 2)))
        assert check_isolation(good).passed
        scans = gate_spy(monkeypatch)
        for _ in range(3):
            bad = IsolationWitness(p, good.target, canonical_partition((4,)),
                                   good.function)
            with pytest.raises(ValueError, match="merge exactly two blocks"):
                check_isolation(bad)
        assert scans == {"membership": 0, "symmetry": 0}

    def test_context_families_group_rows_by_collapse(self):
        # each label's witness holds the family of its row: the cone's
        # rows (kernel entries and labels) that share one collapse, in
        # the cone's row order, and its own index among them
        for n in range(2, 6):
            reps = canonical_representatives(n)
            for p in reps:
                cone = psi_p_hrep(p)
                rows = list(zip(cone._kernel, (label for _, label in cone.rows)))
                for ctx in reps:
                    if not covers(ctx, p):
                        continue
                    table = verify_module._isolation_table(p, ctx)
                    for _, label in rows:
                        want = collapse_label(label, p, ctx)
                        family = [row for row in rows
                                  if collapse_label(row[1], p, ctx) == want]
                        w = table[label]
                        kernel, labels, index, gate = w._entry
                        assert (w.partition, w.target, w.context) == (p, label, ctx)
                        assert list(zip(kernel, labels)) == family
                        assert labels[index] == label and gate is None
                    assert len(table) == len(rows)

    def test_context_families_share_the_cone_rows(self):
        # each family row is the cone's own kernel entry, not a copy, and
        # the witnesses of one family share one tuple of rows
        for n in range(2, 6):
            reps = canonical_representatives(n)
            for p in reps:
                cone = psi_p_hrep(p)
                parent = {label: row for row, (_, label) in zip(cone._kernel, cone.rows)}
                for ctx in reps:
                    if not covers(ctx, p):
                        continue
                    table = verify_module._isolation_table(p, ctx)
                    for w in table.values():
                        rows, labels, _, _ = w._entry
                        assert all(row is parent[label] for row, label in zip(rows, labels))
                        assert all(table[label]._entry[0] is rows for label in labels)

    def test_context_families_built_once_per_pair(self):
        verify_module._isolation_table.cache_clear()
        read = []
        for _ in range(2):
            p = canonical_partition((1, 1, 2))
            ctx = canonical_partition((2, 2))
            for label in orbit_labels(p):
                w = build_isolation(p, label, ctx)
                assert check_isolation(w).passed
                read.append(w)
        assert verify_module._isolation_table.cache_info().misses == 1
        # both passes read the same table witnesses
        half = len(read) // 2
        assert all(a is b for a, b in zip(read[:half], read[half:]))

    def test_retargeted_witness_fails_on_the_first_wrong_row(self):
        # a witness moved to another label of its family has slack on
        # its own row and none on the new target's; the check reports
        # whichever of the two rows comes first in the family
        cases = {True: 0, False: 0}  # by whether the new target comes first
        for p, ctx in benchmark_isolation_pairs():
            for label in orbit_labels(p):
                w = build_isolation(p, label, ctx)
                _, labels, own, _ = w._entry
                cone = psi_p_hrep(p)
                slack = dict(zip((lab for _, lab in cone.rows),
                                 cone.row_values(w.vector)))[label]
                for index, other in enumerate(labels):
                    if other == label:
                        continue
                    v = check_isolation(IsolationWitness(p, other, ctx, w.function))
                    assert not v.passed
                    if index < own:
                        want = {"label": str(other), "value": "0"}
                    else:
                        want = {"label": str(label), "value": str(slack)}
                    assert v.counterexample == want
                    cases[index < own] += 1
        assert cases == {True: 407, False: 407}


class TestWitnessGate:
    def test_gate_runs_once_per_function_and_partition(self, monkeypatch, fresh_tables):
        # a table witness is gated once, when its table is built: once
        # per distinct vector of the table, and no check gates it again
        scans = gate_spy(monkeypatch)
        witnesses = [build_isolation(p, label, ctx)
                     for p, ctx in benchmark_isolation_pairs()
                     for label in orbit_labels(p)]
        tables = {(w.partition, w.context): set() for w in witnesses}
        for w in witnesses:
            tables[w.partition, w.context].add(w.vector)
        assert len(tables) == 19
        assert scans == {"membership": sum(map(len, tables.values())), "symmetry": 0}
        before = dict(scans)
        for _ in range(2):
            assert all(check_isolation(w).passed for w in witnesses)
        assert scans == before
        # a dense copy is reduced and gated on every check
        w = witnesses[0]
        copy = IsolationWitness(w.partition, w.target, w.context,
                                SetFunction(w.function.ground, w.function.values))
        for _ in range(2):
            assert check_isolation(copy).passed
        assert scans == {"membership": before["membership"] + 2, "symmetry": 2}

    def test_one_function_is_gated_under_each_partition(self, monkeypatch):
        scans = gate_spy(monkeypatch)
        h = SetFunction(GroundSet(4), uniform(2, 4).values)
        parts = [canonical_partition((2, 2)), canonical_partition((1, 1, 2))]
        for _ in range(2):
            for p in parts:
                bad, vec = verify_module._dense_gate(h, p)
                assert bad is None
                assert vec == to_sym(uniform(2, 4), p).free_values()
        assert scans == {"membership": 4, "symmetry": 4}

    @pytest.mark.parametrize("kind", ["polymatroid", "symmetry"])
    def test_failing_gate_builds_a_fresh_payload(self, kind):
        p = canonical_partition((2, 2))
        target = OrbitLabel((1, 0), (0, 0))
        if kind == "polymatroid":
            h, want = squared_count(p), {"violated": "[1_2(1,2)|0,0]"}
        else:
            h = uniform_on_support(1, mask_of([1]), p.ground)
            want = {"symmetry": str(p)}
        w = IsolationWitness(p, target, canonical_partition((4,)), h)
        first, second = check_isolation(w), check_isolation(w)
        assert not first.passed and not second.passed
        assert first.counterexample == second.counterexample == want
        assert first.counterexample is not second.counterexample
        first.counterexample.clear()
        assert second.counterexample == want
        assert check_isolation(w).counterexample == want

    def test_integer_witnesses_hand_on_int_vectors(self):
        shared = {}
        for p, ctx in benchmark_isolation_pairs():
            for label in orbit_labels(p):
                w = build_isolation(p, label, ctx)
                assert type(w.vector) is tuple
                assert all(type(x) is int for x in w.vector)
                shared[id(w.function)] = w.function, p, w.vector
        assert len(shared) == 159
        for h, p, vec in shared.values():
            assert vec == to_sym(h, p).free_values()

    def test_fractional_witnesses_keep_fractions(self):
        count = 0
        for p, ctx in benchmark_isolation_pairs():
            for label in orbit_labels(p):
                w = build_isolation(p, label, ctx)
                half = Fraction(1, 2) * w.function
                bad, vec = verify_module._dense_gate(half, p)
                assert bad is None
                assert any(type(x) is Fraction and x.denominator == 2 for x in vec)
                assert vec == tuple(Fraction(x, 2) for x in w.vector)
                v = check_isolation(IsolationWitness(p, label, ctx, half))
                assert v.passed and v.counterexample is None
                count += 1
        assert count == 541
        # a failing check names the value in the witness's own scale
        p = canonical_partition((2, 2))
        w = IsolationWitness(p, OrbitLabel((1, 0), (0, 0)), canonical_partition((4,)),
                             Fraction(1, 2) * uniform(4, 4))
        assert check_isolation(w).counterexample == {"label": "[1_2(2)|0]",
                                                     "value": "1/2"}

    def test_cold_pass_builds_tables_not_functions(self, monkeypatch, fresh_tables):
        # one table per (p, context), the reduction checked once per
        # partition, and no dense function until `.function` is read
        reductions, inflated = [], []

        def reduction(p):
            reductions.append(p)
            return cone_module.facet_reduction_check(p)

        def inflate(s):
            inflated.append(s)
            return from_sym(s)

        monkeypatch.setattr(verify_module, "facet_reduction_check", reduction)
        monkeypatch.setattr(verify_module, "from_sym", inflate)
        pairs = benchmark_isolation_pairs()
        witnesses = [build_isolation(p, label, ctx)
                     for p, ctx in pairs for label in orbit_labels(p)]
        assert all(check_isolation(w).passed for w in witnesses)
        assert len(witnesses) == 541
        assert verify_module._isolation_table.cache_info().misses == len(set(pairs)) == 19
        assert len(reductions) == len(set(reductions)) == len({p for p, _ in pairs})
        assert inflated == []
        functions = {id(w.function) for w in witnesses}
        assert len(inflated) == len(functions) == 159

    def test_reduced_gate_agrees_with_dense_gate_on_the_suite(self):
        # every isolation and gap witness of run_suite(5), by its table
        # gate or its dense reduction, against the dense oracle
        count = 0
        for n in range(2, 6):
            reps = canonical_representatives(n)
            pairs = [(p, canonical_partition((n,))) for p in reps if p.t == 2]
            pairs += [(p, ctx) for p in reps for ctx in reps
                      if ctx.t > 1 and covers(ctx, p)]
            for p, ctx in pairs:
                for label in orbit_labels(p):
                    w = build_isolation(p, label, ctx)
                    assert w._entry[3] is None
                    assert dense_witness_gate(w.function, p) is None
                    count += 1
        for parts in GAP_PARTS:
            p = canonical_partition(parts)
            h = gap_witness_blocks(two_block_coarsening(p))
            assert verify_module._dense_gate(h, p)[0] is None
            assert dense_witness_gate(h, p) is None
            count += 1
        assert count == sum(v.claim in ("isolation", "gap") for v in run_suite(5)) == 418

    def test_reduced_gate_agrees_with_dense_gate_on_perturbed_vectors(self, rng):
        # uniform-factor vectors with one or two coordinates moved by up
        # to 2, on every canonical partition with n <= 6
        outcomes = {True: 0, False: 0}
        for n in range(1, 7):
            for p in canonical_representatives(n):
                for _ in range(8):
                    weights = [rng.randint(0, 2) for _ in range(p.t)]
                    rank = rng.randint(0, n)
                    vec = list(uniform_factor_values(p, rank, weights)[1:])
                    for _ in range(rng.randint(1, 2)):
                        vec[rng.randrange(len(vec))] += rng.randint(-2, 2)
                    vec = tuple(vec)
                    h = from_sym(SymVector(p, (0, *vec)))
                    passed = verify_module._gate(p, vec) is None
                    assert passed == (verify_module._dense_gate(h, p)[0] is None)
                    assert passed == (dense_witness_gate(h, p) is None), (str(p), vec)
                    outcomes[passed] += 1
        assert min(outcomes.values()) > 20

    def test_reduced_gate_agrees_with_dense_gate_on_named_failures(self):
        p = canonical_partition((2, 2))
        for h, kind in ((squared_count(p), "polymatroid"),
                        (uniform_on_support(1, mask_of([1]), p.ground), "symmetry")):
            assert dense_witness_gate(h, p) == kind
            assert verify_module._dense_gate(h, p)[0] is not None

    def test_corrupted_cone_row_fails_the_verdicts_that_read_it(self, monkeypatch,
                                                                fresh_tables):
        # one row of Psi_(2,2) negated: the isolation witness of that
        # row's label and the gap witness are strict on it, so the gate
        # names it; a dense witness reads the same corrupted row
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        real = psi_p_hrep(p)
        gap_vec = to_sym(gap_witness_blocks(p), p).free_values()
        for (coeffs, label), value in zip(real.rows, real.row_values(gap_vec)):
            if value > 0:
                break
        rows = tuple((tuple(-c for c in co), lab) if lab == label else (co, lab)
                     for co, lab in real.rows)
        monkeypatch.setattr(verify_module, "psi_p_hrep",
                            lambda q: HCone(real.dim, rows, real.coords))
        want = {"violated": str(label)}
        v = verify_gap(p)
        assert not v.passed and v.counterexample == want
        w = build_isolation(p, label, ctx)
        first, second = check_isolation(w), check_isolation(w)
        assert not first.passed and first.counterexample == want
        assert second.counterexample == want
        assert first.counterexample is not second.counterexample
        dense = check_isolation(IsolationWitness(p, label, ctx, w.function))
        assert not dense.passed and dense.counterexample == want

    def test_failed_reduction_fails_every_gate(self, monkeypatch, fresh_tables):
        # the Psi_p gate rests on the facet reduction; where the check
        # of that reduction fails, every gate on the partition says so
        p = canonical_partition((2, 2))
        ctx = canonical_partition((4,))
        monkeypatch.setattr(verify_module, "facet_reduction_check", lambda q: False)
        want = {"reduction": str(p)}
        v = verify_gap(p)
        assert not v.passed and v.counterexample == want
        for label in orbit_labels(p):
            w = build_isolation(p, label, ctx)
            v = check_isolation(w)
            assert not v.passed and v.counterexample == want
            v = check_isolation(IsolationWitness(p, label, ctx, w.function))
            assert not v.passed and v.counterexample == want


class TestFamilyVectors:
    def test_int_tuples_equal_to_reduced_vectors(self):
        for n in range(2, 7):
            p = canonical_partition((1, n - 1))
            vectors = verify_module._family_vectors(n)
            want = [to_sym(h, p).free_values() for h in family_Un(n)]
            assert len(vectors) == len(want)
            for vec, ref in zip(vectors, want):
                assert type(vec) is tuple
                assert all(type(x) is int for x in vec)
                assert vec == ref

    def test_fractional_member_raises(self, monkeypatch):
        monkeypatch.setattr(verify_module, "family_Un",
                            lambda n: [g * Fraction(1, 2) for g in family_Un(n)])
        verify_module._family_vectors.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="not integer-valued"):
                verify_module._family_vectors(3)
        finally:
            verify_module._family_vectors.cache_clear()


class TestCollapse:
    def test_examples(self):
        p = canonical_partition((1, 1, 2))
        ctx = canonical_partition((2, 2))
        lab = OrbitLabel((1, 1, 0), (0, 0, 1))
        assert collapse_label(lab, p, ctx) == OrbitLabel((2, 0), (0, 1))
        mono = OrbitLabel((1, 0, 0), (0, 0, 0))
        assert collapse_label(mono, p, ctx) == OrbitLabel((1, 0), (0, 0))

    def test_context_on_another_ground_rejected(self):
        lab = OrbitLabel((1, 0, 0, 0), (0, 0, 0, 0))
        p = canonical_partition((1, 1, 1, 1))
        with pytest.raises(ValueError, match="different ground sets"):
            collapse_label(lab, p, canonical_partition((1, 2)))

    def test_context_merging_more_than_two_blocks_rejected(self):
        lab = OrbitLabel((1, 0, 0), (0, 0, 0))
        p = canonical_partition((1, 1, 2))
        with pytest.raises(ValueError, match="merge exactly two blocks"):
            collapse_label(lab, p, canonical_partition((4,)))


class TestDecompose1n:
    def test_generators_map_to_unit_coefficients(self):
        n = 4
        tags = family_Un_tags(n)
        for idx, g in enumerate(family_Un(n)):
            res = decompose_1n(g, n)
            assert res.feasible
            recon_weight = res.coefficients[idx]
            # the family vectors are linearly independent only for the
            # one-block case; here require exact reconstruction instead
            vecs = [
                to_sym(u, canonical_partition((1, n - 1))).free_values()
                for u in family_Un(n)
            ]
            target = to_sym(g, canonical_partition((1, n - 1))).free_values()
            recon = [
                sum(c * v[i] for c, v in zip(res.coefficients, vecs))
                for i in range(len(target))
            ]
            assert recon == list(target)

    def test_sum_of_named_functions(self):
        # the cardinality function splits into the loop-free part plus
        # the free element: u1loop + (loop at 1, full rank on the rest)
        n = 3
        h = uniform(1, 3) + uniform(3, 3)
        res = decompose_1n(h, n)
        assert res.feasible
        vecs = [
            to_sym(u, canonical_partition((1, 2))).free_values()
            for u in family_Un(3)
        ]
        target = to_sym(h, canonical_partition((1, 2))).free_values()
        recon = [
            sum(c * v[i] for c, v in zip(res.coefficients, vecs))
            for i in range(len(target))
        ]
        assert recon == list(target)

    def test_random_round_trips_both_strategies(self, rng):
        for n in (3, 4, 5):
            for _ in range(10):
                weights = [
                    Fraction(rng.randint(0, 5), rng.randint(1, 3))
                    for _ in family_Un_tags(n)
                ]
                res = decompose_1n(conic_point(n, weights), n)
                assert res.feasible
                assert all(c >= 0 for c in res.coefficients)

    @pytest.mark.parametrize("n", [8, 12])
    def test_decomposes_beyond_eight_elements(self, n):
        h = uniform(2, n)
        res = decompose_1n(h, n)
        assert res.feasible and all(c >= 0 for c in res.coefficients)
        target = to_sym(h, canonical_partition((1, n - 1))).free_values()
        vecs = verify_module._family_vectors(n)
        assert [sum(c * v[i] for c, v in zip(res.coefficients, vecs))
                for i in range(len(target))] == list(target)

    def test_out_of_cone_gets_certificate(self):
        res = decompose_1n(-1 * u1_loop(4), 4)
        assert not res.feasible
        assert res.certificate is not None

    def test_asymmetric_input_rejected(self):
        h = gap_witness(2, 2)  # symmetric under (2,2) but not (1,3)
        from symcone import SymmetryError

        with pytest.raises(SymmetryError):
            decompose_1n(h, 4)

    def test_size_mismatch_names_both_sizes(self):
        with pytest.raises(ValueError, match="^function has 3 elements, expected n = 4$"):
            decompose_1n(uniform(1, 3), 4)
