import hashlib
import random
from fractions import Fraction

import pytest

from symcone import (
    ExpansionMap,
    GroundSet,
    Partition,
    SetFunction,
    build_family,
    canonical_expansion,
    canonical_partition,
    factor,
    family_Un,
    family_Un_tags,
    form_value,
    free_expansion,
    gap_witness,
    gap_witness_blocks,
    integer_partitions,
    is_matroid,
    is_p_symmetric,
    is_polymatroid,
    mask_of,
    psi_p_hrep,
    restrict,
    to_sym,
    u1_loop,
    u_km,
    uniform,
    uniform_factor,
    uniform_on_support,
    zhang_yeung_form,
)
import symcone.families as families_module
from symcone.families import random_polymatroid
from symcone.setfn import consecutive_masks

from conftest import all_set_partitions


def brute_expansion_oracle(h, phi):
    """Direct minimisation, written independently of the library path."""
    target_subsets = range(1 << phi.target.n)
    values = []
    for a in target_subsets:
        best = None
        for b in range(1 << h.n):
            image = 0
            bb = b
            pos = 0
            while bb:
                if bb & 1:
                    image |= phi.images[pos]
                bb >>= 1
                pos += 1
            cand = h.values[b] + bin(a & ~image).count("1")
            best = cand if best is None or cand < best else best
        values.append(best)
    return tuple(values)


class TestUniform:
    def test_values(self):
        u = uniform(2, 4)
        assert u(mask_of([1, 3, 4])) == 2
        assert uniform(4, 4).values == tuple(m.bit_count() for m in range(16))
        assert all(v == 0 for v in uniform(0, 3).values)
        for n in range(1, 9):
            for m in range(n + 1):
                assert uniform(m, n).values == tuple(
                    min(m, a.bit_count()) for a in range(1 << n))

    def test_range_errors(self):
        with pytest.raises(ValueError):
            uniform(5, 4)
        with pytest.raises(ValueError):
            uniform(-1, 4)


class TestUniformFactor:
    def test_values_subset_by_subset(self):
        # min(rank, sum of w_b |A & B_b|), evaluated on each subset, on
        # every canonical partition with n <= 6 and on blocks that are
        # not consecutive runs
        rng = random.Random(26)
        shapes = [canonical_partition(parts) for n in range(1, 7)
                  for parts in integer_partitions(n)]
        shapes.append(Partition(GroundSet(5), (mask_of([2, 5]), mask_of([1, 3, 4]))))
        for p in shapes:
            for _ in range(4):
                weights = [rng.randint(0, 3) for _ in p.blocks]
                top = sum(w * b.bit_count() for w, b in zip(weights, p.blocks))
                rank = rng.randint(0, top + 1)
                h = uniform_factor(p, rank, weights)
                assert h.values == tuple(
                    min(rank, sum(w * (a & b).bit_count() for w, b in zip(weights, p.blocks)))
                    for a in p.ground.subsets())
                assert is_polymatroid(h) and is_p_symmetric(h, p)

    @pytest.mark.parametrize("rank,weights,match", [
        (2, (1,), "one nonnegative int per block"),
        (2, (1, 1, 1), "one nonnegative int per block"),
        (2, (1, -1), "one nonnegative int per block"),
        (2, (1, 1.0), "one nonnegative int per block"),
        (2, (1, Fraction(1)), "one nonnegative int per block"),
        (2, (True, 1), "one nonnegative int per block"),
        (-1, (1, 1), "rank -1 must be a nonnegative int"),
        (1.5, (1, 1), "rank 1.5 must be a nonnegative int"),
    ])
    def test_errors(self, rank, weights, match):
        with pytest.raises(ValueError, match=match):
            uniform_factor(canonical_partition((2, 2)), rank, weights)

    def test_named_functions_are_one_call(self, monkeypatch):
        calls = []

        def spy(p, rank, weights):
            calls.append((p.block_sizes, rank, tuple(weights)))
            return uniform_factor(p, rank, weights)

        monkeypatch.setattr(families_module, "uniform_factor", spy)
        assert uniform(2, 4).values == build_family("uniform:2,4").values
        assert u_km(2, 5, 4).values == build_family("ukm:2,5,4").values
        assert calls == [((4,), 2, (1,))] * 2 + [((1, 3), 2, (2, 1))] * 2

    def test_family_and_uniform_values_pinned(self):
        # the values of every family member with n <= 7 and of every
        # uniform matroid on up to 12 elements, one line per function;
        # the digests were recorded before either was built by
        # uniform_factor
        def digest(functions):
            d = hashlib.sha256()
            for h in functions:
                d.update((",".join(map(str, h.values)) + "\n").encode())
            return d.hexdigest()

        family = [h for n in range(2, 8) for h in family_Un(n)]
        assert len(family) == 83
        assert digest(family) == (
            "4ae7cdcec0cdf70ae3c6aee446ad38eaae7db1caf71f4c0ee3224c1651ed6633")
        uniforms = [uniform(m, n) for n in range(1, 13) for m in range(n + 1)]
        assert len(uniforms) == 90
        assert digest(uniforms) == (
            "2b14fab91ad00c2a2b41472854ec4eebe435f9a8cba8e59887d629b0e42c8e09")


class TestFreeExpansion:
    def test_gap_witness_expands_to_rank4_matroid_on_8(self):
        h = gap_witness(2, 2)
        phi = canonical_expansion(h)
        g = free_expansion(h, phi)
        assert g.n == 8
        assert g(g.ground.full_mask) == 4
        assert is_matroid(g)
        assert g.values == brute_expansion_oracle(h, phi)
        # the six 4-sets built from two image pairs: exactly one has full rank
        pair_unions = [
            phi.images[i] | phi.images[j] for i in range(4) for j in range(i + 1, 4)
        ]
        ranks = sorted(int(g(m)) for m in pair_unions)
        assert ranks == [3, 3, 3, 3, 3, 4]
        assert g(phi.images[0] | phi.images[1]) == 4

    def test_singleton_images_reproduce_the_function(self):
        u = uniform(2, 4)  # singleton values 1, so the images are singletons
        g = free_expansion(u, canonical_expansion(u))
        assert g.values == u.values

    def test_zero_singleton_becomes_invisible(self):
        h = u1_loop(3)  # elements 2, 3 are loops
        phi = canonical_expansion(h)
        assert phi.target.n == 1
        g = free_expansion(h, phi)
        assert g.values == (0, 1)

    def test_negative_singleton_names_the_size(self):
        h = SetFunction(GroundSet(2), (0, -1, 2, 1))
        with pytest.raises(ValueError, match="run size -1 is negative"):
            canonical_expansion(h)

    def test_non_integer_rejected(self):
        h = Fraction(1, 2) * uniform(2, 4)
        with pytest.raises(ValueError):
            free_expansion(h, canonical_expansion(uniform(2, 4)))

    def test_inconsistent_images_rejected(self):
        h = gap_witness(2, 2)
        bad = ExpansionMap(h.ground, GroundSet(8), (1, 2, 4, 8))
        with pytest.raises(ValueError):
            free_expansion(h, bad)

    def test_expansion_is_matroid_for_corpus(self):
        corpus = [uniform(m, n) for n in (2, 3, 4) for m in range(1, n + 1)]
        corpus += [h for n in (2, 3, 4) for h in family_Un(n)]
        corpus += [gap_witness(2, 2), gap_witness(2, 3)]
        for h in corpus:
            g = free_expansion(h, canonical_expansion(h))
            assert is_matroid(g)


class TestFactor:
    def test_round_trip_over_corpus(self):
        corpus = [uniform(m, n) for n in (2, 3, 4) for m in range(1, n + 1)]
        corpus += [h for n in (2, 3, 4) for h in family_Un(n)]
        corpus += [gap_witness(2, 2)]
        for h in corpus:
            phi = canonical_expansion(h)
            assert factor(free_expansion(h, phi), phi).values == h.values

    def test_expansion_evaluates_to_h_on_images(self):
        h = gap_witness(2, 2)
        phi = canonical_expansion(h)
        g = free_expansion(h, phi)
        for b in h.ground.subsets():
            assert g(phi.of_mask(b)) == h(b)

    def test_singleton_map_relabels(self):
        g = uniform(2, 3)
        phi = ExpansionMap(GroundSet(3), GroundSet(3), (2, 4, 1))
        relabeled = factor(g, phi)
        assert is_matroid(relabeled)
        assert relabeled(mask_of([1, 2])) == g(mask_of([2, 3]))


class TestUkmFamily:
    def test_u1_loop_values(self):
        h = u1_loop(4)
        assert h(mask_of([1, 3])) == 1
        assert h(mask_of([2, 3, 4])) == 0
        assert is_matroid(h)
        p = canonical_partition((1, 3))
        assert to_sym(h, p).values == (0, 0, 0, 0, 1, 1, 1, 1)

    def test_ukm_closed_form(self):
        for n in (2, 3, 4, 5):
            p = canonical_partition((1, n - 1))
            for m in range(n - 1, 2 * n - 1):
                for k in range(max(1, m - n + 1), n):
                    s = to_sym(u_km(k, m, n), p)
                    for j1 in (0, 1):
                        for j2 in range(n):
                            assert s[(j1, j2)] == min(k, (m - n + 1) * j1 + j2)

    def test_ukm_is_the_factor_of_the_uniform_matroid(self):
        # the definition: U_{k,m} built subset by subset on m elements,
        # pulled back through the map sending element 1 onto the first
        # m - n + 1 of them and every other element onto one
        checked = 0
        for n in range(2, 7):
            for m in range(n - 1, 2 * n - 1):
                images = consecutive_masks((m - n + 1,) + (1,) * (n - 1))
                phi = ExpansionMap(GroundSet(n), GroundSet(m), images)
                for k in range(max(1, m - n + 1), n):
                    u = SetFunction(GroundSet(m), tuple(
                        min(k, a.bit_count()) for a in range(1 << m)))
                    assert u_km(k, m, n).values == factor(u, phi).values
                    checked += 1
        assert checked == sum(len(family_Un_tags(n)) - 1 for n in range(2, 7)) == 50

    def test_ukm_targets_beyond_the_ground_cap(self):
        # U_{k,m} with m up to 2n - 2 > 12 columns, on n <= 12 elements
        for n in (8, 12):
            p = canonical_partition((1, n - 1))
            for m, k in ((2 * n - 2, n - 1), (n + 5, 6), (n - 1, 1)):
                s = to_sym(build_family(f"ukm:{k},{m},{n}"), p)
                assert all(s[(j1, j2)] == min(k, (m - n + 1) * j1 + j2)
                           for j1 in (0, 1) for j2 in range(n))

    def test_ukm_boundary_cases(self):
        assert u_km(2, 4, 4).values == uniform(2, 4).values
        h = u_km(2, 3, 4)  # loop at 1, uniform rank 2 on {2,3,4}
        assert h(mask_of([1])) == 0
        assert restrict(h, mask_of([2, 3, 4])).values == uniform(2, 3).values

    def test_ukm_spot_value(self):
        p = canonical_partition((1, 3))
        s = to_sym(u_km(2, 5, 4), p)
        assert all(
            s[(j1, j2)] == min(2, 2 * j1 + j2) for j1 in (0, 1) for j2 in range(4)
        )

    def test_ukm_range_errors(self):
        with pytest.raises(ValueError):
            u_km(1, 7, 4)
        with pytest.raises(ValueError):
            u_km(2, 6, 4)  # k below m - n + 1
        with pytest.raises(ValueError):
            u_km(4, 5, 4)  # k above n - 1

    def test_family_sizes_and_membership(self):
        for n, size in ((2, 3), (3, 6), (4, 10), (5, 15)):
            fam = family_Un(n)
            assert len(fam) == size == len(family_Un_tags(n))
            p = canonical_partition((1, n - 1))
            cone = psi_p_hrep(p)
            for h in fam:
                assert is_p_symmetric(h, p)
                assert cone.contains(to_sym(h, p).free_values())
                assert is_polymatroid(h) and h.is_integer_valued()
            # the head-light members are honest matroids
            assert is_matroid(family_Un(n)[0])


class TestGapWitness:
    def test_canonical_table(self):
        h = gap_witness(2, 2)
        assert h(mask_of([1])) == 2
        assert h(mask_of([1, 2])) == 4
        assert h(mask_of([1, 3])) == 3
        assert h(mask_of([3, 4])) == 3
        assert h(mask_of([1, 2, 3])) == 4
        assert h(h.ground.full_mask) == 4

    def test_polymatroid_and_symmetry(self):
        for n1, n2 in ((2, 2), (2, 3), (3, 3)):
            h = gap_witness(n1, n2)
            assert is_polymatroid(h)
            blocks = (mask_of(range(1, n1 + 1)), mask_of(range(n1 + 1, n1 + n2 + 1)))
            assert is_p_symmetric(h, Partition(h.ground, blocks))

    def test_restriction_violates_the_four_variable_form(self):
        h = restrict(gap_witness(3, 3), mask_of([1, 2, 4, 5]))
        assert form_value(zhang_yeung_form(h.ground, (1, 2, 3, 4)), h) == -1

    def test_blocks_variant_follows_first_block(self):
        g = GroundSet(4)
        p = Partition(g, (mask_of([2, 4]), mask_of([1, 3])))
        h = gap_witness_blocks(p)
        assert h(mask_of([2, 4])) == 4  # inside the special block
        assert h(mask_of([1, 3])) == 3
        # every two-block partition with both blocks >= 2, in both block
        # orders: first blocks that are not consecutive, that do not
        # hold element 1, or that are the larger block
        def value(a, first):
            c = a.bit_count()
            if c == 2:
                return 4 if a & ~first == 0 else 3
            return {0: 0, 1: 2}.get(c, 4)  # singletons 2, larger sets 4

        checked = 0
        for n in range(4, 7):
            for q in all_set_partitions(n):
                if q.t != 2 or min(q.block_sizes) < 2:
                    continue
                for blocks in (q.blocks, q.blocks[::-1]):
                    h = gap_witness_blocks(Partition(q.ground, blocks))
                    assert h.values == tuple(
                        value(a, blocks[0]) for a in q.ground.subsets())
                    checked += 1
        assert checked == 2 * (3 + 10 + 25)

    def test_small_blocks_rejected(self):
        with pytest.raises(ValueError):
            gap_witness(1, 3)
        with pytest.raises(ValueError):
            gap_witness_blocks(canonical_partition((1, 3)))


class TestFamilyTags:
    def test_round_trip_examples(self):
        assert build_family("uniform:2,4").values == uniform(2, 4).values
        assert build_family("ukm:2,5,4").values == u_km(2, 5, 4).values
        assert build_family("u1loop:3").values == u1_loop(3).values
        assert build_family("gap:2,2").values == gap_witness(2, 2).values

    def test_bad_tags(self):
        for tag in ("uniform:2", "wat:1,2", "ukm:a,b,c", "uniform"):
            with pytest.raises(ValueError):
                build_family(tag)


class TestRandomPolymatroid:
    @pytest.mark.parametrize("seed", range(6))
    def test_replays_as_sum_of_uniform_ranks(self, seed):
        for n in range(1, 6):
            ground = GroundSet(n)
            rng, replay = random.Random(seed), random.Random(seed)
            for _ in range(3):  # successive samples from one stream
                want = SetFunction(ground, (0,) * (1 << n))
                for _ in range(replay.randint(1, 4)):
                    support = replay.randint(1, ground.full_mask)
                    rank = replay.randint(1, support.bit_count())
                    weight = Fraction(replay.randint(0, 6), replay.randint(1, 4))
                    want = want + weight * uniform_on_support(rank, support, ground)
                assert random_polymatroid(ground, rng).values == want.values
                assert rng.getstate() == replay.getstate()
