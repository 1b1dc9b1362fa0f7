import hashlib
import random
from fractions import Fraction
from itertools import permutations
from operator import mul

import pytest

from symcone import (
    GroundSet,
    OrbitLabel,
    Partition,
    SetFunction,
    SymmetryError,
    canonical_partition,
    canonical_representatives,
    elemental_count,
    facet_orbit_label,
    form_value,
    from_sym,
    gap_witness,
    is_p_symmetric,
    is_polymatroid,
    mask_of,
    orbit_count_formula,
    orbit_labels,
    orbit_sizes,
    reduce_form,
    refines,
    symmetrize,
    to_sym,
    uniform,
    zhang_yeung_form,
)
from symcone.setfn import FacetId
from symcone.families import random_polymatroid, random_symmetric_function
from symcone.symmetry import SymVector

from conftest import (
    BlockPermutation,
    all_set_partitions,
    apply_to_function,
    block_permutations,
    fraction_symmetry_violation,
    random_rational_function,
)


class TestGroupAction:
    def test_identity_fixes(self, rng):
        h = random_rational_function(GroundSet(3), rng)
        assert apply_to_function(BlockPermutation.identity(3), h).values == h.values

    def test_transposition_swaps_singletons(self):
        h = SetFunction(GroundSet(2), (0, 1, 2, 2))
        swapped = apply_to_function(BlockPermutation((2, 1)), h)
        assert swapped(0b01) == 2 and swapped(0b10) == 1

    def test_action_law(self, rng):
        h = random_rational_function(GroundSet(4), rng)
        perms = [
            BlockPermutation(tuple(p))
            for p in ((2, 1, 3, 4), (1, 3, 2, 4), (4, 3, 2, 1))
        ]
        for s1 in perms:
            for s2 in perms:
                lhs = apply_to_function(s2, apply_to_function(s1, h))
                rhs = apply_to_function(s1.compose(s2), h)
                assert lhs.values == rhs.values

    def test_group_size(self):
        p = canonical_partition((2, 3))
        assert sum(1 for _ in block_permutations(p)) == 2 * 6
        for sigma in block_permutations(p):
            assert sigma.preserves(p)

    def test_non_bijection_rejected(self):
        with pytest.raises(ValueError):
            BlockPermutation((1, 1, 3))


class TestSymmetrize:
    def test_two_element_average(self):
        h = SetFunction(GroundSet(2), (0, 1, 2, 2))
        out = symmetrize(h, canonical_partition((2,)))
        assert out.values == (0, Fraction(3, 2), Fraction(3, 2), 2)

    def test_idempotent_on_symmetric_input(self):
        h = gap_witness(2, 2)
        p = canonical_partition((2, 2))
        assert symmetrize(h, p).values == h.values

    def test_singleton_partition_is_identity(self, rng):
        h = random_rational_function(GroundSet(4), rng)
        p = canonical_partition((1, 1, 1, 1))
        assert symmetrize(h, p).values == h.values

    def test_matches_group_average_oracle(self, rng):
        for n in (2, 3, 4):
            for p in canonical_representatives(n):
                perms = list(block_permutations(p))
                for _ in range(10):
                    h = random_rational_function(p.ground, rng)
                    avg = SetFunction(p.ground, (0,) * (1 << n))
                    for sigma in perms:
                        avg = avg + apply_to_function(sigma, h)
                    avg = Fraction(1, len(perms)) * avg
                    assert symmetrize(h, p).values == avg.values

    def test_linear(self, rng):
        p = canonical_partition((2, 3))
        h1 = random_rational_function(p.ground, rng)
        h2 = random_rational_function(p.ground, rng)
        a, b = Fraction(3, 7), Fraction(-2, 5)
        combo = symmetrize(a * h1 + b * h2, p)
        split = a * symmetrize(h1, p) + b * symmetrize(h2, p)
        assert combo.values == split.values

    def test_image_is_symmetric_and_polymatroid_preserving(self, rng):
        for n in (3, 4, 5):
            for p in canonical_representatives(n):
                h = random_polymatroid(p.ground, rng)
                out = symmetrize(h, p)
                assert is_p_symmetric(out, p)
                assert is_polymatroid(out)


class TestReduceForm:
    def test_repeated_masks_add_up(self):
        # E(1) on {1} | {2,3} is (N, 0, N - 1, 0): the empty mask twice
        p = canonical_partition((1, 2))
        terms = zip((0b111, 0, 0b110, 0), (1, 1, -1, -1))
        assert reduce_form(terms, p.count_index) == (0, -1, 0, 0, 1)
        identity = (range(4), range(4))
        assert reduce_form(((3, 1), (1, -1), (3, 2)), identity) == (-1, 0, 3)
        assert reduce_form((), identity) == (0, 0, 0)

    @pytest.mark.parametrize("mask", [-1, 8])
    def test_mask_out_of_range(self, mask):
        index = canonical_partition((1, 2)).count_index
        with pytest.raises(ValueError, match=f"mask {mask} outside 0..7"):
            reduce_form(((1, 1), (mask, 1)), index)

    def test_zhang_yeung_reduces_by_averaging(self, rng):
        # at a p-symmetric h every mask takes the value of its count
        # tuple, so the reduced row dotted with to_sym(h, p) is the
        # value of the full form
        for n in (4, 5, 6):
            for p in canonical_representatives(n):
                if n == 4:
                    role_tuples = list(permutations((1, 2, 3, 4)))
                else:
                    role_tuples = [tuple(rng.sample(range(1, n + 1), 4))
                                   for _ in range(8)]
                hs = [random_symmetric_function(p, rng) for _ in range(3)]
                for roles in role_tuples:
                    zy = zhang_yeung_form(p.ground, roles)
                    row = reduce_form(zy.items(), p.count_index)
                    for h in hs:
                        reduced = sum(map(mul, row, to_sym(h, p).free_values()))
                        assert reduced == form_value(zy, h)


class TestSymmetryPredicate:
    def test_uniform_symmetric_under_everything(self):
        u = uniform(2, 4)
        for p in canonical_representatives(4):
            assert is_p_symmetric(u, p)

    def test_gap_witness_symmetries(self):
        h = gap_witness(2, 2)
        assert is_p_symmetric(h, canonical_partition((2, 2)))
        assert not is_p_symmetric(h, canonical_partition((4,)))

    def test_coarser_symmetry_implies_finer(self, rng):
        fine = canonical_partition((1, 1, 2))
        coarse = canonical_partition((2, 2))
        assert refines(fine, coarse)
        h = symmetrize(random_rational_function(coarse.ground, rng), coarse)
        assert is_p_symmetric(h, fine)


class TestReducedCoordinates:
    def test_uniform_two_two(self):
        p = canonical_partition((2, 2))
        s = to_sym(uniform(2, 4), p)
        for k1 in range(3):
            for k2 in range(3):
                assert s[(k1, k2)] == min(2, k1 + k2)

    def test_gap_witness_vector(self):
        p = canonical_partition((2, 2))
        s = to_sym(gap_witness(2, 2), p)
        assert s.values == (0, 2, 3, 2, 3, 4, 4, 4, 4)

    def test_zero_function(self):
        p = canonical_partition((1, 2))
        z = SetFunction(p.ground, (0,) * 8)
        assert to_sym(z, p).values == (0,) * 6

    def test_unsymmetric_input_names_a_pair(self):
        p = canonical_partition((4,))
        with pytest.raises(SymmetryError) as err:
            to_sym(gap_witness(2, 2), p)
        pair = {err.value.mask_a, err.value.mask_b}
        assert all(m.bit_count() == 2 for m in pair)

    def test_violation_matches_fraction_reference(self, rng):
        """`to_sym` names the same pair as a Fraction scan, on every
        partition of up to four elements, blocks interleaved or not."""
        for n in (1, 2, 3, 4):
            for p in all_set_partitions(n):
                for _ in range(4):
                    h = random_symmetric_function(p, rng)
                    if rng.random() < 0.75:
                        vals = list(h.values)
                        vals[rng.randint(1, p.ground.full_mask)] += Fraction(
                            rng.choice((-1, 1)), rng.randint(1, 5))
                        h = SetFunction(h.ground, tuple(vals))
                    want = fraction_symmetry_violation(h.values, p.blocks)
                    assert is_p_symmetric(h, p) == (want is None)
                    if want is None:
                        s = to_sym(h, p)
                        for a, x in enumerate(h.values):
                            counts = tuple(bin(a & b).count("1") for b in p.blocks)
                            assert s[counts] == x
                        continue
                    with pytest.raises(SymmetryError) as err:
                        to_sym(h, p)
                    assert (err.value.mask_a, err.value.mask_b) == want

    def test_round_trip(self):
        p = canonical_partition((2, 2))
        h = gap_witness(2, 2)
        assert from_sym(to_sym(h, p)).values == h.values

    def test_from_sym_constant_one(self):
        p = canonical_partition((1, 2))
        ones = SymVector(p, tuple([0] + [1] * (len(p.count_tuples) - 1)))
        h = from_sym(ones)
        assert all(h(a) == 1 for a in p.ground.subsets() if a)

    def test_uniform_one_block_round_trip(self):
        p = canonical_partition((5,))
        u = uniform(3, 5)
        assert from_sym(to_sym(u, p)).values == u.values

    def test_sym_vector_text(self):
        p = canonical_partition((1, 1))
        s = to_sym(uniform(1, 2), p)
        assert s.to_text().splitlines() == ["0,0 0", "0,1 1", "1,0 1", "1,1 1"]


class TestOrbitLabels:
    def test_monotonicity_labels_one_block(self):
        p = canonical_partition((4,))
        labels = orbit_labels(p)
        assert labels[0] == OrbitLabel((1,), (0,))
        assert labels[1:] == [OrbitLabel((2,), (k,)) for k in range(3)]

    def test_each_call_returns_a_fresh_list(self):
        labels = orbit_labels(canonical_partition((2, 2)))
        want = list(labels)
        labels.append(OrbitLabel((1, 0), (0, 0)))
        assert orbit_labels(canonical_partition((2, 2))) == want
        labels.clear()
        assert orbit_labels(canonical_partition((2, 2))) == want

    def test_facet_label_examples(self):
        p = canonical_partition((2, 2))
        fid = FacetId(mask_of([1, 3]), mask_of([2]))
        assert facet_orbit_label(fid, p) == OrbitLabel((1, 1), (1, 0))
        lab12 = facet_orbit_label(FacetId(mask_of([1, 2])), p)
        lab34 = facet_orbit_label(FacetId(mask_of([3, 4])), p)
        assert lab12 == OrbitLabel((2, 0), (0, 0))
        assert lab34 == OrbitLabel((0, 2), (0, 0))
        assert lab12 != lab34

    def test_one_block_monotonicity_orbit(self):
        p = canonical_partition((4,))
        for i in range(1, 5):
            assert facet_orbit_label(FacetId(1 << (i - 1)), p) == OrbitLabel((1,), (0,))

    def test_counts(self):
        assert len(orbit_labels(canonical_partition((2, 2)))) == 12
        assert orbit_count_formula(canonical_partition((2, 2))) == 12
        assert orbit_count_formula(canonical_partition((1, 3))) == 9
        for n in (2, 3, 4, 5, 6):
            assert orbit_count_formula(canonical_partition((n,))) == n
        p_single = canonical_partition((1, 1, 1, 1))
        assert orbit_count_formula(p_single) == 28

    def test_labels_match_formula_and_direct_enumeration(self):
        for n in range(2, 7):
            for p in canonical_representatives(n):
                labels = orbit_labels(p)
                assert len(labels) == len(set(labels)) == orbit_count_formula(p)
                direct = orbit_sizes(p)
                assert set(direct) == set(labels)
                assert sum(direct.values()) == elemental_count(n)

    def test_label_strings(self):
        assert str(OrbitLabel((1, 0), (0, 0))) == "[1_2(1)|0]"
        assert str(OrbitLabel((1, 1), (0, 1))) == "[1_2(1,2)|0,1]"
        assert str(OrbitLabel((0, 2), (1, 0))) == "[2_2(2)|1,0]"

    def test_label_and_partition_text_pinned(self):
        # every canonical partition with n <= 7, each followed by its
        # orbit labels, one text per line; the sha256 was recorded
        # before the text was cached on the objects
        lines = []
        for n in range(1, 8):
            for p in canonical_representatives(n):
                lines.append(str(p))
                lines += [str(lab) for lab in orbit_labels(p)]
                assert str(p) is str(p)
                assert all(str(lab) is str(lab) for lab in orbit_labels(p))
        text = "\n".join(lines) + "\n"
        assert len(lines) == 3631
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "b4e75723fffab1ea3329736d7bed21efc9146301990cd05474fd26942372a91a")

    def test_label_validation(self):
        with pytest.raises(ValueError):
            OrbitLabel((1, 0), (0, 1))  # monotonicity label with nonzero K
        with pytest.raises(ValueError):
            OrbitLabel((3, 0), (0, 0))
