from fractions import Fraction
from operator import mul

import pytest

from symcone import (
    GroundSet,
    Partition,
    UnsupportedSizeError,
    canonical_partition,
    canonical_representatives,
    covers,
    decompose_1n,
    integer_partitions,
    mask_of,
    partition_vector,
    refines,
    uniform,
)
import symcone.partitions as partitions_module
import symcone.verify as verify_module
from symcone.partitions import block_map
from symcone.setfn import consecutive_masks

from conftest import all_set_partitions, brute_integer_partition_count


def two_block(n1, n2):
    g = GroundSet(n1 + n2)
    return Partition(g, (mask_of(range(1, n1 + 1)), mask_of(range(n1 + 1, n1 + n2 + 1))))


class TestPartitionType:
    def test_validation(self):
        g = GroundSet(4)
        with pytest.raises(ValueError):
            Partition(g, (0b0011, 0b0110))  # overlap
        with pytest.raises(ValueError):
            Partition(g, (0b0011,))  # not covering
        with pytest.raises(ValueError):
            Partition(g, (0b0011, 0, 0b1100))  # empty block

    def test_parse_format_round_trip(self):
        g = GroundSet(4)
        p = Partition.parse("1,2|3,4", g)
        assert p.blocks == (0b0011, 0b1100)
        assert str(p) == "1,2|3,4"

    def test_parse_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Partition.parse("1,2||3,4", GroundSet(4))

    def test_parse_names_element_outside_ground(self):
        with pytest.raises(ValueError, match="element 0 outside ground set 1..4"):
            Partition.parse("0,1|2,3,4", GroundSet(4))
        with pytest.raises(ValueError, match="element 5 outside ground set 1..4"):
            Partition.parse("1,2|3,5", GroundSet(4))

    def test_parse_names_non_integer_element(self):
        with pytest.raises(ValueError, match="element 'a' is not an integer in "
                           r"partition literal '1,a\|2,3,4'"):
            Partition.parse("1,a|2,3,4", GroundSet(4))

    def test_parse_names_repeated_element(self):
        with pytest.raises(ValueError, match="element 1 repeated"):
            Partition.parse("1,1,2|3,4", GroundSet(4))
        with pytest.raises(ValueError, match="element 2 repeated"):
            Partition.parse("1,2,2|3,4", GroundSet(4))


class TestPartitionVector:
    def test_examples(self):
        p = two_block(2, 2)
        assert partition_vector(mask_of([1, 3, 4]), p) == (1, 2)
        assert partition_vector(0, p) == (0, 0)
        assert partition_vector(p.ground.full_mask, p) == (2, 2)

    def test_refinement_makes_entries_block_sums(self):
        fine = canonical_partition((1, 1, 2))
        coarse = canonical_partition((2, 2))
        assert refines(fine, coarse)
        for a in fine.ground.subsets():
            lam_f = partition_vector(a, fine)
            lam_c = partition_vector(a, coarse)
            assert lam_c == (lam_f[0] + lam_f[1], lam_f[2])


class TestRefinesAndCovers:
    def test_examples(self):
        g = GroundSet(4)
        p_fine = Partition(g, (0b0001, 0b0010, 0b1100))
        p_coarse = Partition(g, (0b0011, 0b1100))
        p_cross = Partition(g, (0b0101, 0b1010))
        assert refines(p_fine, p_coarse)
        assert not refines(p_cross, p_coarse)
        assert refines(p_coarse, p_coarse)
        assert covers(p_coarse, p_fine)
        assert not covers(p_coarse, p_coarse)

    def test_single_merge_only(self):
        g = GroundSet(4)
        bottom = Partition(g, (1, 2, 4, 8))
        top = Partition(g, (g.full_mask,))
        assert refines(bottom, top)
        assert not covers(top, bottom)

    def test_partial_order_exhaustive(self):
        for n in (3, 4, 5):
            parts = all_set_partitions(n)
            for p in parts:
                assert refines(p, p)
            finer = {
                i: {j for j, p2 in enumerate(parts) if refines(p1, p2)}
                for i, p1 in enumerate(parts)
            }
            for i, p1 in enumerate(parts):
                for j in finer[i]:
                    if i in finer[j]:
                        assert set(p1.blocks) == set(parts[j].blocks)
                    assert finer[j] <= finer[i]  # transitivity

    def test_cover_implies_refinement_and_block_count(self):
        parts = all_set_partitions(4)
        found = 0
        for p1 in parts:
            for p2 in parts:
                if covers(p2, p1):
                    found += 1
                    assert refines(p1, p2)
                    assert p1.t == p2.t + 1
        assert found > 0

    def test_mismatched_grounds_rejected(self):
        with pytest.raises(ValueError):
            refines(canonical_partition((3,)), canonical_partition((4,)))
        with pytest.raises(ValueError, match="different ground sets"):
            block_map(canonical_partition((1, 2)), canonical_partition((4,)))

    def test_match_brute_force_on_all_set_partitions(self):
        for n in range(1, 6):
            parts = all_set_partitions(n)
            for p1 in parts:
                pairs = [
                    (b1, b2)
                    for i, b1 in enumerate(p1.blocks)
                    for b2 in p1.blocks[i + 1:]
                ]
                merges = [
                    set(p1.blocks) - {b1, b2} | {b1 | b2} for b1, b2 in pairs
                ]
                for p2 in parts:
                    unions = all(
                        b2 == sum(b1 for b1 in p1.blocks if not b1 & ~b2)
                        for b2 in p2.blocks
                    )
                    assert refines(p1, p2) == unions
                    assert covers(p2, p1) == (set(p2.blocks) in merges)

    def test_block_map(self):
        g = GroundSet(4)
        p = Partition.parse("1,3|2,4", g)
        assert block_map(p, canonical_partition((4,))) == (0, 0)
        assert block_map(Partition.parse("3|2,4|1", g), p) == (0, 1, 0)
        assert block_map(p, canonical_partition((2, 2))) is None
        assert block_map(canonical_partition((2, 2)), p) is None


class TestCountIndex:
    def test_matches_brute_force_on_all_set_partitions(self):
        for n in range(1, 6):
            for p in all_set_partitions(n):
                sizes = [bin(b).count("1") for b in p.blocks]
                position, smallest = [], {}
                for mask in range(1 << n):
                    r = 0
                    for b, s in zip(p.blocks, sizes):
                        r = r * (s + 1) + bin(mask & b).count("1")
                    position.append(r)
                    smallest[r] = min(smallest.get(r, mask), mask)
                assert p.count_index == (
                    tuple(position), tuple(smallest[r] for r in sorted(smallest)))
                assert sorted(smallest) == list(range(len(p.count_tuples)))
                for k in p.count_tuples:
                    assert p.count_tuples[sum(map(mul, p.strides, k))] == k

    def test_equal_partitions_share_one_index(self):
        g = GroundSet(5)
        first = Partition(g, (0b00101, 0b11010))
        second = Partition(GroundSet(5), (0b00101, 0b11010))
        assert first is not second
        assert first.count_index is second.count_index
        assert canonical_partition((2, 3)).count_index is canonical_partition((2, 3)).count_index

    def test_repeated_decompositions_build_one_index(self):
        # the first decomposition builds the generator family and the
        # count index of each partition it reads; later ones build none
        h = uniform(2, 4)
        partitions_module._count_index.cache_clear()
        partitions_module._consecutive_partition.cache_clear()
        verify_module._family_vectors.cache_clear()
        assert decompose_1n(h, 4).feasible
        misses = partitions_module._count_index.cache_info().misses
        assert misses >= 1
        for _ in range(2):
            assert decompose_1n(h, 4).feasible
        assert partitions_module._count_index.cache_info().misses == misses


class TestCanonicalRepresentatives:
    def test_n4_list(self):
        reps = canonical_representatives(4)
        assert [tuple(sorted(p.block_sizes)) for p in reps] == [
            (4,),
            (1, 3),
            (2, 2),
            (1, 1, 2),
            (1, 1, 1, 1),
        ]
        assert [str(p) for p in reps] == [
            "1,2,3,4",
            "1|2,3,4",
            "1,2|3,4",
            "1|2|3,4",
            "1|2|3|4",
        ]

    def test_n1(self):
        (rep,) = canonical_representatives(1)
        assert rep.blocks == (1,)

    def test_counts_match_partition_function(self):
        for n in range(1, 11):
            if n <= 10:
                count = brute_integer_partition_count(n)
                assert len(integer_partitions(n)) == count
            if n <= 10:
                assert len(canonical_representatives(n)) == len(integer_partitions(n))

    def test_blocks_are_consecutive_runs(self):
        for p in canonical_representatives(6):
            start = 1
            for b in p.blocks:
                size = b.bit_count()
                assert b == mask_of(range(start, start + size))
                start += size


class TestIntegerPartitionOf:
    def test_canonical_partition_validates(self):
        with pytest.raises(ValueError):
            canonical_partition((2, 1))
        with pytest.raises(ValueError):
            canonical_partition((0, 2))

    def test_equal_arguments_give_one_object(self):
        first = canonical_partition((2, 3))
        assert canonical_partition([2, 3]) is first
        assert canonical_partition(iter((2, 3))) is first
        assert canonical_representatives(5)[2] is first
        assert canonical_partition((1, 4)) is not first
        for n in range(1, 8):
            for parts in integer_partitions(n):
                p = canonical_partition(parts)
                fresh = Partition(GroundSet(n), consecutive_masks(parts))
                assert p == fresh and hash(p) == hash(fresh)
                assert str(p) == str(fresh)

    @pytest.mark.parametrize("parts,message", [
        ((2, 1), "parts must be nondecreasing"),
        ((0, 2), "parts must be positive"),
        ((-1, 2), "parts must be positive"),
        ((13,), "ground set size 13 outside supported range 1..12"),
    ])
    def test_bad_parts_raise_and_cache_nothing(self, parts, message):
        partitions_module._consecutive_partition.cache_clear()
        with pytest.raises(ValueError) as err:
            canonical_partition(parts)
        assert str(err.value) == message
        assert partitions_module._consecutive_partition.cache_info().currsize == 0

    @pytest.mark.parametrize("call,args", [
        (uniform, (0, 0)),
        (canonical_representatives, (0,)),
        (canonical_representatives, (13,)),
    ])
    def test_callers_keep_the_ground_set_size_error(self, call, args):
        with pytest.raises(UnsupportedSizeError, match="^ground set size"):
            call(*args)

    def test_repeat_call_is_one_cache_hit(self, monkeypatch):
        # a repeat neither validates again nor builds a ground set, and
        # parts of another int type share the entry of the int parts
        cached = partitions_module._consecutive_partition
        cached.cache_clear()
        first = canonical_partition((2, 3))
        ones = canonical_partition((1, 1))
        built = []
        monkeypatch.setattr(partitions_module, "GroundSet", lambda n: built.append(n))
        monkeypatch.setattr(partitions_module, "consecutive_masks", built.append)
        for parts, p in (((2, 3), first), ([2, 3], first), (iter((2, 3)), first),
                         ((True, 1), ones), ((1, 1), ones)):
            before = cached.cache_info()
            assert canonical_partition(parts) is p
            after = cached.cache_info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert built == []
        assert cached.cache_info().currsize == 2

    @pytest.mark.parametrize("parts,message", [
        ((2.0, 3.0), "'float' object cannot be interpreted as an integer"),
        ((Fraction(2), 3), "'Fraction' object cannot be interpreted as an integer"),
        (([2], [3]), "'list' object cannot be interpreted as an integer"),
        (5, "'int' object is not iterable"),
    ])
    def test_parts_equal_to_cached_ones_keep_their_errors(self, parts, message):
        # parts that are not ints raise the TypeError of operator.index,
        # also after equal int parts have been cached, and cache nothing
        canonical_partition((2, 3))
        size = partitions_module._consecutive_partition.cache_info().currsize
        with pytest.raises(TypeError) as err:
            canonical_partition(parts)
        assert type(err.value) is TypeError and str(err.value) == message
        assert partitions_module._consecutive_partition.cache_info().currsize == size
