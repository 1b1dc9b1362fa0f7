import hashlib
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from symcone import (
    ExpansionMap,
    FacetId,
    GroundSet,
    SetFunction,
    SymVector,
    UnsupportedSizeError,
    canonical_partition,
    elemental_count,
    elemental_rows,
    elements_of,
    form_value,
    gap_witness,
    is_matroid,
    is_polymatroid,
    mask_of,
    mutual_info,
    partition_vector,
    polymatroid_violation,
    restrict,
    uniform,
    uniform_on_support,
    zhang_yeung_form,
)
from symcone.families import random_polymatroid
from symcone.setfn import _clear_denominators, consecutive_masks

from conftest import (
    fraction_first_violation,
    random_rational_function,
    reference_clear_denominators,
)


class TestGroundSet:
    def test_bounds(self):
        GroundSet(1)
        GroundSet(12)
        with pytest.raises(UnsupportedSizeError):
            GroundSet(0)
        with pytest.raises(UnsupportedSizeError):
            GroundSet(13)

    def test_masks(self):
        g = GroundSet(4)
        assert g.full_mask == 0b1111
        assert g.singleton(3) == 0b100
        assert mask_of([1, 3, 4]) == 0b1101

    def test_consecutive_masks(self):
        assert consecutive_masks((2, 0, 1, 3)) == (0b11, 0, 0b100, 0b111000)
        assert consecutive_masks(()) == ()
        with pytest.raises(ValueError, match="run size -2 is negative"):
            consecutive_masks((1, -2))


class TestClearDenominators:
    ENTRIES = {
        "int": [0, 3, -7, 12],
        "bool": [True, False, True],
        "Fraction": [Fraction(1, 2), Fraction(-5, 6), Fraction(4), Fraction(0)],
        "float": [0.5, -1.25, 3.0, 0.1],
        "Decimal": [Decimal("0.2"), Decimal("-1.75"), Decimal(4)],
        "str": ["1/3", "-2", "0.25", " 7/4 "],
    }

    @pytest.mark.parametrize("kind", sorted(ENTRIES))
    def test_matches_reference_on_one_type(self, kind):
        vec = self.ENTRIES[kind]
        assert _clear_denominators(vec) == reference_clear_denominators(vec)
        for x in vec:
            assert _clear_denominators([x]) == reference_clear_denominators([x])

    def test_matches_reference_on_mixed_types(self):
        kinds = sorted(self.ENTRIES)
        mixed = [x for group in zip(*(self.ENTRIES[k] for k in kinds)) for x in group]
        assert _clear_denominators(mixed) == reference_clear_denominators(mixed)
        for a, b in combinations(kinds, 2):
            vec = self.ENTRIES[a] + self.ENTRIES[b]
            assert _clear_denominators(vec) == reference_clear_denominators(vec)
            assert _clear_denominators(tuple(vec)) == reference_clear_denominators(vec)

    def test_random_fraction_vectors(self, rng):
        for _ in range(200):
            vec = [Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                   for _ in range(rng.randint(1, 40))]
            assert _clear_denominators(vec) == reference_clear_denominators(vec)

    def test_empty(self):
        assert _clear_denominators([]) == ([], 1)
        assert reference_clear_denominators([]) == ([], 1)

    def test_generator_read_once(self):
        vec = [Fraction(1, 2), 3, "2/3", 0.25]
        reads = []

        def entries():
            for x in vec:
                reads.append(x)
                yield x

        assert _clear_denominators(entries()) == reference_clear_denominators(vec)
        assert reads == vec

    @pytest.mark.parametrize("bad", ["x", float("nan"), "1/0"])
    def test_same_exception_as_reference(self, bad):
        for vec in ([bad], [Fraction(1, 2), bad, 3]):
            with pytest.raises(Exception) as want:
                reference_clear_denominators(vec)
            with pytest.raises(want.type):
                _clear_denominators(vec)


def row_value(f, row):
    a, b, c, d = row
    return f(a) + f(b) - f(c) - f(d)


class TestElementalForms:
    def test_small_counts(self):
        assert len(elemental_rows(GroundSet(3))) == 9
        assert len(elemental_rows(GroundSet(4))) == 28
        assert len(elemental_rows(GroundSet(1))) == 1

    def test_count_formula(self):
        for n in range(1, 9):
            if n <= 8:
                brute = n + sum(
                    1
                    for _ in combinations(range(n), 2)
                    for _ in range(1 << max(n - 2, 0))
                )
                assert elemental_count(n) == brute
        for n in range(1, 7):
            assert len(elemental_rows(GroundSet(n))) == elemental_count(n)

    def test_n1_form_is_nonnegativity(self):
        ((fid, row),) = elemental_rows(GroundSet(1)).items()
        assert fid == FacetId(0b1)
        assert row == (0b1, 0, 0, 0)  # h({1}) - h({}) >= 0

    def test_one_shared_read_only_table(self):
        table = elemental_rows(GroundSet(4))
        assert elemental_rows(GroundSet(4)) is table
        with pytest.raises(TypeError):
            table[FacetId(0b1)] = (0, 0, 0, 0)

    def test_forms_agree_with_mutual_info(self, rng):
        ground = GroundSet(4)
        f = random_polymatroid(ground, rng)
        for fid, row in elemental_rows(ground).items():
            if fid.I.bit_count() == 2:
                i, j = [e for e in range(1, 5) if fid.I >> (e - 1) & 1]
                assert row_value(f, row) == mutual_info(f, i, j, fid.K)


class TestPolymatroidChecks:
    def test_uniform_is_polymatroid_and_matroid(self):
        u = uniform(2, 4)
        assert is_polymatroid(u)
        assert is_matroid(u)

    def test_negative_singleton_violates(self):
        f = SetFunction(GroundSet(1), (0, -1))
        assert not is_polymatroid(f)
        assert polymatroid_violation(f) == FacetId(0b1)

    def test_gap_witness_is_polymatroid_not_matroid(self):
        h = gap_witness(2, 2)
        assert is_polymatroid(h)
        assert not is_matroid(h)  # singleton value 2 exceeds cardinality

    def test_scaled_matroid_is_not_a_matroid(self):
        half = Fraction(1, 2) * uniform(2, 4)
        assert is_polymatroid(half)
        assert not is_matroid(half)

    def test_conic_combinations_stay_nonnegative(self, rng):
        ground = GroundSet(4)
        rows = list(elemental_rows(ground).values())
        for _ in range(20):
            f = random_polymatroid(ground, rng)
            a = rows[rng.randrange(len(rows))]
            b = rows[rng.randrange(len(rows))]
            wa = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            wb = Fraction(rng.randint(0, 5), rng.randint(1, 3))
            assert wa * row_value(f, a) + wb * row_value(f, b) >= 0

    def test_first_violation_matches_fraction_reference(self, rng):
        """Same first violated facet as a Fraction scan, on mixed-denominator
        and negative values, on small values that violate several rows and
        leave others exactly tight, and on polymatroids nudged off a face."""
        seen = set()
        several = 0
        for n in (1, 2, 3, 4, 5):
            ground = GroundSet(n)
            for _ in range(60):
                kind = rng.random()
                if kind < 0.3:
                    f = random_rational_function(ground, rng)
                elif kind < 0.5:
                    f = SetFunction(ground, (0,) + tuple(
                        Fraction(rng.randint(-2, 5), rng.randint(1, 2))
                        for _ in range(ground.full_mask)))
                    several += sum(f(a) + f(b) < f(c) + f(d) for a, b, c, d
                                   in elemental_rows(ground).values()) > 1
                else:
                    f = random_polymatroid(ground, rng)
                    if rng.random() < 0.8:
                        vals = list(f.values)
                        m = rng.randint(1, ground.full_mask)
                        vals[m] -= Fraction(1, rng.randint(1, 7))
                        f = SetFunction(ground, tuple(vals))
                want = fraction_first_violation(f.values, n)
                got = polymatroid_violation(f)
                assert want == (None if got is None else (got.I, got.K))
                seen.add(None if want is None else want[1] != 0)
        assert seen == {None, False, True} and several > 20


class TestMutualInfo:
    def test_gap_witness_values(self):
        h = gap_witness(2, 2)
        assert mutual_info(h, 3, 4) == 1
        assert mutual_info(h, 3, 4, mask_of([1])) == 0

    def test_zero_function(self):
        z = SetFunction(GroundSet(3), (0,) * 8)
        assert mutual_info(z, 1, 3) == 0

    def test_overlap_errors(self):
        u = uniform(1, 3)
        with pytest.raises(ValueError):
            mutual_info(u, 1, 1)
        with pytest.raises(ValueError):
            mutual_info(u, 1, 2, mask_of([2]))


class TestZhangYeung:
    def test_violated_by_gap_witness(self):
        h = gap_witness(2, 2)
        assert form_value(zhang_yeung_form(h.ground), h) == -1

    def test_uniform_satisfies_all_role_orders(self):
        u = uniform(2, 4)
        for roles in permutations((1, 2, 3, 4)):
            assert form_value(zhang_yeung_form(u.ground, roles), u) >= 0

    def test_zero_function(self):
        z = SetFunction(GroundSet(4), (0,) * 16)
        assert form_value(zhang_yeung_form(z.ground), z) == 0

    def test_too_small_ground(self):
        with pytest.raises(UnsupportedSizeError):
            zhang_yeung_form(GroundSet(3), (1, 2, 3, 3))

    def test_duplicate_roles(self):
        with pytest.raises(ValueError):
            zhang_yeung_form(GroundSet(4), (1, 2, 3, 3))

    def test_role_orders_pinned(self):
        # the (mask, coeff) pairs of all 24 role orders; the pin also
        # fixes the key order and the int type of every coefficient
        g = GroundSet(4)
        text = "\n".join(
            repr((roles, tuple(zhang_yeung_form(g, roles).items())))
            for roles in permutations((1, 2, 3, 4))
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f1bfd93714a0652123b6ab8f0ed203f85b9bee0a15b47882c1614006e71efc69")


class TestFormValue:
    def test_sums_coefficient_times_value(self):
        u = uniform(2, 3)
        assert form_value({0b011: 2, 0b100: Fraction(-1, 2), 0: 5}, u) == Fraction(7, 2)
        assert form_value({}, u) == 0

    @pytest.mark.parametrize("mask", [-1, 8])
    def test_mask_outside_ground_set(self, mask):
        # a negative mask must not index from the end of the values
        with pytest.raises(ValueError, match=f"mask {mask} outside 0..7"):
            form_value({mask: 1}, uniform(2, 3))


class TestRestrict:
    def test_two_block_witness_restricts_to_small_one(self):
        big = gap_witness(3, 3)
        small = restrict(big, mask_of([1, 2, 4, 5]))
        assert small.values == gap_witness(2, 2).values

    def test_full_restriction_is_identity(self):
        u = uniform(2, 4)
        assert restrict(u, u.ground.full_mask).values == u.values

    def test_uniform_restriction_stays_uniform(self):
        u = uniform(2, 5)
        for sub in combinations(range(1, 6), 3):
            assert restrict(u, mask_of(sub)).values == uniform(2, 3).values

    def test_restrict_preserves_polymatroid(self, rng):
        for n in (3, 4, 5):
            ground = GroundSet(n)
            for _ in range(100 // n):
                f = random_polymatroid(ground, rng)
                assert is_polymatroid(f)
                sub = rng.randint(1, ground.full_mask)
                assert is_polymatroid(restrict(f, sub))

    def test_empty_restriction_rejected(self):
        with pytest.raises(ValueError):
            restrict(uniform(1, 3), 0)


class TestNegativeMasks:
    # a negative mask is no subset: bit walks on it never end, and
    # checks of the upper bound alone let it through
    @pytest.mark.parametrize("call, error, message", [
        (lambda: elements_of(-1), ValueError, "mask -1 is negative"),
        (lambda: str(FacetId(-1)), ValueError, "I and K must be nonnegative masks"),
        (lambda: str(FacetId(0b11, -8)), ValueError, "I and K must be nonnegative masks"),
        (lambda: restrict(uniform(2, 4), -1), ValueError, "subset out of range"),
        (lambda: mutual_info(uniform(2, 4), 1, 2, -16), ValueError,
         "conditioning set out of range"),
        (lambda: partition_vector(-1, canonical_partition((2, 2))), ValueError,
         "subset out of range"),
        (lambda: uniform_on_support(1, -3, GroundSet(4)), ValueError,
         "support must be a nonempty subset of the ground set"),
        (lambda: ExpansionMap(GroundSet(2), GroundSet(3), (1, -2)), ValueError,
         "image outside the target ground set"),
        (lambda: ExpansionMap(GroundSet(2), GroundSet(3), (1, -1)), ValueError,
         "image outside the target ground set"),
        (lambda: uniform(2, 4)(-1), IndexError, "mask -1 outside 0..15"),
    ], ids=["elements_of", "FacetId-I", "FacetId-K", "restrict", "mutual_info",
            "partition_vector", "uniform_on_support", "ExpansionMap",
            "ExpansionMap-overlap", "call"])
    def test_negative_mask_rejected(self, call, error, message):
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message


class TestSerialization:
    def test_text_round_trip(self):
        h = Fraction(1, 2) * gap_witness(2, 2)
        again = SetFunction.from_text(h.to_text())
        assert again.values == h.values
        assert again.n == 4

    def test_sparse_text_fills_zeros(self):
        f = SetFunction.from_text("1 3/2\n8 1")
        assert f.n == 4
        assert f(0b0001) == Fraction(3, 2)
        assert f(0b0010) == 0

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            SetFunction.from_text("1 2 3")
        with pytest.raises(ValueError):
            SetFunction.from_text("")
        for text, line in [
            ("1 1/0", "1 1/0"),
            ("x 1", "x 1"),
            ("1 2\n-2 1", "-2 1"),
            ("1 2\n2 1\n1 3", "1 3"),
        ]:
            with pytest.raises(ValueError, match=repr(line)):
                SetFunction.from_text(text)

    def test_empty_set_value_must_vanish(self):
        with pytest.raises(ValueError):
            SetFunction(GroundSet(2), (1, 0, 0, 0))


class _Half(Fraction):
    """A Fraction subclass, which both value types keep as it is."""


class TestFractionValues:
    # `SetFunction` and `SymVector` convert each entry as `Fraction(v)`
    # does, a Fraction passing through
    @staticmethod
    def builds(entry):
        return (SetFunction(GroundSet(1), (0, entry)).values[1],
                SymVector(canonical_partition((1,)), (0, entry)).values[1])

    def test_ints_share_one_fraction(self):
        ints = (0, 1, 1, 2, 1, 2, 2, 3)
        f = SetFunction(GroundSet(3), ints)
        g = SetFunction(GroundSet(3), list(ints))
        s = SymVector(canonical_partition((3,)), (0, 1, 2, 3))
        for vals in (f.values, g.values, s.values):
            assert all(type(v) is Fraction for v in vals)
        assert f.values == g.values == tuple(map(Fraction, ints))
        assert s.values == tuple(map(Fraction, range(4)))
        assert f.values[1] is f.values[2] is g.values[4] is s.values[1]
        assert f.values[7] is s.values[3]
        big = 2**70 + 1
        assert self.builds(big)[0] is self.builds(big)[1] == Fraction(big)

    @pytest.mark.parametrize("entry", [
        0, -3, 2**70, True, False, 0.5, -0.0, 1e-300, "2/3", " 7 ", "-1.25e2",
        Decimal("1.25"), Fraction(5, 4), _Half(1, 2),
    ], ids=repr)
    def test_entry_converts_as_fraction(self, entry):
        want = entry if isinstance(entry, Fraction) else Fraction(entry)
        for got in self.builds(entry):
            assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("entry", [
        "x", "1/0", "", float("nan"), float("inf"), None, 1j, [1], Decimal("NaN"),
    ], ids=repr)
    def test_bad_entry_raises_as_fraction(self, entry):
        with pytest.raises(Exception) as want:
            Fraction(entry)
        for build in (lambda: SetFunction(GroundSet(1), (0, entry)),
                      lambda: SymVector(canonical_partition((1,)), (0, entry))):
            with pytest.raises(want.type) as got:
                build()
            assert str(got.value) == str(want.value)
