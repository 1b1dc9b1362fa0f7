import ast
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, prod
from pathlib import Path

import pytest

from symcone import (
    GroundSet,
    HCone,
    NotPointedError,
    Partition,
    Ray,
    SetFunction,
    UnsupportedSizeError,
    canonical_partition,
    canonical_representatives,
    conic_decompose,
    covers,
    decompose_1n,
    elemental_count,
    extreme_rays,
    facet_reduction_check,
    family_Un,
    gamma_n_hrep,
    gap_witness,
    normalize_ray,
    psi_p_hrep,
    reduced_facet_row,
    to_sym,
    u1_loop,
    uniform,
)
import symcone.cone as cone_module
from symcone.cone import _eliminate, _incidence
from symcone.families import random_polymatroid, random_symmetric_function
from symcone.setfn import FacetId, elemental_rows
from symcone.symmetry import OrbitLabel, facet_orbit_label
from symcone.verify import _isolation_table

from conftest import (
    all_set_partitions,
    brute_force_rays,
    dense_elemental_rows,
    fraction_conic_decompose,
    fraction_contains,
    fraction_det,
    fraction_first_violation,
    fraction_gauss_jordan,
    fraction_rank,
    fraction_row_values,
    is_certified_ray,
    random_rational_function,
    reference_facet_reduction,
)


def svec(h, p):
    return to_sym(h, p).free_values()


def quadrant():
    return HCone(2, (((1, 0), "x"), ((0, 1), "y")))


class TestHRepConstruction:
    def test_one_block_rows(self):
        n = 5
        cone = psi_p_hrep(canonical_partition((n,)))
        # coordinates s_1..s_n; expected rows: s_n - s_{n-1} and the
        # concavity rows 2 s_{k+1} - s_k - s_{k+2} (origin dropped)
        got = {coeffs for coeffs, _ in cone.rows}
        expected = {tuple(1 if i == n - 1 else -1 if i == n - 2 else 0 for i in range(n))}
        for k in range(n - 1):  # row for pairs with |K| = k
            row = [0] * n
            row[k] += 2
            if k > 0:
                row[k - 1] -= 1
            row[k + 1] -= 1
            expected.add(tuple(row))
        assert got == expected

    def test_two_block_row_count(self):
        for n in (3, 4, 5, 6):
            cone = psi_p_hrep(canonical_partition((1, n - 1)))
            assert len(cone.rows) == 2 + (n - 1) + 2 * (n - 2)
            assert cone.dim == 2 * n - 1

    def test_gamma_row_counts(self):
        for n in (2, 3, 4):
            cone = gamma_n_hrep(GroundSet(n))
            assert len(cone.rows) == elemental_count(n)
            assert cone.dim == (1 << n) - 1

    def test_gamma_rows_match_definition(self):
        for n in range(1, 7):
            got = [(coeffs, (fid.I, fid.K))
                   for coeffs, fid in gamma_n_hrep(GroundSet(n)).rows]
            assert got == dense_elemental_rows(n)

    def test_gamma_first_negative_row_is_first_violation(self, rng):
        seen = set()
        for n in (1, 2, 3, 4, 5):
            ground = GroundSet(n)
            cone = gamma_n_hrep(ground)
            for _ in range(40):
                if rng.random() < 0.3:
                    f = random_rational_function(ground, rng)
                else:
                    vals = list(random_polymatroid(ground, rng).values)
                    vals[rng.randint(1, ground.full_mask)] -= Fraction(1, rng.randint(1, 7))
                    f = SetFunction(ground, tuple(vals))
                values = cone.row_values(f.values[1:])
                first = next((fid for (_, fid), x in zip(cone.rows, values) if x < 0), None)
                want = fraction_first_violation(f.values, n)
                assert want == (None if first is None else (first.I, first.K))
                seen.add(None if want is None else want[1] != 0)
        assert seen == {None, False, True}

    def test_rejects_duplicates_and_zero_rows(self):
        with pytest.raises(ValueError):
            HCone(2, (((1, 0), "a"), ((2, 0), "b")))  # same direction
        with pytest.raises(ValueError):
            HCone(2, (((0, 0), "a"),))

    def test_reduced_rows_match_cone_rows(self):
        p = canonical_partition((2, 2))
        by_label = {label: coeffs for coeffs, label in psi_p_hrep(p).rows}
        for fid in elemental_rows(p.ground):
            label = facet_orbit_label(fid, p)
            assert reduced_facet_row(fid, p) == by_label[label]

    def test_reduced_facet_row_sums_definition(self):
        # each dense elemental row summed per count tuple, origin dropped
        for n in range(1, 6):
            for p in canonical_representatives(n):
                for coeffs, (i, k) in dense_elemental_rows(n):
                    want = [0] * (len(p.count_tuples) - 1)
                    for mask, c in enumerate(coeffs, 1):
                        counts = tuple((mask & b).bit_count() for b in p.blocks)
                        want[p.count_tuples.index(counts) - 1] += c
                    assert reduced_facet_row(FacetId(i, k), p) == tuple(want)

    def test_reduced_facet_row_rejects_unknown_id(self):
        with pytest.raises(ValueError, match="out of range"):
            reduced_facet_row(FacetId(0b101), canonical_partition((2,)))


    def test_equal_partitions_share_one_reduced_cone(self):
        parts = [p.block_sizes for n in range(1, 7)
                 for p in canonical_representatives(n)]
        for p in [canonical_partition(q) for q in parts] + [
                Partition.parse("1,3|2,4", GroundSet(4))]:
            twin = Partition.parse(str(p), GroundSet(p.n))
            cone = psi_p_hrep(p)
            assert psi_p_hrep(twin) is cone
            fresh = psi_p_hrep.__wrapped__(p)
            assert cone.rows == fresh.rows and cone.coords == fresh.coords

    def test_equal_ground_sets_share_one_full_cone(self):
        for n in range(1, 7):
            cone = gamma_n_hrep(GroundSet(n))
            assert gamma_n_hrep(GroundSet(n)) is cone
            fresh = gamma_n_hrep.__wrapped__(GroundSet(n))
            assert cone.rows == fresh.rows and cone.coords == fresh.coords


class TestExtremeRays:
    def test_quadrant(self):
        rays = extreme_rays(quadrant())
        assert [r.direction for r in rays] == [(0, 1), (1, 0)]

    def test_one_block_rays_are_uniform_ranks(self):
        for n in (2, 3, 4, 5):
            p = canonical_partition((n,))
            rays = {r.direction for r in extreme_rays(psi_p_hrep(p))}
            expected = {normalize_ray(svec(uniform(m, n), p)).direction for m in range(1, n + 1)}
            assert rays == expected

    def test_two_block_ray_counts(self):
        for n, count in ((2, 3), (3, 6), (4, 10)):
            p = canonical_partition((1, n - 1))
            assert len(extreme_rays(psi_p_hrep(p))) == count

    def test_row_order_invariance(self, rng):
        for parts in ((1, 3), (1, 1, 1, 1), (3, 3)):
            cone = psi_p_hrep(canonical_partition(parts))
            baseline = {r.direction for r in extreme_rays(cone)}
            rows = list(cone.rows)
            for _ in range(5):
                rng.shuffle(rows)
                shuffled = HCone(cone.dim, tuple(rows), cone.coords)
                assert {r.direction for r in extreme_rays(shuffled)} == baseline

    def test_not_pointed_reports_line(self):
        cone = HCone(2, (((1, 0), "only"),))
        with pytest.raises(NotPointedError) as err:
            extreme_rays(cone)
        d = err.value.direction
        assert d != (0, 0) and d[0] * 1 + d[1] * 0 == 0

    def test_dimension_cap(self):
        cone = gamma_n_hrep(GroundSet(5))
        with pytest.raises(UnsupportedSizeError):
            extreme_rays(cone, max_dim=20)
        with pytest.raises(UnsupportedSizeError):
            extreme_rays(psi_p_hrep(canonical_partition((2, 3))), max_dim=5)

    def test_gamma3_ray_inventory_properties(self):
        cone = gamma_n_hrep(GroundSet(3))
        rays = extreme_rays(cone)
        dim = cone.dim
        for ray in rays:
            values = cone.row_values(ray.direction)
            assert all(v >= 0 for v in values)
            tight_rows = [
                coeffs for (coeffs, _), v in zip(cone.rows, values) if v == 0
            ]
            assert fraction_rank(tight_rows) == dim - 1
        # every facet row supports dim-1 independent tight rays
        for coeffs, _ in cone.rows:
            tight_rays = [
                r.direction
                for r in rays
                if sum(c * x for c, x in zip(coeffs, r.direction)) == 0
            ]
            assert fraction_rank(tight_rays) == dim - 1

    def test_full_cone_on_four_elements(self):
        cone = gamma_n_hrep(GroundSet(4))
        rays = extreme_rays(cone)
        assert len(rays) == 41
        for ray in rays:
            values = cone.row_values(ray.direction)
            assert all(v >= 0 for v in values)
            tight = [c for (c, _), v in zip(cone.rows, values) if v == 0]
            assert fraction_rank(tight) == cone.dim - 1

    def test_each_ray_is_irredundant(self):
        for parts in ((4,), (1, 3)):
            cone = psi_p_hrep(canonical_partition(parts))
            rays = extreme_rays(cone)
            for i, ray in enumerate(rays):
                others = [r.direction for j, r in enumerate(rays) if j != i]
                res = conic_decompose(ray.direction, others)
                assert not res.feasible

    def test_dim_23_ray_list_pinned(self):
        # a shape past the benchmark's dim <= 20, on which most rejected
        # pairs are ruled out by a third ray kept from an earlier pair;
        # count and digest were recorded before that reuse existed
        rays = extreme_rays(psi_p_hrep(canonical_partition((1, 1, 5))), max_dim=23)
        digest = hashlib.sha256()
        for r in rays:
            digest.update(f"{','.join(map(str, r.direction))}|{r.tight}\n".encode())
        assert len(rays) == 1890
        assert digest.hexdigest() == (
            "1322e38c4e7f3f2d9eb330a5f419c763546637a82758cd4c300e90af0990b686")

    def test_ray_normalization(self):
        assert normalize_ray((Fraction(1, 2), Fraction(3, 2))).direction == (1, 3)
        assert normalize_ray((Fraction(1, 2), Fraction(3, 2))).tight is None
        assert normalize_ray((-2, -4)).direction == (1, 2)
        with pytest.raises(ValueError):
            Ray((2, 4))


def random_pointed_rows(dim, rng):
    """Distinct primitive integer rows of full rank, so the cone is pointed.

    Rows are oriented to keep a random positive point inside, and entries
    in {-1, 0, 1} make many rays tight on more than dim - 1 rows.
    """
    inside = [rng.randint(1, 3) for _ in range(dim)]
    while True:
        rows = set()
        for _ in range(rng.randint(dim, 2 * dim + 2)):
            row = [rng.randint(-1, 1) for _ in range(dim)]
            if sum(a * b for a, b in zip(row, inside)) < 0:
                row = [-a for a in row]
            if any(row):
                rows.add(tuple(x // gcd(*row) for x in row))
        rows = sorted(rows)
        if fraction_rank(rows) == dim:
            return rows


def seeded_cone(dim, max_terms, seed):
    """A pointed cone with rows of every length from 1 to `max_terms`
    nonzero terms: the unit rows, then two seeded rows per longer
    length, each oriented to keep a random positive point inside."""
    rng = random.Random(seed)
    inside = [rng.randint(1, 3) for _ in range(dim)]
    rows = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for terms in range(2, max_terms + 1):
        while sum(1 for row in rows if dim - row.count(0) == terms) < 2:
            row = [0] * dim
            for j in rng.sample(range(dim), terms):
                row[j] = rng.choice((-3, -2, -1, 1, 2, 3))
            if sum(a * b for a, b in zip(row, inside)) < 0:
                row = [-a for a in row]
            row = tuple(x // gcd(*row) for x in row)
            if row not in rows:
                rows.append(row)
    return HCone(dim, tuple((row, i) for i, row in enumerate(rows)))


def seeded_unit_cone(dim, seed):
    """A pointed cone whose every row is at most two +1 and two -1 unit
    terms: two seeded rows of each shape below, unbalanced ones such as
    2[s] - [t] and [s1] + [s2] - [t] among them, each oriented to keep a
    random positive point inside, then the unit rows.  The unit rows
    come last, so some are inserted by double description."""
    rng = random.Random(seed)
    inside = [rng.randint(1, 3) for _ in range(dim)]
    rows = []
    for shape in ((2, -1), (1, 1, -1), (1, 1, -1, -1), (2, -1, -1),
                  (1, 1, -2), (1, -1)):
        for _ in range(2):
            row = [0] * dim
            for j, c in zip(rng.sample(range(dim), len(shape)), shape):
                row[j] = c
            if sum(a * b for a, b in zip(row, inside)) < 0:
                row = [-a for a in row]
            if tuple(row) not in rows:
                rows.append(tuple(row))
    rows += [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    return HCone(dim, tuple((row, i) for i, row in enumerate(rows)))


def zero_rows(cone, direction) -> int:
    """Bitmask of the rows of `cone` that vanish at `direction`, in Fractions."""
    rows = [coeffs for coeffs, _ in cone.rows]
    values = fraction_row_values(rows, direction)
    return sum(1 << i for i, v in enumerate(values) if v == 0)


class TestRayOracle:
    def test_random_pointed_cones(self, rng):
        for dim in range(2, 7):
            for _ in range(20):
                rows = random_pointed_rows(dim, rng)
                cone = HCone(dim, tuple((row, i) for i, row in enumerate(rows)))
                rays = extreme_rays(cone)
                assert {r.direction for r in rays} == brute_force_rays(rows, dim)
                for r in rays:
                    assert r.tight == zero_rows(cone, r.direction)

    def test_reduced_cones_up_to_four_elements(self):
        for n in (2, 3, 4):
            for p in canonical_representatives(n):
                cone = psi_p_hrep(p)
                rows = [coeffs for coeffs, _ in cone.rows]
                got = {r.direction for r in extreme_rays(cone)}
                if p.block_sizes == (1, 1, 1, 1):
                    # C(28, 14) subsystems are out of reach; certify each
                    # ray and check the 41 rays of the full four-element cone
                    assert len(got) == 41
                    assert all(is_certified_ray(rows, ray) for ray in got)
                else:
                    assert got == brute_force_rays(rows, cone.dim)


class TestRayTight:
    def test_reduced_cones_up_to_dim_15(self):
        shapes = 0
        for n in range(1, 10):
            for p in canonical_representatives(n):
                if prod(s + 1 for s in p.block_sizes) - 1 > 15:
                    continue
                cone = psi_p_hrep(p)
                shapes += 1
                for r in extreme_rays(cone):
                    assert r.tight == zero_rows(cone, r.direction), (str(p), r)
        assert shapes == 24

    @pytest.mark.parametrize("entry", [1.5, Fraction(1, 2), "3"],
                             ids=["float", "half", "str"])
    def test_non_integer_direction_rejected(self, entry):
        with pytest.raises(ValueError, match="not an integer"):
            Ray((entry, 1))

    def test_integral_entries_become_ints(self):
        ray = Ray((Fraction(3, 1), 2.0, True))
        assert ray.direction == (3, 2, 1)
        assert all(type(x) is int for x in ray.direction)
        with pytest.raises(ValueError, match="primitive"):
            Ray((Fraction(4, 1), 2))

    def test_equality_and_hash_ignore_tight(self):
        assert Ray((1, 2)) == Ray((1, 2), 0b101)
        assert hash(Ray((1, 2))) == hash(Ray((1, 2), 0b101))
        assert len({Ray((1, 2), 1), Ray((1, 2), 2)}) == 1


def seeded_matrices(rng, count):
    """Integer matrices with entries -4..4: square, wide and tall, and
    every fourth one rank-deficient through a row that is a sum of
    multiples of earlier rows."""
    out = []
    for case in range(count):
        n = 1 + case % 6
        rows = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(0, n + 3))]
        if case % 4 == 0 and len(rows) >= 2:
            a, b = (rng.randrange(len(rows) - 1) for _ in range(2))
            rows[-1] = [rng.randint(-2, 2) * x + rng.randint(-2, 2) * y
                        for x, y in zip(rows[a], rows[b])]
        out.append(rows)
    return out


class TestElimination:
    def test_matches_fraction_reference(self, rng):
        seen = {"den < 0": 0, "rank-deficient": 0, "tall": 0, "full rank": 0}
        for rows in seeded_matrices(rng, 400):
            n = len(rows[0]) if rows else 0
            kept, den = _eliminate(rows)
            ref = fraction_gauss_jordan(rows)
            assert [(i, c) for i, c, _ in kept] == [(i, c) for i, c, _ in ref]
            pivots = [c for _, c, _ in kept]
            basis = [rows[i] for i, _, _ in kept]
            for (_, col, row), (_, _, ref_row) in zip(kept, ref):
                assert [row[c] for c in pivots] == [den * (c == col) for c in pivots]
                assert [Fraction(x, den) for x in row[:n]] == ref_row
                # the tags times B give the coefficients: at full rank,
                # den times the identity permuted to the pivots
                tags = row[n:n + len(kept)]
                assert row[n + len(kept):] == [0] * (n - len(kept))
                assert [sum(t * b[j] for t, b in zip(tags, basis))
                        for j in range(n)] == row[:n]
                if len(kept) == n:
                    assert row[:n] == [den * (j == col) for j in range(n)]
            if kept:
                assert den == fraction_det([[b[c] for c in pivots] for b in basis])
            else:
                assert den == 1
            seen["den < 0"] += den < 0
            seen["rank-deficient"] += len(kept) < min(n, len(rows))
            seen["tall"] += len(rows) > n
            seen["full rank"] += len(kept) == n > 0
        assert all(seen.values()), seen

    def test_not_pointed_direction_on_seeded_cones(self, rng):
        lines = 0
        for rows in seeded_matrices(rng, 400):
            n = len(rows[0]) if rows else 0
            if n == 0:
                continue
            try:
                cone = HCone(n, tuple((tuple(r), i) for i, r in enumerate(rows)))
            except ValueError:
                continue
            pivots = {c for _, c, _ in fraction_gauss_jordan(
                [coeffs for coeffs, _ in cone.rows])}
            if len(pivots) == n:
                continue
            with pytest.raises(NotPointedError) as err:
                extreme_rays(cone)
            d = err.value.direction
            free = [j for j in range(n) if j not in pivots]
            assert gcd(*d) == 1 and d[free[0]] > 0
            assert all(d[j] == 0 for j in free[1:])
            assert all(sum(a * x for a, x in zip(coeffs, d)) == 0
                       for coeffs, _ in cone.rows)
            lines += 1
        assert lines > 50


class TestIncidence:
    @pytest.mark.parametrize("count,width", [
        (0, 6), (1, 9), (130, 11), (7, 150), (100, 100),
    ], ids=["no_rays", "one_ray", "many_rays", "many_rows", "many_both"])
    def test_transpose_matches_bit_definition(self, rng, count, width):
        for _ in range(10):
            tight = [rng.getrandbits(width) for _ in range(count)]
            got = _incidence(tight, width)
            assert len(got) == width
            for i, rays in enumerate(got):
                assert rays == sum(1 << k for k, t in enumerate(tight) if t >> i & 1)

    def test_full_and_empty_masks(self):
        width = 70
        full = (1 << width) - 1
        assert _incidence([full, 0, full], width) == [0b101] * width
        assert _incidence([0] * 65, width) == [0] * width


class TestFrontierShapes:
    @pytest.mark.parametrize("parts,count", [
        ((1, 2, 2), 378), ((2, 5), 320), ((1, 1, 4), 416), ((3, 4), 1546),
        ((1, 1, 5), 1890), ((1, 1, 1, 2), 3712),
    ], ids=["1_2_2", "2_5", "1_1_4", "3_4", "1_1_5", "1_1_1_2"])
    def test_ray_counts(self, parts, count):
        cone = psi_p_hrep(canonical_partition(parts))
        rays = extreme_rays(cone, max_dim=23)
        assert len(rays) == count
        if count < 1000:
            rows = [coeffs for coeffs, _ in cone.rows]
            assert all(is_certified_ray(rows, r.direction) for r in rays)
        # up to 54 rows and 3,712 rays: the double-description
        # incidence ints here are far wider than a machine word
        for r in rays:
            values = cone.row_values(r.direction)
            assert r.tight == sum(1 << i for i, v in enumerate(values) if v == 0)


class TestContains:
    def test_gap_witness_in_reduced_cone(self):
        p = canonical_partition((2, 2))
        assert psi_p_hrep(p).contains(svec(gap_witness(2, 2), p))

    def test_negated_ray_outside(self):
        p = canonical_partition((4,))
        vec = [-x for x in svec(uniform(1, 4), p)]
        assert not psi_p_hrep(p).contains(vec)

    def test_zero_vector_inside(self):
        cone = psi_p_hrep(canonical_partition((2, 2)))
        assert cone.contains((0,) * cone.dim)

    @staticmethod
    def assert_matches_reference(cone, v):
        rows = [coeffs for coeffs, _ in cone.rows]
        want = fraction_row_values(rows, v)
        got = cone.row_values(v)
        assert got == want
        assert [type(x) for x in got] == [type(x) for x in want]
        assert cone.contains(v) == fraction_contains(rows, v)

    @staticmethod
    def cones():
        return [psi_p_hrep(canonical_partition(parts))
                for parts in ((1, 2), (2, 2), (1, 1, 2), (1, 4), (3,))] + [
            gamma_n_hrep(GroundSet(3)), gamma_n_hrep(GroundSet(4)),
            seeded_unit_cone(6, 3), seeded_cone(6, 4, 1), seeded_cone(6, 6, 2)]

    def test_random_vectors_match_fraction_reference(self, rng):
        """Mixed denominators and negative entries, and int-only vectors."""
        for cone in self.cones():
            for _ in range(40):
                v = [Fraction(rng.randint(-6, 9), rng.randint(1, 6))
                     for _ in range(cone.dim)]
                self.assert_matches_reference(cone, v)
                self.assert_matches_reference(cone, [rng.randint(-3, 9) for _ in v])

    def test_points_on_faces_match_fraction_reference(self, rng):
        """Rays and fractional combinations of two rays sit on faces: some
        row values are exactly zero."""
        for cone in self.cones():
            rays = [r.direction for r in extreme_rays(cone)]
            for r in rays:
                self.assert_matches_reference(cone, r)
                assert 0 in cone.row_values(r) and cone.contains(r)
            for _ in range(20):
                r1, r2 = rng.sample(rays, 2)
                a = Fraction(rng.randint(1, 5), rng.randint(1, 7))
                b = Fraction(rng.randint(1, 5), rng.randint(1, 7))
                v = [a * x + b * y for x, y in zip(r1, r2)]
                self.assert_matches_reference(cone, v)
                j = rng.randrange(cone.dim)
                v[j] -= Fraction(1, rng.randint(2, 9))
                self.assert_matches_reference(cone, v)


class TestRowValues:
    """A vector of plain ints is read as it is; bools, `Fraction`s and
    mixed vectors are scaled first.  Both give the reference values and
    result types."""

    def test_entry_types_match_fraction_reference(self, rng):
        cones = TestContains.cones()
        assert {cone._kernel is None for cone in cones} == {True, False}
        for cone in cones:
            for _ in range(20):
                ints = [rng.randint(-4, 9) for _ in range(cone.dim)]
                for v in (
                    ints,
                    [bool(x % 2) for x in ints],
                    [Fraction(x) for x in ints],
                    [Fraction(x, rng.randint(1, 5)) for x in ints],
                    [x if i % 2 else Fraction(x, 3) for i, x in enumerate(ints)],
                    [x if i % 2 else x > 0 for i, x in enumerate(ints)],
                ):
                    TestContains.assert_matches_reference(cone, v)
                assert cone.row_values(iter(ints)) == cone.row_values(tuple(ints))

    def test_wrong_length_raises_one_message(self):
        for cone in TestContains.cones():
            for v in ([1] * (cone.dim - 1), (1,) * (cone.dim + 1),
                      [True] * (cone.dim + 1), [Fraction(1, 2)] * (cone.dim - 1)):
                with pytest.raises(ValueError) as err:
                    cone.row_values(v)
                assert str(err.value) == "vector length does not match cone dimension"


class TestRowKernel:
    """Rows of at most two +1 and two -1 unit terms take the `(i, j, k, l)`
    kernel; a cone with any other row takes the sparse loop.
    `TestContains` checks both paths against the Fraction reference."""

    def test_seeded_cones_take_both_paths(self):
        unit = seeded_unit_cone(6, 3)
        coeffs = [row for row, _ in unit.rows]
        assert any(sorted(r) == [-1, 0, 0, 0, 0, 2] for r in coeffs)
        assert any(sorted(r) == [-1, 0, 0, 0, 1, 1] for r in coeffs)
        assert unit.contains((0,) * 6) and unit.row_values((1,) * 6)
        assert unit._kernel is not None and "_sparse" not in vars(unit)
        # both draw coefficients of 3, so neither is of the unit form
        for cone in (seeded_cone(6, 4, 1), seeded_cone(6, 6, 2)):
            assert cone.contains((0,) * 6)
            assert cone._kernel is None

    def test_kernel_rows(self):
        """A missing term is the zero slot at index `dim`; a coefficient
        of +-2 is its index twice."""
        rows = ((2, -1, 0), (1, 1, -1), (1, 0, 0), (0, -1, 0),
                (1, -1, 0), (-2, 1, 1), (-1, 0, 2), (1, 1, -2))
        cone = HCone(3, tuple((r, i) for i, r in enumerate(rows)))
        assert cone._kernel == ((0, 0, 1, 3), (0, 1, 2, 3), (0, 3, 3, 3),
                                (3, 3, 1, 3), (0, 3, 1, 3), (1, 2, 0, 0),
                                (2, 2, 0, 3), (0, 1, 2, 2))

    @pytest.mark.parametrize("row", [
        (3, -1, 0, 0), (-3, 1, 1, 0), (1, 1, 1, -1), (-1, -1, -1, 1),
        (1, 0, 0, -10 ** 12), (10 ** 12, 0, 0, 1)])
    def test_other_rows_take_the_sparse_path(self, row, rng):
        """A coefficient beyond +-2 gives None before it is expanded into
        indices, so 10**12 builds no list."""
        rows = tuple((r, i) for i, r in enumerate(
            [tuple(int(i == j) for j in range(4)) for i in range(4)] + [row]))
        cone = HCone(4, rows)
        assert cone._kernel is None
        for _ in range(20):
            TestContains.assert_matches_reference(
                cone, [Fraction(rng.randint(-3, 9), rng.randint(1, 4)) for _ in range(4)])

    def test_built_cones_take_the_kernel_path(self):
        """Every row builder of the package leaves rows of the unit form."""
        for n in range(1, 8):
            assert gamma_n_hrep(GroundSet(n))._kernel is not None
            for p in canonical_representatives(n):
                assert psi_p_hrep(p)._kernel is not None
        # the isolation tables evaluate family rows through the cone's
        # own kernel entries, not copies
        families = 0
        for n in range(2, 6):
            reps = canonical_representatives(n)
            for p in reps:
                kernel = psi_p_hrep(p)._kernel
                for ctx in reps:
                    if covers(ctx, p):
                        for w in _isolation_table(p, ctx).values():
                            rows = w._entry[0]
                            assert all(any(row is k for k in kernel) for row in rows)
                            families += 1
        assert families > 0

    def test_seeded_cones_match_brute_force_rays(self):
        for cone in (seeded_unit_cone(6, 3), seeded_cone(6, 4, 1), seeded_cone(6, 6, 2)):
            rows = [coeffs for coeffs, _ in cone.rows]
            rays = extreme_rays(cone)
            assert len(rays) > 6
            assert {r.direction for r in rays} == brute_force_rays(rows, cone.dim)
            for r in rays:
                assert r.tight == zero_rows(cone, r.direction)

    def test_unchanged_int_rows_are_kept_as_given(self):
        kept, scaled = (1, -2), (2, 2)
        cone = HCone(2, ((kept, "k"), (scaled, "s"),
                         ((Fraction(0), Fraction(1)), "f"), ([1, 0], "l")))
        assert cone.rows[0][0] is kept
        assert [coeffs for coeffs, _ in cone.rows[1:]] == [(1, 1), (0, 1), (1, 0)]
        assert all(type(x) is int for coeffs, _ in cone.rows for x in coeffs)


class TestConicDecompose:
    def test_recovers_known_combination(self):
        p = canonical_partition((4,))
        gens = [svec(uniform(m, 4), p) for m in range(1, 5)]
        target = [a + 2 * c for a, c in zip(gens[0], gens[2])]
        res = conic_decompose(target, gens)
        assert res.feasible
        assert res.coefficients == (1, 0, 2, 0)

    def test_gap_witness_decomposes_over_reduced_rays(self):
        p = canonical_partition((2, 2))
        rays = extreme_rays(psi_p_hrep(p))
        res = conic_decompose(svec(gap_witness(2, 2), p), rays)
        assert res.feasible
        recon = [
            sum(c * r.direction[i] for c, r in zip(res.coefficients, rays))
            for i in range(len(rays[0].direction))
        ]
        assert recon == list(svec(gap_witness(2, 2), p))

    def test_farkas_certificate_contract(self, rng):
        p = canonical_partition((1, 2))
        gens = [svec(u, p) for u in family_Un(3)]
        dim = len(gens[0])
        found = 0
        while found < 5:
            vec = [Fraction(rng.randint(-4, 4)) for _ in range(dim)]
            res = conic_decompose(vec, gens)
            if res.feasible:
                continue
            found += 1
            w = res.certificate
            assert all(sum(a * b for a, b in zip(w, g)) >= 0 for g in gens)
            assert sum(a * b for a, b in zip(w, vec)) < 0

    def test_checks_survive_optimized_mode(self):
        script = (
            "from symcone import conic_decompose\n"
            "gens = [(1, 0), (1, 1)]\n"
            "print(__debug__)\n"
            "print(*conic_decompose((3, 1), gens).coefficients)\n"
            "print(*conic_decompose((0, 1), gens).certificate)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True,
            text=True, check=True, env=env,
        ).stdout.splitlines()
        assert out[:2] == ["False", "2 1"]
        w = [Fraction(x) for x in out[2].split()]
        assert w[0] >= 0 and w[0] + w[1] >= 0 and w[1] < 0

    def test_package_has_no_assert_statements(self):
        # the checks must hold under -O, which strips every assert
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_package_has_no_unused_imports(self):
        # module-level imports only; `__init__.py` exists to re-export
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        found = []
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            bound = {
                (alias.asname or alias.name).split(".")[0]: node.lineno
                for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
            }
            used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            found += [f"{path.name}:{line} {name}"
                      for name, line in bound.items() if name not in used]
        assert found == []

    def test_package_has_no_unused_private_helpers(self):
        # a module-level `_name` function or class needs a reference
        # outside its own definition, in any module of the package
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        trees = {path.name: ast.parse(path.read_text(), str(path))
                 for path in sorted(src.glob("*.py"))}
        found = []
        for name, tree in trees.items():
            for node in tree.body:
                if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_")
                        and not node.name.startswith("__")):
                    continue
                inside = {id(n) for n in ast.walk(node)}
                refs = [n for other in trees.values() for n in ast.walk(other)
                        if id(n) not in inside
                        and node.name in (getattr(n, "id", None), getattr(n, "attr", None))]
                if not refs:
                    found.append(f"{name}:{node.lineno} {node.name}")
        assert found == []

    def test_package_import_layers(self):
        # module-level `from .x import` edges; `__init__.py` re-exports all
        below_cli = {"setfn", "partitions", "symmetry", "cone", "families"}
        layers = {
            "setfn": set(),
            "partitions": {"setfn"},
            "symmetry": {"partitions", "setfn"},
            "cone": {"partitions", "setfn", "symmetry"},
            "families": {"partitions", "setfn", "symmetry"},
            "verify": below_cli,
            "cli": below_cli | {"verify"},
        }
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        found = {}
        for path in sorted(src.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            found[path.stem] = {
                node.module for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
            }
        assert found == layers

    def test_package_private_imports_pinned(self):
        # `from .x import _name` reaches into another module's
        # internals; only these edges may do so
        allowed = {
            ("cone", "setfn", "_clear_denominators"),
            ("verify", "cone", "_eliminate"),
        }
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        found = set()
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            found |= {
                (path.stem, node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level
                for alias in node.names
                if alias.name.startswith("_")
            }
        assert found == allowed

    def test_import_builds_no_tables(self):
        # every table is built on first use, so a fresh import of every
        # module stays cheap.  The caches are found by walking the modules,
        # one entry per wrapper object with every name it is bound to,
        # and their number must match the `cache` and `lru_cache` uses
        # in the source, so that no cache escapes the walk.
        script = (
            "import importlib, json, pkgutil, sys, symcone\n"
            "for info in pkgutil.iter_modules(symcone.__path__):\n"
            "    importlib.import_module(f'symcone.{info.name}')\n"
            "found = {}\n"
            "for name, mod in sorted(sys.modules.items()):\n"
            "    if name.startswith('symcone.'):\n"
            "        for key, val in vars(mod).items():\n"
            "            if callable(getattr(val, 'cache_info', None)):\n"
            "                entry = found.setdefault(id(val), [[], val.cache_info().currsize])\n"
            "                entry[0].append(f'{name}.{key}')\n"
            "print(json.dumps(sorted(found.values())))\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True, env=env).stdout
        found = json.loads(out)
        src = Path(__file__).resolve().parents[1] / "src" / "symcone"
        uses = [
            f"{path.name}:{node.lineno}"
            for path in sorted(src.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and (getattr(node, "id", None) or getattr(node, "attr", None))
            in ("cache", "lru_cache")
        ]
        assert len(found) == len(uses) > 0, (found, uses)
        assert [names for names, size in found if size] == []

    def test_matches_fraction_simplex_on_random_cones(self, rng):
        """Same coefficients or certificate as the Fraction simplex."""
        outcomes = []
        for case in range(250):
            d = 2 + case % 5
            k = 1 + case % 8
            gens = [tuple(Fraction(rng.randint(-4, 6), rng.randint(1, 5))
                          for _ in range(d)) for _ in range(k)]
            if case % 2:
                weights = [Fraction(rng.randint(0, 4), rng.randint(1, 3)) for _ in gens]
                target = [sum(w * g[i] for w, g in zip(weights, gens))
                          for i in range(d)]
            else:
                target = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                          for _ in range(d)]
            target[rng.randrange(d)] = 0
            res = conic_decompose(target, gens)
            assert res == fraction_conic_decompose(target, gens)
            outcomes.append(res.feasible)
        assert 50 < sum(outcomes) < 200

    def test_matches_fraction_simplex_on_generator_family(self, rng):
        """`decompose_1n` round trips and certificates for n = 3..5."""
        outcomes = set()
        for n in (3, 4, 5):
            p = canonical_partition((1, n - 1))
            gens = [svec(u, p) for u in family_Un(n)]
            for _ in range(15):
                h = random_symmetric_function(p, rng)
                want = fraction_conic_decompose(svec(h, p), gens)
                assert decompose_1n(h, n) == want
                outcomes.add(want.feasible)
        assert outcomes == {True, False}

    def test_int_generators_are_kept_as_given(self, monkeypatch):
        """Only the target and a generator with a non-int entry are
        scaled; the answer is the Fraction simplex's."""
        scaled = []

        def spy(vec):
            scaled.append(tuple(vec))
            return clear(vec)

        clear = cone_module._clear_denominators
        monkeypatch.setattr(cone_module, "_clear_denominators", spy)
        gens = [(2, 0, 1), Ray((0, 1, 1)), (Fraction(1, 2), 1, 0), (True, 0, 0)]
        for target in ((Fraction(5, 2), 2, 1), (-1, 1, 0)):
            scaled.clear()
            assert conic_decompose(target, gens) == fraction_conic_decompose(target, gens)
            assert scaled == [target, gens[2], gens[3]]

    def test_empty_generator_list(self):
        res = conic_decompose((0, 0), [])
        assert res.feasible and res.coefficients == ()
        res = conic_decompose((1, 0), [])
        assert not res.feasible

    def test_round_trip_on_random_cone_points(self, rng):
        p = canonical_partition((1, 3))
        gens = [svec(u, p) for u in family_Un(4)]
        for _ in range(10):
            weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
            target = [
                sum(w * g[i] for w, g in zip(weights, gens))
                for i in range(len(gens[0]))
            ]
            res = conic_decompose(target, gens)
            assert res.feasible
            recon = [
                sum(c * g[i] for c, g in zip(res.coefficients, gens))
                for i in range(len(target))
            ]
            assert recon == target


class TestRelabeledBlocks:
    def test_interleaved_blocks_behave_like_canonical(self):
        g = GroundSet(4)
        from symcone import Partition

        canonical = canonical_partition((2, 2))
        interleaved = Partition.parse("1,3|2,4", g)
        assert facet_reduction_check(interleaved)
        a = extreme_rays(psi_p_hrep(canonical))
        b = extreme_rays(psi_p_hrep(interleaved))
        assert {r.direction for r in a} == {r.direction for r in b}


class TestFacetReduction:
    def test_standard_partitions(self):
        assert facet_reduction_check(canonical_partition((2, 2)))
        assert facet_reduction_check(canonical_partition((4,)))
        assert facet_reduction_check(canonical_partition((1, 1, 1, 1)))

    def test_all_canonical_n_up_to_4(self):
        for n in (2, 3, 4):
            for p in canonical_representatives(n):
                assert facet_reduction_check(p)

    @staticmethod
    def partitions():
        """Every canonical partition with n <= 7, then every set partition
        with n <= 5, interleaved blocks such as 1,3|2,4 included."""
        return ([p for n in range(1, 8) for p in canonical_representatives(n)]
                + [p for n in range(1, 6) for p in all_set_partitions(n)])

    def test_agrees_with_per_facet_reference(self):
        parts = self.partitions()
        assert "1,3|2,4" in {str(p) for p in parts}
        for p in parts:
            assert facet_reduction_check(p) is True, str(p)
            assert reference_facet_reduction(p, psi_p_hrep(p)) is True, str(p)

    def test_agrees_with_reference_on_corrupted_cones(self, monkeypatch):
        # the first, a middle and the last row of each cone: a coefficient
        # moved by one, the label of another row, the row dropped, or one
        # more row beside it whose label no facet has (block 1 in both I
        # and K), which only the every-label-hit check catches
        parts = [p for n in range(2, 6) for p in canonical_representatives(n)]
        parts.append(Partition.parse("1,3|2,4", GroundSet(4)))
        checked = 0
        for p in parts:
            rows = psi_p_hrep(p).rows
            bogus = OrbitLabel((2,) + (0,) * (p.t - 1), p.block_sizes)
            for r in sorted({0, len(rows) // 2, len(rows) - 1}):
                (coeffs, label), (near, other) = rows[r], rows[r - 1]
                bumped = coeffs[:-1] + (coeffs[-1] + 1,)
                summed = tuple(x + y for x, y in zip(coeffs, near))
                for replaced in (((bumped, label),), ((coeffs, other),), (),
                                 ((coeffs, label), (summed, bogus))):
                    kept = rows[:r] + replaced + rows[r + 1:]
                    try:
                        bad = HCone(len(coeffs), kept, psi_p_hrep(p).coords)
                    except ValueError:
                        continue  # a repeated or zero row
                    monkeypatch.setattr(cone_module, "psi_p_hrep", lambda q: bad)
                    assert facet_reduction_check(p) is False, (str(p), r, replaced)
                    assert reference_facet_reduction(p, bad) is False
                    monkeypatch.undo()
                    checked += 1
        assert checked == 212

    def test_membership_equivalence_on_named_points(self):
        p = canonical_partition((2, 2))
        full = gamma_n_hrep(p.ground)
        red = psi_p_hrep(p)
        h = gap_witness(2, 2)
        assert full.contains(h.values[1:]) and red.contains(svec(h, p))
        bad = -1 * u1_loop(4)
        assert not full.contains(bad.values[1:])


class TestHConeText:
    def test_header_and_rows(self):
        p = canonical_partition((1, 1))
        text = psi_p_hrep(p).to_text().splitlines()
        assert text[0] == "3 3 labels"
        assert text[1].startswith("[1_2(1)|0]:")
