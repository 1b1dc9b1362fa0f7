"""Acceptance battery.

One test per release criterion, each run exactly at its stated size
with exact arithmetic and a wall-clock budget; a pass/fail line is
printed per criterion (visible with `pytest -s`).
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from symcone import (
    GroundSet,
    SetFunction,
    build_isolation,
    canonical_expansion,
    canonical_partition,
    canonical_representatives,
    check_isolation,
    conic_decompose,
    covers,
    decompose_1n,
    elemental_count,
    elemental_rows,
    extreme_rays,
    factor,
    family_Un,
    family_Un_tags,
    form_value,
    free_expansion,
    gamma_n_hrep,
    gap_witness,
    gap_witness_blocks,
    is_matroid,
    is_p_symmetric,
    is_polymatroid,
    mask_of,
    normalize_ray,
    orbit_count_formula,
    orbit_labels,
    orbit_sizes,
    psi_p_hrep,
    restrict,
    symmetrize,
    to_sym,
    two_block_coarsening,
    uniform,
    verify_facet_bijection,
    verify_gap,
    verify_psi_1n1,
    verify_psi_n,
    zhang_yeung_form,
)
from symcone.families import random_polymatroid, random_symmetric_function

from conftest import apply_to_function, block_permutations, random_rational_function


def _criterion(name: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL  {name}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name}: {elapsed:.2f}s over the {budget_s}s budget"
    print(f"PASS  {name}  ({elapsed:.2f}s < {budget_s:g}s)")


def test_criterion_1_facet_counts():
    def body():
        for n in range(1, 9):
            assert len(elemental_rows(GroundSet(n))) == elemental_count(n)
        assert elemental_count(4) == 28

    _criterion("criterion-1 facet counts n=1..8", 1.0, body)


def test_criterion_2_orbit_reduction():
    def body():
        for n in range(1, 7):
            for p in canonical_representatives(n):
                verdict = verify_facet_bijection(p)
                assert verdict.passed, (str(p), verdict.counterexample)
        assert orbit_count_formula(canonical_partition((2, 2))) == 12
        for n in range(2, 7):
            assert orbit_count_formula(canonical_partition((n,))) == n
            singletons = canonical_partition((1,) * n)
            assert orbit_count_formula(singletons) == elemental_count(n)

    _criterion("criterion-2 orbit reduction n<=6", 30.0, body)


def test_criterion_3_symmetrization_oracle():
    def body():
        rng = random.Random(3)
        for n in range(2, 6):
            for p in canonical_representatives(n):
                perms = list(block_permutations(p))
                for _ in range(50):
                    h = random_rational_function(p.ground, rng)
                    avg = SetFunction(p.ground, (0,) * (1 << n))
                    for sigma in perms:
                        avg = avg + apply_to_function(sigma, h)
                    avg = Fraction(1, len(perms)) * avg
                    assert symmetrize(h, p).values == avg.values

    _criterion("criterion-3 orbit average oracle n<=5", 30.0, body)


def test_criterion_4_one_block_rays():
    def body():
        for n in range(2, 8):
            verdict = verify_psi_n(n)
            assert verdict.passed, verdict.counterexample
            p = canonical_partition((n,))
            assert len(extreme_rays(psi_p_hrep(p))) == n

    _criterion("criterion-4 one-block extreme rays n=2..7", 10.0, body)


def test_criterion_5_two_block_rays():
    def body():
        expected = {2: 3, 3: 6, 4: 10, 5: 15}
        for n, count in expected.items():
            verdict = verify_psi_1n1(n)
            assert verdict.passed, verdict.counterexample
            p = canonical_partition((1, n - 1))
            assert len(extreme_rays(psi_p_hrep(p))) == count

    _criterion("criterion-5 singleton-block extreme rays n=2..5", 60.0, body)


def test_criterion_6_gap_witnesses():
    def body():
        for parts in ((2, 2), (2, 3), (3, 3)):
            p = canonical_partition(parts)
            witness = gap_witness(*parts)
            assert is_polymatroid(witness)
            assert psi_p_hrep(p).contains(to_sym(witness, p).free_values())
            assert verify_gap(p).passed
        for parts in ((1, 1, 2), (1, 2, 2), (2, 2, 2)):
            p = canonical_partition(parts)
            coarse = two_block_coarsening(p)
            witness = gap_witness_blocks(coarse)
            assert is_polymatroid(witness)
            assert is_p_symmetric(witness, p)
            assert psi_p_hrep(p).contains(to_sym(witness, p).free_values())
            verdict = verify_gap(p)
            assert verdict.passed, verdict.counterexample
        restricted = restrict(gap_witness(3, 3), mask_of([1, 2, 4, 5]))
        assert form_value(zhang_yeung_form(GroundSet(4)), restricted) == -1

    _criterion("criterion-6 gap witnesses", 5.0, body)


def test_criterion_7_expansion_and_factor():
    def brute_expansion(h, phi):
        values = []
        for a in range(1 << phi.target.n):
            values.append(
                min(
                    h.values[b] + bin(a & ~phi.of_mask(b)).count("1")
                    for b in range(1 << h.n)
                )
            )
        return tuple(values)

    def body():
        corpus = [uniform(m, n) for n in (2, 3, 4) for m in range(1, n + 1)]
        corpus += [h for n in (2, 3, 4) for h in family_Un(n)]
        corpus += [gap_witness(2, 2)]
        for h in corpus:
            phi = canonical_expansion(h)
            expanded = free_expansion(h, phi)
            assert is_matroid(expanded)
            assert factor(expanded, phi).values == h.values
        witness = gap_witness(2, 2)
        phi = canonical_expansion(witness)
        expanded = free_expansion(witness, phi)
        assert expanded.n == 8
        assert expanded(expanded.ground.full_mask) == 4
        assert is_matroid(expanded)
        assert expanded.values == brute_expansion(witness, phi)

    _criterion("criterion-7 expansion and factor", 10.0, body)


def test_criterion_8_isolation_suite():
    def body():
        for n in range(2, 7):
            context = canonical_partition((n,))
            for p in canonical_representatives(n):
                if p.t != 2:
                    continue
                for label in orbit_labels(p):
                    verdict = check_isolation(build_isolation(p, label, context))
                    assert verdict.passed, (str(p), str(label), verdict.counterexample)
        for n in range(2, 6):
            reps = canonical_representatives(n)
            for p in reps:
                for context in reps:
                    if not covers(context, p):
                        continue
                    for label in orbit_labels(p):
                        verdict = check_isolation(build_isolation(p, label, context))
                        assert verdict.passed, (
                            str(p),
                            str(context),
                            str(label),
                            verdict.counterexample,
                        )

    _criterion("criterion-8 isolation suite", 60.0, body)


def test_criterion_9_decomposition():
    def body():
        rng = random.Random(9)
        for n in (3, 4, 5):
            p = canonical_partition((1, n - 1))
            generators = family_Un(n)
            vectors = [to_sym(g, p).free_values() for g in generators]
            for _ in range(100):
                weights = [
                    Fraction(rng.randint(0, 6), rng.randint(1, 4))
                    for _ in generators
                ]
                point = SetFunction(GroundSet(n), (0,) * (1 << n))
                for w, g in zip(weights, generators):
                    point = point + w * g
                result = decompose_1n(point, n)
                assert result.feasible
                assert all(c >= 0 for c in result.coefficients)
                target = to_sym(point, p).free_values()
                recon = [
                    sum(c * v[i] for c, v in zip(result.coefficients, vectors))
                    for i in range(len(target))
                ]
                assert recon == list(target)
        # certificates for out-of-cone points
        p = canonical_partition((1, 3))
        cone = psi_p_hrep(p)
        vectors = [to_sym(g, p).free_values() for g in family_Un(4)]
        produced = 0
        while produced < 20:
            vec = tuple(Fraction(rng.randint(-4, 6)) for _ in range(cone.dim))
            if cone.contains(vec):
                continue
            result = conic_decompose(vec, vectors)
            assert not result.feasible
            w = result.certificate
            assert all(sum(a * b for a, b in zip(w, v)) >= 0 for v in vectors)
            assert sum(a * b for a, b in zip(w, vec)) < 0
            produced += 1

    _criterion("criterion-9 decomposition round trips", 60.0, body)


def test_criterion_10_membership_equivalence():
    def body():
        rng = random.Random(10)
        for n in range(2, 7):
            full = gamma_n_hrep(GroundSet(n))
            for p in canonical_representatives(n):
                reduced = psi_p_hrep(p)
                for _ in range(100):
                    h = random_symmetric_function(p, rng)
                    in_full = full.contains(h.values[1:])
                    in_reduced = reduced.contains(to_sym(h, p).free_values())
                    assert in_full == in_reduced
                    assert in_full == is_polymatroid(h)

    _criterion("criterion-10 membership equivalence n<=6", 30.0, body)
