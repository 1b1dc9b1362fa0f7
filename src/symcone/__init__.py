"""Exact-arithmetic toolkit for symmetric polymatroid cones.

Builds the elemental inequality system of the polymatroid cone,
compresses it by a ground-set partition into a reduced cone with one
facet per orbit, enumerates extreme rays with exact double
description, constructs the named matroid families, and machine-checks
the structural claims about which symmetric cones are spanned by
almost-entropic rays.
"""

from .setfn import (
    DENSE_GROUND_CAP,
    FacetId,
    GroundSet,
    SetFunction,
    UnsupportedSizeError,
    elemental_count,
    elemental_rows,
    is_matroid,
    is_polymatroid,
    mask_of,
    elements_of,
    form_value,
    mutual_info,
    polymatroid_violation,
    zhang_yeung_form,
)
from .partitions import (
    IntegerPartition,
    Partition,
    PartitionVector,
    canonical_partition,
    canonical_representatives,
    covers,
    integer_partitions,
    partition_vector,
    refines,
)
from .symmetry import (
    OrbitLabel,
    SymVector,
    SymmetryError,
    facet_orbit_label,
    from_sym,
    is_p_symmetric,
    orbit_count_formula,
    orbit_labels,
    orbit_sizes,
    reduce_form,
    symmetrize,
    to_sym,
)
from .cone import (
    DecomposeResult,
    HCone,
    NotPointedError,
    Ray,
    conic_decompose,
    extreme_rays,
    facet_reduction_check,
    gamma_n_hrep,
    normalize_ray,
    psi_p_hrep,
    reduced_facet_row,
)
from .families import (
    ExpansionMap,
    build_family,
    canonical_expansion,
    factor,
    family_Un,
    family_Un_tags,
    free_expansion,
    gap_witness,
    gap_witness_blocks,
    restrict,
    u1_loop,
    u_km,
    uniform,
    uniform_factor,
    uniform_on_support,
)
from .verify import (
    IsolationWitness,
    Verdict,
    build_isolation,
    check_isolation,
    collapse_label,
    decompose_1n,
    run_suite,
    two_block_coarsening,
    verify_facet_bijection,
    verify_gap,
    verify_psi_1n1,
    verify_psi_n,
)

__version__ = "0.1.0"
