"""Exact multigraded Betti tables of symmetric monomial ideals.

One finite computation at the stabilization level determines the complete
table shape, projective dimension and regularity of the whole family of
ideals, one per number of variables.  Everything is computed exactly, over
the rationals or a prime field.
"""

__version__ = "0.1.0"

from .betti import (
    BettiRecord,
    BettiSet,
    betti_at_degree,
    betti_set,
    graded_table,
    pd_and_reg,
    upper_koszul_complex,
)
from .homology import (
    ComplexTooLargeError,
    SimplicialComplex,
    boundary_matrices,
    boundary_squares_to_zero,
    chain_homology,
    euler_characteristic_check,
    faces_by_dim,
    rank_over_field,
    reduced_homology_dims,
)
from .ideals import (
    IdealFileError,
    Partition,
    SymmetricIdeal,
    ZeroIdealError,
    candidate_degrees,
    contains_monomial,
    dominates,
    minimal_generators,
    orbit_size,
    parse_ideal_file,
    parse_ideal_text,
    restrict_to_n,
)
from .stability import (
    AsymptoticProfile,
    CheckReport,
    CompactDegree,
    CompactRecord,
    ConsistencyError,
    SegmentSet,
    SizeCapError,
    asymptotics,
    check_positive_lift,
    check_shift_equivalence,
    check_stable_composition,
    compose_betti,
    extrapolate_full_support,
    rank_stability_report,
    segments,
)
from .taylor import (
    GeneratorCapError,
    expand_generators,
    strand_basis,
    taylor_strand_tor,
)

__all__ = [
    "AsymptoticProfile",
    "BettiRecord",
    "BettiSet",
    "CheckReport",
    "CompactDegree",
    "CompactRecord",
    "ComplexTooLargeError",
    "ConsistencyError",
    "GeneratorCapError",
    "IdealFileError",
    "Partition",
    "SegmentSet",
    "SimplicialComplex",
    "SizeCapError",
    "SymmetricIdeal",
    "ZeroIdealError",
    "asymptotics",
    "betti_at_degree",
    "betti_set",
    "boundary_matrices",
    "boundary_squares_to_zero",
    "candidate_degrees",
    "chain_homology",
    "check_positive_lift",
    "check_shift_equivalence",
    "check_stable_composition",
    "compose_betti",
    "contains_monomial",
    "dominates",
    "euler_characteristic_check",
    "expand_generators",
    "extrapolate_full_support",
    "faces_by_dim",
    "graded_table",
    "minimal_generators",
    "orbit_size",
    "parse_ideal_file",
    "parse_ideal_text",
    "pd_and_reg",
    "rank_over_field",
    "rank_stability_report",
    "reduced_homology_dims",
    "restrict_to_n",
    "segments",
    "strand_basis",
    "taylor_strand_tor",
    "upper_koszul_complex",
]
