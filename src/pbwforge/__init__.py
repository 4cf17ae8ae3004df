"""Exact decision engine for the PBW property of inhomogeneous
deformations of N-homogeneous algebras, with builders and classifiers
for the Yang-Mills and super Yang-Mills families."""

from .algebra import (
    AlgebraPresentation,
    build_antisymmetrizer_relations,
    graded_dim,
    graded_dims,
    ideal_component,
    overlap_space,
)
from .classify import (
    FamilyComparison,
    StageSolution,
    family_equals_solutions,
    solve_stage1,
    solve_stage2plus,
)
from .linalg import Matrix, Subspace, kernel, rank, rref, solve_affine
from .pbw import (
    ConservationResult,
    DeformationMap,
    OracleResult,
    PbwVerdict,
    brute_force_oracle,
    conservation_residual,
    deformation_from_tails,
    pbw_verdict,
)
from .rationals import Q, rational
from .super_ym import (
    build_sym,
    centrality_check,
    shifted_generator_check,
    super_current_from_parameters,
    super_current_to_deformation,
    verify_super_identities,
)
from .tensors import ResourceGuardError, TensorElement
from .yang_mills import (
    Current,
    CurrentParameters,
    Metric,
    build_ym,
    current_from_parameters,
    current_to_deformation,
    physics_current,
    verify_identities,
)

__version__ = "1.0.0"

__all__ = [
    "AlgebraPresentation",
    "ConservationResult",
    "Current",
    "CurrentParameters",
    "DeformationMap",
    "FamilyComparison",
    "Matrix",
    "Metric",
    "OracleResult",
    "PbwVerdict",
    "Q",
    "ResourceGuardError",
    "StageSolution",
    "Subspace",
    "TensorElement",
    "brute_force_oracle",
    "build_antisymmetrizer_relations",
    "build_sym",
    "build_ym",
    "centrality_check",
    "conservation_residual",
    "current_from_parameters",
    "current_to_deformation",
    "deformation_from_tails",
    "family_equals_solutions",
    "graded_dim",
    "graded_dims",
    "ideal_component",
    "kernel",
    "overlap_space",
    "pbw_verdict",
    "physics_current",
    "rank",
    "rational",
    "rref",
    "shifted_generator_check",
    "solve_affine",
    "solve_stage1",
    "solve_stage2plus",
    "super_current_from_parameters",
    "super_current_to_deformation",
    "verify_identities",
    "verify_super_identities",
    "__version__",
]
