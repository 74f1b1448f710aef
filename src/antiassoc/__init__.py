"""Exact-arithmetic toolkit for q-generalized associative algebras.

Everything is dimension + rational structure constants: verifiers for
the q-twisted associativity law and its relatives, bimodules and their
duals, matched pairs with the bowtie product, (anti)dendriform
structures, O-operators and Rota-Baxter operators, quadratic and
symplectic double constructions, and a brute-force audit of the
2-dimensional antiassociative classification.  The interesting special
case throughout is q = -1.
"""

from .algebra import (
    CheckReport,
    Fingerprint,
    StructureAlgebra,
    Violation,
    anticommutator_algebra,
    basis_product,
    check_mock_lie,
    check_q_associative,
    check_quartic_vanishing,
    fingerprint,
    mult_operators,
    multiply,
)
from .bimodules import (
    Bimodule,
    action_of,
    check_bimodule,
    dual_bimodule,
    regular_bimodule,
    semidirect_product,
)
from .classify2d import (
    UNKNOWNS,
    ConstraintSystem,
    IsoVerdict,
    are_isomorphic_dim2,
    describe_products,
    enumerate_2d_antiassociative,
    partition_into_classes,
    verify_algebra_isomorphism,
    verify_paper_classification,
)
from .dendriform import (
    DendriformBimodule,
    DendriformMatchedPairData,
    DendriformStructure,
    associated_algebra,
    check_dendriform_bimodule,
    check_dendriform_matched_pair,
    check_q_dendriform,
    dendriform_bowtie,
    dendriform_mult_operators,
    dendriform_semidirect,
    dual_dendriform_bimodule,
    lift_assoc_bimodule,
    regular_dendriform_bimodule,
)
from .doubles import (
    DoubleConstruction,
    build_quadratic_double,
    build_symplectic_double,
    check_dual_matched_pair_criterion,
    check_symplectic_criterion,
    octuple_from_symplectic_pair,
    verify_double_isomorphism,
)
from .forms import (
    BilinearForm,
    check_invariant_symmetric,
    check_symplectic,
    natural_forms,
)
from .linalg import (
    DimensionMismatch,
    Matrix,
    SingularError,
    Tensor3,
    rat,
)
from .matched import MatchedPairData, bowtie, check_matched_pair
from .operators import (
    LinearMap,
    NotAnOOperator,
    NotSymplectic,
    check_o_operator,
    check_rota_baxter,
    compatible_dendriform_from_o_operator,
    dendriform_from_symplectic,
    induced_dendriform_on_module,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearForm",
    "Bimodule",
    "CheckReport",
    "ConstraintSystem",
    "DendriformBimodule",
    "DendriformMatchedPairData",
    "DendriformStructure",
    "DimensionMismatch",
    "DoubleConstruction",
    "Fingerprint",
    "IsoVerdict",
    "LinearMap",
    "MatchedPairData",
    "Matrix",
    "NotAnOOperator",
    "NotSymplectic",
    "SingularError",
    "StructureAlgebra",
    "Tensor3",
    "UNKNOWNS",
    "Violation",
    "action_of",
    "anticommutator_algebra",
    "are_isomorphic_dim2",
    "associated_algebra",
    "basis_product",
    "bowtie",
    "build_quadratic_double",
    "build_symplectic_double",
    "check_bimodule",
    "check_dendriform_bimodule",
    "check_dendriform_matched_pair",
    "check_dual_matched_pair_criterion",
    "check_invariant_symmetric",
    "check_matched_pair",
    "check_mock_lie",
    "check_o_operator",
    "check_q_associative",
    "check_q_dendriform",
    "check_quartic_vanishing",
    "check_rota_baxter",
    "check_symplectic",
    "check_symplectic_criterion",
    "compatible_dendriform_from_o_operator",
    "dendriform_bowtie",
    "dendriform_from_symplectic",
    "dendriform_mult_operators",
    "dendriform_semidirect",
    "describe_products",
    "dual_bimodule",
    "dual_dendriform_bimodule",
    "enumerate_2d_antiassociative",
    "fingerprint",
    "induced_dendriform_on_module",
    "lift_assoc_bimodule",
    "mult_operators",
    "multiply",
    "natural_forms",
    "octuple_from_symplectic_pair",
    "partition_into_classes",
    "rat",
    "regular_bimodule",
    "regular_dendriform_bimodule",
    "semidirect_product",
    "verify_algebra_isomorphism",
    "verify_double_isomorphism",
    "verify_paper_classification",
]
