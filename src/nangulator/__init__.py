"""nangulator: exact detection of bimodule quasi-periodicity for basic quiver
algebras and construction/verification of the induced higher-angulated
structures on their projective module categories."""

from .fields import ExactMatrix, FieldSpec
from .quiver import (
    AlgebraDescription,
    ParseError,
    Quiver,
    SemanticError,
    load_algebra_file,
    parse_algebra,
)
from .algebra import (
    Automorphism,
    BasicAlgebra,
    NakayamaData,
    NotFiniteDimensionalError,
    NotSelfInjectiveError,
    check_self_injective,
    compute_basis,
    identity_automorphism,
    verify_automorphism,
)
from .modules import (
    Module,
    ModuleMorphism,
    hom_space,
    iso_test,
    projective_module,
    pullback,
    tensor_module,
    twisted_bimodule,
)
from .homology import Homology, projective_cover, syzygy
from .periodicity import (
    PeriodicityReport,
    detect_twist,
    quasi_period_scan,
)
from .angulation import (
    AngleSequence,
    FunctorSequence,
    Suspension,
    certify_angle,
    complete_morphism,
    fill_morphism,
    functor_sequence,
    good_fill_and_cone,
    is_exact,
    rotate,
    standard_angle,
    suspension,
)
from .axioms import AxiomReport, verify_axioms

__all__ = [
    "AlgebraDescription",
    "AngleSequence",
    "Automorphism",
    "AxiomReport",
    "BasicAlgebra",
    "ExactMatrix",
    "FieldSpec",
    "FunctorSequence",
    "Homology",
    "Module",
    "ModuleMorphism",
    "NakayamaData",
    "NotFiniteDimensionalError",
    "NotSelfInjectiveError",
    "ParseError",
    "PeriodicityReport",
    "Quiver",
    "SemanticError",
    "Suspension",
    "certify_angle",
    "check_self_injective",
    "complete_morphism",
    "compute_basis",
    "detect_twist",
    "fill_morphism",
    "functor_sequence",
    "good_fill_and_cone",
    "hom_space",
    "identity_automorphism",
    "is_exact",
    "iso_test",
    "load_algebra_file",
    "parse_algebra",
    "projective_cover",
    "projective_module",
    "pullback",
    "quasi_period_scan",
    "rotate",
    "standard_angle",
    "suspension",
    "syzygy",
    "tensor_module",
    "twisted_bimodule",
    "verify_automorphism",
    "verify_axioms",
]
