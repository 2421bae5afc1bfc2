"""Exact computation with determinant-quotient (Schur) polynomials and
Newton power sums over the rationals and finite fields."""

from .ffield import (
    DESK_CEILING,
    CeilingError,
    FFElement,
    FieldMismatchError,
    FieldSpec,
    FieldTooSmallError,
    RATIONALS,
    frobenius,
    in_subfield,
    make_field,
    multiplicative_generator,
)
from .mpoly import (
    EXPONENT_CAP,
    ZERO_POLY,
    ExponentOverflowError,
    InexactDivisionError,
    LinearForm,
    MultiPoly,
    exact_divide,
    is_homogeneous,
    is_symmetric3,
    linear_multiplicity,
    partial_derivative,
    substitute,
)
from .vschur import (
    ExponentPair,
    Partition3,
    complete_homogeneous,
    i_poly,
    inverted_transform,
    r_poly,
    schur_bialternant,
    t_poly,
    vandermonde,
)
from .factor import (
    FactorReport,
    ProbeReport,
    SignatureWitness,
    divides,
    eisenstein_like_check,
    grad_eval_identity,
    linear_factors_over,
    signature_witness,
    singular_point_probe,
    verify_fact_eq1,
    verify_fact_eq2,
)
from .newton import (
    AlternativePair,
    DegreeReport,
    TowerParams,
    brute_count_alternatives,
    build_alternative_pair,
    degree_of_extension,
    find_irreducible_eta,
    jacobian_nonzero_check,
    newton_poly,
    two_generator_degree,
    verify_newton_identity,
)

__version__ = "0.1.0"
