"""Exact computation with determinant-quotient (Schur) polynomials and
Newton power sums over the rationals and finite fields.

The public names below load their defining module on first use (PEP 562),
so a command that never builds a polynomial never loads the polynomial
layers.  ``schurlab.t_poly`` is always ``schurlab.vschur.t_poly`` as it is
bound at the time of the lookup.
"""

#: public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("modp", ("DESK_CEILING", "CeilingError")),
        ("ffield", (
            "FFElement",
            "FieldMismatchError",
            "FieldSpec",
            "FieldTooSmallError",
            "RATIONALS",
            "frobenius",
            "make_field",
            "multiplicative_generator",
        )),
        ("mpoly", (
            "EXPONENT_CAP",
            "ZERO_POLY",
            "ExponentOverflowError",
            "InexactDivisionError",
            "LinearForm",
            "MultiPoly",
            "exact_divide",
            "is_homogeneous",
            "is_symmetric3",
            "linear_multiplicity",
            "partial_derivative",
            "substitute",
        )),
        ("vschur", (
            "ExponentPair",
            "Partition3",
            "complete_homogeneous",
            "i_poly",
            "inverted_transform",
            "r_poly",
            "schur_bialternant",
            "t_poly",
            "vandermonde",
        )),
        ("factor", (
            "FactorReport",
            "SignatureWitness",
            "divides",
            "eisenstein_like_check",
            "grad_eval_identity",
            "linear_factors_over",
            "signature_witness",
            "verify_fact_eq1",
            "verify_fact_eq2",
        )),
        ("newton", (
            "AlternativePair",
            "DegreeReport",
            "TowerParams",
            "brute_count_alternatives",
            "build_alternative_pair",
            "degree_of_extension",
            "find_irreducible_eta",
            "two_generator_degree",
            "verify_newton_identity",
        )),
    )
    for name in names
}

#: the public names, then the submodules a star import binds (modp is none)
__all__ = [*_EXPORTS, "ffield", "mpoly", "vschur", "factor", "newton"]

__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
