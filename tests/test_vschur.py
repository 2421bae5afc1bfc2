import itertools
from fractions import Fraction

import pytest

from schurlab import cli, vschur
from schurlab.ffield import make_field
from schurlab.mpoly import (
    EXPONENT_CAP,
    RATIONALS,
    ExponentOverflowError,
    LinearForm,
    MultiPoly,
    exact_divide,
    is_symmetric3,
    linear_multiplicity,
    partial_derivative,
    substitute,
)
from schurlab.vschur import (
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

Q = RATIONALS
F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F4 = make_field(2, 2)
F9 = make_field(3, 2)


def test_vandermonde_expansion():
    X, Y, Z = MultiPoly.gens(Q)
    V = vandermonde(1)
    assert V == (X - Y) * (Z - X) * (Z - Y)
    assert V.num_terms() == 6


def test_vandermonde_at_point():
    assert vandermonde(1).evaluate((1, 2, 3)) == -2


def test_vandermonde_doubled_exponents():
    X, Y, Z = MultiPoly.gens(Q)
    assert vandermonde(2) == (X**2 - Y**2) * (Z**2 - X**2) * (Z**2 - Y**2)


def test_vandermonde_rejects_bad_d():
    with pytest.raises(ValueError):
        vandermonde(0)


def test_exponent_pair_validation():
    with pytest.raises(ValueError):
        ExponentPair(2, 2)
    with pytest.raises(ValueError):
        ExponentPair(1, 2)
    assert ExponentPair(6, 4).d == 2
    assert ExponentPair(6, 4).partition == Partition3((1, 1, 0))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition3((1, 2, 0))
    with pytest.raises(ValueError):
        Partition3((1, 0, -1))


def test_r_poly_classical_case():
    assert r_poly(ExponentPair(2, 1)) == vandermonde(1)


def test_r_poly_matches_displayed_form():
    X, Y, Z = MultiPoly.gens(Q)
    expected = Z**3 * (X - Y) - Z * (X**3 - Y**3) + X * Y * (X**2 - Y**2)
    assert r_poly(ExponentPair(3, 1)) == expected


def test_r_poly_vanishes_on_equal_columns():
    R = r_poly(ExponentPair(5, 3))
    assert substitute(R, "Z", LinearForm(Q, 1, 0)).is_zero()  # Z = X
    assert substitute(R, "Z", LinearForm(Q, 0, 1)).is_zero()  # Z = Y


def test_i_poly_classical_case():
    X, Y, Z = MultiPoly.gens(Q)
    I = i_poly(ExponentPair(2, 1))
    assert I == (Z - X) * (Z - Y)
    assert I.degree_in("Z") == 2


def test_i_poly_definitional_roundtrip():
    for A, B in [(2, 1), (3, 1), (5, 2), (6, 4), (7, 3)]:
        e = ExponentPair(A, B)
        X, Y, _ = MultiPoly.gens(Q)
        assert i_poly(e) * (X**e.d - Y**e.d) == r_poly(e)


def test_i_poly_division_structure_over_f5():
    # the Z-constant coefficient carries X - theta*Y exactly once for theta = -1
    e = ExponentPair(3, 1, F5)
    I = i_poly(e)
    c0 = I.coeff_of("Z", 0)
    assert linear_multiplicity(c0, LinearForm(F5, 1, 1)) == 1


def test_i_poly_unity_cross_check_runs_in_field():
    # F7 already contains the 2nd/3rd/5th roots needed for (5, 2): no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_poly(ExponentPair(5, 2, F7))


def test_i_poly_unity_cross_check_builds_extension():
    # (7, 5) over F_3 needs the 2nd, 5th and 7th roots: minimal level is 3^12
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_poly(ExponentPair(7, 5, F3))


def test_i_poly_unity_check_in_a_field_that_holds_the_roots(monkeypatch):
    # F7 holds the 6th roots of unity that (3, 2) needs, so nothing is lifted
    e = ExponentPair(3, 2, F7)
    i_poly(e)
    monkeypatch.setattr(vschur, "_unity_product_form", lambda A, B, d, spec: MultiPoly.zero(spec))
    with pytest.raises(ArithmeticError, match="roots-of-unity product disagree"):
        i_poly(e)


def test_i_poly_unity_check_runs_in_an_extension_field_without_the_roots(monkeypatch):
    # (5, 1) needs the 20th roots of unity, which F9 lacks: the quotient moves
    # into F_{3^4} and is compared there, with no warning
    import warnings

    e = ExponentPair(5, 1, F9)
    monkeypatch.setattr(vschur, "_unity_product_form", lambda A, B, d, spec: MultiPoly.zero(spec))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="roots-of-unity product disagree"):
            i_poly(e)


def test_i_poly_unity_check_refuses_a_coefficient_outside_the_prime_field():
    e = ExponentPair(5, 1, F9)
    quotient = i_poly(e) + MultiPoly(F9, {(1, 0, 0): F9.element((0, 1))})
    with pytest.raises(ArithmeticError, match="outside F_3"):
        vschur._i_poly_unity_check(e, quotient)


def test_i_poly_unity_cross_check_respects_ceiling():
    # (11, 3) over F_5 needs the 264th roots of unity, first in F_{5^10}
    with pytest.warns(RuntimeWarning, match="ceiling"):
        i_poly(ExponentPair(11, 3, F5))


def test_i_poly_unity_skip_gives_the_ceiling_refusal_after_its_prefix():
    with pytest.warns(RuntimeWarning) as caught:
        i_poly(ExponentPair(11, 3, F5))
    assert [str(w.message) for w in caught] == [
        "roots-of-unity cross-check skipped for (A,B)=(11,3): "
        "field order 5^10 exceeds the ceiling 1000000"
    ]


def test_t_poly_degenerate_pair_is_one():
    assert t_poly(ExponentPair(2, 1)) == 1
    assert t_poly(ExponentPair(4, 2)) == 1


def test_t_poly_first_symmetric_case():
    X, Y, Z = MultiPoly.gens(Q)
    assert t_poly(ExponentPair(3, 1)) == X + Y + Z


def test_t_poly_equals_complete_homogeneous():
    for field in (Q, F2, F3, F5, F7):
        for k in range(2, 13):
            assert t_poly(ExponentPair(k, 1, field)) == complete_homogeneous(k - 2, field)


def _division_oracle(e):
    return exact_divide(r_poly(e), vandermonde(e.d, e.field))


def test_t_poly_equals_the_division_oracle():
    pairs = [(A, B) for A in range(2, 19) for B in range(1, A)]
    for field in (Q, F2, F3, F5, F4, F9):
        for A, B in pairs:
            e = ExponentPair(A, B, field)
            T, oracle = t_poly(e), _division_oracle(e)
            assert T == oracle, (A, B, field)
            assert T.to_json_terms() == oracle.to_json_terms()
    for field in (Q, F9):
        for A, B in [(120, 1), (97, 40)]:
            e = ExponentPair(A, B, field)
            assert t_poly(e).to_json_terms() == _division_oracle(e).to_json_terms()


def test_t_poly_neither_divides_nor_builds_the_determinant(monkeypatch):
    pairs = [ExponentPair(9, 1, F9), ExponentPair(12, 8, Q)]
    expected = [_division_oracle(e) for e in pairs]

    def refuse(*args, **kwargs):
        raise AssertionError("t_poly must not divide or build R")

    monkeypatch.setattr(vschur, "exact_divide", refuse)
    monkeypatch.setattr(vschur, "r_poly", refuse)
    for e, T in zip(pairs, expected):
        assert t_poly(e) == T


def test_t_poly_weyl_dimension_guard(monkeypatch, capsys):
    counts = vschur._weight_counts

    def corrupted(partition):
        for i, (weight, count) in enumerate(counts(partition)):
            yield weight, count + (i == 0)

    monkeypatch.setattr(vschur, "_weight_counts", corrupted)
    for field in (Q, F3):
        with pytest.raises(ArithmeticError, match="Weyl dimension"):
            t_poly(ExponentPair(7, 3, field))
    assert cli.main(["tpoly", "--A", "7", "--B", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal check failed" in captured.err


def test_t_poly_refuses_a_huge_exponent_before_enumerating(monkeypatch):
    def refuse(partition):
        raise AssertionError("enumerated the weights of an over-cap pair")

    monkeypatch.setattr(vschur, "_weight_counts", refuse)
    with pytest.raises(ExponentOverflowError, match="exponent too large"):
        t_poly(ExponentPair(2**62, 1))
    with pytest.raises(ExponentOverflowError):
        t_poly(ExponentPair(EXPONENT_CAP, EXPONENT_CAP // 2))


def test_complete_homogeneous_enumeration_oracle():
    # oracle: count and coefficients from raw enumeration of exponent triples
    for k in range(0, 9):
        h = complete_homogeneous(k)
        triples = [
            (a, b, c)
            for a, b, c in itertools.product(range(k + 1), repeat=3)
            if a + b + c == k
        ]
        assert h.num_terms() == len(triples) == (k + 1) * (k + 2) // 2
        assert all(h.coefficient(t) == 1 for t in triples)
        assert h.evaluate((1, 1, 1)) == len(triples)


def test_complete_homogeneous_rejects_negative():
    with pytest.raises(ValueError):
        complete_homogeneous(-1)


def test_schur_trivial_partitions():
    assert schur_bialternant(Partition3((0, 0, 0))) == 1
    X, Y, Z = MultiPoly.gens(Q)
    assert schur_bialternant(Partition3((1, 0, 0))) == X + Y + Z


def test_schur_matches_t_poly():
    for A, B in [(5, 3), (6, 4), (7, 2), (9, 6)]:
        for field in (Q, F5):
            e = ExponentPair(A, B, field)
            assert t_poly(e) == schur_bialternant(e.partition, e.d, field)


def test_inverted_transform_examples():
    X, Y, Z = MultiPoly.gens(Q)
    assert inverted_transform(X + Y + Z, 1) == X * Y + X * Z + Y * Z
    assert inverted_transform(MultiPoly.one(Q), 0) == 1
    with pytest.raises(ValueError):
        inverted_transform(X**2, 1)


def test_inversion_duality():
    # reflecting the (A, A-d) quotient at degree A-2d gives the (A, d) quotient
    for A, d in [(5, 1), (8, 2)]:
        lhs = inverted_transform(t_poly(ExponentPair(A, A - d)), A - 2 * d)
        assert lhs == t_poly(ExponentPair(A, d))


@pytest.mark.parametrize("A,B", [(4, 1), (5, 2), (5, 3), (6, 4), (7, 3), (9, 3), (8, 6)])
def test_t_poly_shape_invariants(A, B):
    for field in (Q, F7):
        e = ExponentPair(A, B, field)
        T = t_poly(e)
        assert T * vandermonde(e.d, field) == r_poly(e)
        assert is_symmetric3(T)
        d = e.d
        if A - 2 * d == 0:
            assert T == 1
        else:
            assert T.degree_in("Z") == A - 2 * d
            assert T.total_degree() == A + B - 3 * d


def test_sum_of_partials_identity():
    for field in (Q, F7):
        for k in range(3, 11):
            T = t_poly(ExponentPair(k, 1, field))
            summed = (
                partial_derivative(T, "X")
                + partial_derivative(T, "Y")
                + partial_derivative(T, "Z")
            )
            assert summed == k * t_poly(ExponentPair(k - 1, 1, field))


def test_schur_bialternant_refuses_level_zero():
    with pytest.raises(ValueError, match="need d >= 1, got 0"):
        schur_bialternant(Partition3((1, 0, 0)), d=0)
