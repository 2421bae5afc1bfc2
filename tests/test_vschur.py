import itertools
import math

import pytest

from schurlab import cli, vschur
from schurlab.ffield import make_field, unity_degree
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
    # the closed form, multiplied out, at every 1 <= B < A <= 12
    for field in (Q, F2, F3, F4):
        X, Y, Z = MultiPoly.gens(field)
        for A, B in itertools.combinations(range(12, 0, -1), 2):
            expected = (Z**A * (X**B - Y**B) - Z**B * (X**A - Y**A)
                        + X**B * Y**B * (X**(A - B) - Y**(A - B)))
            assert r_poly(ExponentPair(A, B, field)) == expected, (field, A, B)


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
    # F7 holds the 2nd, 3rd and 5th roots of the product form for (5, 2): no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_poly(ExponentPair(5, 2, F7))


def test_i_poly_unity_cross_check_builds_extension():
    # F3 lacks the 2nd, 5th and 7th roots for (7, 5), first in F_{3^12}: no warning
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        i_poly(ExponentPair(7, 5, F3))


def _unity_product_form(A, B, d, spec):
    """Oracle for I: Z^A prod(X - zY | z^B = 1, z^d != 1)
    - Z^B prod(X - zY | z^A = 1, z^d != 1)
    + X^B Y^B prod(X - zY | z^(A-B) = 1, z^d != 1), in a field holding the roots."""
    unit = spec.one()

    def prod_over(n):
        out = MultiPoly.one(spec)
        for zeta in spec.roots_of_unity(n):
            if zeta**d != unit:
                out = out * LinearForm(spec, 1, -zeta).as_poly()
        return out

    ZA, ZB, XBYB = (MultiPoly.monomial(spec, m) for m in ((0, 0, A), (0, 0, B), (B, B, 0)))
    return ZA * prod_over(B) - ZB * prod_over(A) + XBYB * prod_over(A - B)


def test_i_poly_equals_its_roots_of_unity_product():
    # where p divides none of A, B, A - B the roots are distinct, and I splits
    # over F_{p^k}, the least field holding the lcm(A, B, A - B)-th roots
    checked = 0
    for p in (2, 3, 5, 7):
        for A in range(2, 21):
            for B in range(1, A):
                if A * B * (A - B) % p == 0:
                    continue
                k = unity_degree(p, math.lcm(A, B, A - B))
                if p**k > 2**17:
                    continue
                e = ExponentPair(A, B, make_field(p, k))
                assert i_poly(e) == _unity_product_form(A, B, e.d, e.field), (p, A, B)
                checked += 1
    assert checked == 126


@pytest.mark.parametrize("field", [Q, F2, F3, F5, F7, F9], ids=str)
def test_i_poly_is_the_exact_quotient_with_2A_over_d_unit_terms(field):
    # every pair, the characteristic dividing A * B * (A - B) included
    one, minus_one = field.one(), -field.one()
    X, Y, _ = MultiPoly.gens(field)
    for A in range(2, 25):
        for B in range(1, A):
            e = ExponentPair(A, B, field)
            I = i_poly(e)
            assert I == exact_divide(r_poly(e), X**e.d - Y**e.d), (A, B)
            assert I.num_terms() == 2 * A // e.d, (A, B)
            assert all(c == one or c == minus_one for _, c in I.terms()), (A, B)


@pytest.mark.parametrize(
    "A, B, field",
    # over Q; in fields that hold the roots of unity and that lack them;
    # and at (11, 3) over F_5, whose roots lie first in F_{5^10}
    [(3, 2, Q), (7, 3, Q), (3, 2, F7), (5, 1, F9), (11, 3, F5), (6, 4, F2)],
    ids=str,
)
def test_i_poly_checks_its_closed_form_against_r_in_every_field(monkeypatch, A, B, field):
    e = ExponentPair(A, B, field)
    monkeypatch.setattr(vschur, "r_poly", lambda e: MultiPoly.zero(e.field))
    with pytest.raises(ArithmeticError) as exc:
        i_poly(e)
    assert str(exc.value) == f"closed form of I times X^d - Y^d is not R for (A,B)=({A},{B})"


def test_i_poly_gives_no_warning_where_the_roots_lie_far_above_the_ceiling():
    # (11, 3) over F_5 needs the 264th roots of unity, first in F_{5^10}
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        I = i_poly(ExponentPair(11, 3, F5))
    assert I.num_terms() == 22


def test_i_poly_refuses_a_huge_exponent_before_enumerating():
    # the closed form of (EXPONENT_CAP, 1) would have 2^63 terms
    with pytest.raises(ExponentOverflowError):
        i_poly(ExponentPair(EXPONENT_CAP, 1))


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
