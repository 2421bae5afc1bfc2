import copy
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurlab.ffield import (
    RATIONALS,
    FFElement,
    FieldMismatchError,
    FieldTooSmallError,
    frobenius,
    in_subfield,
    is_prime,
    make_field,
    multiplicative_generator,
    roots_of_unity,
)


def brute_irreducible_quadratics(p):
    """Oracle: monic quadratics over F_p without roots, by exhaustive scan."""
    out = []
    for c0, c1 in itertools.product(range(p), repeat=2):
        if all((x * x + c1 * x + c0) % p for x in range(p)):
            out.append((c0, c1, 1))
    return out


def test_make_field_prime_field():
    F3 = make_field(3, 1)
    assert F3.modulus == (0, 1)
    assert F3.order() == 3
    assert F3.from_int(2) + F3.from_int(2) == F3.from_int(1)
    assert F3.from_int(5) == F3.from_int(2)


def test_make_field_f4_unique_irreducible_quadratic():
    candidates = brute_irreducible_quadratics(2)
    assert candidates == [(1, 1, 1)]
    assert make_field(2, 2).modulus == candidates[0]


def test_make_field_f9_modulus_has_no_root():
    F9 = make_field(3, 2)
    assert F9.modulus == min(brute_irreducible_quadratics(3))
    c0, c1, _ = F9.modulus
    assert all((x * x + c1 * x + c0) % 3 for x in range(3))


def test_make_field_deterministic():
    a = make_field(5, 3)
    b = make_field(5, 3)
    assert a == b and a.modulus == b.modulus


@pytest.mark.parametrize("p,r", [(4, 1), (6, 2), (1, 1), (9, 1)])
def test_make_field_rejects_nonprime(p, r):
    with pytest.raises(ValueError):
        make_field(p, r)


def test_make_field_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_field(3, 0)


def test_prime_test():
    primes = [n for n in range(2, 60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_frobenius_fixes_prime_field():
    F7 = make_field(7, 1)
    for n in range(7):
        for k in range(4):
            assert frobenius(F7.from_int(n), k) == F7.from_int(n)


def test_frobenius_swaps_f4_roots():
    # direct squaring: alpha^2 = alpha + 1 under the modulus X^2 + X + 1
    F4 = make_field(2, 2)
    alpha = F4.element((0, 1))
    assert alpha * alpha == alpha + 1
    assert frobenius(alpha, 1) == alpha + 1
    assert frobenius(alpha, 1) != alpha


def test_frobenius_full_orbit_closure():
    F8 = make_field(2, 3)
    for x in F8.elements():
        assert frobenius(x, 3) == x
        assert frobenius(x, 5) == frobenius(x, 2)  # k reduced mod r


def test_frobenius_rejects_negative():
    F4 = make_field(2, 2)
    with pytest.raises(ValueError):
        frobenius(F4.one(), -1)


def test_in_subfield_trivial_cases():
    F8 = make_field(2, 3)
    for m in (1, 3):
        assert in_subfield(F8.zero(), m)
        assert in_subfield(F8.one(), m)
    for x in F8.elements():
        assert in_subfield(x, 3)


def test_in_subfield_generator_not_in_prime_field():
    F4 = make_field(2, 2)
    alpha = F4.element((0, 1))
    assert not in_subfield(alpha, 1)


def test_in_subfield_requires_divisor_degree():
    F4 = make_field(2, 2)
    with pytest.raises(ValueError):
        in_subfield(F4.one(), 3)


def test_in_subfield_gcd_property():
    F64 = make_field(2, 6)
    for x in F64.elements():
        if in_subfield(x, 2) and in_subfield(x, 3):
            assert in_subfield(x, 1)


def test_roots_of_unity_trivial():
    F7 = make_field(7, 1)
    assert roots_of_unity(1, F7) == [F7.one()]


def test_roots_of_unity_f7():
    # oracle: full scan of the field
    F7 = make_field(7, 1)
    for n, expected in [(2, {1, 6}), (3, {1, 2, 4}), (6, {1, 2, 3, 4, 5, 6})]:
        scan = {x for x in F7.elements() if x**n == F7.one()}
        assert scan == {F7.from_int(v) for v in expected}
        got = roots_of_unity(n, F7)
        assert set(got) == scan
        assert got == sorted(got, key=lambda e: e.coeffs)
        assert len(got) == n


def test_roots_of_unity_refuses_p_dividing_n():
    F7 = make_field(7, 1)
    with pytest.raises(ValueError, match="repeated"):
        roots_of_unity(7, F7)


def test_roots_of_unity_reports_required_degree():
    F7 = make_field(7, 1)
    with pytest.raises(FieldTooSmallError) as exc:
        roots_of_unity(4, F7)
    assert exc.value.required_degree == 2
    # and the reported level does contain them
    F49 = make_field(7, 2)
    assert len(roots_of_unity(4, F49)) == 4


def test_roots_of_unity_form_cyclic_group():
    F9 = make_field(3, 2)
    roots = roots_of_unity(4, F9)
    rset = set(roots)
    for a in roots:
        for b in roots:
            assert a * b in rset
    orders = []
    for a in roots:
        k, acc = 1, a
        while acc != F9.one():
            acc, k = acc * a, k + 1
        orders.append(k)
    assert max(orders) == 4


def test_multiplicative_generator_has_full_order():
    for p, r in [(2, 2), (3, 2), (7, 1), (2, 4)]:
        spec = make_field(p, r)
        g = multiplicative_generator(spec)
        seen = set()
        acc = spec.one()
        for _ in range(spec.order() - 1):
            seen.add(acc)
            acc = acc * g
        assert len(seen) == spec.order() - 1


def test_element_arithmetic_and_inverse():
    F9 = make_field(3, 2)
    for x in F9.elements():
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
            continue
        assert x * x.inverse() == F9.one()
        assert (F9.one() / x) * x == F9.one()
    assert F9.from_int(2) - 1 == F9.one()
    assert 1 - F9.from_int(2) == F9.from_int(-1)


def test_field_mismatch_is_loud():
    a = make_field(2, 2).one()
    b = make_field(3, 1).one()
    with pytest.raises(FieldMismatchError):
        a + b


def test_token_roundtrip():
    F9 = make_field(3, 2)
    x = F9.element((2, 1))
    assert x.token() == "3^2:[2,1]"
    assert F9.parse(x.token()) == x
    with pytest.raises(FieldMismatchError):
        make_field(3, 1).parse(x.token())


_F7, _F9 = make_field(7, 1), make_field(3, 2)


@pytest.mark.parametrize(
    "field, name, samples, foreign, rootless_n",
    [
        (RATIONALS, "rationals", [Fraction(0), Fraction(-3, 2), Fraction(22, 7)], [_F7.one()], 3),
        (_F7, "F(7)", list(_F7.elements()), [Fraction(1, 2), _F9.one()], 7),
        (_F9, "F(3^2)", list(_F9.elements()), [Fraction(1, 2), _F7.one()], 3),
    ],
    ids=["Q", "F7", "F9"],
)
def test_coefficient_field_interface(field, name, samples, foreign, rootless_n):
    assert str(field) == name
    assert not field.zero() and field.one()
    assert field.from_int(3) == field.one() + field.one() + field.one()
    assert field.coerce(-2) == field.from_int(-2) == field.coerce(Fraction(-2))
    for c in samples:
        assert field.parse(field.token(c)) == c
        assert field.coerce(c) == c
        assert bool(c) == (c != field.zero())
    if field.p:
        # r = 1 writes the bare residue; every field reads the full token
        bare = field.token(field.from_int(5))
        assert (bare == "5") == (field.r == 1)
        assert field.parse(field.from_int(5).token()) == field.from_int(5)
    for value in foreign:
        with pytest.raises(FieldMismatchError):
            field.coerce(value)
    with pytest.raises(TypeError):
        field.coerce(0.5)
    with pytest.raises(ValueError):
        field.roots_of_unity(rootless_n)
    assert field.roots_of_unity(1) == [field.one()]
    assert copy.deepcopy(RATIONALS) is RATIONALS


def test_fieldspec_json():
    assert make_field(3, 2).to_json() == {"p": 3, "r": 2, "modulus": [1, 0, 1]}


_FIELDS = [make_field(2, 2), make_field(3, 1), make_field(3, 2), make_field(5, 1)]


@st.composite
def field_element_pairs(draw):
    spec = draw(st.sampled_from(_FIELDS))
    coords = st.tuples(*[st.integers(0, spec.p - 1) for _ in range(spec.r)])
    x = FFElement(spec, draw(coords))
    y = FFElement(spec, draw(coords))
    k = draw(st.integers(0, 4))
    return x, y, k


@settings(max_examples=60, deadline=None)
@given(field_element_pairs())
def test_frobenius_is_a_ring_homomorphism(data):
    x, y, k = data
    assert frobenius(x * y, k) == frobenius(x, k) * frobenius(y, k)
    assert frobenius(x + y, k) == frobenius(x, k) + frobenius(y, k)


@settings(max_examples=60, deadline=None)
@given(field_element_pairs())
def test_field_axioms_sampled(data):
    x, y, _ = data
    spec = x.spec
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + spec.one()) == x * y + x
    assert x + spec.zero() == x
    assert x * spec.one() == x
