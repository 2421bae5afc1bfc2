import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from schurlab import vschur
from schurlab.ffield import FieldMismatchError, FieldSpec, make_field
from schurlab.mpoly import (
    EXPONENT_CAP,
    RATIONALS,
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

Q = RATIONALS
F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F9 = make_field(3, 2)
F1000003 = make_field(1000003, 1)  # above TABLE_CEILING, so it has no tables
F1000003_2 = make_field(1000003, 2)


def gens(field=Q):
    return MultiPoly.gens(field)


def from_json_terms(data, field):
    """The inverse of MultiPoly.to_json_terms: the sum of the listed terms."""
    return sum((MultiPoly(field, {tuple(mon): field.parse(tok)}) for tok, mon in data),
               MultiPoly.zero(field))


def test_product_of_conjugates():
    X, Y, _ = gens()
    assert (X + Y) * (X - Y) == X**2 - Y**2


def test_freshman_dream_square_mod_2():
    X, Y, _ = gens(F2)
    assert (X + Y) ** 2 == X**2 + Y**2


def test_freshman_dream_cube_mod_3():
    X, Y, _ = gens(F3)
    assert (X + Y) ** 3 == X**3 + Y**3


def test_exact_divide_difference_of_squares():
    X, Y, _ = gens()
    assert exact_divide(X**2 - Y**2, X - Y) == X + Y


def test_exact_divide_cubes_mod_3():
    X, Y, _ = gens(F3)
    q = exact_divide(X**3 - Y**3, X - Y)
    assert q == X**2 + X * Y + Y**2
    assert q == (X - Y) ** 2


def test_exact_divide_failure_is_a_verdict():
    X, Y, _ = gens()
    with pytest.raises(InexactDivisionError):
        exact_divide(X**2 + Y, X - Y)


def test_divide_by_zero():
    X, _, _ = gens()
    with pytest.raises(ZeroDivisionError):
        exact_divide(X, MultiPoly.zero(Q))


def test_substitute_annihilates():
    X, Y, Z = gens()
    assert substitute(Z - X, "Z", LinearForm(Q, 1, 0)).is_zero()


def test_substitute_mod_3_collapse():
    X, Y, Z = gens(F3)
    assert substitute(X + Y + Z, "Z", LinearForm(F3, 2, 2)).is_zero()


def test_substitute_square():
    X, Y, Z = gens()
    assert substitute(Z**2, "Z", LinearForm(Q, 1, 1)) == X**2 + 2 * X * Y + Y**2


def test_derivative_kills_p_th_powers():
    _, _, Z = gens(F3)
    assert partial_derivative(Z**3, "Z").is_zero()


def test_derivative_term_by_term():
    X, Y, Z = gens()
    h2 = X**2 + Y**2 + Z**2 + X * Y + X * Z + Y * Z
    assert partial_derivative(h2, "X") == 2 * X + Y + Z


def test_derivative_of_constant():
    assert partial_derivative(MultiPoly.constant(Q, 7), "X").is_zero()


def test_mixed_partials_commute():
    X, Y, Z = gens()
    f = X**3 * Y - 2 * X * Y * Z**2 + Y**4
    dxy = partial_derivative(partial_derivative(f, "X"), "Y")
    dyx = partial_derivative(partial_derivative(f, "Y"), "X")
    assert dxy == dyx


def test_is_homogeneous():
    X, Y, _ = gens()
    assert is_homogeneous(X**2 + X * Y) == 2
    assert is_homogeneous(X**2 + X) is None
    assert is_homogeneous(MultiPoly.zero(Q)) == ZERO_POLY


def test_is_symmetric3():
    X, Y, Z = gens()
    assert is_symmetric3(X + Y + Z)
    assert not is_symmetric3(X - Y)
    assert is_symmetric3(X * Y * Z * (X + Y + Z))
    assert not is_symmetric3(X**2 * Y + Y**2 * Z + Z**2 * X)  # fixed by the 3-cycles only
    assert not is_symmetric3(X * Y + Z)  # fixed by (X Y) only


def _is_symmetric3_by_terms(f):
    """Oracle: every term's image under (X Y) and (Y Z) carries the same
    coefficient, looked up one term at a time."""
    for perm in ((1, 0, 2), (0, 2, 1)):
        for mon, c in f._terms.items():
            if f._terms.get((mon[perm[0]], mon[perm[1]], mon[perm[2]])) != c:
                return False
    return True


_PERMUTATIONS = ((0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_symmetric3_matches_the_term_by_term_check(data):
    # symmetrized polynomials, some then perturbed by one term
    field = data.draw(st.sampled_from([Q, F3, F9]))
    f = data.draw(polys(field=field, max_exp=3))
    if data.draw(st.booleans()):
        f = sum(
            (MultiPoly(field, {(m[i], m[j], m[k]): c for m, c in f._terms.items()})
             for i, j, k in _PERMUTATIONS),
            MultiPoly.zero(field),
        )
        assert _is_symmetric3_by_terms(f)
    if data.draw(st.booleans()):
        mon = tuple(data.draw(st.integers(0, 3)) for _ in range(3))
        f = f + MultiPoly.monomial(field, mon, data.draw(_coefficients(field)))
    assert is_symmetric3(f) is _is_symmetric3_by_terms(f)


def test_linear_multiplicity():
    X, Y, _ = gens()
    assert linear_multiplicity((X - Y) ** 3, LinearForm(Q, 1, -1)) == 3
    assert linear_multiplicity(X, LinearForm(Q, 1, -1)) == 0
    X3, Y3, _ = gens(F3)
    assert linear_multiplicity(X3**2 + X3 * Y3 + Y3**2, LinearForm(F3, 1, -1)) == 2


def _divisions_until_inexact(g, form):
    """The multiplicity by its definition: exact divisions by the form until one is inexact."""
    divisor, count = form.as_poly(), 0
    while True:
        try:
            g = exact_divide(g, divisor)
        except InexactDivisionError:
            return count
        count += 1


@st.composite
def bivariate_multiples(draw):
    """(g, form): a power of a bivariate linear form times a bivariate
    cofactor, which at times vanishes at the form's point (c_y, -c_x)
    without being its multiple (it need not be homogeneous)."""
    field = draw(st.sampled_from([Q, F3, F5, F9]))
    values = st.integers(-3, 3) if field is Q else st.sampled_from(list(field.elements()))
    form = LinearForm(field, draw(values), draw(values))
    assume(not form.is_zero())
    monomials = [(a, b, 0) for a in range(4) for b in range(4 - a)]
    cofactor = MultiPoly(field, draw(st.dictionaries(st.sampled_from(monomials), values, max_size=5)))
    if draw(st.booleans()):
        cofactor = cofactor - cofactor.evaluate((form.c_y, -form.c_x, 0))
    return cofactor * form.as_poly() ** draw(st.integers(0, 3)), form


@settings(max_examples=80, deadline=None)
@given(bivariate_multiples())
def test_linear_multiplicity_matches_repeated_division(case):
    g, form = case
    assume(not g.is_zero())
    assert linear_multiplicity(g, form) == _divisions_until_inexact(g, form)


def test_linear_multiplicity_of_zero_is_infinite():
    assert linear_multiplicity(MultiPoly.zero(Q), LinearForm(Q, 1, -1)) == math.inf


def test_field_mismatch_rejected():
    X, _, _ = gens(F2)
    X3, _, _ = gens(F3)
    with pytest.raises(FieldMismatchError):
        X + X3
    with pytest.raises(FieldMismatchError):
        substitute(X, "X", LinearForm(F3, 1, 1))


def test_exponent_overflow_checked():
    with pytest.raises(ExponentOverflowError):
        MultiPoly.monomial(Q, (EXPONENT_CAP, 0, 0))
    big = MultiPoly.monomial(Q, (EXPONENT_CAP - 1, 0, 0))
    with pytest.raises(ExponentOverflowError):
        big * big
    # the Z maxima cross the cap together; X and Y stay far below it
    half = EXPONENT_CAP // 2
    X, Y, _ = gens()
    with pytest.raises(ExponentOverflowError):
        (MultiPoly.monomial(Q, (0, 0, half)) + X) * (MultiPoly.monomial(Q, (0, 0, half)) + Y)
    # total degrees past the cap with every exponent below it are fine
    wide = MultiPoly.monomial(Q, (half, half, 0))
    assert (wide + Y) * MultiPoly.monomial(Q, (0, 0, half)) == MultiPoly(
        Q, {(half, half, half): 1, (0, 1, half): 1}
    )


def test_zero_pow_zero_rejected():
    with pytest.raises(ValueError):
        MultiPoly.zero(Q) ** 0


def test_degree_queries_on_zero():
    z = MultiPoly.zero(Q)
    assert z.total_degree() is None
    assert z.degree_in("Z") is None


def test_coeff_of_extracts_slices():
    X, Y, Z = gens()
    f = Z**2 * (X + Y) - Z * X**2 + 3
    assert f.coeff_of("Z", 2) == X + Y
    assert f.coeff_of("Z", 1) == -(X**2)
    assert f.coeff_of("Z", 0) == MultiPoly.constant(Q, 3)


def test_evaluate():
    X, Y, Z = gens()
    assert ((X + Y + Z) ** 2).evaluate((1, 2, 3)) == 36
    X9, Y9, Z9 = gens(F9)
    a = F9.element((0, 1))
    assert (X9 * Y9 + Z9).evaluate((a, a, 1)) == a * a + 1


def test_text_format_examples():
    X, Y, Z = gens()
    f = 3 * X**2 * Y - Fraction(5, 2) * Z + 7
    assert f.to_text() == "3*X^2*Y - 5/2*Z + 7"
    assert MultiPoly.from_text(f.to_text(), Q) == f
    assert MultiPoly.zero(Q).to_text() == "0"
    assert MultiPoly.from_text("0", Q).is_zero()


def test_text_format_prime_field_uses_residues():
    X, Y, _ = gens(F3)
    f = 2 * X + Y
    assert f.to_text() == "2*X + Y"
    assert MultiPoly.from_text("2*X + Y", F3) == f


def test_text_format_extension_field_uses_tokens():
    a = F9.element((2, 1))
    f = MultiPoly(F9, {(1, 0, 0): a, (0, 1, 0): 1 - a})
    assert f.to_text() == "3^2:[2,1]*X + 3^2:[2,2]*Y"
    assert MultiPoly.from_text(f.to_text(), F9) == f


def test_json_terms_roundtrip():
    X, Y, Z = gens()
    f = X**2 - Fraction(1, 3) * Y * Z
    data = f.to_json_terms()
    assert data == [["1", [2, 0, 0]], ["-1/3", [0, 1, 1]]]
    assert from_json_terms(data, Q) == f


def test_json_terms_merge_like_the_constructor():
    # a repeated monomial sums and one that cancels leaves no term, as in
    # MultiPoly(...) and from_text
    X, Y, Z = gens()
    data = [["1", [2, 0, 0]], ["2", [2, 0, 0]], ["1", [0, 1, 0]], ["1/2", [0, 0, 1]],
            ["-1/2", [0, 0, 1]]]
    f = from_json_terms(data, Q)
    assert f == 3 * X**2 + Y == MultiPoly.from_text("X^2 + 2*X^2 + Y", Q)
    assert list(f.terms()) == [((2, 0, 0), 3), ((0, 1, 0), 1)]
    g = from_json_terms([["1", [1, 0, 0]], ["2", [1, 0, 0]]], F3)
    assert g.is_zero() and not list(g.terms())


# -- randomized structure checks -------------------------------------------

_FIELDS = [Q, F2, F3, F5]


@st.composite
def polys(draw, field=None, max_terms=5, max_exp=4):
    if field is None:
        field = draw(st.sampled_from(_FIELDS))
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        mon = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        terms[mon] = draw(st.integers(-6, 6))
    return MultiPoly(field, terms)


@st.composite
def poly_triples(draw):
    field = draw(st.sampled_from(_FIELDS))
    return tuple(draw(polys(field=field)) for _ in range(3))


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_ring_axioms(fgh):
    f, g, h = fgh
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=60, deadline=None)
@given(poly_triples())
def test_exact_divide_roundtrip(fgh):
    f, g, _ = fgh
    if g.is_zero():
        return
    assert exact_divide(f * g, g) == f


@settings(max_examples=40, deadline=None)
@given(poly_triples(), st.integers(-3, 3), st.integers(-3, 3))
def test_substitute_is_multiplicative(fgh, cx, cy):
    f, g, _ = fgh
    form = LinearForm(f.field, cx, cy)
    lhs = substitute(f * g, "Z", form)
    rhs = substitute(f, "Z", form) * substitute(g, "Z", form)
    assert lhs == rhs


@st.composite
def _coefficients(draw, field):
    if field is Q:
        return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
    return field.element([draw(st.integers(0, field.p - 1)) for _ in range(field.r)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_substitute_matches_evaluation(data):
    # oracle: the image evaluated at a point is f evaluated with var set
    # to the form's value there; terms of mixed degree, any variable
    field = data.draw(st.sampled_from([Q, F5, F9]))
    coeff = _coefficients(field)
    n = data.draw(st.integers(0, 6))
    f = MultiPoly(field, {
        tuple(data.draw(st.integers(0, 4)) for _ in range(3)): data.draw(coeff) for _ in range(n)
    })
    var = data.draw(st.sampled_from("XYZ"))
    form = LinearForm(field, data.draw(coeff), data.draw(coeff))
    image = substitute(f, var, form)
    for _ in range(3):
        point = [data.draw(coeff) for _ in range(3)]
        moved = list(point)
        moved["XYZ".index(var)] = form.c_x * point[0] + form.c_y * point[1]
        assert image.evaluate(point) == f.evaluate(moved)


@settings(max_examples=40, deadline=None)
@given(polys(field=F3))
def test_p_th_power_is_frobenius_termwise(f):
    p = 3
    expected = MultiPoly(
        F3, {(a * p, b * p, c * p): coeff**p for (a, b, c), coeff in f.terms()}
    )
    if f.is_zero():
        return
    assert f**p == expected


def _by_multiplication(u, n):
    """u^n as the product of n factors u."""
    out = u
    for _ in range(n - 1):
        out = out * u
    return out


def _p_th_powers_by_multiplication(u, p, k):
    """u^(p^k) as k rounds of u -> u*u*...*u (p factors)."""
    for _ in range(k):
        u = _by_multiplication(u, p)
    return u


def _counting_mul(mp):
    """Count MultiPoly.__mul__ calls from here on; returns the counter list."""
    calls = []
    real = MultiPoly.__mul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    mp.setattr(MultiPoly, "__mul__", counted)
    return calls


_POWER_FIELDS = [F2, F3, make_field(2, 2), F9, make_field(5, 2)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_of_the_characteristic_is_frobenius_without_multiplying(data):
    # F_4, F_9 and F_25 have coefficients Frobenius moves: c^p != c
    field = data.draw(st.sampled_from(_POWER_FIELDS))
    coeff = _coefficients(field)
    u = MultiPoly(field, {
        tuple(data.draw(st.integers(0, 3)) for _ in range(3)): data.draw(coeff)
        for _ in range(data.draw(st.integers(0, 4)))
    })
    k = data.draw(st.integers(1, 2 * field.r + 1))
    expected = _p_th_powers_by_multiplication(u, field.p, k)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_mul(mp)
        assert u ** field.p**k == expected
    assert calls == []


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_other_powers_still_multiply(data):
    # over Q every power multiplies; over F_q, so does any n that is no
    # power of p: p^k + 1, p^k - 1 and q - 1
    field = data.draw(st.sampled_from([Q] + _POWER_FIELDS))
    if field is Q:
        n = data.draw(st.sampled_from([2, 3, 4, 8, 9]))
    else:
        p, q = field.p, field.order()
        n = data.draw(st.sampled_from(
            [m for m in (p + 1, p - 1, p * p + 1, p * p - 1, q - 1) if m > 1]
        ))
    coeff = _coefficients(field)
    u = MultiPoly(field, {
        tuple(data.draw(st.integers(0, 2)) for _ in range(3)): data.draw(coeff)
        for _ in range(data.draw(st.integers(0, 3)))
    })
    expected = _by_multiplication(u, n)
    with pytest.MonkeyPatch.context() as mp:
        calls = _counting_mul(mp)
        assert u**n == expected
    assert calls


def test_frobenius_power_checks_the_exponent_cap():
    X, _, _ = gens(F2)
    with pytest.raises(ExponentOverflowError):
        X ** 2**62


@settings(max_examples=40, deadline=None)
@given(polys())
def test_text_roundtrip(f):
    assert MultiPoly.from_text(f.to_text(), f.field) == f


@settings(max_examples=40, deadline=None)
@given(polys())
def test_json_roundtrip(f):
    assert from_json_terms(f.to_json_terms(), f.field) == f


def test_non_integer_exponents_are_refused():
    # refused, never truncated to an int or parsed from text
    for bad in (1.5, "2", Fraction(3, 2)):
        with pytest.raises(TypeError):
            MultiPoly(Q, {(bad, 0, 0): 1})
        with pytest.raises(TypeError):
            from_json_terms([["1", [bad, 0, 0]]], Q)


# -- the reference kernels the production loops are checked against --------


def _reference_key(mon):
    return (mon[0] + mon[1] + mon[2], mon[0], mon[1])


def _reference_exact_divide(f, g):
    """Division with a max scan for the leading term and ``rem / gc`` steps
    on the field's own elements (Fraction over Q)."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    gm, gc = g.leading()
    g_items = list(g._terms.items())
    rem = dict(f._terms)
    quot = {}
    while rem:
        mon = max(rem, key=_reference_key)
        dm = (mon[0] - gm[0], mon[1] - gm[1], mon[2] - gm[2])
        if dm[0] < 0 or dm[1] < 0 or dm[2] < 0:
            raise InexactDivisionError(
                f"{g.to_text()} does not divide exactly (stuck at {mon})"
            )
        qc = rem[mon] / gc
        quot[dm] = qc
        for m2, c2 in g_items:
            tm = (dm[0] + m2[0], dm[1] + m2[1], dm[2] + m2[2])
            acc = rem.get(tm)
            acc = -(qc * c2) if acc is None else acc - qc * c2
            if acc:
                rem[tm] = acc
            else:
                rem.pop(tm, None)
    return MultiPoly._raw(f.field, quot)


def _reference_evaluate(f, point):
    """Term by term, each value raised to its exponent, on the field's own
    elements (Fraction over Q)."""
    vals = tuple(f.field.coerce(v) for v in point)
    total = f.field.zero()
    for (a, b, c), coeff in f._terms.items():
        total = total + coeff * vals[0] ** a * vals[1] ** b * vals[2] ** c
    return total


def _reference_mul(f, g):
    """Schoolbook product on the field's own elements (Fraction over Q)."""
    out = {}
    for m1, c1 in f._terms.items():
        for m2, c2 in g._terms.items():
            mon = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[mon] = out.get(mon, f.field.zero()) + c1 * c2
    return MultiPoly(f.field, out)


_DIVISION_CASES = ("Q unit lead", "Q non-unit lead", "Q non-integral", "F3", "F9")


@st.composite
def _division_operands(draw):
    """(case, f, g): g leads as the case says; f is zero, or a multiple of g
    plus a remainder of up to two terms.  g may get a constant term, so that
    it is not homogeneous.

    Both operands may be shifted by one monomial m, and the multiple by
    another, each exponent 0 or from 2^40 to 2^61, so that packed monomial
    keys pass 64 bits and f * g may cross EXPONENT_CAP.  A common shift
    leaves the division steps those of the unshifted operands; exponents
    drawn large term by term would not, dividing X^N by X - Y takes N steps.
    """
    case = draw(st.sampled_from(_DIVISION_CASES))
    field = {"F3": F3, "F9": F9}.get(case, Q)

    def coeff():
        if field is not Q:
            return field.element([draw(st.integers(0, field.p - 1)) for _ in range(field.r)])
        if case == "Q non-integral":
            return Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        return draw(st.integers(-6, 6))

    def terms(max_terms):
        n = draw(st.integers(0, max_terms))
        return {tuple(draw(st.integers(0, 3)) for _ in range(3)): coeff() for _ in range(n)}

    def shift(top):
        mon = tuple(draw(st.one_of(st.just(0), st.integers(2**40, top))) for _ in range(3))
        return MultiPoly.monomial(field, mon)

    g_terms = terms(3)
    g_terms[draw(st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1))))] = 1  # g is not constant
    if case == "Q non-integral":
        g_terms[(0, 0, 0)] = Fraction(1, 2)
    elif draw(st.booleans()):
        g_terms[(0, 0, 0)] = coeff()
    lead_mon = MultiPoly(field, g_terms).leading()[0]
    if case in ("Q unit lead", "Q non-integral"):
        g_terms[lead_mon] = draw(st.sampled_from([1, -1]))
    elif case == "Q non-unit lead":
        g_terms[lead_mon] = draw(st.sampled_from([2, -2, 3, 6]))
    g = MultiPoly(field, g_terms)
    m = shift(2**61 - 8)
    g = _reference_mul(m, g)
    if draw(st.integers(0, 9)) == 0:
        return case, MultiPoly.zero(field), g
    multiple = _reference_mul(_reference_mul(shift(2**60), MultiPoly(field, terms(4))), g)
    f = multiple + _reference_mul(m, MultiPoly(field, terms(2)))
    return case, f, g


@settings(max_examples=200, deadline=None)
@given(_division_operands())
@example(("Q non-unit lead", MultiPoly.from_text("2*X^2 - 8*X*Y + 8*Y^2", Q), MultiPoly.from_text("2*X - 4*Y", Q)))
@example(("Q non-unit lead", MultiPoly.from_text("2*X^2 - 8*X*Y + Z", Q), MultiPoly.from_text("2*X - 4*Y", Q)))
@example(("Q unit lead", MultiPoly.from_text("X^2 + Y", Q), MultiPoly.from_text("X - Y", Q)))
# a remainder entry cancels to zero before it surfaces, above the monomial
# the division sticks at: Y^2 of f here, then Y*Z, which the steps add
@example(("Q unit lead", MultiPoly.from_text("X^2 - Y^2 + Z", Q), MultiPoly.from_text("X - Y", Q)))
@example(("Q unit lead", MultiPoly.from_text("X^2 - 2*X*Z - Y^2", Q), MultiPoly.from_text("X - Y - Z", Q)))
# the same on the element route: Q with a non-unit lead, and a prime field
# above TABLE_CEILING, which has no tables
@example(("Q non-unit lead", MultiPoly.from_text("2*X^2 - 2*Y^2 + Z", Q), MultiPoly.from_text("2*X - 2*Y", Q)))
@example(("F1000003", MultiPoly.from_text("X^2 - Y^2 + Z", F1000003), MultiPoly.from_text("X - Y", F1000003)))
# a product whose left operand has more terms than the right
@example(("Q unit lead", MultiPoly.from_text("X^2 + X*Y + Y^2 + Z^2 - 1", Q), MultiPoly.from_text("X - Y", Q)))
# zero times a divisor whose total degree is past EXPONENT_CAP
@example(("Q unit lead", MultiPoly.zero(Q), MultiPoly.monomial(Q, (2**40, 2**61, 2**61))))
def test_kernels_match_the_reference(operands):
    # equal quotients, and an inexact division stuck at the same monomial:
    # the heap must surface the remainder terms in the max scan's order
    case, f, g = operands
    lead = g.leading()[1]
    if case == "Q unit lead":
        assert lead in (1, -1) and all(c.denominator == 1 for c in f._terms.values())
    if case == "Q non-unit lead":
        assert lead not in (1, -1)
    if case == "Q non-integral":
        assert lead in (1, -1) and any(c.denominator != 1 for c in g._terms.values())
    try:
        expected = _reference_mul(f, g)
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            f * g
    else:
        assert f * g == expected
    try:
        expected = _reference_exact_divide(f, g)
    except InexactDivisionError as exc:
        with pytest.raises(InexactDivisionError) as raised:
            exact_divide(f, g)
        assert str(raised.value) == str(exc)
    else:
        assert exact_divide(f, g) == expected


_EVALUATION_FIELDS = [Q, F9, make_field(13, 1), F1000003]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_evaluate_matches_the_reference(data):
    # the power rows against raising each value to each exponent; a top
    # exponent of 0 draws constants, and no term the zero polynomial
    field = data.draw(st.sampled_from(_EVALUATION_FIELDS), label="field")
    top = data.draw(st.sampled_from([0, 3, 12]), label="top exponent")
    n = data.draw(st.integers(0, 6), label="terms")
    f = MultiPoly(field, {
        tuple(data.draw(st.integers(0, top)) for _ in range(3)): data.draw(st.integers(-9, 9))
        for _ in range(n)
    })
    values = st.integers(-30, 30)
    if field is Q:
        values = st.one_of(values, st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))
    else:
        values = st.one_of(values, _coefficients(field))
    point = tuple(data.draw(values) for _ in range(3))
    assert f.evaluate(point) == _reference_evaluate(f, point)


def test_evaluate_at_a_sparse_huge_degree():
    # a row holds only the exponents that occur, so X^(2^61) costs one power
    f = MultiPoly(Q, {(2**61, 0, 3): 2, (0, 1, 0): -1, (0, 0, 0): 5})
    assert f.evaluate((-1, 7, 2)) == 2 * 8 - 7 + 5
    F = make_field(1000003, 1)
    f = MultiPoly(F, dict.fromkeys([(2**61, 0, 3), (2**40, 2**40, 1), (0, 0, 0)], 3))
    point = (F.from_int(2), F.from_int(5), F.from_int(11))
    assert f.evaluate(point) == _reference_evaluate(f, point)


_CANCEL_FIELDS = [Q, F3, F9, F1000003, F1000003_2]
_CANCEL_IDS = ["Q", "F3", "F9", "F1000003", "F1000003^2"]


@pytest.mark.parametrize("field", _CANCEL_FIELDS, ids=_CANCEL_IDS)
def test_products_that_cancel_store_no_zero(field):
    # T * V = R cancels most of the term pairs; no zero may stay behind
    for A, B in ((5, 1), (7, 2), (9, 3), (12, 8)):
        e = vschur.ExponentPair(A, B, field)
        product = vschur.t_poly(e) * vschur.vandermonde(e.d, field)
        assert product._terms == vschur.r_poly(e)._terms
        assert all(product._terms.values())
    X, Y, _ = gens(field)
    assert ((X + Y) * (X - Y))._terms == (X**2 - Y**2)._terms
    # over Q a coefficient 1/2 sends the product to Fractions
    half = field.one() / field.from_int(2)
    assert ((half * X + Y) * (half * X - Y))._terms == (half * half * X**2 - Y**2)._terms


class _One:
    """The exponent 1 as a dict key that is not the key 1."""

    def __index__(self):
        return 1


@pytest.mark.parametrize("field", _CANCEL_FIELDS, ids=_CANCEL_IDS)
def test_sums_that_cancel_store_no_zero(field):
    X, Y, _ = gens(field)
    one = field.one()
    assert MultiPoly(field, {(1, 0, 0): 0, (0, 1, 0): one})._terms == Y._terms
    assert MultiPoly(field, {(1, 0, 0): one, (_One(), 0, 0): -one, (0, 1, 0): one})._terms == Y._terms
    assert (X + Y + -X)._terms == Y._terms
    assert (X + -X)._terms == {}
    assert MultiPoly.from_text("X + Y - X", field)._terms == Y._terms
    assert MultiPoly.from_text("X - X", field)._terms == {}


def _assert_fractions(poly):
    assert poly.field is Q
    assert all(type(c) is Fraction for c in poly._terms.values())


def test_rational_results_hold_fractions():
    # an int coefficient would print, compare and hash like its Fraction,
    # but a later / on it would give a float
    X, Y, Z = gens()
    integral = (X - Y) * (X + 2 * Y + 3 * Z)
    fractional = Fraction(1, 2) * X - Y
    for product in (integral * (X + Y), integral * fractional, integral * integral):
        _assert_fractions(product)
    _assert_fractions(exact_divide(integral, X - Y))
    _assert_fractions(exact_divide(integral, 2 * X - 2 * Y))
    _assert_fractions(exact_divide(integral * fractional, fractional))
    _assert_fractions(vschur.t_poly(vschur.ExponentPair(7, 2)))
    for f, point in ((integral, (1, 2, 3)), (integral, (1, 1, 5)), (integral, (Fraction(1, 2), 1, 0)),
                     (fractional, (4, 1, 0)), (MultiPoly.zero(Q), (1, 2, 3))):
        value = f.evaluate(point)
        assert type(value) is Fraction
        assert type(value / 7) is Fraction


# -- exact division over fields with tables --------------------------------

_TABLED_FIELDS = [make_field(p, r) for p, r in ((2, 1), (2, 2), (3, 2), (13, 1), (5, 2), (3, 3))]


@st.composite
def _tabled_division_operands(draw):
    """(f, g) over a field with tables: g's lead is any nonzero element, and
    f is a multiple of g, plus a remainder of up to two terms when inexact."""
    field = draw(st.sampled_from(_TABLED_FIELDS))
    elements = list(field.elements())

    def coeff(lo=0):
        return elements[draw(st.integers(lo, len(elements) - 1))]

    def terms(max_terms):
        n = draw(st.integers(0, max_terms))
        return {tuple(draw(st.integers(0, 3)) for _ in range(3)): coeff() for _ in range(n)}

    g_terms = terms(4)
    g_terms[draw(st.sampled_from(((1, 0, 0), (0, 1, 0), (0, 0, 1))))] = coeff(lo=1)
    g = MultiPoly(field, g_terms)
    if g.total_degree() in (None, 0):  # the drawn terms cancelled the variable
        g = MultiPoly(field, {(0, 0, 1): coeff(lo=1), (1, 0, 0): coeff()})
    f = _reference_mul(MultiPoly(field, terms(5)), g)
    if draw(st.booleans()):
        f = f + MultiPoly(field, terms(2))
    return f, g


@settings(max_examples=300, deadline=None)
@given(_tabled_division_operands())
@example((MultiPoly.from_text("X^2 + Y^2", F2), MultiPoly.from_text("X + Y", F2)))
@example((MultiPoly.from_text("X^2 + Y", F9), MultiPoly.from_text("3^2:[0,1]*X - Y", F9)))
def test_exact_division_over_a_tabled_field_matches_the_reference(operands):
    # the same quotient, made of the tables' shared elements, or the same
    # InexactDivisionError stuck at the same monomial
    f, g = operands
    field = f.field
    tables = field._tables
    assert tables is not None
    try:
        expected = _reference_exact_divide(f, g)
    except InexactDivisionError as exc:
        expected = exc
    try:
        quotient = exact_divide(f, g)
    except InexactDivisionError as exc:
        assert isinstance(expected, InexactDivisionError) and str(exc) == str(expected)
    else:
        assert quotient == expected
        assert all(c is tables.elems[c.code] for c in quotient._terms.values())


_PICKLED_FIELDS = [
    (Q, Fraction(-5, 3)),
    (make_field(13, 1), (5,)),
    (F9, (1, 2)),  # below TABLE_CEILING: the tables are built first
    (make_field(1000003, 1), (999999,)),
    (FieldSpec(3, 2, (2, 2, 1)), (1, 2)),  # not the default modulus of F_9
]


@pytest.mark.parametrize("field, value", _PICKLED_FIELDS,
                         ids=["Q", "F13", "F9", "F1000003", "F9-other-modulus"])
def test_values_copy_and_pickle(field, value):
    c = value if field is Q else field.element(value)
    X, Y, _ = MultiPoly.gens(field)
    f = c * X**2 - Y + 7
    for original in (c, f, MultiPoly.zero(field)):
        for clone in (pickle.loads(pickle.dumps(original)), copy.copy(original),
                      copy.deepcopy(original)):
            assert clone == original
    if field is not Q:
        assert "_tables" in vars(field)  # cached by the arithmetic above
        spec = pickle.loads(pickle.dumps(f)).field
        default = make_field(field.p, field.r)
        if field.modulus == default.modulus:
            assert spec is default
        else:  # a new spec, which left the tables behind
            assert spec == field and spec is not field and "_tables" not in vars(spec)


_PICKLE_ACROSS_INTERPRETERS = """
import pickle, sys
from schurlab.ffield import RATIONALS, make_field
from schurlab.mpoly import MultiPoly

def build():
    F9 = make_field(3, 2)
    a = F9.element((1, 2))
    X, Y, _ = MultiPoly.gens(F9)
    f = a * X**2 - Y  # the arithmetic builds the tables of F_9
    return [a, f, MultiPoly.from_text("3*X^2*Y - 5/2*Z + 7", RATIONALS),
            make_field(1000003, 1).from_int(999999)]

mode, path = sys.argv[1:]
if mode == "dump":
    values = build()
    assert "_tables" in vars(make_field(3, 2))
    with open(path, "wb") as fh:
        pickle.dump(values, fh)
else:  # unpickled first, into a cold make_field cache
    with open(path, "rb") as fh:
        loaded = pickle.load(fh)
    assert loaded == build() and loaded[0].spec is make_field(3, 2), loaded
    print(len(loaded))
"""


def test_values_pickled_in_one_interpreter_load_in_another(fresh_python, tmp_path):
    path = str(tmp_path / "values.pickle")
    dump = fresh_python("-c", _PICKLE_ACROSS_INTERPRETERS, "dump", path)
    assert (dump.returncode, dump.stdout, dump.stderr) == (0, "", "")
    load = fresh_python("-c", _PICKLE_ACROSS_INTERPRETERS, "load", path)
    assert (load.returncode, load.stdout, load.stderr) == (0, "4\n", "")


def test_equality_with_a_scalar_of_another_field_is_false():
    X, _, _ = gens()
    assert (X == make_field(3, 2).one()) is False
    assert (make_field(3, 2).one() == X) is False
    assert (MultiPoly.one(F3) == Fraction(1, 2)) is False
    assert MultiPoly.constant(Q, Fraction(1, 2)) == Fraction(1, 2)


def test_a_field_element_is_never_equal_to_an_int():
    # equal objects must hash equal, and F_p's 1 would equal every int
    # congruent to 1 mod p, so an element compared with an int is
    # NotImplemented; a polynomial is unhashable, so it may equal the int
    assert (make_field(3, 1).one() == 1) is False
    assert (MultiPoly.one(make_field(3, 1)) == 1) is True
    with pytest.raises(TypeError):
        hash(MultiPoly.one(Q))


def test_construction_refusals():
    X, _, _ = gens()
    with pytest.raises(ValueError, match=r"bad monomial \(1, 2\)"):
        MultiPoly(Q, {(1, 2): 1})
    with pytest.raises(ValueError, match="bad monomial"):
        MultiPoly(Q, {(1, 2, -1): 1})
    with pytest.raises(ValueError, match="negative polynomial power"):
        X**-1
    with pytest.raises(ValueError, match="zero polynomial has no leading term"):
        MultiPoly.zero(Q).leading()
    for point in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match=f"a point has three values, not {len(point)}"):
            X.evaluate(point)
    assert 3 - X == MultiPoly(Q, {(0, 0, 0): 3, (1, 0, 0): -1})
    with pytest.raises(ValueError, match="multiplicity of the zero form"):
        linear_multiplicity(X, LinearForm(Q, 0, 0))
