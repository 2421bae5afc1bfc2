import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurlab import factor, ffield, mpoly
from schurlab.ffield import TABLE_CEILING, FFElement, FieldSpec, FieldTooSmallError, make_field
from schurlab.modp import CeilingError, irreducible_modulus, is_prime
from schurlab.factor import (
    FactorReport,
    _candidate_forms,
    _logs,
    _z_coefficients,
    check_closed_form,
    divides,
    eisenstein_like_check,
    grad_eval_identity,
    linear_factors_over,
    signature_witness,
    verify_fact_eq1,
    verify_fact_eq2,
)
from schurlab.mpoly import (
    RATIONALS,
    ExponentOverflowError,
    InexactDivisionError,
    LinearForm,
    MultiPoly,
    exact_divide,
    is_homogeneous,
    substitute,
)
from schurlab.vschur import ExponentPair, complete_homogeneous, r_poly, t_poly, vandermonde

Q = RATIONALS
F2 = make_field(2, 1)
F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)


def test_linear_factors_of_first_quotient_mod_3():
    report = linear_factors_over(t_poly(ExponentPair(3, 1, F3)), F3)
    [(pair, mult)] = report.linear_factors
    assert pair == (F3.from_int(2), F3.from_int(2))
    assert mult == 1
    assert report.fully_split
    assert report.residual_degree_in_z == 0


def test_linear_factors_of_tower_quotient_mod_2():
    # the (2^2-1, 2^1-1) quotient over F_2 is X + Y + Z: one factor, (1, 1)
    report = linear_factors_over(t_poly(ExponentPair(3, 1, F2)), F2)
    [(pair, mult)] = report.linear_factors
    assert pair == (F2.one(), F2.one())
    assert mult == 1 and report.factor_count() == (2 - 1) ** 2


def test_linear_factors_of_z_squared():
    Z = MultiPoly.variable(F3, "Z")
    report = linear_factors_over(Z**2, F3)
    [(pair, mult)] = report.linear_factors
    assert pair == (F3.zero(), F3.zero())
    assert mult == 2


def test_linear_factors_reconstruct_input():
    X, Y, Z = MultiPoly.gens(F3)
    residual = Z**2 + X * Y  # no linear factor: alpha^2 = beta^2 = 0, 2ab = -1
    f = (Z - X) * (Z - X - Y) ** 2 * residual
    report = linear_factors_over(f, F3)
    rebuilt = residual
    for (alpha, beta), mult in report.linear_factors:
        lin = MultiPoly(F3, {(0, 0, 1): 1, (1, 0, 0): -alpha, (0, 1, 0): -beta})
        rebuilt = rebuilt * lin**mult
        assert substitute(f, "Z", LinearForm(F3, alpha, beta)).is_zero()
    assert rebuilt == f
    assert not report.fully_split
    assert report.residual_degree_in_z == 2
    assert report.factor_count() + report.residual_degree_in_z == f.degree_in("Z")


def test_linear_factors_rejects_zero_and_ceiling():
    with pytest.raises(ValueError) as exc:
        linear_factors_over(MultiPoly.zero(F3), F3)
    assert not isinstance(exc.value, CeilingError)
    with pytest.raises(CeilingError, match=r"^field order 3\^1 exceeds the ceiling 2$"):
        linear_factors_over(MultiPoly.variable(F3, "Z"), F3, ceiling=2)


@pytest.mark.parametrize(
    "verify, p, r, size",
    [(verify_fact_eq1, 3, 2, 9), (verify_fact_eq2, 2, 2, 4), (verify_fact_eq2, 3, 1, 3)],
    ids=["eq1-3-2", "eq2-2-2", "eq2-3-1"],
)
def test_verify_fact_ceiling(verify, p, r, size):
    """Both splittings refuse a field order p^r above the ceiling and run at it."""
    with pytest.raises(CeilingError, match="exceeds the ceiling"):
        verify(p, r, ceiling=size - 1)
    ok, _ = verify(p, r, ceiling=size)
    assert ok


def test_verify_fact_ceiling_never_computes_a_huge_power():
    for verify in (verify_fact_eq1, verify_fact_eq2):
        with pytest.raises(CeilingError, match=r"3\^\d+ exceeds the ceiling"):
            verify(3, 10**15)


def linear(spec, alpha, beta):
    return MultiPoly(spec, {(0, 0, 1): 1, (1, 0, 0): -alpha, (0, 1, 0): -beta})


def unfiltered_linear_factors(f, spec):
    """The reference sweep: every form pays a full substitution, no zero-set filter."""
    residual = f
    factors = []
    for alpha in spec.elements():
        for beta in spec.elements():
            mult = 0
            while substitute(residual, "Z", LinearForm(spec, alpha, beta)).is_zero():
                residual = exact_divide(residual, linear(spec, alpha, beta))
                mult += 1
            if mult:
                factors.append(((alpha, beta), mult))
    residual_deg = residual.degree_in("Z")
    return FactorReport(
        input=f.to_text(),
        field=spec,
        linear_factors=tuple(factors),
        leading_coeff=f.coeff_of("Z", f.degree_in("Z")).to_text(),
        residual_degree_in_z=residual_deg,
        fully_split=residual_deg == 0,
    )


_SMALL_FIELDS = [(p, r) for p in range(2, 33) if is_prime(p) for r in range(1, 6) if p**r <= 32]


def without_tables(p, r):
    """A fresh F_{p^r} whose tables are pinned to None, as above TABLE_CEILING:
    its arithmetic runs on elements, and the sweep over it on log and Zech
    lists built for the one call."""
    spec = FieldSpec(p, r, irreducible_modulus(p, r))
    vars(spec)["_tables"] = None
    return spec


def with_and_without_tables(fields, without):
    """Parameters (make, p, r): each field as make_field builds it, under its
    own id, then each of without with its tables pinned to None."""
    return [pytest.param(make_field, p, r, id=f"{p}-{r}") for p, r in fields] + [
        pytest.param(without_tables, p, r, id=f"{p}-{r}-no-tables") for p, r in without
    ]


@pytest.mark.parametrize(
    "make,p,r", with_and_without_tables(_SMALL_FIELDS, [(2, 1), (3, 1), (2, 2), (3, 2)])
)
def test_filtered_sweep_matches_unfiltered_oracle(make, p, r):
    spec = make(p, r)
    grid = [(3, 1), (4, 1), (4, 3), (5, 1), (5, 2)]
    # the splitting quotients T(p, 1) and T(q, 1), where the oracle stays quick
    grid += [(A, 1) for A in sorted({p, p**r}) if 5 < A <= 16]
    T = {(A, B): t_poly(ExponentPair(A, B, spec)) for A, B in grid}
    cases = [(f"T{AB}", f) for AB, f in T.items()]
    # X and Y powers: the filter divides them out, the exact test keeps them
    X, Y, _ = MultiPoly.gens(spec)
    cases += [
        ("X^2*T(3,1)", X**2 * T[3, 1]), ("Y*T(4,3)", Y * T[4, 3]), ("X*Y^3*T(5,2)", X * Y**3 * T[5, 2])
    ]
    for label, f in cases:
        report, oracle = linear_factors_over(f, spec), unfiltered_linear_factors(f, spec)
        assert report.to_json() == oracle.to_json(), label
        assert report.residual_degree_in_z == oracle.residual_degree_in_z


_PRODUCT_FIELDS = [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2)]


@st.composite
def linear_products(draw):
    """(spec, planted forms, homogeneous flag, f): linear forms times a cofactor.

    The cofactor is homogeneous or has a nonzero constant term beside terms
    of positive degree, so f is homogeneous exactly when the flag says so.
    """
    spec = make_field(*draw(st.sampled_from(_PRODUCT_FIELDS)))
    elems = list(spec.elements())
    forms = draw(st.lists(
        st.tuples(st.sampled_from(elems), st.sampled_from(elems), st.integers(1, 2)),
        max_size=3,
    ))
    homogeneous = draw(st.booleans())
    degree = draw(st.integers(0 if homogeneous else 1, 3))
    monomials = [
        (a, b, c)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        if (a + b + c == degree if homogeneous else 1 <= a + b + c <= degree)
    ]
    terms = draw(st.dictionaries(st.sampled_from(monomials), st.sampled_from(elems[1:]),
                                 min_size=1, max_size=4))
    if not homogeneous:
        terms[(0, 0, 0)] = draw(st.sampled_from(elems[1:]))
    f = MultiPoly(spec, terms)
    for alpha, beta, mult in forms:
        f = f * linear(spec, alpha, beta) ** mult
    return spec, forms, homogeneous, f


@settings(max_examples=40, deadline=None)
@given(linear_products())
def test_filtered_sweep_on_random_linear_products(case):
    spec, forms, homogeneous, f = case
    assert (is_homogeneous(f) is not None) == homogeneous
    report = linear_factors_over(f, spec)
    oracle = unfiltered_linear_factors(f, spec)
    assert report.to_json() == oracle.to_json()
    assert report.residual_degree_in_z == oracle.residual_degree_in_z
    found = dict(report.linear_factors)
    planted = {}
    for alpha, beta, mult in forms:
        planted[alpha, beta] = planted.get((alpha, beta), 0) + mult
    for form, mult in planted.items():
        assert found.get(form, 0) >= mult


def candidate_forms(f, spec):
    """The forms that pass the sweep's zero-set filter on f, as element pairs."""
    logs = _logs(spec)
    _, z_lists = _z_coefficients(f, max(f.total_degree(), 1).bit_length(), logs)
    return [(FFElement._of(spec, a), FFElement._of(spec, b))
            for (a, _), (b, _) in _candidate_forms(z_lists, logs)]


@pytest.mark.parametrize("p,r", [(2, 2), (5, 1), (3, 2)])
def test_jet_never_rejects_a_true_divisor(p, r):
    """The zero-set filter (which replaced the jet filter) keeps every divisor."""
    spec = make_field(p, r)
    X, Y, Z = MultiPoly.gens(spec)
    # homogeneous and not; X divides some f, so f(0, 1, z) vanishes for every z
    cofactors = [MultiPoly.one(spec), X**3, Z**2 + X * Y, Y**2 + X + 1, X**4 * Z + Y]
    for alpha in spec.elements():
        for beta in spec.elements():
            for g in cofactors:
                f = linear(spec, alpha, beta) * g
                assert (alpha, beta) in candidate_forms(f, spec), (alpha, beta, g)


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 2), (5, 1), (7, 1)])
def test_jet_passes_only_the_divisors_of_the_splitting_quotient(p, r):
    # on T(q, 1) over F_q the zero-set filter alone finds the q - 2 linear factors
    spec = make_field(p, r)
    T = t_poly(ExponentPair(spec.order(), 1, spec))
    passed = list(candidate_forms(T, spec))
    assert passed == [form for form, _ in linear_factors_over(T, spec).linear_factors]
    assert len(passed) == spec.order() - 2


def from_log(spec, v):
    """The element whose discrete logarithm is v (None for 0): the power of
    the multiplicative generator."""
    return spec.zero() if v is None else ffield.multiplicative_generator(spec) ** v


def record_exact_divisions(monkeypatch, spec):
    """A list that gets ((alpha, beta), exact) for every exact division the
    sweep over spec runs: each is Horner's rule in Z on the residual's
    levels, on discrete logarithms, by the form Z - alpha*X - beta*Y, whose
    logs are mapped back to elements here."""
    divisions = []
    original = factor._synthetic_divide

    def recorded(levels, la, lb, *packing):
        pair = (from_log(spec, la), from_log(spec, lb))
        try:
            quotient = original(levels, la, lb, *packing)
        except InexactDivisionError:
            divisions.append((pair, False))
            raise
        divisions.append((pair, True))
        return quotient

    monkeypatch.setattr(factor, "_synthetic_divide", recorded)
    return divisions


@pytest.mark.parametrize("A,B,p,most", [(11, 4, 13, 0), (10, 3, 7, 3)])
def test_lines_through_triple_points_on_x_zero_skip_the_exact_test(monkeypatch, A, B, p, most):
    # a Taylor jet at (0 : 1 : beta) passed 13 and 9 such non-divisors here
    spec = make_field(p, 1)
    T = t_poly(ExponentPair(A, B, spec))
    calls = record_exact_divisions(monkeypatch, spec)
    report = linear_factors_over(T, spec)
    assert not report.linear_factors  # so each division is one form reaching the test
    assert len(calls) <= most


def forms_reaching_the_exact_test(monkeypatch, f, spec):
    """The distinct forms that linear_factors_over tries to divide out of f."""
    divisions = record_exact_divisions(monkeypatch, spec)
    report = linear_factors_over(f, spec)
    return report, {form for form, _ in divisions}


def test_monomial_factors_leave_one_form_for_the_exact_test(monkeypatch):
    # X*Y*Z vanishes on X = 0 and on Y = 0, so the zero sets of f itself
    # hold every element; those of Z, which the sweep packs, hold only 0
    spec = make_field(101, 1)
    X, Y, Z = MultiPoly.gens(spec)
    report, forms = forms_reaching_the_exact_test(monkeypatch, X * Y * Z, spec)
    assert forms == {(spec.zero(), spec.zero())}
    assert report.linear_factors == (((spec.zero(), spec.zero()), 1),)
    assert report.residual_degree_in_z == 0


def test_both_monomial_factors_are_divided_out(monkeypatch):
    # the sweep folds X*Y^2 out as it packs f, so the filter and the gate
    # see f without X and Y, and only the two divisors reach the exact test
    spec = make_field(101, 1)
    X, Y, Z = MultiPoly.gens(spec)
    report, forms = forms_reaching_the_exact_test(monkeypatch, X * Y**2 * Z * (Z - X - Y), spec)
    zero, one = spec.zero(), spec.one()
    assert forms == {(zero, zero), (one, one)}
    assert [form for form, _ in report.linear_factors] == [(zero, zero), (one, one)]


@pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (2, 3)])
def test_a_kept_monomial_factor_would_send_forms_to_the_exact_test(monkeypatch, i, j):
    # Z^2 + X*Y passes no pair over F_5: 0 is its only zero on X = 0 and on
    # Y = 0, and 0 + 0 is no root of Z^2 + 1.  A kept X (Y) would let
    # (0, 2), (0, 3) ((2, 0), (3, 0)) through both the filter and the gate.
    # The sweep packs f as it packs Z^2 + X*Y.
    X, Y, Z = MultiPoly.gens(F5)
    f, logs = X**i * Y**j * (Z**2 + X * Y), _logs(F5)
    assert _z_coefficients(f, 4, logs) == _z_coefficients(Z**2 + X * Y, 4, logs)
    report, forms = forms_reaching_the_exact_test(monkeypatch, f, F5)
    assert forms == set()
    assert report.linear_factors == () and report.residual_degree_in_z == 2


@pytest.mark.parametrize("A,p,r", [(16, 2, 4), (25, 5, 2), (13, 13, 1)])
def test_splitting_sweep_runs_no_inexact_division(monkeypatch, A, p, r):
    # each of the q - 2 factors is simple, and the three-point gate turns
    # each quotient away from its form without a second division
    spec = make_field(p, r)
    T = t_poly(ExponentPair(A, 1, spec))
    divisions = record_exact_divisions(monkeypatch, spec)
    report = linear_factors_over(T, spec)
    assert report.fully_split and report.factor_count() == spec.order() - 2
    assert len(divisions) == spec.order() - 2
    assert all(exact for _, exact in divisions)


def test_a_passing_gate_leaves_the_verdict_to_the_division(monkeypatch):
    # the cubic vanishes at (1, 0, 2), (0, 1, 3) and (1, 1, 0), as Z - 2X - 3Y
    # does, and is not its multiple, so the gate lets the third division run
    X, Y, Z = MultiPoly.gens(F5)
    pair = (F5.from_int(2), F5.from_int(3))
    form = linear(F5, *pair)
    divisions = record_exact_divisions(monkeypatch, F5)
    report = linear_factors_over(form**2 * (X * Y * (X - Y) + form * Z**2), F5)
    assert report.linear_factors == ((pair, 2),)
    assert report.residual_degree_in_z == 3
    assert [exact for tried, exact in divisions if tried == pair] == [True, True, False]


def from_levels(levels, s, spec):
    """The polynomial whose Z-coefficients are levels (see _z_coefficients),
    each a discrete logarithm (see from_log)."""
    mask, top = (1 << s) - 1, len(levels) - 1
    terms = {}
    for k, level in enumerate(levels):
        for key, c in level.items():
            terms[key >> s, key & mask, top - k] = from_log(spec, c)
    return MultiPoly(spec, terms)


_DIVISION_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 1)]


@pytest.mark.parametrize("make,p,r", with_and_without_tables(_DIVISION_FIELDS, _DIVISION_FIELDS))
def test_synthetic_division_matches_exact_divide(make, p, r):
    """Horner's rule in Z gives exact_divide's quotient by Z - a*X - b*Y,
    and raises exactly when exact_divide raises, division after division
    on the first residual's slot width, as in the sweep."""
    spec = make(p, r)
    logs = _logs(spec)
    X, Y, Z = MultiPoly.gens(spec)
    zero, *nonzero = spec.elements()
    a, b = nonzero[-1], nonzero[0]
    pairs = [(zero, zero), (zero, b), (a, zero), (a, b)]  # Z, Z - b*Y, Z - a*X and both
    for pair in pairs:
        form = linear(spec, *pair)
        # homogeneous, non-homogeneous, and one that vanishes at the gate's
        # three points of the form without its dividing
        cofactors = [MultiPoly.one(spec), X**2 + Y * Z, Z**2 + Y**3 + X + 1,
                     X * Y * (X - Y) + form * Z**2]
        for g, m in itertools.product(cofactors, range(3)):
            f = form**m * g
            s = max(f.total_degree(), 1).bit_length()
            for divisor in pairs:
                levels, _ = _z_coefficients(f, s, logs)
                quotient, divisor_logs = f, [logs[0][c.code] for c in divisor]
                while True:
                    try:
                        quotient = exact_divide(quotient, linear(spec, *divisor))
                    except InexactDivisionError:
                        with pytest.raises(InexactDivisionError):
                            factor._synthetic_divide(levels, *divisor_logs, s, logs)
                        break
                    levels = factor._synthetic_divide(levels, *divisor_logs, s, logs)
                    assert from_levels(levels, s, spec) == quotient, (f, divisor)


@pytest.mark.parametrize("make,p,r", with_and_without_tables([(2, 2), (5, 1), (3, 2)], [(5, 1)]))
def test_a_gate_that_always_passes_changes_no_verdict(monkeypatch, make, p, r):
    # with every Horner value zero, the filter and the gate pass every form,
    # and the exact divisions alone give the oracle's factors; the partial
    # values stay Horner's, so after an exact division they are still the
    # quotient's lists
    spec = make(p, r)
    X, _, Z = MultiPoly.gens(spec)
    cases = [t_poly(ExponentPair(A, B, spec)) for A, B in [(4, 1), (5, 2), (spec.order(), 1)]]
    cases.append(X * (Z - X) ** 3 * (Z**2 + X * Z + 1))
    expected = [unfiltered_linear_factors(f, spec).to_json() for f in cases]
    horner, runs = factor._horner, []

    def always_zero(coeffs, z, logs):
        runs.append(logs)
        return horner(coeffs, z, logs)[:-1] + [None]

    monkeypatch.setattr(factor, "_horner", always_zero)
    assert [linear_factors_over(f, spec).to_json() for f in cases] == expected
    assert runs and all(logs == _logs(spec) for logs in runs)


@pytest.mark.parametrize(
    "p,r", [(p, r) for p in range(2, 65) if is_prime(p) for r in range(1, 7) if p**r <= 64]
)
def test_logs_built_on_demand_are_the_tables_lists(p, r):
    tables = make_field(p, r)._tables
    assert _logs(without_tables(p, r)) == (tables.log, tables.zech, tables.qm1)


def test_a_sweep_reads_the_tables_lists_and_builds_its_own_only_without_tables(monkeypatch):
    spec = make_field(3, 2)
    T = t_poly(ExponentPair(9, 1, spec))  # its arithmetic builds the tables
    expected = linear_factors_over(T, spec).to_json()

    def refuse(spec):
        raise AssertionError(f"a sweep over {spec} built its own lists")

    monkeypatch.setattr(factor, "_zech_lists", refuse)
    assert linear_factors_over(T, spec).to_json() == expected
    # without tables, the lists are built on every sweep and kept nowhere
    bare, built = without_tables(3, 2), []

    def counted(spec):
        built.append(spec)
        return ffield._zech_lists(spec)

    monkeypatch.setattr(factor, "_zech_lists", counted)
    T = t_poly(ExponentPair(9, 1, bare))
    assert [linear_factors_over(T, bare).to_json() for _ in range(2)] == [expected] * 2
    assert built == [bare, bare] and vars(bare)["_tables"] is None


def test_a_sweep_runs_on_ints_and_builds_elements_only_for_its_report(monkeypatch):
    # T(9,1) with tables and without; T(10,3)/F_7, where the gate lets three
    # inexact divisions through; and a monomial factor X*Y^2, folded out as
    # the sweep packs f
    F9, F101 = make_field(3, 2), make_field(101, 1)
    bare = without_tables(3, 2)
    X, Y, Z = MultiPoly.gens(F101)
    cases = [(t_poly(ExponentPair(9, 1, F9)), F9), (t_poly(ExponentPair(9, 1, bare)), bare),
             (t_poly(ExponentPair(10, 3, F7)), F7), (X * Y**2 * Z * (Z - X - Y), F101)]
    expected = [linear_factors_over(f, spec).to_json() for f, spec in cases]

    def refuse(*args):
        raise AssertionError("the sweep made element arithmetic or enumerated a field")

    monkeypatch.setattr(FieldSpec, "elements", refuse)
    # __radd__ and __rmul__ are bindings of their own
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                 "__pow__", "__truediv__"):
        monkeypatch.setattr(FFElement, name, refuse)
    assert [linear_factors_over(f, spec).to_json() for f, spec in cases] == expected


_GATE_FIELDS = [(5, 1), (2, 2), (3, 2), (13, 1)]


@st.composite
def gated_products(draw):
    """(spec, f): forms Z - a*X - b*Y with multiplicities 1-3, at times a p-th
    power, a cofactor that may vanish at the three points (1, 0, a),
    (0, 1, b), (1, 1, a + b) of the first form without its dividing, and a
    monomial factor X^i Y^j with 0 <= i, j <= 2, which the sweep divides
    out first and the oracle keeps."""
    spec = make_field(*draw(st.sampled_from(_GATE_FIELDS)))
    element = st.sampled_from(list(spec.elements()))
    forms = draw(st.lists(st.tuples(element, element, st.integers(1, 3)), min_size=1, max_size=3))
    a, b, _ = forms[0]
    X, Y, Z = MultiPoly.gens(spec)
    cofactor = draw(st.sampled_from(["lines", "cubic", "none"]))
    if cofactor == "lines":  # one line through each of the three points
        a2, b1, a3 = draw(element), draw(element), draw(element)
        f = linear(spec, a, b1) * linear(spec, a2, b) * linear(spec, a3, a + b - a3)
    elif cofactor == "cubic":  # X*Y*(X - Y) vanishes at all three points
        f = X * Y * (X - Y) + linear(spec, a, b) * Z**2
    else:
        f = MultiPoly.one(spec)
    for alpha, beta, mult in forms:
        f = f * linear(spec, alpha, beta) ** mult
    if draw(st.booleans()):
        f = f * linear(spec, draw(element), draw(element)) ** spec.p
    return spec, f * X ** draw(st.integers(0, 2)) * Y ** draw(st.integers(0, 2))


@settings(max_examples=30, deadline=None)
@given(gated_products())
def test_gated_sweep_matches_the_substitution_oracle(case):
    spec, f = case
    assert linear_factors_over(f, spec).to_json() == unfiltered_linear_factors(f, spec).to_json()


@pytest.mark.parametrize("A,B,p,r", [(16, 1, 2, 4), (25, 1, 5, 2), (11, 4, 13, 1)])
def test_linear_factor_sweep_never_substitutes(monkeypatch, A, B, p, r):
    spec = make_field(p, r)
    T = t_poly(ExponentPair(A, B, spec))
    expected = unfiltered_linear_factors(T, spec).to_json()  # the oracle substitutes

    def refuse(*args):
        raise AssertionError("the sweep substituted")

    monkeypatch.setattr(mpoly, "substitute", refuse)
    monkeypatch.setattr(factor, "substitute", refuse, raising=False)
    assert linear_factors_over(T, spec).to_json() == expected


def product_of_forms(spec, forms):
    """The reference product: the claimed forms multiplied out one by one."""
    product = MultiPoly.one(spec)
    for a, b in forms:
        product = product * linear(spec, a, b)
    return product


_EQ2_FIELDS = [(p, r) for p, r in _SMALL_FIELDS if p**r <= 16]


@pytest.mark.parametrize(
    "verify,p,r",
    [(verify_fact_eq1, p, r) for p, r in _SMALL_FIELDS]
    + [(verify_fact_eq2, p, r) for p, r in _EQ2_FIELDS],
    ids=[f"eq1-{p}-{r}" for p, r in _SMALL_FIELDS] + [f"eq2-{p}-{r}" for p, r in _EQ2_FIELDS],
)
def test_moore_route_equals_the_multiplied_out_forms(verify, p, r):
    """The verdict passes, and the claimed forms multiplied out are T."""
    ok, report = verify(p, r)
    A, B = (p**r, 1) if verify is verify_fact_eq1 else (p ** (2 * r) - 1, p**r - 1)
    spec = report.field
    forms = [form for form, _ in report.linear_factors]
    assert product_of_forms(spec, forms) == t_poly(ExponentPair(A, B, spec))
    assert ok and report.fully_split


_LEMMA_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_moore_det_is_v_times_the_product_over_the_field(data):
    """v * prod_{c in F_q} (u - c*v) = u^q*v - u*v^q for random u, v."""
    spec = make_field(*data.draw(st.sampled_from(_LEMMA_FIELDS)))
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 2))
    coeffs = st.sampled_from(list(spec.elements()))
    u, v = (MultiPoly(spec, data.draw(st.dictionaries(monomials, coeffs, max_size=3)))
            for _ in range(2))
    direct = v
    for c in spec.elements():
        direct = direct * (u - v * c)
    assert factor._moore_det(u, v, spec.order()) == direct


@pytest.mark.parametrize(
    "verify,p,r",
    [(verify_fact_eq1, 3, 1), (verify_fact_eq1, 2, 3), (verify_fact_eq2, 3, 1), (verify_fact_eq2, 2, 2)],
    ids=["eq1-3-1", "eq1-2-3", "eq2-3-1", "eq2-2-2"],
)
def test_verify_fact_fails_on_a_wrong_quotient(monkeypatch, verify, p, r):
    """The verdict checks an identity on R: R = (T + X^k)*V_d fails it."""
    wrong = []

    def broken(e):
        T = t_poly(e)
        X_k = MultiPoly.variable(e.field, "X") ** T.total_degree()
        wrong.append(T + X_k)
        return r_poly(e) + X_k * vandermonde(e.d, e.field)

    monkeypatch.setattr(factor, "r_poly", broken)
    ok, report = verify(p, r)
    [T] = wrong
    assert not ok and not report.fully_split
    assert report.residual_degree_in_z == T.degree_in("Z") > 0
    assert report.factor_count() == T.degree_in("Z")


@pytest.mark.parametrize(
    "verify, p, r",
    [(verify_fact_eq1, 3, 2), (verify_fact_eq1, 2, 3), (verify_fact_eq2, 3, 1), (verify_fact_eq2, 2, 2)],
    ids=["eq1-3-2", "eq1-2-3", "eq2-3-1", "eq2-2-2"],
)
def test_closed_form_exponent_check_is_the_top_exponent_the_check_writes(monkeypatch, verify, p, r):
    """With the cap moved to the top exponent the check refuses, before the
    field is built, exactly where the construction would overflow."""
    which = "eq1" if verify is verify_fact_eq1 else "eq2"
    q = p**r
    top = q + 1 if which == "eq1" else q * q + q
    monkeypatch.setattr(mpoly, "EXPONENT_CAP", top + 1)
    monkeypatch.setattr(factor, "EXPONENT_CAP", top + 1)
    assert verify(p, r)[0]
    monkeypatch.setattr(mpoly, "EXPONENT_CAP", top)
    with monkeypatch.context() as patch:
        patch.setattr(factor, "check_closed_form", lambda *args: None)
        with pytest.raises(ExponentOverflowError):
            verify(p, r)
    monkeypatch.setattr(factor, "EXPONENT_CAP", top)

    def unreachable(*args):
        raise AssertionError("the field was built before the exponent check")

    monkeypatch.setattr(factor, "make_field", unreachable)
    with pytest.raises(ExponentOverflowError, match=rf"^exponent too large: the {which} check"):
        verify(p, r)


def test_closed_form_check_at_the_real_cap():
    ceiling = 10**40
    check_closed_form("eq1", 2, 61, ceiling)
    check_closed_form("eq2", 2, 30, ceiling)
    for which, p, r in (("eq1", 2, 62), ("eq2", 2, 31), ("eq2", 3, 39)):
        with pytest.raises(ExponentOverflowError, match=rf"q = {p}\^{r} writes exponents of 2\^62"):
            check_closed_form(which, p, r, ceiling)
    # over the ceiling is the first refusal
    for which in ("eq1", "eq2"):
        with pytest.raises(CeilingError):
            check_closed_form(which, 2, 62)


def test_verify_fact_never_builds_t_and_never_divides(monkeypatch):
    """Both splittings are decided by one product identity on R."""

    def unreachable(*args):
        raise AssertionError("a splitting check built T or divided")

    monkeypatch.setattr(factor, "t_poly", unreachable)
    monkeypatch.setattr(factor, "exact_divide", unreachable)
    assert verify_fact_eq1(2, 5)[0]
    assert verify_fact_eq2(3, 1)[0]


def test_splitting_checks_take_only_frobenius_powers(monkeypatch):
    """Every polynomial power on the splitting route is p^k, k >= 1: no binary powering."""
    exponents = []
    original_pow = MultiPoly.__pow__

    def recording(self, n):
        exponents.append(n)
        return original_pow(self, n)

    def is_frobenius(n, p):
        """n = p^k with k >= 1."""
        if n < p:
            return False
        while n % p == 0:
            n //= p
        return n == 1

    monkeypatch.setattr(MultiPoly, "__pow__", recording)
    for verify, p, r in [(verify_fact_eq1, 3, 2), (verify_fact_eq1, 2, 5),
                         (verify_fact_eq2, 3, 1), (verify_fact_eq2, 2, 2)]:
        exponents.clear()
        assert verify(p, r)[0]
        assert exponents and all(is_frobenius(n, p) for n in exponents), (verify, p, r, exponents)


def eager_forms(verify, spec):
    """The claimed forms as the eager list a splitting report once held: the oracle."""
    one = spec.one()
    if verify is verify_fact_eq1:
        return [(alpha, one - alpha) for alpha in spec.elements() if alpha and alpha != one]
    units = [x for x in spec.elements() if x]
    return [(a, b) for a in units for b in units]


_FIELDS_TO_27 = [(p, r) for p, r in _SMALL_FIELDS if p**r <= 27]
_ABOVE_TABLES = next(p for p in range(TABLE_CEILING + 1, 2 * TABLE_CEILING) if is_prime(p))


@pytest.mark.parametrize(
    "verify,p,r",
    [(verify, p, r) for verify in (verify_fact_eq1, verify_fact_eq2) for p, r in _FIELDS_TO_27]
    + [(verify_fact_eq1, _ABOVE_TABLES, 1)],
    ids=[f"{name}-{p}-{r}" for name in ("eq1", "eq2") for p, r in _FIELDS_TO_27]
    + [f"eq1-{_ABOVE_TABLES}-1"],
)
def test_lazy_forms_serialize_as_the_eager_list(verify, p, r):
    """The report's to_json() and factor_count are those of the eager list, on every pass."""
    ok, report = verify(p, r)
    eager = FactorReport(
        input=report.input_label,
        field=report.field,
        linear_factors=tuple((form, 1) for form in eager_forms(verify, report.field)),
        leading_coeff="1",
        residual_degree_in_z=0,
        fully_split=True,
    )
    assert ok
    assert report.factor_count() == eager.factor_count()
    assert report.to_json() == eager.to_json()
    assert list(report.linear_factors) == list(eager.linear_factors)  # a second pass


def test_eq2_forms_above_the_table_ceiling_come_in_the_eager_order():
    """Over F_p, p > TABLE_CEILING, the (p-1)^2 forms are read lazily, in the eager order."""
    ok, report = verify_fact_eq2(_ABOVE_TABLES, 1)
    assert ok and len(report.linear_factors) == (_ABOVE_TABLES - 1) ** 2
    units = [x for x in report.field.elements() if x]
    head = list(itertools.islice(report.linear_factors, len(units) + 1))
    assert head == [((units[0], b), 1) for b in units] + [((units[1], units[0]), 1)]


def test_splitting_verdicts_build_no_form(monkeypatch):
    """factor_count is the known count: no field element is enumerated, even at q = 2^20."""

    def refuse(self):
        raise AssertionError("a splitting verdict enumerated the field")

    monkeypatch.setattr(FieldSpec, "elements", refuse)
    ok, report = verify_fact_eq1(2, 20, ceiling=2**20)
    assert ok and report.factor_count() == 2**20 - 2
    ok, report = verify_fact_eq2(2, 12)
    assert ok and report.factor_count() == (2**12 - 1) ** 2


@pytest.mark.parametrize(
    "p,r,count",
    [(2, 1, 0), (2, 2, 2), (3, 1, 1), (5, 1, 3)],
)
def test_verify_fact_eq1(p, r, count):
    ok, report = verify_fact_eq1(p, r)
    assert ok
    assert report.factor_count() == count == p**r - 2
    assert report.fully_split


@pytest.mark.parametrize("p,r,count", [(2, 1, 1), (3, 1, 4), (2, 2, 9)])
def test_verify_fact_eq2(p, r, count):
    ok, report = verify_fact_eq2(p, r)
    assert ok
    assert report.factor_count() == count == (p**r - 1) ** 2


def test_divides_reflexive():
    T = t_poly(ExponentPair(5, 2))
    assert divides(T, T)


def test_divides_golden_negative_case():
    # h_2 mod 2 is not a multiple of X + Y + Z: substitute Z = X + Y and get
    # X^2 + XY + Y^2, which is nonzero
    assert not divides(t_poly(ExponentPair(3, 1, F2)), t_poly(ExponentPair(4, 1, F2)))


def test_divides_tower_instance():
    # r = 1, (s, t) = (4, 2): the (3, 1) quotient divides the (15, 3) quotient
    assert divides(t_poly(ExponentPair(3, 1, F2)), t_poly(ExponentPair(15, 3, F2)))


def test_divides_index_divided_rule():
    # dividing the exponents by p^r - 1: T(p^r+1, 1) divides the quotient for
    # ((p^s-1)/(p^r-1), (p^t-1)/(p^r-1)) whenever r divides s and t;
    # here p = 2, r = 2
    small = t_poly(ExponentPair(5, 1, F2))
    for s, t in [(6, 2), (6, 4)]:
        A, B = (2**s - 1) // 3, (2**t - 1) // 3
        assert divides(small, t_poly(ExponentPair(A, B, F2))), (s, t)


def test_divides_lets_an_internal_arithmetic_error_through(monkeypatch):
    # only an inexact division is a False verdict; any other failure propagates
    X, Y, _ = MultiPoly.gens(F3)

    def broken(f, g):
        raise ArithmeticError("internal")

    monkeypatch.setattr(factor, "exact_divide", broken)
    with pytest.raises(ArithmeticError, match="internal"):
        divides(X, X * Y)


def test_divides_rejects_zero_divisor():
    with pytest.raises(ValueError):
        divides(MultiPoly.zero(Q), MultiPoly.one(Q))


def test_signature_witness_5_2_over_f7():
    ws = signature_witness(ExponentPair(5, 2, F7))
    assert [w.kind for w in ws] == ["lower", "lower", "upper"]
    assert all(w.verdict for w in ws)
    lower = ws[0]
    assert lower.length == 2
    # Z-constant coefficient divisible exactly once, Z^1 vanishes, Z^2 clean
    assert dict(lower.checks)[0] == 1
    assert dict(lower.checks)[1] == math.inf
    assert dict(lower.checks)[2] == 0
    upper = ws[2]
    assert upper.length == 3
    assert dict(upper.checks)[5] == 1
    assert dict(upper.checks)[2] == 0


def test_signature_witness_5_3_over_f7():
    ws = signature_witness(ExponentPair(5, 3, F7))
    assert sorted(w.kind for w in ws) == ["lower", "upper", "upper"]
    assert all(w.verdict for w in ws)


def test_signature_witness_with_nontrivial_gcd():
    # (10, 4) has d = 2: four lower witnesses of length 4 (sixth roots with
    # the square roots removed) and two upper of length 6 (fourth roots
    # likewise); F_13 holds all the roots
    F13 = make_field(13, 1)
    ws = signature_witness(ExponentPair(10, 4, F13))
    assert sorted((w.kind, w.length) for w in ws) == [("lower", 4)] * 4 + [("upper", 6)] * 2
    assert all(w.verdict for w in ws)


def test_signature_witness_allows_p_dividing_A():
    F25 = make_field(5, 2)
    ws = signature_witness(ExponentPair(5, 2, F25))
    assert ws and all(w.verdict for w in ws)


def test_signature_witness_refuses_degenerate_shapes():
    with pytest.raises(ValueError, match="eisenstein"):
        signature_witness(ExponentPair(4, 2, F7))
    with pytest.raises(ValueError, match="eisenstein"):
        signature_witness(ExponentPair(5, 4, F7))  # A - B = 1 = d


def test_signature_witness_refuses_bad_characteristic():
    with pytest.raises(ValueError, match="characteristic"):
        signature_witness(ExponentPair(7, 2, F2))  # p | B


def test_signature_witness_field_too_small():
    with pytest.raises(FieldTooSmallError):
        signature_witness(ExponentPair(5, 2, F5))  # needs cube roots, 3 does not divide 4


@pytest.mark.parametrize(
    "A, B, p, r, count, digest",
    [
        (5, 2, 7, 1, 3, "28e09a21100a83a5"),
        (10, 4, 13, 1, 6, "eea3f78d7358e59c"),
        (13, 5, 7, 4, 11, "94db1d7937a84115"),
        (5, 2, 5, 2, 3, "5fd04fcfdde7224e"),
        (7, 2, 1000003, 4, 5, "090d7f4ce79bdb00"),  # no tables
    ],
    ids=["5-2-F7", "10-4-F13", "13-5-F7^4", "5-2-F25", "7-2-F1000003^4"],
)
def test_signature_witness_scans_for_its_roots_once(monkeypatch, A, B, p, r, count, digest):
    # both families take their roots from the one list of lcm(B, A - B)-th
    # roots; the witnesses keep the digest of their JSON from before
    spec = make_field(p, r)
    spec._tables  # built first, since the tables' generator scans too
    scanned = []
    scan = ffield._first_unit_reaching

    def counted(spec, n):
        scanned.append(n)
        return scan(spec, n)

    monkeypatch.setattr(ffield, "_first_unit_reaching", counted)
    ws = signature_witness(ExponentPair(A, B, spec))
    assert scanned == [math.lcm(B, A - B)]
    blob = json.dumps([w.to_json() for w in ws], sort_keys=True)
    assert (len(ws), hashlib.sha256(blob.encode()).hexdigest()[:16]) == (count, digest)


def test_signature_witness_json():
    ws = signature_witness(ExponentPair(5, 2, F7))
    blob = ws[0].to_json()
    assert blob["kind"] == "lower" and blob["verdict"] is True
    assert ["inf" if m == "inf" else m for _, m in blob["checks"]]


def test_eisenstein_like_check_true_cases():
    # the Z-constant coefficient of the (4,1) quotient is (X - Y)^2 mod 3
    T = t_poly(ExponentPair(4, 1, F3))
    c0 = T.coeff_of("Z", 0)
    X, Y, _ = MultiPoly.gens(F3)
    assert c0 == (X - Y) ** 2
    assert eisenstein_like_check(T, LinearForm(F3, 1, -1))
    assert eisenstein_like_check(t_poly(ExponentPair(5, 1, F2)), LinearForm(F2, 1, -1))


def test_eisenstein_like_check_false_case():
    X, Y, Z = MultiPoly.gens(Q)
    assert not eisenstein_like_check((Z - X) * (Z - Y), LinearForm(Q, 1, -1))


def test_eisenstein_like_check_requires_homogeneous():
    X, _, Z = MultiPoly.gens(Q)
    with pytest.raises(ValueError):
        eisenstein_like_check(Z**2 + X, LinearForm(Q, 1, -1))


def test_singular_point_probe_char_2_case(singular_point_probe):
    report = singular_point_probe(t_poly(ExponentPair(5, 1, F2)), (1, 1, 1))
    assert report.singular
    assert report.vanishing == (True, True, True, True)


def test_probe_report_json_bytes(singular_point_probe):
    point = (1, 1, 1)
    report = singular_point_probe(t_poly(ExponentPair(4, 1, F3)), point)
    blob = {"point": [str(F3.coerce(v)) for v in point],
            "value": str(report.value),
            "partials": [str(v) for v in report.partials],
            "vanishing": list(report.vanishing), "singular": report.singular}
    assert json.dumps(blob, sort_keys=True) == (
        '{"partials": ["3^1:[1]", "3^1:[1]", "3^1:[1]"], '
        '"point": ["3^1:[1]", "3^1:[1]", "3^1:[1]"], "singular": false, '
        '"value": "3^1:[0]", "vanishing": [true, false, false, false]}'
    )


def test_singular_point_probe_char_3_discrepancy(singular_point_probe):
    # h_2 vanishes at (1,1,1) mod 3 but its partials do not: not singular
    report = singular_point_probe(t_poly(ExponentPair(4, 1, F3)), (1, 1, 1))
    assert report.vanishing[0] is True
    assert report.singular is False


def test_singular_point_probe_vandermonde_triple_point(singular_point_probe):
    report = singular_point_probe(vandermonde(1), (1, 1, 1))
    assert report.singular  # (1,1,1) lies on all three lines


def test_singular_point_probe_generic_point(singular_point_probe):
    report = singular_point_probe(complete_homogeneous(3, F2), (1, 0, 0))
    assert not report.singular
    assert report.value == F2.one()


def test_singular_point_probe_rejects_zero_point(singular_point_probe):
    with pytest.raises(ValueError):
        singular_point_probe(vandermonde(1), (0, 0, 0))


def test_grad_eval_identity_cube_roots_mod_7():
    phi, psi = F7.from_int(2), F7.from_int(4)
    assert grad_eval_identity(4, phi, psi)
    assert grad_eval_identity(4, psi, phi)


def test_grad_eval_identity_value_spelled_out():
    # dZ of the (4,1) quotient is X + Y + 2Z; at (2, 4, 1) mod 7 that is 1,
    # and 3 / ((1-2)(1-4)) = 3/3 = 1 as well
    phi, psi = F7.from_int(2), F7.from_int(4)
    lhs = F7.from_int(2 + 4 + 2)
    rhs = F7.from_int(3) / (F7.from_int(-1) * F7.from_int(-3))
    assert lhs == rhs == F7.one()


def test_grad_eval_identity_refusals():
    with pytest.raises(ValueError):
        grad_eval_identity(3, F7.from_int(6), F7.from_int(6))  # no second root
    with pytest.raises(ValueError):
        grad_eval_identity(4, Fraction(1), Fraction(-1))  # no rational cube roots
    with pytest.raises(ValueError):
        grad_eval_identity(7, F7.from_int(2), F7.from_int(4))  # p | k
    with pytest.raises(ValueError):
        grad_eval_identity(4, F7.from_int(2), make_field(5, 1).from_int(2))


def test_factor_refusals(singular_point_probe):
    T = t_poly(ExponentPair(3, 1, F3))
    with pytest.raises(ValueError, match="lives over F\\(3\\), not F\\(5\\)"):
        linear_factors_over(T, F5)
    with pytest.raises(ValueError, match="P must be a nonzero linear form"):
        eisenstein_like_check(T, LinearForm(F3, 0, 0))
    X, Y, Z = MultiPoly.gens(F3)
    assert eisenstein_like_check(X * Z + Y * Z, LinearForm(F3, 1, 1)) is False  # Z^0 part is 0
    with pytest.raises(ValueError, match="nonzero homogeneous"):
        singular_point_probe(X + Y * Y, (1, 0, 0))
