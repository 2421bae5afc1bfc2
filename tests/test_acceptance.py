"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -s`` to see one line per
criterion.  Every check here is an exact polynomial or integer identity;
there are no tolerances to tune.
"""

from schurlab.ffield import make_field
from schurlab.mpoly import RATIONALS, LinearForm, partial_derivative
from schurlab.vschur import (
    ExponentPair,
    complete_homogeneous,
    inverted_transform,
    r_poly,
    schur_bialternant,
    t_poly,
    vandermonde,
)
from schurlab.factor import (
    eisenstein_like_check,
    divides,
    grad_eval_identity,
    signature_witness,
    verify_fact_eq1,
    verify_fact_eq2,
)
from schurlab.newton import (
    TowerParams,
    build_alternative_pair,
    degree_of_extension,
    two_generator_degree,
    verify_newton_identity,
)

Q = RATIONALS
FIELDS = [Q, make_field(2, 1), make_field(3, 1), make_field(5, 1), make_field(7, 1)]


def _ok(num, label):
    print(f"ACCEPTANCE {num} ({label}): PASS")


def test_criterion_1_identity_suite():
    for field in FIELDS:
        for k in range(2, 13):
            assert t_poly(ExponentPair(k, 1, field)) == complete_homogeneous(k - 2, field)
        for A in range(2, 13):
            for B in range(1, A):
                e = ExponentPair(A, B, field)
                T = t_poly(e)
                assert T * vandermonde(e.d, field) == r_poly(e)
                assert T == schur_bialternant(e.partition, e.d, field)
    _ok(1, "identity suite, char 0 and mod 2/3/5/7, A <= 12")


def test_criterion_2_factorization_reproduction():
    for p, r in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        ok, report = verify_fact_eq1(p, r)
        assert ok, (p, r)
        assert report.factor_count() == p**r - 2
    for p, r in [(2, 1), (2, 2), (3, 1)]:
        ok, report = verify_fact_eq2(p, r)
        assert ok, (p, r)
        assert report.factor_count() == (p**r - 1) ** 2
    _ok(2, "closed-form factorizations and factor counts")


def test_criterion_3_divisibility_rules():
    F2 = make_field(2, 1)
    small = t_poly(ExponentPair(2**2 - 1, 2**1 - 1, F2))  # r = 1
    for s, t in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        big = t_poly(ExponentPair(2**s - 1, 2**t - 1, F2))
        assert divides(small, big), (s, t)
    _ok(3, "tower divisibility over F_2, (s,t) in {(2,1),(3,1),(3,2),(4,2)}")


def test_criterion_4_irreducibility_witnesses():
    for q in (2, 3, 4, 5, 7, 8, 9):
        p = 2 if q in (2, 4, 8) else (3 if q in (3, 9) else q)
        spec = make_field(p, 1)
        assert eisenstein_like_check(
            t_poly(ExponentPair(q + 1, 1, spec)), LinearForm(spec, 1, -1)
        ), q
    samples = [
        (5, 2, make_field(7, 1)),
        (5, 3, make_field(7, 1)),
        (7, 2, make_field(11, 1)),
        (7, 4, make_field(13, 1)),
        (5, 2, make_field(5, 2)),  # characteristic divides A
    ]
    for A, B, spec in samples:
        witnesses = signature_witness(ExponentPair(A, B, spec))
        assert witnesses, (A, B)
        assert all(w.verdict for w in witnesses), (A, B, spec)
    _ok(4, "power-criterion and signature witnesses, incl. p | A sample")


def test_criterion_5_counterexample_family():
    pair3 = build_alternative_pair(3)
    assert verify_newton_identity(pair3, 1, "direct")
    for m in (4, 28):
        assert verify_newton_identity(pair3, m, "direct")
        assert verify_newton_identity(pair3, m, "frobenius_shortcut")
    assert not verify_newton_identity(pair3, 10, "direct")
    assert not verify_newton_identity(pair3, 10, "frobenius_shortcut")
    pair2 = build_alternative_pair(2)
    assert verify_newton_identity(pair2, 1, "direct")
    for m in (5, 17):
        assert verify_newton_identity(pair2, m, "direct")
        assert verify_newton_identity(pair2, m, "frobenius_shortcut")
    _ok(5, "alternative pairs: p=3 m in {1,4,28} (not 10), p=2 m in {1,5,17}")


def test_criterion_6_degree_formula_vs_oracle():
    checked = 0
    for p, rmax in [(3, 11), (5, 8), (2, 14), (7, 7)]:
        for r in range(2, rmax + 1):
            for s in range(1, r):
                if p ** (r - s) > 10**6:
                    continue
                report = degree_of_extension(TowerParams(p, r, s), mode="both")
                assert report.agree, (p, r, s)
                checked += 1
    assert checked == 55 + 28 + 91 + 21
    # the worked instances of the closed forms
    assert degree_of_extension(TowerParams(3, 3, 1)).formula_value == 2  # (3^1+1)/2
    assert degree_of_extension(TowerParams(3, 2, 1)).formula_value == 1
    assert degree_of_extension(TowerParams(2, 4, 2)).formula_value == 2  # 2^(2-1)
    _ok(6, "degree formula == counting oracle on the full grid")


def test_criterion_7_two_generator_degrees():
    assert two_generator_degree(3, 2) == 3
    assert two_generator_degree(5, 3) == 6
    assert two_generator_degree(5, 2) == 5
    _ok(7, "two-generator degrees (3,2)->3, (5,3)->6, (5,2)->5")


def test_criterion_8_derivative_and_gradient_identities():
    for field in (Q, make_field(7, 1)):
        for k in range(3, 11):
            T = t_poly(ExponentPair(k, 1, field))
            summed = (
                partial_derivative(T, "X")
                + partial_derivative(T, "Y")
                + partial_derivative(T, "Z")
            )
            assert summed == k * t_poly(ExponentPair(k - 1, 1, field)), (field, k)
    F7 = make_field(7, 1)
    for phi, psi in [(2, 4), (4, 2)]:
        assert grad_eval_identity(4, F7.from_int(phi), F7.from_int(psi))
    _ok(8, "sum-of-partials identity (k=3..10) and evaluated gradient at k=4")


def test_criterion_9_inversion_duality():
    for A, d in [(5, 1), (7, 1), (8, 2), (9, 3)]:
        lhs = inverted_transform(t_poly(ExponentPair(A, A - d)), A - 2 * d)
        assert lhs == t_poly(ExponentPair(A, d)), (A, d)
    _ok(9, "reflection duality for (A,d) in {(5,1),(7,1),(8,2),(9,3)}")


def test_criterion_10_singularity_probe(singular_point_probe):
    F2 = make_field(2, 1)
    report = singular_point_probe(t_poly(ExponentPair(5, 1, F2)), (1, 1, 1))
    assert report.singular
    # recorded as data, not asserted: the p=3, r=1 probe contradicts the
    # blanket singularity expectation (the partials are 1 mod 3 at (1,1,1))
    F3 = make_field(3, 1)
    data = singular_point_probe(t_poly(ExponentPair(4, 1, F3)), (1, 1, 1))
    print(
        f"note: (4,1) quotient over F_3 at (1,1,1): value vanishes = "
        f"{data.vanishing[0]}, partials vanish = {data.vanishing[1:]}, "
        f"singular = {data.singular} (recorded as data)"
    )
    _ok(10, "singular at (1,1,1) over F_2; F_3 probe recorded as data")
