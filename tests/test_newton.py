import math
import pickle
from collections import Counter
from itertools import accumulate

import pytest

from schurlab import ffield, modp, newton
from schurlab.ffield import frobenius, make_field
from schurlab.modp import CeilingError
from schurlab.mpoly import LinearForm, MultiPoly, substitute
from schurlab.newton import (
    DIRECT_EXPANSION_CAP,
    TowerParams,
    applicable_modes,
    brute_count_alternatives,
    build_alternative_pair,
    degree_of_extension,
    find_irreducible_eta,
    two_generator_degree,
    verify_newton_identity,
)
from schurlab.vschur import ExponentPair, t_poly


def test_newton_poly_basics():
    # verify_newton_identity compares z^m + w^m with X^m + Y^m, and
    # z + w = X + Y for every alternative pair
    for p in (2, 3, 5):
        assert verify_newton_identity(build_alternative_pair(p), 1, "direct")
    with pytest.raises(ValueError, match="need m >= 1, got 0"):
        verify_newton_identity(build_alternative_pair(3), 0, "direct")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_power_sum_frobenius_relation(p):
    spec = make_field(p, 1)
    X, Y, _ = MultiPoly.gens(spec)
    for m in range(1, 21):
        assert X ** (p * m) + Y ** (p * m) == (X**m + Y**m) ** p


def test_two_generator_degree_values():
    assert two_generator_degree(3, 2) == 3
    assert two_generator_degree(5, 3) == 6
    assert two_generator_degree(5, 2) == 5
    assert two_generator_degree(2, 1) == 1


@pytest.mark.parametrize(
    "call, p",
    [
        (lambda: make_field(4, 1), 4),
        (lambda: TowerParams(4, 3, 1), 4),
        (lambda: two_generator_degree(3, 2, 4), 4),
        (lambda: find_irreducible_eta(9), 9),
        (lambda: build_alternative_pair(9, eta=1), 9),
        (lambda: modp.check_ceiling(4, 80, 10**6), 4),
    ],
    ids=["make_field", "TowerParams", "two_generator_degree", "find_irreducible_eta",
         "build_alternative_pair", "check_ceiling"],
)
def test_a_non_field_is_refused_as_one_before_any_ceiling(call, p):
    with pytest.raises(ValueError) as exc:
        call()
    assert not isinstance(exc.value, CeilingError)
    assert str(exc.value) == f"characteristic must be prime, got {p}"


def test_two_generator_degree_refusals():
    with pytest.raises(ValueError):
        two_generator_degree(4, 2)  # not coprime
    with pytest.raises(ValueError):
        two_generator_degree(3, 2, p=3)  # p divides a
    with pytest.raises(ValueError):
        two_generator_degree(2, 3)  # order


def test_find_irreducible_eta_frozen_values():
    # hand derivation: eta works iff eta^2 - eta is a non-residue mod p;
    # squares mod 3 = {0,1}, mod 5 = {0,1,4}, mod 7 = {0,1,2,4}
    assert find_irreducible_eta(3) == 2
    assert find_irreducible_eta(5) == 2
    assert find_irreducible_eta(7) == 3


def test_find_irreducible_eta_discriminant_oracle():
    for p in (3, 5, 7, 11, 13):
        eta = find_irreducible_eta(p)
        squares = {(x * x) % p for x in range(p)}
        assert (eta * eta - eta) % p not in squares
        for smaller in range(eta):
            assert (smaller * smaller - smaller) % p in squares


def test_find_irreducible_eta_refuses_two():
    with pytest.raises(ValueError):
        find_irreducible_eta(2)


def test_build_alternative_pair_p3():
    pair = build_alternative_pair(3)
    F9 = pair.ambient
    assert F9.p == 3 and F9.r == 2
    # first root of the eta = 2 quadratic, by coordinate order: 2 + i
    assert pair.alpha == F9.element((2, 1))
    alpha, beta = pair.alpha, frobenius(pair.alpha, 1)
    assert 2 * alpha * beta == alpha + beta == F9.from_int(4)
    assert pair.z.c_x + pair.w.c_x == F9.one()
    assert pair.z.c_y + pair.w.c_y == F9.one()


def test_build_alternative_pair_p2():
    pair = build_alternative_pair(2)
    F4 = pair.ambient
    assert pair.alpha == F4.element((0, 1))
    assert pair.alpha**3 == F4.one() and pair.alpha != F4.one()
    assert pair.z.c_x + pair.z.c_y == F4.one()


def test_build_alternative_pair_matches_the_scan_of_the_quadratic_extension():
    # oracle: the rootless test and the first root by code, both by scanning
    for p in (n for n in range(3, 60) if modp.is_prime(n)):
        F = make_field(p, 2)
        for eta in range(p):
            rootless = all((x * x - 2 * eta * x + eta) % p for x in range(p))
            assert newton._rootless(eta, p) == rootless, (p, eta)
            if rootless:
                first = next(x for x in F.elements() if not (x * x - 2 * eta * x + eta))
                assert build_alternative_pair(p, eta).alpha == first, (p, eta)


def scanned_quadratic_root(ambient, eta):
    """The root with the smaller code of X^2 - 2*eta*X + eta, its coordinate b
    found by a scan of F_p: the oracle for Tonelli-Shanks."""
    p = ambient.p
    c0, c1, _ = ambient.modulus
    shift = c1 * pow(2, -1, p) % p
    target = (eta * eta - eta) * pow(shift * shift - c0, -1, p) % p
    b = next(b for b in range(1, p) if b * b % p == target)
    return min((ambient.element([eta + s * shift, s]) for s in (b, p - b)), key=lambda x: x.code)


def test_quadratic_root_matches_the_scan_for_every_odd_prime_below_3000():
    for p in (n for n in range(3, 3000) if modp.is_prime(n)):
        ambient = make_field(p, 2)
        eta = find_irreducible_eta(p)
        assert newton._quadratic_root(ambient, eta) == scanned_quadratic_root(ambient, eta), p


def test_square_root_is_a_root_for_every_square_and_two_adic_valuation():
    # p - 1 = 2^k * odd for k = 1, 2, 4, 5, 6, 7, 13 and 16
    for p in (3, 5, 17, 97, 193, 641, 40961, 65537):
        non_square = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        for a in {x * x % p for x in range(1, min(p, 400))}:
            b = newton._square_root(a, p, non_square)
            assert b * b % p == a, (p, a)


def test_counterexample_pair_for_a_characteristic_near_10_18():
    p = 10**18 + 3
    pair = build_alternative_pair(p)
    alpha, beta = pair.alpha, frobenius(pair.alpha, 1)
    assert 2 * alpha * beta == alpha + beta == pair.ambient.from_int(2 * find_irreducible_eta(p))


def test_build_alternative_pair_refuses_eta_at_p2():
    with pytest.raises(ValueError, match="eta applies only to odd p"):
        build_alternative_pair(2, eta=1)


def test_build_alternative_pair_rejects_reducible_eta():
    with pytest.raises(ValueError):
        build_alternative_pair(3, eta=0)  # X^2 splits
    with pytest.raises(ValueError):
        build_alternative_pair(3, eta=1)  # (X-1)^2 splits


@pytest.mark.parametrize("p", [3, 5, 7])
def test_build_alternative_pair_rejects_eta_zero(p):
    with pytest.raises(ValueError, match="has a root"):
        build_alternative_pair(p, eta=0)  # X^2 has the root 0 for every p


@pytest.mark.parametrize(
    "m, modes",
    [
        (10, ["direct", "frobenius_shortcut"]),  # 10 = 3^2 + 1
        (11, ["direct"]),
        (19684, ["frobenius_shortcut"]),  # 3^9 + 1, past DIRECT_EXPANSION_CAP
        (20000, []),
    ],
)
def test_applicable_modes_predict_the_refusals(m, modes):
    assert applicable_modes(m, 3) == modes
    pair = build_alternative_pair(3)
    for mode in ("direct", "frobenius_shortcut"):
        if mode in modes:
            verify_newton_identity(pair, m, mode)
        else:
            with pytest.raises(ValueError):  # CeilingError included
                verify_newton_identity(pair, m, mode)


def test_applicable_modes_direct_cap_is_inclusive():
    assert applicable_modes(DIRECT_EXPANSION_CAP, 3) == ["direct"]
    assert applicable_modes(DIRECT_EXPANSION_CAP + 1, 3) == []


def test_newton_identity_p3_family():
    pair = build_alternative_pair(3)
    assert verify_newton_identity(pair, 1, "direct")
    for m in (4, 28):
        assert verify_newton_identity(pair, m, "direct")
        assert verify_newton_identity(pair, m, "frobenius_shortcut")
    # even Frobenius power does not swap the conjugates: negative control
    assert not verify_newton_identity(pair, 10, "direct")
    assert not verify_newton_identity(pair, 10, "frobenius_shortcut")


@pytest.mark.parametrize("p", [5, 7])
def test_newton_identity_other_odd_primes(p):
    # odd Frobenius powers swap the conjugate roots, even ones do not
    pair = build_alternative_pair(p)
    assert verify_newton_identity(pair, 1, "direct")
    assert verify_newton_identity(pair, p + 1, "direct")
    assert verify_newton_identity(pair, p**3 + 1, "frobenius_shortcut")
    assert not verify_newton_identity(pair, p**2 + 1, "frobenius_shortcut")


def test_newton_identity_p2_family():
    pair = build_alternative_pair(2)
    assert verify_newton_identity(pair, 1, "direct")
    for m in (5, 17):
        assert verify_newton_identity(pair, m, "direct")
        assert verify_newton_identity(pair, m, "frobenius_shortcut")
    # odd powers swap the cube roots: negative control
    assert not verify_newton_identity(pair, 3, "direct")


def test_newton_identity_mode_errors():
    pair = build_alternative_pair(3)
    with pytest.raises(CeilingError):
        verify_newton_identity(pair, DIRECT_EXPANSION_CAP + 1, "direct")
    with pytest.raises(ValueError):
        verify_newton_identity(pair, 7, "frobenius_shortcut")  # 6 is not a 3-power
    with pytest.raises(ValueError):
        verify_newton_identity(pair, 1, "frobenius_shortcut")
    with pytest.raises(ValueError):
        verify_newton_identity(pair, 4, "sideways")


def enumerated_count(t):
    """Oracle for brute_count_alternatives: field arithmetic on every element."""
    spec = make_field(t.p, t.r - t.s)
    two = spec.from_int(2)
    count = 0
    for alpha in spec.elements():
        beta = frobenius(alpha, t.s)
        if two * alpha * beta == alpha + beta:
            count += 1
    return count


_ENUMERATED = [
    (p, r, s)
    for p in (2, 3, 5, 7, 11)
    for r in range(2, 13)
    for s in range(1, r)
    if p ** (r - s) <= 5000
]


@pytest.mark.parametrize("p,r,s", _ENUMERATED)
def test_brute_count_matches_the_enumerated_count(p, r, s):
    t = TowerParams(p, r, s)
    assert brute_count_alternatives(t) == enumerated_count(t)


def logarithm_count(t):
    """Oracle for brute_count_alternatives: one integer test per discrete
    logarithm.  alpha = 0 counts; for alpha = g^a, with e = p^s and
    d = a*(e-1) mod (q-1), alpha + alpha^e = g^a * (1 + g^d), so the
    condition reads zech[d] = log 2 + a*e mod (q-1), and in characteristic 2
    it reads 1 + g^d = 0."""
    spec = make_field(t.p, t.r - t.s)
    _, log, zech = ffield._zech_lists(spec)
    q1 = spec.order() - 1
    e = pow(t.p, t.s, q1)
    if t.p == 2:
        hits = sum(zech[a * (e - 1) % q1] is None for a in range(q1))
    else:
        log2 = log[spec.from_int(2).code]
        hits = sum(zech[a * (e - 1) % q1] == (log2 + a * e) % q1 for a in range(q1))
    return 1 + hits


_LOGARITHM = [
    (p, r, s)
    for p in (2, 3, 5, 7, 11, 13)
    for r in range(2, 16)
    for s in range(1, r)
    if p ** (r - s) <= 60000
]


@pytest.mark.parametrize("p,r,s", _LOGARITHM)
def test_brute_count_matches_the_logarithm_count(p, r, s):
    t = TowerParams(p, r, s)
    assert brute_count_alternatives(t) == logarithm_count(t)


def meet_in_the_middle_count(t):
    """Oracle for brute_count_alternatives: #{v : L(v) = 2}, plus 1 for odd
    p, for L(v) = v + v^(p^s) on F_{p^n}, n = r - s, counted by meeting in
    the middle.  Each v is v_H + v_L once, v_L on the first n // 2
    coordinates, so the count sums over v_H the v_L with
    L(v_H) = 2 + L(-v_L): the multiplicity of L(v_H) in a Counter of the
    2 + L(v_L), O(p^ceil(n/2) * n) int work.  A prime field (n = 1,
    L(v) = 2v) splits the residue v = h + l < p instead, h a multiple of
    m = ceil(sqrt(p)) and l < m."""
    p, n = t.p, t.r - t.s
    if n == 1:
        m = math.isqrt(p - 1) + 1
        top = (p - 1) // m * m  # the last block, which stops at p - 1
        lows, last = (Counter((2 - 2 * l) % p for l in range(k)) for k in (m, p - top))
        return sum(lows[2 * h % p] for h in range(0, top, m)) + last[2 * top % p] + (p > 2)
    spec, zero = make_field(p, n), (0,) * n
    xe = ffield._schoolbook_pow(spec, (0, 1) + zero[2:], p ** (t.s % n))
    powers = accumulate(
        range(n - 1), lambda x, _: ffield._schoolbook_mul(spec, x, xe), initial=(1,) + zero[1:]
    )
    cols = [tuple((a + (j == i)) % p for j, a in enumerate(x)) for i, x in enumerate(powers)]
    lows = Counter(_span((2 % p,) + zero[1:], cols[: n // 2], p))
    return sum(lows[u] for u in _span(zero, cols[n // 2 :], p)) + (p > 2)


def _span(start, cols, p):
    """start plus each F_p-combination of the vectors cols."""
    vectors = [start]
    for col in cols:
        vectors = [tuple((a + k * b) % p for a, b in zip(v, col)) for v in vectors for k in range(p)]
    return vectors


_MEET_IN_THE_MIDDLE = [
    (p, r, s)
    for p in (2, 3, 5, 7)
    for r in range(2, 30)
    for s in range(1, r)
    if 60000 < p ** (r - s) <= modp.DESK_CEILING
]


@pytest.mark.parametrize("p,r,s", _MEET_IN_THE_MIDDLE)
def test_brute_count_matches_the_meet_in_the_middle_count(p, r, s):
    # above the reach of logarithm_count, up to the desk ceiling
    t = TowerParams(p, r, s)
    assert brute_count_alternatives(t) == meet_in_the_middle_count(t)


@pytest.mark.parametrize("p", [n for n in range(2, 2000) if modp.is_prime(n)] + [65521, 999983])
def test_prime_field_count_matches_the_logarithm_count(p):
    # meet_in_the_middle_count splits the residue into blocks of
    # ceil(sqrt(p)); the last block stops at p - 1, and for p = 999983 a
    # block that ran on to 999999 would also count the residue 999984 - p = 1
    # a second time
    t = TowerParams(p, 3, 2)
    assert brute_count_alternatives(t) == logarithm_count(t) == meet_in_the_middle_count(t) == 2


def test_prime_field_count_far_above_the_desk_ceiling_is_a_1x1_rank():
    p = 10**10 + 19  # prime; a count residue by residue would take hours
    assert brute_count_alternatives(TowerParams(p, 2, 1), ceiling=p) == 2


def test_brute_count_builds_no_field_element_tables(monkeypatch):
    # F_{3^10} is below TABLE_CEILING, so arithmetic there would build the
    # tables; the count builds no field at all, so neither them nor the
    # integer log and Zech lists, and never looks for a generator
    def refuse(*args):
        raise AssertionError(f"a field, its tables or a generator asked for {args}")

    monkeypatch.setattr(ffield, "make_field", refuse)
    monkeypatch.setattr(ffield, "_Tables", refuse)
    monkeypatch.setattr(ffield, "_zech_lists", refuse)
    monkeypatch.setattr(ffield, "multiplicative_generator", refuse)
    assert brute_count_alternatives(TowerParams(3, 11, 1)) == 4


def fieldspec_count(t):
    """Oracle for brute_count_alternatives: the same rank, with the columns
    of L taken as coordinate vectors of the FieldSpec of F_{p^n}."""
    p, n = t.p, t.r - t.s
    spec, zero = make_field(p, n), (0,) * n
    xe = ffield._schoolbook_pow(spec, (0, 1) + zero[2:], p ** (t.s % n))
    powers = accumulate(range(n - 1), lambda x, _: ffield._schoolbook_mul(spec, x, xe),
                        initial=(1,) + zero[1:])
    cols = [[a + (j == i) for j, a in enumerate(x)] for i, x in enumerate(powers)]
    return p ** (n - modp._rank_mod_p(cols, p)) + (p > 2)


# every n = r - s up to 8, with s from 1 to 2n, so s mod n takes every value
_FIELDSPEC = [(p, s + n, s) for p in (2, 3, 5, 7) for n in range(1, 9) for s in range(1, 2 * n + 1)]


@pytest.mark.parametrize("p,r,s", _FIELDSPEC)
def test_brute_count_matches_the_fieldspec_route(p, r, s):
    t = TowerParams(p, r, s)
    assert brute_count_alternatives(t, ceiling=p ** (r - s)) == fieldspec_count(t)


@pytest.mark.parametrize(
    "p,r,s,value",
    [(3, 12, 1, 1), (3, 13, 1, 2), (2, 20, 1, 1), (5, 9, 1, 3),
     # far above the desk ceiling, with the ceiling raised to the field order
     (3, 41, 1, 2), (2, 61, 7, 1), (5, 31, 3, 3), (3, 40, 2, 1)],
)
def test_oracle_agrees_with_the_formula_above_the_table_ceiling(p, r, s, value):
    assert p ** (r - s) > ffield.TABLE_CEILING
    report = degree_of_extension(TowerParams(p, r, s), mode="both", ceiling=p ** (r - s))
    assert report.oracle_value == value and report.agree


def test_brute_count_examples():
    assert brute_count_alternatives(TowerParams(3, 2, 1)) == 2
    assert brute_count_alternatives(TowerParams(3, 3, 1)) == 4
    assert brute_count_alternatives(TowerParams(2, 4, 2)) == 4


def test_brute_count_is_even_and_at_least_two():
    for p in (2, 3, 5):
        for r in range(2, 6):
            for s in range(1, r):
                count = brute_count_alternatives(TowerParams(p, r, s))
                assert count >= 2 and count % 2 == 0


def test_brute_count_ceiling():
    with pytest.raises(CeilingError, match="exceeds the ceiling 100"):
        brute_count_alternatives(TowerParams(3, 9, 1), ceiling=100)
    with pytest.raises(CeilingError, match="exceeds the ceiling"):
        brute_count_alternatives(TowerParams(3, 10**15, 1))


def test_degree_of_extension_modes():
    report = degree_of_extension(TowerParams(3, 3, 1), mode="both")
    assert (report.formula_value, report.oracle_value, report.agree) == (2, 2, True)
    assert report.oracle_count == 4
    report = degree_of_extension(TowerParams(3, 2, 1), mode="both")
    assert (report.formula_value, report.agree) == (1, True)
    report = degree_of_extension(TowerParams(2, 4, 2), mode="both")
    assert (report.formula_value, report.agree) == (2, True)
    formula_only = degree_of_extension(TowerParams(3, 3, 1), mode="formula")
    assert formula_only.oracle_count is None and formula_only.agree is None
    oracle_only = degree_of_extension(TowerParams(3, 3, 1), mode="oracle")
    assert oracle_only.formula_value is None and oracle_only.oracle_value == 2


def test_degree_of_extension_refusals():
    with pytest.raises(ValueError):
        degree_of_extension(TowerParams(3, 2, 0))
    with pytest.raises(ValueError):
        degree_of_extension(TowerParams(3, 3, 1), mode="guess")


def test_tower_params_validation():
    with pytest.raises(ValueError):
        TowerParams(4, 2, 1)
    with pytest.raises(ValueError):
        TowerParams(3, 1, 1)
    assert TowerParams(3, 6, 4).m == 2
    assert TowerParams(p=3, s=4, r=6) == TowerParams(3, 6, 4)
    assert TowerParams(3, 6, 4)._replace(s=5) == TowerParams(3, 6, 5)
    with pytest.raises(ValueError, match=r"need r > s >= 1, got r=6, s=0"):
        TowerParams(3, 6, 4)._replace(s=0)
    with pytest.raises(ValueError, match="characteristic must be prime, got 4"):
        TowerParams._make((4, 6, 4))


@pytest.mark.parametrize("value", [
    TowerParams(3, 6, 4),
    degree_of_extension(TowerParams(3, 3, 1)),
    build_alternative_pair(3),
])
def test_records_are_immutable_and_carry_no_instance_dict(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    assert not hasattr(value, "__dict__")
    assert pickle.loads(pickle.dumps(value)) == value


def test_tower_params_needs_s_at_least_one():
    # refused when built, before the formula or the oracle runs
    with pytest.raises(ValueError, match=r"need r > s >= 1, got r=2, s=0"):
        TowerParams(3, 2, 0)


def test_degree_report_json():
    blob = degree_of_extension(TowerParams(3, 3, 1)).to_json()
    assert blob == {
        "p": 3, "r": 3, "s": 1, "m": 1,
        "formula": 2, "oracle_count": 4, "oracle": 2, "agree": True,
    }


def test_counted_alternatives_are_factors_of_the_quotient():
    # every nontrivial alpha the oracle counts gives a linear form
    # alpha*x + (1-alpha)*y annihilating the (p^(r-s), 1) quotient
    p, r, s = 3, 3, 1
    spec = make_field(p, r - s)
    T = t_poly(ExponentPair(p ** (r - s), 1, spec))
    zero, one = spec.zero(), spec.one()
    counted = []
    for alpha in spec.elements():
        beta = frobenius(alpha, s)
        if 2 * alpha * beta == alpha + beta:
            counted.append(alpha)
    assert len(counted) == brute_count_alternatives(TowerParams(p, r, s))
    nontrivial = [a for a in counted if a not in (zero, one)]
    assert nontrivial
    for alpha in nontrivial:
        image = substitute(T, "Z", LinearForm(spec, alpha, one - alpha))
        assert image.is_zero()


def test_alternative_pair_json():
    blob = build_alternative_pair(3).to_json()
    assert blob["alpha"] == "3^2:[2,1]"
    assert blob["ambient"]["p"] == 3 and blob["ambient"]["r"] == 2
