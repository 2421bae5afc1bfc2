import copy
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schurlab import ffield, modp
from schurlab.ffield import (
    RATIONALS,
    TABLE_CEILING,
    FFElement,
    FieldMismatchError,
    FieldSpec,
    FieldTooSmallError,
    _schoolbook_mul,
    _schoolbook_pow,
    _zech_lists,
    frobenius,
    make_field,
    multiplicative_generator,
    prime_factors,
    unity_degree,
)
from schurlab.modp import (
    CeilingError,
    _frobenius_coprime,
    _is_irreducible,
    _poly_powmod,
    _rank_mod_p,
    check_ceiling,
    check_field,
    is_prime,
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


def _has_root_by_scan(f, p):
    """Oracle: whether f (coefficients low degree first) vanishes at some
    point of F_p, by Horner's rule at every point."""
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return True
    return False


def _monic(p, r):
    """Every monic polynomial of degree r over F_p, coefficients low degree first."""
    return [list(tail) + [1] for tail in itertools.product(range(p), repeat=r)]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_root_prefilter_matches_the_point_scan(p):
    # gcd(x^p - x, f) != 1 exactly when f has a root in F_p
    for r in (2, 3, 4):
        for f in _monic(p, r):
            xp = _poly_powmod([0, 1], p, f, p)
            assert _frobenius_coprime(xp, f, p) is not _has_root_by_scan(f, p), (p, f)


def _reducible_by_products(p, r):
    """Oracle: every monic reducible polynomial of degree r over F_p, as the
    products of two monic polynomials of lower degree."""
    out = set()
    for d in range(1, r // 2 + 1):
        for g in _monic(p, d):
            for h in _monic(p, r - d):
                prod = [0] * (r + 1)
                for i, gi in enumerate(g):
                    for j, hj in enumerate(h):
                        prod[i + j] = (prod[i + j] + gi * hj) % p
                out.add(tuple(prod))
    return out


def _rabin_irreducible(f, p):
    """Oracle: Rabin's test for a monic f of degree r >= 1 over F_p.  For
    r >= 2, f is irreducible exactly when x^(p^r) = x mod f and
    gcd(x^(p^(r/q)) - x, f) = 1 for every prime q dividing r; the powers
    x^(p^k) come from one chain of r p-th powers, whose first link
    refuses every f with a root in F_p."""
    r = len(f) - 1
    if r == 1:
        return True
    powers = [[0, 1], _poly_powmod([0, 1], p, f, p)]  # powers[k] = x^(p^k) mod f
    if not _frobenius_coprime(powers[1], f, p):
        return False
    for _ in range(r - 1):
        powers.append(_poly_powmod(powers[-1], p, f, p))
    if powers[r] != [0, 1]:
        return False
    return all(_frobenius_coprime(powers[r // q], f, p) for q in prime_factors(r))


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4),
                                 (5, 2), (5, 3), (5, 4), (7, 3)])
def test_modulus_is_the_first_irreducible_candidate(p, r):
    # candidates run with the constant coefficient most significant, from c0 = 1
    reducible = _reducible_by_products(p, r)
    for f in _monic(p, r):
        assert _is_irreducible(f, p) is _rabin_irreducible(f, p) is (tuple(f) not in reducible), f
    ordered = sorted(tuple(f) for f in _monic(p, r) if f[0])
    first = next(f for f in ordered if f not in reducible)
    assert make_field(p, r).modulus == first


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_ben_or_and_rabin_choose_the_same_modulus(p, monkeypatch):
    chosen = {r: make_field(p, r).modulus for r in range(1, 30)}
    monkeypatch.setattr(modp, "_is_irreducible", _rabin_irreducible)
    assert {r: modp.irreducible_modulus.__wrapped__(p, r) for r in range(1, 30)} == chosen


def _kernel_size(rows, p, n):
    """The number of v in F_p^n with every row . v = 0 mod p, by enumeration."""
    return sum(
        all(sum(a * b for a, b in zip(row, v)) % p == 0 for row in rows)
        for v in itertools.product(range(p), repeat=n)
    )


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_mod_p_matches_the_kernel_size(p):
    # entries run over [-2p, 2p], so many lie outside [0, p); some rows are
    # zero and some are combinations of earlier rows plus multiples of p
    rng = random.Random(p)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        rows = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.2:
                row = [0] * n
            elif kind < 0.5 and rows:
                a, b = rng.choice(rows), rng.choice(rows)
                k = rng.randrange(p)
                row = [x + k * y + p * rng.randint(-1, 1) for x, y in zip(a, b)]
            else:
                row = [rng.randint(-2 * p, 2 * p) for _ in range(n)]
            rows.append(row)
        before = copy.deepcopy(rows)
        rank = _rank_mod_p(rows, p)
        assert rows == before
        assert _kernel_size(rows, p, n) == p ** (n - rank), (rows, rank)
    assert _rank_mod_p([], p) == 0
    assert _rank_mod_p([[0, 0], [p, -p]], p) == 0
    assert _rank_mod_p([[p + 1, 0, 0, 0]] * 4, p) == 1


def test_modulus_search_of_a_large_prime_is_lazy():
    # walking the candidates holds one at a time, and a root test at a
    # large p costs O(log p) products
    assert make_field(1000000007, 2).modulus == (1, 0, 1)
    assert make_field(1000003, 2).modulus == (1, 0, 1)


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


def test_strong_probable_prime_test_matches_the_factorization():
    for n in range(2 * 10**5):
        assert is_prime(n) == (n >= 2 and prime_factors(n) == [n]), n


@pytest.mark.parametrize(
    "n",
    [
        561, 1105, 1729, 2465, 2821, 6601, 8911,  # Carmichael numbers
        3215031751,  # least strong pseudoprime to the bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to every prime base up to 31
        399165290221 * 798330580441,  # strong pseudoprime to every prime base up to 37
    ],
)
def test_prime_test_refuses_carmichael_numbers_and_strong_pseudoprimes(n):
    assert not is_prime(n)


@pytest.mark.parametrize("n", [10**14 + 31, 2**61 - 1, 10**18 + 3])
def test_prime_test_decides_large_primes(n):
    assert is_prime(n)


def test_prime_test_and_prime_factors_match_division_by_every_smaller_number():
    primes = [n for n in range(2, 1000) if all(n % d for d in range(2, n))]
    for n in range(-5, 1000):
        assert is_prime(n) == (n in primes), n
        if n >= 1:
            assert prime_factors(n) == [q for q in primes if n % q == 0], n


def test_check_field_names_exactly_the_fields_and_builds_none():
    built = make_field.cache_info().currsize
    for p in range(-3, 30):
        for r in (-1, 0, 1, 2, 80):
            if not is_prime(p):
                message = f"characteristic must be prime, got {p}"
            elif r < 1:
                message = f"extension degree must be >= 1, got {r}"
            else:
                check_field(p, r)
                continue
            with pytest.raises(ValueError) as exc:
                check_field(p, r)
            assert type(exc.value) is ValueError and str(exc.value) == message
    assert make_field.cache_info().currsize == built


class _NoBases:
    """Stands for modp._SPRP_BASES where no strong-probable-prime test may run."""

    def __iter__(self):
        raise AssertionError("a strong-probable-prime test past the bound")


@pytest.mark.parametrize("n", [modp._SPRP_BOUND, 2**89 - 1, 2**127 - 1])
def test_prime_test_refuses_at_once_where_it_does_not_decide(monkeypatch, n):
    monkeypatch.setattr(modp, "_SPRP_BASES", _NoBases())
    with pytest.raises(ValueError) as exc:
        is_prime(n)
    assert str(exc.value) == f"primality is decided only below {modp._SPRP_BOUND}, got {n}"
    with pytest.raises(AssertionError, match="strong-probable-prime test"):
        is_prime(modp._SPRP_BOUND - 2)  # the guard fires wherever the test runs


def test_check_field_refuses_a_huge_characteristic_before_any_primality_work(monkeypatch):
    below = next(n for n in range(modp._SPRP_BOUND - 1, 0, -1) if is_prime(n))

    def refuse(n):
        raise AssertionError("primality work on a characteristic past the bound")

    monkeypatch.setattr(modp, "is_prime", refuse)
    monkeypatch.setattr(modp, "_SPRP_BASES", _NoBases())
    for p in (modp._SPRP_BOUND, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError) as exc:
            check_field(p, 3)
        assert str(exc.value) == f"characteristic must be below {modp._SPRP_BOUND}, got {p}"
    monkeypatch.undo()
    check_field(below, 3)


def test_ffield_binds_only_the_modp_names_it_calls():
    # the names both modules bind, but for the two imports they share
    shared = {name for name in vars(ffield).keys() & vars(modp).keys()
              if not name.startswith("__")} - {"annotations", "functools"}
    assert shared == {"_poly_mod", "_poly_mul", "_poly_powmod", "irreducible_modulus"}
    assert all(vars(ffield)[name] is vars(modp)[name] for name in shared)


def test_the_ceiling_names_of_the_package_load_no_field_layer(fresh_python):
    # sys.modules, not -X importtime: a name the package resolves on lookup
    # does not always show in that log
    code = ("import sys\n"
            "from schurlab import CeilingError, DESK_CEILING\n"
            "from schurlab import modp\n"
            "assert (CeilingError, DESK_CEILING) == (modp.CeilingError, modp.DESK_CEILING)\n"
            "print(sorted({'schurlab.ffield', 'fractions', 'dataclasses'} & set(sys.modules)))\n")
    proc = fresh_python("-c", code)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


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


def test_roots_of_unity_trivial():
    F7 = make_field(7, 1)
    assert F7.roots_of_unity(1) == [F7.one()]


def test_roots_of_unity_f7():
    # oracle: full scan of the field
    F7 = make_field(7, 1)
    for n, expected in [(2, {1, 6}), (3, {1, 2, 4}), (6, {1, 2, 3, 4, 5, 6})]:
        scan = {x for x in F7.elements() if x**n == F7.one()}
        assert scan == {F7.from_int(v) for v in expected}
        got = F7.roots_of_unity(n)
        assert set(got) == scan
        assert got == sorted(got, key=lambda e: e.coeffs)
        assert len(got) == n


def test_roots_of_unity_refuses_p_dividing_n():
    F7 = make_field(7, 1)
    with pytest.raises(ValueError, match="repeated"):
        F7.roots_of_unity(7)


def test_roots_of_unity_reports_required_degree():
    F7 = make_field(7, 1)
    with pytest.raises(FieldTooSmallError) as exc:
        F7.roots_of_unity(4)
    assert exc.value.required_degree == 2
    # and the reported level does contain them
    F49 = make_field(7, 2)
    assert len(F49.roots_of_unity(4)) == 4


def test_unity_degree_is_the_order_of_p_mod_n():
    for p in (2, 3, 5, 7):
        for n in range(1, 60):
            if n % p:
                want = next(k for k in range(1, n + 1) if (p**k - 1) % n == 0)
                assert unity_degree(p, n) == want
    with pytest.raises(ValueError):
        unity_degree(3, 6)


def test_check_ceiling_matches_the_full_power():
    for p in (2, 3, 7):
        for k in range(-1, 30):
            for ceiling in (2, 7, 8, 9, 1000, 1024, 10**6, 2**20 - 1, 2**20):
                over = p**k > ceiling
                try:
                    check_ceiling(p, k, ceiling)
                except CeilingError:
                    assert over, (p, k, ceiling)
                else:
                    assert not over, (p, k, ceiling)


def test_roots_of_unity_form_cyclic_group():
    F9 = make_field(3, 2)
    roots = F9.roots_of_unity(4)
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


@pytest.mark.parametrize(
    "p, r, orders",
    # F_49 computes on tables, F_{5^20} without; 5^20 - 1 has the prime factor 9161
    [(7, 2, (1, 2, 3, 4, 8, 16, 48)), (5, 20, (1, 2, 3, 4, 11, 13, 41, 71))],
)
def test_roots_of_unity_factor_their_order_not_q_minus_1(monkeypatch, p, r, orders):
    spec = make_field(p, r)
    spec.one() * spec.one()  # builds the tables, if the field has any, first
    seen = []

    def recording(n):
        seen.append(n)
        return prime_factors(n)

    monkeypatch.setattr(ffield, "prime_factors", recording)
    for n in orders:
        seen.clear()
        roots = spec.roots_of_unity(n)
        assert len(set(roots)) == n and all(z**n == spec.one() for z in roots)
        assert seen == [n]


def test_roots_of_unity_are_the_powers_of_the_generator():
    # every field with q <= 2^12 and every order n | q - 1; each field's tables
    # are dropped after it, so that 604 fields do not hold theirs at once
    fields = [(p, r) for p in range(2, 2**12) if is_prime(p) for r in range(1, 13) if p**r <= 2**12]
    assert len(fields) == 604
    for p, r in fields:
        spec = make_field(p, r)
        q1 = spec.order() - 1
        g = multiplicative_generator(spec)
        powers = [spec.one()]
        for _ in range(q1 - 1):
            powers.append(powers[-1] * g)
        for n in range(1, q1 + 1):
            if q1 % n == 0:
                want = sorted(powers[:: q1 // n], key=lambda z: z.code)
                assert spec.roots_of_unity(n) == want, (p, r, n)
        vars(spec).pop("_tables")


def _reference_generator(spec):
    """Oracle: the first code x with x^((q-1)/ell) != 1 for every prime ell | q - 1."""
    q1 = spec.order() - 1
    checks = [q1 // ell for ell in prime_factors(q1)] if q1 > 1 else []
    one = spec._decode(spec.order() // spec.p)
    for code in range(1, spec.order()):
        x = spec._decode(code)
        if all(_schoolbook_pow(spec, x, e) != one for e in checks):
            return FFElement._of(spec, code)
    raise AssertionError("no generator")


# every field with p < 60 and p^r <= 2*10^5, then a few whose first p - 1
# codes c*x^(r-1) hold no generator
_GENERATOR_FIELDS = [
    (p, r) for p in range(2, 60) if is_prime(p) for r in range(1, 30) if p**r <= 2 * 10**5
] + [(61, 2), (61, 3), (67, 4), (97, 3), (1009, 2)]


def test_multiplicative_generator_is_the_first_code_the_plain_scan_finds():
    for p, r in _GENERATOR_FIELDS:
        spec = make_field(p, r)
        assert multiplicative_generator(spec) == _reference_generator(spec), (p, r)


@pytest.mark.parametrize("p, r", [(2, 4), (3, 3), (5, 2), (5, 3), (7, 3)])
def test_multiplicative_generator_matches_the_plain_scan_under_every_modulus(p, r):
    # the chosen modulus has constant term 1 where it can, so N(x^(r-1)) = 1;
    # other moduli reach codes c*y with c > 1 whose class passes its checks
    for low in itertools.product(range(p), repeat=r):
        modulus = low + (1,)
        if low[0] and _is_irreducible(list(modulus), p):
            spec = FieldSpec(p, r, modulus)
            assert multiplicative_generator(spec) == _reference_generator(spec), modulus


def test_multiplicative_generator_takes_field_powers_per_class_not_per_code(monkeypatch):
    spec = make_field(10007, 2)
    # the first 10006 codes, c*x, hold no generator
    assert _reference_generator(spec).code == 10009
    calls = []

    def counting(*args):
        calls.append(args)
        return _schoolbook_pow(*args)

    monkeypatch.setattr(ffield, "_schoolbook_pow", counting)
    assert multiplicative_generator.__wrapped__(spec).code == 10009
    assert len(calls) <= 20


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


def test_element_operators_coerce_through_their_spec():
    F9, F3 = make_field(3, 2), make_field(3, 1)
    x = F9.from_int(2)
    with pytest.raises(FieldMismatchError) as exc:
        x * F3.one()
    assert str(exc.value) == f"coefficient {F3.one()} does not belong to {F9}"
    assert x + 1 == F9.zero() and 1 / x == x
    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__"):
        assert getattr(x, op)(Fraction(1, 2)) is NotImplemented


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


# ---------------------------------------------------------------------------
# The table kernel against the coordinate schoolbook.  For fields up to
# TABLE_CEILING every operation below is a table lookup; the oracle is
# _schoolbook_mul and _schoolbook_pow on the decoded coordinates, with
# coordinate-wise arithmetic mod p for sums.


def _fields_up_to(bound):
    return [(p, r) for p in range(2, bound + 1) if is_prime(p) for r in range(1, 20) if p**r <= bound]


def _ids(fields):
    return [f"{p}^{r}" for p, r in fields]


_SMALL = _fields_up_to(64)
_MEDIUM = [pr for pr in _fields_up_to(729) if pr not in _SMALL]


@pytest.mark.parametrize("p,r", _SMALL, ids=_ids(_SMALL))
def test_table_kernel_matches_schoolbook_on_all_pairs(p, r):
    spec = make_field(p, r)
    elems = list(spec.elements())
    interned = spec._tables.elems
    for x in elems:
        xc = x.coeffs
        for y in elems:
            yc = y.coeffs
            prod, total, diff = x * y, x + y, x - y
            assert prod.coeffs == _schoolbook_mul(spec, xc, yc)
            assert total.coeffs == tuple((a + b) % p for a, b in zip(xc, yc))
            assert diff.coeffs == tuple((a - b) % p for a, b in zip(xc, yc))
            assert prod is interned[prod.code]
            if x and y:  # a zero operand returns the other operand itself
                assert total is interned[total.code] and diff is interned[diff.code]
            if y:
                assert _schoolbook_mul(spec, (x / y).coeffs, yc) == xc
            else:
                with pytest.raises(ZeroDivisionError):
                    x / y


@pytest.mark.parametrize("p,r", _SMALL, ids=_ids(_SMALL))
def test_table_kernel_matches_schoolbook_on_every_element(p, r):
    spec = make_field(p, r)
    q = spec.order()
    one = spec.one().coeffs
    for x in spec.elements():
        xc = x.coeffs
        assert (-x).coeffs == tuple(-a % p for a in xc)
        if x:
            inv = _schoolbook_pow(spec, xc, q - 2)
            assert _schoolbook_mul(spec, inv, xc) == one
            assert x.inverse().coeffs == inv
        power = one
        for e in range(p + 2):
            assert (x**e).coeffs == power
            power = _schoolbook_mul(spec, power, xc)
        power = one
        for e in range(-1, -4, -1):
            if x:
                power = _schoolbook_mul(spec, power, inv)
                assert (x**e).coeffs == power
            else:
                with pytest.raises(ZeroDivisionError):
                    x**e
        step = xc
        for k in range(2 * r + 1):
            assert frobenius(x, k).coeffs == step
            step = _schoolbook_pow(spec, step, p)


@settings(max_examples=15, deadline=None)
@given(st.randoms(use_true_random=False))
def test_table_kernel_matches_schoolbook_sampled(rng):
    # every example draws one pair in each field, so each field gets them all
    for p, r in _MEDIUM:
        spec = make_field(p, r)
        xc, yc = (tuple(rng.randrange(p) for _ in range(r)) for _ in "xy")
        x, y = spec.element(xc), spec.element(yc)
        assert (x * y).coeffs == _schoolbook_mul(spec, xc, yc)
        assert (x + y).coeffs == tuple((a + b) % p for a, b in zip(xc, yc))
        assert (x - y).coeffs == tuple((a - b) % p for a, b in zip(xc, yc))
        if y:
            assert _schoolbook_mul(spec, (x / y).coeffs, yc) == xc
        k = rng.randrange(r + 1)
        assert frobenius(x, k).coeffs == _schoolbook_pow(spec, xc, p**k)


@pytest.mark.parametrize("p,r", [(2, 4), (3, 3), (5, 2), (7, 1)])
def test_codes_keep_coordinate_order_and_tokens(p, r):
    spec = make_field(p, r)
    elems = list(spec.elements())
    assert [x.coeffs for x in elems] == list(itertools.product(range(p), repeat=r))
    assert [x.code for x in elems] == list(range(p**r))
    for x, coords in zip(elems, itertools.product(range(p), repeat=r)):
        assert x.token() == f"{p}^{r}:[{','.join(map(str, coords))}]"
        assert FFElement(spec, coords) == x == spec.parse(x.token())


_BIG = make_field(2, 18)


def _bits(coeffs) -> int:
    """An F_2[x] polynomial, low degree first, as the int with those bits."""
    return sum(c << i for i, c in enumerate(coeffs))


def _gf2_mul(a: int, b: int) -> int:
    """Oracle for F_{2^18}: the carry-less product of two bit masks, reduced
    by the modulus as a bit mask from the top bit down."""
    prod = 0
    while b:
        if b & 1:
            prod ^= a
        a, b = a << 1, b >> 1
    modulus = _bits(_BIG.modulus)
    for k in range(prod.bit_length() - 1, _BIG.r - 1, -1):
        if prod >> k & 1:
            prod ^= modulus << (k - _BIG.r)
    return prod


@settings(max_examples=30, deadline=None)
@given(st.tuples(*[st.integers(0, 1)] * 18), st.tuples(*[st.integers(0, 1)] * 18))
def test_field_above_table_ceiling_builds_no_tables(xc, yc):
    assert _BIG.order() > TABLE_CEILING
    x, y = _BIG.element(xc), _BIG.element(yc)
    one = _BIG.one()
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + one) == x * y + x
    # a zero operand returns the other operand itself, as with tables
    zero = _BIG.zero()
    assert zero + x is x and (not x or x + zero is x) and x * one == x
    assert _bits((x * y).coeffs) == _gf2_mul(_bits(xc), _bits(yc))
    assert x ** _BIG.order() == x
    # x^(2^17) by square and multiply, squared by the oracle, is x again
    root = _bits((x ** 2**17).coeffs)
    assert _gf2_mul(root, root) == _bits(xc)
    assert (x - y) + y == x and -x == x
    assert frobenius(x * y, 3) == frobenius(x, 3) * frobenius(y, 3)
    if x:
        assert x * x.inverse() == one and x**-2 * x**2 == one
    assert vars(_BIG)["_tables"] is None


def test_zech_lists_above_table_ceiling_match_schoolbook():
    spec = make_field(3, 11)
    assert spec.order() > TABLE_CEILING
    powers, log, zech = _zech_lists(spec)
    assert log[0] is None and all(log[code] == k for k, code in enumerate(powers))
    g = multiplicative_generator(spec).coeffs
    zero = (0,) * spec.r
    for k in random.Random(0).sample(range(spec.order() - 1), 200):
        power = _schoolbook_pow(spec, g, k)
        assert spec._encode(power) == powers[k]
        plus_one = ((power[0] + 1) % spec.p,) + power[1:]
        if zech[k] is None:
            assert plus_one == zero
        else:
            assert plus_one == _schoolbook_pow(spec, g, zech[k])
    # built for the caller, the same on every call, and not kept on the spec
    assert _zech_lists(spec) == (powers, log, zech)
    assert vars(spec).get("_tables") is None


def test_tables_below_table_ceiling_hold_the_log_and_doubled_zech_lists():
    spec = make_field(3, 5)
    _, log, zech = _zech_lists(spec)
    assert zech[: spec.order() - 1] * 2 == zech
    assert spec._tables.log == log and spec._tables.zech == zech


def test_equal_codes_of_different_moduli_never_mix():
    A, B = FieldSpec(3, 2, (1, 0, 1)), FieldSpec(3, 2, (2, 1, 1))
    a, b = A.element((1, 2)), B.element((1, 2))
    assert a.code == b.code and a != b
    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
               "__truediv__", "__rtruediv__"):
        with pytest.raises(FieldMismatchError):
            getattr(a, op)(b)
        with pytest.raises(FieldMismatchError):
            getattr(b, op)(a)


@pytest.mark.parametrize("spec", [make_field(3, 2), _BIG], ids=["F9", "F2^18"])
def test_zero_powers_and_inverse(spec):
    zero = spec.zero()
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        zero**-1
    with pytest.raises(ZeroDivisionError):
        spec.one() / zero
    assert zero**0 == spec.one()
    assert zero**5 == zero


_BIG_PRIMES = [make_field(p, 1) for p in (1000003, 2**31 - 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_BIG_PRIMES), st.integers(0, 2**31), st.integers(0, 2**31),
       st.integers(-(2**40), 2**40))
def test_prime_field_above_table_ceiling_computes_on_its_codes(spec, a, b, e):
    # the schoolbook route on decoded coordinates is the oracle; the
    # operations themselves call neither it nor a decode or an encode
    p = spec.p
    assert p > TABLE_CEILING
    x, y = spec.from_int(a), spec.from_int(b)
    expected = {
        "add": (a + b) % p,
        "sub": (a - b) % p,
        "neg": -a % p,
        "mul": spec._encode(_schoolbook_mul(spec, x.coeffs, y.coeffs)),
    }
    if a % p:
        expected["pow"] = spec._encode(_schoolbook_pow(spec, x.coeffs, e % (p - 1)))
    elif e >= 0:
        expected["pow"] = 1 if e == 0 else 0

    def refuse(*args):
        raise AssertionError("the prime-field route decoded, encoded or multiplied coordinates")

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_schoolbook_mul", "_schoolbook_pow"):
            patch.setattr(ffield, name, refuse)
        for name in ("_decode", "_encode"):
            patch.setattr(FieldSpec, name, refuse)
        got = {"add": x + y, "sub": x - y, "neg": -x, "mul": x * y}
        if "pow" in expected:
            got["pow"] = x**e
    assert {k: v.code for k, v in got.items()} == expected
    zero = spec.zero()
    assert zero + x is x and (not a % p or x + zero is x)
    assert vars(spec)["_tables"] is None


def test_element_refusals():
    F9 = make_field(3, 2)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        F9.roots_of_unity(0)
    with pytest.raises(ValueError, match="malformed element token"):
        F9.parse("3^2:1,2")
    with pytest.raises(ValueError, match="expected 2 coordinates, got 1"):
        FFElement(F9, (1,))
    with pytest.raises(ValueError, match="need p >= 2, got 1"):
        modp.p_power_exponent(8, 1)
    assert RATIONALS.roots_of_unity(2) == [Fraction(1), Fraction(-1)]
