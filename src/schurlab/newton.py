"""Power sums in two variables and the counterexample family they admit.

In characteristic p, pairs of linear forms z = alpha*x + (1-alpha)*y,
w = (1-alpha)*x + alpha*y can reproduce x^m + y^m for whole families of
exponents m, which is what makes three power sums fail to generate the
full symmetric field for suitably chosen indices.  This module constructs
such pairs, checks the polynomial identities exactly (by direct expansion
or through a Frobenius shortcut that never expands huge powers), and
computes the resulting field-extension degrees twice: by closed formula
and by an exact counting oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import accumulate

from .modp import (
    DESK_CEILING,
    CeilingError,
    _poly_mod,
    _poly_mul,
    _poly_powmod,
    _rank_mod_p,
    check_ceiling,
    check_field,
    irreducible_modulus,
    p_power_exponent,
)

# The functions that build field elements import schurlab.ffield (whose
# types the annotations name), and those that build polynomials
# schurlab.mpoly, when called, so the degree formula and its counting
# oracle load neither: the oracle's count is a rank mod p over the F_p[x]
# kernel of modp.


def two_generator_degree(a: int, b: int, p: int = 0) -> int:
    """Degree of the symmetric field over the field of two power sums.

    Valid for coprime a > b >= 1 with the characteristic dividing neither:
    a*b/2 when a*b is even, (a-1)*b/2 when odd.  Out-of-hypothesis input is
    refused rather than extrapolated.
    """
    if not (a > b >= 1):
        raise ValueError(f"need a > b >= 1, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise ValueError(f"indices must be coprime, got gcd={math.gcd(a, b)}")
    if p:
        check_field(p)
        if a % p == 0 or b % p == 0:
            raise ValueError(
                f"characteristic {p} divides an index; the formula does not apply"
            )
    return a * b // 2 if (a * b) % 2 == 0 else (a - 1) * b // 2


def find_irreducible_eta(p: int) -> int:
    """Smallest eta in F_p making X^2 - 2*eta*X + eta rootless over F_p.

    Exists for every odd prime; the two roots then lie in the quadratic
    extension and are swapped by Frobenius.
    """
    if p == 2:
        raise ValueError("characteristic 2 uses a cube root of unity instead")
    check_field(p)
    for eta in range(p):
        if _rootless(eta, p):
            return eta
    raise AssertionError("unreachable: a rootless eta exists for every odd p")


def _rootless(eta: int, p: int) -> bool:
    """Whether X^2 - 2*eta*X + eta has no root in F_p (odd p), that is,
    by Euler's criterion, whether eta^2 - eta is a non-square mod p."""
    return pow(eta * eta - eta, (p - 1) // 2, p) == p - 1


class AlternativePair(namedtuple("AlternativePair", "alpha z w ambient")):
    """The pair z = alpha*x + (1-alpha)*y, w = (1-alpha)*x + alpha*y, with
    alpha an FFElement, z and w LinearForms over the FieldSpec ambient."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha.token(),
            "z": [self.z.c_x.token(), self.z.c_y.token()],
            "w": [self.w.c_x.token(), self.w.c_y.token()],
            "ambient": self.ambient.to_json(),
        }


def build_alternative_pair(p: int, eta: int | None = None) -> AlternativePair:
    """Construct the pair over F_{p^2} (odd p) or F_4 (p = 2).

    For odd p, alpha is the first root (by coordinate vector) of the
    rootless quadratic for eta, solved in coordinates by
    :func:`_quadratic_root` in O(log^2 p) products mod p; its Frobenius
    conjugate beta satisfies 2*alpha*beta = alpha + beta = 2*eta, which is
    verified here.  For p = 2, alpha is the first primitive cube root of
    unity, and an eta is refused.
    """
    from .ffield import frobenius, make_field
    from .mpoly import LinearForm

    check_field(p)  # a non-field is refused before any eta is judged
    if p == 2:
        if eta is not None:
            raise ValueError(
                "eta applies only to odd p; characteristic 2 uses a cube root of unity"
            )
        ambient = make_field(2, 2)
        alpha = next(x for x in ambient.roots_of_unity(3) if x != ambient.one())
    else:
        if eta is None:
            eta = find_irreducible_eta(p)
        if not _rootless(eta, p):
            raise ValueError(f"eta={eta} has a root mod {p}; pick a rootless eta")
        ambient = make_field(p, 2)
        alpha = _quadratic_root(ambient, eta % p)
        beta = frobenius(alpha, 1)
        if 2 * alpha * beta != alpha + beta or alpha + beta != ambient.from_int(2 * eta):
            raise ArithmeticError("conjugate-root invariant failed at construction")
    z = LinearForm(ambient, alpha, 1 - alpha)
    w = LinearForm(ambient, 1 - alpha, alpha)
    return AlternativePair(alpha=alpha, z=z, w=w, ambient=ambient)


def _quadratic_root(ambient: FieldSpec, eta: int) -> FFElement:
    """The root with the smaller code of X^2 - 2*eta*X + eta, rootless over
    F_p, in F_{p^2} = F_p[X]/(X^2 + c1*X + c0).

    alpha = a + b*X is a root exactly when a = eta + b*c1/2 and
    b^2 = (eta^2 - eta) / (c1^2/4 - c0).  Both are non-squares, so the
    quotient is a square, and b comes from Tonelli-Shanks with the
    non-square eta^2 - eta.
    """
    p = ambient.p
    c0, c1, _ = ambient.modulus
    shift = c1 * pow(2, -1, p) % p  # c1/2
    target = (eta * eta - eta) * pow(shift * shift - c0, -1, p) % p
    b = _square_root(target, p, eta * eta - eta)
    roots = [ambient.element([eta + s * shift, s]) for s in (b, p - b)]
    return min(roots, key=lambda x: x.code)


def _square_root(a: int, p: int, non_square: int) -> int:
    """A square root of the nonzero square a mod the odd prime p, by
    Tonelli-Shanks (Cohen, *A Course in Computational Algebraic Number
    Theory*, 1.5.1): O(log p) products mod p for p = 3 mod 4, O(log^2 p)
    at worst."""
    odd, m = p - 1, 0
    while odd % 2 == 0:
        odd, m = odd // 2, m + 1
    c, t, x = pow(non_square, odd, p), pow(a, odd, p), pow(a, (odd + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t  # the least i with t^(2^i) = 1; i < m
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, x = i, b * b % p, t * b * b % p, x * b % p
    return x


#: Largest exponent the direct expansion mode will take on.
DIRECT_EXPANSION_CAP = 10**4


def applicable_modes(m: int, p: int) -> list[str]:
    """The modes of verify_newton_identity that accept m in characteristic p:
    ``direct`` up to DIRECT_EXPANSION_CAP, ``frobenius_shortcut`` for
    m = p^j + 1 with j >= 1.  verify_newton_identity refuses every other."""
    modes = ["direct"] if m <= DIRECT_EXPANSION_CAP else []
    if p_power_exponent(m - 1, p):  # None (m = 1) and 0 (m = 2) have no shortcut
        modes.append("frobenius_shortcut")
    return modes


def verify_newton_identity(pair: AlternativePair, m: int, mode: str = "direct") -> bool:
    """Whether z^m + w^m equals x^m + y^m as polynomials over the ambient field.

    ``direct`` expands the powers by binary powering (CeilingError past
    DIRECT_EXPANSION_CAP); m = p^j + 1 is no power of p, so it never takes
    the Frobenius map.  ``frobenius_shortcut`` requires m = p^j + 1 and
    computes u^(p^j) * u, where u^(p^j) is the Frobenius map of
    MultiPoly.__pow__, so nothing large is ever expanded.
    """
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    if mode not in ("direct", "frobenius_shortcut"):
        raise ValueError(f"unknown mode {mode!r}")
    field = pair.ambient
    if mode not in applicable_modes(m, field.p):
        if mode == "direct":
            raise CeilingError(f"m={m} is too large to expand directly; use frobenius_shortcut")
        raise ValueError(f"shortcut mode needs m = {field.p}^j + 1 with j >= 1, got m={m}")
    from .mpoly import MultiPoly

    z, w = pair.z.as_poly(), pair.w.as_poly()
    if mode == "direct":
        lhs = z**m + w**m
    else:
        lhs = z ** (m - 1) * z + w ** (m - 1) * w
    return lhs == MultiPoly(field, {(m, 0, 0): 1, (0, m, 0): 1})


class TowerParams(namedtuple("TowerParams", "p r s")):
    """Exponent data (p, r, s) of the three indices p^r + 1, p^s + 1, 1.

    Construction refuses a p that is not prime (see modp.check_field)
    and enforces r > s >= 1, the hypotheses of both the degree formula and
    the counting oracle, so neither checks them again.
    """

    __slots__ = ()

    def __new__(cls, p: int, r: int, s: int):
        check_field(p)
        if not (r > s >= 1):
            raise ValueError(f"need r > s >= 1, got r={r}, s={s}")
        return super().__new__(cls, p, r, s)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)

    @property
    def m(self) -> int:
        return math.gcd(self.r, self.s)


class DegreeReport(namedtuple("DegreeReport", "p r s m formula_value oracle_count "
                                              "oracle_value agree")):
    """Extension degree by closed formula and/or by the counting oracle; a
    value the mode did not compute is None."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "r": self.r,
            "s": self.s,
            "m": self.m,
            "formula": self.formula_value,
            "oracle_count": self.oracle_count,
            "oracle": self.oracle_value,
            "agree": self.agree,
        }


def brute_count_alternatives(t: TowerParams, ceiling: int = DESK_CEILING) -> int:
    """Count alpha in F_{p^n}, n = r - s, with 2*alpha*alpha^(p^s) = alpha + alpha^(p^s).

    alpha = 0 counts.  Otherwise put gamma = 1/alpha: inversion commutes
    with Frobenius, so the condition reads L(gamma) = 2 for the F_p-linear
    L(v) = v + v^(p^s).  For odd p, v = 0 is no solution; for p = 2, where
    2 = 0, it is one and stands for alpha = 0.  So the count is
    #{v : L(v) = 2}, plus 1 for odd p.  Since L(1) = 1 + 1 = 2, the
    solutions are 1 + ker L, and there are p^(n - rank L) of them in every
    characteristic.  L has the columns e_i + (x^(p^(s mod n)))^i on the
    power basis of F_p[x]/(f), f = irreducible_modulus(p, n) (at n = 1 the
    single entry 2), and its rank mod p takes O(n^3) int work on int lists,
    with no field built.  The count includes the trivial alpha = 0, 1 and
    is even.
    """
    p, n = t.p, t.r - t.s
    check_ceiling(p, n, ceiling)
    f = irreducible_modulus(p, n)
    xe = _poly_powmod([0, 1], p ** (t.s % n), f, p)
    powers = accumulate(range(n - 1), lambda x, _: _poly_mod(_poly_mul(x, xe, p), f, p), initial=[1])
    cols = [[a + (j == i) for j, a in enumerate(x + [0] * (n - len(x)))] for i, x in enumerate(powers)]
    return p ** (n - _rank_mod_p(cols, p)) + (p > 2)


def degree_of_extension(
    t: TowerParams, mode: str = "both", ceiling: int = DESK_CEILING
) -> DegreeReport:
    """Degree of the symmetric field over the field of the three power sums.

    ``formula`` applies the closed forms: 2^(m-1) in characteristic 2;
    otherwise 1 when 2m does not divide r - s and (p^m + 1)/2 when it
    does.  ``oracle`` halves the exact count of
    :func:`brute_count_alternatives`, which never uses the formula.
    ``both`` computes the two independently and reports whether they agree.
    """
    if mode not in ("formula", "oracle", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    m = t.m
    formula = None
    if mode in ("formula", "both"):
        if t.p == 2:
            formula = 2 ** (m - 1)
        elif (t.r - t.s) % (2 * m) == 0:
            formula = (t.p**m + 1) // 2
        else:
            formula = 1
    count = value = None
    if mode in ("oracle", "both"):
        count = brute_count_alternatives(t, ceiling)
        if count % 2:
            raise ArithmeticError(f"odd alternative count {count}; invariant broken")
        value = count // 2
    agree = (formula == value) if mode == "both" else None
    return DegreeReport(
        p=t.p,
        r=t.r,
        s=t.s,
        m=m,
        formula_value=formula,
        oracle_count=count,
        oracle_value=value,
        agree=agree,
    )
