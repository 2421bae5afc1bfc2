"""Determinantal polynomials in three variables and their Schur identities.

The central family: for an exponent pair A > B >= 1 with d = gcd(A, B),
the determinant of the 3x3 matrix with rows (X^A, Y^A, Z^A),
(X^B, Y^B, Z^B), (1, 1, 1) is divisible by the Vandermonde determinant in
X^d, Y^d, Z^d, and the exact quotient is a symmetric polynomial: the Schur
polynomial of the partition (A/d - 2, B/d - 1, 0) evaluated at
X^d, Y^d, Z^d.  This module builds all of these exactly, over the
rationals or any finite field; the determinant is written from its closed
three-term form.

The quotient T(A, B) is built from that Schur polynomial, whose
coefficients are Gelfand-Tsetlin pattern counts, with no division; the
bialternant route, the determinant divided by the Vandermonde, stays in
:func:`schur_bialternant` as the second route the identity checks compare.
The intermediate quotient I(A, B) = R/(X^d - Y^d) is built from its closed
form too, and checked by one product against the determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ffield import RATIONALS
from .mpoly import (
    EXPONENT_CAP,
    CoeffField,
    ExponentOverflowError,
    MultiPoly,
    exact_divide,
)


@dataclass(frozen=True)
class ExponentPair:
    """The pair (A, B) with A > B >= 1, over a chosen coefficient field."""

    A: int
    B: int
    field: CoeffField = RATIONALS

    def __post_init__(self):
        if not (self.A > self.B >= 1):
            raise ValueError(f"need A > B >= 1, got A={self.A}, B={self.B}")

    @property
    def d(self) -> int:
        return math.gcd(self.A, self.B)

    @property
    def partition(self) -> "Partition3":
        d = self.d
        return Partition3((self.A // d - 2, self.B // d - 1, 0))


@dataclass(frozen=True)
class Partition3:
    """A partition with at most three parts."""

    parts: tuple[int, int, int]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(int(p) for p in self.parts))
        a, b, c = self.parts
        if not (a >= b >= c >= 0):
            raise ValueError(f"parts must be non-increasing and >= 0, got {self.parts}")


def _generalized_vandermonde(exps: tuple[int, int, int], d: int, field: CoeffField) -> MultiPoly:
    """det of the matrix with rows (X^(e*d), Y^(e*d), Z^(e*d)) for e in exps."""
    e1, e2, e3 = (e * d for e in exps)
    # every caller passes distinct exponents, so the six monomials are distinct
    return MultiPoly(field, {(e1, e2, e3): 1, (e1, e3, e2): -1, (e2, e3, e1): 1,
                             (e2, e1, e3): -1, (e3, e1, e2): 1, (e3, e2, e1): -1})


def vandermonde(d: int, field: CoeffField = RATIONALS) -> MultiPoly:
    """(X^d - Y^d)(Z^d - X^d)(Z^d - Y^d), expanded."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    return _generalized_vandermonde((2, 1, 0), d, field)


def r_poly(e: ExponentPair) -> MultiPoly:
    """The determinant for (A, B), written from its closed form

        Z^A (X^B - Y^B) - Z^B (X^A - Y^A) + X^B Y^B (X^(A-B) - Y^(A-B)),

    the cofactor expansion along the row (1, 1, 1): six distinct monomials,
    each +-1, since A > B >= 1.
    """
    return _generalized_vandermonde((e.A, e.B, 0), 1, e.field)


def i_poly(e: ExponentPair) -> MultiPoly:
    """The intermediate quotient I = R / (X^d - Y^d), built from its closed form.

    With G_n = (X^n - Y^n)/(X^d - Y^d) = sum over 0 <= k < n/d of
    X^(n-d-kd) Y^(kd), dividing the three terms of R's closed form gives

        I = Z^A G_B - Z^B G_A + X^B Y^B G_(A-B).

    The Z-powers A, B and 0 differ, so I has exactly 2A/d terms, each
    +-1, in every characteristic.  It is cross-checked in every field by
    the one product I * (X^d - Y^d) == R; a mismatch raises ArithmeticError.
    """
    A, B, d, field = e.A, e.B, e.d, e.field
    R = r_poly(e)
    one, minus_one = field.one(), field.from_int(-1)
    terms = {}
    # (n, power of Z, sign, power of X and Y in front of G_n)
    for n, z, sign, shift in ((B, A, one, 0), (A, B, minus_one, 0), (A - B, 0, one, B)):
        for k in range(0, n, d):
            terms[(shift + n - d - k, shift + k, z)] = sign
    quotient = MultiPoly._raw(field, terms)
    divisor = MultiPoly._raw(field, {(d, 0, 0): one, (0, d, 0): minus_one})
    if quotient * divisor != R:
        raise ArithmeticError(
            f"closed form of I times X^d - Y^d is not R for (A,B)=({A},{B})"
        )
    return quotient


def t_poly(e: ExponentPair) -> MultiPoly:
    """The exact quotient of the determinant by the level-d Vandermonde.

    Symmetric of total degree A + B - 3d and degree A - 2d in Z; the pair
    A = 2d gives the constant 1.

    The quotient is the Schur polynomial s_lambda(X^d, Y^d, Z^d) with
    lambda = (A/d - 2, B/d - 1, 0), and it is built from that, with no
    division: the coefficient of x^a y^b z^c in s_lambda(x, y, z) is the
    number of Gelfand-Tsetlin patterns with top row lambda = (l1, l2, l3)
    and weight (a, b, c), which with S = a + b is

        max(0, min(l1, S - l3) - max(l2, S - l2, a, b) + 1)

    (Macdonald, Symmetric Functions and Hall Polynomials, I.5 and I.7).
    Monomial (a, b, c) of s_lambda becomes (d*a, d*b, d*c) of T.
    Each count is an int, reduced into the field once per distinct value;
    a count the characteristic divides leaves no term.  The counts must
    sum to s_lambda(1, 1, 1), the Weyl dimension; a mismatch raises
    ArithmeticError.  A >= EXPONENT_CAP raises ExponentOverflowError
    before anything is enumerated, as the determinant itself would.
    """
    if e.A >= EXPONENT_CAP:
        raise ExponentOverflowError(f"exponent too large in the pair (A,B)=({e.A},{e.B})")
    field, d, partition = e.field, e.d, e.partition
    reduced = {}  # count -> its residue, or None where the residue is zero
    missing = object()
    terms = {}
    total = 0
    for mon, count in _weight_counts(partition):
        total += count
        coeff = reduced.get(count, missing)
        if coeff is missing:
            coeff = reduced[count] = field.from_int(count) or None
        if coeff is not None:
            terms[mon if d == 1 else (d * mon[0], d * mon[1], d * mon[2])] = coeff
    l1, l2, l3 = partition.parts
    dimension = (l1 - l2 + 1) * (l1 - l3 + 2) * (l2 - l3 + 1) // 2
    if total != dimension:
        raise ArithmeticError(
            f"pattern counts for (A,B)=({e.A},{e.B}) sum to {total}, "
            f"not the Weyl dimension {dimension}"
        )
    return MultiPoly._raw(field, terms)


def _weight_counts(partition: Partition3):
    """Yield ((a, b, c), count) for each weight with a Gelfand-Tsetlin count.

    A pattern has top row (l1, l2, l3), middle row (m1, m2) interlacing it
    and bottom entry a with m1 >= a >= m2; its weight is
    (a, m1 + m2 - a, |lambda| - m1 - m2).  With S = a + b fixed, m1 runs over
    max(l2, S - l2, a, b) .. min(l1, S - l3), and the loops visit exactly
    the weights where that range is not empty.
    """
    l1, l2, l3 = partition.parts
    n = l1 + l2 + l3
    for S in range(l2 + l3, l1 + l2 + 1):
        hi = min(l1, S - l3)
        lo = max(l2, S - l2)
        c = n - S
        for a in range(S - hi, hi + 1):
            b = S - a
            top = a if a > b else b
            yield (a, b, c), hi + 1 - (top if top > lo else lo)


def complete_homogeneous(k: int, field: CoeffField = RATIONALS) -> MultiPoly:
    """Sum of all monomials of total degree k in X, Y, Z."""
    if k < 0:
        raise ValueError(f"need k >= 0, got {k}")
    terms = {}
    for a in range(k + 1):
        for b in range(k - a + 1):
            terms[(a, b, k - a - b)] = 1
    return MultiPoly(field, terms)


def schur_bialternant(partition: Partition3, d: int = 1, field: CoeffField = RATIONALS) -> MultiPoly:
    """The bialternant quotient for the partition, evaluated at X^d, Y^d, Z^d."""
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    l1, l2, l3 = partition.parts
    numerator = _generalized_vandermonde((l1 + 2, l2 + 1, l3), d, field)
    return exact_divide(numerator, vandermonde(d, field))


def inverted_transform(f: MultiPoly, D: int) -> MultiPoly:
    """(XYZ)^D * f(1/X, 1/Y, 1/Z): each exponent triple reflects to D minus it."""
    out = {}
    for (a, b, c), coeff in f._terms.items():
        if a > D or b > D or c > D:
            raise ValueError(
                f"reflection bound {D} is below the degree of {f.to_text()}"
            )
        out[(D - a, D - b, D - c)] = coeff
    return MultiPoly(f.field, out)
