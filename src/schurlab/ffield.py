"""Exact arithmetic in the coefficient fields: Q and F_{p^r}.

The rationals are the singleton :data:`RATIONALS` (characteristic 0, with
:class:`fractions.Fraction` elements).  A finite field is described by a
:class:`FieldSpec` holding the characteristic ``p``, the extension degree
``r`` and a fixed monic irreducible modulus of degree ``r`` over F_p.  The
modulus is chosen deterministically: the lexicographically smallest monic
irreducible polynomial, comparing coefficient vectors low degree first.
Two specs built for the same ``(p, r)`` are therefore identical, which
keeps every downstream artifact (root orderings, factor lists, serialized
reports) reproducible.

Elements are immutable coordinate vectors in the power basis of the
modulus; all operations are pure functions.  Elements of different specs
never mix: combining them raises :class:`FieldMismatchError` instead of
guessing an embedding.

Both kinds of field answer one interface, which is all the rest of the
package uses: ``p``, ``zero()``, ``one()``, ``from_int(n)``,
``coerce(value)``, ``token(c)``/``parse(token)`` and ``roots_of_unity(n)``.
Elements are tested for zero by their truthiness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

#: Largest field size for which exhaustive enumeration is considered fine.
DESK_CEILING = 10**6


class FieldMismatchError(ValueError):
    """Two operands belong to different fields."""


class FieldTooSmallError(ValueError):
    """The field does not contain the requested roots of unity.

    ``required_degree`` is the minimal extension degree over F_p that does.
    """

    def __init__(self, message: str, required_degree: int | None = None):
        super().__init__(message)
        self.required_degree = required_degree


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over F_p.  Coefficient lists are low degree
# first; the zero polynomial is the empty list.

def _trim(v: list[int]) -> list[int]:
    while v and v[-1] == 0:
        v.pop()
    return v


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f must be monic
    a = list(a)
    df = len(f) - 1
    while len(a) - 1 >= df and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - df
            for i, fi in enumerate(f):
                a[shift + i] = (a[shift + i] - c * fi) % p
        a.pop()
    return _trim(a)


def _poly_sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i in range(n):
        ai = a[i] if i < len(a) else 0
        bi = b[i] if i < len(b) else 0
        out[i] = (ai - bi) % p
    return _trim(out)


def _poly_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul(result, base, p), f, p)
        base = _poly_mod(_poly_mul(base, base, p), f, p)
        e >>= 1
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _is_irreducible(f: list[int], p: int) -> bool:
    """Rabin's test for a monic polynomial of degree >= 1 over F_p."""
    r = len(f) - 1
    if r == 1:
        return True
    # cheap pre-filter: a root in F_p means a linear factor
    for a in range(p):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        if acc == 0:
            return False
    x = [0, 1]
    if _poly_sub(_poly_powmod(x, p**r, f, p), _poly_mod(x, f, p), p):
        return False
    for q in prime_factors(r):
        h = _poly_sub(_poly_powmod(x, p ** (r // q), f, p), _poly_mod(x, f, p), p)
        g = _poly_gcd(h, list(f), p)
        if len(g) - 1 != 0:
            return False
    return True


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """The field F_{p^r} with a fixed monic irreducible modulus.

    ``modulus`` is the coefficient tuple, low degree first, length r + 1,
    last entry 1.  For r = 1 the modulus degenerates to X and arithmetic
    is plain arithmetic mod p.
    """

    p: int
    r: int
    modulus: tuple[int, ...]

    def order(self) -> int:
        return self.p**self.r

    def zero(self) -> "FFElement":
        return FFElement(self, (0,) * self.r)

    def one(self) -> "FFElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FFElement":
        coeffs = [0] * self.r
        coeffs[0] = n % self.p
        return FFElement(self, tuple(coeffs))

    def element(self, coeffs) -> "FFElement":
        coeffs = tuple(int(c) % self.p for c in coeffs)
        if len(coeffs) != self.r:
            raise ValueError(f"expected {self.r} coordinates, got {len(coeffs)}")
        return FFElement(self, coeffs)

    def coerce(self, value) -> "FFElement":
        """Bring an int, an integral Fraction or an element of this field into it."""
        if isinstance(value, FFElement):
            if value.spec != self:
                raise FieldMismatchError(f"coefficient {value} does not belong to {self}")
            return value
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise FieldMismatchError(f"cannot place {value} in {self}")
            return self.from_int(value.numerator)
        raise TypeError(f"unsupported coefficient type {type(value).__name__}")

    def token(self, c: "FFElement") -> str:
        """Serialized coefficient: the bare residue for r = 1, else ``p^r:[...]``."""
        return str(c.coeffs[0]) if self.r == 1 else c.token()

    def parse(self, token: str) -> "FFElement":
        """Read a bare integer or the ``p^r:[c0,c1,...]`` form of an element."""
        if ":" not in token:
            return self.from_int(int(token))
        head, _, body = token.partition(":")
        ps, _, rs = head.partition("^")
        if int(ps) != self.p or int(rs or "1") != self.r:
            raise FieldMismatchError(f"token {token!r} does not belong to {self}")
        body = body.strip()
        if not (body.startswith("[") and body.endswith("]")):
            raise ValueError(f"malformed element token {token!r}")
        return self.element([int(c) for c in body[1:-1].split(",")] if body != "[]" else [])

    def roots_of_unity(self, n: int) -> list["FFElement"]:
        """The n distinct n-th roots of unity; see :func:`roots_of_unity`."""
        return roots_of_unity(n, self)

    def elements(self) -> Iterator["FFElement"]:
        """All field elements, ascending by coordinate vector."""
        for coeffs in itertools.product(range(self.p), repeat=self.r):
            yield FFElement(self, coeffs)

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def __str__(self) -> str:
        return f"F({self.p}^{self.r})" if self.r > 1 else f"F({self.p})"


class Rationals:
    """The field Q, with :class:`fractions.Fraction` elements.

    Answers the same interface as :class:`FieldSpec`; the only instance is
    :data:`RATIONALS`.
    """

    p = 0

    def zero(self) -> Fraction:
        return Fraction(0)

    def one(self) -> Fraction:
        return Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, value) -> Fraction:
        """Bring an int or a Fraction into Q; finite-field elements are refused."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, FFElement):
            raise FieldMismatchError(f"coefficient {value} does not belong to {self}")
        raise TypeError(f"unsupported coefficient type {type(value).__name__}")

    def token(self, c: Fraction) -> str:
        return str(c)

    def parse(self, token: str) -> Fraction:
        return Fraction(token)

    def roots_of_unity(self, n: int) -> list[Fraction]:
        """The n-th roots of unity in Q, which exist only for n = 1, 2."""
        if n == 1:
            return [Fraction(1)]
        if n == 2:
            return [Fraction(1), Fraction(-1)]
        raise ValueError(
            f"the rationals contain no primitive {n}-th roots of unity; "
            "use a finite field containing them"
        )

    def __str__(self) -> str:
        return "rationals"

    def __repr__(self) -> str:
        return "RATIONALS"

    def __reduce__(self) -> str:
        return "RATIONALS"  # copies and pickles stay the singleton


#: The rational coefficient field.
RATIONALS = Rationals()


def field_for(p: int, r: int = 1):
    """The coefficient field of characteristic p: RATIONALS for p = 0, else F_{p^r}."""
    return RATIONALS if p == 0 and r == 1 else make_field(p, r)


def field_of(c):
    """The field a coefficient lives in: an element's own field, else RATIONALS."""
    return c.spec if isinstance(c, FFElement) else RATIONALS


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldSpec:
    """Build F_{p^r} with the deterministic modulus choice.

    The monic irreducible modulus of degree r is the first one found when
    coefficient vectors (c0, ..., c_{r-1}) are scanned in ascending
    lexicographic order, i.e. the constant coefficient is most significant.
    """
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")
    for tail in itertools.product(range(p), repeat=r):
        coeffs = list(tail) + [1]
        if _is_irreducible(coeffs, p):
            return FieldSpec(p, r, tuple(coeffs))
    raise AssertionError("unreachable: irreducibles of every degree exist")


@functools.lru_cache(maxsize=None)
def _reduction_rows(spec: FieldSpec) -> tuple[tuple[int, ...], ...]:
    """X^k mod modulus for k = r .. 2r-2, as coordinate rows."""
    rows = []
    f = list(spec.modulus)
    for k in range(spec.r, max(2 * spec.r - 1, spec.r)):
        row = _poly_mod([0] * k + [1], f, spec.p)
        rows.append(tuple(row) + (0,) * (spec.r - len(row)))
    return tuple(rows)


@dataclass(frozen=True)
class FFElement:
    """An element of F_{p^r}: coordinates in the power basis of the modulus."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, FFElement):
            if other.spec != self.spec:
                raise FieldMismatchError(
                    f"cannot combine elements of {self.spec} and {other.spec}"
                )
            return other
        if isinstance(other, int):
            return self.spec.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.spec.p
        return FFElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    __radd__ = __add__

    def __neg__(self):
        p = self.spec.p
        return FFElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p = self.spec.p
        return FFElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        p, r = self.spec.p, self.spec.r
        if r == 1:
            return FFElement(self.spec, ((self.coeffs[0] * other.coeffs[0]) % p,))
        conv = [0] * (2 * r - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    conv[i + j] += a * b
        res = conv[:r]
        rows = _reduction_rows(self.spec)
        for k in range(r, 2 * r - 1):
            c = conv[k]
            if c:
                row = rows[k - r]
                for i in range(r):
                    res[i] += c * row[i]
        return FFElement(self.spec, tuple(c % p for c in res))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = self.spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FFElement":
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return self ** (self.spec.order() - 2)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def token(self) -> str:
        """Serialized form ``p^r:[c0,c1,...]``."""
        inner = ",".join(str(c) for c in self.coeffs)
        return f"{self.spec.p}^{self.spec.r}:[{inner}]"

    def __str__(self) -> str:
        return self.token()


def frobenius(x: FFElement, k: int) -> FFElement:
    """x^(p^k), by repeated p-th powering; k is reduced mod r."""
    if k < 0:
        raise ValueError("Frobenius iteration count must be >= 0")
    k %= x.spec.r
    for _ in range(k):
        x = x**x.spec.p
    return x


def in_subfield(x: FFElement, m: int) -> bool:
    """True iff x lies in the subfield F_{p^m}; m must divide r."""
    if m < 1 or x.spec.r % m != 0:
        raise ValueError(f"subfield degree {m} does not divide {x.spec.r}")
    return frobenius(x, m) == x


@functools.lru_cache(maxsize=None)
def multiplicative_generator(spec: FieldSpec) -> FFElement:
    """First element (by coordinate vector) generating the unit group."""
    q1 = spec.order() - 1
    checks = [q1 // ell for ell in prime_factors(q1)] if q1 > 1 else []
    for x in spec.elements():
        if x.is_zero():
            continue
        if all(not (x**e == spec.one()) for e in checks):
            return x
    raise AssertionError("unreachable: the unit group of a finite field is cyclic")


def roots_of_unity(n: int, spec: FieldSpec) -> list[FFElement]:
    """All n distinct solutions of z^n = 1, ascending by coordinate vector.

    Refuses n divisible by p (the roots would be repeated) and reports the
    minimal extension degree needed when n does not divide p^r - 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n % spec.p == 0:
        raise ValueError(f"{n}-th roots of unity are repeated in characteristic {spec.p}")
    q1 = spec.order() - 1
    if n > 1 and q1 % n != 0:
        needed = 1
        acc = spec.p % n
        while acc != 1:
            acc = (acc * spec.p) % n
            needed += 1
        raise FieldTooSmallError(
            f"{n} does not divide {spec.order()} - 1; "
            f"need extension degree {needed} over F_{spec.p}",
            required_degree=needed,
        )
    g = multiplicative_generator(spec)
    step = q1 // n if n > 1 else 0
    roots = {g ** (step * k) for k in range(n)} if n > 1 else {spec.one()}
    return sorted(roots, key=lambda e: e.coeffs)
