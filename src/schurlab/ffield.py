"""Exact arithmetic in the coefficient fields: Q and F_{p^r}.

The rationals are the singleton :data:`RATIONALS` (characteristic 0, with
:class:`fractions.Fraction` elements; integers enter as the shared objects
of :func:`shared_fraction`).  A finite field is described by a
:class:`FieldSpec` holding the characteristic ``p``, the extension degree
``r`` and a fixed monic irreducible modulus of degree ``r`` over F_p.  The
modulus is chosen deterministically by
:func:`schurlab.modp.irreducible_modulus`: the lexicographically smallest
monic irreducible polynomial, comparing coefficient vectors low degree
first, found one candidate at a time by Ben-Or's test.  Two specs built for
the same ``(p, r)`` are therefore identical, which keeps every downstream
artifact (root orderings, factor lists, serialized reports) reproducible.

An element of F_{p^r} is the immutable pair ``(spec, code)``.  Its
coordinates c0 + c1*X + ... + c_{r-1}*X^(r-1) in the power basis of the
modulus are packed as the code c0*p^(r-1) + c1*p^(r-2) + ... + c_{r-1},
so integer order is coordinate-vector order: enumeration, root orderings,
factor lists and the ``p^r:[c0,c1,...]`` tokens all come out as they
would from the coordinate vectors.  Elements of different specs never
mix, even when their codes coincide: combining them raises
:class:`FieldMismatchError` instead of guessing an embedding.

Fields with at most :data:`TABLE_CEILING` elements compute with tables,
after Huber's Zech logarithms (IEEE Trans. Inf. Theory 36(4), 1990) and
FLINT's ``fq_zech``.  They are built on the first arithmetic operation in
the field and kept on its spec.  With g the multiplicative generator and
q the field order, they hold every element once (operations return these
shared objects and allocate nothing), ``log[code]``, the powers
``exp[k] = g^k`` for 0 <= k < 2(q-1), so that a sum of two logarithms
needs no reduction, and the Zech logarithms ``zech[k] = log(1 + g^k)``,
None where 1 + g^k = 0, doubled too (see :func:`_zech_lists`).  Then x*y = exp[log x + log y] and
g^i + g^j = exp[i + zech[j - i]]; negation, inversion, powers and
Frobenius are arithmetic on the exponent.  Since 1 is the code p^(r-1),
1 + g^k only changes the top digit of the code of g^k.  Larger fields
compute on the decoded coordinates with the dense F_p[x] kernel of
:mod:`schurlab.modp` (multiply, reduce by the modulus, power), which the
modulus search runs on too; the tests check the tables against it.  It
imports only the names it calls from :mod:`schurlab.modp`, re-exporting
none.  The degree oracle of :mod:`schurlab.newton` builds its F_p-linear
map with that kernel alone and never loads this module.  A larger prime
field (r = 1) computes on its codes mod p.

Both kinds of field answer one interface, which is all the rest of the
package uses (except that :mod:`schurlab.mpoly` runs integral rational
operands on ints, and the linear-factor sweep of :mod:`schurlab.factor`
runs on codes and the integer log and Zech lists, the tables' own or,
above :data:`TABLE_CEILING`, lists built for the one sweep, and builds
the elements it reports from their codes with ``FFElement._of``): ``p``, ``zero()``,
``one()``, ``from_int(n)``, ``coerce(value)``, ``token(c)``/``parse(token)``
and ``roots_of_unity(n)``.
Elements are tested for zero by their truthiness, and :func:`is_scalar`
says which values a field can be asked to coerce.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .modp import _poly_mod, _poly_mul, _poly_powmod, irreducible_modulus

#: Largest field order whose arithmetic runs on log/antilog/Zech tables.
TABLE_CEILING = 2**17


class FieldMismatchError(ValueError):
    """Two operands belong to different fields."""


class FieldTooSmallError(ValueError):
    """The field does not contain the requested roots of unity.

    ``required_degree`` is the minimal extension degree over F_p that does.
    """

    def __init__(self, message: str, required_degree: int | None = None):
        super().__init__(message)
        self.required_degree = required_degree


def unity_degree(p: int, n: int) -> int:
    """The least k >= 1 with n | p^k - 1: F_{p^k} is the smallest field
    holding the n-th roots of unity.  Needs n coprime to p."""
    if n % p == 0:
        raise ValueError(f"{n} is not coprime to {p}")
    k, acc = 1, p % n
    while acc != 1 % n:
        acc = (acc * p) % n
        k += 1
    return k


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 2 if f > 2 else 1  # 2, then the odd numbers
    if n > 1:
        out.append(n)
    return out


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
        return FFElement._of(self, 0)

    def one(self) -> "FFElement":
        return self.from_int(1)

    def from_int(self, n: int) -> "FFElement":
        # an integer is a constant: only c0, the top digit of the code
        return FFElement._of(self, n % self.p * self.p ** (self.r - 1))

    def element(self, coeffs) -> "FFElement":
        return FFElement(self, [int(c) for c in coeffs])

    def coerce(self, value) -> "FFElement":
        """Bring an int, an integral Fraction or an element of this field into it."""
        if isinstance(value, FFElement):
            if value.spec is not self and value.spec != self:
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
        return str(c.code) if self.r == 1 else c.token()

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
        """All n distinct solutions of z^n = 1, ascending by coordinate vector.

        Refuses n divisible by p (the roots would be repeated) and reports
        the minimal extension degree needed when n does not divide p^r - 1.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if n % self.p == 0:
            raise ValueError(f"{n}-th roots of unity are repeated in characteristic {self.p}")
        q1 = self.order() - 1
        if n > 1 and q1 % n != 0:
            needed = unity_degree(self.p, n)
            raise FieldTooSmallError(
                f"{n} does not divide {self.order()} - 1; "
                f"need extension degree {needed} over F_{self.p}",
                required_degree=needed,
            )
        # h has order exactly n, so its powers are the n roots
        h = _first_unit_reaching(self, n) ** (q1 // n)
        roots = [self.one()]
        for _ in range(n - 1):
            roots.append(roots[-1] * h)
        return sorted(roots, key=lambda e: e.code)

    def elements(self) -> Iterator["FFElement"]:
        """All field elements, ascending by coordinate vector (that is, by code)."""
        for code in range(self.order()):
            yield FFElement._of(self, code)

    def to_json(self) -> dict:
        return {"p": self.p, "r": self.r, "modulus": list(self.modulus)}

    def __str__(self) -> str:
        return f"F({self.p}^{self.r})" if self.r > 1 else f"F({self.p})"

    def __reduce__(self):
        return _spec, (self.p, self.r, self.modulus)  # never the cached tables

    @functools.cached_property
    def _tables(self) -> "_Tables | None":
        """The arithmetic tables, built on first use; None above TABLE_CEILING."""
        return _Tables(self) if self.order() <= TABLE_CEILING else None

    def _encode(self, coeffs) -> int:
        code = 0
        for c in coeffs:
            code = code * self.p + c
        return code

    def _decode(self, code: int) -> tuple[int, ...]:
        coeffs = [0] * self.r
        for i in range(self.r - 1, -1, -1):
            code, coeffs[i] = divmod(code, self.p)
        return tuple(coeffs)


#: The integer n of Q as a Fraction, one shared object per recently used n.
#: Fractions are immutable, so sharing is safe, and two polynomials holding
#: the same shared coefficient compare it by identity, with no
#: Fraction.__eq__.  Bounded, so a stream of distinct integers costs at
#: most the cache.
shared_fraction = functools.lru_cache(maxsize=1 << 12)(Fraction)


class Rationals:
    """The field Q, with :class:`fractions.Fraction` elements.

    Answers the same interface as :class:`FieldSpec`; the only instance is
    :data:`RATIONALS`.  Integers come into Q through :func:`shared_fraction`.
    """

    p = 0

    def zero(self) -> Fraction:
        return shared_fraction(0)

    def one(self) -> Fraction:
        return shared_fraction(1)

    def from_int(self, n: int) -> Fraction:
        return shared_fraction(n)

    def coerce(self, value) -> Fraction:
        """Bring an int or a Fraction into Q; finite-field elements are refused."""
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return shared_fraction(value)
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


def is_scalar(value) -> bool:
    """Whether value is a coefficient some field can coerce: an int, a
    Fraction or a finite-field element."""
    return isinstance(value, (int, Fraction, FFElement))


@functools.lru_cache(maxsize=None)
def make_field(p: int, r: int) -> FieldSpec:
    """Build F_{p^r} with the deterministic modulus choice of
    :func:`schurlab.modp.irreducible_modulus`: one spec per (p, r), which
    keeps its tables."""
    return FieldSpec(p, r, irreducible_modulus(p, r))


def _spec(p: int, r: int, modulus: tuple[int, ...]) -> FieldSpec:
    """A copied or unpickled FieldSpec: this process's make_field(p, r), with
    its tables, when the modulus is the default one, else a new spec."""
    spec = make_field(p, r)
    return spec if spec.modulus == modulus else FieldSpec(p, r, modulus)


# ---------------------------------------------------------------------------
# Coordinate vectors as F_p[x] residues mod the modulus: the kernel of
# fields above TABLE_CEILING, and of building the tables.


def _schoolbook_mul(spec: FieldSpec, a, b) -> tuple[int, ...]:
    """Product of two coordinate vectors, reduced by the modulus."""
    v = _poly_mod(_poly_mul(a, b, spec.p), spec.modulus, spec.p)
    return tuple(v) + (0,) * (spec.r - len(v))


def _schoolbook_pow(spec: FieldSpec, a, e: int) -> tuple[int, ...]:
    """a^e for a coordinate vector a and e >= 0, by square and multiply."""
    v = _poly_powmod(a, e, spec.modulus, spec.p)
    return tuple(v) + (0,) * (spec.r - len(v))


@functools.lru_cache(maxsize=None)
def multiplicative_generator(spec: FieldSpec) -> "FFElement":
    """First element (by coordinate vector) generating the unit group."""
    return _first_unit_reaching(spec, spec.order() - 1)


def _first_unit_reaching(spec: FieldSpec, n: int) -> "FFElement":
    """First unit y (by coordinate vector) with y^((q-1)/ell) != 1 for every
    prime ell dividing n, for n | q - 1; then y^((q-1)/n) has order exactly
    n.  Only n is factored, so roots of a small order cost little in a
    field whose q - 1 has large prime factors.

    A nonzero h is c*y, with c in F_p^* its first nonzero coordinate and y
    scaled so that its own is 1.  With q - 1 = (p - 1)*m, so m = r mod p - 1,
    and ell a prime factor of q - 1: if ell does not divide p - 1, then
    h^((q-1)/ell) = y^((q-1)/ell), as c^(p-1) = 1; if it does, then
    h^((q-1)/ell) = (c^r * N(y))^((p-1)/ell), where N(y) = y^m lies in F_p.
    So the field powers are taken once per class y, and each code in the
    scan costs only powers of ints mod p.  When ell also divides r, c^r is
    an ell-th power, so N(y) alone can rule out every c.
    """
    p, r, q = spec.p, spec.r, spec.order()
    ells = prime_factors(n)
    class_checks = [(q - 1) // ell for ell in ells if (p - 1) % ell]
    base_checks = [(p - 1) // ell for ell in ells if (p - 1) % ell == 0]
    norm_checks = [(p - 1) // ell for ell in ells if (p - 1) % ell == 0 and r % ell == 0]
    one = spec._decode(q // p)

    @functools.cache
    def norm(y):  # N(y) mod p, or None when no c makes c*y reach order n
        if any(_schoolbook_pow(spec, y, e) == one for e in class_checks):
            return None
        m = _schoolbook_pow(spec, y, (q - 1) // (p - 1))[0] if base_checks else 1
        return None if any(pow(m, e, p) == 1 for e in norm_checks) else m

    # the codes below p are c * x^(r-1), all of the class of x^(r-1)
    for code in range(1 if norm(spec._decode(1)) is not None else p, q):
        x = spec._decode(code)
        c = next(v for v in x if v)
        inv = pow(c, -1, p)
        m = norm(tuple(v * inv % p for v in x))
        if m is not None and all(pow(pow(c, r, p) * m % p, e, p) != 1 for e in base_checks):
            return FFElement._of(spec, code)
    raise AssertionError("unreachable: the unit group of a finite field is cyclic")


def _power_codes(spec: FieldSpec, g) -> list[int]:
    """The codes of g^0, g^1, ..., g^(q-2) for a coordinate vector g, O(1) each.

    Multiplying by g is F_p-linear, so g*x is the coordinate-wise sum of
    g*x_hi and g*x_lo, where x_hi keeps the high digits of the code of x
    and x_lo the low ones; both products are read from tables of about
    sqrt(q) entries.  The sum mod p is taken on all coordinates at once:
    coordinate i sits in bits [w*i, w*i + w) of one int, two reduced
    coordinates sum to at most 2p - 2 < 2^w, and adding 2^(w-1) - p to a
    slot sets its top bit exactly where the sum reached p.
    """
    p, r = spec.p, spec.r
    q = p**r
    if r == 1:  # codes are residues mod p
        codes = [1] * (p - 1)
        for k in range(1, p - 1):
            codes[k] = codes[k - 1] * g[0] % p
        return codes
    low = p ** (r - r // 2)  # code = hi * low + lo
    w = p.bit_length() + 1
    # the high digits of a code are the coordinates c0, c1, ..., whose
    # slots lie below this bit
    split = w * (r // 2)

    def spread(coeffs) -> int:
        return sum(c << (w * i) for i, c in enumerate(coeffs))

    highs = [spec._decode(h * low) for h in range(q // low)]
    lows = [spec._decode(lo) for lo in range(low)]
    g_high = [spread(_schoolbook_mul(spec, g, x)) for x in highs]
    g_low = [spread(_schoolbook_mul(spec, g, x)) for x in lows]
    high_code = {spread(x): h * low for h, x in enumerate(highs)}
    low_code = {spread(x) >> split: lo for lo, x in enumerate(lows)}
    high_mask = (1 << split) - 1
    bias = sum(((1 << (w - 1)) - p) << (w * i) for i in range(r))
    top_bits = sum(1 << (w * i + w - 1) for i in range(r))

    codes = [0] * (q - 1)
    code = q // p  # the element 1
    for k in range(q - 1):
        codes[k] = code
        s = g_high[code // low] + g_low[code % low]
        s -= (((s + bias) & top_bits) >> (w - 1)) * p
        code = high_code[s & high_mask] + low_code[s >> split]
    return codes


def _zech_lists(spec: FieldSpec) -> tuple[list[int], list, list]:
    """The integer part of the tables: the codes of g^k for 0 <= k < q-1,
    ``log[code]`` (None at 0) and ``zech[k] = log(1 + g^k)`` (None where
    1 + g^k = 0) for 0 <= k < 2(q-1), with g the multiplicative generator
    and q the field order.  zech is doubled, so that a difference of two
    logarithms indexes it with no reduction.
    """
    q, p = spec.order(), spec.p
    powers = _power_codes(spec, multiplicative_generator(spec).coeffs)
    log = [None] * q
    for k, code in enumerate(powers):
        log[code] = k
    if None in log[1:]:
        raise ArithmeticError(f"the generator of {spec} does not reach every unit")
    one = q // p
    wrap = (p - 1) * one
    zech = [log[c + one if c < wrap else c - wrap] for c in powers]
    return powers, log, zech + zech


class _Tables:
    """Log, antilog and Zech tables of one field; see the module docstring."""

    __slots__ = ("elems", "log", "exp", "zech", "qm1", "half")

    def __init__(self, spec: FieldSpec):
        q, p = spec.order(), spec.p
        powers, log, zech = _zech_lists(spec)
        elems = [FFElement._of(spec, code) for code in range(q)]
        exp = [elems[code] for code in powers]
        self.elems = elems
        self.log = log
        # doubled, so that log sums index exp
        self.exp = exp + exp
        self.zech = zech
        self.qm1 = q - 1
        self.half = (q - 1) // 2 if p > 2 else 0  # log(-1)


class FFElement:
    """An element of F_{p^r}: its field and its code (see the module docstring).

    ``FFElement(spec, coeffs)`` takes the r coordinates in the power basis,
    low degree first; ``coeffs`` reads them back.

    In every field, with tables or without, ``x + y`` with a zero operand
    returns the other operand itself, and ``x - y`` is ``x + -y``.

    An element compared with an int is NotImplemented, so ``one() == 1`` is
    False, though ``+``, ``-``, ``*`` and ``/`` coerce an int.  Equal
    objects must hash equal, and F_p's 1 would equal every int congruent to
    1 mod p, so no hash could agree with them all.  An unhashable
    ``MultiPoly`` has no such bind, and its ``== 1`` is True.
    """

    __slots__ = ("spec", "code")

    def __init__(self, spec: FieldSpec, coeffs):
        if len(coeffs) != spec.r:
            raise ValueError(f"expected {spec.r} coordinates, got {len(coeffs)}")
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "code", spec._encode(c % spec.p for c in coeffs))

    @classmethod
    def _of(cls, spec: FieldSpec, code: int) -> "FFElement":
        self = object.__new__(cls)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "code", code)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FFElement is immutable")

    def __reduce__(self):
        return FFElement, (self.spec, self.coeffs)

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.spec._decode(self.code)

    def __eq__(self, other):
        if other.__class__ is not FFElement:
            return NotImplemented
        return self.code == other.code and (self.spec is other.spec or self.spec == other.spec)

    def __hash__(self) -> int:
        return hash(self.code)

    def is_zero(self) -> bool:
        return not self.code

    def __bool__(self) -> bool:
        return self.code != 0

    def _coerce(self, other):
        """The other operand in this field; None unless it is an element or an int."""
        return self.spec.coerce(other) if isinstance(other, (FFElement, int)) else None

    def __mul__(self, other):
        spec = self.spec
        if other.__class__ is not FFElement or other.spec is not spec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        t = spec._tables
        if t is None:
            if spec.r == 1:  # the code is the residue
                return FFElement._of(spec, self.code * other.code % spec.p)
            return FFElement._of(spec, spec._encode(_schoolbook_mul(spec, self.coeffs, other.coeffs)))
        a, b = self.code, other.code
        if a and b:
            log = t.log
            return t.exp[log[a] + log[b]]
        return t.elems[0]

    __rmul__ = __mul__

    def __add__(self, other):
        spec = self.spec
        if other.__class__ is not FFElement or other.spec is not spec:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self.code, other.code
        if not a:
            return other
        if not b:
            return self
        t = spec._tables
        if t is None:
            return _coordinatewise(self, other, 1)
        log = t.log
        i = log[a]
        z = t.zech[log[b] - i]
        return t.elems[0] if z is None else t.exp[i + z]

    __radd__ = __add__

    def __neg__(self):
        t = self.spec._tables
        if t is None:
            return _coordinatewise(self.spec.zero(), self, -1)
        return t.exp[t.log[self.code] + t.half] if self.code else self

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        spec = self.spec
        if not self.code:
            if e < 0:
                raise ZeroDivisionError("zero has no inverse")
            return self if e else spec.one()
        t = spec._tables
        if t is None:
            e %= spec.order() - 1
            if spec.r == 1:
                return FFElement._of(spec, pow(self.code, e, spec.p))
            return FFElement._of(spec, spec._encode(_schoolbook_pow(spec, self.coeffs, e)))
        return t.exp[t.log[self.code] * e % t.qm1]

    def inverse(self) -> "FFElement":
        return self**-1

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

    def __repr__(self) -> str:
        return f"FFElement(spec={self.spec!r}, coeffs={self.coeffs!r})"


def _coordinatewise(x: FFElement, y: FFElement, sign: int) -> FFElement:
    """x + sign*y on decoded coordinates, for fields without tables; in a
    prime field on the codes, which are the residues."""
    spec = x.spec
    p = spec.p
    if spec.r == 1:
        return FFElement._of(spec, (x.code + sign * y.code) % p)
    return FFElement._of(spec, spec._encode([(a + sign * b) % p for a, b in zip(x.coeffs, y.coeffs)]))


def frobenius(x: FFElement, k: int) -> FFElement:
    """x^(p^k); k is reduced mod r."""
    if k < 0:
        raise ValueError("Frobenius iteration count must be >= 0")
    return x ** (x.spec.p ** (k % x.spec.r))
