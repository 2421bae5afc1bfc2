"""Sparse exact multivariate polynomials over the rationals or a finite field.

Monomials are exponent triples for the fixed variable order (X, Y, Z);
two-variable work simply leaves the unused slot at zero.  Coefficients
live in one field from :mod:`schurlab.ffield`, either
:data:`~schurlab.ffield.RATIONALS` or a :class:`~schurlab.ffield.FieldSpec`,
and are handled only through that field's interface, with one exception:

* when every coefficient of a product, an exact division (whose divisor
  then leads with +-1) or an evaluation is an integer of Q, the operation
  runs on ints inside this module and its result comes back as
  ``Fraction``.

Each kernel picks its coefficient domain once, on entry.  Terms are
summed by one rule: every sum is taken, then one pass drops the monomials
that cancelled.  A product, in either domain, adds each term pair into its
key from the domain's zero, and the constructor, ``+`` and ``from_text``
merge through one helper.  An exact division keeps a remainder entry that
cancels to zero until it comes off the heap (see :func:`exact_divide`).
There is no floating point anywhere.

The monomial order used throughout (leading terms, division, text output)
is graded lexicographic with X > Y > Z.  Polynomials are immutable and in
canonical form: no zero coefficient is ever stored.

Division is exact division only: :func:`exact_divide` returns the quotient
when the remainder vanishes and raises :class:`InexactDivisionError`
otherwise, which downstream code uses as a divisibility verdict.  The
leading term of the running remainder comes off a heap.

The two kernels, products and exact division, run on one int per
monomial: on entry each exponent triple (a, b, c) is packed as
``((a+b+c) << 2s) | (a << s) | b``, with the slot width s taken from the
operands' degree bound so that no slot overflows, and on exit the keys
are unpacked into exponent triples again.  The key of a product monomial
is the sum of its factors' keys, and integer order of keys is the graded
lex order, the total degree deciding first, then the exponent of X, then
that of Y.  The packing is private to these two kernels; every
polynomial holds exponent triples.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .ffield import (
    RATIONALS,
    FieldMismatchError,
    FieldSpec,
    Rationals,
    is_scalar,
    shared_fraction,
)
from .modp import p_power_exponent

#: Distinguished verdict of :func:`is_homogeneous` for the zero polynomial.
ZERO_POLY = "zero"

VARS = ("X", "Y", "Z")
_VAR_INDEX = {"X": 0, "Y": 1, "Z": 2, "x": 0, "y": 1, "z": 2}

#: Exponents are kept below this bound; crossing it is a checked error.
EXPONENT_CAP = 1 << 62

CoeffField = Union[Rationals, FieldSpec]
Monomial = tuple[int, int, int]


class ExponentOverflowError(OverflowError):
    """A monomial exponent crossed EXPONENT_CAP."""


class InexactDivisionError(ArithmeticError):
    """Division left a nonzero remainder: the divisibility claim is false."""


def _order_key(mon: Monomial) -> tuple[int, int, int]:
    # graded lex, X > Y > Z
    return (mon[0] + mon[1] + mon[2], mon[0], mon[1])


def _ints(terms: dict) -> list[int] | None:
    """Q coefficients as ints, in the order of the terms, or None when one of
    them is no integer."""
    out = [n for n, q in map(Fraction.as_integer_ratio, terms.values()) if q == 1]
    return out if len(out) == len(terms) else None


def _pack(terms: dict, s: int, values) -> list[tuple[int, object]]:
    """The terms as (key, coefficient) pairs, each monomial packed into one
    int with slot width s and the coefficients taken from values in the
    order of the terms."""
    s2 = 2 * s
    return [((a + b + c) << s2 | a << s | b, v) for (a, b, c), v in zip(terms, values)]


def _entry(s: int, operands: tuple, ints: bool) -> tuple[bool, list]:
    """The kernels' one entry step: the coefficient domain, picked once, and
    every operand's terms packed in it (see _pack), as (on_ints, packs).

    The domain is ints when ints is set (Q operands) and every coefficient
    is an integer: each operand is walked once, and the first one holding a
    non-integer sends them all to Fractions.  Otherwise it is the field's
    own elements.
    """
    if ints:
        packs = []
        for terms in operands:
            values = _ints(terms)
            if values is None:
                break
            packs.append(_pack(terms, s, values))
        else:
            return True, packs
    return False, [_pack(terms, s, terms.values()) for terms in operands]


def _unpack_key(k: int, s: int) -> Monomial:
    mask = (1 << s) - 1
    a, b = k >> s & mask, k & mask
    return (a, b, (k >> 2 * s) - a - b)


def _unpack(terms: dict, s: int, on_ints: bool) -> dict:
    """Packed terms back into exponent triples, with each coefficient out of
    the domain of _entry: ints into shared Fractions, elements as they are."""
    s2, mask = 2 * s, (1 << s) - 1
    values = map(shared_fraction, terms.values()) if on_ints else terms.values()
    out = {}
    for k, v in zip(terms, values):
        a, b = k >> s & mask, k & mask
        out[(a, b, (k >> s2) - a - b)] = v
    return out


def _merge(terms: dict, items) -> dict:
    """terms with each (monomial, coefficient) of items added in: every sum
    is taken first, then one pass drops the monomials that cancelled.  A
    monomial new to terms keeps its coefficient object, so coefficients
    the field shares stay shared."""
    out = dict(terms)
    get = out.get
    for mon, c in items:
        acc = get(mon)
        out[mon] = c if acc is None else acc + c
    return {mon: c for mon, c in out.items() if c}


def _power_row(v, exponents, one) -> dict:
    """v^e for each e in exponents, each power from the one below it: a
    dense set of exponents costs one product each, and a sparse one no more
    than raising v to each exponent."""
    row, prev, power = {}, 0, one
    for e in sorted(exponents):
        power = power * v ** (e - prev)
        row[e] = power
        prev = e
    return row


@dataclass(frozen=True)
class LinearForm:
    """The bivariate linear form c_x*X + c_y*Y over one coefficient field."""

    field: CoeffField
    c_x: object
    c_y: object

    def __post_init__(self):
        object.__setattr__(self, "c_x", self.field.coerce(self.c_x))
        object.__setattr__(self, "c_y", self.field.coerce(self.c_y))

    def as_poly(self) -> "MultiPoly":
        return MultiPoly(self.field, {(1, 0, 0): self.c_x, (0, 1, 0): self.c_y})

    def is_zero(self) -> bool:
        return self.as_poly().is_zero()


class MultiPoly:
    """Immutable sparse polynomial in X, Y, Z over a fixed coefficient field."""

    __slots__ = ("field", "_terms")

    def __init__(self, field: CoeffField, terms=None):
        items = []
        for mon, c in (terms or {}).items():
            mon = tuple(map(operator.index, mon))
            if len(mon) != 3 or min(mon) < 0:
                raise ValueError(f"bad monomial {mon}")
            if max(mon) >= EXPONENT_CAP:
                raise ExponentOverflowError(f"exponent too large in {mon}")
            items.append((mon, field.coerce(c)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", _merge({}, items))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.field, self._terms)

    @classmethod
    def _raw(cls, field: CoeffField, terms: dict) -> "MultiPoly":
        # trusted path: terms already canonical for this field
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "_terms", terms)
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: CoeffField) -> "MultiPoly":
        return cls._raw(field, {})

    @classmethod
    def one(cls, field: CoeffField) -> "MultiPoly":
        return cls.constant(field, 1)

    @classmethod
    def constant(cls, field: CoeffField, c) -> "MultiPoly":
        return cls(field, {(0, 0, 0): c})

    @classmethod
    def monomial(cls, field: CoeffField, mon: Monomial, c=1) -> "MultiPoly":
        return cls(field, {tuple(mon): c})

    @classmethod
    def variable(cls, field: CoeffField, name: str) -> "MultiPoly":
        mon = [0, 0, 0]
        mon[_VAR_INDEX[name]] = 1
        return cls(field, {tuple(mon): 1})

    @classmethod
    def gens(cls, field: CoeffField):
        """The generator triple (X, Y, Z)."""
        return tuple(cls.variable(field, v) for v in VARS)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[Monomial, object]]:
        """Terms sorted descending by the monomial order."""
        return sorted(self._terms.items(), key=lambda kv: _order_key(kv[0]), reverse=True)

    def num_terms(self) -> int:
        return len(self._terms)

    def coefficient(self, mon: Monomial):
        return self._terms.get(tuple(mon), self.field.zero())

    def leading(self) -> tuple[Monomial, object]:
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mon = max(self._terms, key=_order_key)
        return mon, self._terms[mon]

    def total_degree(self):
        """Total degree, or None for the zero polynomial."""
        return max(map(sum, self._terms), default=None)

    def degree_in(self, var: str):
        """Degree in one variable, or None for the zero polynomial."""
        if not self._terms:
            return None
        i = _VAR_INDEX[var]
        return max(m[i] for m in self._terms)

    def coeff_of(self, var: str, k: int) -> "MultiPoly":
        """The coefficient of var^k, as a polynomial with that slot zeroed."""
        i = _VAR_INDEX[var]
        out = {}
        for mon, c in self._terms.items():
            if mon[i] == k:
                rest = list(mon)
                rest[i] = 0
                out[tuple(rest)] = c
        return MultiPoly._raw(self.field, out)

    # -- ring operations ------------------------------------------------------

    def _check_same_field(self, other: "MultiPoly"):
        if self.field != other.field:
            raise FieldMismatchError(
                f"cannot combine polynomials over {self.field} and {other.field}"
            )

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.field == other.field and self._terms == other._terms
        if is_scalar(other):
            try:
                other = MultiPoly.constant(self.field, other)
            except FieldMismatchError:  # a scalar of another field
                return False
            return self == other
        return NotImplemented

    def __add__(self, other):
        if is_scalar(other):
            other = MultiPoly.constant(self.field, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_field(other)
        return MultiPoly._raw(self.field, _merge(self._terms, other._terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.field, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if is_scalar(other):
            other = MultiPoly.constant(self.field, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if is_scalar(other):
            c = self.field.coerce(other)
            if not c:
                return MultiPoly.zero(self.field)
            return MultiPoly._raw(self.field, {m: v * c for m, v in self._terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_same_field(other)
        left, right = self._terms, other._terms
        bound = (self.total_degree() or 0) + (other.total_degree() or 0)
        if bound >= EXPONENT_CAP and left and right:
            # the top exponent of a variable in the product is the sum of
            # its top exponents in the operands
            for i, var in enumerate(VARS):
                top = max(m[i] for m in left) + max(m[i] for m in right)
                if top >= EXPONENT_CAP:
                    raise ExponentOverflowError(f"exponent overflow: {var}^{top}")
        # every slot of a product key, the total degree too, is below 2^s
        s = bound.bit_length()
        on_ints, (left, right) = _entry(s, (left, right), ints=self.field is RATIONALS)
        if len(left) > len(right):
            left, right = right, left  # the longer operand runs inside
        zero = 0 if on_ints else self.field.zero()
        out: dict[int, object] = {}
        get = out.get
        for k1, c1 in left:
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, zero) + c1 * c2
        out = {k: c for k, c in out.items() if c}  # drop the cancelled terms
        return MultiPoly._raw(self.field, _unpack(out, s, on_ints))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self^n; over F_{p^r}, a power n = p^k with k >= 1 is the Frobenius map.

        In characteristic p, (a + b)^p = a^p + b^p, so self^(p^k) is the sum
        of c^n * X^(n*a) Y^(n*b) Z^(n*c) over the terms c*X^a Y^b Z^c of self:
        O(terms) work and no multiplication.  Every other n, and every n over
        Q, goes by binary powering.
        """
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative polynomial power")
        if n == 0:
            if self.is_zero():
                raise ValueError("0**0 is undefined")
            return MultiPoly.one(self.field)
        p = self.field.p
        if p and n > 1 and p_power_exponent(n, p) is not None:
            return MultiPoly(
                self.field,
                {(n * a, n * b, n * c): v**n for (a, b, c), v in self._terms.items()},
            )
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, point):
        """Evaluate at a triple of values from the coefficient field.

        The point must hold exactly three values, one per variable X, Y, Z;
        any other number raises ``ValueError``.  Each variable's value has
        one row of powers, holding v^e for every exponent e of that
        variable in the terms, each power taken from the one before it by
        the gap between their exponents; a term then costs one product of
        its coefficient and three row entries.  Over Q, when the point and
        the coefficients are integers, the sum runs on ints and comes back
        as a ``Fraction``.
        """
        field, terms = self.field, self._terms
        vals = tuple(field.coerce(v) for v in point)
        if len(vals) != 3:
            raise ValueError(f"a point has three values, not {len(vals)}")
        coeffs, total, one = terms.values(), field.zero(), field.one()
        ints = None
        if field is RATIONALS and all(v.denominator == 1 for v in vals):
            ints = _ints(terms)
        if ints is not None:
            coeffs, vals, total, one = ints, tuple(v.numerator for v in vals), 0, 1
        px, py, pz = (_power_row(v, {m[i] for m in terms}, one) for i, v in enumerate(vals))
        for (a, b, c), coeff in zip(terms, coeffs):
            total = total + coeff * px[a] * py[b] * pz[c]
        return total if ints is None else Fraction(total)

    # -- text / JSON forms -------------------------------------------------------

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        for mon, c in self.terms():
            token = self.field.token(c)
            negative = token.startswith("-")  # only rationals carry a sign
            if negative:
                token = token[1:]
            factors = []
            for name, e in zip(VARS, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = token
            elif token == "1":
                body = "*".join(factors)
            else:
                body = "*".join([token] + factors)
            if not pieces:
                pieces.append(f"-{body}" if negative else body)
            else:
                pieces.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(pieces)

    @classmethod
    def from_text(cls, text: str, field: CoeffField) -> "MultiPoly":
        text = text.strip()
        if text == "0":
            return cls.zero(field)
        terms = []
        for chunk in text.replace("- ", "+ -").split("+ "):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff = field.one()
            if chunk.startswith("-"):
                coeff, chunk = -coeff, chunk[1:]
            mon = [0, 0, 0]
            for factor in chunk.split("*"):
                factor = factor.strip()
                base, _, exp = factor.partition("^")
                if base in _VAR_INDEX and (exp == "" or exp.isdigit()) and ":" not in factor:
                    mon[_VAR_INDEX[base]] += int(exp) if exp else 1
                else:
                    coeff = coeff * field.parse(factor)
            terms.append((tuple(mon), coeff))
        return cls(field, _merge({}, terms))

    def to_json_terms(self) -> list:
        """JSON form: list of [coefficient token, [a, b, c]]."""
        return [[self.field.token(c), list(mon)] for mon, c in self.terms()]

    def __repr__(self) -> str:
        return f"MultiPoly({self.field}, {self.to_text()})"

    def __str__(self) -> str:
        return self.to_text()


# ---------------------------------------------------------------------------
# free functions on polynomials


def exact_divide(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """The quotient f / g when the division is exact.

    Multivariate division by the single divisor g in graded lex order;
    raises InexactDivisionError as soon as the leading term of the running
    remainder is not divisible by the leading term of g, which for a single
    divisor happens exactly when g does not divide f.

    The remainder's leading term comes off a heap of negated monomial keys
    (Johnson 1974; Monagan and Pearce, J. Symb. Comp. 46, 2011).  A key is
    the packed int of the module docstring, so key order is graded lex
    order and the heap holds plain ints.  The slot width is one bit more
    than the largest total degree of f and g needs, and no remainder
    monomial exceeds deg f, because the leading term of g has g's top total
    degree.  So the top bit of each slot is a guard: subtracting the key of
    g's leading monomial from the key of the remainder's leaves a negative
    int or a guard bit set in the X or Y slot when a borrow occurs, and
    otherwise the key of the quotient monomial, whose Z exponent is then
    the total less those of X and Y.  A key whose monomial has cancelled
    out of the remainder is skipped when it surfaces, before the guard
    test, so an inexact division sticks at the first nonzero term that g
    does not divide; a key is never needed again once popped, because
    every term a step adds lies below the term it removes.  The leading
    term of g would cancel the popped term exactly, so it is never applied.

    Over Q the loop runs on ints when every coefficient is an integer and
    g leads with +-1 (see _entry), and otherwise on the field's own
    elements.  In both domains -1/lc(g) is folded into g's other
    coefficients once, so a step adds lc * c to each remainder entry it
    reaches, and an entry that cancels stays in the remainder as 0 until
    it surfaces; the key was pushed once, when the entry was made, so
    nothing is pushed twice, and the heap holds the keys of the remainder.
    """
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    f._check_same_field(g)
    field = f.field
    if f.is_zero():
        return MultiPoly.zero(field)
    s = max(f.total_degree(), g.total_degree()).bit_length() + 1
    unit = field is RATIONALS and g.leading()[1].numerator in (1, -1)
    on_ints, (rem, g_items) = _entry(s, (f._terms, g._terms), ints=unit)
    s2, mask = 2 * s, (1 << s) - 1
    guard = 1 << (s2 - 1) | 1 << (s - 1)  # of the X and Y slots
    rem = dict(rem)
    lead, lc_g = max(g_items)  # keys are distinct, so no coefficient is compared
    ginv = lc_g if on_ints else field.one() / lc_g  # on ints lc(g) is +-1
    g_rest = [(k2, -c2 * ginv) for k2, c2 in g_items if k2 != lead]
    heap = [-k for k in rem]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    quot: dict[int, object] = {}
    while rem:
        k = -heappop(heap)
        lc = rem.pop(k)
        if not lc:  # cancelled out of the remainder
            continue
        dk = k - lead
        # a borrow, then the Z exponent
        if dk < 0 or dk & guard or (dk >> s2) < (dk >> s & mask) + (dk & mask):
            raise InexactDivisionError(
                f"{g.to_text()} does not divide exactly (stuck at {_unpack_key(k, s)})"
            )
        quot[dk] = lc * ginv
        for k2, c2 in g_rest:
            tk = dk + k2
            acc = rem.get(tk)
            if acc is None:
                rem[tk] = lc * c2
                heappush(heap, -tk)
            else:
                rem[tk] = acc + lc * c2
    return MultiPoly._raw(field, _unpack(quot, s, on_ints))


def substitute(f: MultiPoly, var: str, form: LinearForm) -> MultiPoly:
    """Replace one variable by the linear form c_x*X + c_y*Y, exactly.

    Horner's rule in var: with C_k the coefficient of var^k, the image is
    (...(C_top * form + C_(top-1)) * form + ...) * form + C_0.
    """
    if f.field != form.field:
        raise FieldMismatchError("substitution form over a different field")
    i = _VAR_INDEX[var]
    coeffs: dict[int, dict[Monomial, object]] = {}
    for mon, c in f._terms.items():
        coeffs.setdefault(mon[i], {})[mon[:i] + (0,) + mon[i + 1:]] = c
    top = max(coeffs, default=0)
    out = MultiPoly._raw(f.field, coeffs.get(top, {}))
    fp = form.as_poly()
    for k in range(top - 1, -1, -1):
        out = out * fp + MultiPoly._raw(f.field, coeffs.get(k, {}))
    return out


def partial_derivative(f: MultiPoly, var: str) -> MultiPoly:
    """Formal partial derivative; exponents divisible by p die in char p."""
    i = _VAR_INDEX[var]
    out: dict[Monomial, object] = {}
    for mon, c in f._terms.items():
        e = mon[i]
        if e == 0:
            continue
        nc = c * f.field.from_int(e)
        if not nc:
            continue
        nm = list(mon)
        nm[i] = e - 1
        out[tuple(nm)] = nc
    return MultiPoly._raw(f.field, out)


def is_homogeneous(f: MultiPoly):
    """Total degree if every term shares it, None otherwise, ZERO_POLY for 0."""
    if f.is_zero():
        return ZERO_POLY
    degrees = {sum(m) for m in f._terms}
    return degrees.pop() if len(degrees) == 1 else None


def is_symmetric3(f: MultiPoly) -> bool:
    """True iff f is invariant under all permutations of X, Y, Z.

    The transpositions (X Y) and (Y Z) generate S_3, so they are the only
    two tested, each by one dict comparison, which compares coefficients
    in C and passes a shared coefficient object by identity.
    """
    t = f._terms
    return all(
        t == {(m[i], m[j], m[k]): c for m, c in t.items()}
        for i, j, k in ((1, 0, 2), (0, 2, 1))
    )


def linear_multiplicity(g: MultiPoly, form: LinearForm):
    """Exact multiplicity of the linear form as a factor of g.

    It counts exact divisions until one is inexact, with no point test
    before each: on the power criterion's coefficients a test would cost
    more than the division it saves.  The zero polynomial is divisible
    arbitrarily often; that case returns the distinguished verdict math.inf.
    """
    if g.is_zero():
        return math.inf
    if form.is_zero():
        raise ValueError("multiplicity of the zero form is undefined")
    divisor, count = form.as_poly(), 0
    while True:
        try:
            g = exact_divide(g, divisor)
        except InexactDivisionError:
            return count
        count += 1
