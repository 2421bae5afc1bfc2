"""Dense arithmetic over F_p: the kernel under every finite field.

Univariate polynomials over F_p are int lists, low degree first, with the
zero polynomial the empty list; multiplication and reduction sum exact
integer products and reduce mod p once, at the end.  On them sit Ben-Or's
irreducibility test and the deterministic modulus choice
:func:`irreducible_modulus`, which :func:`schurlab.ffield.make_field`
builds every field with, and :func:`_rank_mod_p`, Gaussian elimination
mod p, which the degree oracle of :mod:`schurlab.newton` takes its count
from with no field built at all.

The checks that refuse a characteristic, an extension degree or a field
over its size ceiling live here too, so that ``schurlab degree`` loads
this module and :mod:`schurlab.newton` and no coefficient field.  It
imports nothing beyond ``functools``.
"""

from __future__ import annotations

import functools

#: Default field-size cap of every ``ceiling`` parameter and of the CLI's
#: ``--ceiling``; work that would build or need a larger field is refused.
DESK_CEILING = 10**6


class CeilingError(ValueError):
    """A computation would exceed the size ceiling it was given."""


#: The first 13 primes.  Below _SPRP_BOUND a strong probable prime to all of
#: them is prime (Sorenson and Webster, Math. Comp. 86, 2017); twelve bases
#: are not enough, 318665857834031151167461 passes every prime up to 37.
_SPRP_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SPRP_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by a strong-probable-prime test to _SPRP_BASES.
    Raises ValueError at or above _SPRP_BOUND, where that test no longer
    decides."""
    if n >= _SPRP_BOUND:
        raise ValueError(f"primality is decided only below {_SPRP_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _SPRP_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _SPRP_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_field(p: int, r: int = 1) -> None:
    """Raise ValueError unless p is prime and r >= 1, that is, unless
    F_{p^r} exists.  Builds nothing.  A p at or above _SPRP_BOUND, where
    is_prime does not decide, is refused before any primality work."""
    if p >= _SPRP_BOUND:
        raise ValueError(f"characteristic must be below {_SPRP_BOUND}, got {p}")
    if not is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    if r < 1:
        raise ValueError(f"extension degree must be >= 1, got {r}")


def check_ceiling(p: int, k: int, ceiling: int) -> None:
    """Raise CeilingError when p^k exceeds the ceiling.

    A p that is not prime is refused first, by :func:`check_field`, so a
    non-field reads as one whatever k is.  The power is capped at the
    ceiling's bit length (p^k > ceiling for any p >= 2 past it), so a huge
    k costs nothing.
    """
    check_field(p)
    if p ** min(k, ceiling.bit_length()) > ceiling:
        raise CeilingError(f"field order {p}^{k} exceeds the ceiling {ceiling}")


def p_power_exponent(n: int, p: int) -> int | None:
    """The k >= 0 with n = p^k, or None when n is no power of p (p >= 2)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    k = 0
    while n > 1 and n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


# ---------------------------------------------------------------------------
# Univariate polynomials over F_p, and the rank of a matrix.


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
                out[i + j] += ai * bj
    return _trim([c % p for c in out])


def _poly_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f must be monic; only its nonzero lower terms do any work
    a = list(a)
    df = len(f) - 1
    lower = [(i, fi) for i, fi in enumerate(f[:df]) if fi]
    while len(a) > df:
        c = a.pop() % p
        if c:
            shift = len(a) - df
            for i, fi in lower:
                a[shift + i] -= c * fi
    return _trim([c % p for c in a])


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
        e >>= 1
        if e:
            base = _poly_mod(_poly_mul(base, base, p), f, p)
    return result


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """A gcd of a and b up to a unit factor, not normalised to be monic."""
    while b:
        inv = pow(b[-1], p - 2, p)
        bm = [(c * inv) % p for c in b]
        a, b = b, _poly_mod(a, bm, p)
    return a


def _frobenius_coprime(xpk: list[int], f: list[int], p: int) -> bool:
    """Whether gcd(x^(p^k) - x, f) = 1, given xpk = x^(p^k) mod f and deg f >= 2:
    f has no irreducible factor whose degree divides k.  For k = 1, whether
    f has no root in F_p."""
    return len(_poly_gcd(_poly_sub(xpk, [0, 1], p), list(f), p)) == 1


def _is_irreducible(f: list[int], p: int) -> bool:
    """Ben-Or's test for a monic polynomial of degree r >= 1 over F_p.

    A reducible f has an irreducible factor of degree k <= r/2, and then
    gcd(x^(p^k) - x, f) != 1; so f is irreducible exactly when these gcds
    are 1 for k = 1 .. r/2 (M. Ben-Or, FOCS 1981).  Each k takes one more
    p-th power of x mod f, O(log p) products, and the test stops at the
    first k that fails: k = 1 refuses every f with a root in F_p, and most
    reducible candidates have a small factor.
    """
    xpk = [0, 1]
    for _ in range((len(f) - 1) // 2):
        xpk = _poly_powmod(xpk, p, f, p)
        if not _frobenius_coprime(xpk, f, p):
            return False
    return True


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p of the matrix with these int rows, by Gaussian elimination."""
    rank = 0
    while rows:
        *rows, pivot = rows
        col = next((j for j, c in enumerate(pivot) if c % p), None)
        if col is not None:
            inv = pow(pivot[col], -1, p)
            rows = [[(a - row[col] * inv * b) % p for a, b in zip(row, pivot)] for row in rows]
            rank += 1
    return rank


@functools.lru_cache(maxsize=None)
def irreducible_modulus(p: int, r: int) -> tuple[int, ...]:
    """The monic irreducible polynomial of degree r over F_p that defines
    F_{p^r}: the coefficient tuple, low degree first, length r + 1.

    It is the first one found when coefficient vectors (c0, ..., c_{r-1})
    are scanned in ascending lexicographic order, i.e. the constant
    coefficient is most significant.  The search holds one candidate at a
    time and tests it by Ben-Or's test.
    """
    check_field(p, r)
    # The candidate with coefficients (c0, ..., c_{r-1}) is the base-p
    # counter c0*p^(r-1) + ... + c_{r-1}, decoded one candidate at a time.
    # For r > 1 a zero constant coefficient means the factor X: start at c0 = 1.
    for counter in range(0 if r == 1 else p ** (r - 1), p**r):
        coeffs = [0] * r + [1]
        for i in range(r - 1, -1, -1):
            counter, coeffs[i] = divmod(counter, p)
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("unreachable: irreducibles of every degree exist")
