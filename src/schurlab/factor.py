"""Factorization and irreducibility evidence over finite fields.

Three kinds of verdicts come out of this module, and they are kept
deliberately distinct:

* closed-form factorizations of the determinant quotients into linear
  factors (checked by exact polynomial equality, never numerically);
* signature witnesses: divisibility patterns on the Z-coefficients that
  force any factor to have large Z-degree, the structural half of the
  irreducibility argument;
* the power-of-a-linear-form criterion: a homogeneous polynomial whose
  Z-constant coefficient is a pure power of an irreducible linear form not
  dividing the Z^1 coefficient is irreducible.

Absence of linear factors alone never yields an "irreducible" verdict.

The linear-factor sweep (:func:`linear_factors_over`) computes on discrete
logarithms in every field, with None for 0: the log and Zech lists of the
field's tables (order at most :data:`~schurlab.ffield.TABLE_CEILING`), and
above that the same lists built for the one sweep.  It holds its residual
as Z-coefficients keyed by packed (X, Y) exponents and divides it by each
form with Horner's rule in Z (see _synthetic_divide).  The candidate
pairs, their sums and the reported factors stay field elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ffield import FieldSpec, _zech_lists, field_of, make_field
from .modp import DESK_CEILING, check_ceiling
from .mpoly import (
    EXPONENT_CAP,
    ZERO_POLY,
    ExponentOverflowError,
    InexactDivisionError,
    LinearForm,
    MultiPoly,
    exact_divide,
    is_homogeneous,
    linear_multiplicity,
    partial_derivative,
)
from .vschur import ExponentPair, i_poly, r_poly, t_poly


def _mult_json(m):
    return "inf" if m == math.inf else m


@dataclass(frozen=True)
class SignatureWitness:
    """Divisibility pattern of Z-coefficients relative to one linear prime.

    For a lower signature of length L the pattern is: multiplicity exactly
    one at Z^0, at least one for 0 < j < L, zero at Z^L.  An upper
    signature mirrors this from the top coefficient down.
    """

    kind: str  # "lower" | "upper"
    length: int
    root: object  # the theta / zeta of the linear prime X - root*Y
    checks: tuple  # ((z_power, multiplicity), ...)
    verdict: bool

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "length": self.length,
            "root": str(self.root),
            "checks": [[z, _mult_json(m)] for z, m in self.checks],
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class _Forms:
    """The claimed forms of a closed-form splitting, each of multiplicity 1,
    generated afresh by ``pairs()`` on every pass; its length is their count."""

    count: int
    pairs: object  # () -> iterator of (alpha, beta)

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return ((pair, 1) for pair in self.pairs())


@dataclass(frozen=True)
class FactorReport:
    """Linear factors Z - alpha*X - beta*Y found in a polynomial.

    ``input`` is the polynomial itself or a label for it; a polynomial is
    formatted only when ``input_label`` or ``to_json()`` reads it.
    """

    input: MultiPoly | str
    field: FieldSpec
    linear_factors: tuple | _Forms  # (((alpha, beta), multiplicity), ...)
    leading_coeff: str
    residual_degree_in_z: int
    fully_split: bool

    @property
    def input_label(self) -> str:
        return self.input if isinstance(self.input, str) else self.input.to_text()

    def factor_count(self) -> int:
        if isinstance(self.linear_factors, _Forms):
            return len(self.linear_factors)
        return sum(m for _, m in self.linear_factors)

    def factors_json(self) -> list:
        """The linear factors as ``to_json()`` lists them."""
        return [
            {"alpha": a.token(), "beta": b.token(), "multiplicity": m}
            for (a, b), m in self.linear_factors
        ]

    def to_json(self) -> dict:
        return {
            "input": self.input_label,
            "field": self.field.to_json(),
            "linear_factors": self.factors_json(),
            "leading_coeff": self.leading_coeff,
            "residual_degree_in_z": self.residual_degree_in_z,
            "fully_split": self.fully_split,
        }


def _logs(spec: FieldSpec) -> tuple[list, list, int]:
    """The sweep's domain on spec: log, the doubled zech and q - 1 (see
    _zech_lists), read from spec's tables when it has them (order at most
    TABLE_CEILING), and else built for the one call and not kept."""
    tables = spec._tables
    if tables is not None:
        return tables.log, tables.zech, tables.qm1
    _, log, zech = _zech_lists(spec)
    return log, zech, spec.order() - 1


def _z_coefficients(f: MultiPoly, s: int, logs: tuple) -> tuple[list, tuple]:
    """f's Z-coefficients, top power first, in the domain logs (see _logs):
    as levels, dicts from the key a << s | b of X^a Y^b to a coefficient,
    and as three lists, their values at (X, Y) = (1, 0), (0, 1) and (1, 1).
    There X^a Y^b is 1 or 0, so the one pass sums a term without Y into the
    first list, without X into the second and every term into the third,
    with no product, on elements, once per sweep.
    """
    log, zero = logs[0], f.field.zero()
    top = f.degree_in("Z")
    levels = [{} for _ in range(top + 1)]
    at_x, at_y, at_xy = [zero] * (top + 1), [zero] * (top + 1), [zero] * (top + 1)
    for (a, b, k), c in f._terms.items():
        k = top - k
        levels[k][a << s | b] = log[c.code]
        at_xy[k] = at_xy[k] + c
        if not b:
            at_x[k] = at_x[k] + c
        if not a:
            at_y[k] = at_y[k] + c
    return levels, tuple([log[c.code] for c in lists] for lists in (at_x, at_y, at_xy))


def _horner(coeffs: list, z, logs: tuple) -> list:
    """Horner's rule at z on coeffs, top power first, in the domain logs
    (see _logs): the partial values, the last of which is the value at z,
    and the others, top power first, the coefficients of the quotient by
    Z - z (synthetic division).

    A product is a sum of logs and a sum is one Zech lookup,
    g^a + g^c = g^a * (1 + g^(c-a)); each log is reduced mod q - 1, so
    every index is in range of the doubled zech.
    """
    _, zech, qm1 = logs
    acc = coeffs[0]
    out = [acc]
    for c in coeffs[1:]:
        if acc is None or z is None:  # acc * z = 0
            acc = c
        else:
            acc = (acc + z) % qm1
            if c is not None:
                d = zech[c - acc]
                acc = None if d is None else (acc + d) % qm1
        out.append(acc)
    return out


def _synthetic_divide(levels: list, alpha, beta, s: int, logs: tuple) -> list:
    """The quotient of levels (see _z_coefficients) by Z - alpha*X - beta*Y,
    as levels, in the domain logs (see _logs); raises InexactDivisionError
    when the form does not divide.

    This is _horner with bivariate coefficients, at Z = alpha*X + beta*Y:
    Q_(top-1) = C_top, Q_(k-1) = C_k + alpha*X*Q_k + beta*Y*Q_k, exact
    exactly when the last sum is empty.  The gate's three runs are its
    images at (X, Y) = (1, 0), (0, 1) and (1, 1), so the quotient's lists
    are their partial values.  A product by X (Y) adds 1 << s (1) to a key,
    as no exponent passes the levels' total degree, and is skipped when
    alpha (beta) is 0.  A product is a sum of logs and a sum one Zech
    lookup, None deleting the entry.
    """
    log, zech, qm1 = logs
    passes = [(shift, log[c.code]) for shift, c in ((1 << s, alpha), (1, beta)) if c]
    acc, out = levels[0], []
    for level in levels[1:]:
        out.append(acc)
        nxt = dict(level)
        get = nxt.get
        for shift, c in passes:
            for key, v in acc.items():
                key += shift
                old = get(key)
                if old is None:
                    nxt[key] = (c + v) % qm1
                else:
                    z = zech[c + v - old]  # g^old + g^(c+v) = g^old * (1 + g^(c+v-old))
                    if z is None:
                        del nxt[key]
                    else:
                        nxt[key] = (old + z) % qm1
        acc = nxt
    if acc:
        raise InexactDivisionError(f"Z - ({alpha})*X - ({beta})*Y does not divide exactly")
    return out


def _monomial_free(f: MultiPoly) -> MultiPoly:
    """f with its largest monomial factor X^i Y^j divided out.

    A form Z - alpha*X - beta*Y is prime to X and Y, so it divides the
    result exactly as often as it divides f, and the Z-degree is f's.
    """
    i = min(mon[0] for mon in f._terms)
    j = min(mon[1] for mon in f._terms)
    if not (i or j):
        return f
    return MultiPoly._raw(f.field, {(a - i, b - j, c): v for (a, b, c), v in f._terms.items()})


def _candidate_forms(z_lists: tuple[list, list, list], spec: FieldSpec, logs: tuple):
    """The (alpha, beta) that may give a divisor Z - alpha*X - beta*Y of g.

    z_lists holds the lists of _z_coefficients for a g that neither X nor Y
    divides (see _monomial_free).  A divisor makes g vanish at (1, 0, alpha),
    (0, 1, beta) and (1, 1, alpha + beta), so every other pair is rejected
    exactly: alpha runs over the zeros of g(1, 0, Z), beta over those of
    g(0, 1, Z), and a pair passes only if alpha + beta is a zero of
    g(1, 1, Z).  Each zero set is Horner's rule on one of the lists, in
    the domain logs (see _logs), deg_Z g steps per field element, each
    element met beside its logarithm.  For homogeneous g the first two sets
    hold at most deg_Z g elements.  Pairs come lexicographically by
    coordinate vectors.
    """
    alphas, betas, sums = (
        [z for z, v in zip(spec.elements(), logs[0]) if _horner(c, v, logs)[-1] is None]
        for c in z_lists
    )
    sums = set(sums)
    for alpha in alphas:
        for beta in betas:
            if alpha + beta in sums:
                yield alpha, beta


def linear_factors_over(f: MultiPoly, spec: FieldSpec, ceiling: int = DESK_CEILING) -> FactorReport:
    """Sweep the (alpha, beta) in the field, extracting Z - alpha*X - beta*Y.

    The loop state is the residual, first f with its monomial factor
    divided out (see _monomial_free), as its _z_coefficients, on discrete
    logarithms in every field: the log and Zech lists are read once, on
    entry, from spec's tables when it has them (order at most
    TABLE_CEILING), and else built for this call (see _logs).  Each pair
    first meets a zero-set filter on the first lists (see
    _candidate_forms), valid for the whole sweep because every later
    residual divides the first; on a homogeneous f, such as a quotient
    T(A, B), the sweep is linear in the field order.  While Horner's rule
    on the lists finds the residual zero at (1, 0, alpha), (0, 1, beta) and
    (1, 1, alpha + beta), as a multiple of the form is, the residual is
    divided by the form by Horner's rule in Z (_synthetic_divide), and the
    exact division decides: the count of exact ones is the multiplicity
    (substitution is only the tests' oracle).  A quotient's lists are the
    gate's partial values, and the first residual's slot width serves
    every division, since residual degrees only fall.  The pairs, their
    sums and the report's factors stay elements, and the factor list is
    lexicographic by coordinate vectors.
    Raises CeilingError (see check_ceiling) when spec's order exceeds the ceiling.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if f.field != spec:
        raise ValueError(f"polynomial lives over {f.field}, not {spec}")
    check_ceiling(spec.p, spec.r, ceiling)
    leading = f.coeff_of("Z", f.degree_in("Z"))
    residual = _monomial_free(f)
    logs = _logs(spec)
    log = logs[0]
    s = max(residual.total_degree(), 1).bit_length()
    levels, z_lists = _z_coefficients(residual, s, logs)
    factors = []
    for alpha, beta in _candidate_forms(z_lists, spec, logs):
        points = [log[v.code] for v in (alpha, beta, alpha + beta)]
        mult = 0
        while True:
            runs = [_horner(c, v, logs) for c, v in zip(z_lists, points)]
            if any(run[-1] is not None for run in runs):
                break
            try:
                levels = _synthetic_divide(levels, alpha, beta, s, logs)
            except InexactDivisionError:
                break
            z_lists = tuple(run[:-1] for run in runs)
            mult += 1
        if mult:
            factors.append(((alpha, beta), mult))
    residual_deg = len(z_lists[0]) - 1
    return FactorReport(
        input=f,
        field=spec,
        linear_factors=tuple(factors),
        leading_coeff=leading.to_text(),
        residual_degree_in_z=residual_deg,
        fully_split=residual_deg == 0,
    )


def _moore_det(u: MultiPoly, v: MultiPoly, q: int) -> MultiPoly:
    """The Moore determinant u^q*v - u*v^q: v times the product of u - c*v over F_q.

    Homogenising x^q - x = prod_c (x - c) gives prod_c (u - c*v) =
    u^q - u*v^(q-1) for any u, v over F_q (E. H. Moore, Bull. AMS 2 (1896);
    Lidl and Niederreiter, *Finite Fields*, ch. 3).  q is a power of the
    characteristic, so both powers are the Frobenius map of MultiPoly.__pow__.
    """
    return u**q * v - u * v**q


def _splitting_report(e: ExponentPair, forms: _Forms, ok: bool) -> tuple[bool, FactorReport]:
    """The verdict ok on T(A, B) = the product of Z - a*X - b*Y over forms.

    The forms are listed lazily, so a verdict builds none of them.  On a
    mismatch the residual Z-degree is deg_Z T = A - 2d (see t_poly).
    """
    return ok, FactorReport(
        input=f"T({e.A},{e.B}) over {e.field}",
        field=e.field,
        linear_factors=forms,
        leading_coeff="1",
        residual_degree_in_z=0 if ok else e.A - 2 * e.d,
        fully_split=ok,
    )


def check_closed_form(which: str, p: int, r: int, ceiling: int = DESK_CEILING) -> None:
    """The refusals of the closed-form check ``which`` ("eq1" or "eq2") over
    F_q, q = p^r, building nothing: CeilingError when q exceeds the ceiling,
    then ExponentOverflowError when the check writes an exponent at or above
    EXPONENT_CAP (eq1's Moore determinant holds Y^(q+1), and eq2's
    X*Y^(q+1)*Z*R holds Y^(q^2+q))."""
    check_ceiling(p, r, ceiling)
    q = p**r
    if {"eq1": q + 1, "eq2": q * q + q}[which] >= EXPONENT_CAP:
        raise ExponentOverflowError(
            f"exponent too large: the {which} check for q = {p}^{r} writes exponents of "
            f"2^{EXPONENT_CAP.bit_length() - 1} or more")


def verify_fact_eq1(p: int, r: int, ceiling: int = DESK_CEILING) -> tuple[bool, FactorReport]:
    """Check that the quotient for (p^r, 1) splits into its closed-form factors.

    The claimed identity: over F_q, q = p^r, T equals the product P of
    Z - alpha*X + (alpha - 1)*Y over all alpha other than 0, 1.  With
    u = Z - Y and v = X - Y these forms are u - alpha*v, and alpha = 0, 1
    give Z - Y and Z - X, so by Moore's identity (see _moore_det)
    det(u, v) = (X - Y)*(Z - Y)*(Z - X)*P = V_1*P.  As R = V_1*T (r_poly)
    and V_1 != 0 cancels in the integral domain F_q[X,Y,Z], T = P exactly
    when R = det(u, v).  Both sides have O(1) terms at every q: T is never
    built and nothing is divided.  The tests multiply the forms out as the
    oracle.  Refuses as check_closed_form does, before the field is built.
    """
    check_closed_form("eq1", p, r, ceiling)
    spec = make_field(p, r)
    q, one = spec.order(), spec.one()
    X, Y, Z = MultiPoly.gens(spec)
    e = ExponentPair(q, 1, spec)
    ok = r_poly(e) == _moore_det(Z - Y, X - Y, q)
    forms = _Forms(q - 2, lambda: ((a, one - a) for a in spec.elements() if a and a != one))
    return _splitting_report(e, forms, ok)


def verify_fact_eq2(p: int, r: int, ceiling: int = DESK_CEILING) -> tuple[bool, FactorReport]:
    """Check the companion splitting for the pair (p^(2r) - 1, p^r - 1).

    Over F_q, q = p^r, d = q - 1, T equals the product P of
    Z - alpha*X - beta*Y over all nonzero alpha, beta; the factor count is
    (q - 1)^2, its degree in Z.  By Moore's identity (see _moore_det),
    det(Z, Y) = Y*u and det(X, Y) = Y*v, where u = Z*(Z^d - Y^d) and
    v = X*(X^d - Y^d); as alpha^q = alpha, u - alpha*v is the product of
    Z - alpha*X - beta*Y over all beta.  So det(u, v) = v*u*(Z^d - X^d)*P
    (alpha = 0, then beta = 0), and det(Y*u, Y*v) = Y^(q+1)*det(u, v) =
    X*Y^(q+1)*Z*V_d*P.  As R = V_d*T (r_poly) and X*Y^(q+1)*Z*V_d != 0
    cancels in the integral domain F_q[X,Y,Z], T = P exactly when
    X*Y^(q+1)*Z*R = det(Y*u, Y*v), with O(1) terms at every q.  The
    report generates its (q - 1)^2 forms only when they are read, so the
    ceiling is on q, and the refusals are those of check_closed_form.
    """
    check_closed_form("eq2", p, r, ceiling)
    spec = make_field(p, r)
    q = spec.order()
    X, Y, Z = MultiPoly.gens(spec)
    e = ExponentPair(q * q - 1, q - 1, spec)
    multiplier = MultiPoly.monomial(spec, (1, q + 1, 1))  # X*Y^(q+1)*Z
    ok = multiplier * r_poly(e) == _moore_det(_moore_det(Z, Y, q), _moore_det(X, Y, q), q)
    forms = _Forms((q - 1) ** 2,
                   lambda: ((a, b) for a in spec.elements() if a for b in spec.elements() if b))
    return _splitting_report(e, forms, ok)


def divides(f: MultiPoly, g: MultiPoly) -> bool:
    """True iff f divides g exactly; False is a verdict, not an error."""
    if f.is_zero():
        raise ValueError("divisibility by the zero polynomial is undefined")
    try:
        exact_divide(g, f)
    except InexactDivisionError:
        return False
    return True


def signature_witness(e: ExponentPair) -> list[SignatureWitness]:
    """All lower and upper signature witnesses for the intermediate quotient.

    Lower signatures have length B relative to X - theta*Y for each theta
    with theta^(A-B) = 1, theta^d != 1; upper signatures have length A - B
    relative to X - zeta*Y for each zeta with zeta^B = 1, zeta^d != 1.
    Requires B != d and A - B != d (otherwise one of the two signature
    families is empty and this route says nothing; see
    eisenstein_like_check for the companion criterion) and, in
    characteristic p, that p divides neither B nor A - B.
    """
    A, B, d = e.A, e.B, e.d
    if B == d or A - B == d:
        raise ValueError(
            f"(A,B)=({A},{B}) has B = d or A - B = d; the signature route "
            "does not apply -- see eisenstein_like_check"
        )
    p = e.field.p
    if p and (B % p == 0 or (A - B) % p == 0):
        raise ValueError(
            f"characteristic {p} divides B or A - B; signatures degenerate"
        )
    # one scan, and one FieldTooSmallError naming the degree that holds
    # every root, before any work; each family takes its roots from it
    roots = e.field.roots_of_unity(math.lcm(B, A - B))
    one = e.field.one()
    # (kind, length, root order, Z powers of the checked coefficients; deg_Z I = A)
    families = (
        ("lower", B, A - B, range(B + 1)),
        ("upper", A - B, B, range(A, B - 1, -1)),
    )
    I = i_poly(e)
    witnesses = []
    for kind, length, order, z_powers in families:
        for root in roots:
            if root**order != one or root**d == one:
                continue
            form = LinearForm(e.field, 1, -root)
            checks = tuple(
                (k, linear_multiplicity(I.coeff_of("Z", k), form)) for k in z_powers
            )
            mults = [m for _, m in checks]
            verdict = (
                mults[0] == 1
                and all(m >= 1 for m in mults[1:length])
                and mults[length] == 0
            )
            witnesses.append(SignatureWitness(kind, length, root, checks, verdict))
    return witnesses


def eisenstein_like_check(f: MultiPoly, P: LinearForm) -> bool:
    """Irreducibility via the constant-coefficient power criterion.

    True iff f, viewed in Z with bivariate coefficients, has Z-constant
    coefficient equal to a unit times a positive power of P while P does
    not divide the Z^1 coefficient.  A True verdict proves irreducibility
    of the homogeneous f over the coefficient field.
    """
    hom = is_homogeneous(f)
    if hom is None or hom == ZERO_POLY:
        raise ValueError("the criterion applies to homogeneous polynomials only")
    if P.is_zero():
        raise ValueError("P must be a nonzero linear form")
    f0 = f.coeff_of("Z", 0)
    if f0.is_zero():
        return False
    # f0 is homogeneous, so it is a unit times P^k exactly when k = deg f0
    k = linear_multiplicity(f0, P)
    if k < 1 or k != f0.total_degree():
        return False
    return linear_multiplicity(f.coeff_of("Z", 1), P) == 0


def grad_eval_identity(k: int, phi, psi) -> bool:
    """Check the evaluated Z-derivative of the (k,1) quotient at (phi, psi, 1).

    phi and psi must be (k-1)-th roots of unity with phi, psi, 1 pairwise
    distinct, and the characteristic must divide neither k nor k - 1; the
    asserted value is (k - 1) / ((1 - phi)(1 - psi)).
    """
    field = field_of(phi)
    if field_of(psi) != field:
        raise ValueError("phi and psi must live in one field")
    phi, psi = field.coerce(phi), field.coerce(psi)
    p = field.p
    if p and (k % p == 0 or (k - 1) % p == 0):
        raise ValueError(f"characteristic {p} divides k or k - 1")
    one = field.one()
    if phi ** (k - 1) != one or psi ** (k - 1) != one:
        raise ValueError(f"phi and psi must be (k-1)-th roots of unity, k={k}")
    if phi == psi or phi == one or psi == one:
        raise ValueError("phi, psi and 1 must be pairwise distinct")
    T = t_poly(ExponentPair(k, 1, field))
    lhs = partial_derivative(T, "Z").evaluate((phi, psi, 1))
    rhs = field.from_int(k - 1) / ((one - phi) * (one - psi))
    return lhs == rhs
