"""Number fields K = Q[theta]/(f), their elements, primes, and valuations.

Only the order Z[theta] is supported.  Every prime-sensitive operation runs
the Dedekind criterion first and raises NonMonogenicAtP rather than silently
computing in a non-maximal order.

Element arithmetic is fraction-free: an element is stored as one integer
vector over a positive denominator, in lowest terms, products are reduced
through a table of theta^k mod f, and inverses and norms come from Bareiss
elimination on the integer matrix of multiplication by an element (Cohen,
GTM 138, section 4.2).  Rational coordinates are built only when read.

Splitting is Kummer-Dedekind: the primes above p correspond to the
irreducible factors of f mod p, with e = multiplicity and f_deg = degree.
Valuations go through the p-adic block factorization of f: the block lifted
from g^e is the local factor F_P, and

    v_P(alpha) = v_p(Res(F_P, A)) / f_deg      (A integral representative)

corrected for the power of p cleared from denominators.  Each valuation is one
certified pass: a lift mod p^m is correct mod p^m, so the first value below m
is exact; m starts at the precision held for p (1, no lift, on a fresh field)
and doubles only while p^m divides it.  At e = 1, O_P is Z_p[x]/(F_P), so one
image A mod (F_P, p^m) gives both the valuation and the unit residue
(`padic_unit`), with the uniformizer and the residue of pi/p cached on the
prime; at a block x - r it is A(r).  Residue maps divide the reduced
representative by the cleared p-power inside Z/p^m[x]/(F_P), valid in the DVR
whatever the ramification; with no p in the denominator they reduce mod (p, g).
"""

from fractions import Fraction
from math import gcd, prod

from .errors import (
    NoRealConjugates,
    NonMonogenicAtP,
    NormforgeError,
    NotAUnit,
    PrecisionExhausted,
    SearchExhausted,
)
from .finitefield import FiniteField, power_test_in_extension
from .hensel import crt_idempotents, lift_blocks
from .intfunc import centered_residue, crt, factorint, is_prime, valuation_int
from .modp import (
    _convolve,
    _frac_mod,
    factor_poly_mod_p,
    padd,
    peval,
    pgcd,
    pmod,
    pmul,
    pnormalize,
    psub,
    trim,
)
from .polyq import (
    RationalInterval,
    UniPoly,
    _cleared,
    _lowest_terms,
    real_root_isolate,
    refine_root,
    sign_at_root,
)

INF = float("inf")

MAX_PRECISION = 512


class NumberField:
    """K = Q[theta]/(f) with f monic irreducible over Z."""

    def __init__(self, poly, name=None, check_irreducible=True):
        if not isinstance(poly, UniPoly):
            poly = UniPoly(poly)
        if poly.degree is None or poly.degree < 1:
            raise NormforgeError("defining polynomial must have degree >= 1")
        if not poly.is_monic():
            raise NormforgeError("defining polynomial must be monic")
        if poly.den != 1:
            raise NormforgeError("defining polynomial must have integer coefficients")
        if check_irreducible and poly.degree > 1:
            from .zfactor import is_irreducible_over_q

            if not is_irreducible_over_q(poly.num):
                raise NormforgeError("defining polynomial is reducible over Q")
        self.poly = poly
        self.degree = poly.degree
        self.name = name or f"Q[x]/({_poly_label(poly)})"
        self._block_cache = {}  # p -> (M, local blocks mod p^M), one lift per p
        self._splitting_cache = {}
        self._mu_cache = {}  # q -> whether a primitive q-th root of unity lies in K
        self._real_roots = None
        self._high_powers = None

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.poly == other.poly

    def __hash__(self):
        return hash(self.poly)

    def __repr__(self):
        return f"NumberField({self.name})"

    def element(self, coords):
        """Element from power-basis coordinates (length = degree), or a rational."""
        if isinstance(coords, FieldElement):
            if coords.field is not self and coords.field != self:
                raise NormforgeError("element belongs to another field")
            return coords
        if isinstance(coords, (int, Fraction)):
            num = [coords.numerator] + [0] * (self.degree - 1)
            return FieldElement(self, num, coords.denominator)
        num, den = _cleared(coords)
        if len(num) != self.degree:
            raise NormforgeError("coordinate length must equal the field degree")
        return FieldElement(self, num, den)

    def gen(self):
        if self.degree == 1:
            return self.element(-self.poly.num[0])
        return self.element([0, 1] + [0] * (self.degree - 2))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def high_powers(self):
        """theta^k mod f as integer rows of length n, for k = n .. 2n-2."""
        if self._high_powers is None:
            row = [-c for c in self.poly.num[:-1]]
            rows = []
            for _ in range(self.degree - 1):
                rows.append(row)
                row = _times_x(row, self.poly.num)
            self._high_powers = rows
        return self._high_powers

    def real_root_intervals(self):
        if self._real_roots is None:
            self._real_roots = real_root_isolate(self.poly)
        return self._real_roots

    def to_json(self):
        return {"poly": self.poly.to_json(), "name": self.name}

    @classmethod
    def from_json(cls, data):
        return cls(UniPoly.from_json(data["poly"]), name=data.get("name"))

    @classmethod
    def rationals(cls):
        return cls(UniPoly([0, 1]), name="Q")

    @classmethod
    def cyclotomic(cls, n):
        from .polyq import cyclotomic_poly

        return cls(cyclotomic_poly(n), name=f"Q(zeta_{n})", check_irreducible=False)


def _poly_label(poly):
    bits = []
    for i, c in enumerate(poly.num):
        if c == 0:
            continue
        if i == 0:
            bits.append(str(c))
        elif i == 1:
            bits.append(f"{c}x" if c != 1 else "x")
        else:
            bits.append(f"{c}x^{i}" if c != 1 else f"x^{i}")
    return " + ".join(bits) if bits else "0"


class FieldElement:
    """Element num(theta) / den of a NumberField, in the power basis of theta.

    num is an integer vector of length degree and den a positive integer with
    gcd(den, *num) == 1, so zero is [0, ..., 0] over 1.
    """

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field, num, den):
        self.field = field
        self.num, self.den = _lowest_terms(num, den)
        self._coords = None

    @property
    def coords(self):
        """The coordinates as Fractions, built on first read."""
        if self._coords is None:
            self._coords = [Fraction(c, self.den) for c in self.num]
        return self._coords

    def is_zero(self):
        return not any(self.num)

    def is_rational(self):
        return not any(self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise NormforgeError("element is not rational")
        return Fraction(self.num[0], self.den)

    def poly(self):
        return UniPoly(self.coords)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and (self.field is other.field or self.field == other.field)
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.field, tuple(self.coords)))

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise NormforgeError("mixed fields")
            return other
        return self.field.element(other)

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        return FieldElement(self.field, [a * db + b * da for a, b in zip(self.num, other.num)], da * db)

    def __sub__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        return FieldElement(self.field, [a * db - b * da for a, b in zip(self.num, other.num)], da * db)

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            k = other.numerator
            return FieldElement(self.field, [a * k for a in self.num], self.den * other.denominator)
        other = self._coerce(other)
        n = len(self.num)
        conv = _convolve(self.num, other.num)
        red = conv[:n]
        for c, row in zip(conv[n:], self.field.high_powers()):
            if c:
                for i, r in enumerate(row):
                    red[i] += c * r
        return FieldElement(self.field, red, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self):
        """alpha^-1 by Cramer's rule on the matrix of multiplication by alpha."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0")
        n = len(self.num)
        cols = _mult_columns(self.field.poly.num, self.num)
        # augmented rows [M | e_0]: M x = e_0 holds the coordinates of 1 / a
        rows = [[col[i] for col in cols] + [int(i == 0)] for i in range(n)]
        det = _bareiss(rows, n)
        if det == 0:
            raise NormforgeError("defining polynomial not irreducible?")
        y = [0] * n  # y = det * x, integral by Cramer's rule
        for i in range(n - 1, -1, -1):
            r = rows[i]
            y[i] = (det * r[n] - sum(r[j] * y[j] for j in range(i + 1, n))) // r[i]
        return FieldElement(self.field, [self.den * c for c in y], det)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def norm(self):
        """N_{K/Q}(alpha), the determinant of multiplication by alpha."""
        if self.is_zero():
            return Fraction(0)
        return Fraction(_mult_det(self.field.poly.num, self.num), self.den ** len(self.num))

    def __repr__(self):
        return f"FieldElement({self.coords} in {self.field.name})"


def _times_x(v, f):
    """x * v mod the monic integer f, for v of length deg f."""
    t = v[-1]
    if not t:
        return [0] + v[:-1]
    return [-t * f[0]] + [v[i - 1] - t * f[i] for i in range(1, len(v))]


def _mult_columns(f, a):
    """Columns x^j * a mod f, j < deg f, of the integer matrix of
    multiplication by a on Z[x]/(f), for monic integer f and any integer a."""
    n = len(f) - 1
    k = max(len(a) - n, 0)
    col = list(a[k:]) + [0] * (n - len(a) + k)
    for c in reversed(a[:k]):  # Horner on the low part reduces a mod f
        col = _times_x(col, f)
        col[0] += c
    cols = [col]
    for _ in range(n - 1):
        col = _times_x(col, f)
        cols.append(col)
    return cols


def _bareiss(rows, n):
    """Fraction-free elimination of the first n columns, in place.

    Rows may carry further columns (right-hand sides) along.  Afterwards
    rows[i][i] are the pivots and the entries right of them form the
    fraction-free echelon form.  Returns the determinant of the leading
    n x n block (0 when it is singular).
    """
    sign, prev = 1, 1
    for k in range(n - 1):
        if not rows[k][k]:
            swap = next((i for i in range(k + 1, n) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        top = rows[k][k + 1:]
        pivot = rows[k][k]
        for i in range(k + 1, n):
            r = rows[i]
            a = r[k]
            rows[i] = r[:k + 1] + [(pivot * x - a * y) // prev for x, y in zip(r[k + 1:], top)]
        prev = pivot
    return sign * rows[n - 1][n - 1]


def _mult_det(f, a):
    """Res(f, a) = N(a(theta)) for monic integer f: the determinant of
    multiplication by a on Z[x]/(f), eliminated by columns."""
    return _bareiss(_mult_columns(f, a), len(f) - 1)


class PrimeIdeal:
    """Prime of K above p, presented Kummer-Dedekind style as (p, g(theta))."""

    __slots__ = ("field", "p", "g", "e", "f_deg", "index", "_residue_field", "_pi", "_w", "_w_inv")

    def __init__(self, field, p, g, e, f_deg, index):
        self.field = field
        self.p = p
        self.g = tuple(g)  # monic irreducible mod p, int coefficients
        self.e = e
        self.f_deg = f_deg
        self.index = index  # position in the canonical splitting order
        self._residue_field = (FiniteField(p) if f_deg == 1
                               else FiniteField(p, list(g), check=False))
        self._pi = self._w = self._w_inv = None  # pi, and at e = 1 pi / p mod P and its inverse

    def residue_field(self):
        return self._residue_field

    def __eq__(self, other):
        return (
            isinstance(other, PrimeIdeal)
            and self.field == other.field
            and self.p == other.p
            and self.g == other.g
        )

    def __hash__(self):
        return hash((self.field, self.p, self.g))

    def __repr__(self):
        return f"PrimeIdeal(p={self.p}, g={list(self.g)}, e={self.e}, f={self.f_deg})"

    def to_json(self):
        return {"p": self.p, "g": list(self.g), "e": self.e, "f": self.f_deg}


def dedekind_criterion_ok(field, p):
    """True iff Z[theta] is maximal at p (Dedekind's criterion)."""
    return _dedekind_holds(field.poly.num, p, factor_poly_mod_p(field.poly.num, p))


def _dedekind_holds(f, p, factors):
    """Dedekind's criterion for monic integer f and its factorization mod p."""
    gbar = [1]
    hbar = [1]
    for g, e in factors:
        gbar = pmul(gbar, g, p)
        for _ in range(e - 1):
            hbar = pmul(hbar, g, p)
    # with any integer lifts of gbar and hbar, T = (g*h - f)/p; mod p^2 suffices
    diff = psub(pmul(gbar, hbar, p * p), f, p * p)
    if any(c % p for c in diff):
        raise AssertionError("Dedekind lift arithmetic broke")
    Tbar = pnormalize([c // p for c in diff], p)
    d = pgcd(pgcd(Tbar, gbar, p), hbar, p)
    return len(d) == 1


def splitting_type(field, p):
    """Primes of K above p via Kummer-Dedekind; asserts sum(e*f) = n."""
    key = p
    if key in field._splitting_cache:
        return field._splitting_cache[key]
    if not is_prime(p):
        raise NormforgeError(f"{p} is not prime")
    factors = factor_poly_mod_p(field.poly.num, p)
    if not _dedekind_holds(field.poly.num, p, factors):
        raise NonMonogenicAtP(f"Z[theta] is not maximal at {p} for {field.name}")
    primes = []
    for idx, (g, e) in enumerate(factors):
        primes.append(PrimeIdeal(field, p, g, e, len(g) - 1, idx))
    total = sum(P.e * P.f_deg for P in primes)
    assert total == field.degree, "fundamental identity sum(e*f) = n violated"
    field._splitting_cache[key] = primes
    return primes


def local_blocks(field, p, m):
    """(M, blocks): the local factors of f at p in splitting_type order, mod
    p^M for the highest M >= m lifted so far; at M = 1 they are g^e mod p."""
    held = field._block_cache.get(p)
    if held is not None and held[0] >= m:
        return held
    blocks = []
    for P in splitting_type(field, p):
        b = [1]
        for _ in range(P.e):
            b = pmul(b, list(P.g), p)
        blocks.append(b)
    if m > 1:
        blocks = lift_blocks(field.poly.num, blocks, p, m)
    field._block_cache[p] = held = (m, blocks)
    return held


def _integral_rep(alpha, p):
    """(A, s, d0) with A an integer vector, A(theta) = p^s * d0 * alpha,
    gcd(d0, p) = 1, s = p-part of the coordinate denominators."""
    A, den = alpha.num, alpha.den
    s = valuation_int(den, p) if den % p == 0 else 0
    return A, s, den // p ** s


def valuation(field, P, alpha):
    """v_P(alpha), from R = Res(F, A) mod p^m for P's block F, starting at
    the precision held for p; returns the float +inf for alpha = 0."""
    alpha = field.element(alpha)
    if alpha.is_zero():
        return INF
    p = P.p
    A, s, _ = _integral_rep(alpha, p)
    m = field._block_cache.get(p, (1,))[0]  # the precision held for p
    while m <= MAX_PRECISION:
        m, blocks = local_blocks(field, p, m)
        t = _resultant_valuation(blocks[P.index], A, p, m)
        if t is not None:
            if t % P.f_deg != 0:
                raise AssertionError("resultant valuation not divisible by f_deg")
            return t // P.f_deg - P.e * s
        m *= 2
    raise PrecisionExhausted(f"valuation at p={p} beyond precision cap")


def _resultant_valuation(F, A, p, m):
    """v_p(R) for R = Res(F, A) mod p^m if p^m does not divide it, else None.

    F is the lifted monic block, known mod p^m only.  R is an integer
    polynomial in the coefficients, so a lift mod p^m gives R correct mod
    p^m, and any valuation below m is exact.  A block x - r of degree one
    gives R = A(r), one Horner pass mod p^m.  Otherwise A is reduced
    centered mod p^m; F is monic, so R = det(multiplication by A mod F).
    """
    q = p ** m
    if len(F) == 2:
        exact = peval(A, -F[0], q)
    else:
        a = [centered_residue(c, q) for c in A]
        if not any(a):
            return None
        exact = _mult_det([centered_residue(c, q) for c in F], a)
    if exact % q == 0:
        return None
    return valuation_int(exact, p)


def padic_unit(field, P, alpha):
    """(v_P(alpha), residue of alpha / pi^v) at P with e = 1.

    pi = uniformizer(field, P) is p w, w a unit whose residue and its
    inverse are cached on P, so the residue of alpha / pi^v is that of
    alpha / p^v (`_unit_image`) times w^(-v).  Zero raises NotAUnit.
    """
    alpha = field.element(alpha)
    if alpha.is_zero():
        raise NotAUnit("zero has no unit part")
    k = P.residue_field()
    if P._w is None:
        _, W, scale, d = _unit_image(field, P, uniformizer(field, P))
        P._w = k.element([c // scale * d for c in W])
        P._w_inv = P._w.inverse()
    v, B, scale, d = _unit_image(field, P, alpha)
    if P.f_deg == 1:  # in F_p the twist is one integer power, cheaper than FFElem's
        return v, k.element(B[0] // scale * d * pow(P._w.coeffs[0], -v, P.p))
    res = k.element([b // scale * d for b in B])
    if not v or P._w.coeffs == (1,):  # w = 1 where P is unramified and alone over p
        return v, res
    return v, res * (P._w_inv ** v if v > 0 else P._w ** -v)


def _unit_image(field, P, alpha):
    """(v_P(alpha), B, p^t, d0^-1 mod p) at P with e = 1, for alpha != 0.

    O_P = Z_p[x]/(F), F P's block, and alpha = A(theta) / (p^s d0) maps to
    B = A mod (F, p^m), correct mod p^m: once B != 0, t = v_p(gcd B) is
    exact, v = t - s, and alpha / p^v has the residue B / (p^t d0) mod (p, g).
    """
    p = P.p
    A, s, d0 = _integral_rep(alpha, p)
    m = field._block_cache.get(p, (1,))[0]  # the precision held for p
    while m <= MAX_PRECISION:
        m, blocks = local_blocks(field, p, m)
        q, F = p ** m, blocks[P.index]
        B = [peval(A, -F[0], q)] if len(F) == 2 else pmod(A, F, q)
        if any(B):
            t = valuation_int(gcd(*B), p)
            return t - s, B, p ** t, pow(d0, -1, p)
        m *= 2
    raise PrecisionExhausted(f"valuation at p={p} beyond precision cap")


def residue_map(field, P, alpha):
    """Image of alpha in the residue field of P; requires v_P(alpha) = 0.

    With p^s in the denominator (s > 0), A = p^s * d0 * alpha is reduced mod
    the block lifted to at least p^(s+1) and divided by p^s there, which
    leaves it correct mod p.  With s = 0 no lift is needed: the block is g^e
    mod p, so A mod (p, g) is the residue.
    """
    alpha = field.element(alpha)
    if alpha.is_zero():
        raise NotAUnit("zero has positive valuation")
    p = P.p
    A, s, d0 = _integral_rep(alpha, p)
    if s:
        m, blocks = local_blocks(field, p, s + 1)
        A = pmod(A, blocks[P.index], p ** m)
        # alpha unit at P means A(theta) lies in p^s * O_P exactly
        if any(c % p ** s for c in A):
            raise NotAUnit("element has nonzero valuation at P (p-part mismatch)")
        A = [c // p ** s for c in A]
    red = pmod(A, P.g, p)
    if not red:
        raise NotAUnit("element reduces to zero at P")
    inv_d0 = pow(d0, -1, p)
    return P.residue_field().element([c * inv_d0 for c in red])


def residue_nonqth_power(field, P, c, q):
    """True iff c is NOT a q-th power modulo P (c a unit at P)."""
    c = field.element(c)
    v = valuation(field, P, c)
    if v != 0:
        raise NotAUnit(f"v_P(c) = {v} != 0")
    r = residue_map(field, P, c)
    return not power_test_in_extension(r, q, P.f_deg)


def omega_membership(field, alpha, q):
    """Total nonnegativity at real embeddings (q = 2); everything otherwise.

    Membership is relative to this field's real embeddings only; coherence
    along a tower is a reported observation, not decided here.
    """
    if q != 2:
        return True
    alpha = field.element(alpha)
    if alpha.is_zero():
        return True
    g = alpha.poly()
    return all(sign_at_root(g, field.poly, iv) >= 0 for iv in field.real_root_intervals())


def theta_phi_membership(field, c, S, q):
    """(c in Theta_q(K, S), c in Phi_q(K)).

    Theta: v_P(c - 1) >= 1 at every P in S (vacuously true for empty S).
    Phi:   v_Q(c - 1) >= 3 * v_Q(q) at every Q above q.
    c = 1 passes both: the zero divisor is divisible by everything.
    """
    c = field.element(c)
    cm1 = c - field.one()
    if cm1.is_zero():
        return True, True
    in_theta = all(valuation(field, P, cm1) >= 1 for P in S)
    in_phi = all(valuation(field, Q, cm1) >= 3 * Q.e for Q in splitting_type(field, q))
    return in_theta, in_phi


def element_support(field, alpha):
    """All primes P with v_P(alpha) != 0, with their valuations.

    Returns a list of (PrimeIdeal, v) sorted by (p, index).  Poles live over
    primes dividing the coordinate denominator; zeros over primes dividing
    Res(f, A) for the integral representative A (no cancellation: every
    v_P(A(theta)) is >= 0).
    """
    alpha = field.element(alpha)
    if alpha.is_zero():
        raise NormforgeError("support of 0 is everything")
    A, den = alpha.num, alpha.den
    num_res = _mult_det(field.poly.num, A)
    candidates = set(factorint(den)) if den != 1 else set()
    if num_res != 0:
        candidates |= set(factorint(num_res)) if abs(num_res) != 1 else set()
    out = []
    for p in sorted(candidates):
        for P in splitting_type(field, p):
            v = valuation(field, P, alpha)
            if v != 0:
                out.append((P, v))
    return out


def conjugate_interval(alpha, width=Fraction(1, 1024)):
    """Enclosures (min_interval, max_interval) of alpha over real embeddings."""
    field = alpha.field
    roots = field.real_root_intervals()
    if not roots:
        raise NoRealConjugates(f"{field.name} has no real embeddings")
    g = alpha.poly()
    encl = []
    for iv in roots:
        cur = iv
        lo, hi = g.eval_interval(cur.lo, cur.hi)
        while hi - lo > width:
            cur = refine_root(field.poly, cur, cur.width / 4)
            lo, hi = g.eval_interval(cur.lo, cur.hi)
        encl.append((lo, hi))
    min_enc = min(encl, key=lambda t: t[0])
    max_enc = max(encl, key=lambda t: t[1])
    return RationalInterval(*min_enc), RationalInterval(*max_enc)


# ---------------------------------------------------------------------------
# constructive strong approximation


UNIFORMIZER_TRIES = 64


def uniformizer(field, P):
    """pi with v_P(pi) = 1 and v = 0 at the other primes over the same p,
    searched once per prime and cached on P."""
    if P._pi is None:
        P._pi = _search_uniformizer(field, P)
    return P._pi


def _search_uniformizer(field, P):
    p = P.p
    siblings = [Q for Q in splitting_type(field, p) if Q != P]
    if not siblings and P.e == 1:
        return field.element(p)
    gtheta = UniPoly(P.g)(field.gen())
    for j in range(UNIFORMIZER_TRIES):
        cand = gtheta + field.element(p * j)
        if valuation(field, P, cand) != 1:
            continue
        if all(valuation(field, Q, cand) == 0 for Q in siblings):
            return cand
    raise SearchExhausted(f"no uniformizer found for {P}")


def strong_approx_element(field, valuations=(), congruences=(), positivity=False):
    """Element with prescribed exact valuations and congruences.

    valuations:  [(PrimeIdeal, v)] exact orders, distinct primes.
    congruences: [(PrimeIdeal, target FieldElement-or-int, min_valuation k)]
                 meaning v_P(result - target) >= k; target must be a unit or
                 integral at P.
    positivity:  require Omega_2 membership (totally nonnegative).

    Construction: per rational prime p, a residue target in Z[x]/p^m_p is
    assembled block by block (uniformizer powers for exact orders, the
    literal target for congruences, p^shift for untracked blocks), the
    targets are merged by coefficient-wise integer CRT, and the result is
    divided by the cleared p-powers.  Every constraint is re-verified; the
    loop adds multiples of the full modulus, which preserves all
    congruences, until the result is nonzero (and totally nonnegative when
    asked).  Deterministic throughout.
    """
    byp = {}
    seen = set()
    for P, v in valuations:
        if (P.p, P.index) in seen:
            raise NormforgeError("duplicate prime in constraints")
        seen.add((P.p, P.index))
        byp.setdefault(P.p, {"val": {}, "cong": {}})["val"][P.index] = (P, v)
    for P, target, k in congruences:
        if (P.p, P.index) in seen:
            raise NormforgeError("duplicate prime in constraints")
        seen.add((P.p, P.index))
        byp.setdefault(P.p, {"val": {}, "cong": {}})["cong"][P.index] = (P, field.element(target), k)

    n = field.degree
    residue_targets = []  # (modulus p^m, coefficient vector length n)
    shifts = {}  # p -> cleared power
    for p in sorted(byp):
        data = byp[p]
        primes = splitting_type(field, p)
        neg = min((v for (_, v) in data["val"].values()), default=0)
        shift = max(0, -neg)
        shifts[p] = shift
        need = max(
            [abs(v) + shift * P.e for (P, v) in data["val"].values()]
            + [-(-k // P.e) + shift for (P, _, k) in data["cong"].values()]
            + [1]
        )
        # v_P(p^m) = m e exceeds every prescribed order and congruence depth
        m = need + 1
        q = p ** m
        # the idempotents are computed mod p^m, so a deeper lift gives the same ones
        idem = crt_idempotents(local_blocks(field, p, m)[1], p, m)
        target_poly = []
        for P in primes:
            if P.index in data["val"]:
                _, v = data["val"][P.index]
                w = v + shift * P.e
                if w == 0:
                    comp = [1]
                else:
                    pi = uniformizer(field, P)
                    comp = _int_coeff_vector(pi ** w, q)
            elif P.index in data["cong"]:
                _, tgt, k = data["cong"][P.index]
                comp = _int_coeff_vector(tgt * (p ** shift), q)
            else:
                comp = [p ** shift % q]
            target_poly = padd(target_poly, pmul(comp, idem[P.index], q), q)
        # reduce modulo the full f to stay inside the power basis
        red = pmod(target_poly, field.poly.num, q)
        residue_targets.append((q, red + [0] * (n - len(red))))

    # coefficient-wise CRT across rational primes
    moduli = [q for q, _ in residue_targets] or [1]
    beta_coords = []
    for i in range(n):
        ress = [vec[i] if i < len(vec) else 0 for _, vec in residue_targets] or [0]
        beta_coords.append(crt(ress, moduli) if residue_targets else 0)
    modulus_all = prod(moduli)
    denom = prod(p ** s for p, s in shifts.items())

    for bump in range(0, 64):
        coords = list(beta_coords)
        coords[0] += bump * modulus_all
        beta = field.element(coords)
        cand = beta * Fraction(1, denom)
        if _verify_constraints(field, cand, valuations, congruences):
            if positivity and not omega_membership(field, cand, 2):
                continue
            return cand
    raise SearchExhausted("strong approximation search exhausted")


def _int_coeff_vector(elem, q):
    return trim([_frac_mod(c, q) for c in elem.coords])


def _verify_constraints(field, cand, valuations, congruences):
    if cand.is_zero():
        return False
    for P, v in valuations:
        if valuation(field, P, cand) != v:
            return False
    for P, target, k in congruences:
        if valuation(field, P, cand - field.element(target)) < k:
            return False
    return True
