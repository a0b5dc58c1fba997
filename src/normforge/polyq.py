"""Univariate polynomials over Q, stored fraction-free.

A polynomial is one integer vector `num`, ascending by degree with no
trailing zero, over a positive denominator `den`, in lowest terms, so
`num == []` is the zero polynomial.  Sums and products run on the integer
vectors, division is one integer pseudo-division (Cohen, GTM 138, section
3.1), and each result is reduced once; the Fraction `coeffs` are built only
when read.  The degree of the zero polynomial is the distinguished value
None, never -1, so accidental arithmetic on it fails loudly.

This module also carries the real-root machinery (Sturm sequences, isolation
into disjoint rational intervals, interval refinement) used for totally-real
and total-nonnegativity questions, and the cyclotomic polynomials.
"""

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import NormforgeError
from .intfunc import factorint
from .modp import _convolve, trim


def _cleared(coeffs):
    """(integer vector, common denominator d) in lowest terms with
    coeffs = vector / d, for rational coeffs."""
    vec = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in vec))
    return [c.numerator * (den // c.denominator) for c in vec], den


def _lowest_terms(num, den):
    """(num, den) over their gcd with den > 0, for an integer list and a
    nonzero integer."""
    if den < 0:
        num, den = [-c for c in num], -den
    g = math.gcd(den, *num)
    if g != 1:
        num, den = [c // g for c in num], den // g
    return num, den


def _reduced(num, den):
    """The UniPoly num / den, for an integer list (trimmed in place) and a
    nonzero integer."""
    poly = object.__new__(UniPoly)
    poly.num, poly.den = _lowest_terms(trim(num), den)
    return poly


class UniPoly:
    """Polynomial num(x) / den over Q, coefficients ascending by degree.

    num is an integer list with no trailing zero and den a positive integer
    with gcd(den, *num) == 1, so zero is [] over 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        num, self.den = _cleared(coeffs)
        self.num = trim(num)

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @property
    def coeffs(self):
        """The coefficients as Fractions, built on each read."""
        return [Fraction(c, self.den) for c in self.num]

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    def is_zero(self):
        return not self.num

    def is_monic(self):
        return bool(self.num) and self.num[-1] == self.den

    def leading(self):
        if not self.num:
            raise NormforgeError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.den == other.den and self.num == other.num

    def __hash__(self):
        # hash(tuple(self.coeffs)): an integer hashes as the equal Fraction
        return hash(tuple(self.num) if self.den == 1 else tuple(self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        den = math.lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        pairs = zip_longest(self.num, other.num, fillvalue=0)
        return _reduced([a * ka + b * kb for a, b in pairs], den)

    def __neg__(self):
        return _reduced([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        return _reduced(_convolve(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise NormforgeError(f"negative power {n} of a polynomial")
        result = UniPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def scale(self, c):
        return self * c

    def divmod(self, other):
        """Integer pseudo-division: the remainder is scaled by the least factor
        that lets the divisor's top entry divide its own, when that is not 1."""
        other = _coerce(other)
        b = other.num
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        n, lc, scale = len(b) - 1, b[-1], 1
        r = list(self.num)
        q = [0] * max(0, len(r) - n)
        for k in range(len(r) - 1, n - 1, -1):  # scale * self.num = q * b + r
            if r[k] % lc:
                g = abs(lc) // math.gcd(r[k], lc)
                r, q, scale = [c * g for c in r[:k + 1]], [c * g for c in q], scale * g
            q[k - n] = t = r[k] // lc
            for i in range(n):
                r[k - n + i] -= t * b[i]
        den = scale * self.den
        return _reduced([c * other.den for c in q], den), _reduced(r[:n], den)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def derivative(self):
        return _reduced([i * c for i, c in enumerate(self.num)][1:], self.den)

    def __call__(self, x):
        """Evaluate by Horner at a number, a UniPoly or a FieldElement.

        This is the one substitution path: self(inner) is the composition and
        self(alpha) the image of alpha in its number field.
        """
        acc = 0
        for c in reversed(self.num):
            acc = acc * x + c
        return acc * Fraction(1, self.den)

    def eval_interval(self, lo, hi):
        """Enclosure of the image of [lo, hi] (naive interval Horner)."""
        accl, acch = Fraction(0), Fraction(0)
        for c in reversed(self.num):
            cands = [accl * lo, accl * hi, acch * lo, acch * hi]
            accl, acch = min(cands) + c, max(cands) + c
        return accl / self.den, acch / self.den

    def monic(self):
        return _reduced(list(self.num), self.num[-1]) if self.num else self

    def primitive_int(self):
        """Integer-coefficient primitive part (positive leading sign kept)."""
        return _reduced(list(self.num), math.gcd(*self.num) or 1)

    def int_coeffs(self):
        if self.den != 1:
            raise NormforgeError("polynomial is not integral")
        return list(self.num)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}*x^{i}" if i else f"{c}")
        return "UniPoly(" + " + ".join(terms) + ")"

    def to_json(self):
        """JSON array of decimal-string coefficients, ascending degree."""
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data):
        return cls([Fraction(str(c)) for c in data])


def _coerce(x):
    return x if isinstance(x, UniPoly) else UniPoly([x])


def poly_gcd(a, b):
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def resultant(f, g):
    """Res(f, g) over Q via the Euclidean recursion, exact: an independent
    reference for the integer determinants of `numberfield`."""
    if f.is_zero() or g.is_zero():
        return Fraction(0)
    res = Fraction(1)
    a, b = f, g
    while True:
        da, db = a.degree, b.degree
        if db == 0:
            return res * b.leading() ** da
        r = a % b
        if r.is_zero():
            return Fraction(0)
        dr = r.degree
        res *= Fraction((-1) ** (da * db)) * b.leading() ** (da - dr)
        a, b = b, r


def yun_squarefree(f):
    """Yun's algorithm: list of (squarefree factor, multiplicity) over Q."""
    f = f.monic()
    out = []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f, 1)]
    w = f // g
    i = 1
    while w.degree and w.degree > 0:
        y = poly_gcd(w, g)
        fac = w // y
        if fac.degree and fac.degree > 0:
            out.append((fac.monic(), i))
        w, g = y, g // y
        i += 1
    return out


# ---------------------------------------------------------------------------
# real roots


class RationalInterval:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise NormforgeError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @property
    def width(self):
        return self.hi - self.lo

    def __contains__(self, x):
        return self.lo <= Fraction(x) <= self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"


def sturm_sequence(f):
    seq = [f, f.derivative()]
    while not seq[-1].is_zero() and seq[-1].degree > 0:
        seq.append(-(seq[-2] % seq[-1]))
    if seq[-1].is_zero():
        seq.pop()
    return seq


def _sign_changes(seq, x):
    signs = []
    for p in seq:
        v = p(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f, lo, hi, seq=None):
    """Number of distinct real roots of squarefree f in (lo, hi]."""
    seq = seq or sturm_sequence(f)
    return _sign_changes(seq, lo) - _sign_changes(seq, hi)


def root_bound(f):
    """Cauchy bound: all real roots lie in (-B, B)."""
    return Fraction(max((abs(c) for c in f.num[:-1]), default=0), abs(f.num[-1])) + 1


def real_root_isolate(f):
    """Disjoint rational intervals, one distinct real root each.

    Requires f squarefree; returns [] when f has no real roots.  The
    bisection keeps the invariant that window endpoints are never roots, so
    Sturm counts on (lo, hi] are open-interval counts and no root can slip
    through a window boundary.
    """
    if f.is_zero():
        raise NormforgeError("cannot isolate roots of the zero polynomial")
    if f.degree == 0:
        return []
    g = poly_gcd(f, f.derivative())
    if g.degree and g.degree > 0:
        raise NormforgeError("real_root_isolate requires a squarefree input")
    seq = sturm_sequence(f)
    bound = root_bound(f)
    found = []
    stack = [(-bound, bound)]  # endpoints strictly outside the root bound
    while stack:
        lo, hi = stack.pop()
        n = count_real_roots(f, lo, hi, seq)
        if n == 0:
            continue
        if n == 1:
            found.append(RationalInterval(lo, hi))
            continue
        mid = (lo + hi) / 2
        if f(mid) != 0:
            stack.extend([(lo, mid), (mid, hi)])
            continue
        found.append(RationalInterval(mid, mid))
        # choose a gap around the exact root containing no other root and
        # with non-root endpoints, then recurse on the outside pieces
        delta = (hi - lo) / 8
        while True:
            a, b = mid - delta, mid + delta
            if f(a) != 0 and f(b) != 0 and count_real_roots(f, a, b, seq) == 1:
                break
            delta = delta * Fraction(7, 16)
        stack.extend([(lo, mid - delta), (mid + delta, hi)])
    found.sort(key=lambda iv: (iv.lo, iv.hi))
    # windows can share a (non-root) endpoint; shrink until strictly disjoint
    changed = True
    while changed:
        changed = False
        for i, (a, b) in enumerate(zip(found, found[1:])):
            if a.hi >= b.lo:
                found[i] = refine_root(f, a, a.width / 4, seq)
                found[i + 1] = refine_root(f, b, b.width / 4, seq)
                changed = True
    for a, b in zip(found, found[1:]):
        assert a.hi < b.lo, "isolation intervals overlap"
    return found


def refine_root(f, interval, width, seq=None):
    """Bisect an isolating interval of squarefree f until its width <= width.

    The interval isolates one root in the half-open sense (lo, hi]; a root at
    hi is exact, a root at lo belongs to a neighbouring interval and lo is
    nudged inward before bisecting.
    """
    lo, hi = interval.lo, interval.hi
    if lo == hi:
        return RationalInterval(lo, hi)
    if f(hi) == 0:
        return RationalInterval(hi, hi)
    seq = seq or sturm_sequence(f)
    step = (hi - lo) / 8
    while f(lo) == 0:
        cand = lo + step
        if f(cand) != 0 and count_real_roots(f, cand, hi, seq) == 1:
            lo = cand
        else:
            step /= 2
    flo = f(lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        fm = f(mid)
        if fm == 0:
            return RationalInterval(mid, mid)
        if (flo > 0) != (fm > 0):
            hi = mid
        else:
            lo, flo = mid, fm
    return RationalInterval(lo, hi)


def sign_at_root(g, f, interval):
    """Sign of g at the root of f isolated by `interval`, as -1 or 1.

    f must be irreducible over Q and g nonzero of degree below deg f, as for
    a field's defining polynomial and an element: then g(root) != 0, so the
    refinement ends once g's enclosure excludes 0.
    """
    if len(g.num) == 1:  # a rational g has its own sign at every root
        return 1 if g.num[0] > 0 else -1
    iv = interval
    while True:
        lo, hi = g.eval_interval(iv.lo, iv.hi)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        iv = refine_root(f, iv, iv.width / 4)


# ---------------------------------------------------------------------------
# cyclotomic polynomials

_CYCLO_CACHE = {}


def cyclotomic_poly(n):
    """The n-th cyclotomic polynomial over Z."""
    if n in _CYCLO_CACHE:
        return _CYCLO_CACHE[n]
    if n == 1:
        out = UniPoly([-1, 1])
    else:
        num = UniPoly([-1] + [0] * (n - 1) + [1])  # x^n - 1
        den = UniPoly.one()
        for d in _divisors(n):
            if d < n:
                den = den * cyclotomic_poly(d)
        out, rem = num.divmod(den)
        assert rem.is_zero()
    _CYCLO_CACHE[n] = out
    return out


def _divisors(n):
    divs = [1]
    for p, e in sorted(factorint(n).items()):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)
