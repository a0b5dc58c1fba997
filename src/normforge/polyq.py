"""Univariate polynomials over Q with exact Fraction coefficients.

Coefficients are stored ascending by degree and the leading coefficient is
kept nonzero, so `coeffs == []` is the zero polynomial.  The degree of the
zero polynomial is the distinguished value None, never -1, so accidental
arithmetic on it fails loudly.

This module also carries the real-root machinery (Sturm sequences, isolation
into disjoint rational intervals, interval refinement) used for totally-real
and total-nonnegativity questions, and the cyclotomic polynomials.
"""

import json
from fractions import Fraction

from .errors import NormforgeError
from .intfunc import factorint


def _trim(coeffs):
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


class UniPoly:
    """Polynomial over Q, coefficients ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _trim([Fraction(c) for c in coeffs])

    @classmethod
    def zero(cls):
        return cls([])

    @classmethod
    def one(cls):
        return cls([1])

    @classmethod
    def x(cls):
        return cls([0, 1])

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def leading(self):
        if not self.coeffs:
            raise NormforgeError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other):
        other = _coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [Fraction(0)] * (n - len(self.coeffs))
        b = other.coeffs + [Fraction(0)] * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)])

    def __neg__(self):
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __mul__(self, other):
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

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
        return UniPoly([Fraction(c) * a for a in self.coeffs])

    def divmod(self, other):
        other = _coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        d = other.degree
        lc = other.leading()
        while len(rem) - 1 >= d and _trim(rem):
            shift = len(rem) - 1 - d
            factor = rem[-1] / lc
            quo[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
            _trim(rem)
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def derivative(self):
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x):
        """Evaluate by Horner at a number, a UniPoly or a FieldElement.

        This is the one substitution path: self(inner) is the composition and
        self(alpha) the image of alpha in its number field.
        """
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_interval(self, lo, hi):
        """Enclosure of the image of [lo, hi] (naive interval Horner)."""
        accl, acch = Fraction(0), Fraction(0)
        for c in reversed(self.coeffs):
            cands = [accl * lo, accl * hi, acch * lo, acch * hi]
            accl, acch = min(cands) + c, max(cands) + c
        return accl, acch

    def monic(self):
        if self.is_zero():
            return self
        lc = self.leading()
        return UniPoly([c / lc for c in self.coeffs])

    def content_int(self):
        """Positive rational c with self/c primitive over Z."""
        if self.is_zero():
            return Fraction(1)
        from math import gcd

        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = den * c.denominator // gcd(den, c.denominator)
        return Fraction(num, den)

    def primitive_int(self):
        """Integer-coefficient primitive part (positive leading sign kept)."""
        if self.is_zero():
            return self
        return self.scale(1 / self.content_int())

    def int_coeffs(self):
        if any(c.denominator != 1 for c in self.coeffs):
            raise NormforgeError("polynomial is not integral")
        return [c.numerator for c in self.coeffs]

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
        if isinstance(data, str):
            data = json.loads(data)
        return cls([Fraction(str(c)) for c in data])


def _coerce(x):
    if isinstance(x, UniPoly):
        return x
    return UniPoly([Fraction(x)])


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
            return res * b.coeffs[0] ** da
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

    def to_json(self):
        return {"lo": str(self.lo), "hi": str(self.hi)}


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
    lc = abs(f.leading())
    b = max((abs(c) / lc for c in f.coeffs[:-1]), default=Fraction(0))
    return b + 1


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
    """Sign of g at the root of squarefree f isolated by `interval`.

    Returns -1, 0, or 1.  Exact zero is only reported when gcd(f, g) vanishes
    on the interval, so for f irreducible and deg g < deg f the answer is a
    definite sign.
    """
    common = poly_gcd(f, g)
    if common.degree and common.degree > 0:
        if interval.lo == interval.hi:
            if common(interval.lo) == 0:
                return 0
        elif count_real_roots(common, interval.lo, interval.hi) > 0:
            return 0
        f = (f // common).monic()
    iv = interval
    while True:
        if iv.lo == iv.hi:
            v = g(iv.lo)
            return 0 if v == 0 else (1 if v > 0 else -1)
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
