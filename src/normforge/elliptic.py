"""Exact elliptic curve arithmetic over Q and the denominator lemmas.

Curves are short Weierstrass y^2 = x^3 + a x + c with rational coefficients;
points are exact Fractions, so every divisibility statement about
denominators d(x_n) and numerators n(. ) is checked in lowest terms over Z.
The two lemmas exercised here:

  * any integer A divides d(x_{km}) for some k (searched within a bound);
  * there is an m with d(x_{lm}) | n(x_{lm}/x_{klm} - k^2)^2 for all k, l.

Both searches are bounded and report NotFound with their ledger rather than
pretending the bound is a proof.
"""

import sys
from fractions import Fraction

from .errors import HypothesisFail, NormforgeError, NotFound, OutputTooLarge


class EllipticCurve:
    """y^2 = x^3 + a x + c over Q, nonsingular."""

    def __init__(self, a, c):
        self.a = Fraction(a)
        self.c = Fraction(c)
        disc = -16 * (4 * self.a ** 3 + 27 * self.c ** 2)
        if disc == 0:
            raise NormforgeError("singular curve: discriminant vanishes")
        self.discriminant = disc

    def contains(self, x, y):
        return y * y == x ** 3 + self.a * x + self.c

    def point(self, x, y):
        return CurvePoint(self, Fraction(x), Fraction(y))

    def infinity(self):
        return CurvePoint(self, None, None)

    def __eq__(self, other):
        return isinstance(other, EllipticCurve) and (self.a, self.c) == (other.a, other.c)

    def __repr__(self):
        return f"EllipticCurve(y^2 = x^3 + {self.a} x + {self.c})"

    def to_json(self):
        return {"a": str(self.a), "c": str(self.c)}


class CurvePoint:
    __slots__ = ("curve", "x", "y")

    def __init__(self, curve, x, y):
        self.curve = curve
        if x is not None and not curve.contains(x, y):
            raise NormforgeError("point is not on the curve")
        self.x = x
        self.y = y

    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        return (
            isinstance(other, CurvePoint)
            and self.curve == other.curve
            and self.x == other.x
            and self.y == other.y
        )

    def __neg__(self):
        if self.is_infinity():
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def __add__(self, other):
        E = self.curve
        if self.is_infinity():
            return other
        if other.is_infinity():
            return self
        if self.x == other.x:
            if self.y == -other.y:
                return E.infinity()
            lam = (3 * self.x ** 2 + E.a) / (2 * self.y)
        else:
            lam = (other.y - self.y) / (other.x - self.x)
        x3 = lam ** 2 - self.x - other.x
        y3 = lam * (self.x - x3) - self.y
        return CurvePoint(E, x3, y3)

    def __repr__(self):
        if self.is_infinity():
            return "CurvePoint(infinity)"
        return f"CurvePoint({self.x}, {self.y})"

    def to_json(self):
        """Decimal-string coordinates; OutputTooLarge where CPython's limit
        on int-to-str conversion refuses one."""
        if self.is_infinity():
            return {"infinity": True}
        limit = sys.get_int_max_str_digits()
        digits = max(_decimal_digits(c) for v in (self.x, self.y) for c in (v.numerator, v.denominator))
        if limit and digits > limit:
            raise OutputTooLarge(f"a coordinate integer has {digits} decimal digits, "
                                 f"past the {limit}-digit limit on printing one")
        return {"x": str(self.x), "y": str(self.y)}


def _decimal_digits(n):
    """Decimal digits of the nonzero integer n, counted without str(n)."""
    n = abs(n)
    d = (n.bit_length() - 1) * 3 // 10 + 1  # 10^(d-1) <= n, as 3/10 < log10(2)
    while n >= 10 ** d:
        d += 1
    return d


def multiply_point(E, P, n):
    """Exact [n]P; [0]P is infinity, [-n]P = -[n]P."""
    return MultipleCache(E, P).point(n)


class MultipleCache:
    """Exact x-coordinates of [n]P with memoized additions."""

    def __init__(self, E, P):
        self.E = E
        self.P = P
        self._pts = {0: E.infinity(), 1: P}

    def point(self, n):
        if n not in self._pts:
            if n < 0:
                self._pts[n] = -self.point(-n)
            else:
                half = self.point(n // 2)
                self._pts[n] = half + half + (self.P if n % 2 else self.E.infinity())
        return self._pts[n]

    def x(self, n):
        pt = self.point(n)
        if pt.is_infinity():
            return None
        return pt.x


def certify_infinite_order(E, P):
    """Whether P has infinite order: [n]P != O for every n <= 12.

    By Mazur's theorem a torsion point on an elliptic curve over Q has order
    at most 12, so this decides infinite order.
    """
    cache = MultipleCache(E, P)
    return not any(cache.point(n).is_infinity() for n in range(1, 13))


def denominator_divisibility_search(E, P, A, m, k_max=40):
    """Least k <= k_max with A | d(x_{km}); NotFound carries the ledger."""
    if A <= 0:
        raise NormforgeError("A must be a positive integer")
    if m < 1:
        raise NormforgeError("m must be a positive integer")
    if k_max < 1:
        raise NormforgeError("k_max must be a positive integer")
    if not certify_infinite_order(E, P):
        raise HypothesisFail(["P has small torsion order"], "infinite order screen failed")
    cache = MultipleCache(E, P)
    seen = []
    for k in range(1, k_max + 1):
        x = cache.x(k * m)
        if x is None:
            seen.append((k, None))
            continue
        d = x.denominator
        seen.append((k, d))
        if d % A == 0:
            return k
    raise NotFound(f"no k <= {k_max} with {A} | d(x_(k m))", ledger=seen)


def equiv_divisibility_check(E, P, m, l, k, cache=None):
    """Exact check of d(x_{lm}) | n((x_{lm}/x_{klm} - k^2)^2).

    A zero x_{klm} is skipped with a flag (None); the k = 1 case has a zero
    numerator, divisible by everything.
    """
    cache = cache or MultipleCache(E, P)
    x_lm = cache.x(l * m)
    x_klm = cache.x(k * l * m)
    if x_lm is None or x_klm is None:
        return None
    if x_klm == 0:
        return None
    val = (Fraction(x_lm) / x_klm - k * k) ** 2
    if val == 0:
        return True  # zero is divisible by everything
    d = x_lm.denominator
    return val.numerator % d == 0


def find_equiv_m(E, P, m_max=6, k_range=5, l_range=5):
    """Least m passing the divisibility for all sampled (k, l); NotFound else."""
    if m_max < 1:
        raise NormforgeError("m_max must be a positive integer")
    cache = MultipleCache(E, P)
    ledger = []
    for m in range(1, m_max + 1):
        ok = True
        for k in range(1, k_range + 1):
            for l in range(1, l_range + 1):
                res = equiv_divisibility_check(E, P, m, l, k, cache)
                if res is False:
                    ok = False
                    ledger.append({"m": m, "k": k, "l": l})
                    break
            if not ok:
                break
        if ok:
            return m
    raise NotFound(f"no m <= {m_max} passed the sampled window", ledger=ledger)


# ---------------------------------------------------------------------------
# the weak vertical method


def weak_vertical_check(upper_field, lower_degree, prime, u, pairs, disc_order=0):
    """Evidence report for pushing u into the subfield via congruences.

    upper_field: NumberField N; prime: a PrimeIdeal of N; u: element of N;
    pairs: [(k_i, y_i)] with y_i rational approximants.  Verifies the
    hypothesis inequalities v(u - y_i) > k_i exactly, then checks the
    conclusion mechanism: the non-constant power basis coordinates of u have
    valuation at least floor(min availability) as in the descent argument.
    """
    from .numberfield import valuation

    report = {"hypotheses": [], "coordinates": [], "consistent": True}
    if any(valuation(upper_field, prime, upper_field.element(y)) < 0 for _, y in pairs if y != 0):
        raise HypothesisFail(["y integrality"], "an approximant has a pole at the prime")
    ks = []
    for k_i, y_i in pairs:
        diff = upper_field.element(u) - upper_field.element(y_i)
        v = valuation(upper_field, prime, diff)
        ok = v > k_i
        report["hypotheses"].append({"k": k_i, "v(u - y)": str(v), "passed": bool(ok)})
        if not ok:
            raise HypothesisFail([f"v(u - y) <= k for k = {k_i}"], f"v = {v}")
        ks.append(k_i)
    n = upper_field.degree
    k_best = max(ks)
    ell = k_best // n - disc_order
    u_elem = upper_field.element(u)
    for r in range(1, n):
        coord = u_elem.coords[r]
        if coord == 0:
            report["coordinates"].append({"r": r, "v": "inf", "bound": ell, "ok": True})
            continue
        v = valuation(upper_field, prime, upper_field.element(coord))
        ok = v >= ell
        report["coordinates"].append({"r": r, "v": str(v), "bound": ell, "ok": bool(ok)})
        if not ok:
            report["consistent"] = False
    return report


def elliptic_definition_eval(E, P, q, p, b_order, u, z_battery, m=1, r_max=30, k_val=None):
    """Evaluate the elliptic definability formula at Q level.

    b is modeled by its order at the tracked rational prime p (b =
    p^(b_order), with b_order < 0 and prime to q); for each battery element
    z the search looks for r with d(b^2) n(z) | d(x_{rm}), sets a1 = x_{rm},
    a2 = x_{k r m} (k from u = k^2 when available), and evaluates the two
    integrality atoms

        v_p(b^2/(z a1)) >= ((q-1)/q) v_p(b)
        v_p((u - a1/a2)^2 a1) >= ((q-1)/q) v_p(b)

    exactly.  Returns (True, details) when every z admits a witness pair,
    (False, details) when some z exhausts the search.
    """
    from .intfunc import valuation_fraction

    if b_order >= 0 or b_order % q == 0:
        raise HypothesisFail(["b order"], f"v(b) = {b_order}")
    threshold = Fraction(q - 1, q) * b_order
    cache = MultipleCache(E, P)
    details = []
    if not z_battery:
        return True, [{"note": "empty battery: vacuously true"}]
    for z in z_battery:
        z = Fraction(z)
        found = None
        for r in range(1, r_max + 1):
            x_rm = cache.x(r * m)
            if x_rm is None or x_rm == 0:
                continue
            d_x = x_rm.denominator
            if d_x % (p ** (-2 * b_order)) != 0:
                continue
            n_z = abs(z.numerator)
            if n_z and d_x % n_z != 0:
                continue
            ks = [k_val] if k_val else list(range(1, 6))
            for k in ks:
                x_krm = cache.x(k * r * m)
                if x_krm is None or x_krm == 0:
                    continue
                a1, a2 = x_rm, x_krm
                atom1 = valuation_fraction(Fraction(p) ** (2 * b_order) / (z * a1), p) >= threshold \
                    if z * a1 != 0 else False
                diff = Fraction(u) - a1 / a2
                val2 = (diff ** 2) * a1
                atom2 = val2 == 0 or valuation_fraction(val2, p) >= threshold
                if atom1 and atom2:
                    found = {"z": str(z), "r": r, "k": k}
                    break
            if found:
                break
        if not found:
            details.append({"z": str(z), "status": "exhausted"})
            return False, details
        details.append(found)
    return True, details
