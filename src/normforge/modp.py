"""Dense polynomial arithmetic mod m, and factorization over F_p.

Polynomials are plain lists of ints, ascending degree.  This is the one mod-m
polynomial kernel of the package: F_p arithmetic here, and Z/p^k arithmetic
for Hensel lifting and local blocks elsewhere.  The modulus contract:

* inputs may have any int coefficients, unreduced or negative; outputs have
  coefficients in [0, m) and no trailing zeros;
* padd, psub, pmul and peval take any modulus m >= 2;
* pdivmod and pmod take any m >= 2 when the leading coefficient of the
  divisor is a unit mod m, so over Z/p^k the divisor must be monic (or have
  a unit leading coefficient); otherwise they raise ValueError.  Top
  coefficients of the divisor that vanish mod m are trimmed first (only
  when its last entry is not a unit, so the usual path pays nothing), and
  a divisor that vanishes mod m raises ZeroDivisionError;
* pgcd, pgcd_ext, ppow_mod, the irreducibility test and factoring need m
  prime.

Each output coefficient is reduced once.  Products are integer convolutions
reduced at the end; division reduces only the leading coefficient at each
step (it fixes the next quotient coefficient) and lets the others grow until
the remainder is reduced once at the end.

Factorization is squarefree decomposition, then distinct-degree splitting,
then Cantor-Zassenhaus equal-degree splitting driven by a seeded
deterministic generator so outputs are reproducible.  Distinct-degree
splitting and Rabin's irreducibility test use the Frobenius matrix of f
(von zur Gathen & Shoup, Comput. Complexity 2, 1992; von zur Gathen &
Gerhard, Modern Computer Algebra, 14.2-14.3): h -> h^p is F_p-linear on
F_p[x]/(f), so with the rows x^(i*p) mod f, built once from x^p by deg f - 2
products, each step x^(p^d) -> x^(p^(d+1)) is one matrix-vector product
instead of a powering by p.
"""

import math
import random

from .errors import NormforgeError
from .intfunc import factorint, is_prime

DEFAULT_SEED = 0x5EED


def trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def pnormalize(coeffs, p):
    return trim([c % p for c in coeffs])


def padd(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % p for i in range(n)])


def psub(a, b, p):
    n = max(len(a), len(b))
    return trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)])


def _convolve(a, b):
    """The integer product of a and b, unreduced and untrimmed."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def pmul(a, b, p):
    return pnormalize(_convolve(a, b), p)


def _trimmed_divisor(b, p):
    """(b reduced mod p, the inverse of its leading coefficient), for a divisor
    whose last entry is not a unit: a top that vanishes mod p is trimmed."""
    b = pnormalize(b, p)
    if not b:
        raise ZeroDivisionError
    return b, pow(b[-1], -1, p)


def pdivmod(a, b, p):
    """(quotient, remainder) of a by b mod p."""
    if not b:
        raise ZeroDivisionError
    try:
        inv = pow(b[-1], -1, p)
    except ValueError:
        b, inv = _trimmed_divisor(b, p)
    n = len(b) - 1
    r = list(a)
    q = [0] * max(0, len(r) - n)
    for k in range(len(r) - 1, n - 1, -1):
        coef = r[k] * inv % p
        if coef:
            s = k - n
            q[s] = coef
            for i in range(n):
                r[s + i] -= coef * b[i]
    return trim(q), pnormalize(r[:n], p)


def pmod(a, b, p):
    """pdivmod(a, b, p)[1], without building the quotient."""
    if not b:
        raise ZeroDivisionError
    try:
        inv = pow(b[-1], -1, p)
    except ValueError:
        b, inv = _trimmed_divisor(b, p)
    n = len(b) - 1
    r = list(a)
    for k in range(len(r) - 1, n - 1, -1):
        coef = r[k] * inv % p
        if coef:
            s = k - n
            for i in range(n):
                r[s + i] -= coef * b[i]
    return pnormalize(r[:n], p)


def peval(a, x, m):
    """a(x) mod m, by Horner."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % m
    return acc


def pmonic(a, p):
    if not a:
        return []
    try:
        inv = pow(a[-1], -1, p)
    except ValueError:
        a = pnormalize(a, p)
        if not a:
            return []
        inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def pgcd(a, b, p):
    if b and b[-1] % p == 0:
        b = pnormalize(b, p)  # gcd(a, 0) is monic a, also when b vanishes mod p
    while b:
        a, b = b, pmod(a, b, p)
    return pmonic(a, p)


def pgcd_ext(a, b, p):
    """(g, s, t) with s*a + t*b = g (g monic)."""
    r0, r1 = list(a), list(b)
    if r1 and r1[-1] % p == 0:
        r1 = pnormalize(r1, p)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
        t0, t1 = t1, psub(t0, pmul(q, t1, p), p)
    if not r0:
        return [], s0, t0
    try:
        inv = pow(r0[-1], -1, p)
    except ValueError:
        r0, inv = _trimmed_divisor(r0, p)
    scale = lambda v: [c * inv % p for c in v]
    return pmonic(r0, p), scale(s0), scale(t0)


def ppow_mod(base, e, mod, p):
    result = [1]
    base = pmod(base, mod, p)
    while e:
        if e & 1:
            result = pmod(_convolve(result, base), mod, p)
        e >>= 1
        if e:
            base = pmod(_convolve(base, base), mod, p)
    return result


def _frobenius_rows(f, p):
    """Rows x^(i*p) mod f, i < deg f, for deg f >= 2: the matrix of h -> h^p."""
    xp = ppow_mod([0, 1], p, f, p)
    rows = [[1], xp]
    for _ in range(len(f) - 3):
        rows.append(pmod(_convolve(xp, rows[-1]), f, p))  # xp outer: a monomial when p < deg f
    return rows


def _frobenius(rows, h, p):
    """h^p mod f for h reduced mod f, as the product of the rows with h."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for k, y in enumerate(row):
                out[k] += c * y
    return pnormalize(out, p)


def pderiv(a, p):
    return trim([(i * c) % p for i, c in enumerate(a)][1:])


def is_irreducible_mod_p(f, p):
    """Rabin's test: x^(p^n) = x mod f, and gcd(x^(p^(n/r)) - x, f) = 1 for
    each prime r | n.  The powers x^(p^k) come from the Frobenius rows."""
    f = pmonic(pnormalize(f, p), p)
    n = len(f) - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    rows = _frobenius_rows(f, p)
    checks = {n // r for r in factorint(n)}
    x = [0, 1]
    h = x
    for k in range(1, n + 1):
        h = _frobenius(rows, h, p)
        if k in checks and len(pgcd(psub(h, x, p), f, p)) != 1:
            return False
    return psub(h, x, p) == []


def _squarefree_decomp(f, p):
    """[(g_i, multiplicity)] with f = prod g_i^m_i, g_i squarefree, over F_p."""
    out = []
    f = pmonic(f, p)

    def rec(f, mult):
        if len(f) <= 1:
            return
        d = pderiv(f, p)
        if not d:
            # f = g(x^p) = g(x)^p
            g = f[::p]
            rec(g, mult * p)
            return
        c = pgcd(f, d, p)
        w = pdivmod(f, c, p)[0]
        i = 1
        while len(w) > 1:
            y = pgcd(w, c, p)
            fac = pdivmod(w, y, p)[0]
            if len(fac) > 1:
                out.append((pmonic(fac, p), mult * i))
            w, c = y, pdivmod(c, y, p)[0]
            i += 1
        if len(c) > 1:
            rec(c, mult)  # leftover is a p-th power; zero-derivative branch lifts it

    rec(f, 1)
    return out


def distinct_degree(f, p):
    """[(product of irreducibles of degree d, d)] for squarefree monic f.

    h runs through x^(p^d) mod the input f, one Frobenius product per step;
    gcd(h - x, f) against the current cofactor f, which divides the input,
    is the same as with h reduced mod f.
    """
    out = []
    x = [0, 1]
    h = x
    d = 0
    rows = _frobenius_rows(f, p) if len(f) > 2 else None
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _frobenius(rows, h, p)
        g = pgcd(psub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = pdivmod(f, g, p)[0]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus: split monic squarefree f, all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue  # constants cannot split anything
        if p == 2:
            # trace map sum_{i<d} a^(2^i)
            t = list(a)
            acc = list(a)
            for _ in range(d - 1):
                acc = pmod(_convolve(acc, acc), f, p)
                t = padd(t, acc, p)
            g = pgcd(t, f, p)
        else:
            e = (p ** d - 1) // 2
            t = ppow_mod(a, e, f, p)
            g = pgcd(psub(t, [1], p), f, p)
        if 0 < len(g) - 1 < n:
            left = _equal_degree_split(g, d, p, rng)
            right = _equal_degree_split(pdivmod(f, g, p)[0], d, p, rng)
            return left + right


def factor_poly_mod_p(f, p):
    """Factor f over F_p: list of (monic irreducible, multiplicity).

    f is an int-coefficient list; the output is sorted (degree,
    coefficients) so its order is canonical.
    """
    if not is_prime(p):
        raise NormforgeError(f"{p} is not prime")
    f = pnormalize(f, p)
    if not f:
        raise NormforgeError("cannot factor the zero polynomial")
    if len(f) == 1:
        return []
    rng = random.Random(DEFAULT_SEED)
    out = []
    for g, mult in _squarefree_decomp(f, p):
        for h, d in distinct_degree(g, p):
            for irr in _equal_degree_split(h, d, p, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _frac_mod(c, m):
    """The rational c as a residue mod m; its denominator must be a unit."""
    if math.gcd(c.denominator, m) != 1:
        raise NormforgeError("coefficient denominator divisible by p")
    return c.numerator * pow(c.denominator, -1, m) % m

