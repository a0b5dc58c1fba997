"""Factorization of univariate integer polynomials (Zassenhaus).

Used for irreducibility certificates of defining polynomials and Gaussian
period polynomials, and as the rational-side engine of Trager's method for
factoring over a number field.  Trager norms have degree [K:Q] (q - 1): 72
for Q(zeta_21) at q = 7, 288 for Q(zeta_39) at q = 13.  Certificates see
defining polynomials and period polynomials of degree q^m (243 at q = 3,
m = 5).  Recombination tries plain subsets after Hensel lifting, so its cost
grows with the number of modular factors, not with the degree.

Irreducibility is first tried by a mod-p degree sieve (Musser, JACM 1978) on
the integer coefficients: a factor of degree d over Q has degree d mod every
good prime p, so d must be a sum of the degrees of the irreducible factors of
f mod p.  Degree 1 is the hardest to exclude that way, since f has a root mod
most primes, so rational roots are excluded exactly instead (Cohen, GTM 138,
section 3.5): at the first good p where f mod p has roots, each root is
Newton-lifted to q > 2 |lc| B, B the Cauchy root bound, and c = lc r mod q,
taken in (-q/2, q/2], is the one candidate it gives.  If no f(c / lc) is zero,
degrees 1 and n - 1 are excluded.  This is sound because f is squarefree mod
p, so each root mod p is simple and lifts uniquely; and a rational root u/v
has v | lc, so its image lc u/v is an integer of size at most |lc| B < q/2.
When no d in [1, n-1] is left open, f is irreducible and no Zassenhaus run is
needed.
"""

import itertools
import math

from .errors import NormforgeError
from .hensel import lift_blocks
from .intfunc import centered_residue, next_prime
from .modp import distinct_degree, factor_poly_mod_p, pderiv, peval, pgcd, pmonic, pmul, pnormalize, trim
from .polyq import UniPoly, yun_squarefree

SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _mignotte_bound(f):
    # |b_i| <= 2^n * ||f||_2 * |lc| bound on factor coefficients
    n = f.degree
    norm = math.isqrt(sum(c * c for c in f.num)) + 1
    return 2 ** n * norm * abs(f.num[-1])


def _factor_squarefree_z(f):
    """Irreducible factors over Z of a primitive squarefree integer poly."""
    n = f.degree
    if n == 0:
        return []
    if n == 1:
        return [f]
    ints = f.num
    lc = ints[-1]
    # a prime that fails divides Res(f, f') = +-lc disc(f), nonzero for
    # squarefree f; Hadamard's bound on the Sylvester matrix gives
    # |Res| < 2^(bad + 1/2), so at most `bad` primes can fail
    bad = ((n - 1) * sum(c * c for c in ints).bit_length()
           + n * sum((i * c) ** 2 for i, c in enumerate(ints)).bit_length()) // 2
    # choose a prime keeping f squarefree mod p, fewest modular factors wins
    best = None
    p = 2
    tried = 0
    while tried < 6:
        while lc % p == 0 or not _squarefree_mod(ints, p):
            bad -= 1
            if bad < 0:
                raise AssertionError("input to _factor_squarefree_z is not squarefree")
            p = next_prime(p)
        fac = factor_poly_mod_p(ints, p)
        if best is None or len(fac) < len(best[1]):
            best = (p, fac)
        if len(fac) == 1:
            break
        tried += 1
        p = next_prime(p)
    p, fac = best
    if len(fac) == 1:
        return [f]
    bound = _mignotte_bound(f)
    m = 1
    while p ** m <= 2 * bound:
        m += 1
    q = p ** m
    monic_ints = [c * pow(lc, -1, q) % q for c in ints]
    lifted = lift_blocks(monic_ints, [g for g, _ in fac], p, m)
    remaining = list(range(len(lifted)))
    current = f
    out = []
    r = 1
    while 2 * r <= len(remaining):
        progressed = False
        for combo in itertools.combinations(remaining, r):
            cand = [1]
            for i in combo:
                cand = pmul(cand, lifted[i], q)
            cand = [centered_residue(c * current.num[-1], q) for c in cand]
            cand_poly = UniPoly(cand).primitive_int()
            if cand_poly.degree == 0:
                continue
            quo, rem = current.divmod(cand_poly)
            if rem.is_zero() and quo.den == 1:
                out.append(cand_poly)
                current = quo
                remaining = [i for i in remaining if i not in combo]
                progressed = True
                break
        if not progressed:
            r += 1
    if current.degree:
        out.append(current.primitive_int())
    return out


def _squarefree_mod(ints, p):
    fp = pnormalize(list(ints), p)
    if len(fp) != len(ints):
        return False
    d = pderiv(fp, p)
    if not d:
        return False
    return len(pgcd(fp, d, p)) == 1


def squarefree_by_sieve(ints):
    """True if some SIEVE_PRIMES p, not dividing lc, keeps the integer
    polynomial squarefree mod p, which proves it squarefree over Q."""
    return any(_squarefree_mod(ints, p) for p in SIEVE_PRIMES)


def factor_over_q(f):
    """Factor a UniPoly over Q: (constant, [(monic irreducible, mult)])."""
    if f.is_zero():
        raise NormforgeError("cannot factor zero")
    const = f.leading()
    parts = [(f.monic(), 1)] if squarefree_by_sieve(f.primitive_int().num) else yun_squarefree(f)
    out = []
    for sq, mult in parts:
        for g in _factor_squarefree_z(sq.primitive_int()):
            out.append((g.monic(), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return const, out


def _lifts_to_rational_root(ints, r, p):
    """Whether the simple root r of f mod p lifts to a rational root of f.

    r is Newton-lifted to q > 2 |lc| B, B the Cauchy root bound, and
    c = lc r mod q in (-q/2, q/2] is the one candidate lc u/v it can give.
    """
    lc = ints[-1]
    bound = 2 * (abs(lc) + max(abs(c) for c in ints[:-1]))  # 2 |lc| B
    deriv = [i * c for i, c in enumerate(ints)][1:]
    q = p
    while q <= bound:
        q *= q
        r = (r - peval(ints, r, q) * pow(peval(deriv, r, q), -1, q)) % q
    c = centered_residue(lc * r, q)
    acc, scale = 0, 1  # lc^n f(c / lc) = sum a_i c^i lc^(n-i), by homogeneous Horner
    for a in reversed(ints):
        acc = acc * c + a * scale
        scale *= lc
    return acc == 0


def is_irreducible_over_q(f):
    """True iff f (degree >= 1) is irreducible over Q.

    f is a UniPoly or a list of integer coefficients, ascending.  The degree
    sieve runs over the SIEVE_PRIMES that do not divide lc(f) and keep f
    squarefree mod p.  At the first of these where degree 1 is still open,
    each root of f mod p is Newton-lifted to q > 2 |lc| B (B the Cauchy root
    bound) and read as c = lc r mod q in (-q/2, q/2]: if f(c / lc) = 0, f has
    a linear factor; if not for any root, degrees 1 and n - 1 are excluded.
    Every rational root u/v is found this way, since v | lc makes lc u/v an
    integer below q/2 in size, and the root mod p it reduces to is simple, so
    its lift is unique.  Zassenhaus decides whatever is left open.
    """
    ints = f.primitive_int().num if isinstance(f, UniPoly) else trim(list(f))
    n = len(ints) - 1
    if n < 1:
        return False
    open_degrees = (1 << n) - 2  # bit d: a factor of degree d is not ruled out
    for p in SIEVE_PRIMES:
        if not open_degrees:
            break
        if not _squarefree_mod(ints, p):
            continue
        sums = 1  # bit d: d is a sum of mod-p factor degrees
        parts = distinct_degree(pmonic(pnormalize(ints, p), p), p)
        for g, d in parts:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        open_degrees &= sums
        if open_degrees & 2:  # f has roots mod p, and degree 1 is still open
            linear = parts[0][0]  # distinct_degree lists the degree-1 part first
            if any(_lifts_to_rational_root(ints, r, p) for r in range(p) if not peval(linear, r, p)):
                return False
            open_degrees &= ~(2 | 1 << (n - 1))
    if not open_degrees:
        return True
    _, factors = factor_over_q(UniPoly(ints))
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == n
