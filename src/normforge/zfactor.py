"""Factorization of univariate integer polynomials (Zassenhaus).

Used for irreducibility certificates of defining polynomials and Gaussian
period polynomials, and as the rational-side engine of Trager's method for
factoring over a number field.  Sizes here are desk scale (degree <= ~30),
so plain subset recombination after Hensel lifting is adequate.

Irreducibility is first tried by a mod-p degree sieve: a factor of degree d
over Q has degree d mod every good prime p, so d must be a sum of the degrees
of the irreducible factors of f mod p.  When no d in [1, n-1] is such a sum
at every sieve prime, f is irreducible and no Zassenhaus run is needed.
"""

import itertools
import math

from .errors import NormforgeError
from .hensel import lift_blocks
from .intfunc import centered_residue, is_prime, next_prime
from .modp import distinct_degree, factor_poly_mod_p, pderiv, pgcd, pmonic, pmul, pnormalize
from .polyq import UniPoly, yun_squarefree

SIEVE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _mignotte_bound(f):
    # |b_i| <= 2^n * ||f||_2 * |lc| bound on factor coefficients
    n = f.degree
    norm = math.isqrt(sum(int(c) * int(c) for c in f.int_coeffs())) + 1
    return 2 ** n * norm * abs(int(f.leading()))


def _factor_squarefree_z(f):
    """Irreducible factors over Z of a primitive squarefree integer poly."""
    n = f.degree
    if n == 0:
        return []
    if n == 1:
        return [f]
    ints = f.int_coeffs()
    lc = ints[-1]
    # choose a prime keeping f squarefree mod p, fewest modular factors wins
    best = None
    p = 2
    tried = 0
    while tried < 6:
        while lc % p == 0 or not _squarefree_mod(ints, p):
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
            lc_cur = int(current.leading())
            cand = [centered_residue(c * lc_cur, q) for c in cand]
            cand_poly = UniPoly(cand).primitive_int()
            if cand_poly.degree == 0:
                continue
            quo, rem = current.divmod(cand_poly)
            if rem.is_zero() and all(c.denominator == 1 for c in quo.coeffs):
                out.append(cand_poly)
                current = quo
                remaining = [i for i in remaining if i not in combo]
                progressed = True
                break
        if not progressed:
            r += 1
    if current.degree and current.degree > 0:
        out.append(current.primitive_int())
    return out


def _squarefree_mod(ints, p):
    if not is_prime(p):
        return False
    fp = pnormalize(list(ints), p)
    if len(fp) != len(ints):
        return False
    d = pderiv(fp, p)
    if not d:
        return False
    return len(pgcd(fp, d, p)) == 1


def factor_over_q(f):
    """Factor a UniPoly over Q: (constant, [(monic irreducible, mult)])."""
    if f.is_zero():
        raise NormforgeError("cannot factor zero")
    const = f.leading()
    ints = f.primitive_int().int_coeffs()
    # squarefree mod some p not dividing lc(f) proves f squarefree over Q
    if any(_squarefree_mod(ints, p) for p in SIEVE_PRIMES):
        parts = [(f.monic(), 1)]
    else:
        parts = yun_squarefree(f)
    out = []
    for sq, mult in parts:
        for g in _factor_squarefree_z(sq.primitive_int()):
            out.append((g.monic(), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return const, out


def is_irreducible_over_q(f):
    """True iff f (degree >= 1) is irreducible over Q.

    The degree sieve runs over the SIEVE_PRIMES that do not divide lc(f) and
    keep f squarefree mod p; Zassenhaus decides whatever it leaves open.
    """
    if f.degree is None or f.degree < 1:
        return False
    ints = f.primitive_int().int_coeffs()
    open_degrees = (1 << f.degree) - 2  # bit d: a factor of degree d is not ruled out
    for p in SIEVE_PRIMES:
        if not open_degrees:
            break
        if not _squarefree_mod(ints, p):
            continue
        sums = 1  # bit d: d is a sum of mod-p factor degrees
        for g, d in distinct_degree(pmonic(pnormalize(ints, p), p), p):
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
        open_degrees &= sums
    if not open_degrees:
        return True
    _, factors = factor_over_q(f)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == f.degree
