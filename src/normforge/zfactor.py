"""Factorization of univariate integer polynomials (Zassenhaus).

Used for irreducibility certificates of defining polynomials and Gaussian
period polynomials, and as the rational-side engine of Trager's method for
factoring over a number field.  Sizes here are desk scale (degree <= ~30),
so plain subset recombination after Hensel lifting is adequate.
"""

import itertools
import math

from .errors import NormforgeError
from .hensel import lift_blocks
from .intfunc import centered_residue, is_prime, next_prime
from .modp import factor_poly_mod_p, pderiv, pgcd, pmul, pnormalize
from .polyq import UniPoly, yun_squarefree


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
    out = []
    for sq, mult in yun_squarefree(f):
        for g in _factor_squarefree_z(sq.primitive_int()):
            out.append((g.monic(), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return const, out


def is_irreducible_over_q(f):
    """True iff f (degree >= 1) is irreducible over Q."""
    if f.degree is None or f.degree < 1:
        return False
    g = poly_gcd_quick(f)
    if g is not None and g != f.monic():
        return False
    _, factors = factor_over_q(f)
    return len(factors) == 1 and factors[0][1] == 1 and factors[0][0].degree == f.degree


def poly_gcd_quick(f):
    # cheap squarefree pre-check; returns squarefree part if it differs
    from .polyq import poly_gcd

    g = poly_gcd(f, f.derivative())
    if g.degree and g.degree > 0:
        return (f // g).monic()
    return None
