"""Hensel lifting of coprime polynomial factorizations from mod p to mod p^m.

Lifting is quadratic: each step doubles the precision and lifts the Bezout
cofactors along with the factors (von zur Gathen & Gerhard, Modern Computer
Algebra, Alg. 15.10).  A monic lift mod p^m is unique, so the result does not
depend on the order of the steps.  The entry point is lift_blocks, used for
local prime data: it lifts any pairwise-coprime monic block factorization
(blocks may be powers g^e, as produced by Kummer-Dedekind at ramified
primes), which is exactly what the local factors of a defining polynomial
look like p-adically.  crt_idempotents builds the CRT data over the lifted
blocks.

All polynomials here are int lists ascending by degree, coefficients reduced
into [0, p^m).
"""

from .errors import NormforgeError, NotSquarefreeAtP
from .modp import (
    padd,
    pdivmod,
    pgcd_ext,
    pmul,
    pnormalize,
    psub,
)


def lift_pair_to(f, g0, h0, p, m):
    """Lift f = g0*h0 (mod p), gcd(g0,h0)=1, both monic, to mod p^m.

    Quadratic lifting (von zur Gathen & Gerhard, MCA Alg. 15.10): each step
    takes f == g*h and s*g + t*h == 1 from mod p^k to mod p^(2k), capped at
    p^m, so m is reached in about log2(m) steps.
    """
    gcd, s, t = pgcd_ext(g0, h0, p)
    if len(gcd) != 1:
        raise NotSquarefreeAtP("factors are not coprime mod p")
    g, h = pnormalize(g0, p), pnormalize(h0, p)
    k = 1
    while k < m:
        k = min(2 * k, m)
        q = p ** k
        e = psub(f, pmul(g, h, q), q)
        quo, r = pdivmod(pmul(s, e, q), h, q)
        g = padd(g, padd(pmul(t, e, q), pmul(quo, g, q), q), q)
        h = padd(h, r, q)
        if k < m:  # the cofactors are needed only for a further step
            b = psub(padd(pmul(s, g, q), pmul(t, h, q), q), [1], q)
            c, d = pdivmod(pmul(s, b, q), h, q)
            s = psub(s, d, q)
            t = psub(t, padd(pmul(t, b, q), pmul(c, g, q), q), q)
    return pnormalize(g, p ** m), pnormalize(h, p ** m)


def lift_blocks(f, blocks, p, m):
    """Lift a pairwise-coprime monic factorization of monic f to mod p^m.

    `blocks` are monic mod-p polynomials with product f mod p.  Returns the
    lifted blocks in the same order.  Each split checks that the first block
    is coprime to the product of the rest, which over F_p[x] is the same as
    pairwise coprimality; NotSquarefreeAtP is raised otherwise.
    """
    f = [c % p ** m for c in f]
    if len(blocks) == 1:
        return [pnormalize(f, p ** m)]
    # split recursively: first block against product of the rest
    first = blocks[0]
    rest = blocks[1][:]
    for b in blocks[2:]:
        rest = pmul(rest, b, p)
    g, h = lift_pair_to(f, first, rest, p, m)
    return [g] + lift_blocks(h, blocks[1:], p, m)


def crt_idempotents(blocks, p, m):
    """Idempotent-style CRT data for Z/p^m[x] mod a block factorization.

    For lifted pairwise-coprime monic blocks F_1..F_r of f, returns e_i with
    e_i == 1 mod F_i and e_i == 0 mod F_j (j != i), all mod (p^m, f).
    """
    q = p ** m
    out = []
    full = [1]
    for b in blocks:
        full = pmul(full, b, q)
    for i, b in enumerate(blocks):
        others = [1]
        for j, c in enumerate(blocks):
            if j != i:
                others = pmul(others, c, q)
        # invert `others` modulo (b, p^m): Newton-lift the mod-p inverse
        inv = _invert_mod(others, b, p, m)
        out.append(pdivmod(pmul(others, inv, q), full, q)[1])
    return out


def _invert_mod(a, modulus, p, m):
    """Inverse of a modulo (monic modulus, p^m); a must be a unit mod p."""
    g, s, _ = pgcd_ext(pnormalize(a, p), pnormalize(modulus, p), p)
    if len(g) != 1:
        raise NormforgeError("not invertible mod p")
    inv = s
    k = 1
    while k < m:
        k = min(2 * k, m)
        q = p ** k
        prod = pdivmod(pmul(a, inv, q), modulus, q)[1]
        # inv <- inv * (2 - a*inv)
        inv = pdivmod(pmul(inv, psub([2], prod, q), q), modulus, q)[1]
    return inv
