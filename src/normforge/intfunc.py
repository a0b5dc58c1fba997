"""Elementary integer routines: primality, factorization, CRT, valuations.

Everything is deterministic.  Miller-Rabin uses the fixed witness set that is
provably correct below 3.3 * 10^24, and Pollard rho runs with a seeded
parameter sweep, so repeated runs factor integers identically.
"""

import math
from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def primes_up_to(bound):
    """Ascending list of primes <= bound (simple sieve)."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, int(math.isqrt(bound)) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(bound + 1) if sieve[i]]


def _pollard_rho(n):
    # n odd composite, not a prime power of a tiny prime
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


def factorint(n):
    """Factor a nonzero integer; returns {prime: exponent} (sign dropped)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out = {}
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_rho(m)
        stack.extend([d, m // d])
    return out


def valuation_int(n, p):
    """v_p(n) for a nonzero integer n."""
    if n == 0:
        raise ValueError("v_p(0) is infinite")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation_fraction(x, p):
    """v_p of a nonzero Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("v_p(0) is infinite")
    return valuation_int(x.numerator, p) - valuation_int(x.denominator, p)


def centered_residue(c, q):
    """The residue of c mod q in (-q/2, q/2]."""
    c %= q
    return c - q if c > q // 2 else c


def crt(residues, moduli):
    """Smallest nonnegative solution of x == r_i mod m_i (coprime moduli)."""
    x, m = 0, 1
    for r, mod in zip(residues, moduli):
        g = math.gcd(m, mod)
        if g != 1:
            raise ValueError("moduli not coprime")
        # x + m*t == r (mod mod)
        t = ((r - x) * pow(m, -1, mod)) % mod
        x += m * t
        m *= mod
    return x % m


def multiplicative_order(a, n):
    """Order of a modulo n; a must be a unit mod n."""
    if math.gcd(a, n) != 1:
        raise ValueError("not a unit")
    # start from the group order and strip each prime while possible
    order = euler_phi(n)
    for p, e in factorint(order).items():
        for _ in range(e):
            if pow(a, order // p, n) == 1:
                order //= p
            else:
                break
    assert pow(a, order, n) == 1
    return order


def euler_phi(n):
    phi = 1
    for p, e in factorint(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi
