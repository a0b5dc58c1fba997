"""Independent oracles for checking normforge outputs.

Nothing here imports normforge: every routine is a small, direct
implementation of a textbook definition, so a wrong answer from the program
cannot be mirrored by a shared bug.  Polynomials are coefficient lists,
lowest degree first.  `self_check()` pins each oracle to hand-computed
values and runs at the start of every benchmark run.
"""

from fractions import Fraction

# -- integers -------------------------------------------------------------


def is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_factors(n):
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def vp(x, p):
    """p-adic valuation of a nonzero rational."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def mult_order(a, n):
    """Least k >= 1 with a^k = 1 mod n, by stepping through the powers."""
    a %= n
    k, cur = 1, a
    while cur != 1:
        cur = cur * a % n
        k += 1
        if k > n:
            raise ValueError(f"{a} is not a unit mod {n}")
    return k


# -- polynomials mod p ----------------------------------------------------


def trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return trim(out)


def pmod(a, m, p):
    """Remainder of a by m over F_p (m nonzero)."""
    a = trim(c % p for c in a)
    m = trim(c % p for c in m)
    inv = pow(m[-1], -1, p)
    while len(a) >= len(m):
        c = a[-1] * inv % p
        shift = len(a) - len(m)
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a = trim(a)
    return a


def pgcd(a, b, p):
    a = trim(c % p for c in a)
    b = trim(c % p for c in b)
    while b:
        a, b = b, pmod(a, b, p)
    return a


def _x_power_mod(k, m, p):
    """x^(p^k) mod (m, p) by k repeated p-th powerings."""
    r = pmod([0, 1], m, p)
    for _ in range(k):
        acc, base, e = [1], r, p
        while e:
            if e & 1:
                acc = pmod(pmul(acc, base, p), m, p)
            base = pmod(pmul(base, base, p), m, p)
            e >>= 1
        r = acc
    return r


def _sub(a, b, p):
    n = max(len(a), len(b))
    return trim(((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p
                 for i in range(n))


def rabin_irreducible(g, p):
    """Rabin's test: g of degree n is irreducible over F_p iff
    x^(p^n) = x mod g and gcd(x^(p^(n/r)) - x, g) = 1 for each prime r | n."""
    g = trim(c % p for c in g)
    n = len(g) - 1
    if n < 1:
        return False
    if n == 1:
        return True
    if _sub(_x_power_mod(n, g, p), [0, 1], p):
        return False
    for r in prime_factors(n):
        h = _sub(_x_power_mod(n // r, g, p), [0, 1], p)
        if len(pgcd(g, h, p)) != 1:
            return False
    return True


# -- polynomials over Q ---------------------------------------------------


def resultant(f, g):
    """Res(f, g) as the determinant of the Sylvester matrix, by Fraction
    Gaussian elimination."""
    f = trim(Fraction(c) for c in f)
    g = trim(Fraction(c) for c in g)
    m, n = len(f) - 1, len(g) - 1
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f[0] ** n
    if n == 0:
        return g[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(f)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(g)):
            row[i + j] = c
        rows.append(row)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def discriminant(f):
    """disc(f) for monic f, up to sign: Res(f, f') (the sign is irrelevant
    to the valuations it is used for)."""
    deriv = [i * c for i, c in enumerate(f)][1:]
    return resultant(f, deriv)


def norm(f, coords):
    """N_{K/Q}(alpha) = Res(f, A) for K = Q[x]/(f), f monic, A = alpha's
    coordinate polynomial."""
    if not any(coords):
        return Fraction(0)
    return resultant(f, coords)


def mulmod(a, b, f):
    """a * b mod the monic f over Q."""
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * y
    n = len(f) - 1
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n + 1):
                prod[k - n + i] -= c * f[i]
    out = prod[:n]
    return out + [Fraction(0)] * (n - len(out))


# -- symbols over Q -------------------------------------------------------


def legendre(a, p):
    """Legendre symbol (a/p) for an odd prime p by Euler's criterion."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def _unit_part(x, p):
    x = Fraction(x)
    v = vp(x, p)
    u = x / Fraction(p) ** v
    return v, u.numerator, u.denominator


def hilbert(a, b, v):
    """Hilbert symbol (a, b)_v over Q; v is a prime or "inf".  Odd p uses
    Euler's criterion on the unit parts; p = 2 uses the epsilon/omega
    formula of Serre, A Course in Arithmetic, III.1.2."""
    a, b = Fraction(a), Fraction(b)
    if v == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = v
    alpha, ua_n, ua_d = _unit_part(a, p)
    beta, ub_n, ub_d = _unit_part(b, p)
    if p != 2:
        u = ua_n * ua_d % p  # same square class as ua_n / ua_d
        w = ub_n * ub_d % p
        sign = -1 if alpha * beta * ((p - 1) // 2) % 2 else 1
        return sign * legendre(u, p) ** (beta % 2) * legendre(w, p) ** (alpha % 2)
    u = ua_n * ua_d % 8
    w = ub_n * ub_d % 8
    eps = lambda t: ((t - 1) // 2) % 2
    omg = lambda t: ((t * t - 1) // 8) % 2
    e = eps(u) * eps(w) + alpha * omg(w) + beta * omg(u)
    return -1 if e % 2 else 1


def hilbert_places(a, b):
    """Every place where (a, b)_v can be -1: infinity, 2, and odd primes
    dividing a numerator or denominator."""
    ps = {2}
    for x in (Fraction(a), Fraction(b)):
        ps.update(prime_factors(x.numerator))
        ps.update(prime_factors(x.denominator))
    return ["inf"] + sorted(ps)


def is_qth_power_residue(c, p, f, q):
    """Euler's criterion in F_{p^f} for an integer c prime to p: c is a
    q-th power iff c^((p^f - 1)/q) = 1 (when q | p^f - 1)."""
    if c % p == 0:
        raise ValueError(f"{c} is not a unit mod {p}")
    n = p ** f - 1
    if n % q:
        return True
    return pow(c % p, n // q, p) == 1


# -- elliptic curves ------------------------------------------------------


def ec_add(P, Q, a):
    """Chord-tangent addition on y^2 = x^3 + a x + c; None is infinity."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2 and y1 == -y2:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + a) / (2 * y1)
    else:
        lam = (y2 - y1) / (x2 - x1)
    x3 = lam * lam - x1 - x2
    return (x3, lam * (x1 - x3) - y1)


def ec_mul(P, n, a):
    """[n]P by n - 1 successive additions (n >= 0)."""
    R = None
    for _ in range(n):
        R = ec_add(R, P, a)
    return R


# -- polynomial systems ---------------------------------------------------


def eval_json_poly(terms, values):
    """Exact value of an exported polynomial [[coeff, exponent vector], ...]."""
    acc = Fraction(0)
    for coeff, exps in terms:
        t = Fraction(coeff)
        for x, e in zip(values, exps):
            if e:
                t *= x ** e
        acc += t
    return acc


def eval_json_system(system, assignment):
    """(equation values, inequation values) of an exported system at a
    {name: rational} assignment."""
    values = [Fraction(assignment[name]) for name in system["variables"]]
    eqs = [eval_json_poly(t, values) for t in system["equations"]]
    ineqs = [eval_json_poly(t, values) for t in system["inequations"]]
    return eqs, ineqs


def eval_terms_mod(terms, values, p):
    """Value mod p of a sparse polynomial {((index, exp), ...): coeff}."""
    acc = 0
    powers = {}
    for key, coeff in terms.items():
        t = coeff
        for ie in key:
            v = powers.get(ie)
            if v is None:
                v = powers[ie] = pow(values[ie[0]], ie[1], p)
            t = t * v % p
        acc += t
    return acc % p


def square_trick_assignment(variables, x, w, b):
    """The q = 2 witness c = w^2: a0 = (z + 1)/2, a1 = (z - 1)/(2 w) on the
    Gamma^0 chain of U1 and U2, every other descended coordinate 0."""
    x, w, b = Fraction(x), Fraction(w), Fraction(b)
    z = b * x * x + b * b
    out = {name: Fraction(0) for name in variables}
    out.update({"X": x, "B": b, "C": w * w,
                "U1,0,0,0": (z + 1) / 2, "U2,0,0,0": (z - 1) / (2 * w)})
    return out


# -- self-check -----------------------------------------------------------


def self_check():
    """Pin every oracle to hand-computed values; raises AssertionError."""
    # 7 splits in Q(zeta_3): x^2 + x + 1 = (x - 2)(x - 4) mod 7
    f3 = [1, 1, 1]
    assert pmul([-2 % 7, 1], [-4 % 7, 1], 7) == f3
    assert rabin_irreducible([5, 1], 7) and rabin_irreducible([3, 1], 7)
    assert not rabin_irreducible(f3, 7)
    assert rabin_irreducible(f3, 5)  # 5 is inert in Q(zeta_3)
    assert rabin_irreducible([1, 1, 0, 0, 1], 2)  # x^4 + x + 1 over F_2
    assert not rabin_irreducible([1, 0, 1, 0, 1], 2)  # (x^2 + x + 1)^2
    # multiplicative orders of 2 modulo powers of 5
    assert [mult_order(2, 5 ** k) for k in (1, 2, 3)] == [4, 20, 100]
    # [2](3, 5) on y^2 = x^3 - 2
    P = (Fraction(3), Fraction(5))
    assert ec_add(P, P, 0) == (Fraction(129, 100), Fraction(-383, 1000))
    assert ec_mul(P, 2, 0) == ec_add(P, P, 0)
    # norms and discriminants
    assert norm(f3, [0, 1]) == 1  # zeta_3 is a unit
    assert norm(f3, [2, 1]) == 3  # (2 + zeta)(2 + zeta^2) = 4 - 2 + 1
    assert norm([-2, 0, 1], [1, 1]) == -1  # 1 + sqrt 2
    assert abs(discriminant(f3)) == 3
    assert mulmod([1, 1], [0, 1], f3) == [Fraction(-1), Fraction(0)]  # (1+z)z = -1
    # Legendre and Hilbert symbols
    assert [legendre(a, 7) for a in range(1, 7)] == [1, 1, -1, 1, -1, -1]
    assert hilbert(-1, 3, 3) == -1 and hilbert(-1, 3, 2) == -1
    assert hilbert(-1, 9, 3) == 1 and hilbert(2, 5, 5) == -1
    assert hilbert(-1, -1, "inf") == -1 and hilbert(-1, -1, 2) == -1
    for a, b in ((-1, 3), (2, 5), (Fraction(7, 3), -15), (6, Fraction(-10, 9))):
        prod = 1
        for v in hilbert_places(a, b):
            prod *= hilbert(a, b, v)
        assert prod == 1, "Hilbert reciprocity"
    assert not is_qth_power_residue(82, 7, 1, 3)  # the README witness c = 82 at 7
    # exported-system evaluation
    sysj = {"variables": ["X", "Y"], "equations": [[["1", [2, 0]], ["-4", [0, 1]]]],
            "inequations": [[["1", [0, 1]]]]}
    assert eval_json_system(sysj, {"X": 2, "Y": 1}) == ([0], [1])
    assert eval_terms_mod({((0, 2),): 1, ((1, 1),): -4}, [2, 1], 11) == 0
