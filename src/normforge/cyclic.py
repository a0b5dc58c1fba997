"""Totally real cyclic fields via Gaussian periods, and compositum bookkeeping.

The degree-d subfield of Q(xi_ell) (ell prime, d | ell-1) is generated by the
period eta = sum of xi_ell^h over the index-d subgroup H of (Z/ell)*.
Residue degrees in the subfield come straight from the image of p in the
quotient group (Z/ell)*/H, which is the Frobenius.

Periods, Lagrange resolvents and 2 cos(2 pi / m) are sums of roots of unity
with integer coefficients, so they are computed as integer vectors in
Z[x]/(x^n - 1), where a product is a cyclic convolution.  That ring maps onto
Q(xi_n) = Q[x]/Phi_n, and a vector is reduced mod Phi_n only where its
coordinates are read.  A minimal polynomial is the product of (y - root)
over a Galois orbit, expanded in that ring; an element of a subfield
Q(xi_q) is projected there by the relative trace.  No floats and no linear
algebra.

The auxiliary prime search realizes the construction "ell == 1 mod q^m with
q not a q-th power mod ell"; the degree-q layer generator of the compositum
is produced explicitly as a Lagrange resolvent q-th power in Z[xi_{q ell}].
"""

from fractions import Fraction
from math import gcd

from .errors import HypothesisFail, NormforgeError, RamifiedCase, SearchExhausted
from .finitefield import FiniteField, power_test_in_extension
from .intfunc import is_prime, multiplicative_order
from .polyq import UniPoly, cyclotomic_poly
from .zfactor import is_irreducible_over_q


class CyclicFieldData:
    """Degree-d subfield of Q(xi_ell): period polynomial and subgroup."""

    def __init__(self, ell, d, period_poly, subgroup):
        self.ell = ell
        self.degree = d
        self.period_poly = period_poly
        self.subgroup = tuple(sorted(subgroup))
        # totally real iff -1 lies in the subgroup, i.e. (ell-1)/d is even
        self.totally_real = d == 1 or ((ell - 1) // d) % 2 == 0

    def number_field(self):
        from .numberfield import NumberField

        return NumberField(
            self.period_poly, name=f"Q(eta_{self.ell},{self.degree})", check_irreducible=False
        )

    def __repr__(self):
        return f"CyclicFieldData(ell={self.ell}, d={self.degree})"

    def to_json(self):
        return {
            "ell": self.ell,
            "degree": self.degree,
            "period_poly": self.period_poly.to_json(),
            "subgroup": list(self.subgroup),
            "totally_real": self.totally_real,
        }


def find_auxiliary_ell(q, m, bound=10 ** 5):
    """Least prime ell == 1 mod q^m with q not a q-th power mod ell.

    For q = 2 the modulus is raised to at least 4 so the quadratic subfield
    of Q(xi_ell) is totally real ((ell-1)/2 even); higher 2-power levels
    have no such ell at all (ell == 1 mod 8 forces 2 to be a square), so
    that case raises at once.
    """
    if not is_prime(q) or m < 1:
        raise NormforgeError("q must be prime and m >= 1")
    if q == 2 and m >= 3:
        raise SearchExhausted(
            "no auxiliary prime exists: ell == 1 (mod 8) makes 2 a square mod ell"
        )
    step = q ** m
    if q == 2:
        step = max(step, 4)
    ell = 1 + step
    while ell <= bound:
        if is_prime(ell) and ell != q:
            if not power_test_in_extension(FiniteField(ell).element(q), q, 1):
                return ell
        ell += step
    raise SearchExhausted(f"no auxiliary prime below {bound} (they are infinite in supply)")


def _primitive_root(ell):
    group = ell - 1
    for g in range(2, ell):
        if multiplicative_order(g, ell) == group:
            return g
    raise NormforgeError("no primitive root found (ell not prime?)")


def subgroup_of_index(ell, d):
    """The unique index-d subgroup of (Z/ell)*: the d-th powers."""
    if (ell - 1) % d != 0:
        raise NormforgeError("d must divide ell - 1")
    return sorted({pow(y, d, ell) for y in range(1, ell)})


def _root_power(n, k):
    """xi_n^k as a vector in Z[x]/(x^n - 1)."""
    vec = [0] * n
    vec[k % n] = 1
    return vec


def _cyclic_mul(a, b):
    """Product in Z[x]/(x^n - 1): a cyclic convolution over the nonzero entries of a."""
    n = len(a)
    out = [0] * n
    for i, x in enumerate(a):
        if x:
            for k in range(n):
                out[k] += x * b[k - i]  # a negative index wraps round mod n
    return out


def _cyclotomic_coords(vec, n):
    """Integer coordinates in the power basis of Q(xi_n) of a vector in Z[x]/(x^n - 1)."""
    phi = cyclotomic_poly(n)
    red = (UniPoly(vec) % phi).num  # phi is monic, so the remainder stays in Z
    return red + [0] * (phi.degree - len(red))


def _periods(ell, H, n, scale):
    """The periods sum_{h in H} xi_ell^(g^j h), j < [(Z/ell)* : H], in Z[x]/(x^n - 1).

    xi_ell is taken as xi_n^scale, so n = scale * ell.
    """
    g = _primitive_root(ell)
    out = []
    for j in range((ell - 1) // len(H)):
        rep = pow(g, j, ell)
        vec = [0] * n
        for h in H:
            vec[scale * (rep * h % ell)] += 1
        out.append(vec)
    return out


def _orbit_polynomial(roots, n):
    """prod (y - root) over a Galois orbit of roots in Z[x]/(x^n - 1), over Q."""
    zero = [0] * n
    coeffs = [_root_power(n, 0)]
    for root in roots:
        # multiply by (y - root): shift up, subtract root times the old coefficients
        lower = [_cyclic_mul(root, c) for c in coeffs] + [zero]
        coeffs = [[u - v for u, v in zip(up, low)] for up, low in zip([zero] + coeffs, lower)]
    rat = []
    for c in coeffs:
        coords = _cyclotomic_coords(c, n)
        if any(coords[1:]):
            raise AssertionError("orbit polynomial has an irrational coefficient")
        rat.append(coords[0])
    return UniPoly(rat)


def gaussian_period_subfield(ell, d):
    """CyclicFieldData for the degree-d subfield of Q(xi_ell).

    The period polynomial is the orbit product of the periods; it must come
    out rational, and irreducibility over Q is asserted.
    """
    if not is_prime(ell):
        raise NormforgeError("ell must be prime")
    H = subgroup_of_index(ell, d)
    if d == 1:
        return CyclicFieldData(ell, 1, UniPoly([1, 1]), H)
    poly = _orbit_polynomial(_periods(ell, H, ell, 1), ell)
    assert poly.is_monic() and poly.degree == d
    if not is_irreducible_over_q(poly):
        raise AssertionError("period polynomial is not irreducible")
    return CyclicFieldData(ell, d, poly, H)


def frobenius_residue_degree(ell, d, p):
    """Residue degree of p in the degree-d subfield: order of p in (Z/ell)*/H."""
    if p == ell:
        raise RamifiedCase("ell is totally ramified in its own cyclotomic subfields")
    if not is_prime(p):
        raise NormforgeError("p must be prime")
    size_H = (ell - 1) // d
    f = 1
    cur = p % ell
    while pow(cur, size_H, ell) != 1:  # cur in H iff cur^{|H|} == 1
        cur = cur * p % ell
        f += 1
        if f > d:
            raise AssertionError("Frobenius order exceeded the group order")
    return f


def compositum_degree_data(G, H):
    """([GH:G], cyclic order of Gal(GH/G)) for a number field G and cyclic H.

    [GH:G] = [H : G cap H]; the intersection is the largest subfield of H
    whose period polynomial has a root in G (H cyclic, so one subfield per
    divisor of the degree).
    """
    from .kpoly import has_root_in_field

    d = H.degree
    if d == 1:
        return 1, 1
    d_int = 1
    for dprime in sorted((k for k in range(2, d + 1) if d % k == 0), reverse=True):
        if G.degree % dprime != 0:
            continue
        sub = gaussian_period_subfield(H.ell, dprime)
        if has_root_in_field(G, sub.period_poly):
            d_int = dprime
            break
    rel = d // d_int
    return rel, rel


def nonsplit_sublayer(g_prime, H, q):
    """Predicted (e_mult, f_mult) of the degree-q top layer GH/G-hat at g_prime.

    Hypotheses: H cyclic of degree q^r with the base rational prime inert in
    H, and ord_q(f(p_G/p)) = m < r.  The layer is unramified (only ell
    ramifies in H and g_prime.p != ell) and inert at every G-hat factor, so
    the prediction is e x 1, f x q.
    """
    p = g_prime.p
    d = H.degree
    r = 0
    dd = d
    while dd % q == 0:
        dd //= q
        r += 1
    if dd != 1 or r < 1:
        raise HypothesisFail(["H degree not a power of q"], f"[H:Q] = {d}")
    if p == H.ell:
        raise RamifiedCase("base prime ramifies in H")
    f_in_H = frobenius_residue_degree(H.ell, d, p)
    if f_in_H != d:
        raise HypothesisFail(["p splits in H"], f"f_H(p) = {f_in_H} < {d}")
    m = 0
    fg = g_prime.f_deg
    while fg % q == 0:
        fg //= q
        m += 1
    if m >= r:
        raise HypothesisFail(["ord_q f(p_G/p) >= r"], f"m = {m}, r = {r}")
    return 1, q


def kummer_generator(ell, q):
    """(a, H-data) with Q(xi_q)(a^(1/q)) = Q(xi_q) * H, H the degree-q period field.

    a is the q-th power of the Lagrange resolvent r = sum_j xi_q^j eta_j,
    computed exactly in Z[xi_{q ell}].  It lies in Q(xi_q), so it is its
    trace from Q(xi_{q ell}) divided by the degree ell - 1.
    """
    from .numberfield import NumberField

    n = q * ell
    Hdata = gaussian_period_subfield(ell, q)
    resolvent = [0] * n
    for j, eta in enumerate(_periods(ell, Hdata.subgroup, n, q)):  # xi_ell = xi_n^q
        term = _cyclic_mul(_root_power(n, ell * j), eta)  # xi_q = xi_n^ell
        resolvent = [a + b for a, b in zip(resolvent, term)]
    a_vec = resolvent
    for _ in range(q - 1):
        a_vec = _cyclic_mul(resolvent, a_vec)
    # ell == 1 mod q, so xi_n^i = xi_q^i xi_ell^t with t == 0 mod ell iff ell | i,
    # and the trace of xi_ell^t to Q(xi_q) is ell - 1 if t == 0 mod ell, else -1
    trace = [0] * q
    for i, c in enumerate(a_vec):
        trace[i % q] += c * (ell - 1 if i % ell == 0 else -1)
    a = NumberField.cyclotomic(q).element([Fraction(c, ell - 1) for c in _cyclotomic_coords(trace, q)])
    if a.is_zero():
        raise NormforgeError("Lagrange resolvent vanished; no Kummer generator")
    return a, Hdata


def real_cyclotomic_minpoly(m):
    """Minimal polynomial of 2 cos(2 pi / m) over Q, exact.

    The orbit product over the conjugates xi^k + xi^(-k), k a unit mod m with
    k < m/2; the degree is phi(m)/2 for m > 2.
    """
    if m < 3:
        raise NormforgeError("m must be at least 3")
    roots = []
    for k in range(1, (m + 1) // 2):
        if gcd(k, m) == 1:
            root = _root_power(m, k)
            root[m - k] = 1
            roots.append(root)
    poly = _orbit_polynomial(roots, m)
    assert is_irreducible_over_q(poly)
    return poly
