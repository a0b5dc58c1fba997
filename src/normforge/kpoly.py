"""Whether a rational polynomial has a root in a number field K = Q(theta).

The test rests on Trager's correspondence (Trager, "Algebraic factoring and
rational function integration", SYMSAC 1976; Cohen, GTM 138, section 3.6).
Let f be the defining polynomial of K, n = [K:Q], and h in Q[y] squarefree.
For a shift s with

    N_s(y) = Res_x(f(x), h(y - s*x))

squarefree, the irreducible factors of h over K match the irreducible
factors of N_s over Q one to one, a factor of degree k matching one of
degree k*n.  So h has a root in K exactly when N_s has a factor over Q of
degree n, and no arithmetic in K[y] is needed.  Squarefreeness is read off
the factorization itself: a shift is accepted when every multiplicity is 1.

Since f is monic, N_s(k) is the field norm of h(k - s*theta).  The values
at n*deg(h) + 1 integers k are norms in K, each one integer determinant,
and exact Lagrange interpolation gives N_s.
"""

from fractions import Fraction

from .errors import NonMonogenicAtP, NormforgeError
from .numberfield import splitting_type
from .polyq import UniPoly, cyclotomic_poly, poly_gcd
from .zfactor import factor_over_q


def _lagrange_interpolate(points):
    """Exact UniPoly through [(x_i, y_i)] with distinct rational x_i.

    Each basis numerator prod_(j != i) (y - x_j) is the master product
    prod_j (y - x_j) divided by y - x_i, one synthetic division, so D points
    cost O(D^2) rational operations.
    """
    xs = [Fraction(x) for x, _ in points]
    master = [Fraction(1)]  # ascending coefficients
    for x in xs:
        master = [a - x * b for a, b in zip([Fraction(0)] + master, master + [Fraction(0)])]
    out = [Fraction(0)] * len(xs)
    for i, (xi, (_, yi)) in enumerate(zip(xs, points)):
        if yi == 0:
            continue
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j != i:
                den *= xi - xj
        scale = yi / den
        carry = Fraction(0)
        for k in range(len(xs), 0, -1):  # quotient coefficients, top down
            carry = master[k] + carry * xi
            out[k - 1] += carry * scale
    return UniPoly(out)


def norm_poly(field, h, s):
    """N_s(y) = Res_x(f(x), h(y - s*x)) from the norms N(h(k - s*theta))."""
    shift = s * field.gen()
    return _lagrange_interpolate([(k, h(field.element(k) - shift).norm())
                                  for k in range(field.degree * h.degree + 1)])


def has_root_in_field(field, h):
    """True iff the squarefree rational polynomial h has a root in the field."""
    h = h.monic()
    if h.degree == 0:
        return False
    if h.is_zero() or poly_gcd(h, h.derivative()).degree > 0:
        raise NormforgeError("has_root_in_field expects a squarefree input")
    # N_0 = +-h^[K:Q] is squarefree only when K = Q; N_s is monic, never zero
    for s in range(0 if field.degree == 1 else 1, 32):
        _, factors = factor_over_q(norm_poly(field, h, s))
        if all(mult == 1 for _, mult in factors):
            return any(g.degree == field.degree for g, _ in factors)
    raise NormforgeError("no squarefree norm shift found")


def has_primitive_root_of_unity(field, q):
    """True iff the field contains a primitive q-th root of unity (q prime).

    q is totally ramified in Q(zeta_q), so zeta_q in K forces q - 1 | e(P|q)
    at every prime P of K above q.  Where Z[theta] is maximal at q, the
    splitting of q rules most fields out before Trager's test runs.
    """
    if q == 2:
        return True
    if field.degree % (q - 1) != 0:
        return False
    try:
        if any(P.e % (q - 1) for P in splitting_type(field, q)):
            return False
    except NonMonogenicAtP:
        pass
    return has_root_in_field(field, cyclotomic_poly(q))
