"""Whether a rational polynomial has a root in a number field K = Q(theta).

The test rests on Trager's correspondence (Trager, "Algebraic factoring and
rational function integration", SYMSAC 1976; Cohen, GTM 138, section 3.6).
Let f be the defining polynomial of K, n = [K:Q], and h in Q[y] squarefree.
For a shift s with

    N_s(y) = Res_x(f(x), h(y - s*x))

squarefree, the irreducible factors of h over K match the irreducible
factors of N_s over Q one to one, a factor of degree k matching one of
degree k*n.  So h has a root in K exactly when N_s has a factor over Q of
degree n, and no arithmetic in K[y] is needed.  N_s is computed by
evaluation at n*deg(h) + 1 rational points followed by exact Lagrange
interpolation, which avoids bivariate resultant code entirely.
"""

from fractions import Fraction

from .errors import NormforgeError
from .polyq import UniPoly, cyclotomic_poly, poly_gcd, resultant, squarefree_part
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
    """N_s(y) = Res_x(f(x), h(y - s*x)) by evaluation and interpolation."""
    n = field.degree
    d = h.degree
    deg = n * d
    pts = []
    for k in range(deg + 1):
        y0 = Fraction(k)
        inner = UniPoly([y0, Fraction(-s)])  # y0 - s*x
        val = resultant(field.poly, h.compose(inner))
        pts.append((y0, val))
    return _lagrange_interpolate(pts)


def has_root_in_field(field, h):
    """True iff the squarefree rational polynomial h has a root in the field."""
    h = h.monic()
    if h.degree == 0:
        return False
    if poly_gcd(h, h.derivative()).degree > 0:
        raise NormforgeError("has_root_in_field expects a squarefree input")
    # N_0 = +-h^[K:Q] is squarefree only when K = Q
    for s in range(0 if field.degree == 1 else 1, 32):
        N = norm_poly(field, h, s)
        if N.is_zero():
            continue
        if squarefree_part(N).degree == N.degree:
            break
    else:
        raise NormforgeError("no squarefree norm shift found")
    _, nfactors = factor_over_q(N)
    return any(Ni.degree == field.degree for Ni, _ in nfactors)


def has_primitive_root_of_unity(field, q):
    """True iff the field contains a primitive q-th root of unity (q prime)."""
    if q == 2:
        return True
    if field.degree % (q - 1) != 0:
        return False
    return has_root_in_field(field, cyclotomic_poly(q))
