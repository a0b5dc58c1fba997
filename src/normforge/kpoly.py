"""Whether a rational polynomial has a root in a number field K = Q(theta).

The test rests on Trager's correspondence (Trager, "Algebraic factoring and
rational function integration", SYMSAC 1976; Cohen, GTM 138, section 3.6).
Let f be the defining polynomial of K, n = [K:Q], and h in Z[y] monic and
squarefree.  For a shift s with

    N_s(y) = Res_x(f(x), h(y - s*x))

squarefree, the irreducible factors of h over K match the irreducible
factors of N_s over Q one to one, a factor of degree k matching one of
degree k*n.  So h has a root in K exactly when N_s has a factor over Q of
degree n.  A shift is taken once a sieve prime certifies N_s squarefree.

N_s(k) is the field norm of h(k - s*theta), an integer determinant.  The
norms at k = 0 .. n*deg(h) give N_s by Newton forward differences, every
division exact in Z[y].
"""

from .errors import NonMonogenicAtP, NormforgeError
from .numberfield import splitting_type
from .polyq import UniPoly, cyclotomic_poly, poly_gcd
from .zfactor import _factor_squarefree_z, squarefree_by_sieve


def _newton_interpolate(values):
    """The integer polynomial N with N(k) = values[k] for k = 0, 1, ..., D.

    Row k holds Delta^k N(j) / k!, integers when N is in Z[y], and its first
    entry is N's coefficient at y (y - 1) ... (y - k + 1); an inexact
    division means no integer N takes the values.
    """
    newton, row = [], list(values)
    for k in range(len(row)):
        steps = [divmod(v, max(k, 1)) for v in row]
        if any(r for _, r in steps):
            raise NormforgeError("no integer polynomial takes these values")
        newton.append(steps[0][0])
        row = [b - a for (a, _), (b, _) in zip(steps, steps[1:])]
    out = []  # Horner in the falling-factorial basis, ascending coefficients
    for k in range(len(newton) - 1, -1, -1):
        out = [a - k * b for a, b in zip([0] + out, out + [0])]
        out[0] += newton[k]
    return UniPoly(out)


def norm_poly(field, h, s):
    """N_s(y) = Res_x(f(x), h(y - s*x)) for integer h, from the integer
    norms N(h(k - s*theta))."""
    shift = s * field.gen()
    return _newton_interpolate([h(field.element(k) - shift).norm()
                                for k in range(field.degree * h.degree + 1)])


def has_root_in_field(field, h):
    """True iff the squarefree rational polynomial h has a root in the field."""
    h = h.monic()
    if h.degree == 0:
        return False
    if h.is_zero() or poly_gcd(h, h.derivative()).degree > 0:
        raise NormforgeError("has_root_in_field expects a squarefree input")
    # den^n h(y / den) is monic in Z[y], with a root in K exactly when h has
    h = UniPoly([c * h.den ** (h.degree - 1 - i) for i, c in enumerate(h.num[:-1])] + [1])
    # N_0 = +-h^[K:Q] is squarefree only when K = Q; N_s is monic, never zero
    for s in range(0 if field.degree == 1 else 1, 32):
        norm = norm_poly(field, h, s)
        if squarefree_by_sieve(norm.num):
            break
    else:
        if poly_gcd(norm, norm.derivative()).degree > 0:
            raise NormforgeError("no squarefree norm shift found")
    return any(g.degree == field.degree for g in _factor_squarefree_z(norm))


def has_primitive_root_of_unity(field, q):
    """True iff the field contains a primitive q-th root of unity (q prime).

    q is totally ramified in Q(zeta_q), so zeta_q in K forces q - 1 | e(P|q)
    at every prime P of K above q.  Where Z[theta] is maximal at q, the
    splitting of q rules most fields out before Trager's test runs.  The
    answer is cached on the field, so Trager runs once per (field, q).
    """
    if q == 2:
        return True
    if q not in field._mu_cache:
        try:
            possible = field.degree % (q - 1) == 0 and not any(
                P.e % (q - 1) for P in splitting_type(field, q))
        except NonMonogenicAtP:
            possible = True
        field._mu_cache[q] = possible and has_root_in_field(field, cyclotomic_poly(q))
    return field._mu_cache[q]
