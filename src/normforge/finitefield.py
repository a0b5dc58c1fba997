"""Residue field arithmetic F_{p^f} = F_p[x]/(g), g irreducible mod p.

Elements are immutable coefficient tuples (reduced, no trailing zeros).  The
arithmetic delegates to `modp`: a product is one `pmod` of the convolution, a
power one `ppow_mod`.  A prime field (f = 1) holds constants and uses the
built-in `pow` and products mod p.  The one q-th power residue test,
`power_test_in_extension`, follows the exponent criterion: a is a q-th power
in F_{p^k} iff a^((p^k-1)/q) = 1 when q | p^k - 1, and unconditionally
otherwise (the q-power map is then a bijection); in a prime field that is
Euler's criterion, one `pow`.  For a in a subfield F_{p^f}, f | k, it runs
without constructing the larger field, by reducing the exponent modulo the
order of the smaller group; k = f tests a in its own field.
"""

from .errors import NormforgeError, ZeroResidue
from .modp import _convolve, is_irreducible_mod_p, pgcd_ext, pmod, pnormalize, ppow_mod, psub


class FiniteField:
    """F_{p^f} presented as F_p[x]/(modulus)."""

    def __init__(self, p, modulus=None, check=True):
        self.p = p
        if modulus is None:
            self.f = 1
            self.modulus = (0, 1)  # prime field marker: x, elements are constants
        else:
            modulus = pnormalize(list(modulus), p)
            if check and not is_irreducible_mod_p(modulus, p):
                raise NormforgeError("modulus is not irreducible mod p")
            self.f = len(modulus) - 1
            self.modulus = tuple(modulus)

    @property
    def order(self):
        return self.p ** self.f

    def element(self, coeffs):
        if isinstance(coeffs, int):
            coeffs = (coeffs,)
        if self.f == 1:  # the constant term mod p, as pmod by the marker x gives
            c = coeffs[0] % self.p if coeffs else 0
            return FFElem(self, (c,) if c else ())
        return FFElem(self, pmod(coeffs, self.modulus, self.p))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        from itertools import product

        for tup in product(range(self.p), repeat=self.f):
            yield self.element(tup)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and self.p == other.p
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.modulus))

    def __repr__(self):
        return f"GF({self.p}^{self.f})"


class FFElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = tuple(coeffs)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, FFElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __sub__(self, other):
        return FFElem(self.field, psub(self.coeffs, other.coeffs, self.field.p))

    def __mul__(self, other):
        f, a, b = self.field, self.coeffs, other.coeffs
        if f.f == 1:
            return FFElem(f, (a[0] * b[0] % f.p,) if a and b else ())
        return FFElem(f, pmod(_convolve(a, b), f.modulus, f.p))

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError
        if f.f == 1:
            return FFElem(f, (pow(self.coeffs[0], -1, f.p),))
        g, s, _ = pgcd_ext(self.coeffs, f.modulus, f.p)
        assert g == [1]
        return FFElem(f, pmod(s, f.modulus, f.p))

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        if self.is_zero():
            return f.one() if e == 0 else self
        if f.f == 1:
            return FFElem(f, (pow(self.coeffs[0], e, f.p),))
        return FFElem(f, ppow_mod(self.coeffs, e, f.modulus, f.p))

    def __repr__(self):
        return f"FF({list(self.coeffs)} over {self.field})"


def power_test_in_extension(a, q, ext_f):
    """q-th power test for a's image in F_{p^ext_f} (a lives in F_{p^f0}).

    Requires f0 | ext_f.  The image is a q-th power iff a^((p^ext_f - 1)/q)
    = 1; since a's multiplicative order divides p^f0 - 1, the exponent is
    reduced mod p^f0 - 1 and the test runs entirely in the small field.
    """
    field = a.field
    if a.is_zero():
        raise ZeroResidue("power residue test on 0")
    if ext_f % field.f != 0:
        raise NormforgeError("not a subfield inclusion")
    big = field.p ** ext_f - 1
    if big % q != 0:
        return True
    e = (big // q) % (field.order - 1)
    if field.f == 1:
        return pow(a.coeffs[0], e, field.p) == 1
    return ppow_mod(a.coeffs, e, field.modulus, field.p) == [1]
