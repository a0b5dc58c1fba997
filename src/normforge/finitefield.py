"""Residue field arithmetic F_{p^f} = F_p[x]/(g), g irreducible mod p.

Elements are immutable coefficient tuples.  The q-th power residue test
follows the exponent criterion: a is a q-th power iff a^((p^f-1)/q) = 1 when
q | p^f - 1, and unconditionally otherwise (the q-power map is then a
bijection).  `power_test_in_extension` runs the same test for the image of an
element inside F_{p^(f*k)} without ever constructing the larger field, by
reducing the exponent modulo the order of the smaller group.
"""

from .errors import NormforgeError, ZeroResidue
from .modp import is_irreducible_mod_p, pgcd_ext, pmod, pmul, pnormalize


class FiniteField:
    """F_{p^f} presented as F_p[x]/(modulus)."""

    def __init__(self, p, modulus=None, check=True):
        self.p = p
        if modulus is None:
            modulus = [0, 1]  # prime field marker: x, elements are constants
            self.f = 1
            self.modulus = (0, 1)
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
            coeffs = [coeffs]
        return FFElem(self, tuple(pmod(pnormalize(list(coeffs), self.p), list(self.modulus), self.p)))

    def zero(self):
        return self.element(0)

    def one(self):
        return self.element(1)

    def elements(self):
        """All field elements in lexicographic coefficient order."""
        from itertools import product

        for tup in product(range(self.p), repeat=self.f):
            yield self.element(list(tup))

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

    def _bin(self, other, op):
        f = self.field
        a, b = list(self.coeffs), list(other.coeffs)
        return FFElem(f, tuple(op(a, b)))

    def __add__(self, other):
        from .modp import padd

        return self._bin(other, lambda a, b: padd(a, b, self.field.p))

    def __sub__(self, other):
        from .modp import psub

        return self._bin(other, lambda a, b: psub(a, b, self.field.p))

    def __mul__(self, other):
        f = self.field
        prod = pmul(list(self.coeffs), list(other.coeffs), f.p)
        return FFElem(f, tuple(pmod(prod, list(f.modulus), f.p)))

    def inverse(self):
        f = self.field
        if self.is_zero():
            raise ZeroDivisionError
        g, s, _ = pgcd_ext(list(self.coeffs), list(f.modulus), f.p)
        assert g == [1]
        return FFElem(f, tuple(pmod(s, list(f.modulus), f.p)))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e):
        f = self.field
        if e < 0:
            return self.inverse() ** (-e)
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        return f"FF({list(self.coeffs)} over {self.field})"


def power_residue_test(a, field, q):
    """True iff a is a q-th power in the residue field.

    a may be an int (reduced into the prime subfield) or an FFElem.
    Zero is rejected: the caller must ensure a is a unit.
    """
    if isinstance(a, int):
        a = field.element(a)
    if a.is_zero():
        raise ZeroResidue("power residue test on 0")
    n = field.order - 1
    if n % q != 0:
        return True
    return a ** (n // q) == field.one()


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
    return a ** e == field.one()
