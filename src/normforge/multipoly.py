"""Sparse multivariate polynomials with integer (or rational) coefficients.

A MultiPoly stores terms as {exponent_key: coefficient} where the key is a
sorted tuple of (variable_index, exponent) pairs with positive exponents, so
term arithmetic costs the size of the support, not the size of the variable
registry (descended systems carry hundreds of variables but monomials of
total degree a few).  Variable names live in the owning system's registry;
JSON output materializes dense exponent vectors for consumers.
"""

from fractions import Fraction
from math import gcd

from .errors import IncompleteAssignment, NormforgeError


def _merge_keys(e1, e2):
    if not e1:
        return e2
    if not e2:
        return e1
    if e1[-1][0] < e2[0][0]:
        return e1 + e2
    if e2[-1][0] < e1[0][0]:
        return e2 + e1
    # a sorted merge: pairs of one key only are reused, not rebuilt
    out = []
    i = j = 0
    while i < len(e1) and j < len(e2):
        a, b = e1[i], e2[j]
        if a[0] < b[0]:
            out.append(a)
            i += 1
        elif b[0] < a[0]:
            out.append(b)
            j += 1
        else:
            out.append((a[0], a[1] + b[1]))
            i += 1
            j += 1
    return tuple(out) + e1[i:] + e2[j:]


class MultiPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    key = tuple(sorted((i, e) for i, e in key if e))
                    self.terms[key] = self.terms.get(key, 0) + c
            self.terms = {k: c for k, c in self.terms.items() if c}

    @classmethod
    def const(cls, n, c):
        out = cls(n)
        if c:
            out.terms[()] = c
        return out

    @classmethod
    def var(cls, n, index, power=1, coeff=1):
        out = cls(n)
        if coeff:
            out.terms[((index, power),)] = coeff
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, MultiPoly) and self.n == other.n and self.terms == other.terms

    def __add__(self, other):
        out = MultiPoly(self.n)
        out.terms = dict(self.terms)
        for k, c in other.terms.items():
            s = out.terms.get(k, 0) + c
            if s:
                out.terms[k] = s
            elif k in out.terms:
                del out.terms[k]
        return out

    def __neg__(self):
        out = MultiPoly(self.n)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            out = MultiPoly(self.n)
            if other:
                out.terms = {k: c * other for k, c in self.terms.items()}
            return out
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = _merge_keys(k1, k2)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        res = MultiPoly(self.n)
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise NormforgeError(f"negative power {k} of a polynomial")
        out = MultiPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def degree_in(self, index):
        best = 0
        for k in self.terms:
            for i, e in k:
                if i == index and e > best:
                    best = e
        return best

    def evaluate(self, values):
        """Exact or numeric evaluation; `values` is a sequence of length n."""
        if len(values) != self.n:
            raise IncompleteAssignment(f"need {self.n} values, got {len(values)}")
        acc = 0
        for key, c in self.terms.items():
            term = c
            for i, e in key:
                term = term * values[i] ** e
            acc = acc + term
        return acc

    def extended(self, new_n, index_map):
        """Same polynomial over a remapped variable space."""
        out = MultiPoly(new_n)
        for key, c in self.terms.items():
            new_key = tuple(sorted((index_map[i], e) for i, e in key))
            out.terms[new_key] = out.terms.get(new_key, 0) + c
        out.terms = {k: c for k, c in out.terms.items() if c}
        return out

    def integerized(self):
        """Clear rational denominators by the lcm; returns (poly, multiplier).

        An all-integer polynomial is returned as it is, not copied.
        """
        if set(map(type, self.terms.values())) <= {int}:
            return self, 1
        den = 1
        for c in self.terms.values():
            c = Fraction(c)
            den = den * c.denominator // gcd(den, c.denominator)
        out = MultiPoly(self.n)
        out.terms = {k: int(Fraction(c) * den) for k, c in self.terms.items()}
        return out, den

    def dense_exponents(self, key):
        vec = [0] * self.n
        for i, e in key:
            vec[i] = e
        return vec

    def to_json(self):
        """[[coefficient-string, dense exponent vector], ...] canonical order."""
        items = sorted(self.terms.items(), key=lambda kv: self.dense_exponents(kv[0]))
        return [[str(c), self.dense_exponents(k)] for k, c in items]

    @classmethod
    def from_json(cls, n, data):
        terms = {}
        for c, vec in data:
            key = tuple((i, e) for i, e in enumerate(vec) if e)
            terms[key] = terms.get(key, 0) + (Fraction(c) if "/" in str(c) else int(c))
        out = cls(n)
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def __repr__(self):
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for key, c in sorted(self.terms.items()):
            mon = "*".join(f"x{i}^{e}" for i, e in key)
            bits.append(f"{c}{'*' + mon if mon else ''}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def determinant(matrix):
    """Exact determinant of a square MultiPoly matrix (Laplace expansion)."""
    size = len(matrix)
    if size == 0:
        raise NormforgeError("empty matrix")
    n = matrix[0][0].n
    if size == 1:
        return matrix[0][0]
    acc = MultiPoly.const(n, 0)
    for j in range(size):
        entry = matrix[0][j]
        if entry.is_zero():
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in matrix[1:]]
        sub = determinant(minor)
        term = entry * sub
        acc = acc + term if j % 2 == 0 else acc - term
    return acc
