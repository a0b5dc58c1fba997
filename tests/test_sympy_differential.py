"""Factorization over Q and over F_p, gcds, squarefree decompositions and
field norms checked against sympy, when sympy is installed.

sympy is not a dependency of the package; without it this module is skipped.
"""

import math
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from normforge import zfactor  # noqa: E402
from normforge.modp import factor_poly_mod_p  # noqa: E402
from normforge.numberfield import NumberField  # noqa: E402
from normforge.polyq import UniPoly, poly_gcd, yun_squarefree  # noqa: E402
from normforge.zfactor import factor_over_q, is_irreducible_over_q  # noqa: E402

X = sympy.Symbol("x")


def _sympy_factorization(f):
    """(leading coefficient, sorted [(monic coefficients, multiplicity)])."""
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), X))
    out = []
    for g, mult in factors:
        coeffs = [Fraction(int(c)) for c in reversed(g.all_coeffs())]
        out.append(([c / coeffs[-1] for c in coeffs], mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return f.leading(), out


def _random_poly(rng, deg):
    return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 1, 2, -3])])


def _seeded_cases():
    rng = random.Random(314)
    cases = [UniPoly([1, 0, -10, 0, 1])]  # x^4 - 10x^2 + 1, reducible mod every p
    cases += [_random_poly(rng, rng.randint(1, 9)) for _ in range(40)]
    for _ in range(40):
        f = UniPoly.one()
        for _ in range(rng.randint(2, 3)):
            f = f * _random_poly(rng, rng.randint(1, 4)) ** rng.choice([1, 1, 2])
        cases.append(f)
    return cases


@pytest.mark.parametrize("f", _seeded_cases(), ids=lambda f: str(f.int_coeffs()))
def test_factor_over_q_matches_sympy(f):
    const, factors = factor_over_q(f)
    want_const, want = _sympy_factorization(f)
    assert const == want_const
    assert [(g.coeffs, mult) for g, mult in factors] == want
    irreducible = len(want) == 1 and want[0][1] == 1 and len(want[0][0]) == f.degree + 1
    assert is_irreducible_over_q(f) == irreducible


def test_sieve_falls_back_when_every_prime_splits(monkeypatch):
    # x^4 - 10x^2 + 1 (minimal polynomial of sqrt2 + sqrt3) splits mod every
    # prime, so the degree sieve proves nothing and Zassenhaus must decide
    calls = []

    def counting(f):
        calls.append(f)
        return factor_over_q(f)

    monkeypatch.setattr(zfactor, "factor_over_q", counting)
    f = UniPoly([1, 0, -10, 0, 1])
    assert is_irreducible_over_q(f)
    assert len(calls) == 1
    assert sympy.Poly(X ** 4 - 10 * X ** 2 + 1, X).is_irreducible
    # an irreducible cubic is settled by the sieve alone
    assert is_irreducible_over_q(UniPoly([-2, 0, 0, 1]))
    assert len(calls) == 1



def _sympy_irreducible(f):
    return sympy.Poly(list(reversed(f.int_coeffs())), X).is_irreducible


def _value(ints, r):
    return sum(c * r ** i for i, c in enumerate(ints))


def _has_root_mod(ints, p):
    return any(_value(ints, r) % p == 0 for r in range(p))


def _lifted_root_cases():
    """UniPolys over Z with a rational root that the lift must find,
    irreducible quartics whose degree 1 only the lift can close, and
    polynomials of degree 1."""
    rng = random.Random(1978)

    def small(deg, lc=1):
        return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [lc])

    cases = []
    for _ in range(12):  # (x - r) g with |r| far beyond the coefficients of g
        r = rng.choice([-1, 1]) * rng.randint(10 ** 3, 10 ** 6)
        cases.append(UniPoly([-r, 1]) * small(rng.randint(1, 5), rng.choice([1, 1, 2, -3])))
    for _ in range(8):  # x g(x): the root 0 mod every p lifts to 0
        cases.append(UniPoly([0, 1]) * small(rng.randint(1, 6), rng.choice([1, 5])))
    for _ in range(12):  # a rational root u/v with v > 1, g not monic either
        v = rng.randint(2, 30)
        u = rng.choice([u for u in range(-60, 61) if u and math.gcd(u, v) == 1])
        cases.append(UniPoly([-u, v]) * small(rng.randint(1, 5), rng.randint(1, 6)))
    quartics = []
    while len(quartics) < 6:  # a root mod every sieve prime that keeps f squarefree
        ints = [rng.randint(-9, 9) for _ in range(4)] + [1]
        if (all(_has_root_mod(ints, p) or not zfactor._squarefree_mod(ints, p)
                for p in zfactor.SIEVE_PRIMES)
                and all(_value(ints, r) for r in range(-10, 11))  # no root within the Cauchy bound
                and any(zfactor._squarefree_mod(ints, p) for p in zfactor.SIEVE_PRIMES)
                and _sympy_irreducible(UniPoly(ints))):
            quartics.append(UniPoly(ints))
    cases += quartics
    cases += [UniPoly([rng.randint(-50, 50), rng.choice([1, 2, -7, 12])]) for _ in range(6)]
    return cases


@pytest.mark.parametrize("f", _lifted_root_cases(), ids=lambda f: str(f.int_coeffs()))
def test_lifted_root_exclusion_matches_sympy(f):
    want = _sympy_irreducible(f)
    assert is_irreducible_over_q(f) == want
    assert is_irreducible_over_q(f.int_coeffs()) == want
    assert is_irreducible_over_q(f.scale(Fraction(-2, 3))) == want


def _sympy_factorization_mod_p(f, p):
    """Sorted [(monic coefficients in [0, p), multiplicity)] of f over F_p."""
    _, factors = sympy.factor_list(sympy.Poly(list(reversed(f)), X).as_expr(), X, modulus=p)
    out = []
    for g, mult in factors:
        coeffs = [int(c) % p for c in reversed(sympy.Poly(g, X).all_coeffs())]
        inv = pow(coeffs[-1], -1, p)
        out.append(([c * inv % p for c in coeffs], mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def _seeded_cases_mod_p():
    rng = random.Random(2718)
    cases = []
    for p in (2, 3, 5, 7, 29, 101, 10007):
        for _ in range(12):
            f = [rng.randint(-p, 2 * p) for _ in range(rng.randint(1, 10))] + [rng.randint(1, p - 1)]
            if rng.random() < 0.4:  # a repeated factor; g^p has derivative 0 mod p
                g = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
                for _ in range(p if p <= 3 else 2):
                    f = _mul_ints(f, g)
            cases.append((f, p))
    return cases


def _mul_ints(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# sympy's own mod-p factoring compares modular integers, which sympy >= 1.13
# deprecates; the warning is about sympy's internals, not this comparison
@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@pytest.mark.parametrize("f, p", _seeded_cases_mod_p(), ids=lambda v: str(v))
def test_factor_poly_mod_p_matches_sympy(f, p):
    assert factor_poly_mod_p(f, p) == _sympy_factorization_mod_p(f, p)


def _sympy_poly(f):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(f.coeffs)],
                      X, domain="QQ")


def _from_sympy(g):
    return UniPoly([Fraction(int(c.p), int(c.q)) for c in reversed(g.all_coeffs())])


def _seeded_pairs():
    rng = random.Random(1971)
    pairs = []
    for _ in range(30):
        g = _random_poly(rng, rng.randint(0, 3)) ** rng.choice([1, 2])
        a = g * _random_poly(rng, rng.randint(0, 4))
        b = g * _random_poly(rng, rng.randint(0, 4)).scale(Fraction(1, rng.randint(1, 6)))
        pairs.append((a, b))
    return pairs


@pytest.mark.parametrize("a, b", _seeded_pairs(), ids=str)
def test_poly_gcd_matches_sympy(a, b):
    assert poly_gcd(a, b) == _from_sympy(_sympy_poly(a).gcd(_sympy_poly(b)).monic())


@pytest.mark.parametrize("f", [f for f in _seeded_cases() if f.degree > 0],
                         ids=lambda f: str(f.int_coeffs()))
def test_yun_squarefree_matches_sympy(f):
    _, want = _sympy_poly(f).sqf_list()
    assert yun_squarefree(f) == [(_from_sympy(g.monic()), mult) for g, mult in want]


def _seeded_elements():
    rng = random.Random(1976)
    fields = [NumberField(UniPoly(f)) for f in ([1, 0, 1], [-2, 0, 0, 1], [1, 0, -10, 0, 1])]
    fields += [NumberField.cyclotomic(m) for m in (5, 7, 9, 12)]
    cases = []
    for field in fields:
        for _ in range(4):
            cases.append(field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                        for _ in range(field.degree)]))
    return cases


@pytest.mark.parametrize("alpha", _seeded_elements(), ids=str)
def test_field_norm_matches_sympy_resultant(alpha):
    # for monic f, Res(f, a) = prod a(theta_i) = N(a(theta))
    want = sympy.resultant(_sympy_poly(alpha.field.poly), _sympy_poly(alpha.poly()))
    assert alpha.norm() == Fraction(str(want))
