"""Factorization over Q and over F_p checked against sympy, when sympy is
installed.

sympy is not a dependency of the package; without it this module is skipped.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from normforge import zfactor  # noqa: E402
from normforge.modp import factor_poly_mod_p  # noqa: E402
from normforge.polyq import UniPoly  # noqa: E402
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
