"""Elliptic curve arithmetic and the denominator lemmas over Q."""

import random
from fractions import Fraction

import pytest

from normforge.elliptic import (
    EllipticCurve,
    MultipleCache,
    denominator_divisibility_search,
    elliptic_definition_eval,
    equiv_divisibility_check,
    find_equiv_m,
    multiply_point,
    weak_vertical_check,
)
from normforge.errors import HypothesisFail, NormforgeError, NotFound

E = EllipticCurve(0, -2)
P = E.point(3, 5)


def test_singular_curve_rejected():
    with pytest.raises(NormforgeError):
        EllipticCurve(0, 0)
    with pytest.raises(NormforgeError):
        E.point(1, 1)


def test_double_worked_example():
    # lambda = 27/10, x2 = lambda^2 - 6 = 129/100, y2 = -383/1000
    P2 = multiply_point(E, P, 2)
    assert P2.x == Fraction(129, 100) and P2.y == Fraction(-383, 1000)
    assert multiply_point(E, P, 1) == P
    assert multiply_point(E, P, 0).is_infinity()
    assert multiply_point(E, P, -2) == -P2


def test_multiply_point_matches_repeated_addition():
    # (2, 3) on y^2 = x^3 + 1 has order 6, so its multiples wrap round twice
    E6 = EllipticCurve(0, 1)
    for curve, pt in ((E, P), (E6, E6.point(2, 3))):
        for n in range(-6, 13):
            want = curve.infinity()
            for _ in range(abs(n)):
                want = want + (pt if n > 0 else -pt)
            assert multiply_point(curve, pt, n) == want


def test_group_law_sampled():
    rng = random.Random(2024)
    cache = MultipleCache(E, P)
    pts = [cache.point(n) for n in range(-6, 7)]
    for _ in range(50):
        A, B, C = (rng.choice(pts) for _ in range(3))
        assert (A + B) + C == A + (B + C)
    for m in range(-8, 9):
        for n in range(-4, 5):
            assert cache.point(m + n) == cache.point(m) + cache.point(n)


def test_denominator_growth_divisibility():
    """v_p(d(x_n)) <= v_p(d(x_kn)) along multiples, and d(x_n) is a square
    times bounded factors (checked: the square part dominates)."""
    from normforge.intfunc import factorint, valuation_int

    cache = MultipleCache(E, P)
    dens = {n: cache.x(n).denominator for n in range(1, 21)}
    for n in range(1, 11):
        for k in range(2, 20 // n + 1):
            for p in factorint(dens[n]):
                assert valuation_int(dens[n], p) <= valuation_int(dens[n * k], p)
    import math

    for n in range(1, 21):
        # denominators of x_n are perfect squares over Q
        root = math.isqrt(dens[n])
        assert root * root == dens[n]


def test_divisibility_search_worked():
    assert denominator_divisibility_search(E, P, 4, 1) == 2  # d(x_2) = 100
    assert denominator_divisibility_search(E, P, 1, 1) == 1
    with pytest.raises(NotFound) as exc:
        denominator_divisibility_search(E, P, 10 ** 6, 1, k_max=3)
    assert len(exc.value.ledger) == 3


def test_divisibility_search_refuses_a_torsion_point():
    # (2, 3) on y^2 = x^3 + 1 has order 6
    E6 = EllipticCurve(0, 1)
    T = E6.point(2, 3)
    assert multiply_point(E6, T, 6).is_infinity()
    assert not any(multiply_point(E6, T, n).is_infinity() for n in range(1, 6))
    with pytest.raises(HypothesisFail):
        denominator_divisibility_search(E6, T, 4, 1)


def test_equiv_divisibility_and_find_m():
    cache = MultipleCache(E, P)
    # k = 1: the expression is x/x - 1 = 0, zero numerator divisible by all
    assert all(equiv_divisibility_check(E, P, 1, l, 1, cache) for l in range(1, 5))
    m = find_equiv_m(E, P, m_max=5, k_range=5, l_range=5)
    # the found m passes the full brute force on the larger window
    for k in range(1, 7):
        for l in range(1, 7):
            res = equiv_divisibility_check(E, P, m, l, k, cache)
            assert res is None or res


def test_find_equiv_m_reports_failures():
    # oracle: recompute the divisibility directly for a failing (m, k, l) if any
    cache = MultipleCache(E, P)
    for m in range(1, 3):
        for k in range(1, 4):
            for l in range(1, 4):
                res = equiv_divisibility_check(E, P, m, l, k, cache)
                if res is False:
                    x_lm, x_klm = cache.x(l * m), cache.x(k * l * m)
                    val = (x_lm / x_klm - k * k) ** 2
                    assert val.numerator % x_lm.denominator != 0
                    return


def test_weak_vertical_check():
    from normforge.numberfield import NumberField, splitting_type
    from normforge.polyq import UniPoly

    N = NumberField(UniPoly([-2, 0, 1]), name="Q(sqrt2)")
    prime = splitting_type(N, 7)[0]
    # u = 3 + 49*sqrt(2): close to y = 3 to 7-adic depth 2
    u = N.element([3, 49])
    report = weak_vertical_check(N, 1, prime, u, [(1, 3)])
    assert report["consistent"]
    # a discriminant of order 1 at the prime lowers every coordinate bound by one
    shifted = weak_vertical_check(N, 1, prime, u, [(1, 3)], disc_order=1)
    assert [c["bound"] for c in shifted["coordinates"]] == [
        c["bound"] - 1 for c in report["coordinates"]]
    # u already in the base field
    report2 = weak_vertical_check(N, 1, prime, N.element(5), [(1, 5)])
    assert report2["consistent"]
    with pytest.raises(HypothesisFail):
        weak_vertical_check(N, 1, prime, u, [(5, 3)])  # v(u - 3) = 2 <= 5


def test_elliptic_definition_eval():
    ok, details = elliptic_definition_eval(E, P, 2, 5, -1, 4, [1, 5], m=1, r_max=20, k_val=2)
    assert ok and all("r" in d for d in details)
    bad, details2 = elliptic_definition_eval(E, P, 2, 5, -1, Fraction(1, 5), [5 ** 6], m=1, r_max=10)
    assert not bad
    vac, _ = elliptic_definition_eval(E, P, 2, 5, -1, 4, [], m=1)
    assert vac
    with pytest.raises(HypothesisFail):
        elliptic_definition_eval(E, P, 2, 5, -2, 4, [1], m=1)  # v(b) even


def test_point_json():
    assert P.to_json() == {"x": "3", "y": "5"}
    assert E.infinity().to_json() == {"infinity": True}
