"""Roots in a number field from the degrees of the Trager norm's factors."""

import random
from fractions import Fraction

import pytest

from normforge import kpoly, zfactor
from normforge.cyclic import gaussian_period_subfield
from normforge.errors import NonMonogenicAtP, NormforgeError
from normforge.kpoly import _newton_interpolate, has_primitive_root_of_unity, has_root_in_field, norm_poly
from normforge.numberfield import NumberField, splitting_type
from normforge.polyq import UniPoly, cyclotomic_poly, resultant, yun_squarefree
from normforge.zfactor import SIEVE_PRIMES, _factor_squarefree_z, _squarefree_mod, factor_over_q


@pytest.mark.parametrize("q, ms", [(3, (1, 3, 4, 5, 6, 8, 9, 12)), (5, (3, 5, 8, 12))])
def test_mu_q_in_cyclotomic_fields_iff_q_divides_m(q, ms):
    # an odd prime q has a primitive q-th root of unity in Q(zeta_m) iff q | m
    for m in ms:
        assert has_primitive_root_of_unity(NumberField.cyclotomic(m), q) == (m % q == 0), m


def test_mu_q_false_although_q_minus_one_divides_the_degree():
    for field in (NumberField.cyclotomic(5), NumberField.cyclotomic(8), NumberField(UniPoly([-5, 0, 1]))):
        assert field.degree % 2 == 0
        assert not has_primitive_root_of_unity(field, 3)


def test_mu_q_ruled_out_by_the_ramification_of_q(monkeypatch):
    # zeta_7 forces 6 | e(P|7), and 7 is unramified in these fields: no Trager
    # norm is needed, and Q(zeta_13) took about 21 s through one
    def trager(field, h):
        raise AssertionError(f"Trager's test ran for {field.name}")

    monkeypatch.setattr(kpoly, "has_root_in_field", trager)
    for m in (9, 13, 19):
        assert not has_primitive_root_of_unity(NumberField.cyclotomic(m), 7), m
    monkeypatch.undo()
    # the Trager test alone agrees where both are cheap
    for field in (NumberField.cyclotomic(5), NumberField.cyclotomic(8), NumberField(UniPoly([-5, 0, 1]))):
        assert not has_root_in_field(field, cyclotomic_poly(3))


def test_mu_7_in_q_zeta_21_with_a_certified_norm(monkeypatch):
    # 7 ramifies with e = 6 in Q(zeta_21), so Trager's test runs; a sieve
    # prime proves the first shift's degree-72 norm squarefree, and Yun's
    # Fraction gcd on it, about 16 s, is not needed
    def yun(f):
        raise AssertionError(f"Yun ran on a norm of degree {f.degree}")

    monkeypatch.setattr(zfactor, "yun_squarefree", yun)
    assert has_primitive_root_of_unity(NumberField.cyclotomic(21), 7)


def test_mu_q_where_z_theta_is_not_maximal_at_q():
    # theta = 3 * sqrt(-3): Z[theta] is not maximal at 3, so the splitting of 3
    # cannot be read and Trager's test decides
    field = NumberField(UniPoly([27, 0, 1]))
    with pytest.raises(NonMonogenicAtP):
        splitting_type(field, 3)
    assert has_primitive_root_of_unity(field, 3)
    assert has_primitive_root_of_unity(NumberField(UniPoly([3, 0, 1])), 3)


def test_mu_q_in_a_non_galois_quartic():
    # theta^4 = -3 gives theta^2 = sqrt(-3), so zeta_3 lies in Q(theta)
    assert has_primitive_root_of_unity(NumberField(UniPoly([3, 0, 0, 0, 1])), 3)


def test_rational_roots_over_q():
    # over Q the norm at shift 0 is h itself
    assert has_root_in_field(NumberField.rationals(), UniPoly([-4, 0, 1]))
    assert not has_root_in_field(NumberField.rationals(), UniPoly([-2, 0, 1]))


def test_period_polynomial_roots():
    eta7 = gaussian_period_subfield(7, 2).period_poly  # y^2 + y + 2, roots in Q(sqrt(-7))
    assert has_root_in_field(NumberField(UniPoly([7, 0, 1])), eta7)
    assert not has_root_in_field(NumberField(UniPoly([-5, 0, 1])), eta7)
    eta13 = gaussian_period_subfield(13, 2).period_poly  # roots in Q(sqrt(13))
    assert has_root_in_field(gaussian_period_subfield(13, 4).number_field(), eta13)
    assert not has_root_in_field(gaussian_period_subfield(13, 3).number_field(), eta13)


def test_root_test_refuses_a_repeated_factor():
    with pytest.raises(NormforgeError, match="squarefree"):
        has_root_in_field(NumberField.cyclotomic(3), UniPoly([1, 2, 1]))
    # every square divides the zero polynomial
    with pytest.raises(NormforgeError, match="squarefree"):
        has_root_in_field(NumberField.cyclotomic(3), UniPoly.zero())


def _norm_cases():
    rng = random.Random(1976)
    cases = [(5, cyclotomic_poly(5), 1), (7, cyclotomic_poly(7), 1)]
    for _ in range(8):
        h = UniPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
        cases.append((rng.choice([3, 4, 5, 8, 9]), h, rng.randint(0, 3)))
    return cases


@pytest.mark.parametrize("m, h, s", _norm_cases(), ids=str)
def test_norm_poly_matches_the_euclidean_resultant(m, h, s):
    # N_s(y0) = Res_x(f(x), h(y0 - s*x)), also between and beyond the
    # interpolation nodes 0 .. n*deg(h)
    field = NumberField.cyclotomic(m)
    N = norm_poly(field, h, s)
    assert N.degree == field.degree * h.degree and N.is_monic()
    for y0 in (Fraction(k, 2) for k in range(-3, 2 * N.degree + 4)):
        assert N(y0) == resultant(field.poly, h(UniPoly([y0, -s])))


@pytest.mark.parametrize("field, h, has_root", [
    (NumberField.cyclotomic(5), cyclotomic_poly(5), True),
    (NumberField.cyclotomic(7), cyclotomic_poly(7), True),
    # roots +-sqrt2 +- sqrt3: N_1 = (y^2 - 3)^2 (y^4 - 22y^2 + 25) has a
    # factor of degree 2, yet no root lies in Q(sqrt2)
    (NumberField(UniPoly([-2, 0, 1])), UniPoly([1, 0, -10, 0, 1]), False),
], ids=["zeta5", "zeta7", "sqrt2"])
def test_a_first_shift_norm_with_a_repeated_factor_is_skipped(field, h, has_root, monkeypatch):
    _, factors = factor_over_q(norm_poly(field, h, 1))
    assert any(mult > 1 for _, mult in factors)
    # a shift is taken only when a sieve prime certifies its norm, so no
    # Yun decomposition runs on the uncertified first norm
    monkeypatch.setattr(zfactor, "yun_squarefree", _no_yun)
    assert has_root_in_field(field, h) == has_root


def _no_yun(f):
    raise AssertionError(f"Yun ran on a norm of degree {f.degree}")


P29 = 6469693230  # 2 * 3 * 5 * ... * 29: every sieve prime divides these discriminants


@pytest.mark.parametrize("field, h, has_root", [
    (NumberField.rationals(), UniPoly([-P29, 0, 1]), False),
    (NumberField.cyclotomic(4), UniPoly([-P29, 0, 1]), False),
    (NumberField.rationals(), UniPoly([-P29 ** 2, 0, 1]), True),
    (NumberField.cyclotomic(4), UniPoly([P29 ** 2, 0, 1]), True),
], ids=["Q-nonsquare", "Qi-nonsquare", "Q-square", "Qi-minus-square"])
def test_a_norm_no_sieve_prime_certifies_is_decided_by_one_gcd(field, h, has_root, monkeypatch):
    for s in range(32):
        assert not any(_squarefree_mod(norm_poly(field, h, s).num, p) for p in SIEVE_PRIMES)
    monkeypatch.setattr(zfactor, "yun_squarefree", _no_yun)
    monkeypatch.setattr(zfactor, "factor_over_q", _no_yun)
    assert has_root_in_field(field, h) == has_root


def test_a_rational_root_test_matches_its_integer_scaling():
    # h = y^2 - 9/4 has the roots +-3/2; 4 h(y / 2) = y^2 - 9
    assert has_root_in_field(NumberField.rationals(), UniPoly([Fraction(-9, 4), 0, 1]))
    assert has_root_in_field(NumberField.cyclotomic(4), UniPoly([Fraction(9, 4), 0, 4]))  # +-3i/4
    assert not has_root_in_field(NumberField.cyclotomic(4), UniPoly([Fraction(-1, 3), 0, 5]))


def test_newton_interpolation_is_exact_on_integers():
    rng = random.Random(1977)
    for _ in range(20):
        N = UniPoly([rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 12))])
        assert _newton_interpolate([N(k) for k in range(N.degree + 1)]) == N
    # y (y - 1) / 2 takes the values 0, 0, 1 but is not in Z[y]; nor is 1/2
    for values in ([0, 0, 1], [Fraction(1, 2)], [1, 2, 4, 8]):
        with pytest.raises(NormforgeError, match="no integer polynomial"):
            _newton_interpolate(values)


def _factor_by_yun(f):
    """factor_over_q's factors through Yun's decomposition for every input."""
    out = [(g.monic(), mult) for sq, mult in yun_squarefree(f)
           for g in _factor_squarefree_z(sq.primitive_int())]
    return sorted(out, key=lambda t: (t[0].degree, t[0].coeffs))


def _yun_cases():
    rng = random.Random(1608)

    def poly(deg):
        return UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([1, 2, -3])])

    # squarefree, yet lc = 2 * 3 * ... * 29 leaves no sieve prime to certify it
    cases = [UniPoly([1, 1, 6469693230]), cyclotomic_poly(21)]
    cases += [poly(rng.randint(1, 8)) for _ in range(20)]
    for _ in range(20):
        f = poly(rng.randint(1, 3)) ** 2
        for _ in range(rng.randint(0, 2)):
            f = f * poly(rng.randint(1, 4)) ** rng.choice([1, 2, 3])
        cases.append(f)
    return cases


def test_factor_over_q_matches_the_yun_path():
    repeated = 0
    for f in _yun_cases():
        ints = f.primitive_int().int_coeffs()
        _, factors = factor_over_q(f)
        assert factors == _factor_by_yun(f), f
        if any(mult > 1 for _, mult in factors):
            # a repeated factor stays repeated mod every prime not dividing lc
            assert not any(_squarefree_mod(ints, p) for p in SIEVE_PRIMES)
            repeated += 1
    assert repeated >= 20


@pytest.mark.parametrize("f", [UniPoly([0, 0, 1, 1]), UniPoly([4, 0, -4, 0, 1])])
def test_factoring_a_polynomial_with_a_repeated_factor_fails_at_once(f, monkeypatch):
    # x^2 (x + 1) and (x^2 - 2)^2 stay non-squarefree mod every prime; the
    # prime search stops after the primes that can divide lc disc(f)
    tried = []
    real = zfactor.next_prime
    monkeypatch.setattr(zfactor, "next_prime", lambda p: tried.append(p) or real(p))
    with pytest.raises(AssertionError, match="not squarefree"):
        _factor_squarefree_z(f)
    assert 0 < len(tried) <= 24
