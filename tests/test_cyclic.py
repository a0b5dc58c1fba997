"""Gaussian periods, Frobenius degrees, composita, the Kummer generator."""

import pytest

from normforge.cyclic import (
    compositum_degree_data,
    find_auxiliary_ell,
    frobenius_residue_degree,
    gaussian_period_subfield,
    kummer_generator,
    nonsplit_sublayer,
    real_cyclotomic_minpoly,
    subgroup_of_index,
)
from normforge.errors import HypothesisFail, RamifiedCase, SearchExhausted
from normforge.intfunc import primes_up_to
from normforge.numberfield import NumberField, splitting_type, valuation
from normforge.polyq import UniPoly, real_root_isolate
from normforge.zfactor import is_irreducible_over_q


def test_find_auxiliary_ell_worked():
    assert find_auxiliary_ell(3, 1) == 7  # 7 = 1 mod 3, cubes mod 7 are {1, 6}
    assert find_auxiliary_ell(2, 1) == 5  # squares mod 5 are {1, 4}
    assert find_auxiliary_ell(2, 2) == 5  # 5 = 1 mod 4 and 2 is a non-residue
    assert pow(3, 2, 7) != 1 and pow(2, 2, 5) != 1
    with pytest.raises(SearchExhausted):
        find_auxiliary_ell(3, 1, bound=5)


def test_find_auxiliary_ell_impossible_level_refuses_at_once(monkeypatch):
    import normforge.cyclic as cyclic

    def no_scan(*args, **kwargs):
        raise AssertionError("find_auxiliary_ell scanned candidates")

    monkeypatch.setattr(cyclic, "power_test_in_extension", no_scan)
    for m in (3, 4):
        with pytest.raises(SearchExhausted, match=r"mod 8\) makes 2 a square"):
            find_auxiliary_ell(2, m)


def test_gaussian_period_worked_examples():
    h = gaussian_period_subfield(7, 3)
    assert h.period_poly == UniPoly([-1, -2, 1, 1])
    assert h.subgroup == (1, 6)
    h2 = gaussian_period_subfield(5, 2)
    assert h2.period_poly == UniPoly([-1, 1, 1])
    assert h2.subgroup == (1, 4)
    marker = gaussian_period_subfield(11, 1)
    assert marker.period_poly == UniPoly([1, 1])  # full period sums to -1


def test_period_fields_totally_real_when_minus_one_in_subgroup():
    for ell in primes_up_to(100):
        if ell < 3:
            continue
        for d in range(2, 7):
            if (ell - 1) % d != 0:
                continue
            if ell - 1 in subgroup_of_index(ell, d):
                h = gaussian_period_subfield(ell, d)
                assert h.totally_real
                assert len(real_root_isolate(h.period_poly)) == d


def test_frobenius_worked_examples():
    assert frobenius_residue_degree(7, 3, 3) == 3
    assert frobenius_residue_degree(5, 2, 2) == 2
    assert frobenius_residue_degree(7, 3, 2) == 3
    with pytest.raises(RamifiedCase):
        frobenius_residue_degree(7, 3, 7)


def _check_period_field(ell, d, primes):
    """Period polynomial shape, and Frobenius degrees against splitting_type;
    returns how many primes were checked (non-monogenic ones are skipped)."""
    from normforge.errors import NonMonogenicAtP

    h = gaussian_period_subfield(ell, d)
    assert h.period_poly.is_monic() and h.period_poly.degree == d
    assert is_irreducible_over_q(h.period_poly)
    field = h.number_field()
    checked = 0
    for p in primes:
        if p == ell:
            continue
        try:
            primes_above = splitting_type(field, p)
        except NonMonogenicAtP:
            continue
        f_pred = frobenius_residue_degree(ell, d, p)
        assert {P.f_deg for P in primes_above} == {f_pred}
        assert len(primes_above) == d // f_pred
        assert all(P.e == 1 for P in primes_above)
        checked += 1
    return checked


def test_frobenius_agrees_with_splitting_type():
    for ell in [p for p in primes_up_to(50) if p > 2]:
        for d in (2, 3, 4):
            if (ell - 1) % d == 0:
                _check_period_field(ell, d, primes_up_to(20))
    # a period field of degree 10: residue degrees 10, 5 and 2 occur below 50
    assert _check_period_field(101, 10, primes_up_to(50)) >= 10


def test_compositum_worked_examples():
    H73 = gaussian_period_subfield(7, 3)
    G5 = NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)")
    assert compositum_degree_data(G5, H73) == (3, 3)
    assert compositum_degree_data(H73.number_field(), H73) == (1, 1)
    assert compositum_degree_data(NumberField.rationals(), H73) == (3, 3)
    # a genuine partial intersection: H = degree-4 subfield of Q(xi_13),
    # G = its quadratic subfield: [GH : G] = 2
    H134 = gaussian_period_subfield(13, 4)
    G132 = gaussian_period_subfield(13, 2).number_field()
    assert compositum_degree_data(G132, H134) == (2, 2)


def test_nonsplit_sublayer_worked():
    Q = NumberField.rationals()
    H52 = gaussian_period_subfield(5, 2)
    P2, = splitting_type(Q, 2)
    assert nonsplit_sublayer(P2, H52, 2) == (1, 2)
    H73 = gaussian_period_subfield(7, 3)
    P3, = splitting_type(Q, 3)
    assert nonsplit_sublayer(P3, H73, 3) == (1, 3)
    # f already at the full power: hypothesis violated
    G = H52.number_field()
    P2g, = splitting_type(G, 2)  # 2 inert: f = 2 = q^r
    with pytest.raises(HypothesisFail):
        nonsplit_sublayer(P2g, H52, 2)


def test_kummer_generator_properties():
    a, hdata = kummer_generator(7, 3)
    K = a.field  # Q(zeta_3)
    assert K.degree == 2
    assert a.norm() == 343  # norm 7^3: unit at every prime except 7
    Q3, = splitting_type(K, 3)
    assert valuation(K, Q3, a) == 0
    # a is a genuine Kummer generator: x^3 - a is irreducible over Q as a
    # degree-6 absolute polynomial (resultant construction)
    from normforge.polyq import resultant
    from normforge.zfactor import is_irreducible_over_q

    apoly = a.poly()
    # char poly of a = Res_x(f(x), y - a(x)) as polynomial in y, by interpolation
    pts = []
    from fractions import Fraction

    for k in range(3):
        y0 = Fraction(k)
        pts.append((y0, resultant(K.poly, UniPoly([y0]) - apoly)))
    from normforge.kpoly import _newton_interpolate

    charpoly = _newton_interpolate([v for _, v in pts])
    # substitute y -> x^3 to get the absolute polynomial of a^(1/3)
    absolute = charpoly(UniPoly([0, 0, 0, 1]))
    assert absolute.degree == 6
    assert is_irreducible_over_q(absolute)


def test_makereal_generators_totally_nonnegative():
    """Quadratic compositum layers built from totally real period fields have
    totally positive Kummer generators (the Gauss-sum square a = ell)."""
    from normforge.numberfield import omega_membership

    for ell in (5, 13, 17):
        a, hdata = kummer_generator(ell, 2)
        assert hdata.totally_real
        assert a.as_rational() == ell  # the classical Gauss sum square
        assert omega_membership(a.field, a, 2)


def test_cyclic_field_json():
    h = gaussian_period_subfield(7, 3)
    data = h.to_json()
    assert data["ell"] == 7 and data["degree"] == 3
    assert data["period_poly"] == ["-1", "-2", "1", "1"]
    assert data["totally_real"] is True


def test_real_cyclotomic_minpoly_vanishes_at_two_cos():
    # checked by exact evaluation at xi + xi^-1 in Q(xi_m), not through cyclic
    from math import gcd

    for m in range(3, 41):
        poly = real_cyclotomic_minpoly(m)
        assert poly.is_monic()
        assert 2 * poly.degree == sum(1 for k in range(1, m) if gcd(k, m) == 1)
        K = NumberField.cyclotomic(m)
        beta = K.gen() + K.gen() ** (m - 1)
        value = K.zero()
        for c in reversed(poly.coeffs):
            value = value * beta + c
        assert value.is_zero(), m


@pytest.mark.parametrize("ell, q", [(7, 3), (13, 3), (5, 2), (13, 2), (11, 5)])
def test_kummer_generator_is_the_resolvent_power(ell, q):
    # r = sum_j xi_q^j eta_j with eta_j the period over g^j H, g the least
    # primitive root mod ell and H the q-th powers, built in Q(xi_{q ell})
    a, _ = kummer_generator(ell, q)
    assert a.field == NumberField.cyclotomic(q)
    L = NumberField.cyclotomic(q * ell)
    xi_q, xi_ell = L.gen() ** ell, L.gen() ** q
    g = next(g for g in range(2, ell) if len({pow(g, k, ell) for k in range(ell)}) == ell - 1)
    H = {pow(y, q, ell) for y in range(1, ell)}
    r = L.zero()
    for j in range(q):
        eta = L.zero()
        for h in H:
            eta = eta + xi_ell ** (pow(g, j, ell) * h % ell)
        r = r + xi_q ** j * eta
    image = L.zero()
    for i, c in enumerate(a.coords):
        image = image + xi_q ** i * c
    assert r ** q == image
