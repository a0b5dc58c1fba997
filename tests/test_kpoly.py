"""Roots in a number field from the degrees of the Trager norm's factors."""

import pytest

from normforge.cyclic import gaussian_period_subfield
from normforge.errors import NormforgeError
from normforge.kpoly import has_primitive_root_of_unity, has_root_in_field
from normforge.numberfield import NumberField
from normforge.polyq import UniPoly


@pytest.mark.parametrize("q, ms", [(3, (1, 3, 4, 5, 6, 8, 9, 12)), (5, (3, 5, 8, 12))])
def test_mu_q_in_cyclotomic_fields_iff_q_divides_m(q, ms):
    # an odd prime q has a primitive q-th root of unity in Q(zeta_m) iff q | m
    for m in ms:
        assert has_primitive_root_of_unity(NumberField.cyclotomic(m), q) == (m % q == 0), m


def test_mu_q_false_although_q_minus_one_divides_the_degree():
    for field in (NumberField.cyclotomic(5), NumberField.cyclotomic(8), NumberField(UniPoly([-5, 0, 1]))):
        assert field.degree % 2 == 0
        assert not has_primitive_root_of_unity(field, 3)


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
