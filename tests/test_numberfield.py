"""Number field splitting, valuations, residues, memberships, approximation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normforge.errors import NonMonogenicAtP, NormforgeError, NotAUnit, PrecisionExhausted
from normforge.hensel import lift_blocks
from normforge.intfunc import is_prime, valuation_int
from normforge.modp import pdivmod, pmul
from normforge.numberfield import (
    NumberField,
    _mult_det,
    conjugate_interval,
    dedekind_criterion_ok,
    element_support,
    omega_membership,
    padic_unit,
    residue_map,
    residue_nonqth_power,
    splitting_type,
    strong_approx_element,
    theta_phi_membership,
    uniformizer,
    valuation,
)
from normforge.polyq import UniPoly, resultant

Q = NumberField.rationals()
K3 = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")
GOLDEN = NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)")
SQRT2 = NumberField(UniPoly([-2, 0, 1]), name="Q(sqrt2)")


def _seeded_fields(rng):
    """One random monic irreducible field of each degree 1..10."""
    fields = []
    for deg in range(1, 11):
        while True:
            try:
                fields.append(NumberField(UniPoly([rng.randint(-6, 6) for _ in range(deg)] + [1])))
                break
            except NormforgeError:
                continue
    return fields


def _ref_inverse(a, f):
    """s with s * a == 1 mod f, by the extended Euclidean algorithm over Q."""
    r0, r1 = f, a
    s0, s1 = UniPoly.zero(), UniPoly.one()
    while r1.degree:  # invariant: s_i * a == r_i mod f
        quo, rem = r0.divmod(r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - quo * s1
    return s1.scale(1 / r1.coeffs[0]) % f


def _coords(poly, n):
    return list(poly.coeffs) + [Fraction(0)] * (n - len(poly.coeffs))


def _assert_lowest_terms(elem):
    assert len(elem.num) == elem.field.degree and all(type(c) is int for c in elem.num)
    assert type(elem.den) is int and elem.den > 0 and math.gcd(elem.den, *elem.num) == 1


def test_element_arithmetic_matches_unipoly_reference():
    rng = random.Random(2024)
    scalars = random.Random(1409)
    for field in _seeded_fields(rng):
        f, n = field.poly, field.degree
        for _ in range(6):
            a = [Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 4, 7, 12])) for _ in range(n)]
            b = [Fraction(rng.randint(-30, 30), rng.choice([1, 5, 9])) for _ in range(n)]
            m = scalars.randint(-12, 12)
            k = Fraction(scalars.randint(-12, 12), scalars.randint(1, 12))
            A, B = UniPoly(a), UniPoly(b)
            x, y = field.element(a), field.element(b)
            results = [
                (x + y, A + B), (x - y, A - B), (-x, -A),
                (x * m, A.scale(m)), (m * x, A.scale(m)),
                (x * k, A.scale(k)), (k * x, A.scale(k)),
                (x + m, A + UniPoly([m])), (x - k, A - UniPoly([k])),
                (x * y, A * B % f), (x ** 0, UniPoly.one()),
            ]
            if not x.is_zero():
                inv = _ref_inverse(A, f)
                results += [(x.inverse(), inv), (y / x, B * inv % f),
                            (x ** 3, A ** 3 % f), (x ** -2, inv * inv % f)]
                assert x.norm() == resultant(f, A)
            for elem, ref in results:
                assert elem.coords == _coords(ref, n)
                _assert_lowest_terms(elem)


def test_equal_values_reached_by_different_paths_are_equal_and_hash_equal():
    for field in (Q, K3, SQRT2, NumberField.cyclotomic(5)):
        n = field.degree
        half = field.element([Fraction(2, 4)] + [0] * (n - 1))
        x = field.element(([Fraction(3, 2), Fraction(-5, 6)] + [Fraction(7, 10)] * n)[:n])
        pairs = [
            (half, field.element([1] + [0] * (n - 1)) * Fraction(1, 2)),
            (half, field.element(Fraction(1, 2))),
            (half, field.one() / 2),
            (field.element(3), field.element(Fraction(6, 2))),
            (field.zero(), x - x),
            (field.zero(), x * 0),
            (field.one(), x * x.inverse()),
            (x, (x * x) / x),
            (x, x.inverse().inverse()),
            (x + x, 2 * x),
            (x * Fraction(2, 3), x / field.element(Fraction(3, 2))),
        ]
        for u, v in pairs:
            assert u == v and hash(u) == hash(v)
            assert len({u, v}) == 1
            assert hash(u) == hash((field, tuple(u.coords)))
        assert half != field.one() and x != x + 1


def test_inverse_of_zero_and_of_zero_divisors_raises():
    for field in (Q, K3, NumberField.cyclotomic(7)):
        with pytest.raises(ZeroDivisionError):
            field.zero().inverse()
        with pytest.raises(ZeroDivisionError):
            field.one() / field.zero()
    # theta - 1 is a zero divisor in Q[x]/(x^2 - 1)
    split = NumberField(UniPoly([-1, 0, 1]), check_irreducible=False)
    with pytest.raises(NormforgeError):
        (split.gen() - split.one()).inverse()


def test_splitting_worked_examples():
    two = splitting_type(K3, 7)
    assert [(P.e, P.f_deg) for P in two] == [(1, 1), (1, 1)]
    one = splitting_type(GOLDEN, 2)
    assert [(P.e, P.f_deg) for P in one] == [(1, 2)]
    ram = splitting_type(K3, 3)
    assert [(P.e, P.f_deg) for P in ram] == [(2, 1)]


def test_fundamental_identity_random():
    rng = random.Random(11)
    fields = [Q, K3, GOLDEN, SQRT2,
              NumberField(UniPoly([-1, -2, 1, 1])),
              NumberField(UniPoly([2, 0, 0, 1]))]
    for _ in range(60):
        field = rng.choice(fields)
        p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23])
        try:
            primes = splitting_type(field, p)
        except NonMonogenicAtP:
            continue
        assert sum(P.e * P.f_deg for P in primes) == field.degree


def test_dedekind_criterion_detects_non_maximal():
    # Z[sqrt(5)] has index 2 in the maximal order: x^2 - 5 fails at 2
    bad = NumberField(UniPoly([-5, 0, 1]), name="Q(sqrt5)-bad-model")
    assert not dedekind_criterion_ok(bad, 2)
    with pytest.raises(NonMonogenicAtP):
        splitting_type(bad, 2)
    assert dedekind_criterion_ok(GOLDEN, 2)


def test_valuation_worked_examples():
    P7a, P7b = splitting_type(K3, 7)
    assert valuation(K3, P7a, K3.element(7)) == 1
    assert valuation(K3, P7b, K3.element(7)) == 1
    theta_minus_2 = K3.gen() - K3.element(2)
    vals = sorted([valuation(K3, P7a, theta_minus_2), valuation(K3, P7b, theta_minus_2)])
    assert vals == [0, 1]
    assert valuation(K3, P7a, K3.one()) == 0
    assert valuation(K3, P7a, K3.zero()) == float("inf")


def test_valuation_additivity_and_product_formula():
    rng = random.Random(23)
    fields = [K3, GOLDEN, SQRT2]
    for _ in range(30):
        field = rng.choice(fields)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        try:
            primes = splitting_type(field, p)
        except NonMonogenicAtP:
            continue
        a = field.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5]))
                           for _ in range(field.degree)])
        b = field.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
                           for _ in range(field.degree)])
        if a.is_zero() or b.is_zero():
            continue
        for P in primes:
            va, vb = valuation(field, P, a), valuation(field, P, b)
            assert valuation(field, P, a * b) == va + vb
            s = a + b
            if not s.is_zero():
                assert valuation(field, P, s) >= min(va, vb)
        # product formula at p: v_p(N(a)) = sum f_P v_P(a)
        norm = a.norm()
        lhs = valuation_int(norm.numerator, p) - valuation_int(norm.denominator, p)
        assert lhs == sum(P.f_deg * valuation(field, P, a) for P in primes)


def test_residue_nonqth_power_worked():
    P7a, P7b = splitting_type(K3, 7)
    assert residue_nonqth_power(K3, P7a, K3.element(82), 3)
    assert residue_nonqth_power(K3, P7b, K3.element(82), 3)
    assert not residue_nonqth_power(K3, P7a, K3.element(6), 3)
    with pytest.raises(NotAUnit):
        residue_nonqth_power(K3, P7a, K3.element(14), 3)


def test_residue_map_at_ramified_prime():
    P3, = splitting_type(K3, 3)
    # theta = zeta_3 is a unit at the ramified prime over 3; theta = 1 mod P
    r = residue_map(K3, P3, K3.gen())
    assert list(r.coeffs) == [1]


GAUSS = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
CUBE2 = NumberField(UniPoly([-2, 0, 0, 1]), name="Q(cbrt2)")

# Q(i) at 2 and Q(zeta5) at 5 ramify (e = 2, 4), Q(zeta3) at 7 and Q(zeta5)
# at 11 split, Q(zeta5) at 19 has f = 2, and 5 = P1 * P2 in Q(cbrt2) with
# residue degrees 1 and 2
LOCAL_CASES = [
    (GAUSS, (2, 3, 5)),
    (GOLDEN, (2, 5, 11)),
    (K3, (2, 3, 7)),
    (NumberField.cyclotomic(5), (2, 5, 11, 19)),
    (CUBE2, (2, 5, 7)),
]


def _local_elements(rng, field, p, count):
    """Seeded nonzero elements whose denominators carry 0, 1 and 2 factors of p."""
    cofactors = [d for d in (1, 3, 7) if d % p]
    out = []
    for k in range(count):
        den = p ** (k % 3) * rng.choice(cofactors)
        num = [rng.randint(-30, 30) for _ in range(field.degree)]
        if any(num):
            out.append(field.element([Fraction(c, den) for c in num]))
    return out


def _reference_blocks(field, p, m=40):
    """The blocks g^e of f mod p lifted by hensel.lift_blocks to p^m, at a
    precision far above every value here, without the field's cache."""
    blocks = []
    for P in splitting_type(field, p):
        b = [1]
        for _ in range(P.e):
            b = pmul(b, list(P.g), p)
        blocks.append(b)
    return lift_blocks(field.poly.num, blocks, p, m)


def test_valuation_matches_the_resultant_on_the_lifted_block():
    # v_P(alpha) = v_p(Res(F, A)) / f - e * s for A = p^s * d0 * alpha and F
    # the block lifted from g^e
    rng = random.Random(1606)
    m = 40
    checked = 0
    for field, ps in LOCAL_CASES:
        for p in ps:
            for P in splitting_type(field, p):
                F = _reference_blocks(field, p, m)[P.index]
                for alpha in _local_elements(rng, field, p, 12):
                    res = _mult_det(F, alpha.num)
                    assert res % p ** m
                    v_res = valuation_int(res, p)
                    assert v_res % P.f_deg == 0
                    expected = v_res // P.f_deg - P.e * valuation_int(alpha.den, p)
                    assert valuation(field, P, alpha) == expected
                    checked += 1
    assert checked > 250


def _count_resultants(monkeypatch):
    """The precisions m of every resultant taken from now on, in order."""
    import normforge.numberfield as nf

    calls = []
    real = nf._resultant_valuation

    def counted(F, A, p, m):
        calls.append(m)
        return real(F, A, p, m)

    monkeypatch.setattr(nf, "_resultant_valuation", counted)
    return calls


def test_valuation_certifies_the_first_value_below_the_precision(monkeypatch):
    # a lift mod p^m gives a resultant correct mod p^m, so 2^7 is exact at
    # m = 8, and m doubles only while p^m divides the resultant.  A fresh
    # field holds no lift, so m starts at 1; a later valuation at the same p
    # starts at the precision held.  At the block x^2 + 1 of degree two the
    # resultant is a determinant: (1 + i)^15 has coordinates +-2^7, nonzero
    # mod 2^8, yet 2^8 divides its norm 2^15.
    calls = _count_resultants(monkeypatch)

    def fresh(poly):
        return NumberField(UniPoly(poly), check_irreducible=False)

    def at(field, p, f_deg=1):
        return next(P for P in splitting_type(field, p) if P.f_deg == f_deg)

    cases = []
    for n, precisions in ((7, [1, 2, 4, 8]), (8, [1, 2, 4, 8, 16]), (20, [1, 2, 4, 8, 16, 32])):
        field = fresh([0, 1])
        cases.append((field, at(field, 2), field.element(2 ** n), n, precisions))
    Qw, Gi, Gj, C = fresh([0, 1]), fresh([1, 0, 1]), fresh([1, 0, 1]), fresh([-2, 0, 0, 1])
    cases += [(Qw, at(Qw, 2), Qw.element(x), expected, precisions) for x, expected, precisions in (
        (2 ** 7, 7, [1, 2, 4, 8]),  # one field from here on: each starts where the last ended
        (3, 0, [8]),
        (Fraction(2 ** 20, 3), 20, [8, 16, 32]),
        (Fraction(1, 2), -1, [32]),
    )]
    cases += [
        (Gi, at(Gi, 2), (Gi.gen() + 1) ** 15, 15, [1, 2, 4, 8, 16]),
        # (1 + i)^3 / 4 = (i - 1) / 2: s = 1 and v_P = 3 - 2 * 1
        (Gj, at(Gj, 2), (Gj.gen() + 1) ** 3 / 4, -1, [1, 2]),
        (C, at(C, 5, 2), (C.gen() + 3) / 25, -2, [1]),
    ]
    for field, P, alpha, expected, precisions in cases:
        calls.clear()
        assert valuation(field, P, alpha) == expected
        assert calls == precisions
        assert list(field._block_cache) == [P.p]
        assert field._block_cache[P.p][0] == precisions[-1]


def test_a_valuation_certified_at_its_first_precision_takes_one_resultant(monkeypatch):
    # each valuation starts at the precision held for p (1 on a fresh field)
    # and takes one resultant when that certifies it; otherwise it doubles
    # m until p^m no longer divides the resultant, and the held precision
    # rises to the m that certified it
    rng = random.Random(1606)
    calls = _count_resultants(monkeypatch)
    checked = 0
    held_seen = set()
    for field, ps in LOCAL_CASES:
        for p in ps:
            field = NumberField(field.poly, check_irreducible=False)
            for P in splitting_type(field, p):
                F = _reference_blocks(field, p)[P.index]
                for alpha in _local_elements(rng, field, p, 12):
                    v_res = valuation_int(_mult_det(F, alpha.num), p)
                    held = field._block_cache.get(p, (1,))[0]
                    precisions = [held]
                    while precisions[-1] <= v_res:
                        precisions.append(2 * precisions[-1])
                    calls.clear()
                    valuation(field, P, alpha)
                    assert calls == precisions
                    assert field._block_cache[p][0] == precisions[-1]
                    if len(precisions) == 1:
                        held_seen.add(held)
                        checked += 1
    assert checked > 250 and {1, 2, 4} <= held_seen


def test_padic_unit_matches_valuation_and_the_uniformizer_shift():
    # at e = 1 one image A mod (F, p^m) gives v_P(alpha) and the residue of
    # alpha / pi^v, at every residue degree; elements carry 0, 1 and 2
    # factors of p in the denominator and 0, 1 or 2 factors of g(theta) in
    # the numerator
    rng = random.Random(2311)
    seen_v, seen_s, seen_f, checked, wider, higher = set(), set(), set(), 0, 0, 0
    for field in (Q, GAUSS, GOLDEN, K3, CUBE2, NumberField.cyclotomic(5)):
        for p in range(2, 60):
            if not is_prime(p):
                continue
            for P in splitting_type(field, p):
                if P.e != 1:
                    continue
                near = UniPoly(P.g)(field.gen()) + p  # v_P >= 1, p when g = f
                for alpha in _local_elements(rng, field, p, 9):
                    alpha = alpha * near ** rng.randint(0, 2)
                    v = valuation(field, P, alpha)
                    shifted = alpha * uniformizer(field, P) ** (-v)
                    assert padic_unit(field, P, alpha) == (v, residue_map(field, P, shifted))
                    seen_v.add(v)
                    seen_s.add(valuation_int(alpha.den, p))
                    seen_f.add(P.f_deg)
                    checked += 1
                    wider += field.degree > 1
                    higher += P.f_deg > 1
    assert seen_v >= {-2, -1, 0, 1, 2} and seen_s == {0, 1, 2} and seen_f >= {1, 2, 3, 4}
    assert checked > 1200 and wider > 1000 and higher > 500


def test_the_uniformizer_search_runs_once_per_prime(monkeypatch):
    # uniformizer(field, P) caches its search on P: fresh fields, so every
    # prime starts uncached, and repeated calls and analyses search no more
    import normforge.numberfield as nf
    from normforge.normeq import NormEquationInstance, analyze

    searched = []
    real = nf._search_uniformizer

    def counted(field, P):
        searched.append(P)
        return real(field, P)

    monkeypatch.setattr(nf, "_search_uniformizer", counted)
    QI = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
    Z3 = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")
    for field, q, x in ((QI, 2, Fraction(1, 15)), (Z3, 3, Fraction(2, 35))):
        for _ in range(3):
            analyze(NormEquationInstance(field, q, x, Fraction(1, 3), 1 + 8 * q ** 3))
            for P in splitting_type(field, 5) + splitting_type(field, q):
                assert uniformizer(field, P) is uniformizer(field, P)
    assert len(searched) == len(set(map(id, searched))) >= 6
    assert {(P.e, P.f_deg) for P in searched} >= {(1, 1), (1, 2), (2, 1)}


def test_valuation_and_residue_map_share_one_lift(monkeypatch):
    # a unit with 5 in its denominator: the valuation certifies at 5^2,
    # after the unlifted 5^1 block, and residue_map reads that same lift
    import normforge.numberfield as nf

    lifts = []

    def counted(f, blocks, p, m):
        lifts.append((p, m))
        return lift_blocks(f, blocks, p, m)

    monkeypatch.setattr(nf, "lift_blocks", counted)
    field = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
    P = min(splitting_type(field, 5), key=lambda P: P.g)
    unit = (field.gen() + 2) / 5
    assert valuation(field, P, unit) == 0
    assert residue_map(field, P, unit).coeffs == (4,)
    assert lifts == [(5, 2)]
    assert list(field._block_cache) == [5] and field._block_cache[5][0] == 2


def test_each_prime_builds_its_residue_field_once():
    for P in splitting_type(CUBE2, 5):
        assert P.residue_field() is P.residue_field()
        assert P.residue_field().f == P.f_deg


def _residue_by_lift(field, P, alpha):
    """alpha mod P by the explicit lift: reduce A mod the lifted block,
    divide out p^s, reduce mod (p, g) and divide by d0; None at a non-unit."""
    p = P.p
    s = valuation_int(alpha.den, p)
    m = 40
    B = pdivmod(alpha.num, _reference_blocks(field, p, m)[P.index], p ** m)[1]
    if any(c % p ** s for c in B):
        return None
    red = pdivmod([c // p ** s for c in B], list(P.g), p)[1]
    if not red:
        return None
    k = P.residue_field()
    return k.element(red) * k.element(pow(alpha.den // p ** s, -1, p))


def test_padic_unit_on_zero_is_not_a_unit_before_any_lift(monkeypatch):
    # zero has no unit part: padic_unit says so at once, as residue_map
    # does, instead of lifting the block to the precision cap
    import normforge.numberfield as nf

    P = splitting_type(GAUSS, 5)[0]
    assert (P.e, P.f_deg) == (1, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("padic_unit lifted a block for zero")

    monkeypatch.setattr(nf, "local_blocks", refuse)
    with pytest.raises(NotAUnit):
        padic_unit(GAUSS, P, GAUSS.zero())
    with pytest.raises(NotAUnit):
        residue_map(GAUSS, P, GAUSS.zero())


def test_residue_map_matches_lift_and_reduce():
    rng = random.Random(1607)
    by_s = {0: 0, 1: 0, 2: 0}
    for field, ps in LOCAL_CASES:
        for p in ps:
            primes = splitting_type(field, p)
            for P in primes:
                elements = _local_elements(rng, field, p, 12)
                if len(primes) > 1:
                    # pi^e / p is a unit at P with p in its denominator
                    shift = uniformizer(field, P) ** P.e / p
                    elements += [a * shift ** j for a in elements if a.den % p for j in (1, 2)]
                for alpha in elements:
                    expected = _residue_by_lift(field, P, alpha)
                    assert (expected is None) == (valuation(field, P, alpha) != 0)
                    if expected is None:
                        # with no p in the denominator only the reduction can vanish
                        with pytest.raises(NotAUnit, match=None if alpha.den % p == 0
                                           else "reduces to zero"):
                            residue_map(field, P, alpha)
                    else:
                        assert residue_map(field, P, alpha) == expected
                        by_s[min(valuation_int(alpha.den, p), 2)] += 1
    assert min(by_s.values()) > 40


def _reference_valuation(field, P, alpha):
    F = _reference_blocks(field, P.p)[P.index]
    v_res = valuation_int(_mult_det(F, alpha.num), P.p)
    return v_res // P.f_deg - P.e * valuation_int(alpha.den, P.p)


def test_local_answers_match_the_deep_lift_cold_and_warm():
    # valuation, padic_unit and residue_map on fresh fields, each read
    # against blocks lifted to p^40 directly: cold (no lift held, m starts
    # at 1) and warm (p^32 held), with the calls in a seeded order
    rng = random.Random(2917)
    polys = ([1, 0, 1], [-1, -1, 1], [1, 1, 1], [1, 1, 1, 1, 1], [-2, 0, 0, 1])
    seen_s, seen_e, held, checked, units_with_p = set(), set(), set(), 0, 0
    for poly in polys:
        ref = NumberField(UniPoly(poly), check_irreducible=False)
        for p in (2, 3, 5, 7, 11):
            for warm in (False, True):
                field = NumberField(UniPoly(poly), check_irreducible=False)
                primes = splitting_type(field, p)
                if warm:
                    valuation(field, primes[0], field.element(p ** 20))
                for P, P_ref in zip(primes, splitting_type(ref, p)):
                    pi = field.element(uniformizer(ref, P_ref).coords)
                    near = UniPoly(P.g)(field.gen()) + p  # v_P >= 1, so m doubles
                    elements = [a * near ** rng.randint(0, 2)
                                for a in _local_elements(rng, field, p, 9)]
                    if len(primes) > 1:
                        # pi^e / p is a unit at P with p in its denominator
                        elements += [a * (pi ** P.e / p) for a in elements if a.den % p]
                    for alpha in elements:
                        v = _reference_valuation(field, P, alpha)
                        expected = _residue_by_lift(field, P, alpha)
                        assert (expected is None) == (v != 0)
                        calls = ["valuation", "residue_map"] + ["padic_unit"] * (P.e == 1)
                        rng.shuffle(calls)
                        for call in calls:
                            if call == "valuation":
                                assert valuation(field, P, alpha) == v
                            elif call == "padic_unit":
                                unit = _residue_by_lift(field, P, alpha * pi ** (-v))
                                assert padic_unit(field, P, alpha) == (v, unit)
                            elif expected is None:
                                with pytest.raises(NotAUnit):
                                    residue_map(field, P, alpha)
                            else:
                                assert residue_map(field, P, alpha) == expected
                                units_with_p += alpha.den % p == 0
                        seen_s.add(valuation_int(alpha.den, p))
                        seen_e.add(P.e)
                        checked += 1
                held.add((warm, field._block_cache[p][0]))
    assert seen_s == {0, 1, 2} and seen_e >= {1, 2, 3, 4}
    assert {M for warm, M in held if not warm} >= {2, 4, 8}
    assert min(M for warm, M in held if warm) == 32
    assert checked > 650 and units_with_p > 80


def test_a_unit_at_a_fresh_prime_needs_no_lift(monkeypatch):
    # with no p in the denominator and v_P(A) = 0 the unlifted block g^e mod
    # p certifies the valuation and gives the residue
    import normforge.numberfield as nf

    def refuse(*args):
        raise AssertionError("lifted a block for a unit with no p in its denominator")

    monkeypatch.setattr(nf, "lift_blocks", refuse)
    checked = 0
    for poly in ([1, 0, 1], [1, 1, 1], [1, 1, 1, 1, 1], [-2, 0, 0, 1]):
        field = NumberField(UniPoly(poly), check_irreducible=False)
        alpha = field.element([Fraction(c, 77) for c in [13, 1, 0, 1][:field.degree]])
        for p in (2, 3, 5, 13):
            for P in splitting_type(field, p):
                if _reference_valuation(field, P, alpha) != 0:
                    continue
                assert valuation(field, P, alpha) == 0
                assert residue_map(field, P, alpha) == _residue_by_lift(field, P, alpha)
                assert field._block_cache[p][0] == 1
                checked += 1
    assert checked >= 12


def test_the_precision_cap_holds_cold_and_warm(monkeypatch):
    # the cap stops the doubling at the same m whatever precision is held:
    # 2^15 is certified at m = 16, and 2^16 needs m = 32 and raises.  Both
    # valuation and padic_unit start at the held precision: 1 on a fresh
    # field, 2 once padic_unit has read w = 2 / 2, 8 after a valuation of 2^7
    import normforge.numberfield as nf

    requested = []
    real = nf.local_blocks

    def spy(field, p, m):
        requested.append(m)
        return real(field, p, m)

    monkeypatch.setattr(nf, "local_blocks", spy)
    monkeypatch.setattr(nf, "MAX_PRECISION", 16)
    starts = set()
    for warm in (False, True):
        for answer in (valuation, padic_unit):
            field = NumberField.rationals()
            P, = splitting_type(field, 2)
            one = P.residue_field().one()
            if answer is padic_unit:
                assert padic_unit(field, P, field.one()) == (0, one)
            if warm:
                assert valuation(field, P, field.element(2 ** 7)) == 7
            start = field._block_cache.get(2, (1,))[0]
            starts.add(start)
            requested.clear()
            got = answer(field, P, field.element(2 ** 15))
            assert got == (15 if answer is valuation else (15, one))
            assert requested == [m for m in (1, 2, 4, 8, 16) if m >= start]
            requested.clear()
            with pytest.raises(PrecisionExhausted):
                answer(field, P, field.element(2 ** 16))
            assert requested == [16]
    assert starts == {1, 2, 8}
    cold = NumberField.rationals()
    P, = splitting_type(cold, 2)
    requested.clear()
    with pytest.raises(PrecisionExhausted):
        valuation(cold, P, cold.element(2 ** 64))
    assert requested == [1, 2, 4, 8, 16]


def test_padic_unit_skips_the_twist_where_pi_is_p(monkeypatch):
    # at an unramified prime alone over p, pi = p and w = 1: padic_unit
    # returns the residue of alpha / p^v without an FFElem power, and it
    # equals the general twist res * w^(-v)
    from normforge.finitefield import FFElem

    rng = random.Random(2918)
    powers = []
    real_pow = FFElem.__pow__

    def counted(self, e):
        powers.append(e)
        return real_pow(self, e)

    monkeypatch.setattr(FFElem, "__pow__", counted)
    seen = set()
    for poly in ([1, 0, 1], [-1, -1, 1], [1, 1, 1]):
        field = NumberField(UniPoly(poly), check_irreducible=False)
        for p in (2, 3, 5, 7, 11):
            P, *others = splitting_type(field, p)
            if others or P.e != 1:
                continue
            assert uniformizer(field, P) == field.element(p)
            for v in range(-2, 3):
                u = field.element([rng.randint(1, p - 1), rng.randint(-30, 30)])
                alpha = u * Fraction(p) ** v
                powers.clear()
                got = padic_unit(field, P, alpha)
                assert powers == []
                w = P._w
                assert w == P.residue_field().one()
                general = residue_map(field, P, u) * (P._w_inv ** v if v > 0 else w ** -v)
                assert got == (v, general)
                seen.add((field.name, p, v))
    assert len({(name, p) for name, p, _ in seen}) >= 7
    assert {v for *_, v in seen} == {-2, -1, 0, 1, 2}


def test_residue_map_pins_over_gaussian_integers():
    # 5 = (2 + i)(2 - i); i = 3 mod (2 + i) and i = 2 mod (2 - i)
    P, P_bar = sorted(splitting_type(GAUSS, 5), key=lambda P: P.g)
    assert (P.g, P_bar.g) == ((2, 1), (3, 1))
    i = GAUSS.gen()
    # (2 + i)/5 = 1/(2 - i): 5 divides the denominator, yet it is a unit at P
    unit = (i + 2) / 5
    assert residue_map(GAUSS, P, unit).coeffs == (4,)
    with pytest.raises(NotAUnit, match="p-part mismatch"):
        residue_map(GAUSS, P_bar, unit)
    with pytest.raises(NotAUnit, match="reduces to zero"):
        residue_map(GAUSS, P, i + 2)
    assert residue_map(GAUSS, P_bar, i + 2).coeffs == (4,)
    P2, = splitting_type(GAUSS, 2)
    assert (P2.e, residue_map(GAUSS, P2, i).coeffs) == (2, (1,))


def test_omega_membership():
    s2 = SQRT2.gen()
    assert not omega_membership(SQRT2, SQRT2.one() + s2, 2)
    assert omega_membership(SQRT2, SQRT2.element(3) + s2, 2)
    assert omega_membership(K3, K3.element(-5), 2)  # totally imaginary
    assert omega_membership(SQRT2, SQRT2.element(-1), 3)  # q > 2


@settings(max_examples=40, deadline=None)
@given(st.integers(-8, 8), st.integers(-8, 8))
def test_omega_squares_always_nonnegative(a, b):
    alpha = SQRT2.element([a, b])
    assert omega_membership(SQRT2, alpha * alpha, 2)


def test_theta_phi_worked():
    assert theta_phi_membership(Q, Q.element(82), [], 3) == (True, True)
    assert theta_phi_membership(Q, Q.element(1), [], 3) == (True, True)
    assert theta_phi_membership(Q, Q.element(2), [], 3) == (True, False)
    # with S nonempty: c - 1 must vanish at S
    P5, = splitting_type(Q, 5)
    assert theta_phi_membership(Q, Q.element(82), [P5], 3) == (False, True)
    assert theta_phi_membership(Q, Q.element(81 * 5 + 1), [P5], 3) == (True, True)
    # ramification: the bound at the prime over 3 in Q(zeta3) is 3e = 6
    assert theta_phi_membership(K3, K3.element(10), [], 3)[1] is False  # v_Q(9) = 4 < 6
    assert theta_phi_membership(K3, K3.element(28), [], 3)[1] is True  # v_Q(27) = 6
    assert theta_phi_membership(K3, K3.element(82), [], 3)[1] is True  # v_Q(81) = 8


def test_strong_approx_worked_examples():
    P7, = splitting_type(Q, 7)
    P2, = splitting_type(Q, 2)
    assert strong_approx_element(Q, valuations=[(P7, -1)]).as_rational() == Fraction(1, 7)
    w = strong_approx_element(Q, valuations=[(P2, 3), (P7, 1)])
    assert w.as_rational() == 56
    with pytest.raises(NormforgeError):
        strong_approx_element(Q, valuations=[(P7, 1), (P7, 2)])


def test_strong_approx_all_zero_target_bumps_by_the_modulus():
    # the target for v_5(result - 0) >= 2 is 0 mod 5^3, which is not an
    # answer, so one multiple of the modulus is added
    P5, = splitting_type(Q, 5)
    assert strong_approx_element(Q, congruences=[(P5, 0, 2)]).as_rational() == 125


def test_strong_approx_self_verifies_on_number_field():
    rng = random.Random(3)
    for _ in range(10):
        field = rng.choice([K3, GOLDEN])
        p = rng.choice([7, 11, 13, 19])
        primes = splitting_type(field, p)
        wants = [(P, rng.randint(-2, 2)) for P in primes]
        elem = strong_approx_element(field, valuations=wants)
        for P, v in wants:
            assert valuation(field, P, elem) == v


def test_strong_approx_mixed_constraints_same_p():
    # congruence at one prime over 7 and an exact pole at its sibling
    P7a, P7b = splitting_type(K3, 7)
    elem = strong_approx_element(
        K3, valuations=[(P7b, -1)], congruences=[(P7a, 2, 1)]
    )
    assert valuation(K3, P7b, elem) == -1
    assert valuation(K3, P7a, elem - K3.element(2)) >= 1
    assert valuation(K3, P7a, elem) == 0


def test_strong_approx_positivity():
    P7s = splitting_type(SQRT2, 7)
    w = strong_approx_element(SQRT2, valuations=[(P7s[0], 1)], positivity=True)
    assert omega_membership(SQRT2, w, 2)
    assert valuation(SQRT2, P7s[0], w) == 1


def test_strong_approx_positivity_bumps_past_a_negative_conjugate():
    # the first candidate, w - 7^3 / 7, has a negative real conjugate, so the
    # loop adds the modulus 7^3 once before the division by 7
    P7 = splitting_type(SQRT2, 7)[1]
    w = strong_approx_element(SQRT2, valuations=[(P7, -1)], positivity=True)
    assert w.coords == [Fraction(347, 7), Fraction(181, 7)]
    assert valuation(SQRT2, P7, w) == -1 and omega_membership(SQRT2, w, 2)
    assert not omega_membership(SQRT2, w - 49, 2)


def test_conjugate_interval():
    lo, hi = conjugate_interval(SQRT2.element(2))
    assert lo.lo == lo.hi == 2 and hi.lo == hi.hi == 2
    lo, hi = conjugate_interval(SQRT2.gen())
    assert lo.lo < Fraction(-14142, 10 ** 4) < lo.hi
    assert hi.lo < Fraction(14143, 10 ** 4) < hi.hi
    with pytest.raises(NormforgeError):
        conjugate_interval(K3.gen())


def test_element_support():
    sup = element_support(K3, K3.element(Fraction(8, 2401)))
    assert sorted((P.p, v) for P, v in sup) == [(2, 3), (7, -4), (7, -4)]


def test_uniformizer_at_ramified_prime():
    P3, = splitting_type(K3, 3)
    pi = uniformizer(K3, P3)
    assert valuation(K3, P3, pi) == 1


def test_valuation_at_totally_ramified_sextic():
    # Q(zeta_9): 3 is totally ramified with e = 6; v(theta - 1) = 1 because
    # N(theta - 1) = Phi_9(1) = 3 and the product formula forces it
    K9 = NumberField.cyclotomic(9)
    assert K9.degree == 6
    P3, = splitting_type(K9, 3)
    assert (P3.e, P3.f_deg) == (6, 1)
    assert valuation(K9, P3, K9.element(3)) == 6
    theta = K9.gen()
    pi = theta - K9.one()
    assert pi.norm() == 3
    assert valuation(K9, P3, pi) == 1
    assert valuation(K9, P3, pi ** 5 * K9.element(Fraction(1, 3))) == -1


def test_precision_cap_raises(monkeypatch):
    import normforge.numberfield as nf
    from normforge.errors import PrecisionExhausted

    monkeypatch.setattr(nf, "MAX_PRECISION", 16)
    P2, = splitting_type(Q, 2)
    with pytest.raises(PrecisionExhausted):
        valuation(Q, P2, Q.element(2 ** 64))


def test_field_json_round_trip():
    data = K3.to_json()
    back = NumberField.from_json(data)
    assert back == K3
    P = splitting_type(K3, 7)[0]
    assert P.to_json() == {"p": 7, "g": [3, 1], "e": 1, "f": 1}


def _count_certificate_work(monkeypatch):
    """{"ddf": primes, "zassenhaus": polys}: the distinct-degree factorizations
    and Zassenhaus runs of each irreducibility certificate."""
    from normforge import zfactor

    calls = {"ddf": [], "zassenhaus": []}
    ddf, zassenhaus = zfactor.distinct_degree, zfactor.factor_over_q
    monkeypatch.setattr(zfactor, "distinct_degree",
                        lambda f, p: calls["ddf"].append(p) or ddf(f, p))
    monkeypatch.setattr(zfactor, "factor_over_q",
                        lambda f: calls["zassenhaus"].append(f) or zassenhaus(f))
    return calls


def test_a_quadratic_or_cubic_field_is_certified_at_one_sieve_prime(monkeypatch):
    # the first good prime settles degree 1 and n - 1, by the degree sieve when
    # f has no root mod p and by lifting the roots when it has, so n <= 3 is done
    calls = _count_certificate_work(monkeypatch)
    rng = random.Random(1978)
    certified = {2: 0, 3: 0}
    while min(certified.values()) < 25:
        deg = rng.choice((2, 3))
        f = UniPoly([rng.randint(-40, 40) for _ in range(deg)] + [1])
        a0 = abs(int(f.coeffs[0]))
        if a0 == 0 or any(f(r) == 0 for r in range(-a0, a0 + 1)):
            continue  # a monic quadratic or cubic is reducible iff it has an integer root
        calls["ddf"].clear()
        NumberField(f)
        assert len(calls["ddf"]) == 1, f
        certified[deg] += 1
    assert calls["zassenhaus"] == []


def test_building_a_field_never_takes_the_rational_primitive_part(monkeypatch):
    def refuse(self):
        raise AssertionError("primitive_int called")

    calls = _count_certificate_work(monkeypatch)
    monkeypatch.setattr(UniPoly, "primitive_int", refuse)
    fields = _seeded_fields(random.Random(2031))
    fields += [NumberField(UniPoly(f)) for f in ([-2, 0, 0, 1], [1, 1, 1, 1, 1], [3, 0, 0, 0, 0, 1])]
    assert [K.degree for K in fields] == list(range(1, 11)) + [3, 4, 5]
    assert calls["zassenhaus"] == []


def test_a_large_rational_root_is_found_by_its_lift(monkeypatch):
    # (x - 1000003)(x^2 + x + 1) has its root 1 mod 2 and a Cauchy bound near
    # 10^6: the lift reaches 2^32 and reads 1000003 back, with no Zassenhaus run
    calls = _count_certificate_work(monkeypatch)
    f = UniPoly([-1000003, 1]) * UniPoly([1, 1, 1])
    with pytest.raises(NormforgeError, match="defining polynomial is reducible over Q"):
        NumberField(f)
    assert calls == {"ddf": [2], "zassenhaus": []}
