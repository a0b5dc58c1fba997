"""Tower building and proposition verification on concrete instances."""

import random
from fractions import Fraction

import pytest

from normforge.errors import (
    DegenerateRadicand,
    HypothesisFail,
    MissingRootOfUnity,
)
from normforge.numberfield import (
    NumberField,
    residue_nonqth_power,
    splitting_type,
    strong_approx_element,
    valuation,
)
from normforge.polyq import UniPoly
from normforge.radical import (
    XBC,
    XDA,
    RadicalTowerSpec,
    build_tower,
    primes_of_interest,
    verify_proposition,
)

Q = NumberField.rationals()
K3 = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")
KI = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
GOLDEN = NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)")

FIXTURE = RadicalTowerSpec(K3, 3, XBC, Fraction(1, 7), Fraction(1, 7), 82)


def test_degenerate_radicand_rejected():
    with pytest.raises(DegenerateRadicand):
        # b x^q + b^q = 0 when x = -1 and b = 1, q odd
        RadicalTowerSpec(Q, 3, XBC, -1, 1, 82)
    with pytest.raises(DegenerateRadicand):
        RadicalTowerSpec(Q, 2, XBC, 0, 1, 17)


def test_missing_root_of_unity():
    spec = RadicalTowerSpec(Q, 3, XBC, Fraction(1, 7), Fraction(1, 7), 82)
    with pytest.raises(MissingRootOfUnity):
        build_tower(spec)


def test_fixorder_checks_mu_q_once(monkeypatch):
    from normforge import radical

    calls = []
    real = radical.has_primitive_root_of_unity
    monkeypatch.setattr(radical, "has_primitive_root_of_unity",
                        lambda field, q: calls.append(q) or real(field, q))
    report = verify_proposition("fixorder", FIXTURE)
    assert [c["holds"] for c in report.conclusions] == ["yes", "excluded", "excluded", "excluded", "yes"]
    assert calls == [3]


def test_fixorder_without_mu_q_raises_even_when_every_prime_is_excluded():
    # over Q with q = 3, the primes of interest are 2, 3 and 7: 3 divides q and
    # x = 1/14 has a pole at 2 and at 7, so every prime is excluded, and the
    # field still lacks a primitive cube root of unity
    spec = RadicalTowerSpec(Q, 3, XBC, Fraction(1, 14), Fraction(1, 14), Fraction(2, 7))
    with pytest.raises(MissingRootOfUnity):
        verify_proposition("fixorder", spec)


def test_build_tower_fixture_splits():
    P7a, P7b = splitting_type(K3, 7)
    leaves = build_tower(FIXTURE, primes=[P7a, P7b])
    for P, nodes in leaves.items():
        assert len(nodes) == 27
        assert all(n.e == 1 and n.f == 1 for n in nodes)
        assert all("split" in note for n in nodes for note in n.trace)


def test_build_tower_q2_fixture():
    # K = Q, q = 2, x = 1/3, b = 1/3, c = 17: v_3(rhs) = v_3(4/27) = -3
    spec = RadicalTowerSpec(Q, 2, XBC, Fraction(1, 3), Fraction(1, 3), 17)
    assert spec.rhs.as_rational() == Fraction(4, 27)
    P3, = splitting_type(Q, 3)
    leaves = build_tower(spec, primes=[P3])[P3]
    assert all(n.get("rhs").v == -3 for n in leaves)
    assert all(n.e == 1 and n.f == 1 for n in leaves)


def test_badprime_fixture_all_conclusions():
    P7a, _ = splitting_type(K3, 7)
    report = verify_proposition("badprime", FIXTURE, P7a)
    assert report.hypotheses_pass
    assert all(c["holds"] == "yes" for c in report.conclusions)


def test_badprime_hypothesis_fail_indices():
    bad = RadicalTowerSpec(K3, 3, XBC, Fraction(1, 7), Fraction(1, 343), 82)
    P7a, _ = splitting_type(K3, 7)
    with pytest.raises(HypothesisFail) as exc:
        verify_proposition("badprime", bad, P7a)
    assert 4 in exc.value.failed  # v(b) = -3 == 0 mod 3


def test_fixorder_fixture():
    report = verify_proposition("fixorder", FIXTURE, None)
    yes = [c for c in report.conclusions if c["holds"] == "yes"]
    excluded = [c for c in report.conclusions if c["holds"] == "excluded"]
    assert yes and excluded  # orders fixed off the poles, poles excluded


def test_badprimeq_two_adic_fixture():
    spec = RadicalTowerSpec(Q, 2, XDA, Fraction(1, 4), Fraction(1, 8), 5,
                            nonsplit_certificate={"kind": "two-adic"})
    P2, = splitting_type(Q, 2)
    report = verify_proposition("badprimeq", spec, P2)
    assert report.hypotheses_pass
    assert all(c["holds"] == "yes" for c in report.conclusions)


def test_badprimeq_refuses_bad_certificate():
    # a = 17 = 1 mod 8 splits at 2, so the certificate must refuse it
    spec = RadicalTowerSpec(Q, 2, XDA, Fraction(1, 4), Fraction(1, 8), 17,
                            nonsplit_certificate={"kind": "two-adic"})
    P2, = splitting_type(Q, 2)
    with pytest.raises(HypothesisFail) as exc:
        verify_proposition("badprimeq", spec, P2)
    assert 2 in exc.value.failed


def test_fixorderq_two_adic():
    spec = RadicalTowerSpec(Q, 2, XDA, Fraction(1, 4), Fraction(1, 8), 5,
                            nonsplit_certificate={"kind": "two-adic"})
    report = verify_proposition("fixorderq", spec, None)
    for c in report.conclusions:
        assert c["holds"] in ("yes", "excluded")


def test_badprimeq_three_adic_fixture():
    from normforge.cyclic import kummer_generator

    a, _ = kummer_generator(7, 3)
    K = a.field
    Q3, = splitting_type(K, 3)
    d = strong_approx_element(K, valuations=[(Q3, -7)])
    x = strong_approx_element(K, valuations=[(Q3, -5)])
    spec = RadicalTowerSpec(K, 3, XDA, x, d, a,
                            nonsplit_certificate={"kind": "frobenius", "ell": 7, "d": 3})
    report = verify_proposition("badprimeq", spec, Q3)
    assert report.hypotheses_pass
    assert all(c["holds"] == "yes" for c in report.conclusions)


def test_layer_order_insensitive_at_unramified_primes():
    # permuting r1 and r2 must not change the final (e, f) multiset at primes
    # where both chains stay unramified
    from normforge.local import extend_by_radical
    from normforge.radical import start_node

    P41 = splitting_type(K3, 41)[0]
    node = start_node(FIXTURE, P41)
    orders = [("r1", "r2", "r3"), ("r2", "r1", "r3")]
    multisets = []
    for order in orders:
        nodes = [node.child()]
        for key in order:
            nodes = [kid for n in nodes for kid in extend_by_radical(n, key, 3, u_minus_one_key=key + "m1")]
        multisets.append(sorted((n.e, n.f) for n in nodes))
    assert multisets[0] == multisets[1]


def test_seeded_instances_no_conclusion_violation():
    """A scaled-down version of the 50-instance invariant (full run in acceptance)."""
    count = 0
    rng = random.Random(20240818)
    fields = [(Q, 2), (KI, 2), (GOLDEN, 2), (K3, 3)]
    while count < 10:
        field, q = fields[count % len(fields)]
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29])
        try:
            primes = splitting_type(field, p)
        except Exception:
            continue
        P = primes[0]
        if (P.p ** P.f_deg - 1) % q != 0:
            continue
        x = strong_approx_element(field, valuations=[(P, -1)])
        b = strong_approx_element(field, valuations=[(P, -1)])
        c = _nonpower_unit(field, P, q, rng)
        if c is None:
            continue
        spec = RadicalTowerSpec(field, q, XBC, x, b, c)
        report = verify_proposition("badprime", spec, P)  # ConclusionViolation = test failure
        assert report.hypotheses_pass
        count += 1


def _nonpower_unit(field, P, q, rng):
    for j in range(1, 40):
        cand = field.element(1 + j * q ** 3)
        try:
            if valuation(field, P, cand) == 0 and residue_nonqth_power(field, P, cand, q):
                return cand
        except Exception:
            continue
    return None


def test_primes_of_interest_cover_supports():
    interest = primes_of_interest(FIXTURE)
    ps = sorted({P.p for P in interest})
    assert ps == [2, 3, 7, 41]  # div(x), div(b) at 7; div(82) at 2, 41; q = 3


def test_local_chain_matches_global_splitting():
    """One radical layer cross-checked against an explicitly built absolute
    field: the (e, f) multisets must coincide (degree-6 truncation)."""
    from normforge.errors import NonMonogenicAtP
    from normforge.kpoly import _lagrange_interpolate
    from normforge.local import radical_children
    from normforge.polyq import resultant
    from normforge.radical import start_node
    from fractions import Fraction as F

    u = 2
    # absolute polynomial of zeta_3 + 2^(1/3): Res_y(y^2 + y + 1, (x - y)^3 - 2)
    pts = []
    for k in range(10):
        x0 = F(k)
        inner = UniPoly([x0, -1])  # x0 - y
        pts.append((x0, resultant(UniPoly([1, 1, 1]), inner ** 3 - UniPoly([2]))))
    absolute_poly = _lagrange_interpolate(pts)
    assert absolute_poly.degree == 6
    absolute = NumberField(absolute_poly.monic(), name="Q(zeta3, 2^(1/3))")
    spec = RadicalTowerSpec(K3, 3, XBC, Fraction(1, 2), Fraction(1, 2), 5)
    checked = 0
    for p in [5, 7, 11, 13, 17, 19, 23, 29]:
        try:
            global_primes = splitting_type(absolute, p)
        except NonMonogenicAtP:
            continue
        predicted = []
        for P in splitting_type(K3, p):
            node = start_node(spec, P)
            from normforge.numberfield import residue_map

            vv = valuation(K3, P, K3.element(u))
            res = residue_map(K3, P, K3.element(u)) if vv == 0 else None
            node.track("two", vv, res)
            for child in radical_children(node, "two", 3, xi_q=True):
                predicted.append((child.e, child.f))
        assert sorted(predicted) == sorted((P.e, P.f_deg) for P in global_primes)
        checked += 1
    assert checked >= 5


def test_local_chain_matches_global_quadratic_layers():
    """Square-root layers over Q cross-checked against x^2 - u directly."""
    from normforge.errors import NonMonogenicAtP
    from normforge.local import LocalPrime, radical_children
    from normforge.numberfield import residue_map

    for u in (6, 10, 17, 21):
        try:
            absolute = NumberField(UniPoly([-u, 0, 1]), name=f"Q(sqrt{u})")
        except Exception:
            continue
        for p in [3, 5, 7, 11, 13, 17, 19, 23, 29]:
            try:
                global_primes = splitting_type(absolute, p)
            except NonMonogenicAtP:
                continue
            P, = splitting_type(Q, p)
            node = LocalPrime(p, 1, 1)
            vv = valuation(Q, P, Q.element(u))
            res = residue_map(Q, P, Q.element(u)) if vv == 0 else None
            node.track("u", vv, res)
            predicted = [(c.e, c.f) for c in radical_children(node, "u", 2, xi_q=True)]
            assert sorted(predicted) == sorted((G.e, G.f_deg) for G in global_primes), (u, p)
