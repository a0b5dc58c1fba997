"""Acceptance criteria: exact small-instance checks plus seeded batteries.

Each criterion runs at its stated tolerance, prints one PASS line with its
runtime, and fails the suite if the runtime budget is exceeded.  Oracles here
are independent of the paths they check (exhaustive enumeration, Rabin
certificates, numpy-free numeric identities, full brute force).
"""

import cmath
import itertools
import random
import time
from fractions import Fraction

from normforge.numberfield import NumberField, splitting_type, strong_approx_element, valuation
from normforge.polyq import UniPoly

Q = NumberField.rationals()
K3 = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")


def _report(number, label, t0, budget):
    elapsed = time.time() - t0
    print(f"ACCEPTANCE {number}: PASS ({label}, {elapsed:.2f}s / {budget}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# -- criterion 1 -----------------------------------------------------------


def test_criterion_1_splitting_correctness():
    from normforge.errors import NonMonogenicAtP
    from normforge.modp import is_irreducible_mod_p, pmul, pnormalize
    from normforge.zfactor import is_irreducible_over_q

    t0 = time.time()
    rng = random.Random(0xACCE01)
    fields = []
    while len(fields) < 30:
        deg = rng.randint(2, 8)
        poly = UniPoly([rng.randint(-9, 9) for _ in range(deg)] + [1])
        if poly.degree == deg and is_irreducible_over_q(poly):
            fields.append(NumberField(poly, check_irreducible=False))
    primes = [p for p in range(2, 101) if _is_prime(p)]
    pairs = 0
    while pairs < 200:
        field = rng.choice(fields)
        p = rng.choice(primes)
        try:
            split = splitting_type(field, p)
        except NonMonogenicAtP:
            continue
        assert sum(P.e * P.f_deg for P in split) == field.degree
        fint = field.poly.int_coeffs()
        # independent oracle: product reconstruction + Rabin irreducibility
        prod = [1]
        for P in split:
            for _ in range(P.e):
                prod = pmul(prod, list(P.g), p)
            assert is_irreducible_mod_p(list(P.g), p)
            assert P.f_deg == len(P.g) - 1
        assert prod == pnormalize(list(fint), p)
        # exhaustive oracle at small sizes
        if p <= 13 and field.degree <= 6:
            from tests.test_algebra_core import brute_force_factor

            brute = brute_force_factor(fint, p)
            assert sorted((len(g) - 1, mult) for g, mult in brute) == sorted(
                (P.f_deg, P.e) for P in split
            )
        pairs += 1
    _report(1, "200 seeded splittings vs brute force", t0, 10)


def _is_prime(n):
    from normforge.intfunc import is_prime

    return is_prime(n)


# -- criterion 2 -----------------------------------------------------------


def test_criterion_2_badprime_fixorder():
    from normforge.errors import NonMonogenicAtP
    from normforge.numberfield import residue_nonqth_power
    from normforge.radical import XBC, RadicalTowerSpec, verify_proposition

    t0 = time.time()
    fixture = RadicalTowerSpec(K3, 3, XBC, Fraction(1, 7), Fraction(1, 7), 82)
    P7a, P7b = splitting_type(K3, 7)
    for P in (P7a, P7b):
        rep = verify_proposition("badprime", fixture, P)
        assert rep.hypotheses_pass
        assert all(c["holds"] == "yes" for c in rep.conclusions)
    rep = verify_proposition("fixorder", fixture, None)
    assert all(c["holds"] in ("yes", "excluded") for c in rep.conclusions)

    rng = random.Random(0xACCE02)
    combos = [(Q, 2), (NumberField(UniPoly([1, 0, 1]), name="Q(i)"), 2),
              (NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)"), 2), (K3, 3), (K3, 2)]
    done = 0
    while done < 50:
        field, q = combos[done % len(combos)]
        p = rng.choice([5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        if p == q:
            continue
        try:
            primes = splitting_type(field, p)
        except NonMonogenicAtP:
            continue
        P = primes[rng.randrange(len(primes))]
        if (P.p ** P.f_deg - 1) % q != 0:
            continue
        x = strong_approx_element(field, valuations=[(P, rng.choice([-1, -2]))])
        b = strong_approx_element(field, valuations=[(P, -1)])
        c = None
        for j in range(1, 64):
            cand = field.element(1 + j * q ** 3)
            try:
                if valuation(field, P, cand) == 0 and residue_nonqth_power(field, P, cand, q):
                    c = cand
                    break
            except Exception:
                continue
        if c is None:
            continue
        spec = RadicalTowerSpec(field, q, XBC, x, b, c)
        rep = verify_proposition("badprime", spec, P)  # ConclusionViolation would raise
        assert rep.hypotheses_pass
        done += 1
    _report(2, "fixture + 50 seeded instances, zero ConclusionViolation", t0, 60)


# -- criterion 3 -----------------------------------------------------------


def test_criterion_3_badprimeq_fixorderq():
    from normforge.cyclic import kummer_generator
    from normforge.radical import XDA, RadicalTowerSpec, verify_proposition

    t0 = time.time()
    rng = random.Random(0xACCE03)
    # 2-adic instances over Q: a = 5 mod 8, v_2(d) odd and <= -3
    P2, = splitting_type(Q, 2)
    done = 0
    for seed in range(40):
        if done >= 10:
            break
        a_val = 5 + 8 * rng.randint(0, 8)
        vd = rng.choice([-3, -5])
        vx = rng.choice([-2, -3, -4])
        if 2 * vx >= vd:
            continue
        d = Q.element(Fraction(rng.choice([1, 3, 5]), 2 ** -vd))
        x = Q.element(Fraction(rng.choice([1, 3]), 2 ** -vx))
        spec = RadicalTowerSpec(Q, 2, XDA, x, d, Q.element(a_val),
                                nonsplit_certificate={"kind": "two-adic"})
        rep = verify_proposition("badprimeq", spec, P2)
        assert rep.hypotheses_pass
        assert all(c["holds"] == "yes" for c in rep.conclusions)
        repf = verify_proposition("fixorderq", spec, None)
        assert all(c["holds"] in ("yes", "excluded", "indeterminate") for c in repf.conclusions)
        done += 1
    assert done == 10
    # 3-adic instances over Q(zeta3) with the Lagrange-resolvent generator
    a, _ = kummer_generator(7, 3)
    K = a.field
    Q3, = splitting_type(K, 3)
    done3 = 0
    for seed in range(30):
        if done3 >= 10:
            break
        vd = rng.choice([-7, -8])
        vx = rng.choice([-5, -6, -7])
        if 3 * vx >= 2 * vd:
            continue
        d = strong_approx_element(K, valuations=[(Q3, vd)])
        x = strong_approx_element(K, valuations=[(Q3, vx)])
        spec = RadicalTowerSpec(K, 3, XDA, x, d, a,
                                nonsplit_certificate={"kind": "frobenius", "ell": 7, "d": 3})
        rep = verify_proposition("badprimeq", spec, Q3)
        assert rep.hypotheses_pass
        assert all(c["holds"] == "yes" for c in rep.conclusions)
        repf = verify_proposition("fixorderq", spec, None)
        assert all(c["holds"] in ("yes", "excluded", "indeterminate")
                   for c in repf.conclusions)
        done3 += 1
    assert done3 == 10
    _report(3, "20 seeded 2-adic and 3-adic instances, zero ConclusionViolation", t0, 60)


# -- criterion 4 -----------------------------------------------------------


def test_criterion_4_norm_verdicts():
    from normforge.local import LocalVerdict
    from normforge.normeq import NormEquationInstance, analyze, analyze_direct

    t0 = time.time()
    verdict3, ledger3 = analyze_direct(Q, 2, -1, 3)
    assert verdict3.kind == LocalVerdict.UNSOLVABLE
    assert any(e["prime"]["p"] == 3 and e["verdict"]["verdict"] == "unsolvable"
               for e in ledger3.entries)
    verdict9, _ = analyze_direct(Q, 2, -1, 9)
    assert verdict9.kind == LocalVerdict.SOLVABLE
    # ground truth: sums of two rational squares
    assert any(a * a + b * b == 9 for a in range(4) for b in range(4))
    assert not any(a * a + b * b == 3 for a in range(3) for b in range(3))

    rng = random.Random(0xACCE04)
    for trial in range(100):
        if trial % 5 == 4:
            field, q = K3, 3
            x = field.element(rng.randint(1, 30))
            b = field.element([Fraction(rng.randint(1, 9), rng.choice([1, 7])),
                               Fraction(rng.randint(0, 3))])
            c = field.element(1 + 27 * rng.randint(1, 30))
        else:
            field, q = Q, 2
            x = field.element(rng.randint(1, 60))
            b = field.element(Fraction(rng.randint(1, 30), rng.choice([1, 3, 5, 7, 11])))
            c = field.element(1 + 8 * rng.randint(1, 80))
        rhs = b * x ** q + b ** q
        if rhs.is_zero() or b.is_zero():
            continue
        verdict, _ = analyze(NormEquationInstance(field, q, x, b, c))
        assert verdict.kind == LocalVerdict.SOLVABLE
    _report(4, "sum-of-two-squares ground truth + 100 compliant seeds", t0, 30)


# -- criterion 5 -----------------------------------------------------------


def test_criterion_5_cyclic_constructions():
    from normforge.cyclic import find_auxiliary_ell, frobenius_residue_degree, gaussian_period_subfield

    t0 = time.time()
    assert find_auxiliary_ell(3, 1) == 7
    h = gaussian_period_subfield(7, 3)
    assert h.period_poly == UniPoly([-1, -2, 1, 1])
    assert frobenius_residue_degree(7, 3, 3) == 3
    field = h.number_field()
    split = splitting_type(field, 3)
    assert len(split) == 1 and split[0].f_deg == 3 and split[0].e == 1

    assert find_auxiliary_ell(2, 1) == 5
    h2 = gaussian_period_subfield(5, 2)
    assert h2.period_poly == UniPoly([-1, 1, 1])
    assert frobenius_residue_degree(5, 2, 2) == 2
    field2 = h2.number_field()
    split2 = splitting_type(field2, 2)
    assert len(split2) == 1 and split2[0].f_deg == 2 and split2[0].e == 1
    _report(5, "ell = 7 cubic and ell = 5 quadratic, inert cross-checked", t0, 5)


# -- criterion 6 -----------------------------------------------------------


def test_criterion_6_factor_trees():
    from normforge.towers import BoundednessCertificate, classify_prime, example_tower, grow_tree

    t0 = time.time()
    recipe = example_tower("five-power-cyclotomic", depth=3)
    tree = grow_tree(recipe, 2, 3)
    fs = [tree.nodes[nid].f for lev in tree.levels[1:] for nid in lev]
    assert fs == [4, 20, 100]
    cert2 = classify_prime(tree, 2)
    assert cert2.classification == BoundednessCertificate.COMPLETELY
    assert cert2.bounding_order == 2
    cert5 = classify_prime(tree, 5)
    assert cert5.classification == BoundednessCertificate.Q_UNBOUNDED
    _report(6, "5-power tree: f = 4, 20, 100; completely-2-bounded order 2", t0, 10)


# -- criterion 7 -----------------------------------------------------------


def test_criterion_7_compiler():
    from normforge.compiler import (
        coordinate_norm_poly,
        check_side_conditions,
        descend_layer,
        square_trick_witness,
        verify_witness,
    )
    from normforge.multipoly import MultiPoly

    t0 = time.time()
    N2, s2 = coordinate_norm_poly(2)
    expected = s2.var("U1") ** 2 - s2.var("C") * s2.var("U2") ** 2 - s2.var("Z")
    assert N2 == expected

    N3, s3 = coordinate_norm_poly(3)
    rng = random.Random(0xACCE07)
    xi = cmath.exp(2j * cmath.pi / 3)
    for _ in range(50):
        u = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(3)]
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        croot = c ** (1 / 3)
        prod = 1
        for j in range(3):
            prod *= sum(u[i] * xi ** (i * j) * croot ** i for i in range(3))
        got = N3.evaluate(u + [c, z])
        want = prod - z
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    # witness preservation, both directions, 20 seeded points per q
    for q in (2, 3):
        Nq, sq = coordinate_norm_poly(q)
        sq.add_equation(Nq, origin="norm")
        child = descend_layer(sq, [f"U{i}" for i in range(1, q + 1)],
                              MultiPoly.const(sq.n, 5), MultiPoly.const(sq.n, 1), q, "L")
        gamma = 5 ** (1.0 / q)
        xi_q = cmath.exp(2j * cmath.pi / q)
        for _ in range(20):
            c = rng.uniform(0.5, 2.0)
            croot = c ** (1.0 / q)
            # down: parent point with zero deeper coordinates solves the child
            u = [rng.uniform(-2, 2) for _ in range(q)]
            z = 1
            for j in range(q):
                z *= sum(u[i] * xi_q ** (i * j) * croot ** i for i in range(q))
            assign = {f"U{i},{jj}": (u[i - 1] if jj == 0 else 0.0)
                      for i in range(1, q + 1) for jj in range(q)}
            assign.update({"C": c, "Z": z.real if isinstance(z, complex) else z})
            vals = [assign[v] for v in child.variables]
            assert all(abs(eq.evaluate(vals)) < 1e-6 for eq in child.equations)
            # up: any child point evaluated at a q-th root of 5 solves the parent
            assign2 = {f"U{i},{jj}": rng.uniform(-1, 1)
                       for i in range(1, q + 1) for jj in range(q)}
            u_par = [sum(assign2[f"U{i},{jj}"] * gamma ** jj for jj in range(q))
                     for i in range(1, q + 1)]
            z2 = 1
            for j in range(q):
                z2 *= sum(u_par[i] * xi_q ** (i * j) * croot ** i for i in range(q))
            assign2.update({"C": c, "Z": z2.real if abs(z2.imag) < 1e-9 else z2})
            vals2 = [assign2[v] for v in child.variables]
            reassembled = sum(child.equations[k].evaluate(vals2) * gamma ** k for k in range(q))
            assert abs(reassembled) < 1e-6

    system, assignment = square_trick_witness(2, 5, 3, 1)
    assert verify_witness(system, assignment)
    assert check_side_conditions(system, assignment)
    _report(7, "exact N(2), numeric N(3), two-way descent, rational witness", t0, 30)


# -- criterion 8 -----------------------------------------------------------


def test_criterion_8_elliptic():
    from normforge.elliptic import (
        EllipticCurve,
        MultipleCache,
        denominator_divisibility_search,
        equiv_divisibility_check,
        find_equiv_m,
        multiply_point,
    )

    t0 = time.time()
    E = EllipticCurve(0, -2)
    P = E.point(3, 5)
    P2 = multiply_point(E, P, 2)
    assert P2.x == Fraction(129, 100) and P2.y == Fraction(-383, 1000)
    assert denominator_divisibility_search(E, P, 4, 1) == 2
    m = find_equiv_m(E, P, m_max=5, k_range=5, l_range=5)
    cache = MultipleCache(E, P)
    for k, l in itertools.product(range(1, 7), range(1, 7)):
        res = equiv_divisibility_check(E, P, m, l, k, cache)
        assert res is None or res is True
    _report(8, f"[2]P exact, k = 2 divisor search, m = {m} brute-forced on [1,6]^2", t0, 60)


# -- criterion 9 -----------------------------------------------------------


def test_criterion_9_kronecker_interval():
    from normforge.cyclic import real_cyclotomic_minpoly
    from normforge.numberfield import conjugate_interval

    t0 = time.time()
    for m in (5, 7, 9, 11, 13):
        cos_poly = real_cyclotomic_minpoly(m)
        # 4 cos^2(pi/m) = 2 + 2 cos(2 pi/m): substitute y -> y - 2
        shifted = cos_poly(UniPoly([-2, 1]))
        field = NumberField(shifted, name=f"Q(4cos^2(pi/{m}))", check_irreducible=False)
        lo, hi = conjugate_interval(field.gen(), width=Fraction(1, 10 ** 6))
        assert lo.lo > 0, f"m = {m}: lower conjugate bound not strictly positive"
        assert hi.hi < 4, f"m = {m}: upper conjugate bound not strictly below 4"
    _report(9, "conjugates of 4cos^2(pi/m) strictly inside (0, 4)", t0, 5)


# -- criterion 10 ----------------------------------------------------------


def test_criterion_10_battery_behavior():
    from normforge.normeq import integrality_battery

    t0 = time.time()
    res = integrality_battery(K3, Fraction(1, 7), 3)
    assert not res.passed
    b, c, prime = res.witness
    assert prime.p == 7
    assert (b.coords[0], b.coords[1]) == (Fraction(1, 7), 0)
    assert (c.coords[0], c.coords[1]) == (82, 0)

    assert integrality_battery(K3, 5, 3).passed

    res13 = integrality_battery(K3, Fraction(1, 3), 3)
    assert res13.passed
    assert [f["flag"] for f in res13.flags] == ["NotCatchable"]
    _report(10, "witness (1/7, 82) at 7; x = 5 passes; 1/3 NotCatchable", t0, 30)
