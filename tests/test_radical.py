"""Tower building and proposition verification on concrete instances."""

import random
from fractions import Fraction

import pytest

from normforge.errors import (
    DegenerateRadicand,
    HypothesisFail,
    MissingRootOfUnity,
    NormforgeError,
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


def test_verify_proposition_error_paths():
    P7a, _ = splitting_type(K3, 7)
    P2, = splitting_type(Q, 2)
    xda = RadicalTowerSpec(Q, 2, XDA, Fraction(1, 4), Fraction(1, 8), 5,
                           nonsplit_certificate={"kind": "two-adic"})
    # the kind is checked first, then the variant, then the target prime
    for spec in (FIXTURE, xda):
        with pytest.raises(NormforgeError) as exc:
            verify_proposition("badprimes", spec)
        assert str(exc.value) == "unknown proposition kind 'badprimes'"
    for kind, spec, want in (("badprime", xda, "XBC"), ("fixorder", xda, "XBC"),
                             ("badprimeq", FIXTURE, "XDA"), ("fixorderq", FIXTURE, "XDA")):
        with pytest.raises(NormforgeError) as exc:
            verify_proposition(kind, spec)
        assert str(exc.value) == f"{kind} needs the {want} variant"
    for kind, spec in (("badprime", FIXTURE), ("badprimeq", xda)):
        with pytest.raises(NormforgeError) as exc:
            verify_proposition(kind, spec)
        assert str(exc.value) == f"{kind} needs a target prime"
    # a target prime makes the fixorder kinds check the hypotheses of their
    # badprime counterparts, and a failure carries the report
    bad_b = RadicalTowerSpec(K3, 3, XBC, Fraction(1, 7), Fraction(1, 343), 82)
    splits = RadicalTowerSpec(Q, 2, XDA, Fraction(1, 4), Fraction(1, 8), 17,
                              nonsplit_certificate={"kind": "two-adic"})
    for kind, spec, P, failed in (("fixorder", bad_b, P7a, [4, 5]),
                                  ("fixorderq", splits, P2, [2])):
        with pytest.raises(HypothesisFail) as exc:
            verify_proposition(kind, spec, P)
        report = exc.value.report
        assert exc.value.failed == report.failed_indices() == failed
        assert report.kind == kind and report.conclusions == [] and not report.hypotheses_pass


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
    from normforge.local import radical_children
    from normforge.radical import start_node

    P41 = splitting_type(K3, 41)[0]
    node = start_node(FIXTURE, P41)
    orders = [("r1", "r2", "r3"), ("r2", "r1", "r3")]
    multisets = []
    for order in orders:
        nodes = [node.child()]
        for key in order:
            nodes = [kid for n in nodes for kid in radical_children(n, key, 3, u_minus_one_key=key + "m1")]
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
    from normforge.kpoly import _newton_interpolate
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
    absolute_poly = _newton_interpolate([v for _, v in pts])
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
            for child in radical_children(node, "two", 3):
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
            predicted = [(c.e, c.f) for c in radical_children(node, "u", 2)]
            assert sorted(predicted) == sorted((G.e, G.f_deg) for G in global_primes), (u, p)


def test_tracked_node_at_a_split_prime_needs_no_powers_or_inverses(monkeypatch):
    # once w mod p (pi(r) = p w) is cached on P, every (v, residue) at an
    # e = f = 1 prime comes from one p-adic image: no uniformizer, no
    # FieldElement power or inverse, and no valuation or residue_map call
    import normforge.numberfield as nf
    import normforge.radical as rad

    i = KI.gen()
    P = next(P for P in splitting_type(KI, 5) if valuation(KI, P, i + 2) == 1)
    elements = {"unit": i + 3, "zero": KI.zero(), "v1": (i + 2) ** 2 / 5,
                "v2": (i + 2) ** 2 * 3, "vm1": (i - 2) / ((i + 2) * 7),
                "vm2": Fraction(2, 25) * (i + 1)}
    pi = nf.uniformizer(KI, P)
    want = {}
    for key, val in elements.items():
        if not val.is_zero():
            v = valuation(KI, P, val)
            want[key] = (v, nf.residue_map(KI, P, val * pi ** (-v)))
    assert sorted(v for v, _ in want.values()) == [-2, -1, 0, 1, 2]
    rad.tracked_node(KI, P, 3, elements)
    assert P._w is not None

    def refuse(*args, **kwargs):
        raise AssertionError("the degree-one path took a slow step")

    monkeypatch.setattr(nf.FieldElement, "__pow__", refuse)
    monkeypatch.setattr(nf.FieldElement, "inverse", refuse)
    for module, name in ((nf, "uniformizer"), (rad, "uniformizer"),
                         (rad, "valuation"), (rad, "residue_map")):
        monkeypatch.setattr(module, name, refuse)
    node = rad.tracked_node(KI, P, 3, elements)
    at_q = rad.tracked_node(KI, P, 5, elements)  # at a factor of q only units get one
    assert node.get("zero").v == at_q.get("zero").v == 10 ** 9
    for key, (v, res) in want.items():
        assert (node.get(key).v, node.get(key).residue) == (v, res)
        assert (at_q.get(key).v, at_q.get(key).residue) == (v, res if v == 0 else None)


def _direct_local_data(spec, P):
    """The bad-prime data at P computed directly, as before the start node:
    (v(x), v(second), v(third)), and the residue of the third element and
    its q-th power test when it is a unit."""
    from normforge.finitefield import power_test_in_extension
    from normforge.numberfield import residue_map

    field = spec.field
    vx, v2, v3 = (valuation(field, P, elem) for elem in (spec.x, spec.second, spec.third))
    res = residue_map(field, P, spec.third) if v3 == 0 else None
    is_power = v3 == 0 and power_test_in_extension(res, spec.q, P.f_deg)
    return (vx, v2, v3), res, is_power


def test_local_hypotheses_read_off_the_start_node_match_direct_valuations(monkeypatch):
    # protective_conditions, the bad-prime hypothesis witnesses and the
    # fixorder exclusions read the start node; each must agree with a direct
    # valuation and residue map, at unramified, ramified and inert primes
    from normforge import radical
    from normforge.radical import (
        PropositionReport,
        _badprime_hypotheses,
        _badprimeq_hypotheses,
        protective_conditions,
        start_node,
    )

    rng = random.Random(2601)
    shapes, units, excluded = set(), 0, 0
    started = []
    real_start = radical.start_node
    monkeypatch.setattr(radical, "start_node", lambda spec, P: started.append(P) or real_start(spec, P))
    monkeypatch.setattr(radical, "chain_layers", lambda spec, start: [])
    for field, q in [(K, q) for K in (Q, KI, GOLDEN, K3) for q in (2, 3)] * 3:
        x, second, third = (field.element([Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 5, 9]))
                                           for _ in range(field.degree)]) for _ in range(3))
        extra = [P for p in (2, 3, 5) for P in splitting_type(field, p)]
        for variant in (XBC, XDA):
            try:
                spec = RadicalTowerSpec(field, q, variant, x, second, third)
            except DegenerateRadicand:
                continue
            n2 = spec.second_name
            for P in primes_of_interest(spec, extra=extra):
                start = start_node(spec, P)
                (vx, v2, v3), res, is_power = _direct_local_data(spec, P)
                shapes.add((P.e, P.f_deg))
                units += v3 == 0
                conds, vals, got_res = protective_conditions(spec, start)
                assert vals == (vx, v2, v3) and got_res == res
                assert conds == [is_power, vx >= 0, q * vx >= (q - 1) * v2, v2 % q == 0]
                report = PropositionReport("badprime", spec)
                if variant == XBC:
                    _badprime_hypotheses(report, spec, P, start)
                    witness = f"residue {list(res.coeffs)}" if v3 == 0 else f"v(c) = {v3} != 0"
                    want = [(P.p != q, f"p = {P.p}"), (v3 == 0 and not is_power, witness),
                            (vx < 0, f"v(x) = {vx}"), (v2 % q != 0, f"v(b) = {v2}"),
                            (q * vx < (q - 1) * v2, f"{q * vx} < {(q - 1) * v2}")]
                else:
                    _badprimeq_hypotheses(report, spec, P, start)
                    want = [(P.p == q, f"p = {P.p}"), (False, "no certificate"),
                            (vx < 0, f"v(x) = {vx}"), (v2 % q != 0, f"v(d) = {v2}"),
                            (v2 <= -3 * P.e, f"v(d) = {v2}, -3v(q) = {-3 * P.e}"),
                            (v3 == 0, f"v(a) = {v3}"),
                            (q * vx < (q - 1) * v2, f"{q * vx} < {(q - 1) * v2}")]
                assert [(h["passed"], h["witness"]) for h in report.hypotheses] == want
            kind = "fixorder" if variant == XBC else "fixorderq"
            del started[:]
            try:
                report = verify_proposition(kind, spec)
            except MissingRootOfUnity:
                continue
            # a factor of q is excluded from fixorder before its start node is built
            assert started == [P for P in primes_of_interest(spec) if kind == "fixorderq" or P.p != q]
            want = {}
            for P in primes_of_interest(spec):
                (vx, v2, _), _, _ = _direct_local_data(spec, P)
                if kind == "fixorder" and P.p == q:
                    want[P] = "factor of q, outside the statement"
                elif kind == "fixorder" and vx < 0:
                    want[P] = "pole of x, outside the statement"
                elif kind == "fixorderq" and min(v2, vx) < 0:
                    want[P] = "pole of d or x, outside the statement"
            got = {P: c["details"] for P, c in zip(primes_of_interest(spec), report.conclusions)
                   if c["holds"] == "excluded"}
            assert got == want
            excluded += len(want)
    assert {(1, 1), (2, 1), (1, 2)} <= shapes and units >= 50 and excluded >= 30


def test_tracked_node_at_a_factor_of_q_of_residue_degree_two():
    # 2 is inert in Q(zeta3): at q = 2 the start node keeps the residue of
    # units only, and every valuation and unit residue is the direct one
    from normforge.numberfield import residue_map
    from normforge.radical import tracked_node

    P, = splitting_type(K3, 2)
    assert (P.e, P.f_deg) == (1, 2)
    rng = random.Random(2805)
    elements = {f"e{k}": K3.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 3]))
                                     for _ in range(2)]) * 2 ** rng.randint(0, 2)
                for k in range(40)}
    node = tracked_node(K3, P, 2, {k: a for k, a in elements.items() if not a.is_zero()})
    vs = set()
    for key in node.tracked:
        t = node.get(key)
        v = valuation(K3, P, elements[key])
        vs.add(v)
        assert (t.v, t.residue) == (v, residue_map(K3, P, elements[key]) if v == 0 else None)
    assert {-2, -1, 0, 1, 2} <= vs


def test_ledgers_and_reports_at_f2_and_e2_primes_byte_pinned(monkeypatch):
    """Seeded analyze ledgers and PropositionReport JSON over Q(i), Q(zeta3)
    and Q(sqrt5), whose primes of interest include unramified primes of
    residue degree 2 and ramified primes with e = 2, at and away from q."""
    import hashlib
    import json

    from normforge import radical
    from normforge.normeq import NormEquationInstance, analyze

    reached = set()
    real = radical.tracked_node

    def spy(field, P, q, elements, known=None):
        reached.add((P.e, P.f_deg, P.p == q))
        return real(field, P, q, elements, known)

    monkeypatch.setattr(radical, "tracked_node", spy)
    rng = random.Random(2806)
    out = []
    for field, q in ((KI, 2), (K3, 3), (GOLDEN, 2), (K3, 2)) * 3:
        x, b, c = (field.element([Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 7, 9]))
                                  for _ in range(2)]) for _ in range(3))
        try:
            verdict, ledger = analyze(NormEquationInstance(field, q, x, b, c))
            out.append([verdict.kind, ledger.to_json()])
            spec = RadicalTowerSpec(field, q, XBC, x, b, c)
        except NormforgeError as exc:
            out.append(type(exc).__name__)
            continue
        for P in list(primes_of_interest(spec))[:3]:
            try:
                out.append(verify_proposition("badprime", spec, P).to_json())
            except HypothesisFail as exc:
                out.append(exc.report.to_json())
        try:
            out.append(verify_proposition("fixorder", spec).to_json())
        except NormforgeError as exc:
            out.append(type(exc).__name__)
    assert {(1, 2, False), (1, 2, True), (2, 1, False), (2, 1, True)} <= reached
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "d3a3799c84211102"
