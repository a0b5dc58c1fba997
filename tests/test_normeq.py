"""Norm-equation verdicts, battery behavior, and the membership predicates."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from normforge.errors import (
    ConclusionViolation,
    HypothesisFail,
    MissingRootOfUnity,
    NormforgeError,
    SearchExhausted,
)
from normforge.finitefield import FiniteField
from normforge.local import LocalVerdict
from normforge.normeq import (
    NormEquationInstance,
    analyze,
    analyze_direct,
    b_set_membership,
    c_set_membership,
    int_set_membership,
    integrality_battery,
    ring_filter,
    unbounded_denominator_probe,
)
from normforge.numberfield import NumberField, splitting_type
from normforge.polyq import UniPoly

Q = NumberField.rationals()
K3 = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")


def test_analyze_direct_sum_of_two_squares():
    # ground truth: n is a norm from Q(i) iff n > 0 and v_p(n) even for p = 3 mod 4
    verdict, ledger = analyze_direct(Q, 2, -1, 3)
    assert verdict.kind == LocalVerdict.UNSOLVABLE
    at3 = [e for e in ledger.entries if e["prime"]["p"] == 3][0]
    assert at3["verdict"]["verdict"] == LocalVerdict.UNSOLVABLE
    verdict9, _ = analyze_direct(Q, 2, -1, 9)
    assert verdict9.kind == LocalVerdict.SOLVABLE
    # more ground-truth samples: representable iff every p = 3 mod 4 has even order
    for n, expect in [(2, True), (5, True), (6, False), (45, True), (21, False),
                      (-4, False), (49, True), (98, True), (3 * 49, False)]:
        v, _ = analyze_direct(Q, 2, -1, n)
        two_sq = _sum_two_squares(n)
        assert two_sq is expect
        assert (v.kind == LocalVerdict.SOLVABLE) == expect


def _sum_two_squares(n):
    if n < 0:
        return False
    for a in range(0, int(n ** 0.5) + 1):
        b2 = n - a * a
        b = int(round(b2 ** 0.5))
        if b * b == b2:
            return True
    return False


@pytest.mark.parametrize("c, rhs, digest", [
    (-1, 3, "52607f11d12040ee"),
    (-1, 9, "8f38aee033dc197d"),
    (5, 2, "23562cdc0aed2589"),
    (3, 7, "a45953e95c1eb024"),
])
def test_analyze_direct_ledger_byte_pinned(c, rhs, digest):
    _, ledger = analyze_direct(Q, 2, c, rhs)
    text = json.dumps(ledger.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("seed, digest", [(1, "b447b9bc83e581f6"), (2, "bfdda4233a395db0")])
def test_analyze_ledger_byte_pinned_in_degree_two_residue_fields(seed, digest, monkeypatch):
    """Ledgers of a seeded sweep over Q(i) (q = 2) and Q(zeta3) (q = 3).

    Their inert primes have residue fields F_(p^2), and tame ramified layers
    refresh tracked residues by a power of the radicand's residue
    (LocalPrime.child with a twist); the sweep must reach both.  Half the
    instances take c = 1 mod q^3 (the phi guard), so all three verdicts occur.
    """
    from normforge import local

    reached = {"twist": 0, "f2": 0}
    child, test = local.LocalPrime.child, local.power_test_in_extension

    def spy_child(node, *args, twist=None, **kwargs):
        reached["twist"] += twist is not None
        return child(node, *args, twist=twist, **kwargs)

    def spy_test(a, q, ext_f):
        reached["f2"] += a.field.f == 2
        return test(a, q, ext_f)

    monkeypatch.setattr(local.LocalPrime, "child", spy_child)
    monkeypatch.setattr(local, "power_test_in_extension", spy_test)
    QI = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
    rng = random.Random(seed)
    out = []
    for i in range(8):
        field, q = (QI, 2) if i % 2 == 0 else (K3, 3)

        def element():
            return field.element([Fraction(rng.randint(-9, 9), rng.choice([1, 3, 7])),
                                  rng.randint(-3, 3)])

        x, b, c = element(), element(), element()
        if i % 4 < 2:
            c = field.one() + field.element([rng.randint(-3, 3), rng.randint(1, 3)]) * q ** 3
        try:
            verdict, ledger = analyze(NormEquationInstance(field, q, x, b, c))
            out.append([verdict.kind, ledger.to_json()])
        except NormforgeError as exc:
            out.append(type(exc).__name__)
    assert reached["twist"] and reached["f2"]
    text = json.dumps(out, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def _chain_copy_per_sibling(spec, start):
    """Reference layer chain: every sibling is its own node, expanded on its own."""
    from normforge.local import radical_children

    nodes = [start]
    for key in ("r1", "r2", "r3"):
        nodes = [kid.child() for node in nodes
                 for kid in radical_children(node, key, spec.q, u_minus_one_key=key + "m1")]
    return nodes


def _outcome(run, *args):
    try:
        return run(*args)
    except (NormforgeError, ConclusionViolation) as exc:
        return type(exc).__name__, str(exc)


def _leaf_data(leaves):
    if isinstance(leaves, tuple):  # the outcome of a raised error
        return leaves
    return [(n.p, n.e, n.f, n.trace, n.indeterminate,
             sorted((key, t.v, t.fresh) for key, t in n.tracked.items())) for n in leaves]


def _analysis(instance):
    out = _outcome(analyze, instance)
    if isinstance(out[0], LocalVerdict):
        verdict, ledger = out
        return verdict.to_json(), json.dumps(ledger.to_json(), sort_keys=True)
    return out


def test_shared_split_siblings_match_a_copy_per_sibling_expansion(monkeypatch):
    # chain_layers expands each distinct node once, and a leaf list repeats
    # a shared split sibling; its leaves, verdicts and ledgers must be those
    # of expanding every sibling as its own copy
    from normforge import normeq
    from normforge.radical import chain_layers, primes_of_interest, start_node

    QI = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
    GOLDEN = NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)")
    rng = random.Random(2510)
    instances, leaf_lists, shared = [], 0, 0
    for field, q in [(K, q) for K in (Q, QI, GOLDEN, K3) for q in (2, 3)] * 4:
        x, b, c = (field.element([Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 3, 7]))
                                  for _ in range(field.degree)]) for _ in range(3))
        try:
            instance = NormEquationInstance(field, q, x, b, c)
        except NormforgeError:  # a degenerate radicand
            continue
        instances.append(instance)
        for P in primes_of_interest(instance.spec):
            got = _outcome(lambda: chain_layers(instance.spec, start_node(instance.spec, P)))
            want = _outcome(lambda: _chain_copy_per_sibling(instance.spec,
                                                            start_node(instance.spec, P)))
            if isinstance(got, list):
                leaf_lists += 1
                shared += len(set(got)) < len(got)
            assert _leaf_data(got) == _leaf_data(want), (instance.to_json(), P)
    assert len(instances) >= 30 and leaf_lists >= 120 and shared >= 80
    new = [_analysis(instance) for instance in instances]
    monkeypatch.setattr(normeq, "chain_layers", _chain_copy_per_sibling)
    assert new == [_analysis(instance) for instance in instances]
    assert {v[0]["verdict"] for v in new if isinstance(v[0], dict)} == {
        "solvable", "unsolvable", "indeterminate"}


def test_a_fully_split_prime_expands_and_judges_one_node_per_layer(monkeypatch):
    # at a prime of Q(zeta3) over 7 all three q = 3 layers split completely
    # and so does the norm layer: 27 leaves are one shared node, expanded
    # once per layer, judged once and serialized once
    from normforge import local, normeq, radical

    calls = {"expand": 0, "judge": 0, "json": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(radical, "radical_children", counted("expand", radical.radical_children))
    monkeypatch.setattr(normeq, "local_norm_solvable", counted("judge", normeq.local_norm_solvable))
    monkeypatch.setattr(local.LocalPrime, "to_json", counted("json", local.LocalPrime.to_json))
    instance = NormEquationInstance(K3, 3, Fraction(1, 7), Fraction(1, 7), 8)
    P = splitting_type(K3, 7)[0]
    verdict, note, leaves = normeq._prime_verdict(instance, P, radical.start_node(instance.spec, P))
    assert (verdict.kind, note, len(leaves), len(set(leaves))) == ("solvable", "chained", 27, 1)
    assert all(trace.startswith("split(") for trace in leaves[0].trace)
    assert (calls["expand"], calls["judge"]) == (3, 1)
    ledger = normeq.LocalLedger()
    ledger.add(P, verdict, [], note, leaves=leaves)
    assert calls["json"] == 1 and len(ledger.entries[0]["local_trace"]) == 27


def test_analyze_direct_agrees_with_hilbert_symbols_on_grid():
    """Over Q with q = 2 the verdict is classical: N from Q(sqrt(c)) represents
    rhs iff (c, rhs)_v = +1 at every place.  Exhaustive grid agreement."""
    from normforge.intfunc import factorint
    from normforge.local import hilbert_symbol

    values = [-6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15]
    for c in values:
        for rhs in values:
            places = {2, "inf"}
            for n in (abs(c), abs(rhs)):
                places.update(factorint(n))
            ground_truth = all(hilbert_symbol(c, rhs, v) == 1 for v in places)
            verdict, _ = analyze_direct(Q, 2, c, rhs)
            assert verdict.kind != LocalVerdict.INDETERMINATE, (c, rhs)
            assert (verdict.kind == LocalVerdict.SOLVABLE) == ground_truth, (c, rhs)


def test_analyze_worked_instances():
    inst = NormEquationInstance(K3, 3, 2, Fraction(1, 7), 82)
    verdict, _ = analyze(inst)
    assert verdict.kind == LocalVerdict.SOLVABLE
    inst2 = NormEquationInstance(K3, 3, Fraction(1, 7), Fraction(1, 7), 82)
    verdict2, ledger2 = analyze(inst2)
    assert verdict2.kind == LocalVerdict.UNSOLVABLE
    bad = [e for e in ledger2.entries if e["verdict"]["verdict"] == "unsolvable"]
    assert bad and all(e["prime"]["p"] == 7 for e in bad)


def test_sentinel_one_only_where_c_is_a_unit():
    # c = 9 is a square, so Solvable is right; at the pole 3 of x, v(c) = 2 and
    # the bad-prime statement (c not a square mod the prime) does not apply
    verdict, _ = analyze(NormEquationInstance(Q, 2, Fraction(22, 3), Fraction(29, 3), 9))
    assert verdict.kind == LocalVerdict.SOLVABLE
    # c a non-square unit at the pole and v(b) = 3: the layer verdict still
    # misfires there, and the sentinel must keep reporting it
    for x, b, c in ((Fraction(2, 3), Fraction(27, 7), 617), (Fraction(1, 5), 125, 17)):
        with pytest.raises(ConclusionViolation):
            analyze(NormEquationInstance(Q, 2, x, b, c))


@pytest.mark.parametrize("q, x, b, c", [(3, Fraction(1, 5), 1, 2),
                                        (3, Fraction(1, 7), Fraction(1, 7), 82),
                                        (5, Fraction(1, 11), 1, 3)])
def test_analyze_needs_mu_q(q, x, b, c):
    # the layers are cyclic of degree q only over a field with the q-th roots
    # of unity; Q has none for odd q
    with pytest.raises(MissingRootOfUnity, match=rf"^Q lacks a primitive {q}-th root of unity$"):
        analyze(NormEquationInstance(Q, q, x, b, c))


def test_analyze_direct_needs_mu_q():
    # the layer K(c^(1/3))/K is cyclic only over a field with the cube roots
    # of unity; Q has none, and a real place, so no cyclic-layer rule applies
    with pytest.raises(MissingRootOfUnity, match=r"^Q lacks a primitive 3-th root of unity$"):
        analyze_direct(Q, 3, 2, 5)
    verdict, ledger = analyze_direct(K3, 3, 2, 5)
    assert verdict.kind == LocalVerdict.INDETERMINATE  # wild at 3
    assert ledger.archimedean.reason == "q > 2: archimedean completions are complex"


def test_battery_needs_mu_q():
    # the pole at 7 has a non-cube rational c, so the battery reaches analyze
    with pytest.raises(MissingRootOfUnity):
        integrality_battery(Q, Fraction(1, 7), 3)


def test_trager_runs_once_per_field_and_q(monkeypatch):
    # has_primitive_root_of_unity caches its answer on the field, so analyze,
    # the battery and verify_proposition share one Trager test per (field, q)
    from normforge import kpoly
    from normforge.radical import RadicalTowerSpec, XBC, verify_proposition

    calls = []
    real = kpoly.has_root_in_field
    monkeypatch.setattr(kpoly, "has_root_in_field",
                        lambda field, h: calls.append(field) or real(field, h))
    for _ in range(2):
        field = NumberField(UniPoly([1, 1, 1]), name="Q(zeta3)")  # fresh: an empty cache
        P7 = splitting_type(field, 7)[0]
        spec = RadicalTowerSpec(field, 3, XBC, Fraction(1, 7), Fraction(1, 7), 82)
        for _ in range(2):
            analyze(NormEquationInstance(field, 3, Fraction(1, 7), Fraction(1, 7), 82))
            verify_proposition("badprime", spec, P7)
            verify_proposition("fixorder", spec)
        integrality_battery(field, Fraction(1, 7), 3)
        assert [f for f in calls if f is field] == [field]
    assert len(calls) == 2


def test_rhs_zero_rejected_before_analysis():
    from normforge.errors import DegenerateRadicand

    with pytest.raises(DegenerateRadicand):
        NormEquationInstance(Q, 3, -1, 1, 82)


def test_solvable_for_compliant_random_instances():
    rng = random.Random(20240819)
    for _ in range(30):
        x = Q.element(rng.randint(1, 50))
        b = Q.element(Fraction(rng.randint(1, 20), rng.choice([1, 3, 5, 7])))
        c = Q.element(1 + 8 * rng.randint(1, 60))
        if (b * x * x + b * b).is_zero():
            continue
        verdict, _ = analyze(NormEquationInstance(Q, 2, x, b, c))
        assert verdict.kind == LocalVerdict.SOLVABLE


def test_battery_finds_witness_for_pole():
    res = integrality_battery(K3, Fraction(1, 7), 3)
    assert not res.passed
    b, c, P = res.witness
    assert b.coords[0] == Fraction(1, 7) and b.coords[1] == 0
    assert c.coords[0] == 82 and c.coords[1] == 0
    assert P.p == 7


def test_battery_passes_integer_and_flags_q_pole():
    assert integrality_battery(K3, 5, 3).passed
    res = integrality_battery(K3, Fraction(1, 3), 3)
    assert res.passed
    assert [f["flag"] for f in res.flags] == ["NotCatchable"]


def test_battery_q2_over_q():
    res = integrality_battery(Q, Fraction(1, 5), 2)
    assert not res.passed
    b, c, P = res.witness
    assert P.p == 5
    assert c.as_rational() == 17  # 1 + 8*2: first Phi_2-compatible non-square mod 5


def test_battery_completeness_single_pole_seeds():
    """A single pole at a prime away from q is always caught within the bound."""
    for q, field, poles in [(2, Q, [7, 11, 13, 3]), (3, K3, [13, 19, 31])]:
        for p in poles:
            res = integrality_battery(field, Fraction(1, p), q)
            assert not res.passed
            _, _, P = res.witness
            assert P.p == p


def test_battery_refuses_at_once_when_rational_units_are_powers(monkeypatch):
    # 41 is inert in Q(zeta3) and F_41* lies in the cubes of F_{41^2}*;
    # 31 is inert in Q(i) and F_31* lies in the squares of F_{31^2}*
    import normforge.normeq as normeq

    def no_search(*args, **kwargs):
        raise AssertionError("the battery started its search")

    monkeypatch.setattr(normeq, "strong_approx_element", no_search)
    QI = NumberField(UniPoly([1, 0, 1]), name="Q(i)")
    for field, x, q in ((K3, Fraction(14, 41), 3), (QI, Fraction(4, 961), 2)):
        with pytest.raises(SearchExhausted, match="every rational unit"):
            integrality_battery(field, x, q)
    # 7 splits in Q(zeta3): with one prime over 7 in S, c = 1 mod 7 is a cube
    # residue at the other, the target
    P7a, P7b = splitting_type(K3, 7)
    with pytest.raises(SearchExhausted, match="an S-prime lies over 7"):
        integrality_battery(K3, Fraction(1, 7), 3, S=[P7a])


def test_battery_allows_poles_at_s_primes():
    res = integrality_battery(K3, Fraction(1, 7), 3, S=splitting_type(K3, 7))
    assert res.passed
    assert [f["flag"] for f in res.flags] == ["AllowedAtS", "AllowedAtS"]


def test_battery_catches_pole_at_ramified_prime():
    # Q(sqrt5) with q = 2: the prime over 5 is ramified (e = 2); a pole there
    # is still caught by an inert layer with odd right-side order
    from normforge.numberfield import strong_approx_element

    G = NumberField(UniPoly([-1, -1, 1]), name="Q(sqrt5)")
    P5, = splitting_type(G, 5)
    assert P5.e == 2
    x = strong_approx_element(G, valuations=[(P5, -1)])
    res = integrality_battery(G, x, 2)
    assert not res.passed
    b, c, P = res.witness
    assert P.p == 5
    assert c.as_rational() == 17  # = 1 mod 8 and a non-square residue mod 5


def test_analyze_deterministic():
    import json

    inst = lambda: NormEquationInstance(K3, 3, Fraction(1, 7), Fraction(1, 7), 82)
    out1 = json.dumps(analyze(inst())[1].to_json(), sort_keys=True)
    out2 = json.dumps(analyze(inst())[1].to_json(), sort_keys=True)
    assert out1 == out2


def test_b_set_multiple_w_primes():
    # W = {3-adic, 5-adic}, p = 2: d = 1/(3 * 125), a = 17 (non-square at both)
    P3, = splitting_type(Q, 3)
    P5, = splitting_type(Q, 5)
    d = Q.element(Fraction(1, 3 * 125))
    a = Q.element(17)
    w = [P3, P5]
    assert pow(17 % 3, 1, 3) == 2 and pow(2, 2, 5) == 4  # 17 = 2 mod 3 and mod 5
    assert b_set_membership(Q, 2, a, d, Q.element(4), w)
    assert b_set_membership(Q, 2, a, d, Q.element(Fraction(1, 5)), w)  # -1 > -3/2
    assert not b_set_membership(Q, 2, a, d, Q.element(Fraction(1, 25)), w)  # -2 < -3/2
    assert not b_set_membership(Q, 2, a, d, Q.element(Fraction(1, 3)), w)  # -1 <= -1/2


def test_analyze_with_s_primes_theta_split():
    # c = 1 mod 5 splits the layer at the S-prime, so the entry is solvable
    P5, = splitting_type(Q, 5)
    c = Q.element(1 + 5 * 8 * 2)  # 81: = 1 mod 5 and mod 8
    inst = NormEquationInstance(Q, 2, Q.element(3), Q.element(1), c, S=[P5])
    verdict, ledger = analyze(inst)
    assert verdict.kind == LocalVerdict.SOLVABLE
    entry5 = [e for e in ledger.entries if e["prime"]["p"] == 5]
    assert entry5 and entry5[0]["verdict"]["verdict"] == "solvable"


def test_b_set_membership_and_cross_validation():
    # W = {2-adic prime}, p = 2, d with v_2(d) = -3, a = 5 (non-square unit at 2)
    P2, = splitting_type(Q, 2)
    d = Q.element(Fraction(1, 8))
    a = Q.element(5)
    assert b_set_membership(Q, 2, a, d, Q.element(7), [P2])  # integral x
    assert b_set_membership(Q, 2, a, d, Q.element(Fraction(1, 2)), [P2])  # -1 > -3/2... v=-1 > (1/2)(-3)
    assert not b_set_membership(Q, 2, a, d, Q.element(Fraction(1, 4)), [P2])  # -2 < -3/2
    assert not b_set_membership(Q, 2, a, d, d, [P2])  # v = -3 <= -3/2
    # boundary: v(x) = -1 vs bound (p-1)/p * v(d) = -3/2: -1 > -3/2: member
    # cross-validate against the XDA analyze verdict
    for x, expect in [(Q.element(7), True), (Q.element(Fraction(1, 2)), True),
                      (Q.element(Fraction(1, 4)), False)]:
        inst = NormEquationInstance(Q, 2, x, d, a, variant="XDA",
                                    nonsplit_certificate={"kind": "two-adic"})
        verdict, _ = analyze(inst)
        if verdict.kind != LocalVerdict.INDETERMINATE:
            assert (verdict.kind == LocalVerdict.SOLVABLE) == expect


def test_b_set_audits_preconditions():
    P2, = splitting_type(Q, 2)
    with pytest.raises(HypothesisFail):
        b_set_membership(Q, 2, Q.element(5), Q.element(Fraction(1, 4)), Q.element(1), [P2])
    with pytest.raises(HypothesisFail):
        b_set_membership(Q, 2, Q.element(17), Q.element(Fraction(1, 8)), Q.element(1), [P2])


def test_ring_filter_with_witness():
    P2, = splitting_type(Q, 2)
    d = Q.element(Fraction(1, 32))  # v = -5: bound (1/2)(-5) = -5/2
    assert ring_filter(Q, 2, d, Q.element(6), [P2]) == (True, None)
    member, witness = ring_filter(Q, 2, d, Q.element(Fraction(1, 2)), [P2])
    assert not member and witness is not None
    # witness y = x^r lies in B but x*y does not
    assert b_set_membership(Q, 2, Q.element(5), d, witness, [P2])
    assert not b_set_membership(Q, 2, Q.element(5), d, witness * Q.element(Fraction(1, 2)), [P2])
    assert ring_filter(Q, 2, d, Q.element(Fraction(1, 64)), [P2]) == (False, None)


def test_ring_filter_closure_property():
    rng = random.Random(31)
    P2, = splitting_type(Q, 2)
    d = Q.element(Fraction(1, 32))
    members = [Q.element(v) for v in (1, 3, 6, 10, -4)]
    for x in members:
        for y in members:
            assert ring_filter(Q, 2, d, x * y, [P2])[0]
            assert ring_filter(Q, 2, d, x + y, [P2])[0] or (x + y).is_zero()


def test_c_set_membership():
    P2, = splitting_type(Q, 2)
    d = Q.element(Fraction(1, 8))
    a = Q.element(5)
    cert = {"kind": "two-adic"}
    assert c_set_membership(Q, a, d, 2, Q.element(4), [P2], nonsplit_certificate=cert)
    assert not c_set_membership(Q, a, d, 2, Q.element(Fraction(1, 4)), [P2],
                                nonsplit_certificate=cert)
    with pytest.raises(HypothesisFail):
        c_set_membership(Q, a, Q.element(Fraction(1, 2)), 2, Q.element(1), [P2],
                         nonsplit_certificate=cert)  # v(d) = -1 > -3


def test_int_set_membership():
    P5, = splitting_type(Q, 5)
    b = Q.element(Fraction(1, 5))
    assert int_set_membership(Q, b, [P5], 2, Q.element(3))
    assert not int_set_membership(Q, b, [P5], 2, b)  # v(b) = -1 < -1/2
    # boundary: bound is (q-1)/q v(b) = -1/2; v(x) = 0 passes, v(x) = -1 fails
    with pytest.raises(HypothesisFail):
        int_set_membership(Q, Q.element(Fraction(1, 25)), [P5], 2, Q.element(1))


def test_unbounded_denominator_probe_five_power():
    """The instance lives over Q(xi_5) (level 1, residue field F_16): a
    non-5th-power unit obstructs there, and f jumping to 20 at level 2 makes
    every F_16 unit a 5th power, so the obstruction vanishes at level 2."""
    from normforge.towers import example_tower, grow_tree

    r = example_tower("five-power-cyclotomic", depth=3)
    tree = grow_tree(r, 2, 3)
    F16 = FiniteField(2, [1, 1, 0, 0, 1])  # x^4 + x + 1
    gen = F16.element([0, 1])  # multiplicative generator: not a 5th power
    assert gen ** 3 != F16.one()
    out = unbounded_denominator_probe(tree, 5, v_rhs_base=-1, c_residue=gen)
    assert out["level"] == 2
    # (2^20 - 1)/5 is divisible by 15, so every F_16 unit is a 5th power there
    assert ((2 ** 20 - 1) // 5) % 15 == 0


def test_probe_already_unobstructed():
    from normforge.towers import example_tower, grow_tree

    r = example_tower("five-power-cyclotomic", depth=2)
    tree = grow_tree(r, 2, 2)
    out = unbounded_denominator_probe(tree, 5, v_rhs_base=-5, c_residue=FiniteField(2).element(1))
    assert out["level"] == 0


def test_probe_bounded_prime_reports_persistence():
    from normforge.towers import Step, TowerRecipe, grow_tree

    const = TowerRecipe("const", [Step.radical(2, Fraction(17))] * 2)
    tree = grow_tree(const, 2, 2)
    # q = 3, v stays -1, residue fixed non-cube... F_2 has trivial units: group
    # 2^f - 1 = 1: all cubes: no obstruction mechanism; use v_rhs = -1, q = 2
    out = unbounded_denominator_probe(tree, 2, v_rhs_base=-1, c_residue=FiniteField(2).element(1))
    assert out["level"] == 0 or out["level"] is None
