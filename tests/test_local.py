"""Local layer rules, norm solvability verdicts, Hilbert symbols."""

import random

import pytest

from normforge.errors import MissingRootOfUnity, MissingTrace, NormforgeError
from normforge.finitefield import FiniteField
from normforge.local import (
    LocalPrime,
    LocalVerdict,
    Tracked,
    archimedean_check,
    hilbert_symbol,
    local_norm_solvable,
    radical_children,
)
from normforge.numberfield import NumberField
from normforge.polyq import UniPoly


def make_lp(p, e=1, f=1):
    return LocalPrime(p, e, f)


def test_rule_ramified():
    # p = 7, v(u) = 1, q = 3: one child with e tripled (total tame ramification)
    lp = make_lp(7)
    lp.track("u", 1, FiniteField(7).element(3))
    kids = radical_children(lp, "u", 3)
    assert len(kids) == 1 and kids[0].e == 3 and kids[0].f == 1
    assert sum(k.e * k.f for k in kids) == 3 * lp.e * lp.f  # e f grows by q


def test_rule_inert():
    # p = 7, v(u) = 0, u = 5 mod 7, q = 3: 5 is not a cube (cubes are 1, 6)
    assert sorted({pow(a, 3, 7) for a in range(1, 7)}) == [1, 6]
    lp = make_lp(7)
    lp.track("u", 0, FiniteField(7).element(5))
    kids = radical_children(lp, "u", 3)
    assert len(kids) == 1 and kids[0].f == 3 and kids[0].e == 1
    assert sum(k.e * k.f for k in kids) == 3 * lp.e * lp.f  # e f grows by q


def test_rule_split():
    lp = make_lp(7)
    lp.track("u", 0, FiniteField(7).element(6))  # 6 = 3^3 mod 7
    kids = radical_children(lp, "u", 3)
    assert len(kids) == 3 and all(k.e == 1 and k.f == 1 for k in kids)
    assert sum(k.e * k.f for k in kids) == 3 * lp.e * lp.f  # e f grows by q


def test_rule_guard_split():
    # p = 2, u = 17, q = 2: v(16) = 4 >= 3 = 3 v_2(2)
    lp = make_lp(2)
    lp.track("u", 0, None)
    lp.track("um1", 4)
    kids = radical_children(lp, "u", 2, u_minus_one_key="um1")
    assert len(kids) == 2 and all(k.e == 1 and k.f == 1 for k in kids)


def test_rule_wild_indeterminate():
    lp = make_lp(3)
    lp.track("u", 0, None)
    lp.track("um1", 1)
    kids = radical_children(lp, "u", 3, u_minus_one_key="um1")
    assert len(kids) == 1 and kids[0].indeterminate


def test_missing_trace():
    lp = make_lp(7)
    with pytest.raises(MissingTrace):
        radical_children(lp, "ghost", 3)


def test_child_tables_stay_separate():
    # an unramified child shares the parent's entries but not its table
    lp = make_lp(7)
    lp.track("u", 1, FiniteField(7).element(3))
    kid = lp.child(f_mult=2)
    kid.track("w", 2)
    lp.track("z", 0)
    assert sorted(lp.tracked) == ["u", "z"] and sorted(kid.tracked) == ["u", "w"]
    assert kid.get("u").v == 1 and kid.get("u").residue == lp.get("u").residue


def test_tame_unramified_node_without_mu_q_raises():
    # 5 does not divide 3 - 1, so mu_5 does not embed in F_3* and cannot lie
    # in the base field that a Kummer layer of degree 5 needs
    lp = make_lp(3)
    lp.track("u", 0, FiniteField(3).element(2))
    with pytest.raises(MissingRootOfUnity, match=r"q = 5 does not divide 3\^1 - 1"):
        radical_children(lp, "u", 5)


def test_norm_solvable_on_an_indeterminate_leaf():
    lp = LocalPrime(3, trace=("wild(r1): no Hensel guard",), indeterminate=True)
    v = local_norm_solvable(lp, "rhs", "c", 3)
    assert v.kind == LocalVerdict.INDETERMINATE
    assert v.reason == "layer chain already indeterminate: wild(r1): no Hensel guard"


def test_norm_solvable_unramified_with_a_stale_c_residue():
    # v(c) == 0 mod q but c's residue went stale: split or inert is unknown,
    # and only v(rhs) == 0 mod q decides, by the unit-norm rule
    for v_rhs, kind in ((3, LocalVerdict.SOLVABLE), (0, LocalVerdict.SOLVABLE),
                        (1, LocalVerdict.INDETERMINATE)):
        lp = make_lp(7)
        lp.tracked["c"] = Tracked(3, FiniteField(7).element(2), fresh=False)
        lp.track("rhs", v_rhs)
        v = local_norm_solvable(lp, "rhs", "c", 3)
        assert v.kind == kind, v_rhs
        assert ("lcft-unit-norm-rule" in v.reason) == (kind == LocalVerdict.SOLVABLE)


def test_norm_solvable_wild_without_hilbert_fallback():
    # p = q = 3 with no guard: wild, and the 2-adic Hilbert symbol does not apply
    lp = make_lp(3)
    lp.track("c", 0, FiniteField(3).element(2))
    lp.track("rhs", 1)
    v = local_norm_solvable(lp, "rhs", "c", 3)
    assert v.kind == LocalVerdict.INDETERMINATE
    assert v.reason == "wild ramification at a factor of q is not modeled"


def test_norm_solvable_inert_parity():
    lp = make_lp(3)
    F3 = FiniteField(3)
    lp.track("c", 0, F3.element(2))  # -1 = 2 is not a square mod 3
    for v_rhs, expected in [(1, LocalVerdict.UNSOLVABLE), (2, LocalVerdict.SOLVABLE),
                            (0, LocalVerdict.SOLVABLE), (-3, LocalVerdict.UNSOLVABLE)]:
        lp.track("rhs", v_rhs, F3.element(1))
        verdict = local_norm_solvable(lp, "rhs", "c", 2)
        assert verdict.kind == expected


def test_norm_solvable_split_any_rhs():
    lp = make_lp(7)
    F7 = FiniteField(7)
    lp.track("c", 0, F7.element(6))  # 6 is a cube mod 7
    lp.track("rhs", 5, F7.element(3))
    assert local_norm_solvable(lp, "rhs", "c", 3).kind == LocalVerdict.SOLVABLE


def test_norm_solvable_depends_on_class_only():
    # perturbing rhs by q-th powers of the uniformizer never changes the verdict
    rng = random.Random(1)
    lp = make_lp(3)
    F3 = FiniteField(3)
    lp.track("c", 0, F3.element(2))
    for _ in range(20):
        v = rng.randint(-6, 6)
        lp.track("rhs", v, F3.element(1))
        base = local_norm_solvable(lp, "rhs", "c", 2).kind
        lp.track("rhs", v + 2 * rng.randint(-3, 3), F3.element(1))
        assert local_norm_solvable(lp, "rhs", "c", 2).kind == base


def test_tame_ramified_norm_rule():
    # layer from c with v(c) = 1 at p = 5, q = 2: N(sqrt(c)) = -c
    lp = make_lp(5)
    F5 = FiniteField(5)
    lp.track("c", 1, F5.element(1))  # c = 5: unit part 1
    # rhs = 5: v = 1: strip one norm factor: unit part 1 / (-1) = -1 = 4: square mod 5
    lp.track("rhs", 1, F5.element(1))
    assert local_norm_solvable(lp, "rhs", "c", 2).kind == LocalVerdict.SOLVABLE
    # rhs = 2 * 5: stripped unit 2/(-1) = -2 = 3: non-square mod 5
    lp.track("rhs", 1, F5.element(2))
    assert local_norm_solvable(lp, "rhs", "c", 2).kind == LocalVerdict.UNSOLVABLE


def test_archimedean_check():
    Q = NumberField.rationals()
    assert archimedean_check(Q, Q.element(17), Q.element(-3), 2).kind == LocalVerdict.SOLVABLE
    assert archimedean_check(Q, Q.element(-1), Q.element(-3), 2).kind == LocalVerdict.UNSOLVABLE
    assert archimedean_check(Q, Q.element(-1), Q.element(-3), 3).kind == LocalVerdict.SOLVABLE
    K3 = NumberField(UniPoly([1, 1, 1]))
    assert archimedean_check(K3, K3.element(-1), K3.element(-3), 2).kind == LocalVerdict.SOLVABLE


def test_hilbert_symbol_values_and_product_formula():
    assert hilbert_symbol(-1, 9, 2) == 1
    assert hilbert_symbol(-1, 3, 2) == -1
    assert hilbert_symbol(-1, -3, "inf") == -1
    rng = random.Random(17)
    for _ in range(60):
        a = rng.choice([-1, 1]) * rng.randint(1, 60)
        b = rng.choice([-1, 1]) * rng.randint(1, 60)
        places = {2, 3, 5, 7, "inf"}
        from normforge.intfunc import factorint

        for n in (abs(a), abs(b)):
            places.update(factorint(n))
        prod = 1
        for v in places:
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1  # the product formula over all ramified places


from hypothesis import given, settings
from hypothesis import strategies as st

nonzero = st.integers(-50, 50).filter(lambda n: n != 0)


@settings(max_examples=60, deadline=None)
@given(nonzero, nonzero, nonzero, st.sampled_from([2, 3, 5, 7, "inf"]))
def test_hilbert_symbol_bilinear(a, a2, b, place):
    lhs = hilbert_symbol(a * a2, b, place)
    rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a2, b, place)
    assert lhs == rhs


def test_verdict_requires_reason():
    with pytest.raises(NormforgeError):
        LocalVerdict(LocalVerdict.UNSOLVABLE, "")
