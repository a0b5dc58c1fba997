"""Exact-kernel tests: mod-p factorization, Hensel lifting, residues, roots.

Brute-force oracles live here, independent of the code paths they check:
exhaustive divisor enumeration for small p, full q-th power enumeration in
small residue fields, and numpy's numeric roots for Sturm counts.
"""

import itertools
import random
from fractions import Fraction

import pytest

from normforge.errors import NormforgeError, NotSquarefreeAtP, ZeroResidue
from normforge.finitefield import FiniteField, power_residue_test, power_test_in_extension
from normforge.hensel import hensel_lift_factorization, lift_blocks
from normforge.modp import (
    distinct_degree,
    factor_poly_mod_p,
    is_irreducible_mod_p,
    padd,
    pdivmod,
    pderiv,
    pgcd,
    pmod,
    pmul,
    pnormalize,
    ppow_mod,
    psub,
)
from normforge.polyq import (
    UniPoly,
    cyclotomic_poly,
    real_root_isolate,
    refine_root,
    resultant,
    sign_at_root,
)


def monic_polys(degree, p):
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def brute_force_factor(f, p):
    """Exhaustive trial division; only feasible for small p and degree."""
    f = pnormalize(list(f), p)
    inv = pow(f[-1], -1, p)
    f = [c * inv % p for c in f]
    out = []
    d = 1
    while len(f) - 1 >= 1:
        found = False
        for cand in monic_polys(d, p):
            q, r = pdivmod(f, cand, p)
            if not r and len(cand) - 1 >= 1:
                # smallest-degree divisor found first is irreducible
                mult = 0
                while True:
                    q2, r2 = pdivmod(f, cand, p)
                    if r2:
                        break
                    f = q2
                    mult += 1
                out.append((cand, mult))
                found = True
                break
        if found:
            continue
        d += 1
        if d > len(f) - 1:
            break
    if len(f) > 1:
        out.append((f, 1))
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def test_factor_worked_examples():
    # x^2 + x + 1 mod 7 = (x - 2)(x - 4): 2^2+2+1 = 7 = 0, 4^2+4+1 = 21 = 0 mod 7
    assert (2 * 2 + 2 + 1) % 7 == 0 and (4 * 4 + 4 + 1) % 7 == 0
    facs = factor_poly_mod_p([1, 1, 1], 7)
    assert facs == [([3, 1], 1), ([5, 1], 1)]  # x + 3 = x - 4, x + 5 = x - 2
    assert factor_poly_mod_p([1, 1, 1], 2) == [([1, 1, 1], 1)]
    # x^3 + x^2 - 2x - 1 mod 3: no roots at 0, 1, 2
    f = [-1, -2, 1, 1]
    assert all((x ** 3 + x ** 2 - 2 * x - 1) % 3 != 0 for x in range(3))
    assert factor_poly_mod_p(f, 3) == [([2, 1, 1, 1], 1)]


def test_factor_rejects_non_prime():
    with pytest.raises(NormforgeError):
        factor_poly_mod_p([1, 1, 1], 6)


def test_factor_roundtrip_random():
    rng = random.Random(20240817)
    primes = [2, 3, 5, 7, 11, 13, 31, 97]
    for trial in range(200):
        p = rng.choice(primes)
        deg = rng.randint(1, 10)
        f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        facs = factor_poly_mod_p(f, p)
        prod = [f[-1]]
        for g, mult in facs:
            for _ in range(mult):
                prod = pmul(prod, g, p)
        assert prod == pnormalize(list(f), p)
        for g, _ in facs:
            assert g[-1] == 1
            assert is_irreducible_mod_p(g, p)


def test_factor_agrees_with_exhaustive_small():
    rng = random.Random(7)
    for trial in range(40):
        p = rng.choice([2, 3, 5])
        deg = rng.randint(2, 5)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        mine = factor_poly_mod_p(f, p)
        brute = brute_force_factor(f, p)
        assert mine == brute


def test_hensel_worked_examples():
    # (x - 18)(x - 30) mod 49: 18 = -31, 30 = -19; 18^2+18+1 = 343 = 7^3
    assert (18 * 18 + 18 + 1) % 49 == 0
    lifted = hensel_lift_factorization([1, 1, 1], 7, 2)
    assert sorted(lifted) == [[19, 1], [31, 1]]
    # x^2 - 2 mod 49: 10^2 = 100 = 2 + 2*49
    assert (10 * 10 - 2) % 49 == 0
    lifted = hensel_lift_factorization([-2, 0, 1], 7, 2)
    assert sorted(lifted) == [[10, 1], [39, 1]]
    # linear polynomial lifts to itself
    assert hensel_lift_factorization([3, 1], 5, 3) == [[3, 1]]


def test_hensel_not_squarefree():
    with pytest.raises(NotSquarefreeAtP):
        hensel_lift_factorization([1, 2, 1], 2, 3)  # (x+1)^2 mod 2


def test_hensel_consistency_relift():
    rng = random.Random(99)
    for _ in range(25):
        p = rng.choice([3, 5, 7, 11])
        deg = rng.randint(2, 6)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        from normforge.modp import pderiv, pgcd

        fp = pnormalize(list(f), p)
        if len(fp) != deg + 1 or len(pgcd(fp, pderiv(fp, p), p)) != 1:
            continue
        low = hensel_lift_factorization(f, p, 2)
        high = hensel_lift_factorization(f, p, 4)
        assert sorted([c % p ** 2 for c in g] for g in high) == sorted(low)
        prod = [1]
        q = p ** 4
        for g in high:
            prod = [c % q for c in _mul_int(prod, g)]
        assert prod == [c % q for c in f]


def _mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_block_lift_with_ramification():
    # x^2 + x + 1 = (x - 1)^2 mod 3; the single block is the whole polynomial
    blocks = lift_blocks([1, 1, 1], [[1, 1, 1]], 3, 4)
    assert blocks == [[1, 1, 1]]
    # genuine two-block lift with a squared factor block: f = (x^2+1)(x+1)^2 mod 3
    f = _mul_int(_mul_int([1, 0, 1], [1, 1]), [1, 1])
    blocks = lift_blocks([c % 81 for c in f], [[1, 0, 1], [1, 2, 1]], 3, 4)
    prod = _mul_int(blocks[0], blocks[1])
    assert [c % 81 for c in prod] == [c % 81 for c in f]


def test_lift_blocks_rejects_blocks_sharing_a_factor():
    # blocks 2 and 3 share x + 2 mod 5; block 1 is coprime to both, so only
    # the split of the remaining two blocks can notice
    blocks = [[1, 1], _mul_int([2, 1], [3, 1]), _mul_int([2, 1], [4, 1])]
    f = _mul_int(_mul_int(blocks[0], blocks[1]), blocks[2])
    with pytest.raises(NotSquarefreeAtP):
        lift_blocks(f, blocks, 5, 3)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 13])
def test_lift_blocks_at_any_precision(m):
    """Lifted blocks are monic, reduce to the given blocks mod p, and multiply
    to f mod p^m, whether or not m is a power of two."""
    rng = random.Random(m)
    checked = 0
    while checked < 20:
        p = rng.choice([2, 3, 5, 7, 13])
        f = [rng.randint(-50, 50) for _ in range(rng.randint(2, 8))] + [1]
        blocks = []
        for g, e in factor_poly_mod_p(f, p):
            block = [1]
            for _ in range(e):
                block = pmul(block, g, p)
            blocks.append(block)
        if len(blocks) < 2:
            continue
        q = p ** m
        lifted = lift_blocks(f, blocks, p, m)
        assert len(lifted) == len(blocks)
        prod = [1]
        for block, lift in zip(blocks, lifted):
            assert len(lift) == len(block) and lift[-1] == 1
            assert all(0 <= c < q for c in lift)
            assert pnormalize(lift, p) == block
            prod = _mul_int(prod, lift)
        assert [c % q for c in prod] == [c % q for c in f]
        checked += 1


@pytest.mark.parametrize("m", [3 ** 5, 7 ** 3])
def test_kernel_composite_modulus_matches_integer_reference(m):
    """add, sub and mul mod any m, and division by a divisor whose leading
    coefficient is a unit mod m, agree with integer arithmetic reduced mod m."""

    def reduced(a):
        out = [c % m for c in a]
        while out and out[-1] == 0:
            out.pop()
        return out

    def zip_with(op, a, b):
        n = max(len(a), len(b))
        a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
        return [op(x, y) for x, y in zip(a, b)]

    rng = random.Random(m)
    for _ in range(60):
        a = [rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 9))]
        b = [rng.randrange(-m, 2 * m) for _ in range(rng.randint(0, 5))]
        b.append(rng.choice([1, 2, m - 1, m + 1]))  # a unit leading coefficient
        assert padd(a, b, m) == reduced(zip_with(int.__add__, a, b))
        assert psub(a, b, m) == reduced(zip_with(int.__sub__, a, b))
        assert pmul(a, b, m) == (reduced(_mul_int(a, b)) if a else [])
        quo, rem = pdivmod(a, b, m)
        assert len(rem) < len(b)
        assert all(0 <= c < m for c in quo + rem)
        assert quo == reduced(quo) and rem == reduced(rem)
        back = zip_with(int.__add__, _mul_int(quo, b) if quo else [], rem)
        assert reduced(zip_with(int.__sub__, back, a)) == []


def _ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_divmod(a, b, m):
    """Schoolbook division that reduces every coefficient at every step."""
    a = _ref_trim([c % m for c in a])
    inv = pow(b[-1], -1, m)
    q = [0] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        coef = a[-1] * inv % m
        shift = len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - coef * c) % m
        a.pop()
        _ref_trim(a)
    return _ref_trim(q), a


def _ref_mod(a, b, m):
    return _ref_divmod(a, b, m)[1]


def _ref_mul(a, b, m):
    return _ref_trim([c % m for c in _mul_int(a, b)]) if a and b else []


def _ref_gcd(a, b, p):
    while b:
        a, b = b, _ref_mod(a, b, p)
    return [c * pow(a[-1], -1, p) % p for c in a] if a else []


def _ref_powmod(base, e, mod, p):
    result = [1]
    base = _ref_mod(base, mod, p)
    while e:
        if e & 1:
            result = _ref_mod(_ref_mul(result, base, p), mod, p)
        base = _ref_mod(_ref_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _ref_distinct_degree(f, p):
    """Distinct-degree factorization that powers h to h^p mod f each step."""
    out, x, h, d = [], [0, 1], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ref_powmod(h, p, f, p)
        g = _ref_gcd(psub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _ref_divmod(f, g, p)[0]
            h = _ref_mod(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _ref_rabin(f, p):
    f = _ref_trim([c % p for c in f])
    if len(f) < 2:
        return False
    f = [c * pow(f[-1], -1, p) % p for c in f]
    n = len(f) - 1
    if n == 1:
        return True
    for r in (r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))):
        if len(_ref_gcd(psub(_ref_powmod([0, 1], p ** (n // r), f, p), [0, 1], p), f, p)) != 1:
            return False
    return psub(_ref_powmod([0, 1], p ** n, f, p), [0, 1], p) == []


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


@pytest.mark.parametrize("p", [2, 3, 5, 29, 101, 10007])
def test_kernel_matches_per_step_reference(p):
    """Division, remainder, gcd, powering, distinct-degree splitting and
    Rabin's test agree with per-step-reduced references on unreduced and
    negative inputs, short dividends, constant divisors and, for division,
    the modulus p^k with a monic divisor."""
    rng = random.Random(p)

    def poly(deg, lead=None):
        coeffs = [rng.randint(-3 * p, 3 * p) for _ in range(deg)]
        return coeffs + [rng.randint(-3 * p, 3 * p) if lead is None else lead]

    squarefree = irreducible = 0
    for _ in range(40):
        deg = rng.randint(1, 12)
        lead = rng.choice([1, -1, p + 1, 2 * p - 1, p])  # p: not a unit, division raises
        b = poly(rng.choice([0, rng.randint(1, deg)]), lead=lead)
        for a in (poly(deg), poly(rng.randint(0, len(b) - 1)), []):
            assert _outcome(pdivmod, a, b, p) == _outcome(_ref_divmod, a, b, p)
            assert _outcome(pmod, a, b, p) == _outcome(_ref_mod, a, b, p)
            assert _outcome(pgcd, a, b, p) == _outcome(_ref_gcd, a, b, p)
            q = p ** rng.randint(2, 4)
            monic = b[:-1] + [1]
            assert _outcome(pmod, a, [], q) == ZeroDivisionError
            assert pdivmod(a, monic, q) == _ref_divmod(a, monic, q)
            assert pmod(a, monic, q) == _ref_mod(a, monic, q)
        base, e = poly(deg), rng.choice([0, 1, 2, p - 1, p, rng.randrange(p ** 3)])
        assert _outcome(ppow_mod, base, e, b, p) == _outcome(_ref_powmod, base, e, b, p)
        f = poly(deg, lead=rng.choice([1, p + 1, -1, 2]))
        verdict = is_irreducible_mod_p(f, p)
        assert verdict == _ref_rabin(f, p)
        irreducible += verdict
        monic = pnormalize(f[:-1], p) + [1]
        if len(pgcd(monic, pderiv(monic, p), p)) == 1:
            assert distinct_degree(monic, p) == _ref_distinct_degree(monic, p)
            squarefree += 1
    assert squarefree >= 10 and irreducible >= 5


def test_power_residue_worked_examples():
    F7 = FiniteField(7)
    cubes = sorted({pow(a, 3, 7) for a in range(1, 7)})
    assert cubes == [1, 6]
    assert not power_residue_test(3, F7, 3)
    assert power_residue_test(6, F7, 3)
    # q does not divide p^f - 1: every unit is a q-th power
    F5 = FiniteField(5)
    assert all(power_residue_test(a, F5, 3) for a in range(1, 5))
    with pytest.raises(ZeroResidue):
        power_residue_test(0, F7, 3)


def test_power_residue_brute_force_agreement():
    rng = random.Random(5)
    cases = [(3, [0, 1]), (5, [0, 1]), (7, [0, 1]), (11, [0, 1]), (13, [0, 1]),
             (3, [1, 0, 1]), (5, [2, 1, 1]), (7, [1, 1, 1]), (3, [1, 2, 0, 1])]
    for p, mod in cases:
        if len(mod) == 2:
            field = FiniteField(p)
        else:
            if not is_irreducible_mod_p(mod, p):
                continue
            field = FiniteField(p, mod)
        if field.order > 10 ** 4:
            continue
        for q in (2, 3, 5):
            powers = {tuple((a ** q).coeffs) for a in field.elements() if not a.is_zero()}
            for a in field.elements():
                if a.is_zero():
                    continue
                assert power_residue_test(a, field, q) == (tuple(a.coeffs) in powers)


def test_power_test_in_extension_matches_direct():
    # element of F_4 tested inside F_16 and F_64 without building them
    F4 = FiniteField(2, [1, 1, 1])
    gen = F4.element([0, 1])
    # cubes in F_4*: the group has order 3, so the cube map lands on 1 only
    assert not power_test_in_extension(gen, 3, 2)
    assert power_test_in_extension(F4.one(), 3, 2)
    # in F_16 = F_2^4: 3 | 15, gen has order 3, gen^(15/3) = gen^5 = gen^2 != 1
    assert not power_test_in_extension(gen, 3, 4)
    # in F_64: (2^6 - 1)/3 = 21, gen^21 = (gen^3)^7 = 1
    assert power_test_in_extension(gen, 3, 6)


def test_real_root_isolation_worked_examples():
    two = real_root_isolate(UniPoly([-2, 0, 1]))
    assert len(two) == 2
    assert two[0].hi < 0 < two[1].lo
    assert real_root_isolate(UniPoly([1, 0, 1])) == []
    cubic = real_root_isolate(UniPoly([-1, -2, 1, 1]))
    assert len(cubic) == 3  # 2 cos(2 pi k / 7), all real


def test_isolation_intervals_disjoint_and_complete():
    rng = random.Random(13)
    import numpy as np

    checked = 0
    while checked < 100:
        deg = rng.randint(2, 6)
        f = UniPoly([rng.randint(-20, 20) for _ in range(deg)] + [rng.randint(1, 20)])
        from normforge.polyq import poly_gcd

        if f.degree != deg:
            continue
        g = poly_gcd(f, f.derivative())
        if g.degree and g.degree > 0:
            continue
        roots = np.roots(list(reversed([float(c) for c in f.coeffs])))
        real = [r.real for r in roots if abs(r.imag) < 1e-6]
        if len(real) > 1 and min(
            abs(a - b) for i, a in enumerate(real) for b in real[:i]
        ) < 1e-4 if len(real) > 1 else False:
            continue
        ivs = real_root_isolate(f)
        assert len(ivs) == len(real)
        for a, b in zip(ivs, ivs[1:]):
            assert a.hi < b.lo
        checked += 1


def test_isolation_degree_one_and_rational_roots():
    assert len(real_root_isolate(UniPoly([-3, 1]))) == 1
    ivs = real_root_isolate(UniPoly([0, 1]))  # root exactly 0
    assert len(ivs) == 1 and 0 in ivs[0]
    # clustered rational roots: x(x - 1/64)(x + 1/64)
    f = UniPoly([0, 1]) * UniPoly([Fraction(-1, 64), 1]) * UniPoly([Fraction(1, 64), 1])
    ivs = real_root_isolate(f)
    assert len(ivs) == 3


def test_sign_at_root():
    f = UniPoly([-2, 0, 1])
    neg, pos = real_root_isolate(f)
    x = UniPoly([0, 1])
    assert sign_at_root(x, f, neg) == -1
    assert sign_at_root(x, f, pos) == 1
    assert sign_at_root(UniPoly([3, 1]), f, neg) == 1  # 3 - sqrt(2) > 0


def test_refine_root_width():
    f = UniPoly([-2, 0, 1])
    iv = real_root_isolate(f)[1]
    fine = refine_root(f, iv, Fraction(1, 10 ** 6))
    assert fine.width <= Fraction(1, 10 ** 6)
    assert Fraction(1414213, 10 ** 6) in fine or fine.lo <= Fraction(1414214, 10 ** 6) <= fine.hi


def test_poly_json_round_trip():
    f = UniPoly([Fraction(1, 2), 0, 3])
    assert UniPoly.from_json(f.to_json()) == f
    assert f.to_json() == ["1/2", "0", "3"]


from hypothesis import given, settings
from hypothesis import strategies as st

small_poly = st.lists(st.integers(-6, 6), min_size=2, max_size=5).map(UniPoly)


@settings(max_examples=50, deadline=None)
@given(small_poly, small_poly, small_poly)
def test_resultant_multiplicative_in_second_argument(f, g, h):
    if f.is_zero() or g.is_zero() or h.is_zero() or f.degree == 0:
        return
    assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)


def test_cyclotomic_and_resultant():
    assert cyclotomic_poly(3) == UniPoly([1, 1, 1])
    assert cyclotomic_poly(12) == UniPoly([1, 0, -1, 0, 1])
    # Res(x^2+x+1, x^2-2) = product of (r^2 - 2) over roots r of x^2+x+1
    # = N(zeta^2 - 2) = (zeta^2-2)(zeta^{-2} ... ) = 4 + 2 + 1 = 7
    assert resultant(UniPoly([1, 1, 1]), UniPoly([-2, 0, 1])) == 7
