"""fields: cold-cache number-field work.

Seeded monic irreducible polynomials of degree 2-10 and primes below 200.
Every operation builds a fresh NumberField, so no splitting or block cache
carries over between operations.  The round also builds a fixed list of
Gaussian-period subfields, the slow tail of this workload.
"""

import math
from fractions import Fraction

import oracles
from workloads import Op, State, rng_for

IN_PROCESS = True
DEGREES = range(2, 11)
POLYS_PER_DEGREE = 12
PERIODS = ((13, 6), (31, 5), (37, 4), (41, 8))  # (ell, d)
SMALL_PRIMES = [p for p in range(2, 200) if oracles.is_prime(p)]


def _random_irreducible(rng, deg):
    """Monic, coefficients in [-9, 9], irreducible mod some prime below 50
    (so irreducible over Q, by the oracle's Rabin test)."""
    while True:
        coeffs = [rng.randint(-9, 9) for _ in range(deg)] + [1]
        if coeffs[0] == 0:
            continue
        if any(oracles.rabin_irreducible(coeffs, p) for p in SMALL_PRIMES[:15]):
            return coeffs


def _maximal_primes(f, rng, k):
    """k primes p < 200 with v_p(disc f) <= 1, so Z[theta] is p-maximal;
    at least one of them ramified when f has such a prime."""
    disc = oracles.discriminant(f)
    ok = [p for p in SMALL_PRIMES if oracles.vp(disc, p) <= 1]
    ramified = [p for p in ok if oracles.vp(disc, p) == 1]
    picks = [rng.choice(ramified)] if ramified else []
    rest = [p for p in ok if p not in picks]
    return picks + rng.sample(rest, k - len(picks))


def _element(rng, n, dens):
    """Random nonzero coordinates a / d with d drawn from `dens`."""
    while True:
        coords = [Fraction(rng.randint(-20, 20), rng.choice(dens)) for _ in range(n)]
        if any(coords):
            return coords


def inputs(seed):
    """The seeded inputs as plain numbers (oracle-filtered, not timed)."""
    rng = rng_for("fields", seed)
    cases = []
    for deg in DEGREES:
        for _ in range(POLYS_PER_DEGREE):
            f = _random_irreducible(rng, deg)
            p1, p2 = _maximal_primes(f, rng, 2)
            cases.append({
                "f": f, "p_split": p1, "p_res": p2,
                "alpha_val": _element(rng, deg, [1, p1, p1 * p1]),
                "alpha_res": [rng.randint(-20, 20) for _ in range(deg)],
                "d_res": rng.choice([q for q in (1, 2, 3, 5, 7) if q != p2]),
                "pairs": [(_element(rng, deg, [1, 2, 3, 5]), _element(rng, deg, [1, 2, 3, 5]))
                          for _ in range(2)],
            })
    periods = [(ell, d, rng.sample([p for p in SMALL_PRIMES if p != ell], 2))
               for ell, d in PERIODS]
    return cases, periods


def build(raw):
    from normforge import cyclic, errors, numberfield
    from normforge.polyq import UniPoly

    st = State()
    # modules, not functions: calls resolve at run time, so a traced run sees them
    st.cyclic, st.errors, st.nf = cyclic, errors, numberfield
    st.cases, st.periods = raw
    for case in st.cases:
        case["poly"] = UniPoly(case["f"])
    return st


def _check_split(f, p, primes):
    n = len(f) - 1
    assert sum(P.e * P.f_deg for P in primes) == n, "sum e f != n"
    prod = [1]
    for P in primes:
        g = list(P.g)
        assert P.f_deg == len(g) - 1, "residue degree != deg g"
        assert oracles.rabin_irreducible(g, p), f"{g} reducible mod {p}"
        for _ in range(P.e):
            prod = oracles.pmul(prod, g, p)
    assert prod == oracles.trim(c % p for c in f), "prod g^e != f mod p"


def ops(st):
    nf = st.nf
    NF = nf.NumberField
    out = []
    for case in st.cases:
        f, poly = case["f"], case["poly"]
        p1, p2 = case["p_split"], case["p_res"]

        def op_split(poly=poly, p=p1):
            return nf.splitting_type(NF(poly), p)

        out.append(Op("split", op_split, lambda r, f=f, p=p1: _check_split(f, p, r),
                      f"f={f} p={p1}"))

        def op_val(poly=poly, p=p1, a=case["alpha_val"]):
            K = NF(poly)
            return [(P, nf.valuation(K, P, K.element(a))) for P in nf.splitting_type(K, p)]

        def check_val(r, f=f, p=p1, a=case["alpha_val"]):
            got = sum(P.f_deg * v for P, v in r)
            assert got == oracles.vp(oracles.norm(f, a), p), "sum f_P v_P != v_p(N)"

        out.append(Op("valuation", op_val, check_val, f"f={f} p={p1} alpha={case['alpha_val']}"))

        def op_res(poly=poly, p=p2, A=case["alpha_res"], d=case["d_res"], f=f):
            K = NF(poly)
            alpha = K.element([Fraction(c, d) for c in A])
            return [(P, nf.residue_map(K, P, alpha)) for P in nf.splitting_type(K, p)
                    if oracles.pmod(A, list(P.g), p)]

        def check_res(r, p=p2, A=case["alpha_res"], d=case["d_res"]):
            inv = pow(d, -1, p)
            for P, image in r:
                want = oracles.pmod([c * inv for c in A], list(P.g), p)
                assert tuple(want) == tuple(image.coeffs), f"residue at {P}"

        out.append(Op("residue", op_res, check_res,
                      f"f={f} p={p2} alpha={case['alpha_res']}/{case['d_res']}"))

        for a, b in case["pairs"]:  # two pairs: p50 falls inside the arith cluster
            def op_arith(poly=poly, a=a, b=b):
                K = NF(poly)
                alpha = K.element(a)
                return alpha * K.element(b), alpha.inverse()

            def check_arith(r, f=f, a=a, b=b):
                prod, inv = r
                assert prod.coords == oracles.mulmod(a, b, f), "alpha * beta"
                one = oracles.mulmod(a, inv.coords, f)
                assert one == [1] + [0] * (len(f) - 2), "alpha * alpha^-1 != 1"

            out.append(Op("arith", op_arith, check_arith, f"f={f} alpha={a} beta={b}"))

    for ell, d, primes in st.periods:
        def op_period(ell=ell, d=d, primes=primes):
            data = st.cyclic.gaussian_period_subfield(ell, d)
            K = data.number_field()
            splits = []
            for p in primes:
                try:
                    splits.append((p, nf.splitting_type(K, p)))
                except st.errors.NonMonogenicAtP:
                    splits.append((p, None))
            return data, splits

        def check_period(r, ell=ell, d=d):
            data, splits = r
            f = data.period_poly.int_coeffs()
            assert len(f) - 1 == d and f[-1] == 1, "period polynomial degree"
            disc = oracles.discriminant(f)
            for p, primes in splits:
                if primes is None:
                    assert oracles.vp(disc, p) >= 2, f"Z[eta] is maximal at {p}"
                    continue
                _check_split(f, p, primes)
                # order of p in (Z/ell)^*/H, H the index-d subgroup of d-th powers
                o = oracles.mult_order(p, ell)
                want = o // math.gcd(o, (ell - 1) // d)
                assert all(P.f_deg == want for P in primes), f"residue degree at {p}"

        out.append(Op("period", op_period, check_period, f"ell={ell} d={d} primes={primes}"))
    return out
