"""Coordinate norm polynomials, layer descent, and witness machinery."""

import cmath
import hashlib
import json
import random
import re
from fractions import Fraction

import pytest

from normforge.compiler import (
    PolynomialSystem,
    build_descended_system,
    check_side_conditions,
    compile_definition,
    coordinate_norm_poly,
    descend_cyclotomic,
    descend_layer,
    square_trick_witness,
    verify_witness,
)
from normforge.errors import IncompleteAssignment, NormforgeError
from normforge.multipoly import MultiPoly
from normforge.polyq import UniPoly


def test_norm_poly_q2_exact():
    N, sys2 = coordinate_norm_poly(2)
    expected = (
        sys2.var("U1") * sys2.var("U1")
        - sys2.var("C") * sys2.var("U2") * sys2.var("U2")
        - sys2.var("Z")
    )
    assert N == expected


def test_norm_poly_q3_exact():
    N, s = coordinate_norm_poly(3)
    U1, U2, U3, C, Z = (s.var(v) for v in ("U1", "U2", "U3", "C", "Z"))
    expected = U1 ** 3 + C * U2 ** 3 + C * C * U3 ** 3 - 3 * C * U1 * U2 * U3 - Z
    assert N == expected


def test_norm_of_one_is_one():
    for q in (2, 3, 5):
        N, s = coordinate_norm_poly(q)
        values = {f"U{i}": 0 for i in range(2, q + 1)}
        values.update({"U1": 1, "C": Fraction(7), "Z": 1})
        assert N.evaluate([Fraction(values[v]) for v in s.variables]) == 0


@pytest.mark.parametrize("q", [2, 3, 5])
def test_norm_poly_matches_product_formula_numerically(q):
    N, s = coordinate_norm_poly(q)
    rng = random.Random(q * 101)
    xi = cmath.exp(2j * cmath.pi / q)
    for _ in range(50):
        u = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(q)]
        c = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        croot = c ** (1.0 / q)
        prod = 1
        for j in range(q):
            prod *= sum(u[i] * xi ** (i * j) * croot ** i for i in range(q))
        got = N.evaluate(u + [c, z])
        want = prod - z
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def _assemble(child, layer_name, gamma, assignment, parent_vars):
    """Collapse child-layer coordinates into parent values via gamma powers."""
    out = {}
    for v in parent_vars:
        coords = [c for c in child.variables if c.startswith(v + ",")]
        if coords:
            out[v] = sum(assignment[c] * gamma ** j for j, c in enumerate(sorted(coords, key=lambda s: int(s.rsplit(",", 1)[1]))))
        else:
            out[v] = assignment[v]
    return out


@pytest.mark.parametrize("q", [2, 3])
def test_descent_witness_preservation_both_directions(q):
    """Parent solvable at a point <-> child solvable with Gamma a q-th root of g."""
    N, s = coordinate_norm_poly(q)
    s.add_equation(N, origin="norm")
    # simple rational relation Gamma^q = 5
    child = descend_layer(s, [f"U{i}" for i in range(1, q + 1)],
                          MultiPoly.const(s.n, 5), MultiPoly.const(s.n, 1), q, "L")
    rng = random.Random(40 + q)
    gamma = 5 ** (1.0 / q)
    for trial in range(20):
        # direction 1: a parent witness with all deeper coordinates zero
        u = [rng.uniform(-2, 2) for _ in range(q)]
        c = rng.uniform(0.5, 2.0)
        xi = cmath.exp(2j * cmath.pi / q)
        croot = c ** (1.0 / q)
        z = 1
        for j in range(q):
            z *= sum(u[i] * xi ** (i * j) * croot ** i for i in range(q))
        z = z.real if isinstance(z, complex) else z
        assign = {}
        for i in range(1, q + 1):
            for jj in range(q):
                assign[f"U{i},{jj}"] = u[i - 1] if jj == 0 else 0.0
        assign["C"] = c
        assign["Z"] = z
        vals = [assign[v] for v in child.variables]
        for eq in child.equations:
            assert abs(eq.evaluate(vals)) < 1e-6
        # direction 2: a child point with nonzero gamma coordinates lifts to the parent
        assign2 = {f"U{i},{jj}": rng.uniform(-1, 1) for i in range(1, q + 1) for jj in range(q)}
        u_parent = [sum(assign2[f"U{i},{jj}"] * gamma ** jj for jj in range(q))
                    for i in range(1, q + 1)]
        z2 = 1
        for j in range(q):
            z2 *= sum(u_parent[i] * xi ** (i * j) * croot ** i for i in range(q))
        assign2["C"] = c
        assign2["Z"] = z2.real if abs(z2.imag) < 1e-9 else z2
        vals2 = [assign2[v] for v in child.variables]
        reassembled = sum(
            child.equations[k].evaluate(vals2) * gamma ** k for k in range(q)
        )
        # child system evaluated at gamma reproduces the parent equation value 0
        assert abs(reassembled) < 1e-6


def test_build_descended_system_q2_counts():
    s = build_descended_system(2)
    u_vars = [v for v in s.variables if v not in ("C", "X", "B")]
    assert len(u_vars) == 16  # 2 * 2 * 2 * 2, no cyclotomic layer for q = 2
    assert len(s.equations) == 8
    assert s.inequations  # cleared denominators recorded as side conditions


def test_square_trick_witness_exact():
    system, assignment = square_trick_witness(2, 5, 3, 1)
    assert verify_witness(system, assignment)
    assert check_side_conditions(system, assignment)
    # tampering breaks it
    assignment["U1,0,0,0"] += 1
    assert not verify_witness(system, assignment)


def test_verify_witness_requires_complete_assignment():
    system, assignment = square_trick_witness(2, 5, 3, 1)
    del assignment["X"]
    with pytest.raises(IncompleteAssignment):
        verify_witness(system, assignment)


def test_compile_definition_prefix_shape():
    ast = compile_definition("eqC", 2)
    falls, exists = ast.quantifier_counts()
    assert falls == 2  # the form is forall forall exists ... exists
    assert exists >= 16
    assert all(k == "forall" for k, _ in ast.prefix[:2])
    assert all(k == "exists" for k, _ in ast.prefix[2:])
    # q = 2 turns the real-place membership into the four-squares atom
    ast_b = compile_definition("eqB", 2)
    assert any(a["name"] == "four_squares" for a in ast_b.predicate_atoms)


def test_compile_eqA_empty_s_matches_eqB():
    a = compile_definition("eqA", 2, S=())
    assert any("eqB" in note for note in a.notes)


def test_compile_diffversion_symbolic_w():
    ast = compile_definition("diffversion1", 2)
    assert any("symbolic" in n for n in ast.notes)
    assert any(a["name"] == "R_membership" for a in ast.predicate_atoms)


def test_compile_diffversion_realizes_w_over_q():
    from normforge.numberfield import NumberField

    Q = NumberField.rationals()
    ast = compile_definition("diffversion1", 2, field=Q)
    atom = next(a for a in ast.predicate_atoms if a["name"] == "R_membership")
    assert atom["w"] == ["8"]  # v_2(w) = 3 v_2(2) = 3, minimal representative
    assert not any("symbolic" in n for n in ast.notes)
    ast3 = compile_definition("diffversion3", 2, field=Q)
    atom3 = next(a for a in ast3.predicate_atoms if a["name"] == "R_membership"
                 and "w_hat" in a["args"][0])
    assert atom3["w"] == ["8"]  # w-hat has the same shape with empty S


# realized w of diffversion1..3 at q = 2, per (field, primes of S)
DIFFVERSION_W_PINS = {
    ("Q(zeta3)", ()): [["8", "0"]] * 3,
    ("Q(zeta3)", (7,)): [["296", "80"], ["296", "80"], ["8", "0"]],
    ("Q(zeta3)", (5,)): [["280", "0"], ["280", "0"], ["8", "0"]],
    ("Q(i)", ()): [["0", "120"]] * 3,
    ("Q(i)", (7,)): [["3584", "5880"], ["3584", "5880"], ["0", "120"]],
    ("Q(i)", (5, 5)): [["640", "760"], ["640", "760"], ["0", "120"]],
}


def test_compile_diffversion_realizes_w_over_quadratic_fields():
    # strong approximation builds its target mod exactly p^m whatever lift
    # the field holds, so a field warmed to p^64 or p^128 gives the same bytes
    from normforge.numberfield import NumberField, splitting_type, valuation

    for warm in (False, True):
        for name, poly in (("Q(zeta3)", [1, 1, 1]), ("Q(i)", [1, 0, 1])):
            K = NumberField(UniPoly(poly), name=name, check_irreducible=False)
            for p in (2, 5, 7) if warm else ():
                valuation(K, splitting_type(K, p)[0], K.element(p ** 40))
            for S in ((), splitting_type(K, 7)[:1], splitting_type(K, 5)):
                ws = []
                for variant in ("diffversion1", "diffversion2", "diffversion3"):
                    ast = compile_definition(variant, 2, field=K, S=tuple(S))
                    atom, = (a for a in ast.predicate_atoms if "w" in a)
                    ws.append(atom["w"])
                key = (name, tuple(P.p for P in S))
                assert json.dumps(ws, sort_keys=True) == json.dumps(DIFFVERSION_W_PINS[key])


def test_degenerate_layer_rejected():
    from normforge.errors import DegenerateLayer

    N, s = coordinate_norm_poly(2)
    s.add_equation(N, origin="norm")
    with pytest.raises(DegenerateLayer):
        descend_layer(s, ["U1", "U2"], MultiPoly.const(s.n, 1),
                      MultiPoly.const(s.n, 0), 2, "bad")


def test_cyclotomic_layer_needs_prime_q():
    # for q = 4 the table would reduce by 1 + Gamma + Gamma^2 + Gamma^3, not Phi_4
    s = PolynomialSystem(["A", "K"])
    s.add_equation(s.var("A", 3) - s.var("K"))
    for q in (0, 1, 4):
        with pytest.raises(NormforgeError, match="q must be prime"):
            descend_cyclotomic(s, ["A"], q)


def test_system_json_round_trip():
    s = build_descended_system(2)
    data = s.to_json()
    back = PolynomialSystem.from_json(data)
    assert back.variables == s.variables
    assert len(back.equations) == len(s.equations)
    assert all(a == b for a, b in zip(back.equations, s.equations))


def test_multipoly_negative_power_raises():
    with pytest.raises(NormforgeError):
        MultiPoly.var(2, 0) ** -1
    assert MultiPoly.var(2, 0) ** 0 == MultiPoly.const(2, 1)


def test_unipoly_negative_power_raises():
    # -1 >> 1 == -1, so square-and-multiply on k < 0 would never stop
    with pytest.raises(NormforgeError):
        UniPoly([1, 1]) ** -1
    assert UniPoly([1, 1]) ** 0 == UniPoly.one()


def test_multipoly_from_json_accumulates_like_init():
    assert MultiPoly.from_json(2, [["0", [1, 0]]]).is_zero()
    assert MultiPoly.from_json(2, [["1", [1, 0]], ["2", [1, 0]]]) == MultiPoly.var(2, 0, 1, 3)
    assert MultiPoly.from_json(2, [["1/2", [0, 1]], ["-1/2", [0, 1]]]).is_zero()


# word-size primes: every residue mod P_CUBE has one cube root and P_CUBE = 3 mod 4,
# Phi_3 has roots mod P_XI and Phi_5 has roots mod P_QUINTIC
P_CUBE, P_XI, P_QUINTIC = 1000000007, 1000000009, 1000000021
_ORIGIN = re.compile(r": eq (\d+) Gamma\^(\d+)(?: \(den\^(\d+), x(\d+)\))?$")


def _eval_mod(poly, values, p):
    powers = {}
    acc = 0
    for key, c in poly.terms.items():
        for ie in key:
            v = powers.get(ie)
            if v is None:
                v = powers[ie] = pow(values[ie[0]], ie[1], p)
            c = c * v % p
        acc += c
    return acc % p


def _canonical_digest(system):
    text = json.dumps(system.to_json(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_reassembly(parent, child, layer_vars, deg, num, den, seed):
    """sum_k E_k Gamma^k / mult_k == E * den^power mod p at a seeded point.

    num/den is Gamma^deg for a radical layer of degree 1, 2 or 3; num is None for
    the cyclotomic layer Phi_(deg+1)(Gamma) = 0.  Returns the child equations'
    values at the point.
    """
    cyclotomic = num is None
    p = {2: P_XI, 4: P_QUINTIC}[deg] if cyclotomic else P_CUBE
    rng = random.Random(seed)
    while True:
        cvals = {v: rng.randrange(1, p) for v in child.variables}
        pvals = [cvals.get(v, 0) for v in parent.variables]
        if cyclotomic:
            gamma, d = pow(rng.randrange(2, p), (p - 1) // (deg + 1), p), 1
            if gamma == 1:
                continue
        else:
            d = _eval_mod(den, pvals, p)
            if d == 0:
                continue
            ratio = _eval_mod(num, pvals, p) * pow(d, -1, p) % p
            if deg == 1:
                gamma = ratio
            elif deg == 3:
                gamma = pow(ratio, (2 * p - 1) // 3, p)
            elif pow(ratio, (p - 1) // 2, p) != 1:
                continue
            else:
                gamma = pow(ratio, (p + 1) // 4, p)
            assert pow(gamma, deg, p) == ratio
        break
    for v in layer_vars:
        pvals[parent.variables.index(v)] = sum(
            cvals[f"{v},{j}"] * pow(gamma, j, p) for j in range(deg)) % p
    cvec = [cvals[v] for v in child.variables]
    origins = [t["origin"] for t in child.trace if t["kind"] == "equation"]
    origins = origins[-len(child.equations):]
    assert len(child.equations) == deg * len(parent.equations)
    sums = [0] * len(parent.equations)
    powers = [0] * len(parent.equations)
    values = []
    for eq, origin in zip(child.equations, origins):
        i, k, power, mult = _ORIGIN.search(origin).groups()
        i = int(i)
        powers[i] = int(power or 0)
        values.append(_eval_mod(eq, cvec, p))
        sums[i] = (sums[i] + values[-1] * pow(int(mult or 1), -1, p) * pow(gamma, int(k), p)) % p
    for i, eq in enumerate(parent.equations):
        assert sums[i] == _eval_mod(eq, pvals, p) * pow(d, powers[i], p) % p
    return values


def _value_digest(system, values):
    """Pins a system too large to serialise: term counts and values mod p."""
    text = json.dumps([[len(eq.terms), v] for eq, v in zip(system.equations, values)])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_q3_descent_exact_mod_p(monkeypatch):
    """The q = 3 tower down to layer1, and the cyclotomic layer of layer2, checked exactly.

    Layer3 and layer2 have denominators in the kept variables (C X and
    B X^3 + B^3), which the constant-relation tests above never exercise.
    The digests pin the canonical JSON of the outputs; layer1 is pinned by
    its origins, its term counts and its values at the reassembly point.
    """
    assert _canonical_digest(build_descended_system(2)) == "c80f29cb11669134"
    q = 3
    u_names = [f"U{i}" for i in range(1, q + 1)]
    N, sys0 = coordinate_norm_poly(
        q, PolynomialSystem(u_names + ["C", "Z", "X", "B"], {u: "norm-layer" for u in u_names}))
    rhs = sys0.var("B") * sys0.var("X", q) + sys0.var("B", q)
    base = PolynomialSystem(u_names + ["C", "X", "B"], {u: "norm-layer" for u in u_names})
    keep = [base.index(v) if v != "Z" else 0 for v in sys0.variables]
    base.add_equation((N + sys0.var("Z") - rhs).extended(base.n, keep),
                      origin="norm polynomial with Z = B X^q + B^q")

    one = MultiPoly.const(base.n, 1)
    C, X = base.var("C"), base.var("X")
    num3, den3 = C * C + C * X + one, C * X
    layer3 = descend_layer(base, u_names, num3, den3, q, "layer3 (c + 1/c)/x")
    _check_reassembly(base, layer3, u_names, q, num3, den3, seed=31)
    assert _canonical_digest(layer3) == "d0b22a82bef61513"

    vars3 = [v for v in layer3.variables if layer3.provenance[v] == "layer3 (c + 1/c)/x"]
    den2 = layer3.var("B") * layer3.var("X", q) + layer3.var("B", q)
    num2 = den2 + MultiPoly.const(layer3.n, 1)
    layer2 = descend_layer(layer3, vars3, num2, den2, q, "layer2 1/(b x^q + b^q)")
    _check_reassembly(layer3, layer2, vars3, q, num2, den2, seed=32)
    assert _canonical_digest(layer2) == "d4e2e345dec0e2bb"

    vars2 = [v for v in layer2.variables if layer2.provenance[v] == "layer2 1/(b x^q + b^q)"]
    products = []
    product = MultiPoly.__mul__
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or product(a, b))
    xi = descend_cyclotomic(layer2, vars2, q)
    monkeypatch.undo()
    # every cyclotomic base is the constant 1, so the xi descent multiplies nothing
    assert len(products) == 0
    _check_reassembly(layer2, xi, vars2, q - 1, None, None, seed=33)
    assert sum(len(eq.terms) for eq in xi.equations) == 129050
    del xi

    den1 = layer2.var("X")
    num1 = den1 + MultiPoly.const(layer2.n, 1)
    products.clear()
    monkeypatch.setattr(MultiPoly, "__mul__", lambda a, b: products.append(1) or product(a, b))
    layer1 = descend_layer(layer2, vars2, num1, den1, q, "layer1 1/x")
    monkeypatch.undo()
    # scalar * num^t den^(M - t) is formed once per distinct scalar and t of an
    # equation, not once per monomial in the layer variables (7348 products)
    assert len(products) == 1702
    values = _check_reassembly(layer2, layer1, vars2, q, num1, den1, seed=34)
    powers = [2] * 9  # total degree 3 in the layer2 coordinates: 3 - 1
    assert [t["origin"] for t in layer1.trace if t["kind"] == "equation"][-27:] == [
        f"layer1 1/x: eq {i} Gamma^{k} (den^{powers[i]}, x1)" for i in range(9) for k in range(3)]
    assert [t["denominator_power"] for t in layer1.trace
            if t["kind"] == "descent" and t["layer"] == "layer1 1/x"] == powers
    terms = [len(eq.terms) for eq in layer1.equations]
    assert terms == [35267, 28770, 23016, 30576, 25545, 20436, 25872, 21615, 17292,
                     25830, 21525, 17220, 22932, 19110, 15288, 19404, 16170, 12936,
                     18450, 15375, 12300, 16380, 13650, 10920, 13860, 11550, 9240]
    assert sum(terms) == 520529
    assert _value_digest(layer1, values) == "7380fb63ae1515d4"


def _random_poly(rng, n, exponent_bounds, size):
    """size seeded terms, coefficients in [-4, 4] \\ {0}, exponents in bounds."""
    terms = {}
    for _ in range(size):
        key = tuple((i, e) for i, bound in exponent_bounds
                    for e in [rng.randint(0, bound)] if e)
        terms[key] = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
    return MultiPoly(n, terms)


# (seed, degree, relation): radical layers with a polynomial denominator
# ("den"), a denominator of one ("one") or the cyclotomic layer Phi_(degree+1)
# ("phi")
RANDOM_DESCENTS = {
    "D2-den": (101, 2, "den"),
    "D3-den": (102, 3, "den"),
    "D2-one": (103, 2, "one"),
    "D3-one": (104, 3, "one"),
    "phi5": (105, 4, "phi"),
    "phi3": (106, 2, "phi"),
    "D1-den": (110, 1, "den"),
}

# (denominator powers, canonical digest) of each case's output, pinned
RANDOM_DESCENT_PINS = {
    "D2-den": ([4, 2, 2, 0], "6ba448c9be4fb378"),
    "D3-den": ([4, 4, 2, 0], "f7fa737e77614ba2"),
    "D2-one": ([0, 0, 0, 0], "a1a50d56b0addb43"),
    "D3-one": ([0, 0, 0, 0], "0089b441e626d96d"),
    "phi5": ([0, 0, 0, 0], "2396181b1bae0116"),
    "phi3": ([0, 0, 0, 0], "7f5ba7f34b26bebf"),
    "D1-den": ([0, 0, 0, 0], "27df55b055a2d9aa"),
}


def _random_descent(case):
    """(parent, child, check_reassembly arguments) of one seeded case."""
    seed, deg, relation = RANDOM_DESCENTS[case]
    rng = random.Random(seed)
    parent = PolynomialSystem(["A", "K1", "B", "S", "K2"])
    n = parent.n
    bounds = [(0, 3), (1, 2), (2, 2), (3, 2), (4, 1)]
    for i in range(3):
        eq = _random_poly(rng, n, bounds, rng.randint(4, 8))
        if i == 0:
            eq = eq + MultiPoly(n, {((0, 3), (2, 2)): 1})
        parent.add_equation(eq, origin=f"random {i}")
    parent.add_equation(_random_poly(rng, n, [(1, 2), (3, 1)], 3), origin="no layer variable")
    layer_vars = ["B", "A"]
    if relation == "phi":
        num = den = None
        child = descend_cyclotomic(parent, layer_vars, deg + 1)
    else:
        num = _random_poly(rng, n, [(1, 2), (4, 2)], 3)
        den = (_random_poly(rng, n, [(1, 1), (4, 2)], 2) if relation == "den"
               else MultiPoly.const(n, 1))
        child = descend_layer(parent, layer_vars, num, den, deg, "random-layer")
    return parent, child, (layer_vars, deg, num, den, seed)


@pytest.mark.parametrize("case", sorted(RANDOM_DESCENTS))
def test_random_descent_reassembles(case):
    """Seeded systems in the shapes the q = 3 tower never reaches.

    The layer variables A and B carry exponents up to 3 and 2, kept variables
    sit between them in the registry, and the layer lists them in the reverse
    order, so output keys are sorted only if coordinate blocks are put in
    the layer's order.  Each descent reassembles mod p, and its output is
    pinned.
    """
    parent, child, args = _random_descent(case)
    layer_vars, deg = args[:2]
    assert child.variables == ["K1", "S", "K2"] + [f"{v},{j}" for v in layer_vars
                                                   for j in range(deg)]
    # MultiPoly keys are sorted by variable index
    assert all(list(key) == sorted(key) for eq in child.equations for key in eq.terms)
    _check_reassembly(parent, child, *args)
    powers = [t["denominator_power"] for t in child.trace if t["kind"] == "descent"]
    assert (powers, _canonical_digest(child)) == RANDOM_DESCENT_PINS[case]
