"""descent: the compiler.

Each round compiles all six definition variants at q = 2 over Q(zeta_3)
(so realize_w runs), exports the q = 2 system to JSON, builds
the square-trick witness, and descends the q = 3 norm system through layer3,
layer2 and layer1, then the cyclotomic layer of the layer2 output.  The full
q = 3 descent (cyclotomic layer of the layer1 output) is left out: it takes
about a minute and 3 GB.

Descent outputs are checked by reassembly mod a prime: at a random point
where the layer relation Gamma^q = num/den has a root Gamma,
sum_k E_k Gamma^k / mult_k equals the parent equation times den^(recorded
power).  For q = 3 a prime p = 2 mod 3 gives every residue a cube root; the
cyclotomic layer uses a prime p = 1 mod 3, where Phi_3 has roots.
"""

import json
import re
import statistics
from fractions import Fraction

import oracles
from workloads import Op, State, rng_for

IN_PROCESS = True
# one fixed field, so the cost of realize_w does not depend on the seed
FIELD = [1, 1, 1]  # Q(zeta3)
LAYERS = ("layer3", "layer2", "layer1", "xi")
_ORIGIN = re.compile(r": eq (\d+) Gamma\^(\d+)(?: \(den\^(\d+), x(\d+)\))?$")


def _prime(start, residue):
    p = start
    while not (p % 3 == residue and oracles.is_prime(p)):
        p += 1
    return p


P_CUBE = _prime(10 ** 9, 2)  # every residue has a unique cube root
P_XI = _prime(10 ** 9, 1)  # Phi_3 has roots


def inputs(seed):
    return rng_for("descent", seed)


def build(rng):
    from normforge import compiler
    from normforge.multipoly import MultiPoly
    from normforge.numberfield import NumberField

    st = State()
    st.compiler, st.MultiPoly = compiler, MultiPoly
    st.field = NumberField(FIELD)
    while True:
        x, w, b = (Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(3))
        if b * x * x + b * b not in (0, 1):
            break
    st.witness = (x, w, b)
    # the q = 3 norm system over (U1, U2, U3, C, X, B), with Z = B X^3 + B^3
    q = 3
    names = [f"U{i}" for i in range(1, q + 1)]
    N, sys0 = compiler.coordinate_norm_poly(
        q, compiler.PolynomialSystem(names + ["C", "Z", "X", "B"],
                                     {u: "norm-layer" for u in names}))
    rhs = sys0.var("B") * sys0.var("X", q) + sys0.var("B", q)
    base = compiler.PolynomialSystem(names + ["C", "X", "B"], {u: "norm-layer" for u in names})
    keep = [base.index(v) if v != "Z" else 0 for v in sys0.variables]
    base.add_equation((N + sys0.var("Z") - rhs).extended(base.n, keep),
                      origin="norm polynomial with Z = B X^3 + B^3")
    st.base, st.u_names = base, names
    st.out = {}
    st.layer_stats = {}
    st.points = {layer: rng.getrandbits(64) for layer in LAYERS}
    return st


def _relations(st, layer, s):
    """(layer variables, num, den, deg, name) of one q = 3 layer over s."""
    MP, q = st.MultiPoly, 3
    one = MP.const(s.n, 1)
    X, C, B = s.var("X"), s.var("C"), s.var("B")
    if layer == "layer3":
        return st.u_names, C * C + C * X + one, C * X, q, "layer3 (c + 1/c)/x"
    prev = {"layer2": "layer3 (c + 1/c)/x", "layer1": "layer2 1/(b x^q + b^q)"}[layer]
    lvars = [v for v in s.variables if s.provenance[v] == prev]
    if layer == "layer2":
        r = B * s.var("X", q) + s.var("B", q)
        return lvars, r + one, r, q, "layer2 1/(b x^q + b^q)"
    return lvars, X + one, X, q, "layer1 1/x"


def _descend(st, layer):
    parent = {"layer3": st.base, "layer2": st.out.get("layer3"),
              "layer1": st.out.get("layer2")}[layer]
    lvars, num, den, deg, name = _relations(st, layer, parent)
    child = st.compiler.descend_layer(parent, lvars, num, den, deg, name)
    st.out[layer] = child
    return parent, lvars, num, den, child


def _descend_xi(st):
    parent = st.out["layer2"]
    lvars = [v for v in parent.variables if parent.provenance[v] == "layer2 1/(b x^q + b^q)"]
    return parent, lvars, None, None, st.compiler.descend_cyclotomic(parent, lvars, 3)


def _check_descent(st, layer, r):
    """Equation counts grow by deg; every parent equation reassembles."""
    parent, lvars, num, den, child = r
    xi = num is None
    deg = 2 if xi else 3
    p = P_XI if xi else P_CUBE
    assert len(child.equations) == deg * len(parent.equations), "equations do not grow by deg"
    kept = [v for v in parent.variables if v not in lvars]
    assert child.variables == kept + [f"{v},{j}" for v in lvars for j in range(deg)], "variables"
    rng = rng_for(f"descent-point-{layer}", st.points[layer])
    while True:
        cvals = {v: rng.randrange(1, p) for v in child.variables}
        pvals = [cvals.get(v, 0) for v in parent.variables]
        if xi:
            g = rng.randrange(2, p)
            gamma, d = pow(g, (p - 1) // 3, p), 1
            if gamma == 1:
                continue
        else:
            d = oracles.eval_terms_mod(den.terms, pvals, p)
            if d == 0:
                continue
            ratio = oracles.eval_terms_mod(num.terms, pvals, p) * pow(d, -1, p) % p
            gamma = pow(ratio, (2 * p - 1) // 3, p)
            assert pow(gamma, 3, p) == ratio
        break
    for v in lvars:
        pvals[parent.variables.index(v)] = sum(cvals[f"{v},{j}"] * pow(gamma, j, p)
                                               for j in range(deg)) % p
    cvec = [cvals[v] for v in child.variables]
    origins = [t["origin"] for t in child.trace if t["kind"] == "equation"][-len(child.equations):]
    sums = [0] * len(parent.equations)
    dpow = [0] * len(parent.equations)
    for eq, origin in zip(child.equations, origins):
        m = _ORIGIN.search(origin)
        assert m, f"unparsed origin {origin!r}"
        i, k = int(m.group(1)), int(m.group(2))
        dpow[i] = int(m.group(3) or 0)
        mult = int(m.group(4) or 1)
        value = oracles.eval_terms_mod(eq.terms, cvec, p)
        sums[i] = (sums[i] + value * pow(mult, -1, p) * pow(gamma, k, p)) % p
    for i, eq in enumerate(parent.equations):
        want = oracles.eval_terms_mod(eq.terms, pvals, p) * pow(d, dpow[i], p) % p
        assert sums[i] == want, f"equation {i} does not reassemble"
    st.layer_stats[layer] = (child.n, len(child.equations),
                             sum(len(e.terms) for e in child.equations))


def _check_compile(field, variant, ast):
    sysm = ast.system
    assert len(sysm.equations) == 8 and sysm.n == 19, "q = 2 system shape"
    if variant.startswith("diffversion"):
        w = next(a["w"] for a in ast.predicate_atoms if "w" in a)
        n = field.degree
        v2 = oracles.vp(oracles.norm(field.poly.int_coeffs(), [Fraction(c) for c in w]), 2)
        assert v2 == 3 * n, "w does not have order 3 v(2) at every prime over 2"


def _check_export(st, text):
    system = json.loads(text)["system"]
    x, w, b = st.witness
    assignment = oracles.square_trick_assignment(system["variables"], x, w, b)
    eqs, ineqs = oracles.eval_json_system(system, assignment)
    assert all(v == 0 for v in eqs), "the square-trick witness does not solve the system"
    assert all(v != 0 for v in ineqs), "a cleared denominator vanishes at the witness"


def _check_witness(st, r):
    system, assignment = r
    x, w, b = st.witness
    want = oracles.square_trick_assignment(system.variables, x, w, b)
    assert {k: Fraction(v) for k, v in assignment.items()} == want, "witness coordinates"


def ops(st):
    compiler = st.compiler
    out = []
    for variant in compiler.VARIANTS:
        out.append(Op("compile",
                      lambda v=variant: compiler.compile_definition(v, 2, field=st.field),
                      lambda r, v=variant: _check_compile(st.field, v, r),
                      f"{variant} q=2 field={FIELD}"))
    out.append(Op("export", lambda: json.dumps(
        compiler.compile_definition("eqC", 2).to_json(), sort_keys=True),
        lambda r: _check_export(st, r), "eqC q=2"))
    out.append(Op("witness", lambda: compiler.square_trick_witness(2, *st.witness),
                  lambda r: _check_witness(st, r), f"x, w, b = {st.witness}"))
    for layer in LAYERS[:3]:
        out.append(Op(layer, lambda la=layer: _descend(st, la),
                      lambda r, la=layer: _check_descent(st, la, r), f"q=3 {layer}"))
    out.append(Op("xi", lambda: _descend_xi(st), lambda r: _check_xi(st, r),
                  "q=3 cyclotomic layer of the layer2 output"))
    return out


def _check_xi(st, r):
    _check_descent(st, "xi", r)
    st.out.clear()  # drop the round's systems before the next round


def layer_extras(st, lats):
    out = {}
    for layer in LAYERS:
        times = [dt for label, dt in lats if label == layer]
        n, eqs, terms = st.layer_stats.get(layer, (0, 0, 0))
        out.update({f"compiler.{layer}_s": statistics.median(times) if times else 0.0,
                    f"compiler.{layer}_variables_out": n,
                    f"compiler.{layer}_equations_out": eqs,
                    f"compiler.{layer}_terms_out": terms})
    return out
