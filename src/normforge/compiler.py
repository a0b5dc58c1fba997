"""Compile the quantified definitions into polynomial systems over Z.

The coordinate norm polynomial N(U_1..U_q, C, Z) is the determinant of the
multiplication-by-(sum U_i theta^(i-1)) matrix in Z[C][theta]/(theta^q - C),
minus Z; its coefficients depend on q alone.  Layer descent rewrites each
equation over the field below: every upper variable u becomes
sum_j u_j Gamma^j, powers of Gamma reduce through the layer relation
Gamma^D = num/den (a ratio of polynomials in the lower variables),
denominators are cleared by a recorded power, and the Gamma^0..Gamma^(D-1)
coefficients become D separate equations.  Nothing is simplified beyond
collecting like terms, so each equation's provenance stays one-to-one with
the rewriting.

The rewriting is in closed form.  A monomial prod u_a^(e_a) expands to a
multinomial sum of coordinate monomials, each with a Gamma degree s, and a
fixed table reduces Gamma^s: in a radical layer to Gamma^(s mod D) times
num^t den^(M - t), t = s // D (num^t when den = 1); in the cyclotomic layer
Phi_q(Gamma) = 0 to Gamma^(s mod q), with Gamma^(q-1) = -sum_(g < q-1) Gamma^g.
The recorded power M of an equation is the largest that multiplying each
monomial's Gamma values left to right would clear, one den per product that
reaches Gamma^D: n - 1 for a monomial of total degree n >= 1 in the layer
variables when D >= 2, and 0 otherwise.

compile_definition assembles the full two-universal-quantifier shapes, with
the membership predicates attached as named atoms (the four-squares atom for
the real-place condition is an explicit polynomial).
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, repeat
from math import factorial, prod
from operator import add, mul

from .errors import DegenerateLayer, IncompleteAssignment, NormforgeError, SearchExhausted
from .intfunc import is_prime
from .multipoly import MultiPoly, determinant

VARIANTS = ("eqA", "eqB", "eqC", "diffversion1", "diffversion2", "diffversion3")


class PolynomialSystem:
    """Equations over Z in a named variable registry, with provenance."""

    def __init__(self, variables, provenance=None):
        self.variables = list(variables)  # names
        self.provenance = dict(provenance or {})  # name -> layer tag
        self.equations = []  # MultiPoly
        self.inequations = []  # MultiPoly that must NOT vanish
        self.trace = []  # dicts describing each rewriting step

    @property
    def n(self):
        return len(self.variables)

    def index(self, name):
        return self.variables.index(name)

    def var(self, name, power=1):
        return MultiPoly.var(self.n, self.index(name), power)

    def add_equation(self, poly, origin=""):
        self.equations.append(poly)
        self.trace.append({"kind": "equation", "origin": origin, "index": len(self.equations) - 1})

    def add_inequation(self, poly, origin=""):
        self.inequations.append(poly)
        self.trace.append({"kind": "inequation", "origin": origin})

    def to_json(self):
        return {
            "variables": self.variables,
            "provenance": self.provenance,
            "equations": [eq.to_json() for eq in self.equations],
            "inequations": [eq.to_json() for eq in self.inequations],
            "trace": self.trace,
        }

    @classmethod
    def from_json(cls, data):
        sys = cls(data["variables"], data.get("provenance"))
        n = len(sys.variables)
        for eq in data["equations"]:
            sys.equations.append(MultiPoly.from_json(n, eq))
        for eq in data.get("inequations", []):
            sys.inequations.append(MultiPoly.from_json(n, eq))
        sys.trace = data.get("trace", [])
        return sys


def coordinate_norm_poly(q, system=None):
    """N(U_1..U_q, C, Z) = Res_T(T^q - C, sum U_i T^(i-1)) - Z over Z.

    Returned inside a PolynomialSystem with variables U1..Uq, C, Z unless an
    existing system with those variables is supplied.
    """
    if system is None:
        system = PolynomialSystem([f"U{i}" for i in range(1, q + 1)] + ["C", "Z"],
                                  {f"U{i}": "norm-layer" for i in range(1, q + 1)})
    n = system.n
    C = system.var("C")
    zero = MultiPoly.const(n, 0)
    # multiplication-by-A matrix on the basis theta^0..theta^(q-1)
    mat = [[zero for _ in range(q)] for _ in range(q)]
    for j in range(q):
        for k in range(q):
            target = (k + j) % q
            entry = system.var(f"U{k + 1}")
            if k + j >= q:
                entry = entry * C
            mat[target][j] = mat[target][j] + entry
    det = determinant(mat)
    N = det - system.var("Z")
    return N, system


class _GammaTable:
    """Gamma^s in the basis Gamma^0..Gamma^(D-1) of one layer, as a fixed table.

    A radical layer Gamma^D = num/den gives Gamma^s = Gamma^(s mod D) (num/den)^t
    with t = s // D, so once den^M is cleared the coefficient is
    num^t den^(M - t).  The cyclotomic layer Phi_q(Gamma) = 0, D = q - 1, gives
    Gamma^s = Gamma^(s mod q) and Gamma^(q-1) = -sum_(g < q-1) Gamma^g, with
    num = den = 1.
    """

    def __init__(self, degree, num, den, cyclotomic=False):
        self.degree = degree
        self.cyclotomic = cyclotomic
        self.clears_den = not cyclotomic and den != MultiPoly.const(den.n, 1)
        one = MultiPoly.const(num.n, 1)
        self._powers = {"num": [one, num], "den": [one, den]}
        self._reduced = {}

    def reduce(self, s):
        """[(g, t, sign)] with Gamma^s = sum sign Gamma^g (num/den)^t."""
        out = self._reduced.get(s)
        if out is None:
            out = self._reduced[s] = self._reduce(s)
        return out

    def _reduce(self, s):
        D = self.degree
        if not self.cyclotomic:
            return ((s % D, s // D, 1),)
        g = s % (D + 1)
        return ((g, 0, 1),) if g < D else tuple((h, 0, -1) for h in range(D))

    def base(self, t, M):
        """num^t den^(M - t), or num^t when den is one."""
        if not self.clears_den:
            return self._power("num", t)
        return self._power("num", t) * self._power("den", M - t)

    def _power(self, which, k):
        powers = self._powers[which]
        while len(powers) <= k:
            powers.append(powers[-1] * powers[1])
        return powers[k]


class _Expansion:
    """The Gamma values of the monomials in the layer variables.

    A layer variable is u = sum_j u_j Gamma^j in its coordinates, so u^e is a
    multinomial sum over the index multisets of size e, and a monomial is the
    product of its variables' sums.  Each term is
    (coordinate key, multinomial coefficient, Gamma degree s).
    """

    def __init__(self, table, system, expanded, new_index):
        self.table = table
        old_vars = system.variables
        # old index -> coordinate indices, ascending
        self.coords = {i: [new_index[c] for c in expanded[v]]
                       for i, v in enumerate(old_vars) if v in expanded}
        # old index -> new index of the kept variables
        moved = {i: new_index[v] for i, v in enumerate(old_vars) if v in new_index}
        pairs = {p for eq in system.equations for key in eq.terms for p in key}
        # (old index, e) -> (new index, e) of the kept variables: one object per
        # pair, shared by every output key that holds it
        self.kept = {p: (moved[p[0]], p[1]) for p in pairs if p[0] in moved}
        self.n = len(new_index)
        self._parts = {}

    def terms(self, ukey):
        out = [((), 1, 0)]
        # coordinate blocks follow the layer's variable order, not ukey's
        for vi, e in sorted(ukey, key=lambda ve: self.coords[ve[0]][0]):
            part = self._parts.get((vi, e))
            if part is None:
                part = self._parts[vi, e] = self._power_terms(vi, e)
            out = [(k1 + k2, m1 * m2, s1 + s2) for k1, m1, s1 in out for k2, m2, s2 in part]
        return out

    def _power_terms(self, vi, e):
        coords = self.coords[vi]
        out = []
        for combo in combinations_with_replacement(range(len(coords)), e):
            counts = Counter(combo)  # ascending indices, as combo is sorted
            mult = factorial(e) // prod(map(factorial, counts.values()))
            out.append((tuple((coords[j], k) for j, k in counts.items()), mult, sum(combo)))
        return out

    def den_power(self, ukey):
        """The power of den that multiplying ukey's Gamma values left to right clears.

        Each product of two full sums u = sum_j u_j Gamma^j reaches Gamma^D
        once D >= 2, so a monomial of total degree n >= 1 records n - 1.
        """
        return max(sum(e for _, e in ukey) - 1, 0) if self.table.degree >= 2 else 0


def _child_registry(system, layer_vars, deg, layer_name):
    """The child system of a descent, with its variables but no equations.

    The registry lists the kept variables first, in their old order, then deg
    coordinates "v,j" per layer variable v.
    _rewrite_equation relies on this order: every kept index is below every
    coordinate index.  Returns (child, {v: coordinate names}, name -> index).
    """
    keep = [v for v in system.variables if v not in layer_vars]
    names = list(keep)
    prov = {v: system.provenance.get(v, "base") for v in keep}
    expanded = {}
    for v in layer_vars:
        coords = [f"{v},{j}" for j in range(deg)]
        for c in coords:
            prov[c] = layer_name
        names.extend(coords)
        expanded[v] = coords
    child = PolynomialSystem(names, prov)
    child.trace = list(system.trace)
    return child, expanded, {name: i for i, name in enumerate(names)}


def _rewrite_equation(eq, expansion):
    """(Gamma^0..Gamma^(D-1) coefficients, den power) of eq, each term written once.

    The terms of eq are grouped by their monomial in the layer variables
    (ukey); the rest is a scalar polynomial in the kept variables.
    A coordinate term of ukey with Gamma degree s contributes
    scalar * multinomial * num^t den^(M - t) at Gamma^(s mod D), M being the
    largest den power of the equation's ukeys.  The product scalar *
    num^t den^(M - t) is formed once per distinct scalar and t within the
    equation (M, and so the product, differs between equations), and each
    of its terms gives the output key head + tail, because every kept index
    lies below every coordinate index.  Distinct ukeys have disjoint
    coordinate keys, so each output key is written once.
    """
    table, kept, n_new = expansion.table, expansion.kept, expansion.n
    groups = {}
    for key, coeff in eq.terms.items():
        ukey = tuple(p for p in key if p not in kept)
        # kept variables keep their relative order, so this key is sorted
        groups.setdefault(ukey, {})[tuple(kept[p] for p in key if p in kept)] = coeff
    M = max(map(expansion.den_power, groups), default=0) if table.clears_den else 0
    out = [{} for _ in range(table.degree)]
    products = {}  # (scalar content, t) -> terms of scalar * num^t den^(M - t)
    for ukey, scalar_terms in groups.items():
        scalar = MultiPoly(n_new)
        scalar.terms = scalar_terms
        content = frozenset(scalar_terms.items())
        for tail, mult, s in expansion.terms(ukey):
            for g, t, sign in table.reduce(s):
                head = products.get((content, t))
                if head is None:
                    # num^0 den^0 is the constant 1: the product is the scalar
                    head = products[content, t] = ((scalar * table.base(t, M)).terms
                                                   if t or M else scalar_terms)
                factor = sign * mult
                values = (head.values() if factor == 1
                          else map(mul, head.values(), repeat(factor)))
                out[g].update(zip(map(add, head, repeat(tail)), values))
    polys = []
    for dest in out:
        poly = MultiPoly(n_new)
        poly.terms = dest
        polys.append(poly)
    return polys, M


def descend_layer(system, layer_vars, relation_num, relation_den, deg, layer_name):
    """One descent step: rewrite over the field below the layer.

    layer_vars: names of the existential variables to expand into deg new
    coordinates each.  relation_num/relation_den: polynomials over the OLD
    variables defining Gamma^deg = num/den.

    Every equation E becomes deg equations: E is evaluated in the Gamma
    presentation, reduced through the relation, the denominator is cleared
    by the recorded power, and Gamma-degree coefficients are collected.
    """
    if relation_den.is_zero():
        raise DegenerateLayer("layer denominator is identically zero")
    old_vars = system.variables
    out, expanded, new_index = _child_registry(system, layer_vars, deg, layer_name)
    n_new = out.n
    num = _embed_poly(relation_num, old_vars, new_index, n_new)
    den = _embed_poly(relation_den, old_vars, new_index, n_new)
    table = _GammaTable(deg, num, den)
    expansion = _Expansion(table, system, expanded, new_index)
    for eq_idx, eq in enumerate(system.equations):
        coeffs, power = _rewrite_equation(eq, expansion)
        for gdeg, coeff_poly in enumerate(coeffs):
            intpoly, mult = coeff_poly.integerized()
            out.add_equation(
                intpoly,
                origin=f"{layer_name}: eq {eq_idx} Gamma^{gdeg} (den^{power}, x{mult})",
            )
        out.trace.append({"kind": "descent", "layer": layer_name, "source_equation": eq_idx,
                          "denominator_power": power})
    for iq in system.inequations:
        out.inequations.append(_embed_poly(iq, old_vars, new_index, n_new))
    out.add_inequation(den, origin=f"{layer_name}: cleared denominator must not vanish")
    return out


def _embed_poly(poly, old_vars, new_index, n_new):
    index_map = []
    for i, v in enumerate(old_vars):
        if v in new_index:
            index_map.append(new_index[v])
        else:
            index_map.append(0)
            if poly.degree_in(i):
                raise NormforgeError(f"variable {v} eliminated but still present")
    return poly.extended(n_new, index_map)


def descend_cyclotomic(system, layer_vars, q):
    """Descent through the degree-(q-1) cyclotomic layer: Phi_q(Gamma) = 0."""
    if not is_prime(q):
        raise NormforgeError("q must be prime")
    deg = q - 1
    layer_name = "xi-layer"
    out, expanded, new_index = _child_registry(system, layer_vars, deg, layer_name)
    one = MultiPoly.const(out.n, 1)
    expansion = _Expansion(_GammaTable(deg, one, one, cyclotomic=True), system, expanded,
                           new_index)
    for eq_idx, eq in enumerate(system.equations):
        coeffs, power = _rewrite_equation(eq, expansion)
        assert power == 0
        for gdeg, coeff_poly in enumerate(coeffs):
            intpoly, _ = coeff_poly.integerized()
            out.add_equation(intpoly, origin=f"{layer_name}: eq {eq_idx} Gamma^{gdeg}")
        out.trace.append({"kind": "descent", "layer": layer_name, "source_equation": eq_idx,
                          "denominator_power": 0})
    for iq in system.inequations:
        out.inequations.append(_embed_poly(iq, system.variables, new_index, out.n))
    return out


# ---------------------------------------------------------------------------
# formula assembly


class FormulaAST:
    """Quantifier prefix plus a matrix of polynomial and predicate atoms."""

    def __init__(self, variant, q, prefix, system, predicate_atoms, notes=None):
        self.variant = variant
        self.q = q
        self.prefix = prefix  # [("forall"|"exists", name), ...]
        self.system = system
        self.predicate_atoms = predicate_atoms  # [{"name":..., "args": [...]}]
        self.notes = list(notes or [])

    def quantifier_counts(self):
        falls = sum(1 for k, _ in self.prefix if k == "forall")
        exists = sum(1 for k, _ in self.prefix if k == "exists")
        return falls, exists

    def to_json(self):
        return {
            "variant": self.variant,
            "q": self.q,
            "prefix": [list(p) for p in self.prefix],
            "predicate_atoms": self.predicate_atoms,
            "system": self.system.to_json(),
            "matrix": "rhs_zero OR (all equations = 0 AND inequations != 0)",
            "notes": self.notes,
        }


def build_descended_system(q):
    """The fully descended norm system for the three-layer tower over Q.

    Layers (innermost first): the norm polynomial in U-variables over L,
    then descents through Gamma3^q = 1 + (C + 1/C)/X, Gamma2^q = 1 + 1/rhs,
    Gamma1^q = 1 + 1/X, then the cyclotomic layer when xi_q is not already
    rational (q > 2).
    """
    if not is_prime(q):
        raise NormforgeError("q must be prime")
    N, sys0 = coordinate_norm_poly(
        q,
        PolynomialSystem([f"U{i}" for i in range(1, q + 1)] + ["C", "Z", "X", "B"],
                         {f"U{i}": "norm-layer" for i in range(1, q + 1)}),
    )
    # Z -> B X^q + B^q (N = det - Z), then retire Z from the registry
    rhs = sys0.var("B") * sys0.var("X", q) + sys0.var("B", q)
    subsN = N + sys0.var("Z") - rhs
    u_names = [f"U{i}" for i in range(1, q + 1)]
    system = PolynomialSystem(u_names + ["C", "X", "B"],
                              {f"U{i}": "norm-layer" for i in range(1, q + 1)})
    keep_map = [system.index(v) if v != "Z" else 0 for v in sys0.variables]
    system.add_equation(subsN.extended(system.n, keep_map),
                        origin="norm polynomial with Z = B X^q + B^q")
    X = lambda s: s.var("X")
    C = lambda s: s.var("C")
    one = lambda s: MultiPoly.const(s.n, 1)

    # layer 3: Gamma^q = (C^2 + C X + 1) / (C X)
    s = system
    num3 = C(s) * C(s) + C(s) * X(s) + one(s)
    den3 = C(s) * X(s)
    s = descend_layer(s, u_names, num3, den3, q, "layer3 (c + 1/c)/x")
    layer_vars = [v for v in s.variables if s.provenance[v] == "layer3 (c + 1/c)/x"]
    # layer 2: Gamma^q = (B X^q + B^q + 1) / (B X^q + B^q)
    rhs_poly = s.var("B") * s.var("X", q) + s.var("B", q)
    s = descend_layer(s, layer_vars, rhs_poly + MultiPoly.const(s.n, 1), rhs_poly, q,
                      "layer2 1/(b x^q + b^q)")
    layer_vars = [v for v in s.variables if s.provenance[v] == "layer2 1/(b x^q + b^q)"]
    # layer 1: Gamma^q = (X + 1) / X
    s = descend_layer(s, layer_vars, s.var("X") + MultiPoly.const(s.n, 1), s.var("X"), q,
                      "layer1 1/x")
    layer_vars = [v for v in s.variables if s.provenance[v] == "layer1 1/x"]
    if q > 2:
        s = descend_cyclotomic(s, layer_vars, q)
    return s


def realize_w(field, q, S=(), hat=False):
    """An element with the divisor shape the difference formulas prescribe.

    w has order 3 v(q) at every prime over q and order 1 at each S-prime;
    w-hat drops the S part.  Built by strong approximation; SearchExhausted
    propagates to the caller, which then emits the symbolic form.
    """
    from .numberfield import splitting_type as st
    from .numberfield import strong_approx_element

    vals = [(Qp, 3 * Qp.e) for Qp in st(field, q)]
    if not hat:
        vals += [(P, 1) for P in S]
    return strong_approx_element(field, valuations=vals)


def compile_definition(variant, q, field=None, S=()):
    """FormulaAST for one of the definable-set shapes.

    eqA: forall c in Theta(S) cap Phi cap Omega, forall b ...
    eqB: S empty (Theta collapses); eqC additionally drops Omega (q > 2 or
    no real embeddings).  diffversion1..3 replace the Theta/Phi conditions
    with (c-1)/w in R; w and w-hat are realized by strong approximation when
    a field is supplied, else left symbolic.
    """
    if variant not in VARIANTS:
        raise NormforgeError(f"unknown variant {variant!r}")
    notes = []
    system = build_descended_system(q)
    u_vars = [v for v in system.variables if system.provenance.get(v, "") != "base"
              and v not in ("C", "X", "B", "Z")]
    prefix = [("forall", "c"), ("forall", "b")] + [("exists", v) for v in u_vars]
    atoms = []
    if variant == "eqA":
        atoms = [{"name": "Theta_q", "args": ["c", "S"]}, {"name": "Phi_q", "args": ["c"]},
                 {"name": "Omega_q", "args": ["c"]}]
        if not S:
            notes.append("S empty: Theta_q collapses, formula coincides with eqB")
    elif variant == "eqB":
        atoms = [{"name": "Phi_q", "args": ["c"]}, {"name": "Omega_q", "args": ["c"]}]
    elif variant == "eqC":
        atoms = [{"name": "Phi_q", "args": ["c"]}]
    else:
        hat = variant == "diffversion3"
        w_name = "w_hat" if hat else "w"
        w_data = None
        if field is not None:
            try:
                w_data = [str(c) for c in realize_w(field, q, S, hat=hat).coords]
            except SearchExhausted:
                pass
        if w_data is None:
            notes.append(f"{w_name} left symbolic: strong approximation did not realize "
                         "its divisor shape")
            atoms = [{"name": "R_membership", "args": [f"(c-1)/{w_name}"]},
                     {"name": "Omega_q", "args": ["c"]}]
        else:
            atoms = [{"name": "R_membership", "args": [f"(c-1)/{w_name}"], "w": w_data},
                     {"name": "Omega_q", "args": ["c"]}]
        if variant in ("diffversion2", "diffversion3"):
            atoms.append({"name": "R_membership", "args": ["x"], "note": "x integral at Q-part"})
    if q == 2:
        # Omega_2 via the four-squares atom: c = s1^2 + s2^2 + s3^2 + s4^2
        if any(a["name"] == "Omega_q" for a in atoms):
            atoms = [a for a in atoms if a["name"] != "Omega_q"]
            atoms.append({"name": "four_squares", "args": ["c", "s1", "s2", "s3", "s4"]})
            prefix += [("exists", f"s{i}") for i in range(1, 5)]
    ast = FormulaAST(variant, q, prefix, system, atoms, notes)
    return ast


def verify_witness(system, assignment):
    """Exact check that every equation vanishes under the assignment.

    assignment maps variable names to Fractions; a missing variable raises
    IncompleteAssignment.
    """
    values = []
    for name in system.variables:
        if name not in assignment:
            raise IncompleteAssignment(f"no value for {name}")
        values.append(Fraction(assignment[name]))
    return all(eq.evaluate(values) == 0 for eq in system.equations)


def check_side_conditions(system, assignment):
    values = [Fraction(assignment[name]) for name in system.variables]
    return all(iq.evaluate(values) != 0 for iq in system.inequations)


def square_trick_witness(q, x_val, w_val, b_val):
    """Exact rational witness for the descended system via c = w^q.

    Solves the nonsingular linear system sum a_i w^i = z, sum a_i xi^{ij} w^i
    = 1 (j = 1..q-1); for q = 2 that is a0 = (z+1)/2, a1 = (z-1)/(2w).  The
    deeper layer coordinates are zero except the Gamma^0 chain.
    """
    if q != 2:
        raise NormforgeError("the exact rational witness construction is wired for q = 2")
    x_val, w_val, b_val = Fraction(x_val), Fraction(w_val), Fraction(b_val)
    c_val = w_val ** 2
    z = b_val * x_val ** 2 + b_val ** 2
    if z == 0:
        raise DegenerateLayer("b x^q + b^q = 0")
    a0 = (z + 1) / 2
    a1 = (z - 1) / (2 * w_val)
    system = build_descended_system(2)
    assignment = {name: Fraction(0) for name in system.variables}
    assignment["X"] = x_val
    assignment["B"] = b_val
    assignment["C"] = c_val
    if "Z" in assignment:
        assignment["Z"] = z
    for i, val in ((1, a0), (2, a1)):
        chain = f"U{i},0,0,0"
        if chain not in assignment:
            raise NormforgeError(f"expected descended coordinate {chain}")
        assignment[chain] = val
    return system, assignment
