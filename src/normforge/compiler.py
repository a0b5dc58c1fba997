"""Compile the quantified definitions into polynomial systems over Z.

The coordinate norm polynomial N(U_1..U_q, C, Z) is the determinant of the
multiplication-by-(sum U_i theta^(i-1)) matrix in Z[C][theta]/(theta^q - C),
minus Z; its coefficients depend on q alone.  Layer descent rewrites each
equation over the field below: every upper variable u becomes
sum_j u_j Gamma^j, powers of Gamma reduce through the layer relation
Gamma^q = g (a ratio of polynomials in the lower variables), denominators
are cleared by a recorded power, and the Gamma^0..Gamma^(q-1) coefficients
become q separate equations.  Nothing is simplified beyond collecting like
terms, so each equation's provenance stays one-to-one with the rewriting.

compile_definition assembles the full two-universal-quantifier shapes, with
the membership predicates attached as named atoms (the four-squares atom for
the real-place condition is an explicit polynomial).
"""

from bisect import bisect_left
from fractions import Fraction

from .errors import DegenerateLayer, IncompleteAssignment, NormforgeError, SearchExhausted
from .multipoly import MultiPoly, _merge_keys, determinant

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


class GammaPoly:
    """sum_i coeff_i Gamma^i over a modulus Gamma^D = (sum m_i Gamma^i)/den.

    den_power tracks how many times the denominator has been cleared; the
    represented value is (sum coeff_i Gamma^i) / den^den_power.
    """

    def __init__(self, layer, coeffs, den_power=0):
        self.layer = layer  # _LayerRelation
        self.coeffs = list(coeffs)
        D = layer.degree
        assert len(self.coeffs) == D
        self.den_power = den_power

    @classmethod
    def const(cls, layer, poly):
        return cls(layer, [poly] + [layer.zero] * (layer.degree - 1))

    def __mul__(self, other):
        D = self.layer.degree
        conv = [self.layer.zero for _ in range(2 * D - 1)]
        for i, x in enumerate(self.coeffs):
            if x.is_zero():
                continue
            for j, y in enumerate(other.coeffs):
                if y.is_zero():
                    continue
                conv[i + j] = conv[i + j] + x * y
        den_power = self.den_power + other.den_power
        if any(not conv[k].is_zero() for k in range(D, len(conv))):
            if self.layer.den_is_one:
                # denominator-free modulus (cyclotomic): loop reduction rounds
                while len(conv) > D:
                    top = conv.pop()
                    if top.is_zero():
                        continue
                    k = len(conv)
                    for i, m in enumerate(self.layer.modulus):
                        if not m.is_zero():
                            conv[k - D + i] = conv[k - D + i] + top * m
            else:
                # radical modulus concentrated at Gamma^0: one round suffices
                low = [c * self.layer.den for c in conv[:D]]
                for k in range(D, len(conv)):
                    if conv[k].is_zero():
                        continue
                    for i, m in enumerate(self.layer.modulus):
                        if m.is_zero():
                            continue
                        idx = k - D + i
                        assert idx < D, "radical modulus must sit at Gamma^0"
                        low[idx] = low[idx] + conv[k] * m
                den_power += 1
                conv = low
        conv = conv[:D]
        return GammaPoly(self.layer, conv, den_power)

    def __pow__(self, k):
        out = GammaPoly.const(self.layer, self.layer.one)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out


class _LayerRelation:
    """Gamma^degree = (sum modulus_i Gamma^i) / den, all over the new space."""

    def __init__(self, degree, modulus, den, n):
        self.degree = degree
        self.modulus = modulus  # list of MultiPoly, length degree
        self.den = den
        self.den_is_one = den == MultiPoly.const(n, 1)
        self.zero = MultiPoly.const(n, 0)
        self.one = MultiPoly.const(n, 1)
        self._den_powers = {0: self.one, 1: den}

    def den_power(self, k):
        if k not in self._den_powers:
            self._den_powers[k] = self.den_power(k - 1) * self.den
        return self._den_powers[k]


def _child_registry(system, layer_vars, dropped, deg, layer_name):
    """The child system of a descent, with its variables but no equations.

    The registry lists the kept variables first, in their old order, then deg
    coordinates "v,j" per layer variable v; variables in `dropped` vanish.
    _rewrite_equation relies on this order: every kept index is below every
    coordinate index.  Returns (child, {v: coordinate names}, name -> index,
    index of the first coordinate).
    """
    keep = [v for v in system.variables if v not in layer_vars and v not in dropped]
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
    return child, expanded, {name: i for i, name in enumerate(names)}, len(keep)


def descend_layer(system, layer_vars, relation_num, relation_den, deg, layer_name,
                  substitute=None):
    """One descent step: rewrite over the field below the layer.

    layer_vars: names of the existential variables to expand into deg new
    coordinates each.  relation_num/relation_den: polynomials over the OLD
    variables defining Gamma^deg = num/den.  substitute: optional {old var
    name -> gamma-power int} for base variables that become Gamma powers
    (the c = w^q style rewiring); such variables are dropped from the new
    registry.

    Every equation E becomes deg equations: E is evaluated in the Gamma
    presentation, reduced through the relation, the denominator is cleared
    by the recorded power, and Gamma-degree coefficients are collected.
    """
    substitute = substitute or {}
    if relation_den.is_zero():
        raise DegenerateLayer("layer denominator is identically zero")
    old_vars = system.variables
    out, expanded, new_index, n_keep = _child_registry(system, layer_vars, substitute, deg,
                                                       layer_name)
    n_new = out.n

    relation = _LayerRelation(
        deg,
        _embed_relation(relation_num, old_vars, new_index, n_new, deg),
        _embed_poly(relation_den, old_vars, new_index, n_new),
        n_new,
    )

    def gamma_value(var_name):
        if var_name in expanded:
            coeffs = [MultiPoly.var(n_new, new_index[c]) for c in expanded[var_name]]
            return GammaPoly(relation, coeffs)
        if var_name in substitute:
            power = substitute[var_name]
            unit = [relation.zero] * deg
            unit[min(1, deg - 1)] = relation.one
            return GammaPoly(relation, unit) ** power
        coeffs = [MultiPoly.var(n_new, new_index[var_name])] + [relation.zero] * (deg - 1)
        return GammaPoly(relation, coeffs)

    special = {i for i, v in enumerate(old_vars) if v in expanded or v in substitute}
    for eq_idx, eq in enumerate(system.equations):
        acc = _rewrite_equation(eq, relation, old_vars, new_index, n_keep, special, gamma_value)
        for gdeg, coeff_poly in enumerate(acc.coeffs):
            intpoly, mult = coeff_poly.integerized()
            out.add_equation(
                intpoly,
                origin=f"{layer_name}: eq {eq_idx} Gamma^{gdeg} (den^{acc.den_power}, x{mult})",
            )
        out.trace.append(
            {
                "kind": "descent",
                "layer": layer_name,
                "source_equation": eq_idx,
                "denominator_power": acc.den_power,
            }
        )
    for iq in system.inequations:
        out.inequations.append(_embed_poly(iq, old_vars, new_index, n_new))
    out.add_inequation(_embed_poly(relation_den, old_vars, new_index, n_new),
                       origin=f"{layer_name}: cleared denominator must not vanish")
    return out


def _rewrite_equation(eq, relation, old_vars, new_index, n_keep, special, gamma_value):
    """Evaluate eq in the Gamma presentation, batched for speed.

    Each term of eq splits into a monomial in the expanded variables, whose
    Gamma value is computed once per distinct monomial, and a scalar: the
    coefficient times a kept-variable monomial.  Every Gamma value is brought
    to the equation's largest denominator power up front, and the terms of
    each of its Gamma coefficients are grouped by their kept part (the
    variables below n_keep).  A scalar times a group then has keys made of
    the merged kept parts, memoised per pair, followed by the coordinate part
    unchanged, because every kept index lies below every coordinate index.
    """
    var_cache = {}

    def value_of(idx, power):
        key = (idx, power)
        if key not in var_cache:
            if power == 1:
                var_cache[key] = gamma_value(old_vars[idx])
            else:
                var_cache[key] = value_of(idx, power - 1) * value_of(idx, 1)
        return var_cache[key]

    products = {(): GammaPoly.const(relation, relation.one)}

    def product(ukey):
        # always left to right: the denominator powers recorded depend on the order
        gp = products.get(ukey)
        if gp is None:
            gp = products[ukey] = product(ukey[:-1]) * value_of(*ukey[-1])
        return gp

    split = []  # (expanded-variable monomial, scalar key, coefficient) per term
    for key, coeff in eq.terms.items():
        ukey = tuple((vi, e) for vi, e in key if vi in special)
        # kept variables keep their relative order, so this key is sorted
        scal_key = tuple((new_index[old_vars[vi]], e) for vi, e in key if vi not in special)
        split.append((ukey, scal_key, coeff))
    values = {ukey: product(ukey) for ukey, _, _ in split}
    den_power = max((gp.den_power for gp in values.values()), default=0)
    grouped = {}
    for ukey, gp in values.items():
        lift = den_power - gp.den_power
        coeffs = [c * relation.den_power(lift) for c in gp.coeffs] if lift else gp.coeffs
        grouped[ukey] = [_group_by_kept(c, n_keep) for c in coeffs]

    merged = {}  # (scalar key, kept part) -> merged kept key
    # per Gamma degree: {kept key: {coordinate key: coefficient}}
    acc = [{} for _ in range(relation.degree)]
    for ukey, scal_key, coeff in split:
        for nested, groups in zip(acc, grouped[ukey]):
            for kept, tail in groups:
                head = merged.get((scal_key, kept))
                if head is None:
                    head = merged[scal_key, kept] = _merge_keys(scal_key, kept)
                sub = nested.get(head)
                if sub is None:
                    sub = nested[head] = {}
                for k2, c2 in tail:
                    sub[k2] = sub.get(k2, 0) + coeff * c2
    coeffs_out = []
    for nested in acc:
        poly = MultiPoly(relation.one.n)
        poly.terms = {head + k2: c for head, sub in nested.items() for k2, c in sub.items() if c}
        coeffs_out.append(poly)
    return GammaPoly(relation, coeffs_out, den_power)


def _group_by_kept(poly, n_keep):
    """[(kept part, [(coordinate part, coeff), ...]), ...] of poly's terms."""
    groups = {}
    for key, c in poly.terms.items():
        cut = bisect_left(key, (n_keep,))
        groups.setdefault(key[:cut], []).append((key[cut:], c))
    return list(groups.items())


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


def _embed_relation(num, old_vars, new_index, n_new, deg):
    coeffs = [MultiPoly.const(n_new, 0) for _ in range(deg)]
    coeffs[0] = _embed_poly(num, old_vars, new_index, n_new)
    return coeffs


def descend_cyclotomic(system, layer_vars, q):
    """Descent through the degree-(q-1) cyclotomic layer: Phi_q(Gamma) = 0."""
    deg = q - 1
    layer_name = "xi-layer"
    old_vars = system.variables
    out, expanded, new_index, n_keep = _child_registry(system, layer_vars, (), deg, layer_name)
    n_new = out.n
    minus_one = MultiPoly.const(n_new, -1)
    relation = _LayerRelation(deg, [minus_one for _ in range(deg)], MultiPoly.const(n_new, 1), n_new)

    def gamma_value(var_name):
        if var_name in expanded:
            return GammaPoly(relation,
                             [MultiPoly.var(n_new, new_index[c]) for c in expanded[var_name]])
        return GammaPoly.const(relation, MultiPoly.var(n_new, new_index[var_name]))

    special = {i for i, v in enumerate(old_vars) if v in expanded}
    for eq_idx, eq in enumerate(system.equations):
        acc = _rewrite_equation(eq, relation, old_vars, new_index, n_keep, special, gamma_value)
        assert acc.den_power == 0
        for gdeg, coeff_poly in enumerate(acc.coeffs):
            intpoly, _ = coeff_poly.integerized()
            out.add_equation(intpoly, origin=f"{layer_name}: eq {eq_idx} Gamma^{gdeg}")
        out.trace.append({"kind": "descent", "layer": layer_name, "source_equation": eq_idx,
                          "denominator_power": 0})
    for iq in system.inequations:
        out.inequations.append(_embed_poly(iq, old_vars, new_index, n_new))
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
    N, sys0 = coordinate_norm_poly(
        q,
        PolynomialSystem([f"U{i}" for i in range(1, q + 1)] + ["C", "Z", "X", "B"],
                         {f"U{i}": "norm-layer" for i in range(1, q + 1)}),
    )
    # Z -> B X^q + B^q, then retire Z from the registry
    rhs = sys0.var("B") * sys0.var("X", q) + sys0.var("B", q)
    subsN = _substitute_var(N, sys0.index("Z"), rhs)
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


def _substitute_var(poly, index, replacement):
    n = poly.n
    out = MultiPoly.const(n, 0)
    for key, coeff in poly.terms.items():
        term = MultiPoly.const(n, coeff)
        for vi, e in key:
            if vi == index:
                term = term * replacement ** e
            else:
                term = term * MultiPoly.var(n, vi, e)
        out = out + term
    return out


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


def compile_definition(variant, q, field=None, S=(), w_data=None):
    """FormulaAST for one of the definable-set shapes.

    eqA: forall c in Theta(S) cap Phi cap Omega, forall b ...
    eqB: S empty (Theta collapses); eqC additionally drops Omega (q > 2 or
    no real embeddings).  diffversion1..3 replace the Theta/Phi conditions
    with (c-1)/w in R; w and w-hat are realized by strong approximation when
    a field is supplied (or passed through w_data), else left symbolic.
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
        if w_data is None and field is not None:
            try:
                w_elem = realize_w(field, q, S, hat=hat)
                w_data = [str(c) for c in w_elem.coords]
            except SearchExhausted:
                w_data = None
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
