"""Tower recipes, factor trees, and q-boundedness certificates.

A TowerRecipe is an ordered list of steps (adjoin a root of unity, adjoin a
radical of a base-field element picked by constraints, or an explicit
polynomial).  grow_tree follows one base prime through the steps and records
every factor as a node with cumulative (e, f) over the base prime.

Cyclotomic steps use closed-form arithmetic (conductors and multiplicative
orders), so their certificates extend analytically; radical steps use the
tame local rule table.  Wild or structurally ambiguous layers produce
flagged Indeterminate nodes and truncate their subtree rather than guessing.

Classification depth-qualifies everything: a certificate speaks about the
examined truncation, never about the infinite field, and says which grafts
it covered.
"""

import math
from fractions import Fraction

from .errors import NormforgeError, SearchExhausted
from .intfunc import (
    euler_phi,
    is_prime,
    multiplicative_order,
    primes_up_to,
    valuation_fraction,
    valuation_int,
)
from .modp import _frac_mod
from .polyq import UniPoly


class Step:
    KIND_ROOT_OF_UNITY = "root_of_unity"
    KIND_RADICAL = "radical"
    KIND_POLYNOMIAL = "polynomial"

    def __init__(self, kind, **data):
        self.kind = kind
        self.data = data

    def to_json(self):
        out = {"kind": self.kind}
        for k, v in self.data.items():
            if isinstance(v, UniPoly):
                out[k] = v.to_json()
            elif isinstance(v, Fraction):
                out[k] = str(v)
            else:
                out[k] = v
        return out

    @classmethod
    def root_of_unity(cls, n):
        return cls(cls.KIND_ROOT_OF_UNITY, n=n)

    @classmethod
    def radical(cls, degree, element, constraints=None):
        return cls(cls.KIND_RADICAL, degree=degree, element=Fraction(element),
                   constraints=constraints or {})

    @classmethod
    def polynomial(cls, poly):
        return cls(cls.KIND_POLYNOMIAL, poly=poly)


class TowerRecipe:
    """Lazily applied tower: base field Q plus an ordered list of steps."""

    def __init__(self, name, steps, annotations=None):
        self.name = name
        self.steps = list(steps)
        self.annotations = dict(annotations or {})

    def truncated(self, depth):
        if depth < 0:
            raise NormforgeError(f"depth {depth} is negative")
        if depth > len(self.steps):
            raise NormforgeError(f"recipe {self.name} has only {len(self.steps)} steps")
        return self.steps[:depth]

    def to_json(self):
        return {
            "name": self.name,
            "steps": [s.to_json() for s in self.steps],
            "annotations": self.annotations,
        }

    @classmethod
    def from_json(cls, data):
        steps = []
        for s in data["steps"]:
            kind = s["kind"]
            if kind == Step.KIND_ROOT_OF_UNITY:
                steps.append(Step.root_of_unity(s["n"]))
            elif kind == Step.KIND_RADICAL:
                steps.append(Step.radical(s["degree"], Fraction(s["element"]),
                                          s.get("constraints")))
            elif kind == Step.KIND_POLYNOMIAL:
                steps.append(Step.polynomial(UniPoly.from_json(s["poly"])))
            else:
                raise NormforgeError(f"unknown step kind {kind!r}")
        return cls(data["name"], steps, data.get("annotations"))


class TreeNode:
    __slots__ = ("id", "level", "e", "f", "parent", "indeterminate", "note")

    def __init__(self, id, level, e, f, parent, indeterminate=False, note=""):
        self.id = id
        self.level = level
        self.e = e
        self.f = f
        self.parent = parent
        self.indeterminate = indeterminate
        self.note = note

    @property
    def d(self):
        return self.e * self.f

    def to_json(self):
        return {
            "id": self.id,
            "level": self.level,
            "e": self.e,
            "f": self.f,
            "parent": self.parent,
            "indeterminate": self.indeterminate,
            "note": self.note,
        }


class FactorTree:
    """Tree of the factors of one base prime through the recipe's levels."""

    def __init__(self, base_prime, recipe_name=""):
        self.base_prime = base_prime
        self.recipe_name = recipe_name
        self.nodes = [TreeNode(0, 0, 1, 1, None)]
        self.levels = [[0]]
        self.level_degrees = [1]  # field degree over the base at each level
        self.analytic = True  # all levels so far have closed-form (e, f)

    def add_level(self, children_of, level_degree):
        new_ids = []
        level = len(self.levels)
        for parent_id, kids in children_of:
            for (e, f, indet, note) in kids:
                nid = len(self.nodes)
                self.nodes.append(TreeNode(nid, level, e, f, parent_id, indet, note))
                new_ids.append(nid)
        self.levels.append(new_ids)
        self.level_degrees.append(level_degree)

    def leaves(self):
        last = set(self.levels[-1])
        return [self.nodes[i] for i in sorted(last)]

    def paths(self):
        """Root-to-leaf node id paths, lexicographic order."""
        out = []

        def walk(nid, acc):
            kids = [n.id for n in self.nodes if n.parent == nid]
            if not kids:
                out.append(acc)
                return
            for k in sorted(kids):
                walk(k, acc + [k])

        walk(0, [0])
        return out

    @property
    def depth(self):
        return len(self.levels) - 1

    def to_json(self):
        return {
            "base_prime": self.base_prime,
            "recipe": self.recipe_name,
            "nodes": [n.to_json() for n in self.nodes],
            "level_degrees": self.level_degrees,
        }


def _radical_children(node, p, k, u, xi_known):
    """Tame closed-form children of adjoining a k-th root of rational u."""
    u = Fraction(u)
    vp = valuation_fraction(u, p)
    v_node = vp * node.e
    if math.gcd(v_node, k) == 1 and v_node != 0:
        # Newton slope v/k in lowest terms: total ramification, wild or tame
        return [(node.e * k, node.f, False, f"ramified: v={v_node} prime to {k}")]
    if k % p == 0:
        # wild p-part; only the Hensel guard is modeled
        guard = 3 * node.e * valuation_fraction(k, p)
        um1 = u - 1
        guarded = um1 == 0 or valuation_fraction(um1, p) * node.e >= guard
        if guarded:
            if xi_known:
                return [(node.e, node.f, False, "guard-split")] * k
            return [
                (node.e, node.f, False, "guard-root: one local root certified"),
                (node.e, node.f, True, "guard-rest: xi not known, cofactor unresolved"),
            ]
        return [(node.e, node.f, True, "wild: no Hensel guard")]
    if v_node % k != 0:
        # partial ramification of composite degree; not modeled
        return [(node.e, node.f, True, f"composite partial ramification at v={v_node}")]
    if v_node != 0:
        return [(node.e, node.f, True, f"unit-part residue unknown at v={v_node}")]
    group = p ** node.f - 1
    if group % k == 0:
        from .finitefield import FiniteField, power_test_in_extension

        r = FiniteField(p).element(_frac_mod(u, p))
        if power_test_in_extension(r, k, node.f):
            return [(node.e, node.f, False, "split: residue is a k-th power")] * k
        if is_prime(k):
            return [(node.e, node.f * k, False, "inert: residue not a k-th power")]
        return [(node.e, node.f, True, f"composite degree {k}, partial split unresolved")]
    if is_prime(k):
        d = multiplicative_order(pow(p, node.f, k), k)
        kids = [(node.e, node.f, False, "tame-root: unique k-th root")]
        kids += [(node.e, node.f * d, False, f"tame-orbit of size {d}")] * ((k - 1) // d)
        return kids
    return [(node.e, node.f, True, f"composite degree {k} without mu_k")]


def grow_tree(recipe, p, depth):
    """FactorTree of the prime p through the first `depth` recipe steps."""
    if not is_prime(p):
        raise NormforgeError(f"{p} is not prime")
    steps = recipe.truncated(depth)
    tree = FactorTree(p, recipe.name)
    conductor = 1
    for step in steps:
        prev_degree = tree.level_degrees[-1]
        if step.kind == Step.KIND_ROOT_OF_UNITY:
            if tree.analytic:
                new_conductor = conductor * step.data["n"] // math.gcd(conductor, step.data["n"])
                if new_conductor == conductor:
                    raise NormforgeError("root-of-unity step does not extend the field")
                tree.add_level(*_cyclotomic_level_closed_form(tree, p, new_conductor))
                conductor = new_conductor
            else:
                # mixed tower: per-node local transition, assuming the step is
                # linearly disjoint from the radical part (flagged otherwise)
                n = step.data["n"]
                level_degree = prev_degree * euler_phi(n)
                children_of = []
                for nid in tree.levels[-1]:
                    node = tree.nodes[nid]
                    if node.indeterminate:
                        children_of.append((nid, [(node.e, node.f, True, "truncated")]))
                        continue
                    children_of.append((nid, _cyclotomic_children_local(node, p, n)))
                tree.add_level(children_of, level_degree)
        elif step.kind == Step.KIND_RADICAL:
            k = step.data["degree"]
            u = step.data["element"]
            level_degree = prev_degree * k
            xi_known = conductor % k == 0 if k > 2 else True
            children_of = []
            for nid in tree.levels[-1]:
                node = tree.nodes[nid]
                if node.indeterminate:
                    children_of.append((nid, [(node.e, node.f, True, "truncated")]))
                    continue
                children_of.append((nid, _radical_children(node, p, k, u, xi_known)))
            tree.add_level(children_of, level_degree)
            tree.analytic = False  # radical layers have no closed-form continuation
        elif step.kind == Step.KIND_POLYNOMIAL:
            if tree.depth != 0:
                raise NormforgeError("explicit polynomial step must come first")
            from .numberfield import NumberField, splitting_type

            field = NumberField(step.data["poly"])
            kids = [
                (P.e, P.f_deg, False, f"splitting of {field.name}")
                for P in splitting_type(field, p)
            ]
            tree.add_level([(0, kids)], field.degree)
        else:
            raise NormforgeError(f"unknown step kind {step.kind}")
        _assert_level_consistency(tree)
    return tree


def _cyclotomic_level_closed_form(tree, p, new_conductor):
    """Level data for a pure cyclotomic tower, from conductors alone."""
    level_degree = euler_phi(new_conductor)
    a = valuation_int(new_conductor, p) if new_conductor % p == 0 else 0
    m_prime = new_conductor // p ** a
    e_abs = euler_phi(p ** a) if a else 1
    f_abs = multiplicative_order(p % m_prime, m_prime) if m_prime > 1 else 1
    g_abs = level_degree // (e_abs * f_abs)
    parents = [nid for nid in tree.levels[-1]]
    for nid in parents:
        node = tree.nodes[nid]
        if e_abs % node.e or f_abs % node.f:
            raise AssertionError("cyclotomic (e, f) not multiples of the parent's")
    assert g_abs % len(parents) == 0, "uneven Galois splitting"
    kids_per_parent = g_abs // len(parents)
    children_of = [
        (nid, [(e_abs, f_abs, False, f"cyclotomic conductor {new_conductor}")] * kids_per_parent)
        for nid in parents
    ]
    return children_of, level_degree


def _cyclotomic_children_local(node, p, n):
    """Children of one node under adjoining xi_n, from local data only.

    For p not dividing n the layer is unramified: the cyclotomic polynomial
    factors over the node's residue field into phi(n)/d pieces of degree
    d = ord(p^f mod n).  The p | n case mixes wild ramification with the
    radical history and is flagged, not guessed.
    """
    if n % p == 0:
        return [(node.e, node.f, True, f"xi_{n} over a radical history at p | {n}")]
    d = multiplicative_order(pow(p, node.f, n), n)
    count = euler_phi(n) // d
    return [(node.e, node.f * d, False, f"xi_{n}: unramified, residue degree x{d}")] * count


def _assert_level_consistency(tree):
    ids = tree.levels[-1]
    if any(tree.nodes[i].indeterminate for i in ids):
        return
    total = sum(tree.nodes[i].d for i in ids)
    assert total == tree.level_degrees[-1], "sum e*f != level degree"
    for i in ids:
        node = tree.nodes[i]
        parent = tree.nodes[node.parent]
        assert node.e % parent.e == 0 and node.f % parent.f == 0, "non-multiplicative step"


# ---------------------------------------------------------------------------
# classification


class BoundednessCertificate:
    Q_UNBOUNDED = "qUnboundedUpToDepth"
    Q_BOUNDED = "qBounded"
    COMPLETELY = "completelyQBounded"

    def __init__(self, classification, q, depth, witness_path=None, bounding_level=None,
                 bounding_order=None, min_ord_sequence=None, scope=""):
        self.classification = classification
        self.q = q
        self.depth = depth
        self.witness_path = witness_path
        self.bounding_level = bounding_level
        self.bounding_order = bounding_order
        self.min_ord_sequence = min_ord_sequence
        self.scope = scope or "recipe chain only; grafts not examined"

    def to_json(self):
        return {
            "classification": self.classification,
            "q": self.q,
            "depth_examined": self.depth,
            "witness_path": self.witness_path,
            "bounding_level": self.bounding_level,
            "bounding_order": self.bounding_order,
            "min_ord_sequence": self.min_ord_sequence,
            "scope": self.scope,
        }


def _ord_q(n, q):
    return valuation_int(n, q) if n else 0


def classify_prime(tree, q):
    """Depth-qualified q-boundedness certificate for the tree's base prime.

    Pure-cyclotomic trees carry closed-form (e, f) from multiplicative
    orders, so their certificates note that the evidence extends
    analytically beyond the examined depth.
    """
    if not is_prime(q):
        raise NormforgeError(f"{q} is not prime")
    if not tree.nodes:
        raise NormforgeError("empty tree")
    scope = ""
    if tree.analytic:
        scope = ("recipe chain only; grafts not examined; cyclotomic closed-form "
                 "(e, f), evidence extends analytically beyond this depth")
    depth = tree.depth
    # completely q-bounded: all relative growths beyond some level have ord_q
    # 0, with a nonempty tail of levels actually witnessing it
    for i in range(depth) if depth > 0 else [0]:
        ok = True
        for node in tree.nodes:
            if node.level <= i or node.indeterminate:
                continue
            parent = tree.nodes[node.parent]
            rel = node.d // parent.d
            if _ord_q(rel, q) != 0:
                ok = False
                break
        if ok and not any(n.indeterminate for n in tree.nodes):
            order = max(_ord_q(tree.nodes[nid].d, q) for nid in tree.levels[min(i, depth)])
            return BoundednessCertificate(
                BoundednessCertificate.COMPLETELY, q, depth,
                bounding_level=i, bounding_order=order, scope=scope,
            )
    # best witness path: earliest level from which ord_q(d) stays constant
    best = None
    for path in tree.paths():
        ords = [_ord_q(tree.nodes[nid].d, q) for nid in path]
        i = len(ords) - 1
        while i > 0 and ords[i - 1] == ords[-1]:
            i -= 1
        cand = (i, path)
        if best is None or cand < best:
            best = cand
    i, path = best
    if i < depth:
        return BoundednessCertificate(
            BoundednessCertificate.Q_BOUNDED, q, depth,
            witness_path=path, bounding_level=i,
            bounding_order=_ord_q(tree.nodes[path[i]].d, q), scope=scope,
        )
    min_seq = [
        min(_ord_q(tree.nodes[nid].d, q) for nid in level_ids) for level_ids in tree.levels
    ]
    return BoundednessCertificate(
        BoundednessCertificate.Q_UNBOUNDED, q, depth, min_ord_sequence=min_seq, scope=scope
    )


def graft_and_check(tree, recipe, extra_step, q, base_prime):
    """Work-off-path check: grafting one extra step keeps a low-ord node.

    Grows the recipe one step further with `extra_step` appended and reports
    whether the new level still has a node with relative ord_q = 0.
    """
    grafted = TowerRecipe(recipe.name + "+graft", list(recipe.steps) + [extra_step],
                          recipe.annotations)
    t2 = grow_tree(grafted, base_prime, len(grafted.steps))
    ok = False
    for nid in t2.levels[-1]:
        node = t2.nodes[nid]
        if node.indeterminate:
            continue
        parent = t2.nodes[node.parent]
        if _ord_q(node.d // parent.d, q) == 0:
            ok = True
            break
    return ok, t2


# ---------------------------------------------------------------------------
# catalog


def example_tower(name, **params):
    """Catalog of the worked tower families."""
    if name == "five-power":
        name = "five-power-cyclotomic"
    if name == "five-power-cyclotomic":
        depth = params.get("depth", 3)
        steps = [Step.root_of_unity(5 ** k) for k in range(1, depth + 1)]
        return TowerRecipe(name, steps, {"kind": "cyclotomic", "conductors": [5 ** k for k in range(1, depth + 1)]})
    if name == "cyclotomic-q-avoiding":
        q = params["q"]
        m = params["m"]
        bound = params.get("prime_bound", 20)
        eligible = [p for p in primes_up_to(bound) if p != q and (p - 1) % (q ** (m + 1)) != 0]
        steps = [Step.root_of_unity(p) for p in eligible]
        return TowerRecipe(
            name, steps,
            {"kind": "cyclotomic", "filter": f"p != {q} and p !== 1 mod {q ** (m + 1)}",
             "eligible_primes": eligible},
        )
    if name == "three-step":
        return _three_step_recipe(params.get("n", 1), params["q"])
    raise NormforgeError(f"unknown tower name {name!r}")


def _three_step_recipe(n, q):
    """Depth-1 instance of the three-step construction over Q.

    Step 1 ramifies the first n listed primes (radical of an element with
    valuation 1 there, = 1 mod q); step 2 splits everything so far (radical
    of an element = 1 mod q and mod the listed primes); step 3 is the
    degree-q step that opens a q-bounded and, at deeper levels, a
    q-unbounded path (its radicand is = 1 mod q^3 and mod the first factor).
    """
    from .numberfield import NumberField, splitting_type, strong_approx_element

    if n != 1:
        raise SearchExhausted("three-step catalog entry is materialized at n = 1 only")
    Q = NumberField.rationals()
    listed = [p for p in primes_up_to(50) if p != q][:n]
    pi_n = 1
    for p in listed:
        pi_n *= p
    Pq, = splitting_type(Q, q)
    listed_primes = [splitting_type(Q, p)[0] for p in listed]
    # step 1 element: valuation 1 at each listed prime, = 1 mod q
    a = strong_approx_element(
        Q,
        valuations=[(P, 1) for P in listed_primes],
        congruences=[(Pq, 1, 1)],
    )
    # fresh primes pin the later radicands away from 1 (x^k - 1 is degenerate)
    fresh = [p for p in primes_up_to(100) if p != q and p not in listed]
    p2 = fresh[0]
    P_fresh_b = splitting_type(Q, fresh[1])[0]
    P_fresh_c = splitting_type(Q, fresh[2])[0]
    b = strong_approx_element(
        Q,
        valuations=[(P_fresh_b, 1)],
        congruences=[(Pq, 1, 1)] + [(P, 1, 1) for P in listed_primes],
    )
    # step 3: degree q, radicand = 1 mod q^3 and mod the listed primes
    c = strong_approx_element(
        Q,
        valuations=[(P_fresh_c, 1)],
        congruences=[(Pq, 1, 3)] + [(P, 1, 1) for P in listed_primes],
    )
    steps = [
        Step.radical(pi_n, a.as_rational(), {"valuation_1_at": listed, "cong": f"1 mod {q}"}),
        Step.radical(p2, b.as_rational(), {"cong": f"1 mod {q} and mod {listed}"}),
        Step.radical(q, c.as_rational(), {"cong": f"1 mod {q}^3 and mod {listed}"}),
    ]
    return TowerRecipe(
        "three-step", steps,
        {"n": n, "q": q, "listed_primes": listed, "note": "depth-1 truncation over Q"},
    )
