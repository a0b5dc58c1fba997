"""The auxiliary radical towers and mechanical verification of their effect.

Two tower variants over a base field K containing the q-th roots of unity:

  XBC (elements x, b, c):   layers adjoin q-th roots of
      r1 = 1 + 1/x,  r2 = 1 + 1/(b x^q + b^q),  r3 = 1 + (c + 1/c)/x
  XDA (elements x, d, a):   layers adjoin q-th roots of
      r1 = 1 + 1/d,  r2 = 1 + 1/(d x^q + d^q),  r3 = 1 + (a + 1/a)/d

The towers exist to push the divisors of the involved elements into q-th
powers away from the designated bad prime while splitting that prime
completely, which is what the four verified statements say:

  badprime   at a prime away from q: x keeps its pole, c stays a non-q-th
             power residue, and the right side keeps order !== 0 mod q.
  fixorder   at every prime away from q that is not a pole of x, the orders
             of c, x, and the right side all become == 0 mod q.
  badprimeq  the q-adic analogue, driven by the Hensel guard instead of
             tame splitting, with the nonsplit layer certified externally.
  fixorderq  the q-adic analogue of fixorder.

Verification is by chained local rules, never by global factorization of
the degree-q^3 tower: a failed conclusion under verified hypotheses raises
ConclusionViolation, the bug sentinel.
"""

from .errors import (
    ConclusionViolation,
    DegenerateRadicand,
    HypothesisFail,
    MissingRootOfUnity,
    NormforgeError,
)
from .intfunc import is_prime
from .kpoly import has_primitive_root_of_unity
from .local import LocalPrime, Tracked, leaves_to_json, radical_children
from .modp import _frac_mod
from .numberfield import (
    element_support,
    padic_unit,
    residue_map,
    splitting_type,
    uniformizer,
    valuation,
)

XBC = "XBC"
XDA = "XDA"

_LAYER_KEYS = ("r1", "r2", "r3")


class RadicalTowerSpec:
    """One tower instance: base field, q, variant, and the three elements."""

    def __init__(self, field, q, variant, x, second, third, nonsplit_certificate=None):
        if variant not in (XBC, XDA):
            raise NormforgeError(f"unknown variant {variant!r}")
        if not is_prime(q):
            raise NormforgeError("q must be prime")
        self.field = field
        self.q = q
        self.variant = variant
        x = field.element(x)
        second = field.element(second)  # b for XBC, d for XDA
        third = field.element(third)  # c for XBC, a for XDA
        if x.is_zero() or second.is_zero() or third.is_zero():
            raise DegenerateRadicand("x, b/d, c/a must be nonzero")
        self.x = x
        self.second = second
        self.third = third
        self.nonsplit_certificate = nonsplit_certificate
        rhs = second * (x ** q) + second ** q
        if rhs.is_zero():
            raise DegenerateRadicand("b x^q + b^q = 0: tower undefined")
        self.rhs = rhs
        one = field.one()
        inv_base = (x if variant == XBC else second).inverse()
        # the differences r - 1 and third - 1 drive the p | q Hensel guard
        self.differences = {"r1m1": inv_base, "r2m1": rhs.inverse(),
                            "r3m1": (third + third.inverse()) * inv_base,
                            self.third_name + "m1": third - one}
        self.radicands = {key: one + self.differences[key + "m1"] for key in _LAYER_KEYS}
        for key, r in self.radicands.items():
            if r.is_zero():
                raise DegenerateRadicand(f"radicand {key} vanishes")

    @property
    def second_name(self):
        return "b" if self.variant == XBC else "d"

    @property
    def third_name(self):
        return "c" if self.variant == XBC else "a"

    def elements(self):
        """x, second, third, rhs, the radicands and their differences from 1."""
        out = {"x": self.x, self.second_name: self.second, self.third_name: self.third, "rhs": self.rhs}
        out.update(self.radicands)
        out.update(self.differences)
        return out

    def to_json(self):
        return {
            "field": self.field.to_json(),
            "q": self.q,
            "variant": self.variant,
            "x": [str(c) for c in self.x.coords],
            self.second_name: [str(c) for c in self.second.coords],
            self.third_name: [str(c) for c in self.third.coords],
        }


def primes_of_interest(spec, extra=()):
    """Support of the divisors of the defining elements, plus primes over q.

    This is the finite set Props 3.6/3.8 quantify over, as {P: {name: v}} in
    (p, index) order, v the valuation of x, second or third at P.
    """
    names = ("x", spec.second_name, spec.third_name)
    seen, support = {}, {}
    for name, elem in zip(names, (spec.x, spec.second, spec.third)):
        for P, v in element_support(spec.field, elem):
            seen[(P.p, P.index)] = P
            support[(P.p, P.index), name] = v
    for Q in splitting_type(spec.field, spec.q):
        seen[(Q.p, Q.index)] = Q
    for P in extra:
        seen[(P.p, P.index)] = P
    return {seen[k]: {name: support.get((k, name), 0) for name in names} for k in sorted(seen)}


def tracked_node(field, P, q, elements, known=None):
    """LocalPrime at P tracking each named element, each entry formed on its first read.

    The residue is that of the element's unit part, alpha / pi^v, read off
    one p-adic image at e = 1 (`padic_unit`); at e > 1 it takes a
    valuation, a power of the uniformizer cached on P and a residue map.  At
    a factor of q only units keep one.  A valuation in `known` is read
    without forming, and a zero element gets 10**9, a stand-in for +infinity
    that passes every guard.
    """
    node = LocalPrime(P.p, P.e, P.f_deg)
    keep, known = P.p != q, known or {}
    entry = lambda v, res: (v, res if keep or v == 0 else None, True)  # (v, residue, fresh)
    if P.e == 1:
        form = lambda val: entry(*padic_unit(field, P, val))
    else:  # the residue of val / pi^v, formed only where it is kept
        form = lambda val: entry(v := valuation(field, P, val), (keep or v == 0) and residue_map(
            field, P, val * uniformizer(field, P) ** -v if v else val))
    for key, val in elements.items():
        if val.is_zero():
            node.track(key, 10 ** 9)
        else:
            node.tracked[key] = Tracked(known.get(key), form=form, arg=val)
    return node


def start_node(spec, P, known=None):
    """LocalPrime at P with every tower element tracked (valuation, residue)."""
    return tracked_node(spec.field, P, spec.q, spec.elements(), known)


def chain_layers(spec, start):
    """Leaves of the three layers below `start`, in the fixed order r1, r2, r3.

    `start` is the start node of a prime (`start_node`).  The layers need
    the q-th roots of unity in the base field, and the callers check that
    first (`_require_mu_q`).  Identical split siblings are one shared node,
    so each distinct node is expanded once.
    """
    nodes = [start]
    for key in _LAYER_KEYS:
        kids = {node: radical_children(node, key, spec.q, u_minus_one_key=key + "m1")
                for node in dict.fromkeys(nodes)}
        nodes = [child for node in nodes for child in kids[node]]
    return nodes


def _require_mu_q(field, q):
    if not has_primitive_root_of_unity(field, q):
        raise MissingRootOfUnity(f"{field.name} lacks a primitive {q}-th root of unity")


def build_tower(spec, primes=None):
    """Chain the three layers at each prime of interest.

    Returns {PrimeIdeal: [leaf LocalPrime]} with full traces.
    """
    _require_mu_q(spec.field, spec.q)
    if primes is None:
        primes = primes_of_interest(spec)
    return {P: chain_layers(spec, start_node(spec, P)) for P in primes}


# ---------------------------------------------------------------------------
# proposition reports


class PropositionReport:
    def __init__(self, kind, spec):
        self.kind = kind
        self.spec = spec
        self.hypotheses = []  # dicts: name, passed, witness
        self.conclusions = []  # dicts: name, holds ("yes"/"no"/"indeterminate"), details
        self.local_trace = {}

    def add_hypothesis(self, name, passed, witness):
        self.hypotheses.append({"name": name, "passed": bool(passed), "witness": str(witness)})

    def add_conclusion(self, name, holds, details=""):
        self.conclusions.append({"name": name, "holds": holds, "details": str(details)})

    @property
    def hypotheses_pass(self):
        return all(h["passed"] for h in self.hypotheses)

    def failed_indices(self):
        return [i + 1 for i, h in enumerate(self.hypotheses) if not h["passed"]]

    def to_json(self):
        return {
            "kind": self.kind,
            "spec": self.spec.to_json(),
            "hypotheses": self.hypotheses,
            "hypotheses_pass": self.hypotheses_pass,
            "conclusions": self.conclusions,
            "local_trace": {
                f"({p}, #{idx})": leaves_to_json(nodes)
                for (p, idx), nodes in sorted(
                    ((P.p, P.index), nodes) for P, nodes in self.local_trace.items()
                )
            },
        }


def protective_conditions(spec, start):
    """The four protective conditions of the norm statement at a prime.

    Read off the prime's start node.  Returns (conditions, (v(x), v(b),
    v(c)), residue of c).  The conditions are: c is a q-th power mod P
    (False unless v(c) = 0), v(x) >= 0, q v(x) >= (q-1) v(b), and
    v(b) == 0 mod q.  The residue is None unless v(c) = 0.  The bad-prime
    hypotheses are p not| q and their negations.
    """
    q = spec.q
    vx = start.get("x").v
    vb = start.get(spec.second_name).v
    c = start.get(spec.third_name)
    res = c.residue if c.v == 0 else None
    c_power = c.v == 0 and start.residue_is_qth_power(spec.third_name, q)
    conditions = [c_power, vx >= 0, q * vx >= (q - 1) * vb, vb % q == 0]
    return conditions, (vx, vb, c.v), res


def _badprime_hypotheses(report, spec, P, start):
    q = spec.q
    (c_power, no_pole, slope_ok, b_order_ok), (vx, vb, vc), res = protective_conditions(spec, start)
    name2 = spec.third_name
    report.add_hypothesis("p_K is not a factor of q", P.p != q, f"p = {P.p}")
    if vc == 0:
        report.add_hypothesis(
            f"{name2} is not a q-th power mod p_K", not c_power, f"residue {list(res.coeffs)}"
        )
    else:
        report.add_hypothesis(f"{name2} is not a q-th power mod p_K", False, f"v({name2}) = {vc} != 0")
    report.add_hypothesis("x has a pole at p_K", not no_pole, f"v(x) = {vx}")
    report.add_hypothesis(
        f"v({spec.second_name}) !== 0 mod q", not b_order_ok, f"v({spec.second_name}) = {vb}"
    )
    report.add_hypothesis(
        f"q v(x) < (q-1) v({spec.second_name})", not slope_ok, f"{q * vx} < {(q - 1) * vb}"
    )


def _badprimeq_hypotheses(report, spec, Q, start):
    q = spec.q
    vx, vd, va = (start.get(key).v for key in ("x", "d", "a"))
    report.add_hypothesis("q_K is a factor of q", Q.p == q, f"p = {Q.p}")
    cert = check_nonsplit_certificate(spec, Q)
    report.add_hypothesis(
        "q_K does not split in K(a^(1/q))/K",
        cert is True,
        "certified" if cert is True else ("refuted" if cert is False else "no certificate"),
    )
    report.add_hypothesis("x has a pole at q_K", vx < 0, f"v(x) = {vx}")
    report.add_hypothesis("v(d) !== 0 mod q", vd % q != 0, f"v(d) = {vd}")
    report.add_hypothesis("v(d) <= -3 v(q)", vd <= -3 * Q.e, f"v(d) = {vd}, -3v(q) = {-3 * Q.e}")
    report.add_hypothesis("v(a) = 0", va == 0, f"v(a) = {va}")
    report.add_hypothesis("q v(x) < (q-1) v(d)", q * vx < (q - 1) * vd, f"{q * vx} < {(q - 1) * vd}")


def check_nonsplit_certificate(spec, Q):
    """Validate the supplied nonsplit-at-q certificate for the third element.

    Accepted forms (anything else returns None -> Indeterminate):
      {"kind": "frobenius", "ell": l, "d": d}  cyclic-construct bookkeeping:
          the third element generates the degree-q layer of the period field
          of conductor ell, where q has residue degree divisible by q.
      {"kind": "two-adic"}  base completion Q_2: a == 5 mod 8 is inert.
      {"kind": "global", "poly": UniPoly}  an explicit absolute polynomial
          for the layer; splitting_type must show a single prime over q.
    """
    cert = spec.nonsplit_certificate
    if cert is None:
        return None
    q = spec.q
    kind = cert.get("kind")
    if kind == "frobenius":
        from .cyclic import frobenius_residue_degree

        # q inert enough in H and prime-to-q residue degree below force the
        # degree-q compositum layer to be inert at Q
        f = frobenius_residue_degree(cert["ell"], cert["d"], q)
        return f % q == 0 and Q.f_deg % q != 0
    if kind == "two-adic":
        return two_adic_inert(spec.third, q, Q)
    if kind == "global":
        from .numberfield import NumberField

        layer_field = NumberField(cert["poly"])
        primes = splitting_type(layer_field, q)
        return len(primes) == len(splitting_type(spec.field, q)) and all(
            P.f_deg % q == 0 or P.e % q == 0 for P in primes
        )
    return None


def two_adic_inert(a, q, P):
    """Is the layer from a square root of a inert at P, over the base completion Q_2?

    The one classical decidable wild case: True iff the rational a is
    == 5 mod 8, False for any other rational a; None when q != 2, P is not
    the unramified degree-1 prime over 2, or a is not rational.
    """
    if q != 2 or P.p != 2 or P.e != 1 or P.f_deg != 1 or not a.is_rational():
        return None
    a = a.as_rational()
    if a.denominator % 2 == 0 or a.numerator % 2 == 0:
        return False
    return _frac_mod(a, 8) == 5


def verify_proposition(kind, spec, target_prime=None):
    """Check one of the four statements on a concrete tower instance.

    Hypotheses are evaluated exactly; when they all pass, the conclusions are
    checked against the chained local data and a failure raises
    ConclusionViolation.  When they do not pass, HypothesisFail carries the
    report (attribute `report`) listing which failed.
    """
    if kind not in ("badprime", "badprimeq", "fixorder", "fixorderq"):
        raise NormforgeError(f"unknown proposition kind {kind!r}")
    at_q = kind.endswith("q")
    if spec.variant != (XDA if at_q else XBC):
        raise NormforgeError(f"{kind} needs the {'XDA' if at_q else 'XBC'} variant")
    if kind.startswith("badprime") and target_prime is None:
        raise NormforgeError(f"{kind} needs a target prime")
    report = PropositionReport(kind, spec)
    if target_prime is not None:
        start = start_node(spec, target_prime)
        (_badprimeq_hypotheses if at_q else _badprime_hypotheses)(report, spec, target_prime, start)
        if not report.hypotheses_pass:
            err = HypothesisFail(report.failed_indices())
            err.report = report
            raise err
    if kind.startswith("fixorder"):
        _check_fixorder_conclusions(report, spec, kind)
    else:
        _require_mu_q(spec.field, spec.q)
        leaves = chain_layers(spec, start)
        report.local_trace[target_prime] = leaves
        if at_q:
            _check_badprimeq_conclusions(report, spec, target_prime, leaves)
        else:
            _check_badprime_conclusions(report, spec, leaves)
    return report


def _check_badprime_conclusions(report, spec, leaves):
    q = spec.q
    name2 = spec.third_name
    all_pole = all(leaf.get("x").v < 0 for leaf in leaves)
    _conclude(report, "v(x) < 0 at every prime of L above p_K", all_pole)
    nonpow = []
    for leaf in leaves:
        isp = leaf.residue_is_qth_power(name2, q)
        nonpow.append(None if isp is None else (not isp))
    if any(v is None for v in nonpow):
        report.add_conclusion(f"{name2} not a q-th power mod every p_L", "indeterminate", "stale residue")
    else:
        _conclude(report, f"{name2} not a q-th power mod every p_L", all(nonpow))
    all_ord = all(leaf.get("rhs").v % q != 0 for leaf in leaves)
    _conclude(report, "v(rhs) !== 0 mod q at every p_L", all_ord)


def _check_badprimeq_conclusions(report, spec, Q, leaves):
    q = spec.q
    all_pole = all(leaf.get("x").v < 0 for leaf in leaves)
    _conclude(report, "v(x) < 0 at every prime of F above q_K", all_pole)
    transported = all(
        not leaf.indeterminate and leaf.e == Q.e and leaf.f == Q.f_deg for leaf in leaves
    )
    if transported:
        _conclude(report, "q_F does not split in F(a^(1/q))/F (local degree 1 transport)", True)
    else:
        report.add_conclusion(
            "q_F does not split in F(a^(1/q))/F",
            "indeterminate",
            "a tower layer did not split completely at q_K",
        )
    all_ord = all(leaf.get("rhs").v % q != 0 for leaf in leaves)
    _conclude(report, "v(rhs) !== 0 mod q at every q_F", all_ord)


def _check_fixorder_conclusions(report, spec, kind):
    q = spec.q
    checked_keys = ("c", "rhs", "x") if kind == "fixorder" else ("d", "a", "rhs")
    poles = ("x",) if kind == "fixorder" else ("d", "x")
    # every conclusion is about the tower, which needs mu_q, even when all
    # primes of interest turn out to be excluded
    _require_mu_q(spec.field, spec.q)
    for P in primes_of_interest(spec):
        where = f"({P.p}, #{P.index})"
        if kind == "fixorder" and P.p == q:
            report.add_conclusion(f"orders at {where}", "excluded", "factor of q, outside the statement")
            continue
        start = start_node(spec, P)
        if any(start.get(key).v < 0 for key in poles):
            report.add_conclusion(
                f"orders at {where}", "excluded", f"pole of {' or '.join(poles)}, outside the statement"
            )
            continue
        leaves = chain_layers(spec, start)
        report.local_trace[P] = leaves
        if any(leaf.indeterminate for leaf in leaves):
            report.add_conclusion(f"orders at {where}", "indeterminate", "wild layer in the chain")
            continue
        _conclude(
            report,
            f"v({', '.join(checked_keys)}) all == 0 mod q at {where}",
            all(leaf.get(key).v % q == 0 for key in checked_keys for leaf in leaves),
        )


def _conclude(report, name, holds):
    if not holds:
        report.add_conclusion(name, "no")
        raise ConclusionViolation(f"conclusion failed under verified hypotheses: {name}")
    report.add_conclusion(name, "yes")
