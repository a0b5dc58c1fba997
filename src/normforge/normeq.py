"""Norm-equation instances, per-prime ledgers, and the membership predicates.

analyze() follows one instance N(y) = b x^q + b^q through its auxiliary
tower: at every prime of interest the three layers are chained locally, the
degree-q norm layer is classified, and a verdict is recorded.  The global
verdict is the Hasse reduction: solvable iff solvable at every completion,
unsolvable as soon as one completion refuses, indeterminate otherwise.

Two bug sentinels guard the analysis (both raise ConclusionViolation):
  * a prime where c is a unit and none of the four protective conditions
    holds must come out Unsolvable (the bad-prime statement asks c to be a
    non-q-th power mod the prime, which presupposes v(c) = 0);
  * an instance with x integral outside the allowed set and a compliant c
    must come out Solvable.

The membership predicates (B, C, Int, and the ring filter) are decided by
their exact valuation characterizations; the norm-equation route is the
cross-check, not the decision procedure.
"""

from fractions import Fraction

from .errors import (
    ConclusionViolation,
    NormforgeError,
    SearchExhausted,
)
from .intfunc import is_prime
from .local import (
    LocalVerdict,
    hilbert_symbol,
    leaves_to_json,
    local_norm_solvable,
    q_divides_group,
)
from .numberfield import (
    element_support,
    omega_membership,
    residue_nonqth_power,
    splitting_type,
    strong_approx_element,
    theta_phi_membership,
    valuation,
)
from .radical import (
    XBC,
    XDA,
    RadicalTowerSpec,
    _require_mu_q,
    chain_layers,
    check_nonsplit_certificate,
    primes_of_interest,
    protective_conditions,
    start_node,
    tracked_node,
    two_adic_inert,
)


class NormEquationInstance:
    """One instance of the norm equation over its auxiliary tower."""

    def __init__(self, field, q, x, second, third, S=(), variant=XBC,
                 nonsplit_certificate=None):
        self.spec = RadicalTowerSpec(field, q, variant, x, second, third,
                                     nonsplit_certificate=nonsplit_certificate)
        self.field = field
        self.q = q
        self.S = list(S)

    def to_json(self):
        out = self.spec.to_json()
        out["S"] = [P.to_json() for P in self.S]
        return out


class LocalLedger:
    """Per-prime verdicts, the protective conditions held, and leaves that to_json serializes."""

    def __init__(self):
        self.entries = []  # dicts
        self.archimedean = None
        self.global_verdict = None

    def add(self, prime, verdict, conditions, note="", leaves=None):
        self.entries.append(
            {
                "prime": prime.to_json(),
                "verdict": verdict.to_json(),
                "conditions": conditions,
                "note": note,
                "level": "base tower truncation (three layers)",
                "local_trace": leaves or [],
            }
        )

    def finalize(self, arch_verdict):
        self.archimedean = arch_verdict
        kinds = [e["verdict"]["verdict"] for e in self.entries] + [arch_verdict.kind]
        if any(k == LocalVerdict.UNSOLVABLE for k in kinds):
            self.global_verdict = LocalVerdict.unsolvable("some completion has no solution")
        elif all(k == LocalVerdict.SOLVABLE for k in kinds):
            self.global_verdict = LocalVerdict.solvable("solvable at every examined completion")
        else:
            self.global_verdict = LocalVerdict.indeterminate("an examined completion is undecided")
        return self.global_verdict

    def to_json(self):
        return {
            "entries": [dict(e, local_trace=leaves_to_json(e["local_trace"])) for e in self.entries],
            "archimedean": self.archimedean.to_json() if self.archimedean else None,
            "global": self.global_verdict.to_json() if self.global_verdict else None,
        }


def _prime_verdict(instance, P, start):
    field, q = instance.field, instance.q
    spec = instance.spec
    norm_key = spec.third_name
    if P.p == q:
        if start.get(norm_key + "m1").v >= 3 * P.e:
            return LocalVerdict.solvable(
                "phi guard: v(c-1) >= 3 v(q) transports through every layer"
            ), "guard-transport", None
        if spec.variant == XDA:
            cert = check_nonsplit_certificate(spec, P)
            if cert is True:
                leaves = chain_layers(spec, start)
                if all(not l.indeterminate and l.e == P.e and l.f == P.f_deg for l in leaves):
                    v_rhs = leaves[0].get("rhs").v
                    if v_rhs % q == 0:
                        return LocalVerdict.solvable(
                            "certified inert layer with v(rhs) == 0 mod q (lcft-unit-norm-rule)"
                        ), "cert-inert", leaves
                    return LocalVerdict.unsolvable(
                        f"certified inert layer with v(rhs) = {v_rhs} !== 0 mod q"
                    ), "cert-inert", leaves
                return LocalVerdict.indeterminate(
                    "nonsplit certificate cannot transport: a tower layer moved the prime"
                ), "cert-blocked", leaves
        if field.degree == 1 and q == 2:
            c_rat = spec.third.as_rational()
            rhs_rat = spec.rhs.as_rational()
            if hilbert_symbol(c_rat, rhs_rat, 2) == 1:
                return LocalVerdict.solvable("2-adic Hilbert symbol = +1"), "hilbert", None
            return LocalVerdict.unsolvable("2-adic Hilbert symbol = -1"), "hilbert", None
        return LocalVerdict.indeterminate("unguarded factor of q (wild)"), "wild", None
    leaves = chain_layers(spec, start)
    worst = LocalVerdict.solvable("all leaves solvable")
    for leaf in dict.fromkeys(leaves):  # each shared split sibling once, in order
        v = local_norm_solvable(leaf, "rhs", norm_key, q, c_minus_one_key=norm_key + "m1")
        if v.kind == LocalVerdict.UNSOLVABLE:
            return v, "chained", leaves
        if v.kind == LocalVerdict.INDETERMINATE:
            worst = v
    return worst, "chained", leaves


def analyze(instance):
    """(global verdict, LocalLedger) for one norm-equation instance.

    The layers are Kummer extensions, cyclic of degree q only over a field
    with the q-th roots of unity: without them, MissingRootOfUnity.
    """
    from .local import archimedean_check

    field, q = instance.field, instance.q
    spec = instance.spec
    _require_mu_q(field, q)
    ledger = LocalLedger()
    interest = primes_of_interest(spec, extra=instance.S)
    poles_outside_w = []
    none_hold = []
    for P, known in interest.items():
        start = start_node(spec, P, known)
        conds, (vx, _, vc), _ = protective_conditions(spec, start)
        verdict, note, leaves = _prime_verdict(instance, P, start)
        ledger.add(P, verdict, conds, note, leaves=leaves)
        in_w = P.p == q or any(P == s for s in instance.S)
        if not in_w:
            if vx < 0:
                poles_outside_w.append(P)
            if not any(conds) and vc == 0:
                none_hold.append((P, verdict))
    arch = archimedean_check(field, spec.third, spec.rhs, q)
    global_verdict = ledger.finalize(arch)

    # sentinel 1: Prop-norm necessity at primes where c is a unit
    for P, verdict in none_hold:
        if verdict.kind == LocalVerdict.SOLVABLE:
            raise ConclusionViolation(
                f"no protective condition holds at {P} yet the layer verdict is Solvable"
            )
    # sentinel 2: Prop-norm sufficiency for compliant instances
    if not poles_outside_w and spec.variant == XBC:
        in_theta, in_phi = theta_phi_membership(field, spec.third, instance.S, q)
        if in_theta and in_phi and omega_membership(field, spec.third, q):
            if global_verdict.kind == LocalVerdict.UNSOLVABLE:
                raise ConclusionViolation(
                    "integral x with compliant c produced an Unsolvable verdict"
                )
    return global_verdict, ledger


def analyze_direct(field, q, c, rhs):
    """Verdict for N over K(c^(1/q))/K with no auxiliary tower.

    Used when the instance is already in normal form; interest primes are
    the supports of c and rhs plus the factors of q, and the archimedean
    places.  Like analyze, it needs the q-th roots of unity in K.
    """
    from .local import archimedean_check

    c = field.element(c)
    rhs = field.element(rhs)
    if c.is_zero() or rhs.is_zero():
        raise NormforgeError("c and rhs must be nonzero")
    _require_mu_q(field, q)
    interest = {}
    for elem in (c, rhs):
        for P, _ in element_support(field, elem):
            interest[(P.p, P.index)] = P
    for Q in splitting_type(field, q):
        interest[(Q.p, Q.index)] = Q
    ledger = LocalLedger()
    for key in sorted(interest):
        P = interest[key]
        node = tracked_node(field, P, q, {"c": c, "rhs": rhs, "cm1": c - field.one()})
        if field.degree == 1:
            node.rational = {"c": c.as_rational(), "rhs": rhs.as_rational()}
        verdict = local_norm_solvable(node, "rhs", "c", q, c_minus_one_key="cm1")
        ledger.add(P, verdict, [], "direct")
    arch = archimedean_check(field, c, rhs, q)
    return ledger.finalize(arch), ledger


# ---------------------------------------------------------------------------
# the integrality battery


class BatteryResult:
    def __init__(self, passed, flags, witness=None):
        self.passed = passed
        self.flags = flags
        self.witness = witness  # (b, c, PrimeIdeal) or None

    def to_json(self):
        out = {"passed": self.passed, "flags": self.flags}
        if self.witness:
            b, c, P = self.witness
            out["witness"] = {
                "b": [str(v) for v in b.coords],
                "c": [str(v) for v in c.coords],
                "prime": P.to_json(),
            }
        return out


BATTERY_CANDIDATE_CAP = 64


def integrality_battery(field, x, q, S=()):
    """Hunt for (b, c) certifying that x has a forbidden pole.

    Follows the constructive recipe: b with order -1 at every candidate pole,
    c = 1 + j*M sweeping the Phi/Theta-compatible lattice until it is a
    non-q-th-power unit at the target pole.  Poles at factors of q are
    flagged NotCatchable; poles at S-primes are allowed by definition.
    """
    if not is_prime(q):
        raise NormforgeError("q must be prime")
    x = field.element(x)
    if x.is_zero():
        raise NormforgeError("x must be nonzero")
    S = list(S)
    poles = [(P, v) for P, v in element_support(field, x) if v < 0]
    flags = []
    targets = []
    for P, v in poles:
        if P.p == q:
            flags.append({"prime": P.to_json(), "flag": "NotCatchable",
                          "reason": "factors of q are not caught by this construction"})
        elif any(P == s for s in S):
            flags.append({"prime": P.to_json(), "flag": "AllowedAtS"})
        else:
            targets.append(P)
    if not targets:
        return BatteryResult(True, flags)
    target = targets[0]
    p, f = target.p, target.f_deg
    # c is rational, so its residue lies in F_p*, which sits inside the q-th
    # powers of F_{p^f}* unless q | p^f - 1 and (p - 1) does not divide (p^f - 1)/q
    if not q_divides_group(p, f, q) or ((p ** f - 1) // q) % (p - 1) == 0:
        raise SearchExhausted(
            f"every rational unit is a q-th power (q = {q}) in the residue field of order "
            f"{p}^{f} at the target pole, so no rational candidate c can work"
        )
    if any(s.p == p for s in S):
        raise SearchExhausted(
            f"an S-prime lies over {p}, so every candidate c = 1 + j M is 1 mod {p}, a q-th "
            "power residue at the target pole, and no candidate c can work"
        )
    b = strong_approx_element(field, valuations=[(P, -1) for P in targets])
    M = q ** 3
    for s in S:
        M *= s.p
    one = field.one()
    for j in range(1, BATTERY_CANDIDATE_CAP + 1):
        c = one * (1 + j * M)
        try:
            if not residue_nonqth_power(field, target, c, q):
                continue
        except NormforgeError:  # NotAUnit: v_P(c) != 0
            continue
        in_theta, in_phi = theta_phi_membership(field, c, S, q)
        if not (in_theta and in_phi and omega_membership(field, c, q)):
            continue
        instance = NormEquationInstance(field, q, x, b, c, S=S)
        verdict, _ = analyze(instance)
        if verdict.kind == LocalVerdict.UNSOLVABLE:
            return BatteryResult(False, flags, witness=(b, c, target))
    raise SearchExhausted("battery candidate cap reached without a witness")


# ---------------------------------------------------------------------------
# membership predicates by valuation characterization


def _audit_d_shape(field, d, primes, p, require_triple_q=False):
    """d has poles exactly at `primes`, with order !== 0 mod p there."""
    support = element_support(field, d)
    pole_keys = {(P.p, P.index) for P, v in support if v < 0}
    want = {(P.p, P.index) for P in primes}
    if pole_keys != want:
        return False, f"pole support {sorted(pole_keys)} != tracked {sorted(want)}"
    for P in primes:
        v = valuation(field, P, d)
        if v % p == 0:
            return False, f"v(d) = {v} == 0 mod {p} at ({P.p}, #{P.index})"
        if require_triple_q and v > -3 * P.e:
            return False, f"v(d) = {v} > -3 v(q) = {-3 * P.e}"
    return True, ""


def b_set_membership(field, p, a, d, x, w_primes):
    """x in B(K, p, a, d): v(x) > ((p-1)/p) v(d) at every tracked W-prime.

    Audits the preconditions on d (poles exactly at W, orders prime to p)
    and on a before deciding.  At a tame W-prime a must be a non-p-th-power
    unit of the residue field; at a wild one (the prime divides p, where the
    residue test is vacuous) the inert layer is certified by the classical
    local rule instead -- over Q_2 that is a = 5 mod 8.
    """
    from .errors import HypothesisFail

    d = field.element(d)
    a = field.element(a)
    x = field.element(x)
    ok, why = _audit_d_shape(field, d, w_primes, p)
    if not ok:
        raise HypothesisFail(["d shape"], why)
    for P in w_primes:
        if valuation(field, P, a) != 0:
            raise HypothesisFail(["a shape"], f"a is not a unit at ({P.p}, #{P.index})")
        if P.p % p != 0:
            if not residue_nonqth_power(field, P, a, p):
                raise HypothesisFail(
                    ["a shape"], f"a is a p-th power residue at ({P.p}, #{P.index})"
                )
        elif not two_adic_inert(a, p, P):
            raise HypothesisFail(
                ["a shape"], f"no inert certificate for a at the wild prime ({P.p}, #{P.index})"
            )
    if x.is_zero():
        return True
    bound = lambda P: Fraction(p - 1, p) * valuation(field, P, d)
    return all(valuation(field, P, x) > bound(P) for P in w_primes)


def c_set_membership(field, a, d, q, x, a_primes, nonsplit_certificate=None):
    """x in C(E, a, d, q): v(x) > ((q-1)/q) v(d) at the tracked A-primes only."""
    from .errors import HypothesisFail

    d = field.element(d)
    x = field.element(x)
    ok, why = _audit_d_shape(field, d, a_primes, q, require_triple_q=True)
    if not ok:
        raise HypothesisFail(["d shape"], why)
    if nonsplit_certificate is not None:
        spec = RadicalTowerSpec(field, q, XDA, field.one(), d, a,
                                nonsplit_certificate=nonsplit_certificate)
        for Q in a_primes:
            if check_nonsplit_certificate(spec, Q) is not True:
                raise HypothesisFail(["a certificate"], f"no nonsplit certificate at ({Q.p}, #{Q.index})")
    if x.is_zero():
        return True
    return all(
        valuation(field, Q, x) > Fraction(q - 1, q) * valuation(field, Q, d) for Q in a_primes
    )


def int_set_membership(field, b, tracked_primes, q, x):
    """x in Int(b, p, q): v(x) >= ((q-1)/q) v(b) at every tracked factor."""
    from .errors import HypothesisFail

    b = field.element(b)
    x = field.element(x)
    support = element_support(field, b)
    pole_keys = {(P.p, P.index) for P, v in support if v < 0}
    want = {(P.p, P.index) for P in tracked_primes}
    if pole_keys != want:
        raise HypothesisFail(["b poles"], f"{sorted(pole_keys)} != {sorted(want)}")
    for P in tracked_primes:
        v = valuation(field, P, b)
        if v >= 0 or v % q == 0:
            raise HypothesisFail(["b order"], f"v(b) = {v} at ({P.p}, #{P.index})")
    if x.is_zero():
        return True
    return all(
        valuation(field, P, x) >= Fraction(q - 1, q) * valuation(field, P, b)
        for P in tracked_primes
    )


def ring_filter(field, p, d, x, w_primes):
    """Membership in R = {x in B | x*B stays in B}, with the proof's witness.

    Returns (True, None) when x is integral at every tracked prime;
    (False, None) when x is outside B; (False, x^r) when x lies in B but not
    in R, r the least exponent with x^r in B and x^(r+1) outside.
    """
    x = field.element(x)
    if x.is_zero():
        return True, None
    vals = {P: valuation(field, P, x) for P in w_primes}
    if all(v >= 0 for v in vals.values()):
        return True, None
    bounds = {P: Fraction(p - 1, p) * valuation(field, P, d) for P in w_primes}
    if any(vals[P] <= bounds[P] for P in w_primes):
        return False, None  # not even in B
    r = None
    for P in w_primes:
        v = vals[P]
        if v >= 0:
            continue
        # largest r with r*v > bound: r < bound/v (both negative)
        ratio = bounds[P] / v
        m = int(ratio) if ratio != int(ratio) else int(ratio) - 1
        r = m if r is None else min(r, m)
    assert r is not None and r >= 1
    return False, x ** r


def unbounded_denominator_probe(tree, q, v_rhs_base, c_residue):
    """Least tree level where the local obstruction vanishes at every factor.

    c_residue is an FFElem recorded in the residue field of some tree level
    (its degree must divide the node's f for the node to be measurable;
    smaller levels are skipped as "instance not yet defined").  At a node
    the obstruction is gone when either the right side's order (scaled by
    the relative e) is divisible by q, or c's residue has become a q-th
    power in the grown residue field.
    """
    from .finitefield import power_test_in_extension

    f0 = c_residue.field.f
    e_base = None
    for level in range(tree.depth + 1):
        nodes = [tree.nodes[nid] for nid in tree.levels[level]]
        if any(n.indeterminate for n in nodes):
            continue
        if any(n.f % f0 for n in nodes):
            continue  # instance not defined at this level yet
        if e_base is None:
            e_base = min(n.e for n in nodes)
        all_clear = True
        for node in nodes:
            e_ok = (v_rhs_base * (node.e // e_base)) % q == 0 if node.e % e_base == 0 else False
            f_ok = c_residue.is_zero() or power_test_in_extension(c_residue, q, node.f)
            if not (e_ok or f_ok):
                all_clear = False
                break
        if all_clear:
            return {"level": level, "status": "obstruction vanished"}
    return {"level": None, "status": f"obstruction persists to depth {tree.depth}"}
