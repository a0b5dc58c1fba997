"""Local prime data propagated through radical layers, without global fields.

A LocalPrime is one node of a layer-by-layer analysis: (e, f) over Q, the
valuations of tracked elements, and unit residues recorded in the residue
field where the element was first seen.  Extending by a q-th root applies
the tame rule table:

  * v(u) !== 0 mod q, p not| q  -> one child, e * q    (total tame ramification)
  * v(u) = 0, residue a q-th power -> q children unchanged (complete split)
  * v(u) = 0, residue not a q-th power -> one child, f * q (inert)
  * v(u) = 0, q not| p^f - 1         -> MissingRootOfUnity: then mu_q is not
    in the base field, which every layer presupposes
  * p | q with v(u - 1) >= 3 v(q)  -> q children unchanged (Hensel guard)
  * any other p | q case -> an Indeterminate marker child; wild ramification
    is never guessed.

Residues survive split and inert steps exactly (tests in a residue extension
reduce the exponent into the recording field).  A ramified step changes the
uniformizer, so unit-part residues of elements with nonzero valuation go
stale and are marked as such rather than silently reused.

Solvability of N(y) = rhs in the degree-q cyclic layer obtained from the
q-th root of c follows local class field theory for the decided cases; the
unramified unit-norm fact is hard-coded and every verdict that uses it
carries the trace marker "lcft-unit-norm-rule".  For the one classical wild
case that the acceptance fixtures need (base completion Q_2), the verdict is
the exact 2-adic Hilbert symbol, not a guess.
"""

from fractions import Fraction

from .errors import MissingRootOfUnity, MissingTrace, NormforgeError
from .finitefield import power_test_in_extension
from .intfunc import valuation_fraction
from .modp import _frac_mod


class LocalVerdict:
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    INDETERMINATE = "indeterminate"

    __slots__ = ("kind", "reason")

    def __init__(self, kind, reason=""):
        if kind != self.SOLVABLE and not reason:
            raise NormforgeError("unsolvable/indeterminate verdicts need a reason")
        self.kind = kind
        self.reason = reason

    @classmethod
    def solvable(cls, reason=""):
        return cls(cls.SOLVABLE, reason)

    @classmethod
    def unsolvable(cls, reason):
        return cls(cls.UNSOLVABLE, reason)

    @classmethod
    def indeterminate(cls, reason):
        return cls(cls.INDETERMINATE, reason)

    def __eq__(self, other):
        return isinstance(other, LocalVerdict) and self.kind == other.kind

    def __repr__(self):
        return f"LocalVerdict({self.kind}{', ' + self.reason if self.reason else ''})"

    def to_json(self):
        return {"verdict": self.kind, "reason": self.reason}


class Tracked:
    """Valuation plus (for the unit part) a residue recorded at track time."""

    __slots__ = ("v", "residue", "fresh")

    def __init__(self, v, residue=None, fresh=True):
        self.v = v
        self.residue = residue  # FFElem in the recording residue field, or None
        self.fresh = fresh

    def __repr__(self):
        return f"Tracked(v={self.v}, fresh={self.fresh})"


class LocalPrime:
    """One prime of the current layer, with its tracked element data.

    Once a node has children it is never mutated: identical split siblings
    are one shared object, so a leaf list may hold the same node q^k times.
    """

    def __init__(self, p, e=1, f=1, tracked=None, trace=(), indeterminate=False, rational=None):
        self.p = p
        self.e = e
        self.f = f
        self.tracked = tracked if tracked is not None else {}
        self.trace = tuple(trace)
        self.indeterminate = indeterminate
        # optional exact rational values of tracked elements (K = Q bases),
        # used by the Hilbert-symbol fallback
        self.rational = dict(rational) if rational else {}

    def track(self, key, v, residue=None):
        self.tracked[key] = Tracked(v, residue)

    def get(self, key):
        if key not in self.tracked:
            raise MissingTrace(f"element {key!r} is not tracked at this prime")
        return self.tracked[key]

    def child(self, e_mult=1, f_mult=1, note="", indeterminate=False, twist=None):
        """Derived node; `twist` refreshes unit residues through a tame
        totally ramified step.

        For a layer from radicand r with v(r) = w prime to q, the new
        uniformizer is Pi = (r^(1/q))^alpha pi^beta (alpha w + beta q = 1),
        and the unit part of a tracked element picks up the factor
        u_r^(-alpha v), u_r the radicand's own unit residue.  twist =
        (u_r_residue, alpha); the residue field is unchanged.
        """
        if e_mult == 1:
            tracked = dict(self.tracked)  # Tracked entries are never mutated, so they are shared
        else:
            tracked = {}
            powers = {}  # u_r^expo, each computed once per child
            for key, t in self.tracked.items():
                v = t.v * e_mult
                if t.v == 0:
                    res, fresh = t.residue, t.fresh
                elif (twist is not None and twist[0] is not None
                      and t.fresh and t.residue is not None):
                    u_r_res, alpha = twist
                    expo = (-alpha * t.v) % (u_r_res.field.order - 1)
                    if expo not in powers:
                        powers[expo] = u_r_res ** expo
                    res, fresh = t.residue * powers[expo], True
                else:
                    res, fresh = t.residue, False
                tracked[key] = Tracked(v, res, fresh)
        return LocalPrime(
            self.p,
            self.e * e_mult,
            self.f * f_mult,
            tracked,
            self.trace + ((note,) if note else ()),
            indeterminate=indeterminate or self.indeterminate,
            rational=self.rational,
        )

    def residue_is_qth_power(self, key, q):
        """q-th power test for a tracked unit-part residue at this node's f.

        Returns True/False, or None when the residue is stale or missing.
        """
        t = self.get(key)
        if t.residue is None or not t.fresh:
            return None
        if t.v % q != 0:
            raise NormforgeError("unit-part power test needs v == 0 mod q")
        return power_test_in_extension(t.residue, q, self.f)

    def __repr__(self):
        flag = ", indeterminate" if self.indeterminate else ""
        return f"LocalPrime(p={self.p}, e={self.e}, f={self.f}{flag})"

    def to_json(self):
        return {
            "p": self.p,
            "e": self.e,
            "f": self.f,
            "trace": list(self.trace),
            "indeterminate": self.indeterminate,
            "tracked": {k: {"v": t.v, "fresh": t.fresh} for k, t in sorted(self.tracked.items())},
        }


def radical_children(lp, u_key, q, u_minus_one_key=None):
    """Children of lp in the layer obtained by adjoining a q-th root of u.

    The base field must contain the q-th roots of unity; a tame unramified
    node with q not| p^f - 1 shows that it does not.
    """
    p = lp.p
    t = lp.get(u_key)
    if lp.indeterminate:
        return [lp.child(note=f"skip({u_key}): already indeterminate", indeterminate=True)]
    if t.v % q != 0:
        # total ramification by the Newton slope; no tameness assumption.
        # In the tame case the radicand's own unit residue refreshes every
        # tracked residue through the uniformizer change.
        twist = None
        if p != q and t.fresh and t.residue is not None:
            twist = (t.residue, pow(t.v % q, -1, q))
        return [lp.child(e_mult=q, note=f"ramified({u_key}): v={t.v} !== 0 mod q", twist=twist)]
    if p == q:
        guard = 3 * lp.e
        if u_minus_one_key is not None and u_minus_one_key in lp.tracked:
            vm1 = lp.get(u_minus_one_key).v
            if vm1 >= guard:
                return [lp.child(note=f"guard-split({u_key}): v(u-1)={vm1}>=3v(q)={guard}")] * q
        return [lp.child(note=f"wild({u_key}): no Hensel guard", indeterminate=True)]
    if not q_divides_group(p, lp.f, q):
        # mu_q in the base field would embed in the residue field F_(p^f)*
        raise MissingRootOfUnity(f"q = {q} does not divide {p}^{lp.f} - 1, so the base field "
                                 f"lacks a primitive {q}-th root of unity")
    is_power = lp.residue_is_qth_power(u_key, q)
    if is_power is None:
        return [lp.child(note=f"unramified({u_key}): residue unknown", indeterminate=True)]
    if is_power:
        return [lp.child(note=f"split({u_key}): residue is a q-th power")] * q
    return [lp.child(f_mult=q, note=f"inert({u_key}): residue not a q-th power")]


def leaves_to_json(leaves):
    """to_json of each leaf, computed once per distinct (shared) node."""
    seen = {leaf: leaf.to_json() for leaf in set(leaves)}
    return [seen[leaf] for leaf in leaves]


def q_divides_group(p, f, q):
    return (pow(p, f, q) - 1) % q == 0


# ---------------------------------------------------------------------------
# norm solvability in the degree-q cyclic layer


def classify_norm_layer(lp, c_key, q, c_minus_one_key=None):
    """How the layer from the q-th root of c behaves at this prime.

    Returns one of "split", "inert", "ramified", "unramified-unknown",
    "guard-split", "wild".
    """
    p = lp.p
    t = lp.get(c_key)
    if p == q:
        guard = 3 * lp.e
        if c_minus_one_key is not None and c_minus_one_key in lp.tracked:
            if lp.get(c_minus_one_key).v >= guard:
                return "guard-split"
        return "wild"
    if t.v % q != 0:
        return "ramified"
    is_power = lp.residue_is_qth_power(c_key, q)
    if is_power is None:
        return "unramified-unknown"
    return "split" if is_power else "inert"


def local_norm_solvable(lp, rhs_key, c_key, q, c_minus_one_key=None):
    """Verdict for N(y) = rhs in the layer from the q-th root of c, at lp."""
    if lp.indeterminate:
        return LocalVerdict.indeterminate("layer chain already indeterminate: " + "; ".join(lp.trace))
    kind = classify_norm_layer(lp, c_key, q, c_minus_one_key=c_minus_one_key)
    rhs = lp.get(rhs_key)
    if kind in ("split", "guard-split"):
        return LocalVerdict.solvable(f"{kind}: local degree 1")
    if kind == "inert":
        if rhs.v % q == 0:
            return LocalVerdict.solvable(
                "inert: v(rhs) == 0 mod q, unit part is a norm (lcft-unit-norm-rule)"
            )
        return LocalVerdict.unsolvable(f"inert layer with v(rhs) = {rhs.v} !== 0 mod q")
    if kind == "unramified-unknown":
        if rhs.v % q == 0:
            return LocalVerdict.solvable(
                "unramified: v(rhs) == 0 mod q, unit part is a norm (lcft-unit-norm-rule)"
            )
        return LocalVerdict.indeterminate("unramified layer, split/inert undecided, v(rhs) !== 0")
    if kind == "ramified":
        return _tame_ramified_verdict(lp, rhs, c_key, q)
    # wild
    c_rat = lp.rational.get(c_key)
    rhs_rat = lp.rational.get(rhs_key)
    if lp.p == 2 and q == 2 and lp.e == 1 and lp.f == 1 and c_rat is not None and rhs_rat is not None:
        if hilbert_symbol(c_rat, rhs_rat, 2) == 1:
            return LocalVerdict.solvable("2-adic Hilbert symbol (c, rhs)_2 = +1")
        return LocalVerdict.unsolvable("2-adic Hilbert symbol (c, rhs)_2 = -1")
    return LocalVerdict.indeterminate("wild ramification at a factor of q is not modeled")


def _tame_ramified_verdict(lp, rhs, c_key, q):
    c = lp.get(c_key)
    if c.residue is None or not c.fresh or rhs.residue is None or not rhs.fresh:
        return LocalVerdict.indeterminate("tame ramified layer but unit residues are stale")
    # N(q-th root of c) = (-1)^(q+1) c has valuation v(c) prime to q; solve
    # v(rhs) == t*v(c) mod q, strip norms, test the remaining unit residue.
    vc = c.v % q
    t = (rhs.v * pow(vc, -1, q)) % q
    field = rhs.residue.field
    if c.residue.field != field:
        return LocalVerdict.indeterminate("rhs and c residues recorded in different fields")
    norm_c_res = c.residue if q % 2 == 1 else _negate(c.residue)
    w = rhs.residue * (norm_c_res.inverse() ** t)
    if power_test_in_extension(w, q, lp.f):
        return LocalVerdict.solvable("tame ramified: stripped unit part is a q-th power residue")
    return LocalVerdict.unsolvable("tame ramified: stripped unit part is not a q-th power residue")


def _negate(res):
    return res.field.zero() - res


def archimedean_check(field_K, c, rhs, q):
    """Archimedean solvability; only q = 2 with a real embedding can obstruct."""
    from .polyq import sign_at_root

    if q != 2:
        return LocalVerdict.solvable("q > 2: archimedean completions are complex")
    c = field_K.element(c)
    rhs = field_K.element(rhs)
    roots = field_K.real_root_intervals()
    if not roots:
        return LocalVerdict.solvable("no real embeddings")
    for iv in roots:
        sc = sign_at_root(c.poly(), field_K.poly, iv)
        sr = sign_at_root(rhs.poly(), field_K.poly, iv)
        if sc < 0 and sr < 0:
            return LocalVerdict.unsolvable(
                "real embedding with c < 0 and rhs < 0: the norm form is positive definite there"
            )
    return LocalVerdict.solvable("every real embedding has c > 0 or rhs >= 0")


# ---------------------------------------------------------------------------
# exact Hilbert symbols over Q


def _eps(u):
    return ((u - 1) // 2) % 2


def _omega(u):
    return ((u * u - 1) // 8) % 2


def hilbert_symbol(a, b, place):
    """(a, b)_v over Q, exact; place is a prime or the string "inf"."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise NormforgeError("Hilbert symbol needs nonzero arguments")
    if place == "inf":
        return -1 if a < 0 and b < 0 else 1
    p = place
    alpha = valuation_fraction(a, p)
    beta = valuation_fraction(b, p)
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    u_int = _frac_mod(u, 8 if p == 2 else p)
    v_int = _frac_mod(v, 8 if p == 2 else p)
    if p == 2:
        expo = _eps(u_int) * _eps(v_int) + alpha * _omega(v_int) + beta * _omega(u_int)
        return -1 if expo % 2 else 1
    legendre_u = 1 if pow(u_int, (p - 1) // 2, p) == 1 else -1
    legendre_v = 1 if pow(v_int, (p - 1) // 2, p) == 1 else -1
    sign = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    return sign * legendre_u ** (beta % 2) * legendre_v ** (alpha % 2)
