"""cli: the README commands, each a fresh `python -m normforge.cli` process.

A round runs every README command once (with seeded arguments where the
command takes a prime, a point or an x) and `cyclic construct` for
(q, m) = (3, 1), (2, 2), (3, 2) and (2, 3).  The last one exits 1 as a
domain error, which is right: ell = 1 mod 8 makes 2 a square mod ell, so no
auxiliary prime exists.  Children run one at a time; each is waited for.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction

import oracles
from workloads import Op, State, rng_for
from workloads.verdicts import _curve

# The operations are child processes: their time is mostly process start-up
# and imports, which the calibration kernel does not track, so cli times are
# not scaled; peak RSS is the largest child's.
IN_PROCESS = False
HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
README_SPEC = {"field": {"poly": ["1", "1", "1"]}, "q": 3, "variant": "XBC",
               "x": ["1/7", "0"], "b": ["1/7", "0"], "c": ["82", "0"]}
CYCLIC = ((3, 1, 0), (2, 2, 0), (3, 2, 0), (2, 3, 1))  # (q, m, expected exit code)


def inputs(seed):
    return rng_for("cli", seed)


def build(rng):
    import normforge.cli  # noqa: F401  (set-up is a fresh interpreter importing the CLI)

    st = State()
    st.work = os.path.join(HERE, "out", f"cli-work-{os.getpid()}")
    os.makedirs(st.work, exist_ok=True)
    st.spec = os.path.join(st.work, "spec.json")
    with open(st.spec, "w") as fh:
        json.dump(README_SPEC, fh)
    st.system = os.path.join(st.work, "system.json")
    st.env = dict(os.environ, PYTHONPATH=SRC)
    st.env.pop("NORMFORGE_SEED", None)
    st.field_p = rng.choice([p for p in range(5, 200) if oracles.is_prime(p)])
    st.tower_p = rng.choice([p for p in range(2, 100) if oracles.is_prime(p) and p != 5])
    # a pole over a prime p = 1 mod 3, where rational c can be non-cubes
    p = rng.choice([p for p in range(7, 100) if oracles.is_prime(p) and p % 3 == 1])
    st.battery_x = Fraction(rng.choice([a for a in range(1, 20) if a % p]), p)
    st.curve = _curve(rng)
    st.ec_n = rng.randint(3, 9)
    st.stdout_bytes = []
    st.child_aggregates = []
    return st


def _run(st, args):
    cmd = [sys.executable]
    if st.tracer is not None:
        agg_path = os.path.join(st.work, "trace.json")
        cmd += [os.path.join(HERE, "traced_cli.py"), agg_path]
    else:
        cmd += ["-m", "normforge.cli"]
    res = subprocess.run(cmd + args, cwd=ROOT, env=st.env, capture_output=True,
                         text=True, timeout=120)
    st.stdout_bytes.append(len(res.stdout.encode()))
    if st.tracer is not None:
        with open(agg_path) as fh:
            data = json.load(fh)
        st.child_aggregates.append(data["aggregates"])
        child = len(st.child_aggregates)
        st.tracer.spans.extend((f"{child}:{sid}", name, t0, t1,
                                None if par is None else f"{child}:{par}")
                               for sid, name, t0, t1, par in data["spans"])
    return res


def _expect(res, code):
    assert res.returncode == code, f"exit {res.returncode}: {res.stderr[-300:]}"
    return json.loads(res.stdout) if res.stdout else None


def _check_factor(res, p):
    out = _expect(res, 0)
    f = [1, 1, 1]
    primes = out["primes"]
    assert out["sum_ef"] == 2 == sum(P["e"] * P["f"] for P in primes), "sum e f"
    prod = [1]
    for P in primes:
        assert oracles.rabin_irreducible(P["g"], p), "g reducible"
        for _ in range(P["e"]):
            prod = oracles.pmul(prod, P["g"], p)
    assert prod == oracles.trim(c % p for c in f), "prod g^e != f mod p"


def _check_tower(res, p):
    out = _expect(res, 0)
    nodes = out["tree"]["nodes"]
    for level in range(1, 4):
        f = oracles.mult_order(p, 5 ** level)
        assert all(n["f"] == f and n["e"] == 1 for n in nodes if n["level"] == level), "f"
    assert out["certificate"]["q"] == 2


def _check_prop(res):
    rep = _expect(res, 0)["report"]
    assert rep["hypotheses_pass"], "hypotheses fail"
    assert all(c["holds"] == "yes" for c in rep["conclusions"]), "conclusions"


def _check_battery(res, x):
    out = _expect(res, 0)["result"]
    assert not out["passed"], "x has a pole away from 3"
    w = out["witness"]
    P = w["prime"]
    c = Fraction(w["c"][0])
    assert oracles.vp(x, P["p"]) < 0 and w["c"][1] == "0", "pole and rational c"
    assert (c - 1) % 27 == 0, "c != 1 mod 27"
    assert not oracles.is_qth_power_residue(int(c), P["p"], P["f"], 3), "c is a cube mod P"


def _check_compile(st, res):
    _expect(res, 0)
    with open(st.system) as fh:
        system = json.load(fh)["ast"]["system"]
    x, w, b = Fraction(3), Fraction(2), Fraction(5)
    assignment = oracles.square_trick_assignment(system["variables"], x, w, b)
    eqs, ineqs = oracles.eval_json_system(system, assignment)
    assert all(v == 0 for v in eqs) and all(v != 0 for v in ineqs), "witness"


def _check_ec_mul(res, a, P, n):
    r = _expect(res, 0)["result"]
    assert (Fraction(r["x"]), Fraction(r["y"])) == oracles.ec_mul(P, n, a), f"[{n}]P"


def _check_lemmas(res):
    out = _expect(res, 0)
    k = out["divisor_search"]["k"]
    P = (Fraction(3), Fraction(5))
    dens = [oracles.ec_mul(P, j, 0)[0].denominator for j in range(1, k + 1)]
    assert dens[-1] % 4 == 0 and all(d % 4 for d in dens[:-1]), "least k with 4 | d(x_k)"


def _check_cyclic(res, q, m, code):
    out = _expect(res, code)
    step = max(q ** m, 4) if q == 2 else q ** m
    if code:
        assert out["error"] == "SearchExhausted", out
        # the obstruction: ell = 1 mod 8 makes 2 a square mod ell
        assert all(oracles.legendre(2, ell) == 1 for ell in range(17, 2000, 8)
                   if oracles.is_prime(ell))
        return
    ell = out["ell"]
    auxiliary = [e for e in range(1 + step, ell + 1, step) if oracles.is_prime(e)
                 and pow(q, (e - 1) // q, e) != 1]
    assert auxiliary and auxiliary[0] == ell, "not the least auxiliary prime"
    poly = out["field"]["period_poly"]
    assert len(poly) == q ** m + 1 and Fraction(poly[-1]) == 1, "period polynomial"


def ops(st):
    a, c, P = st.curve
    curve = json.dumps({"a": a, "c": c})
    point = json.dumps({"x": int(P[0]), "y": int(P[1])})
    commands = [
        ("field factor", ["field", "factor", "--poly", "[1,1,1]", "--p", str(st.field_p)],
         lambda r: _check_factor(r, st.field_p)),
        ("tower classify", ["tower", "classify", "--recipe", "five-power", "--prime",
                            str(st.tower_p), "--q", "2", "--depth", "3"],
         lambda r: _check_tower(r, st.tower_p)),
        ("verify prop", ["verify", "prop", "--kind", "badprime", "--spec", st.spec,
                         "--prime", "7"], _check_prop),
        ("normeq battery", ["normeq", "battery", "--x", json.dumps(str(st.battery_x)),
                            "--q", "3", "--field", "[1,1,1]"],
         lambda r: _check_battery(r, st.battery_x)),
        ("compile", ["compile", "--variant", "eqC", "--q", "2", "--out", st.system],
         lambda r: _check_compile(st, r)),
        ("ec mul", ["ec", "mul", "--curve", curve, "--point", point, "--n", str(st.ec_n)],
         lambda r: _check_ec_mul(r, a, P, st.ec_n)),
        ("ec lemmas", ["ec", "lemmas", "--curve", '{"a": 0, "c": -2}',
                       "--point", '{"x": 3, "y": 5}'], _check_lemmas),
    ]
    for q, m, code in CYCLIC:
        commands.append((f"cyclic construct {q} {m}",
                         ["cyclic", "construct", "--q", str(q), "--m", str(m)],
                         lambda r, q=q, m=m, code=code: _check_cyclic(r, q, m, code)))
    return [Op(label, lambda args=args: _run(st, args), check, " ".join(args))
            for label, args, check in commands]


def layer_extras(st, lats):
    n = len(ops(st))
    rounds = [sum(st.stdout_bytes[i:i + n]) for i in range(0, len(st.stdout_bytes), n)]
    return {"cli.stdout_bytes": statistics.median(rounds)}


def cleanup(st):
    shutil.rmtree(st.work, ignore_errors=True)
