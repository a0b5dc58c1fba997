"""Command-line front end: JSON in, JSON out, deterministic output.

Exit codes: 0 success, 1 domain error (failed hypotheses, exhausted
searches, non-maximal orders and friends), 2 usage error.  Reports are
always well-formed JSON on stdout or at --out; big integers travel as
decimal strings.  --depth-cap (default 64) must be positive and bounds the
--depth of the tower commands.
"""

import argparse
import json
import sys
from fractions import Fraction

from .errors import ConclusionViolation, NormforgeError

SCHEMA_VERSION = 1


def _emit(report, out_path=None):
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _field(poly):
    """The number field of a decoded JSON coefficient list, ascending."""
    from .numberfield import NumberField
    from .polyq import UniPoly

    return NumberField(UniPoly.from_json(poly))


def _spec_elements(field, data):
    """(variant, elements) of a tower spec or norm-equation instance: the
    (x, b, c) coordinate lists, or (x, d, a) unless the variant is XBC."""
    variant = data.get("variant", "XBC")
    names = ("x", "b", "c") if variant == "XBC" else ("x", "d", "a")
    return variant, [field.element([Fraction(str(v)) for v in data[name]]) for name in names]


def _curve_and_point(args):
    """The curve of --curve and the point of --point on it."""
    from .elliptic import EllipticCurve

    curve = json.loads(args.curve)
    E = EllipticCurve(Fraction(str(curve["a"])), Fraction(str(curve["c"])))
    pt = json.loads(args.point)
    return E, E.point(Fraction(str(pt["x"])), Fraction(str(pt["y"])))


def cmd_field_factor(args):
    from .numberfield import splitting_type

    field = _field(json.loads(args.poly))
    primes = splitting_type(field, args.p)
    _emit(
        {
            "command": "field factor",
            "field": field.to_json(),
            "p": args.p,
            "primes": [P.to_json() for P in primes],
            "sum_ef": sum(P.e * P.f_deg for P in primes),
        },
        args.out,
    )
    return 0


def cmd_tower_grow(args):
    from .towers import grow_tree

    recipe = _load_recipe(args)
    tree = grow_tree(recipe, args.prime, args.depth)
    _emit({"command": "tower grow", "tree": tree.to_json()}, args.out)
    return 0


def cmd_tower_classify(args):
    from .towers import classify_prime, grow_tree

    recipe = _load_recipe(args)
    tree = grow_tree(recipe, args.prime, args.depth)
    cert = classify_prime(tree, args.q)
    _emit(
        {"command": "tower classify", "tree": tree.to_json(), "certificate": cert.to_json()},
        args.out,
    )
    return 0


def _load_recipe(args):
    from .towers import TowerRecipe, example_tower

    if args.recipe.endswith(".json"):
        with open(args.recipe) as fh:
            return TowerRecipe.from_json(json.load(fh))
    params = {}
    if getattr(args, "q", None) is not None:
        params["q"] = args.q
    if getattr(args, "m", None) is not None:
        params["m"] = args.m
    if getattr(args, "depth", None) is not None:
        params["depth"] = args.depth
    return example_tower(args.recipe, **params)


def _parse_element(field, text):
    data = json.loads(text)
    if isinstance(data, list):
        return field.element([Fraction(str(c)) for c in data])
    return field.element(Fraction(str(data)))


def cmd_verify_prop(args):
    from .numberfield import splitting_type
    from .radical import RadicalTowerSpec, verify_proposition

    with open(args.spec) as fh:
        data = json.load(fh)
    field = _field(data["field"]["poly"])
    variant, elems = _spec_elements(field, data)
    spec = RadicalTowerSpec(field, data["q"], variant, *elems,
                            nonsplit_certificate=data.get("nonsplit_certificate"))
    target = None
    if args.prime is not None:
        primes = splitting_type(field, args.prime)
        if not 0 <= args.prime_index < len(primes):
            raise NormforgeError(f"--prime-index {args.prime_index} is not in [0, {len(primes)}): "
                                 f"{len(primes)} primes lie above {args.prime}")
        target = primes[args.prime_index]
    report = verify_proposition(args.kind, spec, target)
    _emit({"command": "verify prop", "report": report.to_json()}, args.out)
    return 0


def cmd_normeq_analyze(args):
    from .normeq import NormEquationInstance, analyze

    with open(args.instance) as fh:
        data = json.load(fh)
    field = _field(data["field"]["poly"])
    variant, elems = _spec_elements(field, data)
    inst = NormEquationInstance(field, data["q"], *elems, variant=variant,
                                nonsplit_certificate=data.get("nonsplit_certificate"))
    verdict, ledger = analyze(inst)
    _emit(
        {
            "command": "normeq analyze",
            "instance": inst.to_json(),
            "verdict": verdict.to_json(),
            "ledger": ledger.to_json(),
        },
        args.out,
    )
    return 0


def cmd_normeq_battery(args):
    from .normeq import integrality_battery
    from .numberfield import NumberField

    if args.field:
        field = _field(json.loads(args.field))
    else:
        field = NumberField.rationals()
    x = _parse_element(field, args.x)
    result = integrality_battery(field, x, args.q)
    _emit({"command": "normeq battery", "result": result.to_json()}, args.out)
    return 0


def cmd_compile(args):
    from .compiler import compile_definition

    field = _field(json.loads(args.field)) if args.field else None
    ast = compile_definition(args.variant, args.q, field=field)
    _emit({"command": "compile", "ast": ast.to_json()}, args.out)
    return 0


def cmd_cyclic_construct(args):
    from .cyclic import find_auxiliary_ell, gaussian_period_subfield

    ell = find_auxiliary_ell(args.q, args.m)
    data = gaussian_period_subfield(ell, args.q ** args.m)
    _emit({"command": "cyclic construct", "ell": ell, "field": data.to_json()}, args.out)
    return 0


def cmd_ec_mul(args):
    from .elliptic import multiply_point

    E, P = _curve_and_point(args)
    R = multiply_point(E, P, args.n)
    _emit({"command": "ec mul", "curve": E.to_json(), "n": args.n, "result": R.to_json()},
          args.out)
    return 0


def cmd_ec_lemmas(args):
    from .elliptic import denominator_divisibility_search, find_equiv_m

    E, P = _curve_and_point(args)
    k = denominator_divisibility_search(E, P, args.A, args.m, k_max=args.bound)
    m_found = find_equiv_m(E, P, m_max=args.bound)
    _emit(
        {
            "command": "ec lemmas",
            "divisor_search": {"A": args.A, "m": args.m, "k": k},
            "equiv_m": m_found,
        },
        args.out,
    )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="normforge", description=__doc__)
    parser.add_argument("--depth-cap", type=int, dest="depth_cap", default=64)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("field", help="number field operations")
    fsub = p.add_subparsers(dest="subcommand")
    pf = fsub.add_parser("factor", help="splitting type of a prime")
    pf.add_argument("--poly", required=True, help="JSON coefficient list, ascending")
    pf.add_argument("--p", type=int, required=True)
    pf.add_argument("--out")
    pf.set_defaults(func=cmd_field_factor)

    p = sub.add_parser("tower")
    tsub = p.add_subparsers(dest="subcommand")
    tg = tsub.add_parser("grow")
    tg.add_argument("--recipe", required=True, help="catalog name or recipe.json path")
    tg.add_argument("--prime", type=int, required=True)
    tg.add_argument("--depth", type=int, required=True)
    tg.add_argument("--q", type=int)
    tg.add_argument("--m", type=int)
    tg.add_argument("--out")
    tg.set_defaults(func=cmd_tower_grow)
    tc = tsub.add_parser("classify")
    tc.add_argument("--recipe", required=True)
    tc.add_argument("--prime", type=int, required=True)
    tc.add_argument("--q", type=int, required=True)
    tc.add_argument("--depth", type=int, required=True)
    tc.add_argument("--m", type=int)
    tc.add_argument("--out")
    tc.set_defaults(func=cmd_tower_classify)

    p = sub.add_parser("verify")
    vsub = p.add_subparsers(dest="subcommand")
    vp = vsub.add_parser("prop")
    vp.add_argument("--kind", required=True,
                    choices=["badprime", "fixorder", "badprimeq", "fixorderq"])
    vp.add_argument("--spec", required=True, help="tower spec JSON path")
    vp.add_argument("--prime", type=int)
    vp.add_argument("--prime-index", type=int, default=0)
    vp.add_argument("--out")
    vp.set_defaults(func=cmd_verify_prop)

    p = sub.add_parser("normeq")
    nsub = p.add_subparsers(dest="subcommand")
    na = nsub.add_parser("analyze")
    na.add_argument("--instance", required=True, help="instance JSON path")
    na.add_argument("--out")
    na.set_defaults(func=cmd_normeq_analyze)
    nb = nsub.add_parser("battery")
    nb.add_argument("--x", required=True, help="JSON rational or coordinate list")
    nb.add_argument("--q", type=int, required=True)
    nb.add_argument("--field", help="JSON coefficient list of the defining polynomial")
    nb.add_argument("--out")
    nb.set_defaults(func=cmd_normeq_battery)

    p = sub.add_parser("compile")
    p.add_argument("--variant", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--field", help="defining polynomial for w realization (diffversion)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("cyclic")
    csub = p.add_subparsers(dest="subcommand")
    cc = csub.add_parser("construct")
    cc.add_argument("--q", type=int, required=True)
    cc.add_argument("--m", type=int, required=True)
    cc.add_argument("--out")
    cc.set_defaults(func=cmd_cyclic_construct)

    p = sub.add_parser("ec")
    esub = p.add_subparsers(dest="subcommand")
    em = esub.add_parser("mul")
    em.add_argument("--curve", required=True, help='JSON {"a": ..., "c": ...}')
    em.add_argument("--point", required=True, help='JSON {"x": ..., "y": ...}')
    em.add_argument("--n", type=int, required=True)
    em.add_argument("--out")
    em.set_defaults(func=cmd_ec_mul)
    el = esub.add_parser("lemmas")
    el.add_argument("--curve", required=True)
    el.add_argument("--point", required=True)
    el.add_argument("--A", type=int, default=4)
    el.add_argument("--m", type=int, default=1)
    el.add_argument("--bound", type=int, default=6)
    el.add_argument("--out")
    el.set_defaults(func=cmd_ec_lemmas)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        if args.depth_cap <= 0:
            raise NormforgeError("depth_cap must be positive")
        if getattr(args, "depth", None) is not None and args.depth > args.depth_cap:
            raise NormforgeError(f"depth {args.depth} exceeds the cap {args.depth_cap}")
        return args.func(args)
    except ConclusionViolation:
        raise  # bug sentinel: never converted to a report
    except NormforgeError as ex:
        report = {"error": type(ex).__name__, "message": str(ex)}
        if getattr(ex, "failed", None):
            report["failed_hypotheses"] = ex.failed
        if getattr(ex, "report", None) is not None:
            report["report"] = ex.report.to_json()
        _emit(report, getattr(args, "out", None))
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as ex:
        print(json.dumps({"error": "usage", "message": str(ex)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
