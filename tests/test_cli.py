"""CLI surfaces: JSON reports, exit codes, determinism."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from normforge.cli import main

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

README_SPEC = {
    "field": {"poly": ["1", "1", "1"]},
    "q": 3,
    "variant": "XBC",
    "x": ["1/7", "0"],
    "b": ["1/7", "0"],
    "c": ["82", "0"],
}


def run_module(args):
    """Run `python -m normforge.cli` in a fresh process on this checkout's source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "normforge.cli", *args],
                          capture_output=True, text=True, cwd=SRC, env=env, timeout=60)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_field_factor(capsys):
    code, out = run_cli(["field", "factor", "--poly", "[1,1,1]", "--p", "7"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["sum_ef"] == 2
    assert len(report["primes"]) == 2


def test_field_factor_domain_error(capsys):
    # x^2 - 5 is not maximal at 2: domain error, exit 1, JSON error report
    code, out = run_cli(["field", "factor", "--poly", "[-5,0,1]", "--p", "2"], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "NonMonogenicAtP"


def test_unknown_subcommand_exit_2():
    proc = run_module(["frobnicate"])
    assert proc.returncode == 2


def test_tower_classify(capsys):
    code, out = run_cli(
        ["tower", "classify", "--recipe", "five-power-cyclotomic",
         "--prime", "2", "--q", "2", "--depth", "3"], capsys)
    assert code == 0
    report = json.loads(out)
    cert = report["certificate"]
    assert cert["classification"] == "completelyQBounded"
    assert cert["bounding_order"] == 2


def test_cyclic_construct(capsys):
    code, out = run_cli(["cyclic", "construct", "--q", "3", "--m", "1"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["ell"] == 7
    assert report["field"]["period_poly"] == ["-1", "-2", "1", "1"]


def test_ec_mul(capsys):
    code, out = run_cli(
        ["ec", "mul", "--curve", '{"a": 0, "c": -2}', "--point", '{"x": 3, "y": 5}',
         "--n", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"] == {"x": "129/100", "y": "-383/1000"}


def test_normeq_battery(capsys):
    code, out = run_cli(
        ["normeq", "battery", "--x", '"1/7"', "--q", "3", "--field", "[1,1,1]"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["result"]["passed"] is False
    assert report["result"]["witness"]["c"] == ["82", "0"]


def test_compile_cli(capsys):
    code, out = run_cli(["compile", "--variant", "eqC", "--q", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    prefix = report["ast"]["prefix"]
    assert [p[0] for p in prefix[:2]] == ["forall", "forall"]


@pytest.mark.parametrize("q", ["0", "1", "4"])
def test_compile_rejects_q_not_prime(q):
    # q = 4 would run for minutes and reduce by 1 + Gamma + Gamma^2 + Gamma^3,
    # which is not Phi_4; q = 1 would print a system
    proc = run_module(["compile", "--variant", "eqC", "--q", q])
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert (report["error"], report["message"]) == ("NormforgeError", "q must be prime")


@pytest.mark.parametrize("command", [["verify", "prop", "--kind", "badprime", "--prime", "7",
                                      "--spec"],
                                     ["normeq", "analyze", "--instance"]])
def test_tower_commands_reject_q_not_prime(tmp_path, capsys, command):
    # q = 4 over Q(i): the prime-only rules would report on an invalid instance
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(README_SPEC, field={"poly": ["1", "0", "1"]}, q=4)))
    code, out = run_cli(command + [str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == ("NormforgeError", "q must be prime")


@pytest.mark.parametrize("q", ["9", "4"])
def test_battery_rejects_q_not_prime(capsys, q):
    # q = 9 would claim that every unit of F_13 is a 9th power; q = 4 failed late
    code, out = run_cli(["normeq", "battery", "--x", '"1/13"', "--q", q], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == ("NormforgeError", "q must be prime")


PRIME_ARGS = {
    "field factor --p": ["field", "factor", "--poly", "[1,1,1]", "--p", "{v}"],
    "tower grow --prime": ["tower", "grow", "--recipe", "five-power", "--prime", "{v}",
                           "--depth", "2"],
    "tower classify --prime": ["tower", "classify", "--recipe", "five-power", "--prime", "{v}",
                               "--q", "2", "--depth", "2"],
    "tower classify --q": ["tower", "classify", "--recipe", "five-power", "--prime", "2",
                           "--q", "{v}", "--depth", "2"],
    "verify prop --prime": ["verify", "prop", "--kind", "badprime", "--spec", "{spec}",
                            "--prime", "{v}"],
    "normeq battery --q": ["normeq", "battery", "--x", '"1/7"', "--q", "{v}",
                           "--field", "[1,1,1]"],
    "compile --q": ["compile", "--variant", "eqC", "--q", "{v}"],
    "cyclic construct --q": ["cyclic", "construct", "--q", "{v}", "--m", "1"],
}


@pytest.mark.parametrize("value", ["0", "1", "9"])
@pytest.mark.parametrize("name", sorted(PRIME_ARGS))
def test_every_prime_argument_rejects_non_primes(tmp_path, name, value):
    # 1 made the tower commands loop forever, 0 raised ZeroDivisionError and 9
    # grew a tree; each run is a fresh process under run_module's timeout
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(README_SPEC))
    args = [a.replace("{spec}", str(path)).replace("{v}", value) for a in PRIME_ARGS[name]]
    proc = run_module(args)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"] == "NormforgeError"


@pytest.mark.parametrize("index", ["2", "5", "-1"])
def test_verify_prop_rejects_prime_index_out_of_range(tmp_path, capsys, index):
    # 7 splits into two primes in Q(zeta_3); -1 used to verify the last one
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(README_SPEC))
    code, out = run_cli(["verify", "prop", "--kind", "badprime", "--spec", str(path),
                         "--prime", "7", "--prime-index", index], capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "NormforgeError"
    assert report["message"] == f"--prime-index {index} is not in [0, 2): 2 primes lie above 7"


def test_ec_lemmas_rejects_m_below_one(capsys):
    # [0]P is the point at infinity, so m = 0 used to search to the bound
    code, out = run_cli(["ec", "lemmas", "--curve", '{"a": 0, "c": -2}',
                         "--point", '{"x": 3, "y": 5}', "--m", "0"], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == ("NormforgeError", "m must be a positive integer")


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_ec_lemmas_rejects_bound_below_one(capsys, bound):
    # an empty search range used to be reported as a failed search (NotFound)
    code, out = run_cli(["ec", "lemmas", "--curve", '{"a": 0, "c": -2}',
                         "--point", '{"x": 3, "y": 5}', "--bound", bound], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == ("NormforgeError",
                                                    "k_max must be a positive integer")


@pytest.mark.parametrize("command", [["grow"], ["classify", "--q", "2"]])
def test_tower_commands_reject_a_negative_depth(capsys, command):
    # depth -1 used to slice the recipe from its end: a root-only tree, exit 0
    args = ["tower", *command, "--recipe", "five-power", "--prime", "2"]
    code, out = run_cli(args + ["--depth", "-1"], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == ("NormforgeError", "depth -1 is negative")
    code, out = run_cli(args + ["--depth", "0"], capsys)
    assert code == 0
    assert len(json.loads(out)["tree"]["nodes"]) == 1


def test_determinism_byte_identical(tmp_path):
    outs = []
    for _ in range(2):
        proc = run_module(["normeq", "battery",
                           "--x", '"1/7"', "--q", "3", "--field", "[1,1,1]"])
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_prop_cli(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(README_SPEC))
    code, out = run_cli(
        ["verify", "prop", "--kind", "badprime", "--spec", str(path), "--prime", "7"],
        capsys)
    assert code == 0
    report = json.loads(out)
    assert report["report"]["hypotheses_pass"] is True
    assert all(c["holds"] == "yes" for c in report["report"]["conclusions"])


def test_tower_grow_and_recipe_alias(capsys):
    code, out = run_cli(
        ["tower", "grow", "--recipe", "five-power", "--prime", "5", "--depth", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    es = [n["e"] for n in report["tree"]["nodes"]]
    assert es == [1, 4, 20]


def test_normeq_analyze_cli(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(README_SPEC))
    code, out = run_cli(["normeq", "analyze", "--instance", str(path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"]["verdict"] == "unsolvable"
    assert any(e["verdict"]["verdict"] == "unsolvable" for e in report["ledger"]["entries"])


def test_normeq_analyze_cli_needs_mu_q(tmp_path, capsys):
    # over Q at q = 3 the layers are not Kummer extensions: a domain error
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(dict(README_SPEC, field={"poly": ["0", "1"]},
                                    x=["1/5"], b=["1"], c=["2"])))
    code, out = run_cli(["normeq", "analyze", "--instance", str(path)], capsys)
    assert code == 1
    report = json.loads(out)
    assert (report["error"], report["message"]) == (
        "MissingRootOfUnity", "Q[x]/(x) lacks a primitive 3-th root of unity")


def test_ec_lemmas_cli(capsys):
    code, out = run_cli(
        ["ec", "lemmas", "--curve", '{"a": 0, "c": -2}', "--point", '{"x": 3, "y": 5}',
         "--A", "4", "--m", "1", "--bound", "6"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["divisor_search"]["k"] == 2
    assert report["equiv_m"] >= 1


def test_depth_cap_must_be_positive(capsys):
    for cap in ("0", "-1"):
        code, out = run_cli(["--depth-cap", cap, "tower", "grow", "--recipe", "five-power",
                             "--prime", "5", "--depth", "1"], capsys)
        assert code == 1
        assert json.loads(out)["message"] == "depth_cap must be positive"


@pytest.mark.parametrize("args, digest", [
    (["verify", "prop", "--kind", "badprime", "--spec", "{spec}", "--prime", "7"],
     "09c076cd15e59aaf"),
    (["verify", "prop", "--kind", "fixorder", "--spec", "{spec}"], "77183dafcffefd8f"),
    (["normeq", "analyze", "--instance", "{spec}"], "c8b1b163d027fb32"),
    (["normeq", "battery", "--x", '"1/7"', "--q", "3", "--field", "[1,1,1]"],
     "590673b496f926e1"),
    (["normeq", "battery", "--x", '"1/5"', "--q", "2"], "ea6501a7ce07cdea"),
])
def test_verdict_reports_byte_pinned(tmp_path, capsys, args, digest):
    # SHA-256 prefixes of stdout on the README spec (Q(zeta_3), q = 3, x = b = 1/7, c = 82)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(README_SPEC))
    code, out = run_cli([a.format(spec=path) for a in args], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest


def test_zero_element_stand_in_byte_pinned(tmp_path, capsys):
    # over Q with q = 2, x = b = 1/5 and c = 1, the ledger tracks c - 1 = 0
    # with radical.tracked_node's stand-in valuation 10**9 for +infinity
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(README_SPEC, field={"poly": ["0", "1"]}, q=2,
                                    x=["1/5"], b=["1/5"], c=["1"])))
    code, out = run_cli(["normeq", "analyze", "--instance", str(path)], capsys)
    assert code == 0
    assert '"v": 1000000000' in out
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "87d5cb4e176597a4"


EC_ARGS = ["ec", "mul", "--curve", '{"a": 0, "c": -2}', "--point", '{"x": 3, "y": 5}']


@pytest.mark.parametrize("args, code, digest", [
    (["cyclic", "construct", "--q", "2", "--m", "2"], 0, "cb41457dc3da763c"),
    (["cyclic", "construct", "--q", "3", "--m", "1"], 0, "0c8cc2cff1118390"),
    (["cyclic", "construct", "--q", "3", "--m", "2"], 0, "c9312e6311737a91"),
    (["cyclic", "construct", "--q", "5", "--m", "1"], 0, "bff9f1d91f5f38a4"),
    (EC_ARGS + ["--n", "-3"], 0, "a798af08e9944392"),
    (EC_ARGS + ["--n", "7"], 0, "c8398243abecfaa2"),
    # the README spec is an XBC instance, so badprimeq refuses it as a domain error
    (["verify", "prop", "--kind", "badprimeq", "--spec", "{spec}", "--prime", "7"], 1,
     "ce9bc8b05418930f"),
])
def test_construction_reports_byte_pinned(tmp_path, capsys, args, code, digest):
    # SHA-256 prefixes of stdout, with the exit code
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(README_SPEC))
    got, out = run_cli([a.replace("{spec}", str(path)) for a in args], capsys)
    assert (got, hashlib.sha256(out.encode()).hexdigest()[:16]) == (code, digest)


def test_ec_mul_past_the_int_printing_limit_is_a_domain_error():
    # [70]P has a coordinate of 4,308 digits, past CPython's 4,300-digit
    # int-to-str limit: a domain error naming the size, not a usage error
    proc = run_module(EC_ARGS + ["--n", "70"])
    assert (proc.returncode, proc.stderr) == (1, "")
    report = json.loads(proc.stdout)
    assert report["error"] == "OutputTooLarge" and "4308 decimal digits" in report["message"]
    proc = run_module(EC_ARGS + ["--n", "60"])
    assert proc.returncode == 0
    assert hashlib.sha256(proc.stdout.encode()).hexdigest()[:16] == "ef88c44a271dd3d8"


def test_depth_cap_enforced(capsys):
    code, out = run_cli(["--depth-cap", "2", "tower", "grow", "--recipe", "five-power",
                         "--prime", "2", "--depth", "3"], capsys)
    assert code == 1
    assert "exceeds the cap" in json.loads(out)["message"]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(["field", "factor", "--poly", "[1,1,1]", "--p", "7",
                       "--out", str(target)], capsys)
    assert code == 0
    data = json.loads(target.read_text())
    assert data["sum_ef"] == 2


def test_recipe_from_json_file(tmp_path, capsys):
    recipe = {
        "name": "custom",
        "steps": [{"kind": "root_of_unity", "n": 5},
                  {"kind": "radical", "degree": 2, "element": "10"}],
        "annotations": {},
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(recipe))
    code, out = run_cli(["tower", "grow", "--recipe", str(path),
                         "--prime", "3", "--depth", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["tree"]["level_degrees"] == [1, 4, 8]


def test_verify_prop_hypothesis_failure_reported(tmp_path, capsys):
    bad = {
        "field": {"poly": ["1", "1", "1"]},
        "q": 3,
        "variant": "XBC",
        "x": ["1/7", "0"],
        "b": ["1/343", "0"],
        "c": ["82", "0"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, out = run_cli(
        ["verify", "prop", "--kind", "badprime", "--spec", str(path), "--prime", "7"],
        capsys)
    assert code == 1
    report = json.loads(out)
    assert report["error"] == "HypothesisFail"
    assert report["failed_hypotheses"] == [4, 5]
