"""normforge benchmark: one seeded workload per run, outputs checked.

    python3 perfbench/run.py --workload fields --seed 1 --seconds 25 --trace 0

Run from the root of a normforge checkout.  A run repeats whole rounds of the
workload's fixed list of operations until --seconds have passed, checks every
output against the oracles in oracles.py, and prints one JSON object as the
last line of stdout: `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1).
A run report with the failures, seed, commit, Python version and CPU count
goes to perfbench/out/.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7
CAL_REF_S = 0.019  # calibrate() on the reference machine (2 vCPU, CPython 3.11)
CAL_EVERY_S = 0.5

sys.path.insert(0, HERE)

WORKLOADS = ("fields", "verdicts", "descent", "cli")


def workload_module(name):
    import importlib

    return importlib.import_module(f"workloads.{name}")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("NORMFORGE_SEED", None)
    return env


def setup_probe(workload, seed):
    """Child mode: time importing normforge and building the inputs."""
    sys.path.insert(0, SRC)
    mod = workload_module(workload)
    raw = mod.inputs(seed)
    t0 = time.perf_counter()
    state = mod.build(raw)
    elapsed = time.perf_counter() - t0
    getattr(mod, "cleanup", lambda s: None)(state)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(workload, seed, scaled):
    """Median set-up time over fresh interpreters (one unmeasured warm-up
    fills the bytecode cache), scaled and unscaled."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    before = calibrate() if scaled else CAL_REF_S
    for i in range(SETUP_REPEATS + 1):
        res = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                             text=True, timeout=120)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr[-2000:]}")
        if i:
            times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    scale = CAL_REF_S / ((before + calibrate()) / 2) if scaled else 1.0
    return statistics.median(times) * scale, statistics.median(times)


def calibrate():
    """Seconds taken by a fixed pure-Python kernel that runs no normforge
    code: the machine's current speed."""
    t0 = time.perf_counter()
    acc, table, s = Fraction(0), {}, 0
    for i in range(1, 1500):
        acc += Fraction(i % 97, i)
        table[i % 257] = table.get(i % 257, 0) + i * i
    for i in range(100_000):
        s += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Scales measured seconds to the reference speed.

    The machine's speed drifts by +-25% over tens of seconds (other tenants,
    frequency), as much for this kernel as for normforge.  The kernel runs
    at least every CAL_EVERY_S seconds; a time measured between two kernel
    runs is multiplied by CAL_REF_S over their mean.  Unscaled, the kernel
    never runs and the factor is 1.
    """

    def __init__(self, scaled):
        self.scaled = scaled
        self.kernel_times = []
        self.last = self._kernel()
        self.at = time.perf_counter()
        self.pending = []  # (entry, raw seconds) measured since the last kernel run

    def _kernel(self):
        if not self.scaled:
            return CAL_REF_S
        seconds = calibrate()
        self.kernel_times.append(seconds)
        return seconds

    def add(self, entry, seconds):
        self.pending.append((entry, seconds))
        if time.perf_counter() - self.at >= CAL_EVERY_S:
            return self.flush()
        return []

    def flush(self):
        now = self._kernel()
        scale = CAL_REF_S / ((self.last + now) / 2)
        self.last, self.at = now, time.perf_counter()
        out = [(entry, seconds * scale, seconds) for entry, seconds in self.pending]
        self.pending = []
        return out


def run_rounds(ops, seconds, log, scaled):
    """Whole rounds of ops until `seconds` have passed (at least one round).

    Returns per-round wall times (sum of op latencies) and the (label,
    seconds) latency of every operation that did not fail, both at the
    reference speed when `scaled`; failures, check errors and the raw (unscaled) figures
    go to log.
    """
    walls, lats = [], []
    clock = Clock(scaled)
    start = time.perf_counter()
    while True:
        gc.collect()  # every round starts from the same collector state
        timed = []
        for op in ops:
            log["attempted"] += 1
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as ex:  # a failed operation is counted, not fatal
                timed += clock.add(None, time.perf_counter() - t0)
                log["failed"] += 1
                key = (op.label, op.desc, type(ex).__name__)
                log["failures"][key] = log["failures"].get(key, 0) + 1
                continue
            timed += clock.add(op.label, time.perf_counter() - t0)
            try:
                op.check(out)
            except Exception as ex:  # any check error makes the run incorrect
                log["check_errors"].append({"op": op.label, "input": op.desc,
                                            "error": f"{type(ex).__name__}: {ex}",
                                            "trace": traceback.format_exc(limit=4)})
        timed += clock.flush()
        walls.append(sum(t for _, t, _ in timed))
        lats += [(label, t) for label, t, _ in timed if label is not None]
        log["raw_walls"].append(sum(raw for _, _, raw in timed))
        log["raw_lats"] += [raw for label, _, raw in timed if label is not None]
        log["kernel_s"] += clock.kernel_times
        clock.kernel_times = []
        if time.perf_counter() - start >= seconds:
            return walls, lats


def percentile(values, q):
    """Nearest-rank percentile: a measured value, never an interpolation
    between two kinds of operation."""
    ranked = sorted(values)
    return ranked[max(0, math.ceil(q * len(ranked)) - 1)]


def end_to_end(walls, lats, rss_mb, setup_s):
    lats = [dt for _, dt in lats]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "op_p50_ms": {"value": 1000 * percentile(lats, 0.5), "unit": "ms"},
        "op_p90_ms": {"value": 1000 * percentile(lats, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "normforge", "__init__.py")):
        print(f"no normforge sources under {SRC}; run from a normforge checkout",
              file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    import oracles

    oracles.self_check()
    sys.path.insert(0, SRC)
    mod = workload_module(args.workload)
    setup_s, raw_setup_s = measure_setup(args.workload, args.seed, mod.IN_PROCESS)
    state = mod.build(mod.inputs(args.seed))
    ops = mod.ops(state)
    log = {"attempted": 0, "failed": 0, "failures": {}, "check_errors": [],
           "raw_walls": [], "raw_lats": [], "kernel_s": []}
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace == 0:
            walls, lats = run_rounds(ops, args.seconds, log, mod.IN_PROCESS)
            usage = resource.RUSAGE_SELF if mod.IN_PROCESS else resource.RUSAGE_CHILDREN
            rss_mb = resource.getrusage(usage).ru_maxrss / 1024
            metrics = end_to_end(walls, lats, rss_mb, setup_s)
            raw = end_to_end(log["raw_walls"], [(None, t) for t in log["raw_lats"]],
                             rss_mb, raw_setup_s)
            log["unscaled"] = {k: v["value"] for k, v in raw.items()}
        else:
            import tracing

            plain, _ = run_rounds(ops, args.seconds / 2, log, mod.IN_PROCESS)
            tracer = tracing.Tracer()
            state.tracer = tracer
            tracer.install()
            try:
                traced, lats = run_rounds(ops, args.seconds / 2, log, mod.IN_PROCESS)
            finally:
                tracer.uninstall()
            agg = tracing.merge([tracer.aggregates()] + getattr(state, "child_aggregates", []))
            values = tracing.layer_metrics(agg, len(traced))
            values.update(getattr(mod, "layer_extras", lambda st, lats: {})(state, lats))
            values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            tracer.write_spans(os.path.join(OUT, f"spans-{tag}.json"))
            units = per_layer_units()
            # a layer the workload never reaches reads 0
            metrics = {k: {"value": values.get(k, 0), "unit": units[k]} for k in units}
    finally:
        getattr(mod, "cleanup", lambda s: None)(state)

    by_label = {}
    for label, dt in lats:
        by_label.setdefault(label, []).append(dt)
    correct = not log["check_errors"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "correct": correct,
        "attempted": log["attempted"], "failed": log["failed"],
        "ops_per_round": len(ops), "round_walls": log["raw_walls"],
        "kernel_ms": 1000 * statistics.median(log["kernel_s"]) if log["kernel_s"] else None,
        "unscaled_metrics": log.get("unscaled"),
        "failures": [{"op": op, "input": desc, "exception": exc, "count": n}
                     for (op, desc, exc), n in sorted(log["failures"].items())],
        "check_errors": log["check_errors"][:20], "metrics": metrics,
        "ops_ms": {label: statistics.median(dts) * 1000 for label, dts in sorted(by_label.items())},
    }
    with open(os.path.join(OUT, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for err in log["check_errors"][:5]:
        print(f"check error: {err['op']} on {err['input']}: {err['error']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": log["attempted"],
                      "failed": log["failed"], "metrics": metrics}))
    return 0


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
