"""Steadiness check: two sets of runs of one commit, compared per metric.

    python3 perfbench/steady.py [--workloads fields,cli] [--runs 10] [--sets 2]

Runs perfbench/run.py --trace 0 `runs` times per set and workload, each run
with its own seed (set 1 uses seeds 1..runs, set 2 the next runs seeds), and
prints for every workload and end-to-end metric each set's median and
quartiles, the spread (quartile distance over the median), the drift of the
second median over the first, and whether both stay within the metric's
bound in BENCHMARK.json.  The spread of setup_s is shown but not held to the
bound.  The share of failed operations must be the same in every run.
Exits 1 when anything is out of bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr[-1000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--save", help="write every run's result to this JSON file")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = range(s * args.runs + 1, (s + 1) * args.runs + 1)
            sets.append([run_once(workload, seed, args.seconds) for seed in seeds])
            print(f"{workload}: set {s + 1} done", file=sys.stderr)
        results[workload] = sets
        runs = [r for runs in sets for r in runs]
        shares = {(r["failed"], r["attempted"]) for r in runs}
        share_set = {f / a for f, a in shares}
        correct = all(r["correct"] for r in runs)
        line_ok = correct and len(share_set) == 1
        ok &= line_ok
        print(f"\n{workload}: correct={correct} failed share={sorted(share_set)} "
              f"({'ok' if line_ok else 'FAIL'})")
        for name, bound in bounds.items():
            cells, spreads, medians = [], [], []
            for runs in sets:
                q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
                spreads.append((q3 - q1) / med)
                medians.append(med)
                cells.append(f"med {med:.5g} [{q1:.5g}, {q3:.5g}] spread {spreads[-1]:.3f}")
            good = name == "setup_s" or all(s <= bound for s in spreads)
            drift = medians[1] / medians[0] - 1 if len(medians) == 2 else 0.0
            good &= drift <= bound
            ok &= good
            print(f"  {name:12s} bound {bound:.2f}  " + "  |  ".join(cells)
                  + (f"  drift {drift:+.3f}" if len(medians) == 2 else "")
                  + f"  {'ok' if good else 'OUT'}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(results, fh)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
