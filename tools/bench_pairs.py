"""Alternating benchmark pairs of a parent commit and the working tree.

    python3 tools/bench_pairs.py --parent HEAD~1 --out BENCH_31.json \
        --workload verdicts --workload fields --pairs 10 --first-seed 3101 --seconds 8
    python3 tools/bench_pairs.py --table BENCH_31.json

Run from the root of a normforge checkout.  The parent is copied with
`git archive`; the working tree is copied file by file from `git ls-files`
(tracked and untracked, ignored files left out), so no `__pycache__` or
`perfbench/out/` enters either side.  Each pair runs `perfbench/run.py
--trace 0` once per side with the same seed, the parent first on odd seeds,
and `--setup-probes K` adds K alternating direct `--setup-probe` runs per
side, unscaled.  The output file holds every run, and per workload and
end-to-end metric the median and quartiles of each side, the pairs the
change won (ties count for neither side) and the claim rule: the change
wins at least nine tenths of the pairs, and the medians differ by more than
the parent's interquartile distance.  The table printed at the end is the
one a change log quotes.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def copy_parent(sha, dest):
    os.makedirs(dest)
    subprocess.run(["tar", "-x", "-C", dest], input=git("archive", sha), check=True)


def copy_worktree(dest):
    for name in git("ls-files", "-z", "-co", "--exclude-standard").decode().split("\0"):
        src = os.path.join(ROOT, name)
        if name and os.path.isfile(src):  # a tracked file deleted in the tree is left out
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, name))


def run_py(tree, *args):
    """Last stdout line of perfbench/run.py in `tree`, as JSON."""
    res = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree,
                         capture_output=True, text=True, timeout=1800)
    if res.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(args)} in {tree} failed:\n{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent, change, lower_is_better=True):
    """Medians, quartiles, pairs won and the claim rule for paired runs."""
    sign = 1 if lower_is_better else -1
    won = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    out = {"parent": summary(parent), "change": summary(change), "pairs": len(parent),
           "pairs_won": won}
    pm, cm = out["parent"]["median"], out["change"]["median"]
    out["delta_pct"] = 100 * (cm - pm) / pm if pm else None
    out["claim_holds"] = (10 * won >= 9 * len(parent)
                          and sign * (pm - cm) > out["parent"]["q3"] - out["parent"]["q1"])
    return out


def bench_workload(trees, workload, seeds, seconds, probes, better):
    runs = []
    for seed in seeds:
        order = SIDES if seed % 2 else SIDES[::-1]
        run = {"seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_py(trees[side], "--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", "0")
        runs.append(run)
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{side} wall_s {run[side]['metrics']['wall_s']['value']:.4g}" for side in SIDES),
            file=sys.stderr)
    metrics = {name: compare([r["parent"]["metrics"][name]["value"] for r in runs],
                             [r["change"]["metrics"][name]["value"] for r in runs],
                             better[name] == "lower")
               for name in better}
    out = {"seeds": list(seeds), "runs": runs, "metrics": metrics,
           "all_correct": all(r[s]["correct"] and not r[s]["failed"] for r in runs for s in SIDES)}
    if probes:
        times = {side: [] for side in SIDES}
        for k in range(probes):
            for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                times[side].append(run_py(trees[side], "--setup-probe", "--workload", workload,
                                          "--seed", str(seeds[0]))["setup_s"])
        out["setup_probe_s"] = dict(compare(times["parent"], times["change"]), runs=times)
    return out


def cell(m):
    def side(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
    delta = f"{m['delta_pct']:+.1f}%" if m["delta_pct"] is not None else "n/a"
    return f"{side(m['parent'])} → {side(m['change'])}, {delta}, {m['pairs_won']}/{m['pairs']}"


def table(bench):
    names = list(next(iter(bench["workloads"].values()))["metrics"])
    lines = [f"| workload | seeds | {' | '.join(names)} |", "|---" * (len(names) + 2) + "|"]
    for workload, w in bench["workloads"].items():
        seeds = f"{w['seeds'][0]}–{w['seeds'][-1]}"
        lines.append(f"| {workload} | {seeds} | "
                     + " | ".join(cell(w["metrics"][n]) for n in names) + " |")
    for workload, w in bench["workloads"].items():
        if "setup_probe_s" in w:
            lines.append(f"\n{workload} direct --setup-probe runs: {cell(w['setup_probe_s'])}")
    claims = [f"{w} {n}" for w, data in bench["workloads"].items()
              for n, m in data["metrics"].items() if m["claim_holds"]]
    lines.append("\nclaim rule holds for: " + (", ".join(claims) or "none"))
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", help="commit to compare the working tree against")
    ap.add_argument("--out", help="JSON file to write, such as BENCH_<n>.json")
    ap.add_argument("--workload", action="append", help="repeat for several workloads")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8)
    ap.add_argument("--setup-probes", type=int, default=0)
    ap.add_argument("--table", metavar="JSON", help="print the table of a written file and stop")
    args = ap.parse_args(argv)
    if args.table:
        with open(args.table) as fh:
            print(table(json.load(fh)))
        return 0
    if not (args.parent and args.out and args.workload):
        ap.error("--parent, --out and --workload are needed unless --table is given")
    if args.pairs < 2 or args.setup_probes == 1:
        ap.error("quartiles need at least two runs per side")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    parent_sha = git("rev-parse", args.parent).decode().strip()
    head_sha = git("rev-parse", "HEAD").decode().strip()
    dirty = bool(git("status", "--porcelain").strip())
    bench = {"parent": parent_sha, "change": head_sha + ("+worktree" if dirty else ""),
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "seconds": args.seconds, "pairs": args.pairs, "workloads": {}}
    seeds = range(args.first_seed, args.first_seed + args.pairs)
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as work:
        trees = {side: os.path.join(work, side) for side in SIDES}
        copy_parent(parent_sha, trees["parent"])
        copy_worktree(trees["change"])
        for workload in args.workload:
            bench["workloads"][workload] = bench_workload(trees, workload, seeds, args.seconds,
                                                          args.setup_probes, better)
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    print(table(bench))
    return 0


if __name__ == "__main__":
    sys.exit(main())
