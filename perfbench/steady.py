#!/usr/bin/env python3
"""Steadiness check: runs the benchmark in sets of runs and compares them.

Usage, from the root of a checkout of the repository:

    python3 perfbench/steady.py [--workloads fig3-paper,serve-loopback]
                                [--runs 10] [--sets 2] [--seconds S]
                                [--out results.json]

Each set runs every workload --runs times, each run with its own --seed.
For every end-to-end metric it prints each set's median and quartiles,
the spread (upper minus lower quartile, as a share of the median) and
whether that spread stays within a third of the metric's bound in
BENCHMARK.json. With two or more sets it also prints how far each later
set's median moved from the first set's in the metric's worse
direction, and whether that stays within the bound. Each set's highest
host steal share (CPU time the hypervisor gave to other guests during a
run, from /proc/stat) is printed too. It exits 1 when a spread or a
move exceeds its bound, when a run fails, or when the share of failed
operations differs between sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    steal0, total0 = cpu_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    steal1, total1 = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"steady: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"steady: {workload} seed {seed} produced incorrect output")
    # Share of CPU time the hypervisor gave to other guests during the
    # run: the main source of run-to-run spread on a shared host.
    result["steal"] = (steal1 - steal0) / max(total1 - total0, 1)
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("steady: --runs must be at least 2")

    metrics = bench["end_to_end"]
    results = {}  # workload -> [set -> [result]]
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * k + 17 * i + 1
                runs.append(run_once(workload, seed, args.seconds))
                print(f"# {workload} set {k} run {i} seed {seed} steal {runs[-1]['steal']:.3f}: "
                      + json.dumps({m: v["value"] for m, v in runs[-1]["metrics"].items()}),
                      file=sys.stderr, flush=True)
            sets.append(runs)
        results[workload] = sets

        print(f"\n{workload}: {args.sets} set(s) of {args.runs} runs, {args.seconds} s each")
        print(f"  {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            first = None
            for k, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med if med else float("inf")
                verdicts = []
                if name != "setup_s":
                    steady = spread <= bound / 3
                    verdicts.append("steady" if steady else "SPREAD > bound/3")
                    ok &= spread <= bound
                if first is None:
                    first = med
                else:
                    worse = (med - first) / first if lower else (first - med) / first
                    agree = worse <= bound
                    ok &= agree
                    verdicts.append(f"moved {worse:+.3f} " + ("ok" if agree else "BEYOND BOUND"))
                print(f"  {name:<16} {k:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{spread:>8.4f} {bound:>6}  {', '.join(verdicts)}")
        steal = [max(r["steal"] for r in runs) for runs in sets]
        print(f"  highest host steal share of a run, per set: {[round(x, 3) for x in steal]}")
        shares = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        print(f"  failed share per set: {shares}")
        if any(s != shares[0] or len(s) != 1 for s in shares):
            ok = False
            print("  FAILED SHARE DIFFERS")

    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    print("\nall comparisons within bounds" if ok else "\nSOME COMPARISONS FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
