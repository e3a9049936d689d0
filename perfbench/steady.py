#!/usr/bin/env python3
"""Steadiness check for the lpp benchmark.

    python3 perfbench/steady.py                      # 10 seeds x every workload
    python3 perfbench/steady.py --runs 5 --workloads serve-cold --first-seed 101

Runs each workload once per seed (untraced), then prints, for every
end-to-end metric in BENCHMARK.json, the median and quartiles of the runs
and the interquartile spread as a share of the median next to the metric's
bound, plus the share of failed operations. A spread of at most a third of
the bound is marked "ok".
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
    r = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit("steady: %s seed %d exited with %d" % (workload, seed, r.returncode))
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    a = ap.parse_args()
    for w in a.workloads:
        results = []
        for k in range(a.runs):
            seed = a.first_seed + k
            res = run_once(w, seed, a.seconds)
            if not res["correct"]:
                sys.exit("steady: %s seed %d reported incorrect output" % (w, seed))
            results.append(res)
            print("%s seed %d: %s" % (w, seed, json.dumps(res["metrics"])), file=sys.stderr)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print("\n%s: %d runs, failed share %s" % (w, len(results), " ".join("%.6f" % s for s in shares)))
        print("  %-18s %12s %12s %12s %8s %7s" % ("metric", "q1", "median", "q3", "spread", "bound"))
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else ("within" if spread <= m["bound"] else "WIDE")
            print("  %-18s %12.5g %12.5g %12.5g %7.2f%% %6.1f%% %s" % (
                m["name"], q1, med, q3, 100 * spread, 100 * m["bound"], verdict))


if __name__ == "__main__":
    main()
