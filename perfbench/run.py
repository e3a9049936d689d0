#!/usr/bin/env python3
"""Run one workload of the lpp benchmark.

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --generate      # remake perfbench/inputs/

Run from the root of a source checkout. Builds `lpp` and the benchmark
program `lppbench` with dune, then runs it; its last line of standard output
is the result object. Exits non-zero without a result when the program
cannot be built or a run breaks.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LPP = os.path.join("_build", "default", "bin", "lpp.exe")
LPPBENCH = os.path.join("_build", "default", "perfbench", "src", "lppbench.exe")
RUN_DIR = ".perfbench-run"
WORKLOADS = ("serve-hot", "serve-cold", "offline-dbpedia")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.exists(os.path.join(ROOT, "dune-project")) or not os.path.exists(
        os.path.join(ROOT, "bin", "lpp.ml")
    ):
        fail("no lpp source tree around %s to build" % HERE)
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "./bin/lpp.exe", "./perfbench/src/lppbench.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=700)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if r.returncode != 0:
        fail("build failed (dune exited with %d)" % r.returncode)


def reap(pgid):
    """Stop whatever is left of lppbench's process group and wait for it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(pgid, sig)
        except ProcessLookupError:
            return
        deadline = time.time() + 5
        while time.time() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.05)


def one_cpu():
    """Pin lppbench and every process it starts to one CPU. The client,
    the server's reader and its worker then hand requests to each other on
    that CPU; left free, the scheduler sometimes places them on different
    CPUs for a whole run, and best-case round trips shift by up to a quarter
    between otherwise identical runs."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def drive(args, timeout):
    os.makedirs(os.path.join(ROOT, RUN_DIR), exist_ok=True)
    p = subprocess.Popen([LPPBENCH] + args, cwd=ROOT, start_new_session=True, preexec_fn=one_cpu)
    try:
        code = p.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        reap(p.pid)
        p.wait()
        fail("the run did not finish within %d s" % timeout)
    reap(p.pid)
    return code


def run_seconds():
    """The run length BENCHMARK.json sets, or 20 s without it."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--generate", action="store_true", help="remake the stored inputs")
    a = ap.parse_args()
    build()
    if a.generate:
        sys.exit(drive(["gen", os.path.join("perfbench", "inputs")], timeout=1800))
    if a.workload is None:
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    sys.exit(
        drive(
            [
                "run",
                "--workload", a.workload,
                "--seed", str(a.seed),
                "--seconds", str(a.seconds),
                "--trace", str(a.trace),
                "--lpp", LPP,
                "--inputs", os.path.join("perfbench", "inputs"),
                "--run-dir", RUN_DIR,
            ],
            timeout=170,
        )
    )


if __name__ == "__main__":
    main()
