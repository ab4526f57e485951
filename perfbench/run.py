#!/usr/bin/env python3
"""Build PyTond from source and run its end-to-end benchmark.

Run from the root of a source tree:

  python3 perfbench/run.py --workload analytic --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --all                 # every workload, untraced then traced
  python3 perfbench/run.py --compare A.json B.json

One run measures one workload in its own process and prints every metric by
name with its unit; its last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". The full report (run stamp
and every metric) and, for traced runs, the spans are written to
perfbench/out/. --compare diffs two such reports and refuses reports taken
with a different parallel mode, core count or scale factor.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["analytic", "notebook", "dashboard"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, **kw):
    """Run cmd to completion; on timeout kill it and wait for it to end."""
    proc = subprocess.Popen(cmd, **kw)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        die("%s timed out after %ds" % (cmd[0], timeout), 1)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            die("no %s here: run from the root of a PyTond source tree" % need)
    # keep every build artefact inside the tree (no shared dune cache)
    env = dict(os.environ, DUNE_CACHE="disabled")
    code = run(["dune", "build", "./perfbench/main.exe"], BUILD_TIMEOUT_S,
               env=env, stdout=sys.stderr, stderr=sys.stderr)
    if code != 0:
        die("build failed", 1)


def revision():
    if not os.path.isdir(".git"):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10
                              ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_workload(workload, seed, seconds, trace):
    sys.stdout.flush()
    return run([EXE, "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--rev", revision()], RUN_TIMEOUT_S)


def compare(a_path, b_path):
    a, b = (json.load(open(p)) for p in (a_path, b_path))
    for key in ("parallel_mode", "cores", "sf", "workload"):
        if a["stamp"][key] != b["stamp"][key]:
            die("refusing to compare: %s differs (%s vs %s)"
                % (key, a["stamp"][key], b["stamp"][key]))
    print("%-34s %14s %14s %8s" % ("metric", "A", "B", "B/A"))
    for name, m in sorted(a["metrics"].items()):
        if name in b["metrics"]:
            va, vb = m["value"], b["metrics"][name]["value"]
            r = "%8.3f" % (vb / va) if va else "%8s" % "-"
            print("%-34s %14.6g %14.6g %s %s" % (name, va, vb, r, m["unit"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    if not (args.all or args.workload):
        die("give --workload, --all or --compare")
    build()
    if not args.all:
        sys.exit(run_workload(args.workload, args.seed, args.seconds,
                              args.trace))
    worst = 0
    for w in WORKLOADS:
        for trace in (0, 1):
            print("\n== %s, trace %d ==" % (w, trace), flush=True)
            worst = max(worst, run_workload(w, args.seed, args.seconds, trace))
    sys.exit(worst)


if __name__ == "__main__":
    main()
