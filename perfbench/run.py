#!/usr/bin/env python3
"""Build and run the LDX benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

builds perfbench/ldxbench.exe with dune, runs one workload and relays
its result: the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The exit code is
non-zero when the build fails (no result is printed then) or when any
output check failed.

Two more modes, for interactive use:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25
        runs the four workloads and prints every end-to-end metric in
        its own row, with units.
    python3 perfbench/run.py --self-check
        corrupts one expectation per workload and requires each run to
        report failed ops and exit non-zero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ["analyze", "campaign", "service", "incremental"]
EXE = "perfbench/ldxbench.exe"
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root):
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--profile", "release", "./" + EXE]
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("build failed: %s" % e)
        return None
    if proc.returncode != 0:
        log("build failed (exit %d)" % proc.returncode)
        return None
    return os.path.join(root, "_build", "default", EXE)


def run_one(root, exe, workload, seed, seconds, trace, perturb=False):
    """Run one workload; returns (exit code, parsed result or None)."""
    out_dir = os.path.join(root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", out_dir]
    if perturb:
        cmd.append("--perturb")
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out" % workload)
        return 1, None
    finally:
        # never leave the workload running behind us
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = [l for l in stdout.splitlines() if l.strip()]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return proc.returncode or 1, None
    return proc.returncode, result


def report(root, exe, seed, seconds):
    rows, status = [], 0
    for w in WORKLOADS:
        code, res = run_one(root, exe, w, seed, seconds, 0)
        if res is None:
            return 1
        status |= code
        m = res["metrics"]
        failed_ratio = res["failed"] / max(1, res["attempted"])
        for name in ["ops_per_s", "latency_p50_ms", "latency_tail_ms",
                     "setup_s", "peak_rss_mb"]:
            rows.append((w, name, m[name]["value"], m[name]["unit"]))
        rows.append((w, "failed_ratio", failed_ratio, "ratio"))
    print("%-12s %-16s %14s  %s" % ("workload", "metric", "value", "unit"))
    for w, name, v, unit in rows:
        print("%-12s %-16s %14.4f  %s" % (w, name, v, unit))
    return status


def self_check(root, exe, seed):
    ok = True
    for w in WORKLOADS:
        code, res = run_one(root, exe, w, seed, 1, 0, perturb=True)
        caught = code != 0 and res is not None and res["failed"] > 0
        ok &= caught
        ratio = res["failed"] / max(1, res["attempted"]) if res else float("nan")
        print("%-12s perturbed expectation: exit %d, failed_ratio %.4f -> %s"
              % (w, code, ratio, "caught" if caught else "MISSED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    root = os.getcwd()
    exe = build(root)
    if exe is None:
        return 2
    if args.self_check:
        return self_check(root, exe, args.seed)
    if args.workload == "all":
        return report(root, exe, args.seed, args.seconds)
    code, res = run_one(root, exe, args.workload, args.seed, args.seconds,
                        args.trace)
    if res is None:
        return code or 1
    print(json.dumps(res), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
