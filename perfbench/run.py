#!/usr/bin/env python3
"""Build and run the secmgpu benchmark.

From the root of a checkout:

    python3 perfbench/run.py --workload fig21-sweep --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

The Go program in perfbench/ is built from source into .bench_build/,
which also holds the Go build cache, temporary files and the traced
runs' spans, so a run reads and writes nothing outside the checkout.
Each workload runs in a process of its own; the last line printed is the
workload's JSON result (with --workload all, a combined result whose
metric names are prefixed with the workload). An untraced run also starts
set-up-only processes of the workload and reports the median set-up time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["fig21-sweep", "fig25-16gpu", "campaign-loopback"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT = 850
# A workload's processes must end within --seconds plus this margin; the
# program stops itself 10 s sooner after it starts (its runMargin).
RUN_MARGIN = 150
# An untraced run starts this many set-up-only processes besides the
# workload's own; setup_s is the median of their set-up times.
SETUP_PROCS = 4


def default_seconds():
    """run_seconds from BENCHMARK.json, so a bare run measures what the
    benchmark definition says."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)["run_seconds"]


def go_env():
    """The environment for go and for the benchmark: every cache and temp
    directory inside .bench_build, no network, no toolchain download."""
    env = dict(os.environ)
    for var, sub in [
        ("GOCACHE", "gocache"),
        ("GOMODCACHE", "gomodcache"),
        ("GOPATH", "gopath"),
        ("GOTMPDIR", "tmp"),
        ("TMPDIR", "tmp"),
        ("XDG_CONFIG_HOME", "config"),
    ]:
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[var] = path
    env.update(GOFLAGS="", GOPROXY="off", GOTOOLCHAIN="local", GOWORK="off", GOENV="off")
    return env


def build(env):
    cmd = ["go", "build", "-o", BINARY, "."]
    try:
        res = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return False
    if res.returncode != 0:
        print(f"perfbench: build failed (exit {res.returncode})", file=sys.stderr)
        return False
    return True


def run_proc(env, cmd, deadline):
    """Runs one benchmark process and returns its exit code, its output
    and its result line (None when it printed none)."""
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, env=env, timeout=max(deadline - time.monotonic(), 1),
            stdout=subprocess.PIPE, text=True,
        )
    except subprocess.TimeoutExpired as e:
        print(f"perfbench: {cmd[2]} was killed at the deadline", file=sys.stderr)
        return 1, e.stdout or "", None
    lines = res.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return res.returncode, res.stdout, result


def run_workload(env, args, workload):
    """Runs one workload and prints its output; returns its exit code and
    result line. An untraced run's setup_s is the median over the
    workload's process and SETUP_PROCS set-up-only processes."""
    deadline = time.monotonic() + args.seconds + RUN_MARGIN
    cmd = [
        BINARY,
        "-workload", workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCS):
            rc, out, res = run_proc(env, cmd + ["-setup-only"], deadline)
            sys.stderr.write(out)
            if rc != 0 or res is None or not res["correct"]:
                print(f"perfbench: {workload} set-up-only process failed (exit {rc})", file=sys.stderr)
                return rc or 1, None
            setups.append(res["metrics"]["setup_s"]["value"])
    else:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["-spans", os.path.join(spans, f"{workload}-seed{args.seed}.json")]
    rc, out, res = run_proc(env, cmd, deadline)
    if res is None:
        sys.stdout.write(out)
        print(f"perfbench: {workload} printed no result (exit {rc})", file=sys.stderr)
        return rc or 1, None
    sys.stdout.write("".join(out.strip().splitlines(keepends=True)[:-1]))
    if setups and "setup_s" in res["metrics"]:
        setups.append(res["metrics"]["setup_s"]["value"])
        res["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print(f"setup_s over {len(setups)} processes: median {statistics.median(setups):.6g} s of "
              + " ".join(f"{s:.4g}" for s in setups))
    return rc, res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="length of the timed phase (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds is None:
        args.seconds = default_seconds()

    env = go_env()
    if not build(env):
        return 2
    if args.workload != "all":
        code, res = run_workload(env, args, args.workload)
        if res is None:
            return code
        print(json.dumps(res))
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in WORKLOADS:
        rc, res = run_workload(env, args, w)
        if res is None:
            return rc
        code = code or rc
        combined["correct"] = combined["correct"] and res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = m
    print(json.dumps(combined))
    return code


if __name__ == "__main__":
    sys.exit(main())
