#!/usr/bin/env python3
"""Build the benchmark and the cuckood daemon from this checkout, then run
one workload and pass its output through.

    python3 perfbench/run.py --workload wire-zipf-pipelined --seed 1 \
        --seconds 10 --trace 0

Run it from the root of the checkout. Everything it builds or writes goes
under .bench_build/ there, the Go build cache included, and the last line
of its output is the run's JSON result. It exits non-zero, printing no
result, when the build fails, and non-zero after the result when a
correctness check fails. See perfbench/WORKLOADS.md.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
# The run itself bounds its phases; this only stops a hung one.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="",
    )
    return env


def build(env):
    for d in ("gocache", "gomodcache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    steps = [
        (["go", "build", "-o", os.path.join(BUILD, "cuckood"), "./cmd/cuckood"], ROOT),
        (["go", "build", "-o", os.path.join(BUILD, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        try:
            r = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"run.py: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if r.returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)} in {cwd}", file=sys.stderr)
            return False
    return True


def commit():
    """The checkout's commit when it is a git work tree, read without git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build(go_env()):
        return 2
    cmd = [
        os.path.join(BUILD, "perfbench"),
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
        "-cuckood", os.path.join(BUILD, "cuckood"),
        "-out", os.path.join(BUILD, "results"),
        "-commit", commit(),
    ]
    # A session of its own lets a hung or interrupted run be stopped
    # together with the daemon it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: run exceeded {RUN_TIMEOUT_S}s; stopping it", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
