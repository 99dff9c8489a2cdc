#!/usr/bin/env python3
"""A/B the repo benchmark: this working tree against a base revision.

    python3 scripts/bench_ab.py --base HEAD~1 --workload wire-zipf-pipelined --pairs 10
    make bench-ab BASE=HEAD~1 WORKLOAD=wire-zipf-pipelined PAIRS=10

The base revision's committed files are exported (`git archive`) into a
temporary directory, removed on exit. Each pair runs the workload once in
each tree, through that tree's own perfbench/run.py, with the same seed
and BENCHMARK.json's run length; the side that runs first alternates from
pair to pair so slow drift in the host cancels out. Pair i (from 0) uses
seed 501 + i.

For every end-to-end metric that BENCHMARK.json gates, it prints each
side's median and quartiles, the change of the median, and how many pairs
this tree won, tied and lost. A metric meets the gain rule when this tree
wins at least nine tenths of the pairs and the medians differ by more
than the distance between the base's quartiles. Every run's result is
written to results/AB_<workload>.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 501


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_once(tree, workload, seed, seconds):
    """One perfbench run in tree; returns its final JSON line as a dict."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = r.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"bench_ab: no result from {' '.join(cmd)} in {tree} (exit {r.returncode})")
    res = json.loads(lines[-1])
    return {
        "exit": r.returncode,
        "correct": res.get("correct"),
        "attempted": res.get("attempted"),
        "failed": res.get("failed"),
        "metrics": {k: v["value"] for k, v in res.get("metrics", {}).items()},
    }


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def fmt_quartiles(d):
    return " ".join(f"{d[k]:>9.0f}" if abs(d[k]) >= 1e4 else f"{d[k]:>9.4g}"
                    for k in ("q1", "median", "q3"))


def summarize(pairs, gated):
    out = {}
    for m in gated:
        name, higher = m["name"], m["better"] == "higher"
        ab = [(p["base"]["metrics"].get(name), p["head"]["metrics"].get(name)) for p in pairs]
        ab = [(a, b) for a, b in ab if a is not None and b is not None]
        if not ab:
            continue
        wins = sum(1 for a, b in ab if (b > a if higher else b < a))
        ties = sum(1 for a, b in ab if a == b)
        bq = quartiles([a for a, _ in ab])
        hq = quartiles([b for _, b in ab])
        delta = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
        out[name] = {
            "better": m["better"],
            "base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "head": {"q1": hq[0], "median": hq[1], "q3": hq[2]},
            "median_change": delta,
            "wins": wins,
            "ties": ties,
            "losses": len(ab) - wins - ties,
            "gain_rule_met": wins >= 0.9 * len(ab) and abs(hq[1] - bq[1]) > bq[2] - bq[0],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--base", required=True, help="base revision (any git rev)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        raise SystemExit(f"bench_ab: unknown workload {args.workload!r}")
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", "--verify", args.base + "^{commit}")
    head_commit = git("rev-parse", "HEAD")
    head_dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    out_path = os.path.join(ROOT, "results", f"AB_{args.workload}.json")

    base_tree = tempfile.mkdtemp(prefix="bench-ab-")
    trees = {"base": base_tree, "head": ROOT}

    pairs = []
    try:
        archive = subprocess.Popen(["git", "archive", base_commit], cwd=ROOT, stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", base_tree], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"bench_ab: git archive {args.base} failed")
        for i in range(args.pairs):
            seed = FIRST_SEED + i
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, seconds)
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + "  ".join(
                f"{side} {pair[side]['metrics'].get('norm_server_cpu_us_per_op', float('nan')):.4g}"
                for side in ("base", "head")) + " norm_server_cpu_us_per_op", file=sys.stderr)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)

    summary = summarize(pairs, bench["end_to_end"])
    print(f"{args.workload}: {len(pairs)} pairs of {seconds} s, base {base_commit[:12]} vs "
          f"head {head_commit[:12]}{' (dirty)' if head_dirty else ''}")
    print(f"{'metric':<27} {'base q1 / median / q3':>29}  {'head q1 / median / q3':>29}"
          f"  change  win/tie/loss  gain")
    for name, s in summary.items():
        print(f"{name:<27} {fmt_quartiles(s['base'])}  {fmt_quartiles(s['head'])}  {s['median_change'] * 100:>+5.1f}%"
              f"  {s['wins']:>4}/{s['ties']}/{s['losses']:<6} {'yes' if s['gain_rule_met'] else 'no'}")
    bad = [(p["seed"], side) for p in pairs for side in ("base", "head")
           if not p[side]["correct"] or p[side]["failed"]]
    if bad:
        print(f"runs with failures or failed checks (seed, side): {bad}")

    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w") as f:
        json.dump({
            "workload": args.workload,
            "seconds": seconds,
            "base": {"rev": args.base, "commit": base_commit},
            "head": {"commit": head_commit, "dirty": head_dirty},
            "host": {"nproc": os.cpu_count()},
            "pairs": pairs,
            "summary": summary,
        }, f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(out_path, ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
