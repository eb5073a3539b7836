#!/usr/bin/env bash
# Benchmark an earlier revision against this checkout in alternating pairs.
#
#     scripts/bench_pairs.sh REV WORKLOAD SECONDS SEED...
#
# Exports REV into a temporary directory and, for each SEED, runs
# `perfbench/run.py --workload WORKLOAD --seconds SECONDS --seed SEED
# --trace 0` once in REV's tree and once in this checkout, each side with its
# own perfbench/ and src/.  REV runs first for the first seed, this checkout
# for the second, and so on.  The working tree is measured as it stands,
# uncommitted edits included.  Both sides import structsolve once before the
# first pair, so the compiled kernel is built outside the timed runs.
#
# Prints one line per run (side, seed, wall seconds, correct, failed
# operations and every end-to-end metric), then per metric the median of each
# side, REV's quartiles, and in how many pairs this checkout was better by
# the direction BENCHMARK.json gives (ties count for neither side), and last
# each side's median wall seconds.  A run stops on its timed (busy) seconds,
# so work that a change moves out of the timed window, such as building
# arrays after each operation, shows in the wall seconds alone.  Exits 0 when every run
# is correct with no failed operation, 1 otherwise, and 2 on a usage or setup
# error.  The temporary directory is removed on exit.
set -euo pipefail

usage() {
    echo "usage: $0 REV WORKLOAD SECONDS SEED..." >&2
    exit 2
}
[ $# -ge 4 ] || usage
here=$(cd "$(dirname "$0")/.." && pwd)
rev=$(git -C "$here" rev-parse --verify --quiet "$1^{commit}") || {
    echo "$0: not a commit: $1" >&2
    exit 2
}
workload=$2
seconds=$3
shift 3
# a number with a nonzero digit is positive
[[ $seconds =~ ^[0-9]+([.][0-9]+)?$ && $seconds =~ [1-9] ]] || {
    echo "$0: SECONDS must be a positive number, got $seconds" >&2
    exit 2
}
for seed in "$@"; do
    [[ $seed =~ ^[0-9]+$ ]] || {
        echo "$0: SEED must be a non-negative integer, got $seed" >&2
        exit 2
    }
done

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/tree"
git -C "$here" archive "$rev" | tar -x -C "$tmp/tree" || exit 2
for root in "$tmp/tree" "$here"; do
    python3 -c 'import sys; sys.path.insert(0, sys.argv[1]); import structsolve' \
        "$root/src" || exit 2
done

# run SIDE ROOT SEED: the result line of one run, saved as $tmp/SIDE-SEED.json,
# and its wall seconds as $tmp/SIDE-SEED.wall
run() {
    local start
    start=$(date +%s.%N)
    (cd "$2" && python3 perfbench/run.py --workload "$workload" --seed "$3" \
        --seconds "$seconds" --trace 0 2>"$tmp/$1-$3.err") \
        | tail -n 1 > "$tmp/$1-$3.json" || true
    echo "$start $(date +%s.%N)" | awk '{ printf "%.3f\n", $2 - $1 }' > "$tmp/$1-$3.wall"
}

summary() {
    python3 - "$tmp" "$here/BENCHMARK.json" "$@" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

tmp, bench, mode, *seeds = sys.argv[1:]
better = {m["name"]: m["better"] for m in json.loads(Path(bench).read_text())["end_to_end"]}


def load(side, seed):
    try:
        return json.loads(Path(tmp, f"{side}-{seed}.json").read_text())
    except (OSError, ValueError):
        return None


def wall(side, seed):
    return float(Path(tmp, f"{side}-{seed}.wall").read_text())


def line(side, seed):
    res = load(side, seed)
    head = f"{side:6} seed={seed} wall_s={wall(side, seed):.1f}"
    if res is None:
        err = Path(tmp, f"{side}-{seed}.err").read_text().strip().splitlines()
        return f"{head} no result: {err[-1] if err else 'no output'}"
    metrics = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
    return (f"{head} correct={str(res['correct']).lower()} "
            f"failed={res['failed']}/{res['attempted']} {metrics}")


if mode == "line":
    print(line(*seeds), flush=True)
    sys.exit(0)

runs = {side: [load(side, s) for s in seeds] for side in ("rev", "here")}
ok = all(r is not None and r["correct"] and r["failed"] == 0
         for side in runs.values() for r in side)
pairs = [(a, b) for a, b in zip(runs["rev"], runs["here"]) if a and b]
print(f"{len(pairs)} pairs; per metric: median rev, median here, "
      f"rev quartiles, pairs where here is better")
for name, direction in better.items():
    rev = [a["metrics"][name]["value"] for a, _ in pairs]
    new = [b["metrics"][name]["value"] for _, b in pairs]
    if not rev:
        break
    sign = 1 if direction == "higher" else -1
    wins = sum(sign * (b - a) > 0 for a, b in zip(rev, new))
    q = statistics.quantiles(rev, n=4) if len(rev) > 1 else [rev[0]] * 3
    print(f"{name:22} {statistics.median(rev):.6g} -> {statistics.median(new):.6g}"
          f"  rev q1..q3 {q[0]:.6g}..{q[2]:.6g}  better {wins}/{len(pairs)}")
walls = {side: statistics.median(wall(side, s) for s in seeds) for side in ("rev", "here")}
print(f"{'wall_s':22} {walls['rev']:.1f} -> {walls['here']:.1f}  (median per run, "
      f"setup and untimed work included)")
print("all runs correct with no failed operation" if ok else "SOME RUNS FAILED")
sys.exit(0 if ok else 1)
EOF
}

first=rev
for seed in "$@"; do
    if [ "$first" = rev ]; then order="rev here"; first=here; else order="here rev"; first=rev; fi
    for side in $order; do
        if [ "$side" = rev ]; then run rev "$tmp/tree" "$seed"; else run here "$here" "$seed"; fi
        summary line "$side" "$seed"
    done
done
summary all "$@"
