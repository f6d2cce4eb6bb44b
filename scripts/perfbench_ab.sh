#!/usr/bin/env bash
# A/B-compares `perfbench` between a parent revision and the working
# tree: alternating pairs, which side runs first alternating, both
# pinned to one CPU, identical seed and duration. A gain holds when the
# working tree wins at least nine in ten pairs and the medians differ
# by more than the parent's interquartile range.
#
#   scripts/perfbench_ab.sh <parent-rev> <workload> <pairs> <seconds> <seed> [trace]
#
#   parent-rev  any git revision, e.g. HEAD~1
#   workload    compile | simulate | serve
#   pairs       number of alternating (parent, working tree) pairs
#   seconds     perfbench --seconds per run
#   seed        perfbench --seed
#   trace       0 (default): compare the end-to-end metrics;
#               1: run with --trace 1 and compare the per-layer metrics
#
# Both sides are built from copies in a temporary directory: the parent
# from `git archive`, the working tree (uncommitted edits included)
# from `git ls-files`, less the tracked files deleted from the checkout
# (which `--cached` still lists). Neither build touches the checkout, so
# `perfbench/` and its lock file stay as committed. Per metric the
# report gives each side's median and quartiles, the ratio of medians,
# how many pairs the working tree won (by the metric's `better`
# direction in BENCHMARK.json), and whether every run of both sides
# produced bit-identical values — the check `sim_*` must pass. Not run
# in CI: one call takes pairs x 2 x seconds plus the set-ups.
set -euo pipefail

if [[ $# -lt 5 || $# -gt 6 ]]; then
    sed -n '8,16p' "$0" >&2
    exit 2
fi
rev=$1 workload=$2 pairs=$3 seconds=$4 seed=$5 trace=${6:-0}

root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/perfbench_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/parent" "$work/tree"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
# A deleted tracked file appears in both listings, so keeping the paths
# listed once keeps exactly the files on disk.
(cd "$root" && { git ls-files -z --deleted; git ls-files -z --cached --others --exclude-standard; } |
    sort -z | uniq -z -u | tar --null -T - -c) | tar -x -C "$work/tree"

for side in parent tree; do
    echo "building perfbench ($side)" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/perfbench/Cargo.toml"
done

# Pin to the last CPU, away from CPU 0's interrupt load when there is
# a choice.
cpu=$(($(nproc) - 1))
run() {
    (cd "$work/$1" && taskset -c "$cpu" perfbench/target/release/perfbench \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" |
        tail -n 1) >>"$work/$1.jsonl"
}
for ((i = 0; i < pairs; i++)); do
    echo "pair $((i + 1))/$pairs" >&2
    if ((i % 2 == 0)); then
        run parent
        run tree
    else
        run tree
        run parent
    fi
done

python3 - "$root/BENCHMARK.json" "$work/parent.jsonl" "$work/tree.jsonl" <<'EOF'
import json
import statistics
import sys

bench = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
sides = [[json.loads(line) for line in open(path)] for path in sys.argv[2:4]]
for name, runs in zip(["parent", "tree"], sides):
    failed = sum(r["failed"] for r in runs)
    correct = all(r["correct"] for r in runs)
    print(f"{name}: {len(runs)} runs, correct {correct}, failed ops {failed}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def cell(q1, q2, q3):
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


print(f"{'metric':<28} {'parent median [q1, q3]':<36} {'tree median [q1, q3]':<36}"
      f" {'ratio':>6} {'wins':>6} identical")
for metric in sides[0][0]["metrics"]:
    if metric not in better:
        continue
    parent = [r["metrics"][metric]["value"] for r in sides[0]]
    tree = [r["metrics"][metric]["value"] for r in sides[1]]
    lower = better[metric] == "lower"
    wins = sum((t < p) if lower else (t > p) for p, t in zip(parent, tree))
    identical = len(set(map(repr, parent + tree))) == 1
    p_q, t_q = quartiles(parent), quartiles(tree)
    ratio = t_q[1] / p_q[1] if p_q[1] else float("nan")
    print(f"{metric:<28} {cell(*p_q):<36} {cell(*t_q):<36}"
          f" {ratio:>6.3f} {f'{wins}/{len(tree)}':>6} {identical}")
EOF
