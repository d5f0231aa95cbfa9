#!/usr/bin/env bash
# Paired substrate A/B: times the `substrate` bench binary of a base
# revision and of this checkout on the same host, interleaved, and compares
# them cell by cell. Unlike the absolute-baseline gate in scripts/ci.sh
# (which compares against microseconds recorded on another host), both
# sides here see the same machine and the same load.
#
# Usage: scripts/bench_ab.sh <base-rev> [rounds]
#
# - The base revision is built in a scratch `git worktree` (removed at
#   exit); this checkout's working tree is built as it stands.
# - The two binaries run alternately `rounds` times (default 3), base
#   first; each cell's figure is its minimum over the rounds (interference
#   only ever slows a run down).
# - Prints base and head us/iter and the head/base ratio per cell, and
#   exits 1 if any cell is more than 1.25x slower at head (the same
#   tolerance as the absolute gate). Cells present on one side only are
#   listed, not failed.
#
# Environment:
#   BENCH_SUBSTRATE_ITERS  iteration scale passed to both binaries
#                          (default: smoke)
#   BENCH_AB_DIR           scratch directory for the worktree, both build
#                          trees and the per-round JSON (default: mktemp -d,
#                          removed at exit)
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev="${1:?usage: scripts/bench_ab.sh <base-rev> [rounds]}"
rounds="${2:-3}"
tolerance=1.25
base_sha="$(git rev-parse --verify "$base_rev^{commit}")"

if [ -n "${BENCH_AB_DIR:-}" ]; then
    work="$BENCH_AB_DIR"
    mkdir -p "$work"
    keep=1
else
    work="$(mktemp -d)"
    keep=0
fi
worktree="$work/base-src"
cleanup() {
    git worktree remove --force "$worktree" 2>/dev/null || true
    git worktree prune
    if [ "$keep" = 0 ]; then rm -rf "$work"; fi
}
trap cleanup EXIT

# Build the substrate bench of the tree at $1 into target dir $2 and print
# the path of the bench executable.
build_bench() {
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo bench --offline -q -p puno-bench \
        --bench substrate --no-run --message-format=json) \
        | grep -o '"executable":"[^"]*substrate[^"]*"' | tail -n 1 | cut -d'"' -f4
}

git worktree add --detach "$worktree" "$base_sha" > /dev/null
echo "== building base ${base_sha:0:12}"
base_bin="$(build_bench "$worktree" "$work/target-base")"
echo "== building head (working tree)"
head_bin="$(build_bench "$PWD" "$work/target-head")"
[ -x "$base_bin" ] && [ -x "$head_bin" ] || { echo "bench build failed"; exit 1; }

export BENCH_SUBSTRATE_ITERS="${BENCH_SUBSTRATE_ITERS:-smoke}"
# Run a bench executable as `cargo bench` would: from its package root.
run_bench() { # <src-root> <executable> <json-out>
    (cd "$1/crates/bench" && BENCH_SUBSTRATE_JSON="$3" "$2" --bench > /dev/null)
}
for i in $(seq 1 "$rounds"); do
    echo "== round $i/$rounds"
    run_bench "$worktree" "$base_bin" "$work/base.$i.json"
    run_bench "$PWD" "$head_bin" "$work/head.$i.json"
done

# Flat {"name": us, ...} lines from every round -> min per (side, cell)
# -> one sorted "cell base head" row per cell ("-" where a side lacks it).
for side in base head; do
    for i in $(seq 1 "$rounds"); do
        sed -n "s/^ *\"\([^\"]*\)\": *\([0-9.eE+-]*\),\{0,1\}$/$side \1 \2/p" "$work/$side.$i.json"
    done
done | awk '
    { if (!(($1, $2) in best) || $3 < best[$1, $2]) best[$1, $2] = $3; cells[$2] = 1 }
    END {
        for (c in cells) {
            b = (("base", c) in best) ? best["base", c] : "-"
            h = (("head", c) in best) ? best["head", c] : "-"
            print c, b, h
        }
    }' | sort | awk -v tol="$tolerance" '
    BEGIN { printf "%-44s %12s %12s %8s\n", "cell (min us/iter)", "base", "head", "ratio" }
    $2 == "-" || $3 == "-" { printf "%-44s %s\n", $1, ($2 == "-" ? "head only" : "base only"); next }
    {
        r = $3 / $2
        flag = ""
        if (r > tol) { flag = "  REGRESSION"; failed++ }
        printf "%-44s %12.3f %12.3f %7.3fx%s\n", $1, $2, $3, r, flag
    }
    END {
        if (failed) { printf "%d cell(s) more than %.2fx slower at head\n", failed, tol; exit 1 }
        printf "no cell more than %.2fx slower at head\n", tol
    }'
