#!/usr/bin/env bash
# Compare the stdout of the digest-checked examples at BASE_REF against
# the working tree.
#
# Usage: scripts/stdout_diff.sh BASE_REF [WORK_DIR]
#
# Exports BASE_REF with `git archive` into WORK_DIR/base (default: a fresh
# temporary directory) and builds its examples into WORK_DIR/target-base,
# so the two builds never share a target directory; the working tree
# builds into its usual target directory. Each example then runs at seed
# 42 on both sides; stdout and stderr land in WORK_DIR/out, and a
# non-zero exit status is appended to the stdout file so a crash counts
# as a difference. Prints a markdown SAME/DIFF table of the stdout (one
# row per example) and exits 1 when any output differs, 2 on a usage or
# build error. Re-running with the same WORK_DIR and BASE_REF reuses the
# base build.
set -euo pipefail

base_ref=${1:?usage: scripts/stdout_diff.sh BASE_REF [WORK_DIR]}
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

examples=(hospital_ward closed_loop_ward mobile_ward scheduler_shootout
          coex_shootout soak_ward campus_smoke run_experiments)
seed=42

rev=$(git -C "$root" rev-parse --verify --quiet "$base_ref^{commit}") \
    || { echo "stdout_diff: unknown ref '$base_ref'" >&2; exit 2; }

# Export the base tree once per revision; keeping the files (and their
# mtimes) lets cargo reuse the base build on a re-run.
if [ "$(cat "$work/base.rev" 2>/dev/null)" != "$rev" ]; then
    rm -rf "$work/base"
    mkdir -p "$work/base"
    git -C "$root" archive "$rev" | tar -x -C "$work/base"
    echo "$rev" > "$work/base.rev"
fi

example_flags=()
for ex in "${examples[@]}"; do
    example_flags+=(--example "$ex")
done

head_target=${CARGO_TARGET_DIR:-$root/target}
(cd "$work/base" && cargo build --release --quiet "${example_flags[@]}" \
    --target-dir "$work/target-base") || exit 2
(cd "$root" && cargo build --release --quiet "${example_flags[@]}" \
    --target-dir "$head_target") || exit 2

mkdir -p "$work/out"
status=0
echo "| example | base ${rev:0:12} vs working tree |"
echo "|---|---|"
# run_example BINARY OUT_PREFIX: one seed-42 run, exit status kept in
# the stdout file.
run_example() {
    "$1" "$seed" > "$2.txt" 2> "$2.err" || echo "[exit status $?]" >> "$2.txt"
}
for ex in "${examples[@]}"; do
    run_example "$work/target-base/release/examples/$ex" "$work/out/$ex.base"
    run_example "$head_target/release/examples/$ex" "$work/out/$ex.head"
    if cmp -s "$work/out/$ex.base.txt" "$work/out/$ex.head.txt"; then
        echo "| $ex | SAME |"
    else
        echo "| $ex | DIFF |"
        status=1
    fi
done
exit "$status"
