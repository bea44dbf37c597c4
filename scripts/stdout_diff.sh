#!/usr/bin/env bash
# Compare the stdout of the digest-checked runs (the `NAME ARGS...` lines
# of scripts/digest_examples.txt) at BASE_REF against the working tree.
#
# Usage: scripts/stdout_diff.sh BASE_REF [WORK_DIR]
#
# Exports BASE_REF with `git archive` into WORK_DIR/base (default: a fresh
# temporary directory) and builds its examples into WORK_DIR/target-base,
# so the two builds never share a target directory; the working tree
# builds into its usual target directory. Each line then runs its example
# with its ARGS on both sides; stdout and stderr land in WORK_DIR/out, and
# a non-zero exit status is appended to the stdout file so a crash counts
# as a difference. An example the base does not have is not built there
# and its lines read `DIFF (missing at base)`. Prints a markdown SAME/DIFF
# table of the stdout (one row per line) and exits 1 when any output
# differs, 2 on a usage or build error. Re-running with the same WORK_DIR
# and BASE_REF reuses the base build.
set -euo pipefail

base_ref=${1:?usage: scripts/stdout_diff.sh BASE_REF [WORK_DIR]}
root=$(git rev-parse --show-toplevel)
work=${2:-$(mktemp -d)}
mkdir -p "$work"
work=$(cd "$work" && pwd)

mapfile -t runs < <(grep -Ev '^(#|$)' "$root/scripts/digest_examples.txt")

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

head_flags=()
base_flags=()
for name in $(printf '%s\n' "${runs[@]}" | cut -d' ' -f1 | sort -u); do
    head_flags+=(--example "$name")
    if [ -f "$work/base/examples/$name.rs" ]; then
        base_flags+=(--example "$name")
    fi
done

head_target=${CARGO_TARGET_DIR:-$root/target}
if [ "${#base_flags[@]}" -gt 0 ]; then
    (cd "$work/base" && cargo build --release --quiet "${base_flags[@]}" \
        --target-dir "$work/target-base") || exit 2
fi
(cd "$root" && cargo build --release --quiet "${head_flags[@]}" \
    --target-dir "$head_target") || exit 2

mkdir -p "$work/out"
status=0
echo "| run | base ${rev:0:12} vs working tree |"
echo "|---|---|"
# run_example BINARY OUT_PREFIX ARGS...: one run, exit status kept in the
# stdout file.
run_example() {
    local bin=$1 out=$2
    shift 2
    "$bin" "$@" > "$out.txt" 2> "$out.err" || echo "[exit status $?]" >> "$out.txt"
}
i=0
for line in "${runs[@]}"; do
    read -r -a words <<< "$line"
    name=${words[0]}
    out="$work/out/$i-$name"
    i=$((i + 1))
    if [ ! -f "$work/base/examples/$name.rs" ]; then
        echo "| \`$line\` | DIFF (missing at base) |"
        status=1
        continue
    fi
    run_example "$work/target-base/release/examples/$name" "$out.base" "${words[@]:1}"
    run_example "$head_target/release/examples/$name" "$out.head" "${words[@]:1}"
    if cmp -s "$out.base.txt" "$out.head.txt"; then
        echo "| \`$line\` | SAME |"
    else
        echo "| \`$line\` | DIFF |"
        status=1
    fi
done
exit "$status"
