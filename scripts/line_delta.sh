#!/usr/bin/env bash
# Print the net Rust line delta of the working tree against BASE_REF as a
# markdown table: lines added, removed and net in tracked `*.rs` files,
# one row per area (`crates/<name>`, `tests`, `examples`, `perfbench`,
# `src`; anything else as `other`) plus a total.
#
# Usage: scripts/line_delta.sh BASE_REF
#
# Counts come from `git diff --numstat --no-renames BASE_REF`, so
# uncommitted edits to tracked files count and untracked files do not
# (`git add -N FILE` makes a new file count before it is committed).
# Output goes to stdout (CI appends it to $GITHUB_STEP_SUMMARY). Exit
# code is always 0: the table informs rather than gates, and an unknown
# BASE_REF prints a note instead of a table.
set -uo pipefail

base_ref=${1:-}
if [ -z "$base_ref" ]; then
    echo "usage: scripts/line_delta.sh BASE_REF" >&2
    exit 0
fi
echo "## Rust line delta vs $base_ref"
echo
root=$(git rev-parse --show-toplevel 2>/dev/null)
if [ -z "$root" ] || ! git -C "$root" rev-parse --verify --quiet "$base_ref^{commit}" >/dev/null; then
    echo "Unknown base ref \`$base_ref\`; skipping the line delta."
    exit 0
fi

git -C "$root" diff --numstat --no-renames "$base_ref" -- '*.rs' | awk -F '\t' '
function area(path,   parts, n) {
    n = split(path, parts, "/")
    if (parts[1] == "crates" && n > 2) return "crates/" parts[2]
    if (n > 1 && (parts[1] == "tests" || parts[1] == "examples" ||
                  parts[1] == "perfbench" || parts[1] == "src")) return parts[1]
    return "other"
}
function row(name, a, d) {
    printf "| %s | %d | %d | %s%d |\n", name, a, d, (a - d > 0 ? "+" : ""), a - d
}
$1 != "-" {
    a = area($3)
    if (!(a in add)) keys[++n] = a
    add[a] += $1; del[a] += $2; total_add += $1; total_del += $2
}
END {
    print "| area | added | removed | net |"
    print "|---|---:|---:|---:|"
    # Insertion sort: a stable row order in any awk.
    for (i = 2; i <= n; i++) {
        k = keys[i]
        for (j = i - 1; j > 0 && keys[j] > k; j--) keys[j + 1] = keys[j]
        keys[j + 1] = k
    }
    for (i = 1; i <= n; i++) row(keys[i], add[keys[i]], del[keys[i]])
    row("**total**", total_add, total_del)
}'
exit 0
