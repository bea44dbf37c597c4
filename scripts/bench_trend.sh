#!/usr/bin/env bash
# Diff two bench summaries (JSON lines from the criterion shim's --json
# mode, e.g. BENCH_net.json or BENCH_phy.json) and print a markdown trend
# table, flagging regressions.
#
# A row's delta is taken on `median_ns` when both sides record it, else
# on `mean_ns` (summaries written before the shim recorded a median); the
# table names which. A row that moved past the threshold is flagged only
# when the two sides' sample ranges `[min_ns, max_ns]` do not overlap;
# otherwise it reads "within spread", since the quick tier's few samples
# on a shared runner can move a median or mean that far by chance. A row
# without `min_ns` and `max_ns` on both sides is judged on its delta
# alone.
#
#   usage: scripts/bench_trend.sh BASE.json HEAD.json [threshold_pct]
#
# BASE is typically the copy committed on the base branch
# (`git show origin/main:BENCH_net.json > base.json`), so the comparison
# works offline. Output goes to stdout (CI appends it to
# $GITHUB_STEP_SUMMARY). Exit code is always 0: the quick tier runs on
# shared runners, so the table informs rather than gates. Benchmarks
# present on only one side are listed as added/removed.
set -euo pipefail

base="${1:?usage: bench_trend.sh BASE.json HEAD.json [threshold_pct]}"
head="${2:?usage: bench_trend.sh BASE.json HEAD.json [threshold_pct]}"
threshold="${3:-25}"

name="$(basename "$head")"

# Degrade gracefully when there is nothing to compare against (the file
# is not committed on the base branch yet, or was renamed): note it and
# succeed, so the trend table never blocks a PR it cannot inform.
if [ ! -s "$base" ]; then
  echo "## Bench trend vs base: $name"
  echo
  echo "No base bench summary to compare against (missing or empty:" \
    "\`$base\`); skipping the trend table."
  exit 0
fi
if [ ! -s "$head" ]; then
  echo "## Bench trend vs base: $name"
  echo
  echo "No head bench summary was produced (missing or empty:" \
    "\`$head\`); skipping the trend table."
  exit 0
fi

jq -n -r \
  --slurpfile base "$base" \
  --slurpfile head "$head" \
  --argjson threshold "$threshold" \
  --arg name "$name" '
  def by_name(rows): rows | map({key: .bench, value: .}) | from_entries;
  def centre: .median_ns // .mean_ns;
  def apart($b; $h):
    if [$b.min_ns, $b.max_ns, $h.min_ns, $h.max_ns] | any(. == null) then true
    else $h.min_ns > $b.max_ns or $h.max_ns < $b.min_ns end;
  (by_name($base)) as $b | (by_name($head)) as $h |
  ($b + $h | keys | sort) as $names |
  ($names | map(
    . as $n |
    if ($b[$n] and $h[$n]) then
      (if $b[$n].median_ns and $h[$n].median_ns then "median" else "mean" end) as $stat |
      $b[$n][$stat + "_ns"] as $base | $h[$n][$stat + "_ns"] as $head |
      (($head / $base - 1) * 100) as $delta |
      { name: $n, stat: $stat, base: $base, head: $head, delta: $delta,
        flag: (if ($delta | fabs) < $threshold then ""
               elif apart($b[$n]; $h[$n]) | not then "within spread"
               elif $delta > 0 then "🔺 regression"
               else "🟢 improvement" end) }
    elif $h[$n] then
      { name: $n, stat: "—", base: null, head: ($h[$n] | centre), delta: null, flag: "new" }
    else
      { name: $n, stat: "—", base: ($b[$n] | centre), head: null, delta: null, flag: "removed" }
    end
  )) as $rows |
  def fmt_ns: if . == null then "—"
    elif . >= 1e6 then (. / 1e6 * 100 | round / 100 | tostring) + " ms"
    elif . >= 1e3 then (. / 1e3 * 100 | round / 100 | tostring) + " µs"
    else (. | round | tostring) + " ns" end;
  def fmt_delta: if . == null then "—"
    else (if . >= 0 then "+" else "" end) + (. * 10 | round / 10 | tostring) + "%" end;
  ([$rows[] | select(.flag == "🔺 regression")] | length) as $n_reg |
  "## Bench trend vs base: \($name) (threshold ±\($threshold)%)",
  "",
  (if $n_reg > 0 then "**\($n_reg) regression(s) above threshold, outside the sample spread.**"
   else "No regressions above threshold." end),
  "",
  "| benchmark | statistic | base | head | Δ | |",
  "|---|---|---:|---:|---:|---|",
  ($rows[] | "| \(.name) | \(.stat) | \(.base | fmt_ns) | \(.head | fmt_ns) | \(.delta | fmt_delta) | \(.flag) |")
'
