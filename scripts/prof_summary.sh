#!/usr/bin/env bash
# Render a PROF_net.json (the execution observatory's summary document,
# written by `PROF_OUT=... cargo run --release --example net_run -- LABEL`
# or scripts/bench_quick.sh) as a markdown phase report:
#
#   usage: scripts/prof_summary.sh PROF_net.json
#
# Output goes to stdout (CI appends it to $GITHUB_STEP_SUMMARY): the
# setup-vs-run wall-clock split (`engine_init` against `epoch` plus
# `finalize`, the profile's three top-level spans), the per-phase totals
# (nested phases share their parent's time), then the event
# loop's time per event kind (dispatches, total, ns per event and share
# of the `epoch` phase), costliest kind first. Exit code is always 0 —
# wall-clock numbers on shared runners inform, they never gate.
set -euo pipefail

prof="${1:?usage: prof_summary.sh PROF_net.json}"

# Degrade gracefully when no profile was produced (profiling off, or the
# producing step failed): note it and succeed.
if [ ! -s "$prof" ]; then
  echo "## Execution observatory"
  echo
  echo "No PROF_net.json to render (missing or empty: \`$prof\`);" \
    "skipping the phase table."
  exit 0
fi

jq -r '
  def fmt_ns: if . == null then "—"
    elif . >= 1e9 then (. / 1e9 * 100 | round / 100 | tostring) + " s"
    elif . >= 1e6 then (. / 1e6 * 100 | round / 100 | tostring) + " ms"
    elif . >= 1e3 then (. / 1e3 * 100 | round / 100 | tostring) + " µs"
    else (. | round | tostring) + " ns" end;
  .phase_totals_ns as $p |
  # Setup: everything before the first event pops, the `engine_init`
  # phase (validate and link_build nest inside it, so they are shown but
  # not re-added). Run: the event loop (the `epoch` phase) plus the
  # finalisation. The three are the only top-level spans of a profile.
  ($p.engine_init // 0) as $setup |
  (($p.epoch // 0) + ($p.finalize // 0)) as $run |
  ($setup + $run) as $total |
  def pct: if $total > 0 then (. / $total * 1000 | round / 10 | tostring) + "%" else "—" end;
  "## Execution observatory: \(.scenario)",
  "",
  "Setup \($setup | fmt_ns) (\($setup | pct)) vs run \($run | fmt_ns) (\($run | pct)).",
  "",
  "| phase | total | share |",
  "|---|---:|---:|",
  ($p | to_entries | sort_by(.key)[] |
    "| \(if .key == "epoch" then "epoch (event loop)" else .key end) | \(.value | fmt_ns) | \(.value | pct) |"),
  "",
  (($p.epoch // 0) as $epoch |
   (.event_kinds // {}) | to_entries | select(length > 0) |
   "| event kind | events | total | ns/event | share of epoch |",
   "|---|---:|---:|---:|---:|",
   (sort_by(-.value.ns)[] |
     "| \(.key) | \(.value.count) | \(.value.ns | fmt_ns) | \(.value.ns / .value.count | round) | \(if $epoch > 0 then (.value.ns / $epoch * 1000 | round / 10 | tostring) + "%" else "—" end) |"),
   "")
' "$prof"
