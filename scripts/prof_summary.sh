#!/usr/bin/env bash
# Render a PROF_net.json (the execution observatory's summary document,
# written by `PROF_OUT=... cargo run --example campus_smoke` or
# scripts/bench_quick.sh) as a markdown phase report:
#
#   usage: scripts/prof_summary.sh PROF_net.json
#
# Output goes to stdout (CI appends it to $GITHUB_STEP_SUMMARY): the
# setup-vs-run wall-clock split, then the per-phase totals. Exit code is
# always 0 — wall-clock numbers on shared runners inform, they never gate.
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
  # Setup: everything before the first event pops — scenario validation
  # and engine-core init (link_build nests inside engine_init, so it is
  # shown but not re-added). Run: the event loop (the `epoch` phase)
  # plus the finalisation.
  (($p.scenario_build // 0) + ($p.engine_init // 0)) as $setup |
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
  (if .dropped_spans > 0 then "⚠ \(.dropped_spans) spans dropped to ring wrap-around." else empty end)
' "$prof"
