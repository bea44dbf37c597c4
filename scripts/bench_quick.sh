#!/usr/bin/env bash
# Produce the perf-trajectory artifacts on any checkout with one command:
#
#   scripts/bench_quick.sh [out_dir]
#
# Runs the quick-tier benches (CI runs this script too) into
# BENCH_net.json (engine benches) and BENCH_phy.json (PHY pipelines,
# figure runners and ablations) — one JSON line per benchmark — and a
# profiled 100k-tag campus run into PROF_net.json + PROF_trace.json (the execution
# observatory's phase summary and Chrome/Perfetto trace; see
# `net::prof`). Artifacts land in out_dir (default: the repo root), so
# the trajectory that is otherwise only charted between CI runs can be
# produced locally, e.g. before/after a perf change:
#
#   scripts/bench_quick.sh /tmp/before
#   ... hack ...
#   scripts/bench_quick.sh /tmp/after
#   scripts/bench_trend.sh /tmp/before/BENCH_net.json /tmp/after/BENCH_net.json
#   scripts/bench_trend.sh /tmp/before/BENCH_phy.json /tmp/after/BENCH_phy.json
#   scripts/prof_summary.sh /tmp/after/PROF_net.json
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
mkdir -p "$out_dir"

bench_out="$out_dir/BENCH_net.json"
phy_out="$out_dir/BENCH_phy.json"
prof_out="$out_dir/PROF_net.json"
trace_out="$out_dir/PROF_trace.json"

# The quick tier: every engine bench in --quick mode with --json
# summaries. This list is the only copy; CI calls this script.
: > "$bench_out"
for bench in net_queue net_engine net_downlink net_mobility net_sched net_coex net_campus; do
  cargo bench -p interscatter-bench --bench "$bench" -- --quick --json \
    | tee /dev/stderr | grep '^{' >> "$bench_out"
done
jq -s 'length' "$bench_out" >/dev/null # sanity: valid JSON lines

# The PHY layer: tx/rx chain per standard, FFT, SSB reflection; then
# every experiments::catalogue() row at its Quick size (e.g. fig11,
# the waveform 802.11b packet trials); then the design-choice ablations
# (e.g. ablation_squarewave).
: > "$phy_out"
for bench in phy_pipelines figures ablations; do
  cargo bench -p interscatter-bench --bench "$bench" -- --quick --json \
    | tee /dev/stderr | grep '^{' >> "$phy_out"
done
jq -s 'length' "$phy_out" >/dev/null

# The observatory run: the 100k-tag campus with profiling on. PROF
# output goes to side files; stdout stays identical to an unprofiled run
# (the digest-neutrality contract).
PROF_OUT="$prof_out" PROF_TRACE_OUT="$trace_out" \
  cargo run --release --example net_run -- 'campus(100000)' 42 --no-trace >/dev/null

echo "wrote $bench_out, $phy_out, $prof_out, $trace_out" >&2
