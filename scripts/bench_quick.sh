#!/usr/bin/env bash
# Produce the perf-trajectory artifacts on any checkout with one command:
#
#   scripts/bench_quick.sh [out_dir]
#
# Runs the quick-tier benches (the same loop CI runs) into
# BENCH_net.json — one JSON line per benchmark — and a profiled campus
# smoke run into PROF_net.json + PROF_trace.json (the execution
# observatory's phase summary and Chrome/Perfetto trace; see
# `net::prof`). Artifacts land in out_dir (default: the repo root), so
# the trajectory that is otherwise only charted between CI runs can be
# produced locally, e.g. before/after a perf change:
#
#   scripts/bench_quick.sh /tmp/before
#   ... hack ...
#   scripts/bench_quick.sh /tmp/after
#   scripts/bench_trend.sh /tmp/before/BENCH_net.json /tmp/after/BENCH_net.json
#   scripts/prof_summary.sh /tmp/after/PROF_net.json
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-.}"
mkdir -p "$out_dir"

bench_out="$out_dir/BENCH_net.json"
prof_out="$out_dir/PROF_net.json"
trace_out="$out_dir/PROF_trace.json"

# The quick tier: every engine bench in --quick mode with --json
# summaries, mirroring the CI loop so local and CI artifacts compare.
: > "$bench_out"
for bench in net_queue net_engine net_downlink net_mobility net_sched net_coex net_telemetry net_campus; do
  cargo bench -p interscatter-bench --bench "$bench" -- --quick --json \
    | tee /dev/stderr | grep '^{' >> "$bench_out"
done
jq -s 'length' "$bench_out" >/dev/null # sanity: valid JSON lines

# The observatory run: the campus smoke example with profiling on. PROF
# output goes to side files; stdout stays identical to an unprofiled run
# (the digest-neutrality contract).
PROF_OUT="$prof_out" PROF_TRACE_OUT="$trace_out" \
  cargo run --release --example campus_smoke 42 >/dev/null

echo "wrote $bench_out, $prof_out, $trace_out" >&2
