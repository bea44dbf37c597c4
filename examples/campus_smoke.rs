//! The city-scale smoke run: the `campus` preset at 100 000 closed-loop
//! tags — shared striped helpers, coex load, streaming metrics — on one
//! engine core. This is the scale target of the engine core (4-ary heap
//! event queue, band-indexed medium, per-query link powers); the run holds
//! memory O(entities) and finishes in seconds.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example campus_smoke [seed]
//! ```
//!
//! Stdout carries the deterministic report plus an FNV-1a digest of the
//! whole thing, so two same-seed runs are byte-comparable (the CI smoke
//! loop diffs them) — with or without profiling.
//!
//! Set `PROF_OUT=<path>` and/or `PROF_TRACE_OUT=<path>` to run the
//! execution observatory alongside: the first writes the `PROF_net.json`
//! summary (wall-clock totals per phase: set-up, the event loop,
//! finalisation), the second a Chrome/Perfetto trace. Both are side
//! files — stdout stays byte-identical to an unprofiled run, per the
//! `net::prof` contract.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use interscatter::net::trace_digest::fnv1a_str;

/// The city-scale tag count the engine core is sized for.
const N_TAGS: usize = 100_000;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    let prof_out = std::env::var_os("PROF_OUT");
    let prof_trace_out = std::env::var_os("PROF_TRACE_OUT");
    let profile = prof_out.is_some() || prof_trace_out.is_some();

    // The trace is the one O(events) artifact left — a city-scale run
    // disables it; reproducibility is checked through the report digest.
    let scenario = Scenario::campus(N_TAGS)
        .builder()
        .execution(ExecutionSection::new().trace(false).profile(profile))
        .build()
        .expect("campus preset is valid");
    println!(
        "=== campus smoke: {} ===\n{} tags, {} shared helpers, {} APs, {:.0} s simulated, seed {seed}\n",
        scenario.name,
        scenario.tags.len(),
        scenario.carriers.len(),
        scenario.receivers.len(),
        scenario.duration_s,
    );

    let result = interscatter::net::run(&scenario, seed).expect("campus preset runs");

    // The streaming contract: nothing accumulated per event.
    let m = &result.metrics;
    assert!(
        m.latency_ms.is_empty()
            && m.poll_latency_ms.is_empty()
            && m.transaction_latency_ms.is_empty(),
        "streaming mode must not store per-event samples"
    );

    let mut out = String::new();
    out.push_str(&m.report());
    out.push('\n');
    out.push_str(&result.telemetry.render());
    print!("{out}");
    println!(
        "\ncampus digest {:016x} over {} engine events",
        fnv1a_str(&out),
        result.telemetry.events,
    );
    println!("(re-run with the same seed: identical digest)");

    // Observatory output goes to side files and stderr only — never to
    // the digest-checked stdout above.
    if let Some(prof) = &result.prof {
        if let Some(path) = &prof_out {
            let doc = prof.summary().to_json();
            std::fs::write(path, doc).expect("write PROF summary");
            eprintln!("profile summary written to {}", path.to_string_lossy());
        }
        if let Some(path) = &prof_trace_out {
            std::fs::write(path, prof.to_chrome_trace()).expect("write PROF trace");
            eprintln!(
                "chrome trace written to {} (load in ui.perfetto.dev)",
                path.to_string_lossy()
            );
        }
    }
}
