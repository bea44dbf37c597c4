//! A soak run: the 60-tag hospital ward simulated for **10× its usual
//! duration** with live progress lines attached, next to the exact
//! stored-sample report.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example soak_ward [seed]
//! ```
//!
//! Progress lines stream to stderr as the run advances; stdout carries the
//! deterministic report and the collected progress lines, plus an FNV-1a
//! digest of the whole thing, so two same-seed runs are byte-comparable
//! (the CI smoke loop diffs them).
//!
//! Set `PROF_OUT=<path>` and/or `PROF_TRACE_OUT=<path>` to run the
//! execution observatory alongside: a `PROF_net.json` phase summary and a
//! Chrome/Perfetto trace, written as side files — stdout stays
//! byte-identical to an unprofiled run, per the `net::prof` contract.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use interscatter::net::trace_digest::fnv1a_str;

/// Soak length, simulated seconds: 10× the hospital-ward preset's 10 s.
const SOAK_DURATION_S: f64 = 100.0;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // A soak run disables the trace; reproducibility is checked through
    // the report digest instead.
    // Profiling rides along when PROF_OUT / PROF_TRACE_OUT ask for it;
    // stdout stays byte-identical either way.
    let prof_out = std::env::var_os("PROF_OUT");
    let prof_trace_out = std::env::var_os("PROF_TRACE_OUT");
    let profile = prof_out.is_some() || prof_trace_out.is_some();
    let base = Scenario::hospital_ward(60);
    let base_duration_s = base.duration_s;
    let scenario = base
        .builder()
        .duration_s(SOAK_DURATION_S)
        .execution(
            ExecutionSection::new()
                .progress(10.0, true)
                .trace(false)
                .profile(profile),
        )
        .build()
        .expect("scenario is valid");

    println!(
        "=== soak: {} ===\n{} tags, {:.0} s simulated ({:.0}x the base preset), seed {seed}\n",
        scenario.name,
        scenario.tags.len(),
        scenario.duration_s,
        scenario.duration_s / base_duration_s,
    );

    let result = interscatter::net::run(&scenario, seed).expect("scenario runs");

    let m = &result.metrics;
    let mut out = String::new();
    out.push_str(&m.report());
    out.push('\n');
    out.push_str(&result.telemetry.render());
    print!("{out}");
    println!(
        "\nsoak digest {:016x} over {} engine events",
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
