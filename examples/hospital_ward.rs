//! A hospital ward of 60 implanted backscatter sensors contending for
//! bedside BLE carriers and three Wi-Fi APs — the multi-tag network regime
//! the `interscatter-net` engine simulates.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example hospital_ward [seed]
//! ```
//!
//! Re-running with the same seed reproduces the identical trace and
//! metrics, byte for byte; the example prints a digest of the trace so two
//! runs are easy to compare.

use interscatter::net::scenario::{ExecutionSection, Scenario};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    // Eight Monte-Carlo trials for the spread sweep at the end; a single
    // run ignores the trial count.
    let scenario = Scenario::hospital_ward(60)
        .builder()
        .execution(ExecutionSection::new().trials(8))
        .build()
        .expect("scenario is valid");
    println!(
        "=== {} ===\n{} tags, {} bedside carriers, {} APs, {:.0} s simulated, seed {seed}\n",
        scenario.name,
        scenario.tags.len(),
        scenario.carriers.len(),
        scenario.receivers.len(),
        scenario.duration_s,
    );

    let result = interscatter::net::run(&scenario, seed).expect("scenario is valid");
    print!("{}", result.metrics.report());

    let trace_bytes = result.trace.to_bytes();
    println!(
        "\nevent trace: {} records, {} bytes, digest {:016x}",
        result.trace.records().len(),
        trace_bytes.len(),
        result.trace.digest(),
    );
    println!("(re-run with the same seed: identical digest; different seed: different digest)");

    // A small Monte-Carlo sweep over independent seeds shows the spread.
    let report = interscatter::net::run_trials(&scenario, seed).expect("trials run");
    println!("\n{}", report.report());
}
