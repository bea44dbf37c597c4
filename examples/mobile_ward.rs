//! The ambulatory ward: implanted patients **walking** a 12 m × 9 m ward
//! under a random-waypoint model, each wearing their own helper beacon so
//! the illumination hop survives while the tag → AP leg sweeps metres of
//! path loss. Every mobility tick re-derives only the `LinkMatrix` rows
//! the moved entities touch, so link budgets track geometry all run long.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example mobile_ward [seed]
//! ```
//!
//! The example sweeps 10 and 50 patients through the open-loop ward and
//! runs the 10-patient closed poll/ack loop on the move. Re-running with
//! the same seed reproduces identical traces and metrics byte for byte;
//! each sweep point prints a digest of its trace so two runs are easy to
//! compare.

use interscatter::net::scenario::Scenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let scenarios = [
        Scenario::ambulatory_ward(10),
        Scenario::ambulatory_ward(50),
        Scenario::ambulatory_ward(10).closed_loop(),
    ];
    for scenario in scenarios {
        println!(
            "=== {} ===\n{} walking patients, {} worn helpers, {} APs, {:.0} s simulated, seed {seed}",
            scenario.name,
            scenario.tags.len(),
            scenario.carriers.len(),
            scenario.receivers.len(),
            scenario.duration_s,
        );

        let result = interscatter::net::run(&scenario, seed).expect("scenario is valid");
        let m = &result.metrics;
        print!("{}", m.report());
        let half = m.max_displacement_m() / 2.0;
        if let (Some((near, near_n)), Some((far, far_n))) = (
            m.prr_in_displacement_band(0.0, half),
            m.prr_in_displacement_band(half, f64::INFINITY),
        ) {
            println!(
                "PRR vs displacement: {near:.3} over {near_n} attempts below {half:.1} m, \
                 {far:.3} over {far_n} attempts beyond"
            );
        }

        let trace_bytes = result.trace.to_bytes();
        println!(
            "event trace: {} records, {} bytes, digest {:016x}\n",
            result.trace.records().len(),
            trace_bytes.len(),
            result.trace.digest(),
        );
    }
    println!("(re-run with the same seed: identical digests; different seed: different digests)");
}
