//! The hospital ward running the **closed-loop poll/ack MAC**: bedside
//! carriers poll their implants with AM-OFDM downlink frames, tags answer
//! with backscattered 802.11b packets, and the ward APs ack — every
//! delivery is a complete poll → backscatter → ack transaction.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example closed_loop_ward [seed]
//! ```
//!
//! The example sweeps 1, 10 and 100 tags. Re-running with the same seed
//! reproduces identical traces and metrics byte for byte; each sweep point
//! prints a digest of its trace so two runs are easy to compare.

use interscatter::net::scenario::Scenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    for n_tags in [1usize, 10, 100] {
        let scenario = Scenario::hospital_ward(n_tags).closed_loop();
        println!(
            "=== {} ===\n{} tags, {} bedside carriers, {} APs, {:.0} s simulated, seed {seed}",
            scenario.name,
            scenario.tags.len(),
            scenario.carriers.len(),
            scenario.receivers.len(),
            scenario.duration_s,
        );

        let result = interscatter::net::run(&scenario, seed).expect("scenario is valid");
        let m = &result.metrics;
        print!("{}", m.report());
        println!(
            "transactions: {} completed / {} polls ({:.1} transactions/s)",
            m.completed_transactions(),
            m.polls(),
            m.transactions_per_sec(),
        );

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
