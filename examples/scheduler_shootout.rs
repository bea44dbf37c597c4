//! The scheduler shootout: all four carrier-arbitration policies over the
//! **mobile closed-loop ward** — patients walking away from their shared
//! bedside helpers, every delivery a full poll → backscatter → ack
//! transaction, link margins refreshed by the `LinkMatrix` every mobility
//! tick. The same deployment and seed, only the arbitration changes, so
//! the table isolates what the policy buys: the margin-aware scheduler
//! skips mid-fade tags (within its starvation bound) and converts the
//! saved slots into a far higher PRR than the blind round-robin baseline.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example scheduler_shootout [seed]
//! ```
//!
//! Each policy prints one table row (PRR, delivery ratio, fairness, poll
//! latency, deadline misses) plus a digest of its event trace; re-running
//! with the same seed reproduces every digest byte for byte — all four
//! policies are deterministic, not just the baseline.

use interscatter::net::scenario::Scenario;
use interscatter::net::sched::SchedPolicy;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let policies = [
        SchedPolicy::RoundRobin,
        SchedPolicy::proportional_fair(),
        SchedPolicy::deadline_aware(),
        SchedPolicy::margin_aware(),
    ];

    // The contested geometry: two patients share each bedside helper and
    // walk while it stays put, so there is genuinely something to
    // arbitrate (cf. `ambulatory_ward`, whose body-worn helpers give
    // every carrier a single tag).
    let base = || Scenario::walking_ward(12).closed_loop();
    println!(
        "=== scheduler shootout: {} ===\n{} walking patients, shared bedside helpers, \
         closed loop, seed {seed}\n",
        base().name,
        base().tags.len(),
    );
    println!(
        "{:<18} {:>6} {:>7} {:>6} {:>9} {:>10} {:>10} {:>7}  digest",
        "policy", "polls", "PRR", "deliv", "fairness", "poll p50", "poll p95", "misses"
    );
    for policy in policies {
        let scenario = base()
            .builder()
            .scheduling(policy)
            .build()
            .expect("scenario is valid");
        let result = interscatter::net::run(&scenario, seed).expect("scenario is valid");
        let m = &result.metrics;
        println!(
            "{:<18} {:>6} {:>7.3} {:>6.3} {:>9.3} {:>7.2} ms {:>7.2} ms {:>7}  {:016x}",
            policy.slug(),
            m.polls(),
            1.0 - m.per(),
            m.delivery_ratio(),
            m.grant_fairness(),
            m.poll_latency_ms.median().unwrap_or(0.0),
            m.poll_latency_ms.quantile(0.95).unwrap_or(0.0),
            m.deadline_misses(),
            result.trace.digest(),
        );
    }
    println!(
        "\nPRR = delivered / attempts over the air; margin-aware skips mid-fade tags \
         (starvation-bounded), so its attempts succeed more often.\n\
         (re-run with the same seed: identical digests; different seed: different digests)"
    );
}
