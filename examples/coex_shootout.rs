//! The coexistence shootout: the same congested ward under three spectrum
//! strategies. From `t = 3 s` a hidden Wi-Fi transmitter hammers channel 6
//! at ~60% load — too far to trip the bedside helpers' carrier-sense,
//! close enough to the wall APs to collide with everything the stripe-1
//! tags send there:
//!
//! * **quiet striped** — the same striped ward with an empty coex config
//!   and its sinks' `external_occupancy` scalars zeroed, as the congested
//!   ward zeroes them: no external load at all, so it is the like-for-like
//!   ceiling the other two rows chase;
//! * **static striping** — carriers keep the sub-band the scenario
//!   assigned them and ride the collapse out;
//! * **adaptive re-striping** — each carrier's EWMA occupancy sensor
//!   crosses the `ReStripe` threshold shortly after the spike begins, and
//!   the stripe-1 carriers re-tune themselves (and their tags) to the
//!   least-occupied sub-band, deterministically and slot-aligned.
//!
//! Run with an optional seed (default 42):
//!
//! ```text
//! cargo run --release --example coex_shootout [seed]
//! ```
//!
//! Each row prints PRR, delivery ratio, external collisions, re-stripe
//! count and a digest of its event trace; re-running with the same seed
//! reproduces every digest byte for byte — external traffic generators,
//! occupancy sensing and re-striping decisions are all deterministic.

use interscatter::net::coex::{CoexConfig, ReStripe};
use interscatter::net::scenario::Scenario;

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);

    let n_tags = 12;
    // An empty config (sensing runs, no sources emit) over zeroed sink
    // scalars: the same footing the congested rows stand on, minus the
    // hammer.
    let mut quiet = Scenario::hospital_ward(n_tags).with_subband_striping();
    for ap in &mut quiet.receivers {
        ap.external_occupancy = 0.0;
    }
    let rows: [(&str, Scenario); 3] = [
        (
            "quiet striped",
            quiet
                .builder()
                .coex(CoexConfig::default())
                .build()
                .expect("scenario is valid"),
        ),
        ("static striping", Scenario::congested_ward(n_tags)),
        (
            "adaptive re-striping",
            Scenario::congested_ward(n_tags).with_restripe(ReStripe::default()),
        ),
    ];

    println!(
        "=== coex shootout: {} ===\n{n_tags} tags striped over 3 APs; hidden Wi-Fi hammers \
         channel 6 at ~60% load from t = 3 s; seed {seed}\n",
        rows[1].1.name,
    );
    println!(
        "{:<22} {:>7} {:>7} {:>9} {:>9} {:>10} {:>9}  digest",
        "strategy", "PRR", "deliv", "ext coll", "defers", "restripes", "peak occ"
    );
    for (label, scenario) in rows {
        let result = interscatter::net::run(&scenario, seed).expect("scenario is valid");
        let m = &result.metrics;
        let ext_coll: usize = m.tags.iter().map(|t| t.external_collisions).sum();
        let defers: usize = m.tags.iter().map(|t| t.csma_defers).sum();
        let peak = (0..m.occupancy_series.len())
            .filter_map(|c| m.peak_occupancy(c))
            .fold(0.0f64, f64::max);
        println!(
            "{label:<22} {:>7.3} {:>7.3} {:>9} {:>9} {:>10} {:>9.3}  {:016x}",
            1.0 - m.per(),
            m.delivery_ratio(),
            ext_coll,
            defers,
            m.restripes(),
            peak,
            result.trace.digest(),
        );
        for e in &m.restripe_events {
            println!(
                "  └ t={:.2}s carrier {} re-striped sub-band {} -> {}",
                e.at_s, e.carrier, e.from_subband, e.to_subband
            );
        }
    }
    println!(
        "\nPRR = delivered / attempts over the air. The hidden transmitter never trips the\n\
         helpers' carrier-sense, so static striping keeps colliding at the APs; the adaptive\n\
         policy senses the receive-side load spike and walks its carriers off the channel.\n\
         (re-run with the same seed: identical digests; different seed: different digests)"
    );
}
