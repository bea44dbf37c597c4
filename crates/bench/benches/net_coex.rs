//! Coexistence engine throughput: events per second with external traffic
//! generators on the medium, and the cost of the adaptive re-striping
//! machinery. Three points per fleet size:
//!
//! * `legacy` — the ward with no coex config (only the sinks' scalar
//!   fold, no sources, no sensing): the baseline the coex machinery is
//!   measured against;
//! * `congested` — the hidden Wi-Fi hammer injecting ~600 bursts/s of
//!   real emissions (collision arbitration against external traffic)
//!   and the once-per-window occupancy sensing every coex run does;
//! * `adaptive` — the same plus the `ReStripe` check at every sensing
//!   tick (including the mid-run re-tune itself).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::coex::ReStripe;
use interscatter_net::scenario::{ExecutionSection, Scenario};

/// Shortens a ward's horizon so the 100-tag points stay benchable, turns
/// its trace off, and pulls every coex source's activity window to t = 0
/// so the clipped run actually contains the external traffic being
/// measured (the preset's hammer only switches on at t = 3 s, past the
/// short horizons here).
fn clipped(mut scenario: Scenario, duration_s: f64) -> Scenario {
    if let Some(cfg) = scenario.coex.as_mut() {
        for source in &mut cfg.sources {
            source.start_s = 0.0;
        }
    }
    scenario
        .builder()
        .duration_s(duration_s)
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap()
}

fn bench_coex(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_coex");
    group.sample_size(10);
    for n in [12usize, 100] {
        let duration_s = if n >= 100 { 2.0 } else { 5.0 };
        let cases = [
            (
                "legacy",
                clipped(
                    Scenario::hospital_ward(n).with_subband_striping(),
                    duration_s,
                ),
            ),
            (
                "congested",
                clipped(Scenario::congested_ward(n), duration_s),
            ),
            (
                "adaptive",
                clipped(
                    Scenario::congested_ward(n).with_restripe(ReStripe::default()),
                    duration_s,
                ),
            ),
        ];
        for (label, scenario) in cases {
            // One pre-run pins the workload size (deterministic per seed):
            // fleet attempts plus external emissions are the events whose
            // rate matters.
            let m = interscatter_net::run(&scenario, 42).unwrap().metrics;
            assert!(
                label == "legacy" || m.external_emissions() > 0,
                "{label}_{n}: the congested workload must actually congest"
            );
            let events = m.attempts() + m.external_emissions();
            group.throughput(Throughput::Elements(events.max(1) as u64));
            group.bench_function(format!("{label}_{n}_tags"), |b| {
                b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = coex;
    config = Criterion::default().sample_size(10);
    targets = bench_coex
}
criterion_main!(coex);
