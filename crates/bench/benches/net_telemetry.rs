//! Telemetry overhead: engine events per second with 0, 1 and 8 active
//! subscriptions at two fleet sizes. The zero-subscription case anchors
//! the dispatch-mask contract — every emit site collapses to one dead
//! branch, so an unobserved run must sit within bench noise of the
//! pre-telemetry engine (`net_engine/ward_*` tracks the same scenarios).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::scenario::{ExecutionSection, Scenario};
use interscatter_net::telemetry::{
    Dataset, Filter, SinkSpec, Subscription, TelemetryConfig, TelemetryKind,
};

/// A ward sized to `n` tags, short enough that the 1000-tag case stays in
/// the quick tier, traces off so telemetry is the only observer.
fn ward(n: usize) -> Scenario {
    Scenario::hospital_ward(n)
        .builder()
        .duration_s(if n >= 1000 { 0.2 } else { 1.0 })
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap()
}

/// `count` distinct subscriptions spanning every sink kind and filter axis.
fn subscriptions(count: usize, n_tags: usize) -> Vec<Subscription> {
    let pool = [
        Subscription::new(
            "lat",
            Filter::all(),
            SinkSpec::Quantiles(Dataset::DeliveryLatencyMs),
        ),
        Subscription::new(
            "poll",
            Filter::all(),
            SinkSpec::Quantiles(Dataset::PollLatencyMs),
        ),
        Subscription::new(
            "prr",
            Filter::all(),
            SinkSpec::WindowedPrr { window_s: 0.5 },
        ),
        Subscription::new("count", Filter::all(), SinkSpec::Counters),
        Subscription::new(
            "front",
            Filter::all().tags(0..n_tags.min(4)),
            SinkSpec::Counters,
        ),
        Subscription::new(
            "early",
            Filter::all().window(0.0, 0.5),
            SinkSpec::Quantiles(Dataset::DeliveryLatencyMs),
        ),
        Subscription::new(
            "losses",
            Filter::all().kinds([TelemetryKind::Loss, TelemetryKind::Dropped]),
            SinkSpec::Counters,
        ),
        Subscription::new(
            "occ",
            Filter::all(),
            SinkSpec::WindowedOccupancy { window_s: 1.0 },
        ),
    ];
    pool.into_iter().take(count).collect()
}

fn bench_subscription_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_telemetry");
    group.sample_size(10);
    for n_tags in [100usize, 1000] {
        let base = ward(n_tags);
        // Events per run, measured once so the throughput annotation is
        // events/sec rather than runs/sec.
        let events = interscatter_net::run(&base, 42).unwrap().telemetry.events;
        group.throughput(Throughput::Elements(events));
        for n_subs in [0usize, 1, 8] {
            let telemetry = subscriptions(n_subs, n_tags)
                .into_iter()
                .fold(TelemetryConfig::new(), TelemetryConfig::subscribe);
            let scenario = base.clone().builder().telemetry(telemetry).build().unwrap();
            group.bench_function(format!("{n_tags}_tags_{n_subs}_subs"), |b| {
                b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = telemetry;
    config = Criterion::default().sample_size(10);
    targets = bench_subscription_overhead
}
criterion_main!(telemetry);
