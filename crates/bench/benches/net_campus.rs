//! Event throughput of the engine at city scale: the `campus` closed-loop
//! preset (shared striped helpers, coex load, streaming metrics) at 10k
//! and 100k tags, one `net::run` row per size. This is the scale target
//! of the engine-core work — the 4-ary heap event queue, the
//! band-indexed medium and the per-query link powers — and the quick tier
//! tracks its events/sec in `BENCH_net.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::prelude::ExecutionSection;
use interscatter_net::scenario::Scenario;

fn bench_campus_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_campus");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        let scenario = Scenario::campus(n)
            .builder()
            .execution(ExecutionSection::new().trace(false))
            .build()
            .unwrap();
        // One calibration run supplies the exact engine event count (each
        // simulated event once), so the reported throughput is events/sec.
        let events = interscatter_net::run(&scenario, 42)
            .unwrap()
            .telemetry
            .events;
        group.throughput(Throughput::Elements(events));
        group.bench_function(format!("campus_{}k_tags", n / 1000), |b| {
            b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
        });
    }
    group.finish();
}

criterion_group! {
    name = campus;
    config = Criterion::default().sample_size(10);
    targets = bench_campus_scaling
}
criterion_main!(campus);
