//! Event throughput of the engine at city scale: the `campus` closed-loop
//! preset (shared striped helpers, coex load, streaming metrics) at 10k
//! and 100k tags. This is the scale target of the engine-core work — the
//! timing-wheel event queue, the band-indexed medium and the SoA link
//! tables — and the quick tier tracks its events/sec in `BENCH_net.json`.
//!
//! The sharded variants run the same 10k-tag campus through the sharded
//! executor at 1 and 4 shards: `bench_trend.sh` tracks their ratio as the
//! core-scaling signal (on a multi-core host 4 shards should approach the
//! smaller of 4× and the cell count; on a single-core host the ratio
//! stays ≈1 — the digest is identical either way).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::engine::NetworkSim;
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
        // One calibration run supplies the exact engine event count, so
        // the reported throughput is events/sec, not an approximation.
        let events = NetworkSim::new(&scenario, 42)
            .run()
            .unwrap()
            .telemetry
            .events;
        group.throughput(Throughput::Elements(events));
        group.bench_function(format!("campus_{}k_tags", n / 1000), |b| {
            b.iter(|| NetworkSim::new(&scenario, 42).run().unwrap())
        });
    }
    for shards in [1usize, 4] {
        let scenario = Scenario::campus(10_000)
            .builder()
            .execution(ExecutionSection::new().shards(shards).trace(false))
            .build()
            .unwrap();
        let events = interscatter_net::run(&scenario, 42)
            .unwrap()
            .telemetry
            .events;
        group.throughput(Throughput::Elements(events));
        group.bench_function(format!("campus_10k_tags_{shards}shard"), |b| {
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
