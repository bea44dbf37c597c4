//! Throughput of the closed-loop poll/ack MAC vs. fleet size: how many
//! complete poll → backscatter → ack transactions per second the engine
//! sustains with 1, 10 and 100 tags, and what the downlink leg costs over
//! the open-loop schedule. This anchors the closed loop's performance
//! trajectory the way `net_engine` anchors the uplink-only engine's.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::scenario::{ExecutionSection, Scenario};

/// `scenario` cut to 1 simulated second, traces off.
fn one_second_untraced(scenario: Scenario) -> Scenario {
    scenario
        .builder()
        .duration_s(1.0)
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap()
}

/// A 1-second closed-loop ward sized to `n` tags, traces off.
fn ward(n: usize) -> Scenario {
    one_second_untraced(Scenario::hospital_ward(n).closed_loop())
}

fn bench_transaction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_downlink");
    group.sample_size(20);
    for n in [1usize, 10, 100] {
        let scenario = ward(n);
        // Annotate with the completed-transaction count of the measured
        // run so criterion reports transactions per wall-clock second.
        let transactions = interscatter_net::run(&scenario, 42)
            .unwrap()
            .metrics
            .completed_transactions();
        group.throughput(Throughput::Elements(transactions.max(1) as u64));
        group.bench_function(format!("ward_{n}_tags"), |b| {
            b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
        });
    }
    group.finish();
}

fn bench_loop_overhead(c: &mut Criterion) {
    // The closed loop trades three on-air frames per delivery for
    // feedback; this pair quantifies the simulation cost of that choice.
    let mut group = c.benchmark_group("net_mac_mode");
    group.sample_size(20);
    let open = one_second_untraced(Scenario::hospital_ward(20));
    group.bench_function("open_loop_ward_20", |b| {
        b.iter(|| interscatter_net::run(&open, 42).unwrap())
    });
    let closed = ward(20);
    group.bench_function("closed_loop_ward_20", |b| {
        b.iter(|| interscatter_net::run(&closed, 42).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = downlink;
    config = Criterion::default().sample_size(20);
    targets = bench_transaction_scaling, bench_loop_overhead
}
criterion_main!(downlink);
