//! Event throughput of the `interscatter-net` engine vs. fleet size: how
//! many simulation events per second the scheduler, medium and link layer
//! sustain with 1, 10 and 100 tags, plus `net::run_trials` fanning trials
//! across threads.
//! This anchors the performance trajectory as the engine grows.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::scenario::{ExecutionSection, Scenario};

/// A 1-second ward scenario sized to `n` tags with the given run shape.
fn ward(n: usize, execution: ExecutionSection) -> Scenario {
    Scenario::hospital_ward(n)
        .builder()
        .duration_s(1.0)
        .execution(execution)
        .build()
        .unwrap()
}

/// A 1-second ward scenario sized to `n` tags, traces off.
fn untraced_ward(n: usize) -> Scenario {
    ward(n, ExecutionSection::new().trace(false))
}

/// Events processed by one run: arrivals + slots + tx ends, approximated
/// by attempts + offered + slot cadence. Used for the throughput
/// annotation only.
fn approx_events(scenario: &Scenario) -> u64 {
    let slots: f64 = scenario
        .carriers
        .iter()
        .map(|c| scenario.duration_s / c.slot_interval_s)
        .sum();
    let arrivals: f64 = scenario
        .tags
        .iter()
        .map(|t| t.arrival_rate_pps * scenario.duration_s)
        .sum();
    (slots + 2.0 * arrivals) as u64
}

fn bench_engine_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_engine");
    group.sample_size(20);
    for n in [1usize, 10, 100] {
        let scenario = untraced_ward(n);
        group.throughput(Throughput::Elements(approx_events(&scenario)));
        group.bench_function(format!("ward_{n}_tags"), |b| {
            b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
        });
    }
    group.finish();
}

fn bench_trace_overhead(c: &mut Criterion) {
    let traced = ward(10, ExecutionSection::new());
    let untraced = untraced_ward(10);
    let mut group = c.benchmark_group("net_trace");
    group.sample_size(20);
    group.bench_function("traced", |b| {
        b.iter(|| interscatter_net::run(&traced, 42).unwrap())
    });
    group.bench_function("untraced", |b| {
        b.iter(|| interscatter_net::run(&untraced, 42).unwrap())
    });
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let scenario = ward(20, ExecutionSection::new().trials(8));
    let mut group = c.benchmark_group("net_monte_carlo");
    group.sample_size(10);
    group.bench_function("8_trials_parallel", |b| {
        b.iter(|| interscatter_net::run_trials(&scenario, 7).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = net;
    config = Criterion::default().sample_size(20);
    targets = bench_engine_scaling, bench_trace_overhead, bench_monte_carlo
}
criterion_main!(net);
