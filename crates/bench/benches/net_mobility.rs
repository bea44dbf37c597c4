//! Cost of keeping link budgets current under motion: a 100-tag mobility
//! tick through the `LinkMatrix`'s row-level invalidation path versus a
//! full rebuild of every table, plus the end-to-end event rate of the
//! ambulatory ward. The acceptance bar for the mobility subsystem is the
//! first pair: moving all 100 tags and flushing only the affected rows
//! must be at least an order of magnitude cheaper than `LinkMatrix::build`
//! — the cached position-independent terms (antenna gains, tissue
//! attenuations, conversion losses, per-frequency path-loss models) are
//! what buys that gap.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::entities::Position;
use interscatter_net::links::{EntityId, LinkMatrix};
use interscatter_net::scenario::{ExecutionSection, Scenario};

/// The 100-patient closed-loop ambulatory ward: the heaviest matrix the
/// engine builds (uplink rows plus every poll/ack and emitter × listener
/// table).
fn ward_100() -> Scenario {
    Scenario::ambulatory_ward(100).closed_loop()
}

fn bench_tick_vs_rebuild(c: &mut Criterion) {
    let scenario = ward_100();
    let matrix = LinkMatrix::build(&scenario).unwrap();
    let n = scenario.tags.len();

    let mut group = c.benchmark_group("net_mobility");
    group.sample_size(20);
    group.throughput(Throughput::Elements(n as u64));

    // One mobility tick: every tag moves a few centimetres (oscillating so
    // the geometry stays representative across iterations) and the matrix
    // flushes only the dirty rows.
    group.bench_function("tick_100_tags_row_invalidation", |b| {
        let mut live = matrix.clone();
        let mut flip = 1.0f64;
        b.iter(|| {
            for t in 0..n {
                let p = live.position(EntityId::Tag(t));
                live.set_position(
                    EntityId::Tag(t),
                    Position::new(p.x + 0.05 * flip, p.y - 0.03 * flip, p.z),
                );
            }
            flip = -flip;
            black_box(live.flush(&scenario))
        })
    });

    // The alternative a naive engine would take every tick.
    group.bench_function("full_rebuild_100_tags", |b| {
        b.iter(|| black_box(LinkMatrix::build(&scenario).unwrap()))
    });
    group.finish();
}

fn bench_mobile_run(c: &mut Criterion) {
    // End to end: the walking ward with ticks, row refreshes and the
    // poll/ack loop interleaved, 1 simulated second.
    let scenario = Scenario::ambulatory_ward(20)
        .closed_loop()
        .builder()
        .duration_s(1.0)
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap();
    let mut frozen = scenario.clone();
    frozen.mobility = None;

    let mut group = c.benchmark_group("net_mobile_run");
    group.sample_size(20);
    group.bench_function("ambulatory_ward_20", |b| {
        b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
    });
    group.bench_function("frozen_ward_20", |b| {
        b.iter(|| interscatter_net::run(&frozen, 42).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = mobility;
    config = Criterion::default().sample_size(20);
    targets = bench_tick_vs_rebuild, bench_mobile_run
}
criterion_main!(mobility);
