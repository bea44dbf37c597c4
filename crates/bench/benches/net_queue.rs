//! Throughput of the engine's event queue on its own: the hold model —
//! pop the earliest event, schedule one a random delay after it — at a
//! constant depth, in hold operations (one pop plus one schedule) per
//! second. Depth 128 is ward-like (a 100-tag preset keeps a few hundred
//! events pending); depth 100 000 is campus-like (one pending event per
//! tag, more 48 B events than fit in L2). This is the queue's own layer
//! row beneath the engine benches.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::event::{EventKind, EventQueue};
use interscatter_net::time::Time;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Hold operations per timed iteration.
const HOLDS: u64 = 10_000;

/// Delays and initial times are uniform over one simulated second.
const SPAN_NS: u64 = 1_000_000_000;

fn bench_hold(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_queue");
    group.sample_size(20);
    group.throughput(Throughput::Elements(HOLDS));
    for depth in [128usize, 100_000] {
        let mut rng = SmallRng::seed_from_u64(depth as u64);
        let mut queue = EventQueue::new();
        for tag in 0..depth {
            let at = Time(rng.gen_range(0..SPAN_NS));
            queue.schedule(at, EventKind::PacketArrival { tag });
        }
        group.bench_function(format!("hold_depth_{depth}"), |b| {
            b.iter(|| {
                for _ in 0..HOLDS {
                    let e = queue.pop().expect("the hold model keeps the depth");
                    queue.schedule(Time(e.at.0 + rng.gen_range(1..SPAN_NS)), e.kind);
                }
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = queue;
    config = Criterion::default().sample_size(20);
    targets = bench_hold
}
criterion_main!(queue);
