//! Arbitration throughput: how many scheduler grants per second the
//! engine sustains under each [`SchedPolicy`] at 10, 100 and 1000 tags.
//! Round-robin and margin-aware are cursor scans, proportional-fair and
//! deadline-aware walk the whole member list per slot — this bench keeps
//! the extraction of the scheduler out of the engine's hot path honest,
//! and anchors the cost of the smarter policies.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_net::scenario::{ExecutionSection, Scenario};
use interscatter_net::sched::SchedPolicy;

/// A ward sized to `n` tags with traces off and the horizon shortened so
/// the 1000-tag point stays benchable.
fn ward(n: usize, policy: SchedPolicy) -> Scenario {
    Scenario::hospital_ward(n)
        .builder()
        .scheduling(policy)
        .duration_s(if n >= 1000 { 0.25 } else { 1.0 })
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap()
}

fn bench_policies(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_sched");
    group.sample_size(10);
    for n in [10usize, 100, 1000] {
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::proportional_fair(),
            SchedPolicy::deadline_aware(),
            SchedPolicy::margin_aware(),
        ] {
            let scenario = ward(n, policy);
            // One pre-run pins the grant count (deterministic per seed),
            // so the reported rate is true grants per second.
            let grants = interscatter_net::run(&scenario, 42)
                .unwrap()
                .metrics
                .grants();
            group.throughput(Throughput::Elements(grants.max(1) as u64));
            group.bench_function(format!("{}_{n}_tags", policy.slug()), |b| {
                b.iter(|| interscatter_net::run(&scenario, 42).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = sched;
    config = Criterion::default().sample_size(10);
    targets = bench_policies
}
criterion_main!(sched);
