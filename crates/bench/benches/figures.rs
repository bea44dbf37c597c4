//! Benchmark harness regenerating every figure and table of the paper's
//! evaluation.
//!
//! For each row of `sim::experiments::catalogue()`, in paper order, the
//! bench prints the row's paper-size report (the table `run_experiments`
//! prints) and then times its quick-size run, runner plus report, under
//! the row's name, so pipeline regressions are caught.

use criterion::{criterion_group, criterion_main, Criterion};
use interscatter_sim::experiments::{catalogue, Size};

fn figures(c: &mut Criterion) {
    for experiment in catalogue() {
        println!("\n{}", (experiment.run)(Size::Paper).unwrap());
        c.bench_function(experiment.name, |b| {
            b.iter(|| (experiment.run)(Size::Quick).unwrap())
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = figures
}
criterion_main!(benches);
