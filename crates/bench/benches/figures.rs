//! Benchmark harness regenerating every figure and table of the paper's
//! evaluation section.
//!
//! Each bench group prints the reproduced table once (the same table the
//! `run_experiments` example prints) and then times the
//! experiment runner at a reduced-but-representative setting so pipeline
//! regressions are caught.

use criterion::{criterion_group, criterion_main, Criterion};
use interscatter_bench::ReportOnce;
use interscatter_sim::experiments as exp;

fn fig06_ssb_spectrum(c: &mut Criterion) {
    let report = ReportOnce::new();
    let params = exp::fig06::Fig06Params {
        num_samples: 1 << 14,
        ..Default::default()
    };
    let full = exp::fig06::run(&exp::fig06::Fig06Params::default()).unwrap();
    report.print(&exp::fig06::report(&full));
    c.bench_function("fig06_ssb_spectrum", |b| {
        b.iter(|| exp::fig06::run(&params).unwrap())
    });
}

fn fig09_single_tone(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig09::run(0x5EED).unwrap();
    report.print(&exp::fig09::report(&rows));
    c.bench_function("fig09_single_tone", |b| {
        b.iter(|| exp::fig09::run(0x5EED).unwrap())
    });
}

fn packet_fit_table(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::packet_fit::run();
    report.print(&exp::packet_fit::report(&rows));
    c.bench_function("packet_fit_table", |b| b.iter(exp::packet_fit::run));
}

fn fig10_rssi(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig10::run(&exp::fig10::Fig10Params::default()).unwrap();
    report.print(&exp::fig10::report(&rows));
    c.bench_function("fig10_rssi", |b| {
        b.iter(|| exp::fig10::run(&exp::fig10::Fig10Params::default()).unwrap())
    });
}

fn fig11_per(c: &mut Criterion) {
    let report = ReportOnce::new();
    let full = exp::fig11::Fig11Params::default();
    let rows = exp::fig11::run(&full).unwrap();
    report.print(&exp::fig11::report(&rows));
    let reduced = exp::fig11::Fig11Params {
        locations: 4,
        packets_per_location: 5,
        ..full
    };
    let mut group = c.benchmark_group("fig11_per");
    group.sample_size(10);
    group.bench_function("per_cdf", |b| b.iter(|| exp::fig11::run(&reduced).unwrap()));
    group.finish();
}

fn fig12_iperf(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig12::run(&exp::fig12::Fig12Params::default()).unwrap();
    report.print(&exp::fig12::report(&rows));
    let reduced = exp::fig12::Fig12Params {
        duration_s: 0.5,
        ..Default::default()
    };
    c.bench_function("fig12_iperf", |b| {
        b.iter(|| exp::fig12::run(&reduced).unwrap())
    });
}

fn fig13_downlink_ber(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig13::run(&exp::fig13::Fig13Params::default()).unwrap();
    report.print(&exp::fig13::report(&rows));
    let reduced = exp::fig13::Fig13Params {
        distances_ft: vec![5.0, 15.0, 40.0],
        frames: 1,
        bits_per_frame: 16,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig13_downlink_ber");
    group.sample_size(10);
    group.bench_function("ber_sweep", |b| {
        b.iter(|| exp::fig13::run(&reduced).unwrap())
    });
    group.finish();
}

fn fig14_zigbee(c: &mut Criterion) {
    let report = ReportOnce::new();
    let (rows, cdf) = exp::fig14::run(&exp::fig14::Fig14Params::default()).unwrap();
    report.print(&exp::fig14::report(&rows, &cdf));
    let reduced = exp::fig14::Fig14Params {
        packets_per_location: 1,
        rssi_samples: 5,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig14_zigbee");
    group.sample_size(10);
    group.bench_function("rssi_cdf", |b| {
        b.iter(|| exp::fig14::run(&reduced).unwrap())
    });
    group.finish();
}

fn fig15_lens(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig15::run(&exp::fig15::Fig15Params::default()).unwrap();
    report.print(&exp::fig15::report(&rows));
    c.bench_function("fig15_lens", |b| {
        b.iter(|| exp::fig15::run(&exp::fig15::Fig15Params::default()).unwrap())
    });
}

fn fig16_implant(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig16::run(&exp::fig16::Fig16Params::default()).unwrap();
    report.print(&exp::fig16::report(&rows));
    c.bench_function("fig16_implant", |b| {
        b.iter(|| exp::fig16::run(&exp::fig16::Fig16Params::default()).unwrap())
    });
}

fn fig17_cards(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::fig17::run(&exp::fig17::Fig17Params::default()).unwrap();
    report.print(&exp::fig17::report(&rows));
    let reduced = exp::fig17::Fig17Params {
        payloads_per_distance: 2,
        ..Default::default()
    };
    let mut group = c.benchmark_group("fig17_cards");
    group.sample_size(10);
    group.bench_function("ber_sweep", |b| {
        b.iter(|| exp::fig17::run(&reduced).unwrap())
    });
    group.finish();
}

fn power_budget(c: &mut Criterion) {
    let report = ReportOnce::new();
    let (rows, points) = exp::power::run();
    report.print(&exp::power::report(&rows, &points));
    c.bench_function("power_budget", |b| b.iter(exp::power::run));
}

fn scrambler_seed(c: &mut Criterion) {
    let report = ReportOnce::new();
    let rows = exp::scrambler_seed::run(1000);
    report.print(&exp::scrambler_seed::report(&rows));
    c.bench_function("scrambler_seed", |b| {
        b.iter(|| exp::scrambler_seed::run(200))
    });
}

criterion_group! {
    name = figures;
    config = Criterion::default().sample_size(10);
    targets =
    fig06_ssb_spectrum,
    fig09_single_tone,
    packet_fit_table,
    fig10_rssi,
    fig11_per,
    fig12_iperf,
    fig13_downlink_ber,
    fig14_zigbee,
    fig15_lens,
    fig16_implant,
    fig17_cards,
    power_budget,
    scrambler_seed
}
criterion_main!(figures);
