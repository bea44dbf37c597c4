//! Ablation benchmarks for the paper's design choices:
//! square-wave SSB vs ideal quadrature, the guard interval, the shift
//! frequency, and the two-symbol downlink encoding. The first three print
//! their table in the `figures` bench (the catalogue's `ablations` row).

use criterion::{criterion_group, criterion_main, Criterion};
use interscatter_sim::experiments::ablations;
use interscatter_wifi::ofdm::am::{build_am_frame, decode_downlink_bits, SymbolClass};
use interscatter_wifi::ofdm::ppdu::{OfdmRate, OfdmTransmitter};
use rand::SeedableRng;

fn ablation_squarewave(c: &mut Criterion) {
    c.bench_function("ablation_squarewave", |b| {
        b.iter(|| ablations::square_wave_ablation().unwrap())
    });
}

fn ablation_guard_interval(c: &mut Criterion) {
    c.bench_function("ablation_guard_interval", |b| {
        b.iter(|| {
            ablations::guard_interval_ablation(&[
                0.0, 2e-6, 4e-6, 8e-6, 16e-6, 32e-6, 64e-6, 128e-6,
            ])
        })
    });
}

fn ablation_shift(c: &mut Criterion) {
    c.bench_function("ablation_shift", |b| {
        b.iter(|| ablations::shift_ablation(&[10e6, 20e6, 30e6, 35.75e6, 40e6, 50e6, 60e6]))
    });
}

fn ablation_downlink_encoding(c: &mut Criterion) {
    // One-symbol-per-bit versus the paper's two-symbol encoding: measure the
    // decode accuracy of each under clean conditions. The two-symbol pairing
    // gives every bit a reference symbol; the one-symbol variant has to use a
    // global threshold and mis-decodes runs of identical bits.
    let tx = OfdmTransmitter::new(OfdmRate::Mbps36, 0x2D);
    let bits: Vec<u8> = (0..48).map(|i| ((i / 5) % 2) as u8).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xAB);
    let am = build_am_frame(&tx, &bits, &mut rng).unwrap();
    let two_symbol_errors = decode_downlink_bits(&am.frame.samples)
        .iter()
        .zip(&bits)
        .filter(|(a, b)| a != b)
        .count();

    // One-symbol variant: build a schedule with exactly one symbol per bit.
    let schedule: Vec<SymbolClass> = bits
        .iter()
        .map(|&b| {
            if b == 1 {
                SymbolClass::Constant
            } else {
                SymbolClass::Random
            }
        })
        .collect();
    let data =
        interscatter_wifi::ofdm::am::craft_data_bits(OfdmRate::Mbps36, 0x2D, &schedule, &mut rng);
    let frame = tx.transmit_raw_bits(&data).unwrap();
    let classes = interscatter_wifi::ofdm::am::classify_symbols(&frame.samples);
    let one_symbol_errors = classes
        .iter()
        .zip(&schedule)
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "\nAblation: downlink bit encoding (48 bits)\n  two-symbol pairing errors: {two_symbol_errors}\n  one-symbol-per-bit class errors: {one_symbol_errors}\n"
    );

    c.bench_function("ablation_downlink_encoding", |b| {
        b.iter(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(0xAB);
            let am = build_am_frame(&tx, &bits, &mut rng).unwrap();
            decode_downlink_bits(&am.frame.samples)
        })
    });
}

criterion_group! {
    name = ablation_benches;
    config = Criterion::default().sample_size(10);
    targets = ablation_squarewave, ablation_guard_interval, ablation_shift, ablation_downlink_encoding
}
criterion_main!(ablation_benches);
