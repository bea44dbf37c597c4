//! Throughput benchmarks of the individual PHY pipelines the experiments are
//! built from: how fast the simulator generates and decodes 802.11b frames,
//! OFDM frames, ZigBee frames, GFSK advertisements and backscatter
//! reflection sequences, and how fast the channel adds AWGN to them. These
//! are the inner loops of every figure bench.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use interscatter_backscatter::ssb::{reflection_sequence, SsbConfig};
use interscatter_ble::channels::BleChannel;
use interscatter_ble::gfsk::{GfskConfig, GfskModulator};
use interscatter_ble::single_tone::{single_tone_packet, TonePolarity};
use interscatter_channel::noise::NoiseModel;
use interscatter_dsp::fft::Fft;
use interscatter_dsp::Cplx;
use interscatter_wifi::dot11b::{Dot11bReceiver, Dot11bTransmitter, DsssRate};
use interscatter_wifi::ofdm::ppdu::{OfdmRate, OfdmReceiver, OfdmTransmitter};
use interscatter_zigbee::{ZigbeeReceiver, ZigbeeTransmitter};
use rand::SeedableRng;

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("dsp_fft");
    for &n in &[64usize, 1024, 4096] {
        let plan = Fft::new(n).unwrap();
        let data: Vec<Cplx> = (0..n).map(|i| Cplx::expj(i as f64 * 0.01)).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(format!("fft_{n}"), |b| {
            b.iter(|| plan.forward_vec(&data).unwrap())
        });
    }
    group.finish();
}

fn bench_ble_single_tone(c: &mut Criterion) {
    let cfg = GfskConfig::default();
    let modulator = GfskModulator::new(cfg).unwrap();
    let packet = single_tone_packet(
        BleChannel::ADV_38,
        [1, 2, 3, 4, 5, 6],
        31,
        TonePolarity::High,
    )
    .unwrap();
    let bits = packet.to_air_bits(BleChannel::ADV_38).unwrap();
    c.bench_function("ble_single_tone_modulate", |b| {
        b.iter(|| modulator.modulate(&bits, 0.0))
    });
}

fn bench_dot11b(c: &mut Criterion) {
    let mut group = c.benchmark_group("dot11b");
    group.sample_size(20);
    for (rate, payload) in [(DsssRate::Mbps2, 31usize), (DsssRate::Mbps11, 77usize)] {
        let tx = Dot11bTransmitter::new(rate);
        let data = vec![0xA5u8; payload];
        let frame = tx.transmit(&data).unwrap();
        let rx = Dot11bReceiver::default();
        group.bench_function(format!("tx_{rate:?}"), |b| {
            b.iter(|| tx.transmit(&data).unwrap())
        });
        group.bench_function(format!("rx_{rate:?}"), |b| {
            b.iter(|| rx.receive(&frame.chips).unwrap())
        });
    }
    group.finish();
}

fn bench_ofdm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ofdm");
    group.sample_size(20);
    let tx = OfdmTransmitter::new(OfdmRate::Mbps36, 0x2F);
    let psdu = vec![0x3Cu8; 100];
    let frame = tx.transmit(&psdu).unwrap();
    let rx = OfdmReceiver::new(OfdmRate::Mbps36, 0x2F);
    group.bench_function("tx_36mbps", |b| b.iter(|| tx.transmit(&psdu).unwrap()));
    group.bench_function("rx_36mbps", |b| {
        b.iter(|| rx.receive_psdu(&frame.samples, psdu.len()).unwrap())
    });
    group.finish();
}

fn bench_zigbee(c: &mut Criterion) {
    let mut group = c.benchmark_group("zigbee");
    group.sample_size(20);
    let tx = ZigbeeTransmitter::default();
    let payload = vec![0x42u8; 60];
    let wave = tx.transmit(&payload).unwrap();
    let rx = ZigbeeReceiver::default();
    group.bench_function("tx_250kbps", |b| b.iter(|| tx.transmit(&payload).unwrap()));
    group.bench_function("rx_250kbps", |b| {
        b.iter(|| rx.receive(&wave.samples).unwrap())
    });
    group.finish();
}

fn bench_backscatter_ssb(c: &mut Criterion) {
    let config = SsbConfig::new(176e6, 35.75e6);
    let baseband: Vec<Cplx> = (0..50_000).map(|i| Cplx::expj(i as f64 * 0.2)).collect();
    let mut group = c.benchmark_group("backscatter");
    group.sample_size(20);
    group.throughput(Throughput::Elements(baseband.len() as u64));
    group.bench_function("ssb_reflection_sequence", |b| {
        b.iter(|| reflection_sequence(&config, &baseband).unwrap())
    });
    group.finish();
}

fn bench_awgn(c: &mut Criterion) {
    let model = NoiseModel::wifi_dsss();
    let mut samples: Vec<Cplx> = (0..4096).map(|i| Cplx::expj(i as f64 * 0.01)).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA7);
    let mut group = c.benchmark_group("channel");
    group.throughput(Throughput::Elements(samples.len() as u64));
    group.bench_function("awgn_4096", |b| {
        b.iter(|| model.add_noise_in_place(&mut samples, &mut rng))
    });
    group.finish();
}

criterion_group! {
    name = phy;
    config = Criterion::default();
    targets = bench_fft, bench_ble_single_tone, bench_dot11b, bench_ofdm, bench_zigbee,
        bench_backscatter_ssb, bench_awgn
}
criterion_main!(phy);
