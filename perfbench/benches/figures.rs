//! The `figures` workload: every `sim::experiments` runner, in
//! `run_experiments` order, plus the traced run's PHY-chain probe.

use crate::harness::{fnv1a, timed, Ledger, Op, Output};
use interscatter_backscatter::tag::TargetPhy;
use interscatter_dsp::units::db_to_amplitude;
use interscatter_sim::experiments as exp;
use interscatter_sim::measurements::Cdf;
use interscatter_sim::uplink::UplinkScenario;
use interscatter_wifi::dot11b::{Dot11bReceiver, Dot11bTransmitter, DsssRate};
use interscatter_zigbee::{ZigbeeReceiver, ZigbeeTransmitter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every runner's parameters. The workload seed feeds each runner that
/// takes one; the rest are deterministic.
#[derive(Debug, Clone)]
pub struct Params {
    seed: u64,
    fig06: exp::fig06::Fig06Params,
    fig10: exp::fig10::Fig10Params,
    fig11: exp::fig11::Fig11Params,
    fig12: exp::fig12::Fig12Params,
    fig13: exp::fig13::Fig13Params,
    fig14: exp::fig14::Fig14Params,
    fig15: exp::fig15::Fig15Params,
    fig16: exp::fig16::Fig16Params,
    fig17: exp::fig17::Fig17Params,
    scrambler_frames: u64,
    guards_s: Vec<f64>,
    shifts_hz: Vec<f64>,
}

impl Params {
    /// The defaults `run_experiments` uses, or (`tiny`) a few-millisecond
    /// version of each for the benchmark's own tests.
    pub fn new(seed: u64, tiny: bool) -> Params {
        let mut p = Params {
            seed,
            fig06: Default::default(),
            fig10: Default::default(),
            fig11: exp::fig11::Fig11Params {
                seed,
                ..Default::default()
            },
            fig12: exp::fig12::Fig12Params {
                seed,
                ..Default::default()
            },
            fig13: exp::fig13::Fig13Params {
                seed,
                ..Default::default()
            },
            fig14: exp::fig14::Fig14Params {
                seed,
                ..Default::default()
            },
            fig15: Default::default(),
            fig16: Default::default(),
            fig17: exp::fig17::Fig17Params {
                seed,
                ..Default::default()
            },
            scrambler_frames: 1000,
            guards_s: vec![0.0, 4e-6, 20e-6, 100e-6, 200e-6],
            shifts_hz: vec![22e6, 35.75e6, 36e6, 60e6],
        };
        if tiny {
            p.fig06.num_samples = 1 << 10;
            p.fig10.rx_distances_ft.truncate(2);
            p.fig11.locations = 2;
            p.fig11.packets_per_location = 2;
            p.fig12.duration_s = 0.05;
            p.fig13.distances_ft.truncate(2);
            p.fig13.frames = 1;
            p.fig14.distances_ft.truncate(2);
            p.fig14.packets_per_location = 1;
            p.fig14.rssi_samples = 4;
            p.fig15.distances_in.truncate(2);
            p.fig16.distances_in.truncate(2);
            p.fig17.distances_in.truncate(2);
            p.fig17.payloads_per_distance = 1;
            p.scrambler_frames = 10;
            p.guards_s.truncate(2);
            p.shifts_hz.truncate(2);
        }
        p
    }
}

fn op(name: &str, run: impl Fn() -> Result<String, String> + 'static) -> Op {
    Op {
        name: name.into(),
        run: Box::new(move |_traced| {
            run().map(|text| Output {
                text,
                ..Output::default()
            })
        }),
    }
}

fn err(e: interscatter_sim::SimError) -> String {
    e.to_string()
}

/// One operation per runner; the span names double as the `sim.*`
/// per-layer metric names.
pub fn ops(p: &Params) -> Vec<Op> {
    let seed = p.seed;
    let p06 = p.fig06;
    let p10 = p.fig10.clone();
    let p11 = p.fig11.clone();
    let p12 = p.fig12.clone();
    let p13 = p.fig13.clone();
    let p14 = p.fig14.clone();
    let p15 = p.fig15.clone();
    let p16 = p.fig16.clone();
    let p17 = p.fig17.clone();
    let frames = p.scrambler_frames;
    let (guards, shifts) = (p.guards_s.clone(), p.shifts_hz.clone());
    vec![
        op("sim.fig06_s", move || {
            exp::fig06::run(&p06)
                .map(|r| exp::fig06::report(&r))
                .map_err(err)
        }),
        op("sim.fig09_s", move || {
            exp::fig09::run(seed)
                .map(|r| exp::fig09::report(&r))
                .map_err(err)
        }),
        op("sim.packet_fit_s", || {
            Ok(exp::packet_fit::report(&exp::packet_fit::run()))
        }),
        op("sim.fig10_s", move || {
            exp::fig10::run(&p10)
                .map(|r| exp::fig10::report(&r))
                .map_err(err)
        }),
        op("sim.fig11_s", move || {
            exp::fig11::run(&p11)
                .map(|r| exp::fig11::report(&r))
                .map_err(err)
        }),
        op("sim.fig12_s", move || {
            exp::fig12::run(&p12)
                .map(|r| exp::fig12::report(&r))
                .map_err(err)
        }),
        op("sim.fig13_s", move || {
            exp::fig13::run(&p13)
                .map(|r| exp::fig13::report(&r))
                .map_err(err)
        }),
        op("sim.fig14_s", move || {
            exp::fig14::run(&p14)
                .map(|(rows, cdf)| exp::fig14::report(&rows, &cdf))
                .map_err(err)
        }),
        op("sim.fig15_s", move || {
            exp::fig15::run(&p15)
                .map(|r| exp::fig15::report(&r))
                .map_err(err)
        }),
        op("sim.fig16_s", move || {
            exp::fig16::run(&p16)
                .map(|r| exp::fig16::report(&r))
                .map_err(err)
        }),
        op("sim.fig17_s", move || {
            exp::fig17::run(&p17)
                .map(|r| exp::fig17::report(&r))
                .map_err(err)
        }),
        op("sim.power_s", || {
            let (rows, points) = exp::power::run();
            Ok(exp::power::report(&rows, &points))
        }),
        op("sim.scrambler_seed_s", move || {
            Ok(exp::scrambler_seed::report(&exp::scrambler_seed::run(
                frames,
            )))
        }),
        op("sim.ablations_s", move || {
            let square = exp::ablations::square_wave_ablation().map_err(err)?;
            let guards = exp::ablations::guard_interval_ablation(&guards);
            let shifts = exp::ablations::shift_ablation(&shifts);
            Ok(exp::ablations::report(&square, &guards, &shifts))
        }),
    ]
}

/// Fig. 11's two rates and their payload lengths, in its loop order.
pub const WIFI_RATES: [(DsssRate, usize); 2] = [(DsssRate::Mbps2, 31), (DsssRate::Mbps11, 77)];

/// Host time of one PHY chain's calls, summed over every packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chain {
    /// Packets pushed through the chain.
    pub packets: usize,
    /// Packets received intact.
    pub ok: usize,
    /// Seconds in the transmitter.
    pub tx_s: f64,
    /// Seconds in `NoiseModel::add_noise`.
    pub noise_s: f64,
    /// Seconds in the receiver.
    pub rx_s: f64,
}

impl Chain {
    /// Seconds across all three calls.
    pub fn total_s(&self) -> f64 {
        self.tx_s + self.noise_s + self.rx_s
    }
}

/// What the probe measured: the 802.11b chain at 2 and 11 Mbps, and the
/// ZigBee chain.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhyProbe {
    /// Fig. 11's packets, at [`WIFI_RATES`].
    pub wifi: [Chain; 2],
    /// Fig. 14's packets.
    pub zigbee: Chain,
}

/// Replays Fig. 11's and Fig. 14's per-packet calls through the PHY
/// crates' public functions, timing each call. The replay rebuilds each
/// figure's own generator from its params seed, so it draws the same
/// noise: the report it rebuilds from its own outcomes must equal the
/// figure's, which `ledger` checks against the warm-up digests.
pub fn phy_probe(p: &Params, ledger: &mut Ledger) -> PhyProbe {
    let mut probe = PhyProbe::default();
    match replay_fig11(&p.fig11, &mut probe) {
        Ok(text) => record_replay(ledger, "sim.fig11_s", &text),
        Err(e) => ledger.fail("phy probe 802.11b", &e),
    }
    match replay_fig14(&p.fig14, &mut probe.zigbee) {
        Ok(text) => record_replay(ledger, "sim.fig14_s", &text),
        Err(e) => ledger.fail("phy probe zigbee", &e),
    }
    probe
}

fn record_replay(ledger: &mut Ledger, figure: &str, report: &str) {
    ledger.attempted += 1;
    let digest = fnv1a(report.as_bytes());
    if ledger.reference(figure) != Some(digest) {
        ledger.fail(
            figure,
            "PHY probe replay disagrees with the figure's report",
        );
    }
}

fn replay_fig11(params: &exp::fig11::Fig11Params, probe: &mut PhyProbe) -> Result<String, String> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut points = Vec::new();
    for (chain, (rate, payload_len)) in probe.wifi.iter_mut().zip(WIFI_RATES) {
        for loc in 0..params.locations {
            let span = params.rssi_range_dbm.1 - params.rssi_range_dbm.0;
            let rssi = params.rssi_range_dbm.0
                + span * loc as f64 / (params.locations - 1).max(1) as f64
                + rng.gen_range(-1.0..1.0);
            let mut scenario = UplinkScenario::fig10_bench(4.0, 1.0, 10.0);
            scenario.target = TargetPhy::Wifi(rate);
            let mut errors = 0usize;
            for pkt in 0..params.packets_per_location {
                let payload: Vec<u8> = (0..payload_len)
                    .map(|i| ((i * 7 + pkt + loc) % 251) as u8)
                    .collect();
                let (frame, s) = timed(|| Dot11bTransmitter::new(rate).transmit(&payload));
                chain.tx_s += s;
                let frame = frame.map_err(|e| e.to_string())?;
                let amplitude = db_to_amplitude(rssi);
                let scaled: Vec<_> = frame.chips.iter().map(|&c| c * amplitude).collect();
                let (noisy, s) = timed(|| scenario.noise_model().add_noise(&scaled, &mut rng));
                chain.noise_s += s;
                let (received, s) = timed(|| Dot11bReceiver::default().receive(&noisy));
                chain.rx_s += s;
                chain.packets += 1;
                if matches!(received, Ok(r) if r.fcs_ok && r.payload == payload) {
                    chain.ok += 1;
                } else {
                    errors += 1;
                }
            }
            points.push(exp::fig11::PerPoint {
                rate,
                rssi_dbm: rssi,
                per: errors as f64 / params.packets_per_location as f64,
            });
        }
    }
    Ok(exp::fig11::report(&points))
}

fn replay_fig14(params: &exp::fig14::Fig14Params, chain: &mut Chain) -> Result<String, String> {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut rows = Vec::new();
    let mut cdf = Cdf::new();
    for &d in &params.distances_ft {
        let scenario = UplinkScenario::fig14_zigbee(d);
        scenario.validate().map_err(err)?;
        let rssi = scenario.rssi_dbm();
        for _ in 0..params.rssi_samples {
            cdf.push(scenario.rssi_shadowed_dbm(&mut rng));
        }
        let mut delivered = 0usize;
        for pkt in 0..params.packets_per_location {
            let payload: Vec<u8> = (0..20).map(|i| ((i + pkt) % 251) as u8).collect();
            let (wave, s) = timed(|| ZigbeeTransmitter::default().transmit(&payload));
            chain.tx_s += s;
            let wave = wave.map_err(|e| e.to_string())?;
            let amplitude = db_to_amplitude(rssi);
            let scaled: Vec<_> = wave.samples.iter().map(|&c| c * amplitude).collect();
            let (noisy, s) = timed(|| scenario.noise_model().add_noise(&scaled, &mut rng));
            chain.noise_s += s;
            let (received, s) = timed(|| ZigbeeReceiver::default().receive(&noisy));
            chain.rx_s += s;
            chain.packets += 1;
            if matches!(received, Ok(f) if f.payload == payload) {
                chain.ok += 1;
                delivered += 1;
            }
        }
        rows.push(exp::fig14::ZigbeeRssiPoint {
            distance_ft: d,
            rssi_dbm: rssi,
            delivery_ratio: delivered as f64 / params.packets_per_location as f64,
        });
    }
    Ok(exp::fig14::report(&rows, &cdf))
}
