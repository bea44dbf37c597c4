//! Integration tests for the downlink pipeline and smoke tests over every
//! experiment runner (the same entry points the bench harness uses).

use interscatter::backscatter::envelope::EnvelopeDetector;
use interscatter::dsp::iq::scale;
use interscatter::sim::experiments as exp;
use interscatter::sim::mac::{simulate_coexistence, CoexistenceConfig, InterferenceMode};
use interscatter::wifi::ofdm::am::{build_am_frame, decode_downlink_bits};
use interscatter::wifi::ofdm::ppdu::{OfdmRate, OfdmTransmitter};
use interscatter::wifi::ofdm::scrambler::SeedPolicy;
use interscatter::wifi::ofdm::symbol::SYMBOL_LEN;
use rand::{Rng, SeedableRng};

/// The downlink pipeline wired by hand: craft an AM frame for a predicted
/// seed, transmit it, attenuate it to a realistic level, and decode it both
/// with the sample-domain decoder and through the envelope-detector model.
#[test]
fn ofdm_am_downlink_end_to_end() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD0);
    let policy = SeedPolicy::Incrementing { start: 90 };
    let frame_index = 41;
    let seed = policy.seed_for_frame(frame_index);
    let tx = OfdmTransmitter::new(OfdmRate::Mbps36, seed);
    let command: Vec<u8> = (0..56).map(|_| rng.gen_range(0..=1u8)).collect();
    let am = build_am_frame(&tx, &command, &mut rng).unwrap();

    // Sample-domain decode (ideal receiver).
    assert_eq!(decode_downlink_bits(&am.frame.samples), command);

    // Envelope-detector decode at -25 dBm received power.
    let received = scale(
        &am.frame.samples,
        interscatter::dsp::units::db_to_amplitude(-25.0),
    );
    let detector = EnvelopeDetector::new(interscatter::wifi::ofdm::OFDM_SAMPLE_RATE);
    let decoded = detector.decode_am_downlink(&received, SYMBOL_LEN).unwrap();
    assert_eq!(decoded, command);

    // The frame is still a valid OFDM DATA field: a conventional OFDM
    // receiver with the right seed recovers the crafted bits exactly.
    let rx = interscatter::wifi::ofdm::ppdu::OfdmReceiver::new(OfdmRate::Mbps36, seed);
    let data_bits = rx.receive_data_bits(&am.frame.samples).unwrap();
    assert_eq!(data_bits, am.frame.data_bits);
}

/// The coexistence model and the reservation optimisations behave sanely
/// when driven directly (not through the Fig. 12 runner).
#[test]
fn coexistence_and_reservations() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0E1);
    let config = CoexistenceConfig::default();
    let baseline = simulate_coexistence(&config, InterferenceMode::None, 0.0, 1.0, &mut rng);
    let ssb = simulate_coexistence(
        &config,
        InterferenceMode::SingleSideband,
        1000.0,
        1.0,
        &mut rng,
    );
    let dsb = simulate_coexistence(
        &config,
        InterferenceMode::DoubleSideband,
        1000.0,
        1.0,
        &mut rng,
    );
    assert!(ssb.throughput_mbps > 0.95 * baseline.throughput_mbps);
    assert!(dsb.throughput_mbps < 0.6 * baseline.throughput_mbps);
    assert!(dsb.collision_fraction > ssb.collision_fraction);

    let busy = 0.6;
    let unprotected = interscatter::sim::mac::backscatter_delivery_probability(busy, false);
    let protected = interscatter::sim::mac::backscatter_delivery_probability(busy, true);
    assert!(protected > unprotected);
}

/// Every experiment runner completes with reduced parameters and produces a
/// non-empty report — the contract the bench harness and the
/// `run_experiments` example rely on.
#[test]
fn all_experiment_runners_smoke() {
    let fig06 = exp::fig06::run(&exp::fig06::Fig06Params {
        num_samples: 1 << 13,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig06::report(&fig06).is_empty());

    let fig09 = exp::fig09::run(1).unwrap();
    assert!(!exp::fig09::report(&fig09).is_empty());

    let fit = exp::packet_fit::run();
    assert!(!exp::packet_fit::report(&fit).is_empty());

    let fig10 = exp::fig10::run(&exp::fig10::Fig10Params {
        rx_distances_ft: vec![10.0, 50.0],
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig10::report(&fig10).is_empty());

    let fig11 = exp::fig11::run(&exp::fig11::Fig11Params {
        locations: 3,
        packets_per_location: 3,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig11::report(&fig11).is_empty());

    let fig12 = exp::fig12::run(&exp::fig12::Fig12Params {
        duration_s: 0.2,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig12::report(&fig12).is_empty());

    let fig13 = exp::fig13::run(&exp::fig13::Fig13Params {
        distances_ft: vec![5.0, 30.0],
        frames: 1,
        bits_per_frame: 8,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig13::report(&fig13).is_empty());

    let (fig14_rows, fig14_cdf) = exp::fig14::run(&exp::fig14::Fig14Params {
        packets_per_location: 1,
        rssi_samples: 3,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig14::report(&fig14_rows, &fig14_cdf).is_empty());

    let fig15 = exp::fig15::run(&exp::fig15::Fig15Params::default()).unwrap();
    assert!(!exp::fig15::report(&fig15).is_empty());

    let fig16 = exp::fig16::run(&exp::fig16::Fig16Params::default()).unwrap();
    assert!(!exp::fig16::report(&fig16).is_empty());

    let fig17 = exp::fig17::run(&exp::fig17::Fig17Params {
        distances_in: vec![10.0, 60.0],
        payloads_per_distance: 2,
        ..Default::default()
    })
    .unwrap();
    assert!(!exp::fig17::report(&fig17).is_empty());

    let (power_rows, power_points) = exp::power::run();
    assert!(!exp::power::report(&power_rows, &power_points).is_empty());

    let seeds = exp::scrambler_seed::run(100);
    assert!(!exp::scrambler_seed::report(&seeds).is_empty());

    let square = exp::ablations::square_wave_ablation().unwrap();
    let guards = exp::ablations::guard_interval_ablation(&[4e-6]);
    let shifts = exp::ablations::shift_ablation(&[35.75e6]);
    assert!(!exp::ablations::report(&square, &guards, &shifts).is_empty());
}

/// The headline numbers `run_experiments` prints stay true: packet-fit
/// matches the paper exactly, the IC budget matches the paper within 2 %,
/// and the SSB/DSB ordering holds in both the spectral and the MAC domains.
#[test]
fn run_experiments_headline_numbers() {
    let fit = exp::packet_fit::run();
    assert_eq!(fit[1].max_psdu_bytes, Some(38));
    assert_eq!(fit[2].max_psdu_bytes, Some(104));
    assert_eq!(fit[3].max_psdu_bytes, Some(209));

    let (power_rows, _) = exp::power::run();
    for row in &power_rows {
        assert!(
            (row.model_w - row.paper_w).abs() / row.paper_w < 0.02,
            "{}",
            row.block
        );
    }

    let [ssb, dsb] = exp::fig06::run(&exp::fig06::Fig06Params {
        num_samples: 1 << 14,
        ..Default::default()
    })
    .unwrap();
    assert!(ssb.suppression_db > 15.0);
    assert!(dsb.suppression_db.abs() < 1.0);
}
