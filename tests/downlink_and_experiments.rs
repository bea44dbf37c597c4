//! Integration tests for the downlink pipeline and smoke tests over every
//! row of the experiment catalogue (the rows the bench harness times).

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

/// Every catalogue row completes at its quick size and renders a
/// non-empty report free of `NaN`: the contract the `figures` bench and the
/// `run_experiments` example rely on.
#[test]
fn all_experiment_runners_smoke() {
    for experiment in exp::catalogue() {
        let report = (experiment.run)(exp::Size::Quick)
            .unwrap_or_else(|e| panic!("{}: {e}", experiment.name));
        assert!(!report.is_empty(), "{}", experiment.name);
        assert!(!report.contains("NaN"), "{}:\n{report}", experiment.name);
    }
}

/// The catalogue runs in the order `run_experiments` printed its tables
/// when it called each runner by hand, so its stdout did not move.
#[test]
fn catalogue_keeps_the_paper_order() {
    let names: Vec<&str> = exp::catalogue().iter().map(|e| e.name).collect();
    assert_eq!(
        names,
        [
            "fig06",
            "fig09",
            "packet_fit",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "fig17",
            "power",
            "scrambler_seed",
            "ablations",
        ]
    );
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
