//! Closed-loop MAC contract tests: the engine's analytic downlink decode
//! model must agree with the waveform-level envelope-detector simulation
//! (`sim::downlink`, the ROADMAP's spot-check item), and the acceptance
//! geometry — poll → backscatter → ack transactions completing at 1, 10
//! and 100 tags — must hold.

use interscatter::net::links::LinkBudget;
use interscatter::net::scenario::{ExecutionSection, Scenario};
use interscatter::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Runs `scenario` on the exact engine with event-trace recording off.
fn run_untraced(scenario: &Scenario, seed: u64) -> NetRunResult {
    let scenario = scenario
        .clone()
        .builder()
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap();
    interscatter::net::run(&scenario, seed).unwrap()
}

/// The distance at which `scenario`'s received power hits `target_dbm`
/// (the path-loss model is monotone in distance).
fn distance_for_power(scenario: &DownlinkScenario, target_dbm: f64) -> f64 {
    let (mut lo, mut hi) = (0.01, 1000.0);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if scenario.received_power_dbm(mid) > target_dbm {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// Fraction of `frames` AM frames decoded without a single bit error at
/// `distance_m` — the full §4.4 pipeline: OFDM synthesis, AM crafting,
/// path loss, detector noise, envelope decoding.
fn waveform_frame_success(scenario: &DownlinkScenario, distance_m: f64, frames: usize) -> f64 {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD0_11);
    let bits: Vec<u8> = (0..16).map(|i| (i % 3 == 0) as u8).collect();
    let ok = (0..frames)
        .filter(|&f| {
            scenario
                .simulate_frame(&bits, distance_m, f as u64, &mut rng)
                .unwrap()
                == 0
        })
        .count();
    ok as f64 / frames as f64
}

/// Fraction of decode draws the engine's margin model delivers for a
/// downlink budget `margin_db` above the envelope detector's sensitivity —
/// the per-poll arbitration `crates/net` runs instead of synthesizing
/// waveforms.
fn engine_decode_rate(margin_db: f64, trials: usize) -> f64 {
    let detector = EnvelopeDetector::new(20e6);
    let budget = LinkBudget {
        median_rssi_dbm: detector.sensitivity_dbm + margin_db,
        // One conventional forward hop, as the engine's poll budgets use.
        shadow_sigma_db: LogDistanceModel::indoor_los(2.437e9).shadowing_sigma_db,
        sensitivity_dbm: detector.sensitivity_dbm,
        noise_floor_dbm: -45.0,
    };
    let mut rng = SmallRng::seed_from_u64(0xE27);
    let ok = (0..trials)
        .filter(|_| budget.packet_outcome(&mut rng).0)
        .count();
    ok as f64 / trials as f64
}

#[test]
fn engine_downlink_decode_matches_envelope_detector_trials() {
    let scenario = DownlinkScenario::fig13_bench(15.0);
    let sensitivity = scenario.detector.sensitivity_dbm;

    // At +6 dB of margin both models sit on the good side of the Fig. 13
    // cliff: the waveform trials decode essentially every frame, and the
    // engine's shadowed-margin draw agrees to within a few percent.
    let margin = 6.0;
    let d = distance_for_power(&scenario, sensitivity + margin);
    let waveform = waveform_frame_success(&scenario, d, 30);
    let engine = engine_decode_rate(margin, 4000);
    assert!(
        (waveform - engine).abs() < 0.05,
        "at +{margin} dB ({d:.2} m): waveform {waveform:.3} vs engine {engine:.3}"
    );

    // Far below sensitivity both models collapse, the cliff's other side.
    let d_far = distance_for_power(&scenario, sensitivity - 10.0);
    let waveform_far = waveform_frame_success(&scenario, d_far, 10);
    let engine_far = engine_decode_rate(-10.0, 4000);
    assert!(
        waveform_far < 0.05 && engine_far < 0.05,
        "at -10 dB: waveform {waveform_far:.3} vs engine {engine_far:.3}"
    );
}

#[test]
fn closed_loop_ward_completes_transactions_at_every_scale() {
    // The acceptance geometry: non-zero completion at 1, 10 and 100 tags,
    // with every delivery riding a full poll → backscatter → ack
    // transaction.
    for n_tags in [1usize, 10, 100] {
        let scenario = Scenario::hospital_ward(n_tags).closed_loop();
        let result = run_untraced(&scenario, 42);
        let m = &result.metrics;
        assert!(
            m.completed_transactions() > 0,
            "{n_tags} tags: no transactions completed"
        );
        assert_eq!(m.completed_transactions(), m.delivered_packets());
        assert!(m.transaction_completion_rate() > 0.5, "{n_tags} tags");
        assert!(m.transactions_per_sec() > 0.0);
    }
}

#[test]
fn closed_loop_pays_for_feedback_with_airtime() {
    // The loop's three frames per delivery cost slots: under the same
    // offered load the closed loop cannot beat open-loop delivery, but it
    // must still deliver the bulk of the traffic.
    let open = run_untraced(&Scenario::hospital_ward(30), 9).metrics;
    let closed = run_untraced(&Scenario::hospital_ward(30).closed_loop(), 9).metrics;
    assert!(closed.delivery_ratio() <= open.delivery_ratio() + 0.05);
    assert!(
        closed.delivery_ratio() > 0.5,
        "closed-loop delivery {}",
        closed.delivery_ratio()
    );
    // Open-loop runs never poll; closed-loop runs always do.
    assert_eq!(open.polls(), 0);
    assert!(closed.polls() > 0);
}
