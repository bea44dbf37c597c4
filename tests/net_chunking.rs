//! The one-pass progress contract: `net::run` advances one engine core
//! from start to horizon without interruption, and progress lines are
//! emitted from inside its event loop on a simulated-time cadence. The
//! cadence never changes what the run computes: at any cadence, and with
//! progress off, the event trace and the metrics report are
//! byte-identical.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every closed-loop preset, bedside through campus, including the
/// presets that split into several interference cells.
fn closed_loop_presets() -> Vec<Scenario> {
    vec![
        Scenario::hospital_ward(8).closed_loop(),
        Scenario::contact_lens_fleet(6).closed_loop(),
        Scenario::card_to_card_room(5).closed_loop(),
        Scenario::zigbee_wing(40).closed_loop(),
        Scenario::congested_ward(9),
        Scenario::campus(768),
    ]
}

fn with_progress(scenario: &Scenario, every_s: f64) -> Scenario {
    scenario
        .clone()
        .builder()
        .execution(ExecutionSection::new().progress(every_s, false))
        .build()
        .unwrap()
}

#[test]
fn random_epoch_lengths_match_one_chunk() {
    let mut rng = StdRng::seed_from_u64(0x5EED_541A);
    for scenario in closed_loop_presets() {
        let mut quiet = scenario.clone();
        quiet.telemetry.progress_every_s = None;
        let off =
            interscatter::net::run(&quiet, 7).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(!off.trace.to_bytes().is_empty(), "{}", scenario.name);
        assert!(off.telemetry.progress.is_empty(), "{}", scenario.name);
        for case in 0..3 {
            let every_s = 10f64.powf(rng.gen_range(-4.0..0.0));
            let run = interscatter::net::run(&with_progress(&scenario, every_s), 7).unwrap();
            let what = format!("{} case {case}, progress every {every_s} s", scenario.name);
            assert!(!run.telemetry.progress.is_empty(), "{what}: no lines");
            assert_eq!(run.trace.to_bytes(), off.trace.to_bytes(), "{what}: trace");
            assert_eq!(run.metrics.report(), off.metrics.report(), "{what}: report");
        }
    }
}
