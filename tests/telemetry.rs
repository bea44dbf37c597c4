//! Observing a run leaves it byte-identical: `net::run` advances one
//! engine core from start to horizon without interruption, and progress
//! lines are emitted from inside its event loop on a simulated-time
//! cadence. The cadence never changes what the run computes: at any
//! cadence, and with progress off, the event trace, the metrics report
//! and every stored metric are byte-identical.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use interscatter::net::trace_digest::fnv1a;
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
fn progress_at_any_cadence_leaves_trace_and_metrics_identical() {
    let mut rng = StdRng::seed_from_u64(0x5EED_541A);
    for scenario in closed_loop_presets() {
        let mut quiet = scenario.clone();
        quiet.execution.progress_every_s = None;
        let off =
            interscatter::net::run(&quiet, 7).unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(!off.trace.to_bytes().is_empty(), "{}", scenario.name);
        assert!(off.telemetry.progress.is_empty(), "{}", scenario.name);
        assert!(off.telemetry.render().is_empty(), "{}", scenario.name);
        for case in 0..3 {
            let every_s = 10f64.powf(rng.gen_range(-4.0..0.0));
            let run = interscatter::net::run(&with_progress(&scenario, every_s), 7).unwrap();
            let what = format!("{} case {case}, progress every {every_s} s", scenario.name);
            assert!(!run.telemetry.progress.is_empty(), "{what}: no lines");
            assert_eq!(run.trace.to_bytes(), off.trace.to_bytes(), "{what}: trace");
            assert_eq!(off.trace.digest(), fnv1a(&run.trace.to_bytes()), "{what}");
            assert_eq!(run.metrics.report(), off.metrics.report(), "{what}: report");
            assert_eq!(
                format!("{:?}", run.metrics),
                format!("{:?}", off.metrics),
                "{what}: metrics"
            );
            // The event count is a plain loop counter, the same either way.
            assert_eq!(run.telemetry.events, off.telemetry.events, "{what}");
        }
    }
}
