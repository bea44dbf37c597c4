//! The one-engine chunking contract: `net::run` advances one engine core
//! in `epoch_s` chunks (the progress and profiling chunk), and the chunk
//! length never changes what the run computes. At any epoch length the
//! event trace, the metrics report and the telemetry — progress lines
//! included — are byte-identical to a one-chunk run.

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

fn chunked(scenario: &Scenario, epoch_s: f64) -> Scenario {
    scenario
        .clone()
        .builder()
        .execution(
            ExecutionSection::new()
                .epoch_s(epoch_s)
                .progress(0.25, false),
        )
        .build()
        .unwrap()
}

#[test]
fn random_epoch_lengths_match_one_chunk() {
    let mut rng = StdRng::seed_from_u64(0x5EED_541A);
    for scenario in closed_loop_presets() {
        // One chunk: the first boundary already lies past the horizon.
        let one = interscatter::net::run(&chunked(&scenario, 2.0 * scenario.duration_s), 7)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(!one.trace.to_bytes().is_empty(), "{}", scenario.name);
        assert!(!one.telemetry.progress.is_empty(), "{}", scenario.name);
        for case in 0..3 {
            let epoch_s = 10f64.powf(rng.gen_range(-4.0..0.0));
            let run = interscatter::net::run(&chunked(&scenario, epoch_s), 7).unwrap();
            let what = format!("{} case {case}, epoch {epoch_s} s", scenario.name);
            assert_eq!(run.trace.to_bytes(), one.trace.to_bytes(), "{what}: trace");
            assert_eq!(run.metrics.report(), one.metrics.report(), "{what}: report");
            assert_eq!(run.telemetry, one.telemetry, "{what}: telemetry");
        }
    }
}
