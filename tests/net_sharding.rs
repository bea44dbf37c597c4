//! The shard-count contract: `ExecutionConfig::shards` is validated but
//! never reaches the simulation, so a scenario's trace digest, metrics
//! report and telemetry are **byte-identical at any shard count**, and
//! every run — at any shard count, at any progress cadence — equals the
//! plain run: one uninterrupted engine pass (`net::run` builds the engine
//! core, runs it to the horizon and finishes it). See `net::run` for the
//! one-engine execution model and `tests/net_chunking.rs` for the
//! progress-cadence property.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn with_shards(scenario: &Scenario, shards: usize) -> Scenario {
    scenario
        .clone()
        .builder()
        .execution(ExecutionSection::new().shards(shards))
        .build()
        .unwrap()
}

/// Every closed-loop preset, bedside through campus — the matrix the
/// digest-invariance contract is pinned on.
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

#[test]
fn every_preset_digest_is_shard_count_invariant() {
    for scenario in closed_loop_presets() {
        let reference = interscatter::net::run(&scenario, 42)
            .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        assert!(
            !reference.trace.to_bytes().is_empty(),
            "{}: empty trace",
            scenario.name
        );
        for shards in SHARD_COUNTS {
            let run = interscatter::net::run(&with_shards(&scenario, shards), 42).unwrap();
            assert_eq!(
                run.trace.digest(),
                reference.trace.digest(),
                "{} diverged at {shards} shards",
                scenario.name
            );
            assert_eq!(
                run.metrics.report(),
                reference.metrics.report(),
                "{} report diverged at {shards} shards",
                scenario.name
            );
            assert_eq!(
                run.telemetry, reference.telemetry,
                "{} telemetry diverged at {shards} shards",
                scenario.name
            );
        }
    }
}

#[test]
fn single_cell_presets_reproduce_the_legacy_engine() {
    // One interference cell (shared receivers couple everything): a run
    // shaped through the builder must reproduce the plain engine pass
    // byte for byte, whatever the shard count.
    for scenario in [
        Scenario::hospital_ward(8),
        Scenario::hospital_ward(8).closed_loop(),
        Scenario::contact_lens_fleet(6).closed_loop(),
        Scenario::card_to_card_room(5).closed_loop(),
    ] {
        let legacy = interscatter::net::run(&scenario, 42).unwrap();
        for shards in SHARD_COUNTS {
            let run = interscatter::net::run(&with_shards(&scenario, shards), 42).unwrap();
            assert_eq!(
                run.trace.to_bytes(),
                legacy.trace.to_bytes(),
                "{} at {shards} shards",
                scenario.name
            );
            assert_eq!(run.metrics.report(), legacy.metrics.report());
        }
    }
}

#[test]
fn random_epoch_lengths_keep_sharded_equal_to_single_shard() {
    // Property: at ANY progress cadence, the run at 4 shards equals the
    // run at 1 shard, and both equal the plain engine pass — neither the
    // progress cadence nor the worker count reaches the simulation.
    let mut rng = StdRng::seed_from_u64(0x5EED_541A);
    let multi = Scenario::campus(512);
    let single = Scenario::hospital_ward(6).closed_loop();
    let legacy_multi = interscatter::net::run(&multi, 7).unwrap();
    let legacy_single = interscatter::net::run(&single, 7).unwrap();
    for case in 0..8 {
        let every_s = 10f64.powf(rng.gen_range(-4.0..-0.3));
        for (scenario, legacy) in [(&multi, &legacy_multi), (&single, &legacy_single)] {
            let shape = |shards: usize| {
                scenario
                    .clone()
                    .builder()
                    .execution(
                        ExecutionSection::new()
                            .shards(shards)
                            .progress(every_s, false),
                    )
                    .build()
                    .unwrap()
            };
            let one = interscatter::net::run(&shape(1), 7).unwrap();
            let four = interscatter::net::run(&shape(4), 7).unwrap();
            assert_eq!(
                one.trace.digest(),
                four.trace.digest(),
                "case {case}: {} diverged at progress every {every_s} s",
                scenario.name
            );
            assert_eq!(one.metrics.report(), four.metrics.report());
            assert_eq!(one.telemetry, four.telemetry);
            assert_eq!(
                one.trace.to_bytes(),
                legacy.trace.to_bytes(),
                "case {case}: progress every {every_s} s perturbed {}",
                scenario.name
            );
        }
    }
}
