//! Every sweep over the preset catalogue (`net::scenario::catalogue`):
//!
//! * **Identity.** Every preset and every variant that derives entities
//!   or a coex config from a preset is pinned by an FNV-1a digest of its
//!   full `Debug` form — name, entities, positions and every section.
//!   Rewriting how a preset assigns its fields must leave these digests
//!   untouched; a change here means a preset now builds a different
//!   deployment, which every downstream digest would silently inherit.
//! * **Invariants.** Every catalogue row and every edge row (one tag, a
//!   run shorter than any event, one carrier for a whole fleet, a tick
//!   past the last representable instant), at seeds 1 and 42, keeps
//!   every accounting identity of the invariant table in
//!   `tests/common/mod.rs`.
//! * **Knob neutrality.** No execution knob — trace, profile, progress
//!   cadence, shard count — changes what a run computes: each knobbed run
//!   keeps the plain run's trace digest, metrics and telemetry, and
//!   differs only in what the knob records.

mod common;

use common::{check_invariants, EVENTLESS_S};
use interscatter::net::scenario::{catalogue, ExecutionSection, Scenario};
use interscatter::net::trace_digest::fnv1a_str;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn digest(s: &Scenario) -> u64 {
    fnv1a_str(&format!("{s:?}"))
}

/// Captured from the presets in [`catalogue`] order. Re-pinned four times,
/// each time for one moved or removed field and nothing else:
/// * when `ExecutionConfig` lost its epoch length (each old pin hashed
///   the same `Debug` form with `epoch_s: 0.01` present);
/// * when the telemetry section lost its metrics mode (each old pin
///   hashed the same form with `mode: Stored` — `mode: Streaming` for the
///   two campus cases — after `live_progress`);
/// * when the progress cadence moved into `ExecutionConfig`. Each old pin
///   hashed the same form with a `telemetry` section (`subscriptions:
///   []`, `progress_every_s: None`, `live_progress: false`) before
///   `execution`, and no progress fields inside `ExecutionConfig`.
///   Deleting that section from the old `Debug` text and writing
///   `progress_every_s: None, live_progress: false, ` in front of
///   `build_ns` hashes to exactly the pin below, for all 16 cases
///   (old → new, in order: 6fd9e8d8 → 4416d81f, 11949b31 →
///   78ac1744, 25e91ec8 → b97d456e, ed034746 → 93e6eadc, 77dcdf1e →
///   6eee0530, 09411027 → a6ec5663, 739a5e0e → 8c5d7691, 24aa76bb →
///   65a46df3, f7b01b97 → 9c386f03, 9ed2f259 → f796ec14, d67db5e3 →
///   a5902a14, 942dfa3e → e0b4ea12, ee2dfefd → 7572220e, 68d87115 →
///   d2d873f7, 459d261e → 22be5075, 1c776052 → 8ad3ad85; top 32 bits).
/// * when the sinks' `external_occupancy` scalar got one home. Each old
///   pin hashed the same form with a `sense` block (`ewma_alpha: 0.05,
///   sample_interval_s: 0.1`) after `sources`; `congested_ward` and
///   `campus` kept the hospital scalars (0.2 on channel 6, 0.05
///   elsewhere) their coex config used to mask; and
///   `hospital_ward(8).with_restripe` carried one silent per-sink source
///   mirroring each scalar. Deleting the `sense` field, writing every
///   scalar of the two congested cases and both campus cases as `0.0`,
///   and writing those mirrored `sources` as `[]` hashes to exactly the
///   pin below for the five moved cases (old → new: 6eee0530 →
///   b6342e7a, 65a46df3 → c58889dc, 9c386f03 → f21ea900, 22be5075 →
///   53ab7208, 8ad3ad85 → 573a49fe). The other ten did not move; the
///   case of the deleted scalar-mirroring variant is gone with it.
const PINNED: [u64; 15] = [
    0x4416_D81F_7CFB_3731,
    0x78AC_1744_F3B2_91BE,
    0xB97D_456E_DA88_F671,
    0x93E6_EADC_FB66_01F4,
    0xB634_2E7A_D5D9_DBF8,
    0xA6EC_5663_B733_4D1B,
    0x8C5D_7691_B61B_C3FB,
    0xC588_89DC_63B3_4A43,
    0xF21E_A900_32DD_8815,
    0xF796_EC14_6C9A_D149,
    0xA590_2A14_0005_41D3,
    0xE0B4_EA12_6FA8_DDF2,
    0x7572_220E_4AE1_2DBA,
    0x53AB_7208_1BEB_CBF5,
    0x573A_49FE_42B0_57B6,
];

#[test]
fn presets_and_variants_match_their_pinned_digests() {
    let cases = catalogue();
    assert_eq!(cases.len(), PINNED.len());
    let got: Vec<String> = cases
        .iter()
        .map(|(label, s)| format!("{label}: {:#018x}", digest(s)))
        .collect();
    let want: Vec<String> = cases
        .iter()
        .zip(PINNED)
        .map(|((label, _), d)| format!("{label}: {d:#018x}"))
        .collect();
    assert_eq!(got, want);
}

/// Edge rows the catalogue's pinned sizes never reach: one tag, open and
/// closed loop, at full length and cut shorter than any event, one
/// carrier for a whole campus fleet, and a valid scenario whose second
/// mobility tick lies past the last representable nanosecond.
fn edge_cases() -> Vec<(&'static str, Scenario)> {
    let open = Scenario::hospital_ward(1);
    let closed = open.clone().closed_loop();
    let cut = |s: &Scenario, duration_s: f64| {
        assert!(duration_s <= EVENTLESS_S);
        s.clone().builder().duration_s(duration_s).build().unwrap()
    };
    let campus = Scenario::campus(256);
    assert_eq!(campus.carriers.len(), 1);
    let mut overflow = Scenario::walking_ward(2);
    overflow.duration_s = 1e10;
    for carrier in &mut overflow.carriers {
        carrier.slot_interval_s = 1e9;
    }
    for tag in &mut overflow.tags {
        tag.arrival_rate_pps = 1e-12;
    }
    overflow.mobility.as_mut().unwrap().tick_interval_s = 9.3e9;
    vec![
        ("hospital_ward(1)", open.clone()),
        ("hospital_ward(1).closed_loop()", closed.clone()),
        ("hospital_ward(1) for 1 ns", cut(&open, 1e-9)),
        (
            "hospital_ward(1).closed_loop() for 1 us",
            cut(&closed, 1e-6),
        ),
        ("campus(256)", campus),
        ("walking_ward(2) ticking past u64::MAX ns", overflow),
    ]
}

#[test]
fn every_case_keeps_its_sample_and_counter_identities() {
    for (label, scenario) in catalogue().into_iter().chain(edge_cases()) {
        for seed in [1, 42] {
            let run = interscatter::net::run(&scenario, seed).unwrap();
            check_invariants(&format!("{label} seed {seed}"), &scenario, &run);
        }
    }
}

/// The execution knobs that must leave a run unchanged, each as the
/// section a preset is re-built with: trace off, profile on, a progress
/// cadence drawn from `rng`, each accepted shard count (validated, no
/// effect), and several at once.
fn knobs(rng: &mut StdRng) -> Vec<(String, ExecutionSection)> {
    let every_s = 10f64.powf(rng.gen_range(-4.0..0.0));
    let section = ExecutionSection::new;
    let mut knobs = vec![
        ("trace off".to_string(), section().trace(false)),
        ("profile on".to_string(), section().profile(true)),
        (
            format!("progress every {every_s} s"),
            section().progress(every_s, false),
        ),
        (
            format!("4 shards, profile on, progress every {every_s} s"),
            section().shards(4).profile(true).progress(every_s, false),
        ),
    ];
    for shards in [2, 4, 8] {
        knobs.push((format!("{shards} shards"), section().shards(shards)));
    }
    knobs
}

#[test]
fn every_execution_knob_leaves_every_preset_run_identical() {
    let mut rng = StdRng::seed_from_u64(0x5EED_541A);
    for (label, scenario) in catalogue() {
        let plain = interscatter::net::run(&scenario, 42).unwrap();
        assert!(!plain.trace.records().is_empty(), "{label}: empty trace");
        assert!(
            plain.telemetry.render().is_empty(),
            "{label}: progress lines"
        );
        assert!(plain.prof.is_none(), "{label}: unasked-for profile");
        for (knob, section) in knobs(&mut rng) {
            let at = format!("{label} with {knob}");
            let knobbed = scenario
                .clone()
                .builder()
                .execution(section)
                .build()
                .unwrap();
            assert_eq!(knobbed.name, scenario.name, "{at}: the builder renamed");
            let run = interscatter::net::run(&knobbed, 42).unwrap();
            let shape = &knobbed.execution;
            if shape.trace {
                assert_eq!(run.trace.digest(), plain.trace.digest(), "{at}: trace");
            } else {
                assert!(run.trace.records().is_empty(), "{at}: trace recorded");
            }
            assert_eq!(run.metrics.report(), plain.metrics.report(), "{at}: report");
            assert_eq!(
                format!("{:?}", run.metrics),
                format!("{:?}", plain.metrics),
                "{at}: metrics"
            );
            // Progress adds lines; the event count is a plain loop counter,
            // the same either way.
            if shape.progress_every_s.is_some() {
                assert!(!run.telemetry.progress.is_empty(), "{at}: no lines");
                assert_eq!(run.telemetry.events, plain.telemetry.events, "{at}");
            } else {
                assert_eq!(run.telemetry, plain.telemetry, "{at}: telemetry");
            }
            // The prof report exists exactly when asked for — and only
            // there do wall-clock quantities live.
            assert_eq!(run.prof.is_some(), shape.profile, "{at}: prof report");
            if let Some(prof) = run.prof {
                assert!(!prof.spans.is_empty(), "{at}: no spans");
                assert_eq!(prof.scenario, scenario.name, "{at}");
                let flushed = prof
                    .summary()
                    .phase_totals_ns
                    .iter()
                    .any(|(name, _)| name == "link_flush");
                let mobile = scenario.mobility.is_some();
                assert_eq!(flushed, mobile, "{at}: link_flush phase");
            }
        }
    }
}
