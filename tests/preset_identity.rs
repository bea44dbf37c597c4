//! Preset identity: every scenario preset and every variant that derives
//! entities or a coex config from a scenario is pinned by an FNV-1a digest
//! of its full `Debug` form — name, entities, positions and every
//! section. Rewriting how a preset assigns its fields must leave these
//! digests untouched; a change here means a preset now builds a different
//! deployment, which every downstream digest would silently inherit.

use interscatter::net::coex::ReStripe;
use interscatter::net::mac::MacMode;
use interscatter::net::scenario::{ExecutionSection, Scenario};
use interscatter::net::trace_digest::fnv1a_str;

fn digest(s: &Scenario) -> u64 {
    fnv1a_str(&format!("{s:?}"))
}

fn cases() -> Vec<(&'static str, Scenario)> {
    vec![
        ("hospital_ward(8)", Scenario::hospital_ward(8)),
        ("contact_lens_fleet(8)", Scenario::contact_lens_fleet(8)),
        ("card_to_card_room(5)", Scenario::card_to_card_room(5)),
        ("zigbee_wing(8)", Scenario::zigbee_wing(8)),
        ("congested_ward(8)", Scenario::congested_ward(8)),
        ("ambulatory_ward(8)", Scenario::ambulatory_ward(8)),
        ("walking_ward(8)", Scenario::walking_ward(8)),
        ("campus(300)", Scenario::campus(300)),
        ("campus(600)", Scenario::campus(600)),
        (
            "hospital_ward(8).closed_loop()",
            Scenario::hospital_ward(8).closed_loop(),
        ),
        (
            "ambulatory_ward(8).closed_loop()",
            Scenario::ambulatory_ward(8).closed_loop(),
        ),
        (
            "hospital_ward(8).with_subband_striping()",
            Scenario::hospital_ward(8).with_subband_striping(),
        ),
        (
            "zigbee_wing(8).with_subband_striping()",
            Scenario::zigbee_wing(8).with_subband_striping(),
        ),
        (
            "hospital_ward(8).with_restripe(default)",
            Scenario::hospital_ward(8).with_restripe(ReStripe::default()),
        ),
        (
            "congested_ward(8).with_restripe(default)",
            Scenario::congested_ward(8).with_restripe(ReStripe::default()),
        ),
    ]
}

/// Captured from the presets in [`cases`] order. Re-pinned four times,
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
    let cases = cases();
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

#[test]
fn every_case_keeps_its_sample_and_counter_identities() {
    for (label, scenario) in cases() {
        for seed in [1, 42] {
            let m = interscatter::net::run(&scenario, seed).unwrap().metrics;
            let at = format!("{label} seed {seed}");
            assert_eq!(m.latency_ms.samples().len(), m.delivered_packets(), "{at}");
            assert_eq!(m.poll_latency_ms.samples().len(), m.grants(), "{at}");
            assert_eq!(
                m.transaction_latency_ms.samples().len(),
                m.completed_transactions(),
                "{at}"
            );
            let occupancy = m.occupancy_series.iter().flatten();
            assert!(
                occupancy
                    .clone()
                    .all(|s| (0.0..=1.0).contains(&s.occupancy)),
                "{at}"
            );
            assert!(
                occupancy.map(|s| s.attempts).sum::<usize>() <= m.attempts(),
                "{at}"
            );
            let open_loop = scenario.mac == MacMode::OpenLoop;
            for (t, tag) in m.tags.iter().enumerate() {
                // Packet conservation: every offered packet was delivered,
                // dropped, or is still queued at the horizon.
                assert_eq!(
                    tag.offered,
                    tag.delivered + tag.dropped + tag.queued,
                    "{at} tag {t}: {tag:?}"
                );
                // Attempt and grant slack: every attempt ends in exactly
                // one outcome and every grant in an attempt or a lost poll,
                // except a transaction still in flight at the horizon —
                // at most one per tag, and never an undecided open-loop
                // attempt (its outcome is decided when it is counted).
                let decided = tag.delivered
                    + tag.collided
                    + tag.external_collisions
                    + tag.link_losses
                    + tag.ack_losses;
                let a = tag.attempts as i64 - decided as i64;
                let g = tag.grants as i64 - tag.attempts as i64 - tag.poll_losses as i64;
                assert!(
                    (0..=1).contains(&a),
                    "{at} tag {t}: attempt slack {a}: {tag:?}"
                );
                assert!(!open_loop || a == 0, "{at} tag {t}: open-loop slack {a}");
                assert!(
                    (0..=1).contains(&g),
                    "{at} tag {t}: grant slack {g}: {tag:?}"
                );
                assert!(a + g <= 1, "{at} tag {t}: {a} + {g} in flight: {tag:?}");
            }
            let report = m.report();
            assert!(
                !report.contains("NaN") && !report.contains("inf"),
                "{at}:\n{report}"
            );
        }
    }
}

#[test]
fn exact_engine_honours_the_scenario_trace_switch() {
    let traced = Scenario::hospital_ward(8).closed_loop();
    let untraced = traced
        .clone()
        .builder()
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap();
    let on = interscatter::net::run(&traced, 42).unwrap();
    let off = interscatter::net::run(&untraced, 42).unwrap();
    assert!(!on.trace.records().is_empty());
    assert!(off.trace.records().is_empty());
    assert_eq!(on.metrics.report(), off.metrics.report());
}
