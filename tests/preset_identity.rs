//! Preset identity: every scenario preset and every variant that derives
//! entities or coex sources from a scenario is pinned by an FNV-1a digest
//! of its full `Debug` form — name, entities, positions and every
//! section. Rewriting how a preset assigns its fields must leave these
//! digests untouched; a change here means a preset now builds a different
//! deployment, which every downstream digest would silently inherit.

use interscatter::net::coex::ReStripe;
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
            "hospital_ward(8).with_constant_coex()",
            Scenario::hospital_ward(8).with_constant_coex(),
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

/// Captured from the presets in [`cases`] order. Re-pinned twice, each
/// time for one removed field and nothing else: when `ExecutionConfig`
/// lost its epoch length (each old pin hashed the same `Debug` form with
/// `epoch_s: 0.01` present), and when `TelemetryConfig` lost its metrics
/// mode (each old pin hashed the same form with `mode: Stored` — `mode:
/// Streaming` for the two campus cases — after `live_progress`).
const PINNED: [u64; 16] = [
    0x6FD9_E8D8_23A2_5C51,
    0x1194_9B31_2014_1D0A,
    0x25E9_1EC8_D66D_9111,
    0xED03_4746_B68E_0D24,
    0x77DC_DF1E_E1FA_0F25,
    0x0941_1027_1944_3E3F,
    0x739A_5E0E_DD52_701F,
    0x24AA_76BB_4500_29AB,
    0xF7B0_1B97_735F_0287,
    0x9ED2_F259_4C9E_7DE9,
    0xD67D_B5E3_FD78_DEF7,
    0x942D_FA3E_3D99_6156,
    0xEE2D_FEFD_F68B_FB1E,
    0x68D8_7115_C7D5_4A80,
    0x459D_261E_5248_AE6A,
    0x1C77_6052_2E56_CE4D,
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
            for (t, tag) in m.tags.iter().enumerate() {
                assert!(
                    tag.offered >= tag.delivered + tag.dropped,
                    "{at} tag {t}: {tag:?}"
                );
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
