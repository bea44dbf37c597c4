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

/// Captured from the presets in [`cases`] order. Re-pinned once, when
/// `ExecutionConfig` lost its epoch-length field (default 0.01 s): each
/// old pin hashed the same `Debug` form with that one field entry
/// present, and nothing else differed.
const PINNED: [u64; 16] = [
    0x1129_956B_49AC_D2F7,
    0x1FD3_775C_8671_04BC,
    0xA60B_210A_EF71_F8B7,
    0x9576_09A1_7735_E6DA,
    0x22F7_12C8_57F8_A923,
    0x1734_5516_9EFC_82C1,
    0x56C2_4110_204A_5CE1,
    0x7FF4_01C7_D587_E220,
    0x2246_D3A5_BC95_B614,
    0xC1D4_C502_0411_903F,
    0x53CA_BA76_85F5_0BE9,
    0xB5F8_D1BD_DAD3_2640,
    0x4FB5_F4AA_22E1_FC38,
    0xA237_5812_DC0F_046E,
    0xF5E1_5888_B747_65DC,
    0x94BE_C48D_46AF_AEFB,
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
