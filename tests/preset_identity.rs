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

/// Captured from the presets as first pinned, in [`cases`] order.
const PINNED: [u64; 16] = [
    0xD91F_1F66_341D_7BEF,
    0x4AD9_3B42_A800_9BFA,
    0x1020_B77D_FB5A_09AF,
    0x6612_8538_2E48_4CDC,
    0x9F29_3294_FDEF_4E8B,
    0x129A_A8CE_BAFE_EF75,
    0xA575_830F_E14A_B755,
    0x6DD1_092B_C76D_F71E,
    0x94D9_60D1_178F_6062,
    0xC808_4C1C_9BA1_D627,
    0x98DF_33D1_712A_6DAD,
    0xAE77_9428_7F9B_127E,
    0xEC74_37CB_99AC_3846,
    0x1996_4903_B5B6_0010,
    0xF19A_6261_F346_62DA,
    0x3BE0_E116_02A4_1DD3,
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
