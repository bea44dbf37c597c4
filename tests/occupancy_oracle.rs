//! Occupancy oracle: sensing a strict duty cycle reads the duty.
//!
//! A microwave oven radiates for `duty` of every 10 ms magnetron period,
//! so the true busy share of any channel it punctures is `duty`, plus
//! whatever the fleet's own frames add while the oven is off. Occupancy is
//! the busy share of airtime over each sensing window, not a busy/idle
//! point sample at slot instants, so what a carrier reads must not depend
//! on its slot interval: point samples taken on a grid commensurate with
//! the oven's period alias to 0 or 1 (a 10 ms slot reads the oven always
//! on or always off, by phase).

use interscatter::net::coex::{CoexConfig, CoexModel, CoexSource, Microwave};
use interscatter::net::medium::Band;
use interscatter::net::scenario::{RadioSection, Scenario};

/// Simulated seconds per case.
const DURATION_S: f64 = 2.0;

/// Samples before this instant are skipped: the EWMA starts at 0 and
/// keeps 0.6¹⁰ < 1% of its start after ten 50 ms windows.
const WARM_UP_S: f64 = 0.5;

/// How far a carrier's mean sample may sit from the oven's duty. The
/// fleet's own frames on the channel, sent while the oven is off (the
/// fleet defers to it), are the only other busy time: eight tags at the
/// ward's rates add about 0.001 at every interval, duty and seed here.
/// Point samples at slot instants read 0.000 or 0.924–0.988 at the 10
/// and 20 ms intervals on these cases.
const TOLERANCE: f64 = 0.01;

/// `hospital_ward(8)` with every carrier's slot interval set to
/// `slot_s` and a microwave oven at duty `duty` beside AP 0.
fn oven_ward(slot_s: f64, duty: f64) -> Scenario {
    let ward = Scenario::hospital_ward(8);
    let mut carriers = ward.carriers.clone();
    for carrier in &mut carriers {
        carrier.slot_interval_s = slot_s;
    }
    let oven = CoexSource {
        model: CoexModel::Microwave(Microwave {
            period_s: 10e-3,
            duty,
        }),
        ..CoexSource::microwave_oven(ward.receivers[0].position())
    };
    let radio = RadioSection::new(carriers, ward.tags.clone(), ward.receivers.clone());
    ward.builder()
        .radio(radio)
        .coex(CoexConfig::with_sources(vec![oven]))
        .duration_s(DURATION_S)
        .build()
        .unwrap()
}

/// The carriers whose own channel — that of their first member's sink,
/// where occupancy sensing reads — overlaps the oven's band.
fn carriers_hearing(scenario: &Scenario, oven: Band) -> Vec<usize> {
    let carrier_freq = scenario.carriers[0].carrier_freq_hz();
    (0..scenario.carriers.len())
        .filter(|&c| {
            let first = scenario.tags.iter().find(|t| t.carrier == c);
            first.is_some_and(|tag| {
                let sink = &scenario.receivers[tag.receiver];
                Band::new(sink.center_freq_hz(carrier_freq), sink.bandwidth_hz()).overlaps(&oven)
            })
        })
        .collect()
}

#[test]
fn a_microwave_reads_its_duty_at_every_slot_interval() {
    let mut table = Vec::new();
    let mut misses = Vec::new();
    for duty in [0.25, 0.5] {
        for slot_ms in [2.0, 5.0, 7.0, 10.0, 20.0] {
            let scenario = oven_ward(slot_ms * 1e-3, duty);
            let oven = scenario.coex.as_ref().unwrap().sources[0].model.band();
            let hearing = carriers_hearing(&scenario, oven);
            assert!(hearing.len() >= 2, "{hearing:?}");
            for seed in [1, 42] {
                let m = interscatter::net::run(&scenario, seed).unwrap().metrics;
                for &c in &hearing {
                    let late: Vec<f64> = m.occupancy_series[c]
                        .iter()
                        .filter(|s| s.at_s >= WARM_UP_S)
                        .map(|s| s.occupancy)
                        .collect();
                    assert!(late.len() >= 10, "{} samples", late.len());
                    let mean = late.iter().sum::<f64>() / late.len() as f64;
                    let row =
                        format!("duty {duty} slot {slot_ms} ms seed {seed} carrier {c}: {mean:.3}");
                    if (mean - duty).abs() > TOLERANCE {
                        misses.push(row.clone());
                    }
                    table.push(row);
                }
            }
        }
    }
    assert!(
        misses.is_empty(),
        "outside ±{TOLERANCE}: {misses:#?}\nall: {table:#?}"
    );
}
