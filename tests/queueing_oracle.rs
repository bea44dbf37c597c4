//! Queueing oracle for the slotted MAC: the engine's head-of-line wait
//! checked against a closed form.
//!
//! One tag on one carrier with slot period `T`, Poisson arrivals at `λ`
//! and `ρ = λT < 1`. With no link or external loss, no queue overflow and
//! an airtime (plus its CTS-to-Self reservation) shorter than `T`, every
//! granted packet is delivered within its slot, so the queue is a slotted
//! M/D/1 queue with one deterministic service per slot. The wait from a
//! packet's arrival to its grant — what `poll_latency_ms` records — then
//! has mean `T·(½ + ρ / (2(1 − ρ)))`: half a slot to the next grid
//! instant, plus the slotted M/D/1 backlog ahead of it.
//!
//! The wait of consecutive packets is correlated (a busy period delays
//! every packet in it), so the band comes from batch means: the grants
//! split into contiguous batches much longer than a busy period, whose
//! means are close to independent and normal.

use interscatter::net::entities::Position;
use interscatter::net::scenario::{ExecutionSection, RadioSection, Scenario};

/// Slot period of `hospital_ward`'s carriers, seconds.
const SLOT_S: f64 = 5e-3;

/// Simulated seconds per case: ≈ 16k grants even at ρ = 0.2.
const DURATION_S: f64 = 400.0;

/// Contiguous batches the grants are split into.
const BATCHES: usize = 20;

/// Half-width of the band in batch-mean standard errors. The batch means
/// follow Student's t with 19 degrees of freedom, whose two-sided 99.9%
/// point is 3.88.
const BAND_SE: f64 = 4.0;

/// `hospital_ward(1)` with every AP's external occupancy at 0, the tag's
/// AP on the ceiling right above it (so shadowing never costs a packet),
/// arrivals at `rho / T` and a queue no run can fill, built through the
/// builder.
fn one_tag_ward(rho: f64) -> Scenario {
    let mut ward = Scenario::hospital_ward(1);
    let tag = ward.tags[0].position();
    ward.place_sink(
        ward.tags[0].receiver,
        Position::new(tag.x, tag.y, tag.z + 1.5),
    );
    assert_eq!(ward.carriers.len(), 1);
    assert!((ward.carriers[0].slot_interval_s - SLOT_S).abs() < 1e-15);
    let mut tags = ward.tags.clone();
    tags[0].arrival_rate_pps = rho / SLOT_S;
    let mut receivers = ward.receivers.clone();
    for ap in &mut receivers {
        ap.external_occupancy = 0.0;
    }
    let radio = RadioSection::new(ward.carriers.clone(), tags, receivers).max_queue(1 << 20);
    ward.builder()
        .radio(radio)
        .duration_s(DURATION_S)
        .execution(ExecutionSection::new().trace(false))
        .build()
        .unwrap()
}

/// Mean of `xs`.
fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The sample mean of `waits` and its batch-means standard error.
fn batch_mean_and_se(waits: &[f64]) -> (f64, f64) {
    let len = waits.len() / BATCHES;
    let means: Vec<f64> = waits.chunks_exact(len).take(BATCHES).map(mean).collect();
    let grand = mean(&means);
    let var = means.iter().map(|m| (m - grand).powi(2)).sum::<f64>() / (BATCHES - 1) as f64;
    (mean(waits), (var / BATCHES as f64).sqrt())
}

#[test]
fn slotted_md1_head_of_line_wait_matches_the_closed_form() {
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for rho in [0.2, 0.5, 0.8] {
        let expected_ms = SLOT_S * 1e3 * (0.5 + rho / (2.0 * (1.0 - rho)));
        for seed in [1, 42] {
            let run = interscatter::net::run(&one_tag_ward(rho), seed).unwrap();
            let m = &run.metrics;
            let tag = &m.tags[0];
            // The premises: no overflow, no retries, no deferred slot.
            assert_eq!(
                (tag.dropped, tag.link_losses, tag.csma_defers),
                (0, 0, 0),
                "ρ {rho} seed {seed}: the M/D/1 premises fail: {tag:?}"
            );
            assert_eq!(tag.attempts, tag.delivered, "ρ {rho} seed {seed}: {tag:?}");
            let waits = m.poll_latency_ms.samples();
            assert!(
                waits.len() > 15_000,
                "ρ {rho} seed {seed}: {} grants",
                waits.len()
            );
            let (got_ms, se_ms) = batch_mean_and_se(waits);
            let line = format!(
                "ρ {rho} seed {seed}: mean wait {got_ms:.4} ms, closed form {expected_ms:.4} ms, \
                 batch SE {se_ms:.4} ms"
            );
            if (got_ms - expected_ms).abs() > BAND_SE * se_ms {
                failures.push(line.clone());
            }
            report.push(line);
        }
    }
    assert!(
        failures.is_empty(),
        "outside the {BAND_SE}-SE band: {failures:#?}\nall cases: {report:#?}"
    );
}
