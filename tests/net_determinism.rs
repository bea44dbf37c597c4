//! Engine-determinism contract: two runs of the same scenario with the
//! same seed must produce byte-identical event traces and metrics; a
//! different seed must produce a different trace. This is what makes a
//! reported fleet result reproducible from `(scenario, seed)` alone.

mod common;

use common::check_invariants;
use interscatter::net::coex::{CoexConfig, CoexSource, ReStripe};
use interscatter::net::mac::MacMode;
use interscatter::net::prelude::Position;
use interscatter::net::run_trials;
use interscatter::net::scenario::{catalogue, ExecutionSection, Scenario};
use interscatter::net::sched::SchedPolicy;
use interscatter::net::trace_digest::fnv1a;

/// The catalogue row labelled `label`.
fn row(label: &str) -> Scenario {
    catalogue()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, s)| s)
        .unwrap_or_else(|| panic!("no catalogue row {label}"))
}

fn scenarios() -> Vec<(String, Scenario)> {
    let mut cases = Vec::new();
    // Every catalogue row, and the closed-loop variant of each open-loop
    // row: closed-loop traces interleave downlink frames with the uplink
    // and must reproduce just as exactly. Mobile rows interleave mobility
    // ticks (per-tag walks plus LinkMatrix budget refreshes), and the
    // walk itself must replay exactly from the seed.
    for (label, scenario) in catalogue() {
        if scenario.mac == MacMode::OpenLoop {
            let closed = scenario.clone().closed_loop();
            cases.push((format!("{label}.closed_loop()"), closed));
        }
        cases.push((label.to_string(), scenario));
    }
    // One case per arbitration policy: every scheduler is RNG-free, so its
    // picks — and hence the whole trace — replay exactly from the seed
    // (round-robin is the default everywhere above; the margin-aware case
    // also exercises the sub-band striping axis).
    for (label, policy) in [
        ("hospital_ward(8)", SchedPolicy::proportional_fair()),
        (
            "hospital_ward(8).closed_loop()",
            SchedPolicy::deadline_aware(),
        ),
        (
            "ambulatory_ward(8).closed_loop()",
            SchedPolicy::margin_aware(),
        ),
        (
            "hospital_ward(8).with_subband_striping()",
            SchedPolicy::margin_aware(),
        ),
    ] {
        let scheduled = row(label).builder().scheduling(policy).build().unwrap();
        cases.push((format!("{label} with {policy:?}"), scheduled));
    }
    // Every external generator kind injects real seeded emissions into the
    // medium, and each source's arrival process rides its own RNG stream —
    // so the trace (including every collision with external traffic)
    // replays exactly from the seed.
    let coex = CoexConfig::with_sources(vec![
        CoexSource::wifi_neighbor(Position::new(6.0, 8.0, 2.0), 6, 0.3),
        CoexSource::hidden_wifi(Position::new(2.0, 8.0, 2.0), 1, 0.15),
        CoexSource::ble_beacon(Position::new(0.5, 0.5, 1.0), 0.05),
        CoexSource::zigbee_neighbor(Position::new(11.0, 1.0, 1.0), 17, 40.0),
        CoexSource::microwave_oven(Position::new(11.5, 8.5, 1.0)),
    ]);
    let label = "hospital_ward(8) with every coex source";
    let loaded = row("hospital_ward(8)")
        .builder()
        .coex(coex)
        .build()
        .unwrap();
    cases.push((label.to_string(), loaded));
    cases
}

#[test]
fn same_seed_same_bytes() {
    for (label, scenario) in scenarios() {
        let a = interscatter::net::run(&scenario, 0xDEC0DE).unwrap();
        let b = interscatter::net::run(&scenario, 0xDEC0DE).unwrap();
        check_invariants(&label, &scenario, &a);
        let bytes_a = a.trace.to_bytes();
        assert!(!bytes_a.is_empty(), "{label}: trace must be recorded");
        assert_eq!(
            bytes_a,
            b.trace.to_bytes(),
            "{label}: same-seed traces must be byte-identical"
        );
        // The shared FNV-1a helper and the trace's own digest agree — the
        // same 64-bit fingerprint identifies the run everywhere.
        assert_eq!(
            fnv1a(&bytes_a),
            b.trace.digest(),
            "{label}: shared digest helper must match EventTrace::digest"
        );
        assert_eq!(
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
            "{label}: same-seed metrics must be identical"
        );
    }
}

#[test]
fn different_seed_different_bytes() {
    for (label, scenario) in scenarios() {
        let a = interscatter::net::run(&scenario, 1).unwrap();
        let b = interscatter::net::run(&scenario, 2).unwrap();
        assert_ne!(
            a.trace.to_bytes(),
            b.trace.to_bytes(),
            "{label}: different seeds must decorrelate the trace"
        );
    }
}

#[test]
fn determinism_survives_the_parallel_runner() {
    // The Monte-Carlo runner fans trials across threads; aggregation must
    // not depend on completion order.
    let scenario = Scenario::hospital_ward(16)
        .builder()
        .execution(ExecutionSection::new().trials(6))
        .build()
        .unwrap();
    let a = run_trials(&scenario, 77).unwrap();
    let b = run_trials(&scenario, 77).unwrap();
    assert_eq!(format!("{:?}", a.trials), format!("{:?}", b.trials));
    assert_eq!(a.report(), b.report());
}

/// The Monte-Carlo report text of a six-tag ward at four trials, base
/// seed 7: its quantiles, medians and means are derived from the trials,
/// and deriving them differently must not move a byte.
#[test]
fn monte_carlo_report_text_is_pinned() {
    let scenario = Scenario::hospital_ward(6)
        .builder()
        .execution(ExecutionSection::new().trials(4))
        .build()
        .unwrap();
    let text = run_trials(&scenario, 7).unwrap().report();
    assert_eq!(fnv1a(text.as_bytes()), 0x5969_613B_9C97_2609, "{text}");
}

#[test]
fn trace_is_meaningful() {
    let scenario = Scenario::hospital_ward(8);
    let result = interscatter::net::run(&scenario, 5).unwrap();
    let text = String::from_utf8(result.trace.to_bytes()).unwrap();
    assert!(text.contains("arrival"), "trace should log packet arrivals");
    assert!(text.contains("tx start"), "trace should log grants");
    assert!(text.contains("tx end"), "trace should log outcomes");
    // Timestamps are non-decreasing.
    let mut last = 0u64;
    for line in text.lines() {
        let ns: u64 = line[1..13].trim().parse().unwrap();
        assert!(ns >= last, "trace timestamps must be monotone");
        last = ns;
    }
}

#[test]
fn mid_run_restripe_replays_exactly() {
    // The sharpest determinism case: a congested run whose carriers
    // re-tune themselves (and their tags' channels, receivers and link
    // budgets) mid-run. Both the decision and everything downstream of it
    // must replay byte for byte.
    let scenario = Scenario::congested_ward(12).with_restripe(ReStripe::default());
    let a = interscatter::net::run(&scenario, 0xC0EC).unwrap();
    let b = interscatter::net::run(&scenario, 0xC0EC).unwrap();
    assert_eq!(a.trace.to_bytes(), b.trace.to_bytes());
    assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
    assert!(a.metrics.restripes() > 0, "the run must actually re-stripe");
    let text = String::from_utf8(a.trace.to_bytes()).unwrap();
    assert!(text.contains("re-stripe: subband"));
    assert!(text.contains("coex wifi-bursty"));
}

#[test]
fn closed_loop_trace_shows_whole_transactions() {
    let scenario = Scenario::hospital_ward(8).closed_loop();
    let a = interscatter::net::run(&scenario, 5).unwrap();
    let b = interscatter::net::run(&scenario, 5).unwrap();
    assert_eq!(
        a.trace.to_bytes(),
        b.trace.to_bytes(),
        "closed-loop traces must be byte-identical per seed"
    );
    let text = String::from_utf8(a.trace.to_bytes()).unwrap();
    // The poll → backscatter → ack chain must be visible in order for at
    // least one transaction.
    let poll = text.find("poll decoded").expect("a decoded poll");
    let response = text[poll..]
        .find("backscatter response start")
        .expect("a response after the poll");
    let ack = text[poll + response..]
        .find("ack decoded (transaction complete")
        .expect("an ack after the response");
    assert!(ack > 0 && a.metrics.completed_transactions() > 0);
}
