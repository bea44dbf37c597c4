//! Engine-determinism contract: two runs of the same scenario with the
//! same seed must produce byte-identical event traces and metrics; a
//! different seed must produce a different trace. This is what makes a
//! reported fleet result reproducible from `(scenario, seed)` alone.

use interscatter::net::coex::{CoexConfig, CoexSource, ReStripe};
use interscatter::net::prelude::Position;
use interscatter::net::run_trials;
use interscatter::net::scenario::{ExecutionSection, Scenario};
use interscatter::net::sched::SchedPolicy;
use interscatter::net::trace_digest::fnv1a;

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario::hospital_ward(24),
        Scenario::contact_lens_fleet(10),
        Scenario::card_to_card_room(6),
        Scenario::zigbee_wing(12),
        // The closed-loop variants run the poll/ack MAC: their traces
        // interleave downlink frames with the uplink and must reproduce
        // just as exactly.
        Scenario::hospital_ward(24).closed_loop(),
        Scenario::contact_lens_fleet(10).closed_loop(),
        Scenario::card_to_card_room(6).closed_loop(),
        Scenario::zigbee_wing(12).closed_loop(),
        // Mobile variants interleave mobility ticks (per-tag walks plus
        // LinkMatrix budget refreshes) with everything above; the walk
        // itself must replay exactly from the seed.
        Scenario::ambulatory_ward(12),
        Scenario::ambulatory_ward(12).closed_loop(),
        // One case per arbitration policy: every scheduler is RNG-free, so
        // its picks — and hence the whole trace — replay exactly from the
        // seed (round-robin is the default everywhere above; the
        // margin-aware case also exercises the sub-band striping axis).
        Scenario::hospital_ward(16)
            .builder()
            .scheduling(SchedPolicy::proportional_fair())
            .build()
            .unwrap(),
        Scenario::hospital_ward(16)
            .closed_loop()
            .builder()
            .scheduling(SchedPolicy::deadline_aware())
            .build()
            .unwrap(),
        Scenario::ambulatory_ward(10)
            .closed_loop()
            .builder()
            .scheduling(SchedPolicy::margin_aware())
            .build()
            .unwrap(),
        Scenario::hospital_ward(16)
            .with_subband_striping()
            .builder()
            .scheduling(SchedPolicy::margin_aware())
            .build()
            .unwrap(),
        // Coexistence cases: every external generator kind injects real
        // seeded emissions into the medium, and each source's arrival
        // process rides its own RNG stream — so the trace (including every
        // collision with external traffic) replays exactly from the seed.
        Scenario::hospital_ward(12)
            .builder()
            .coex(CoexConfig::with_sources(vec![
                CoexSource::wifi_neighbor(Position::new(6.0, 8.0, 2.0), 6, 0.3),
                CoexSource::hidden_wifi(Position::new(2.0, 8.0, 2.0), 1, 0.15),
                CoexSource::ble_beacon(Position::new(0.5, 0.5, 1.0), 0.05),
                CoexSource::zigbee_neighbor(Position::new(11.0, 1.0, 1.0), 17, 40.0),
                CoexSource::microwave_oven(Position::new(11.5, 8.5, 1.0)),
            ]))
            .build()
            .unwrap(),
        // The congestion preset, static and with a mid-run adaptive
        // re-stripe (the re-tuned tags' new channels, budgets and the
        // trace line of the decision itself must all replay byte for
        // byte), open and closed loop.
        Scenario::congested_ward(12),
        Scenario::congested_ward(12).with_restripe(ReStripe::default()),
        Scenario::congested_ward(10)
            .closed_loop()
            .with_restripe(ReStripe::default()),
    ]
}

#[test]
fn same_seed_same_bytes() {
    for scenario in scenarios() {
        let a = interscatter::net::run(&scenario, 0xDEC0DE).unwrap();
        let b = interscatter::net::run(&scenario, 0xDEC0DE).unwrap();
        let bytes_a = a.trace.to_bytes();
        assert!(
            !bytes_a.is_empty(),
            "{}: trace must be recorded",
            scenario.name
        );
        assert_eq!(
            bytes_a,
            b.trace.to_bytes(),
            "{}: same-seed traces must be byte-identical",
            scenario.name
        );
        // The shared FNV-1a helper and the trace's own digest agree — the
        // same 64-bit fingerprint identifies the run everywhere.
        assert_eq!(
            fnv1a(&bytes_a),
            b.trace.digest(),
            "{}: shared digest helper must match EventTrace::digest",
            scenario.name
        );
        assert_eq!(
            format!("{:?}", a.metrics),
            format!("{:?}", b.metrics),
            "{}: same-seed metrics must be identical",
            scenario.name
        );
    }
}

#[test]
fn different_seed_different_bytes() {
    for scenario in scenarios() {
        let a = interscatter::net::run(&scenario, 1).unwrap();
        let b = interscatter::net::run(&scenario, 2).unwrap();
        assert_ne!(
            a.trace.to_bytes(),
            b.trace.to_bytes(),
            "{}: different seeds must decorrelate the trace",
            scenario.name
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
