//! The execution observatory: the prof output of a profiled run carries
//! the phase totals `PROF_net.json` is built from, the per-kind event
//! counts and the Chrome-trace export. That profiling is **byte-neutral**
//! — the event trace, the metrics report and the telemetry are identical
//! with profiling on or off — is checked on every catalogue preset with
//! the other execution knobs (`tests/preset_identity.rs`). See `net::prof`
//! for the contract and why it is the one engine module allowed
//! `std::time::Instant`.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::prof::{KindTotal, Span};
use interscatter::net::scenario::Scenario;
use std::collections::BTreeMap;

#[test]
fn profiled_run_matches_the_plain_run_and_loops_once() {
    let scenario = Scenario::hospital_ward(8).closed_loop();
    let reference = interscatter::net::run(&scenario, 42).unwrap();
    let profiled = scenario
        .clone()
        .builder()
        .execution(ExecutionSection::new().profile(true))
        .build()
        .unwrap();
    let run = interscatter::net::run(&profiled, 42).unwrap();
    assert_eq!(run.trace.to_bytes(), reference.trace.to_bytes());
    assert_eq!(run.metrics.report(), reference.metrics.report());
    // The event loop runs once, start to horizon: one "epoch" span.
    let prof = run.prof.expect("profiled run carries a report");
    let epochs = prof.spans.iter().filter(|s| s.name == "epoch").count();
    assert_eq!(epochs, 1);
}

#[test]
fn profiled_campus_summary_carries_phases_and_exports() {
    let scenario = Scenario::campus(768)
        .builder()
        .execution(ExecutionSection::new().profile(true))
        .build()
        .unwrap();

    let run = interscatter::net::run(&scenario, 42).unwrap();
    let prof = run.prof.as_ref().expect("profiled run carries a report");
    let summary = prof.summary();

    let phases: BTreeMap<&str, u64> = summary
        .phase_totals_ns
        .iter()
        .map(|(name, ns)| (name.as_str(), *ns))
        .collect();
    let names: Vec<&str> = phases.keys().copied().collect();
    assert_eq!(
        names,
        ["engine_init", "epoch", "finalize", "link_build", "validate"]
    );
    assert!(phases["epoch"] > 0, "event-loop time is empty");

    // Per event kind: every popped event is counted once, under its
    // kind, and the time charged to the kinds fits inside the loop.
    let kinds: BTreeMap<&str, KindTotal> = summary
        .event_kinds
        .iter()
        .map(|(name, total)| (name.as_str(), *total))
        .collect();
    let names: Vec<&str> = kinds.keys().copied().collect();
    assert_eq!(
        names,
        [
            "AckEnd",
            "CarrierSlot",
            "CoexEnd",
            "CoexStart",
            "Horizon",
            "PacketArrival",
            "PollEnd",
            "SenseTick",
            "TxEnd"
        ]
    );
    let dispatched: u64 = kinds.values().map(|k| k.count).sum();
    assert_eq!(dispatched, run.telemetry.events);
    assert_eq!(kinds["Horizon"], KindTotal { count: 1, ns: 0 });
    let charged: u64 = kinds.values().map(|k| k.ns).sum();
    assert!(charged <= phases["epoch"], "{charged} ns charged");
    assert!(kinds["CarrierSlot"].ns > 0);

    // Chrome trace export: complete events on the one track.
    let chrome = prof.to_chrome_trace();
    assert!(chrome.starts_with("{\"traceEvents\":["));
    assert!(chrome.contains("\"ph\":\"X\""));
    assert!(chrome.contains("\"name\":\"epoch\""));
    assert!(chrome.contains("\"displayTimeUnit\":\"ms\""));
    assert!(!chrome.contains("\"tid\":1"));

    // The PROF_net.json document.
    let doc = summary.to_json();
    assert!(doc.starts_with("{\"scenario\":\"campus-768\",\"phase_totals_ns\":{"));
    assert!(doc.contains("},\"event_kinds\":{\"AckEnd\":{\"count\":"));
    assert!(doc.contains(&format!(
        "\"CarrierSlot\":{{\"count\":{},\"ns\":",
        kinds["CarrierSlot"].count
    )));
    assert!(doc.ends_with("}}}"));
}

/// The set-up/run split `scripts/prof_summary.sh` reads: the top-level
/// spans are exactly `engine_init`, `epoch` and `finalize`, in order and
/// disjoint, and every other span lies inside one of them, so adding the
/// three up counts each host nanosecond at most once. Validation is timed
/// once, inside `engine_init`, where the engine core runs it.
#[test]
fn top_level_spans_split_set_up_from_the_run() {
    let within = |inner: &Span, outer: &Span| {
        outer.start_ns <= inner.start_ns
            && inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns
    };
    let cases = [
        (Scenario::campus(768), &["validate", "link_build"][..]),
        (
            Scenario::walking_ward(8),
            &["validate", "link_build", "link_flush"][..],
        ),
    ];
    for (scenario, nested) in cases {
        let profiled = scenario
            .builder()
            .execution(ExecutionSection::new().profile(true))
            .build()
            .unwrap();
        let run = interscatter::net::run(&profiled, 42).unwrap();
        let prof = run.prof.expect("profiled run carries a report");
        // A span is top-level when no other span contains it.
        let contained = |s: &Span| {
            prof.spans
                .iter()
                .any(|o| !std::ptr::eq(o, s) && within(s, o))
        };
        let (inner, top): (Vec<&Span>, Vec<&Span>) = prof.spans.iter().partition(|s| contained(s));
        let names: Vec<&str> = top.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            ["engine_init", "epoch", "finalize"],
            "{}",
            prof.scenario
        );
        for pair in top.windows(2) {
            assert!(
                pair[0].start_ns + pair[0].dur_ns <= pair[1].start_ns,
                "{pair:?}"
            );
        }
        let mut inner_names: Vec<&str> = inner.iter().map(|s| s.name).collect();
        inner_names.dedup();
        assert_eq!(inner_names, nested, "{}", prof.scenario);
        for span in inner {
            let parent = match span.name {
                "validate" | "link_build" => top[0],
                _ => top[1],
            };
            assert!(within(span, parent), "{span:?} outside {parent:?}");
        }
    }
}

/// Profiling is configuration only: the builder reads no clock, so two
/// builds of one profiled scenario carry equal execution sections and the
/// same `Debug` text, the text the preset digests hash.
#[test]
fn profiled_builds_are_identical() {
    let build = || {
        Scenario::hospital_ward(8)
            .builder()
            .execution(ExecutionSection::new().profile(true))
            .build()
            .unwrap()
    };
    let (a, b) = (build(), build());
    assert_eq!(a.execution, b.execution);
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn progress_lines_come_from_the_engine() {
    // The engine's own simulated-time cadence, emitted from inside the
    // event loop — the same lines whether or not the run is profiled.
    let shape = |profile: bool| {
        Scenario::campus(768)
            .builder()
            .execution(
                ExecutionSection::new()
                    .progress(0.5, false)
                    .profile(profile),
            )
            .build()
            .unwrap()
    };
    let run = interscatter::net::run(&shape(false), 42).unwrap();
    let lines = &run.telemetry.progress;
    assert!(!lines.is_empty(), "no progress lines collected");
    for line in lines {
        assert!(line.starts_with("[progress] t="), "{line}");
        assert!(line.contains(" events="), "{line}");
        assert!(line.contains(" prr="), "{line}");
    }
    let profiled = interscatter::net::run(&shape(true), 42).unwrap();
    assert_eq!(&profiled.telemetry.progress, lines);
}

/// One progress line per cadence boundary, stamped at the boundary. The
/// one-tag ward's carriers sleep between packets, so whole seconds pass
/// without an event: the next event prints every line it has passed.
#[test]
fn progress_lines_land_on_every_cadence_boundary() {
    let scenario = Scenario::hospital_ward(1)
        .builder()
        .execution(ExecutionSection::new().progress(1.0, false))
        .build()
        .unwrap();
    let run = interscatter::net::run(&scenario, 42).unwrap();
    let stamps: Vec<&str> = run
        .telemetry
        .progress
        .iter()
        .map(|line| line.split(' ').nth(1).unwrap())
        .collect();
    let expected: Vec<String> = (1..=10).map(|s| format!("t={s}.0s")).collect();
    assert_eq!(stamps, expected);
}

#[test]
fn monte_carlo_pools_per_trial_profiles_in_trial_order() {
    let shape = |profile: bool| {
        Scenario::hospital_ward(6)
            .builder()
            .execution(ExecutionSection::new().trials(3).profile(profile))
            .build()
            .unwrap()
    };
    let profiled = interscatter::net::run_trials(&shape(true), 7).unwrap();
    assert_eq!(profiled.trials.len(), 3);
    assert_eq!(profiled.prof.len(), 3);
    for summary in &profiled.prof {
        assert!(summary
            .phase_totals_ns
            .iter()
            .any(|(name, _)| name == "epoch"));
    }
    // Profiling never perturbs the aggregated metrics.
    let plain = interscatter::net::run_trials(&shape(false), 7).unwrap();
    assert!(plain.prof.is_empty());
    assert_eq!(
        format!("{:?}", profiled.trials),
        format!("{:?}", plain.trials)
    );
}

#[test]
fn idle_carriers_sleep_in_every_run() {
    // A carrier sleeps from a slot that finds no member holding a queued
    // packet until an arrival wakes it, so every slot that fires grants,
    // defers, or puts its carrier to sleep: once at the start and once
    // per wake, at most, and each wake takes an arrival. (A slot could
    // also find a closed-loop transaction still in flight, but every
    // catalogue transaction ends within one slot interval.) This bound,
    // not a fixed share of the ticking slots, is what every row meets,
    // coex rows included — their occupancy sensing runs on its own tick,
    // not on the slots: `walking_ward(8)`'s fading tags retry so often
    // that 17% of its slots fire.
    for (label, scenario) in interscatter::net::scenario::catalogue() {
        let profiled = scenario
            .clone()
            .builder()
            .execution(ExecutionSection::new().trace(false).profile(true))
            .build()
            .unwrap();
        for seed in [1, 42] {
            let run = interscatter::net::run(&profiled, seed).unwrap();
            let prof = run.prof.as_ref().expect("profiled run carries a report");
            let slots = prof
                .event_kinds
                .iter()
                .find(|(name, _)| *name == "CarrierSlot")
                .map_or(0, |(_, total)| total.count as usize);
            let m = &run.metrics;
            let defers: usize = m.tags.iter().map(|t| t.csma_defers).sum();
            let accounted = m.grants() + defers + scenario.carriers.len() + m.offered_packets();
            assert!(
                slots <= accounted,
                "{label} seed {seed}: {slots} slots fired, more than {} grants, \
                 {defers} defers, {} carriers and {} arrivals",
                m.grants(),
                scenario.carriers.len(),
                m.offered_packets()
            );
        }
    }
}
