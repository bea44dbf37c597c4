//! The execution observatory's determinism contract: profiling is
//! **byte-neutral** — the event trace, the metrics report and the
//! telemetry output are identical with profiling on or off — while the
//! prof output itself carries the phase totals `PROF_net.json` is built
//! from and the Chrome-trace export. See `net::prof` for the contract and
//! why it is the one engine module allowed `std::time::Instant`.

use interscatter::net::prelude::ExecutionSection;
use interscatter::net::scenario::Scenario;
use std::collections::BTreeMap;

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn shaped(scenario: &Scenario, shards: usize, profile: bool) -> Scenario {
    scenario
        .clone()
        .builder()
        .execution(ExecutionSection::new().shards(shards).profile(profile))
        .build()
        .unwrap()
}

#[test]
fn profiling_is_byte_neutral_at_every_shard_count() {
    // The acceptance matrix: a bedside preset, a walking ward (whose
    // mobility ticks add `link_flush` spans) and a campus, profile on vs
    // off, at every accepted `shards` value (validated, no effect).
    for scenario in [
        Scenario::congested_ward(9),
        Scenario::walking_ward(8),
        Scenario::campus(768),
    ] {
        for shards in SHARD_COUNTS {
            let off = interscatter::net::run(&shaped(&scenario, shards, false), 42).unwrap();
            let on = interscatter::net::run(&shaped(&scenario, shards, true), 42).unwrap();
            assert_eq!(
                on.trace.digest(),
                off.trace.digest(),
                "{}: profiling changed the digest at {shards} shards",
                scenario.name
            );
            assert_eq!(
                on.metrics.report(),
                off.metrics.report(),
                "{}: profiling changed the report at {shards} shards",
                scenario.name
            );
            assert_eq!(
                on.telemetry, off.telemetry,
                "{}: profiling changed the telemetry at {shards} shards",
                scenario.name
            );
            // The prof report exists exactly when asked for — and only
            // there do wall-clock quantities live.
            assert!(off.prof.is_none());
            let prof = on.prof.expect("profiled run carries a report");
            assert!(!prof.spans.is_empty());
            assert_eq!(prof.scenario, scenario.name);
            let mobile = scenario.mobility.is_some();
            let flushed = prof
                .summary()
                .phase_totals_ns
                .iter()
                .any(|(name, _)| name == "link_flush");
            assert_eq!(flushed, mobile, "{}: link_flush phase", scenario.name);
        }
    }
}

#[test]
fn profiled_runs_match_the_one_chunk_run() {
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
    let scenario = shaped(&Scenario::campus(768), 1, true);
    // The builder timed its validation pass for the scenario_build span.
    assert!(scenario.execution.build_ns.is_some());

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
        [
            "engine_init",
            "epoch",
            "finalize",
            "link_build",
            "scenario_build"
        ]
    );
    assert!(phases["epoch"] > 0, "event-loop time is empty");

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
    assert!(doc.ends_with(",\"dropped_spans\":0}"));
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
