//! Observability contract: telemetry subscriptions observe the engine
//! without perturbing it (byte-identical traces with any number attached),
//! and streaming-mode sketches answer the same quantile questions as the
//! stored-sample baseline to within the documented bound.

use interscatter::net::scenario::{ExecutionSection, Scenario, ScenarioBuilder};
use interscatter::net::telemetry::{
    Dataset, Filter, MetricsMode, SinkSpec, Subscription, TelemetryConfig, TelemetryKind,
};
use interscatter::net::trace_digest::fnv1a;

/// The four closed-loop presets: poll/ack MACs exercise every telemetry
/// emit site (grants, deliveries, transactions, losses, retries).
fn closed_loop_presets() -> Vec<Scenario> {
    vec![
        Scenario::hospital_ward(24).closed_loop(),
        Scenario::contact_lens_fleet(10).closed_loop(),
        Scenario::card_to_card_room(6).closed_loop(),
        Scenario::zigbee_wing(12).closed_loop(),
    ]
}

/// A deliberately busy subscription set: every sink kind, plus filters
/// along each axis (entity subset, kind subset, time window).
fn observe(base: Scenario) -> ScenarioBuilder {
    base.builder().telemetry(
        TelemetryConfig::new()
            .subscribe(Subscription::new(
                "latency",
                Filter::all(),
                SinkSpec::Quantiles(Dataset::DeliveryLatencyMs),
            ))
            .subscribe(Subscription::new(
                "txn",
                Filter::all(),
                SinkSpec::Quantiles(Dataset::TransactionLatencyMs),
            ))
            .subscribe(Subscription::new(
                "poll",
                Filter::all().window(0.0, 5.0),
                SinkSpec::Quantiles(Dataset::PollLatencyMs),
            ))
            .subscribe(Subscription::new(
                "prr-front",
                Filter::all().tags([0usize, 1, 2]),
                SinkSpec::WindowedPrr { window_s: 1.0 },
            ))
            .subscribe(Subscription::new(
                "counters",
                Filter::all().kinds([
                    TelemetryKind::Offered,
                    TelemetryKind::Delivery,
                    TelemetryKind::Loss,
                    TelemetryKind::Dropped,
                ]),
                SinkSpec::Counters,
            ))
            .with_progress(1.0),
    )
}

/// Streaming metrics on top of whatever telemetry `builder` carries.
fn streaming(builder: ScenarioBuilder) -> Scenario {
    builder
        .execution(ExecutionSection::new().metrics(MetricsMode::Streaming))
        .build()
        .unwrap()
}

#[test]
fn subscriptions_leave_traces_byte_identical() {
    for base in closed_loop_presets() {
        let plain = interscatter::net::run(&base, 0x0B5E7).unwrap();
        let observed =
            interscatter::net::run(&observe(base.clone()).build().unwrap(), 0x0B5E7).unwrap();
        // Observation is free: the trace and metrics are bit-for-bit what
        // the unobserved run produced (telemetry consumes no RNG and
        // touches no queue), checked through the shared digest helper too.
        assert_eq!(
            plain.trace.to_bytes(),
            observed.trace.to_bytes(),
            "{}: subscriptions must not perturb the trace",
            base.name
        );
        assert_eq!(plain.trace.digest(), fnv1a(&observed.trace.to_bytes()));
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", observed.metrics),
            "{}: subscriptions must not perturb metrics",
            base.name
        );
        // …but the observed run actually measured things.
        assert!(observed.telemetry.events > 0, "{}", base.name);
        assert_eq!(observed.telemetry.subscriptions.len(), 5);
        assert!(!observed.telemetry.progress.is_empty());
        let rendered = observed.telemetry.render();
        for name in ["latency", "txn", "poll", "prr-front", "counters"] {
            assert!(rendered.contains(name), "{rendered}");
        }
        // The unobserved run paid no collection (the event count is a free
        // loop counter, identical in both runs): empty report otherwise.
        assert_eq!(plain.telemetry.events, observed.telemetry.events);
        assert!(plain.telemetry.subscriptions.is_empty());
        assert!(plain.telemetry.progress.is_empty());
    }
}

#[test]
fn streaming_quantiles_match_stored_within_one_percent() {
    let base = Scenario::congested_ward(12).closed_loop();
    let stored = interscatter::net::run(&base, 0xC0FFEE).unwrap().metrics;
    let streamed = interscatter::net::run(&streaming(base.clone().builder()), 0xC0FFEE)
        .unwrap()
        .metrics;
    let sketches = streamed.streaming.as_ref().expect("streaming series");
    assert!(
        stored.latency_ms.samples().len() > 100,
        "need a busy run to compare quantiles"
    );
    // Identical sample streams, different containers: the sketch answer
    // must sit within 1% of the exact stored quantile (the log-bucket
    // width bounds the relative error at SKETCH_GAMMA/2 ≈ 0.25%).
    for q in [0.5, 0.9, 0.99] {
        for (label, exact, sketch) in [
            (
                "delivery",
                stored.latency_ms.quantile(q),
                sketches.latency_ms.quantile(q),
            ),
            (
                "poll",
                stored.poll_latency_ms.quantile(q),
                sketches.poll_latency_ms.quantile(q),
            ),
            (
                "transaction",
                stored.transaction_latency_ms.quantile(q),
                sketches.transaction_latency_ms.quantile(q),
            ),
        ] {
            let exact = exact.unwrap_or_else(|| panic!("{label} stored p{q} missing"));
            let sketch = sketch.unwrap_or_else(|| panic!("{label} sketch p{q} missing"));
            let rel = (sketch - exact).abs() / exact.max(1e-9);
            assert!(
                rel < 0.01,
                "{label} p{q}: sketch {sketch} vs stored {exact} (rel {rel})"
            );
        }
    }
    // Streaming mode holds no per-event storage: the memory is
    // O(subscriptions + entities), not O(events).
    assert!(streamed.latency_ms.is_empty());
    assert!(streamed.poll_latency_ms.is_empty());
    assert!(streamed.transaction_latency_ms.is_empty());
    assert!(streamed.mobility_series.iter().all(Vec::is_empty));
    assert!(streamed.occupancy_series.iter().all(Vec::is_empty));
    // And the two modes still agree on every counter-based readout.
    assert_eq!(stored.offered_packets(), streamed.offered_packets());
    assert_eq!(stored.delivered_packets(), streamed.delivered_packets());
    assert_eq!(stored.restripes(), streamed.restripes());
}

#[test]
fn streaming_run_reproduces_the_stored_trace() {
    // The metrics mode is observation too: switching containers must not
    // change a single byte of the event trace.
    let base = Scenario::congested_ward(10);
    let stored = interscatter::net::run(&base, 0x5EED).unwrap();
    let streamed = interscatter::net::run(&streaming(observe(base)), 0x5EED).unwrap();
    assert_eq!(stored.trace.to_bytes(), streamed.trace.to_bytes());
    assert_eq!(stored.trace.digest(), streamed.trace.digest());
}
