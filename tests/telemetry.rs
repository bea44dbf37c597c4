//! Observability contract: telemetry subscriptions observe the engine
//! without perturbing it (byte-identical traces with any number attached),
//! and quantile sketches answer the same quantile questions as the run's
//! stored samples to within the documented bound.

use interscatter::net::scenario::{Scenario, ScenarioBuilder};
use interscatter::net::telemetry::{
    Dataset, Filter, SinkReport, SinkSpec, Subscription, TelemetryConfig, TelemetryKind,
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
    let datasets = [
        Dataset::DeliveryLatencyMs,
        Dataset::PollLatencyMs,
        Dataset::TransactionLatencyMs,
    ];
    let telemetry = datasets.iter().fold(TelemetryConfig::new(), |t, &data| {
        t.subscribe(Subscription::new(
            data.label(),
            Filter::all(),
            SinkSpec::Quantiles(data),
        ))
    });
    let scenario = Scenario::congested_ward(12)
        .closed_loop()
        .builder()
        .telemetry(telemetry)
        .build()
        .unwrap();
    let run = interscatter::net::run(&scenario, 0xC0FFEE).unwrap();
    let stored = &run.metrics;
    assert!(
        stored.latency_ms.samples().len() > 100,
        "need a busy run to compare quantiles"
    );
    for (data, sub) in datasets.iter().zip(&run.telemetry.subscriptions) {
        let SinkReport::Quantiles { sketch, .. } = &sub.report else {
            panic!("{}: quantile sink", sub.name);
        };
        let samples = match data {
            Dataset::DeliveryLatencyMs => &stored.latency_ms,
            Dataset::PollLatencyMs => &stored.poll_latency_ms,
            Dataset::TransactionLatencyMs => &stored.transaction_latency_ms,
        };
        // The same sample stream, two containers: the sketch saw every
        // stored sample, and its answer sits within 1% of the exact
        // quantile (the log-bucket width bounds the relative error at
        // SKETCH_GAMMA/2 ≈ 0.25%).
        assert_eq!(
            sketch.count(),
            samples.samples().len() as u64,
            "{}",
            sub.name
        );
        for q in [0.5, 0.9, 0.99] {
            let exact = samples
                .quantile(q)
                .unwrap_or_else(|| panic!("{} stored p{q} missing", sub.name));
            let approx = sketch
                .quantile(q)
                .unwrap_or_else(|| panic!("{} sketch p{q} missing", sub.name));
            let rel = (approx - exact).abs() / exact.max(1e-9);
            assert!(
                rel < 0.01,
                "{} p{q}: sketch {approx} vs stored {exact} (rel {rel})",
                sub.name
            );
        }
    }
}
