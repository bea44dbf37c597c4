//! Edge presets through the engine: runs too short for any traffic must
//! still end cleanly, with vacuous-but-finite metrics — no division by a
//! zero packet count may surface as `NaN` or `inf` in the report.

use interscatter::net::scenario::Scenario;

#[test]
fn one_tag_ward_shorter_than_any_event_is_empty_and_finite() {
    for (closed_loop, duration_s) in [(false, 1e-9), (true, 1e-6)] {
        let what = format!("closed_loop {closed_loop}, {duration_s} s");
        let preset = Scenario::hospital_ward(1);
        let preset = if closed_loop {
            preset.closed_loop()
        } else {
            preset
        };
        let scenario = preset.builder().duration_s(duration_s).build().unwrap();
        let result = interscatter::net::run(&scenario, 1).unwrap();
        assert_eq!(result.telemetry.events, 1, "{what}: only the horizon fires");
        let metrics = &result.metrics;
        assert_eq!(metrics.offered_packets(), 0, "{what}");
        assert_eq!(metrics.delivery_ratio(), 1.0, "{what}");
        assert_eq!(metrics.per(), 0.0, "{what}");
        for tag in &metrics.tags {
            assert_eq!(
                tag.offered,
                tag.delivered + tag.dropped + tag.queued,
                "{what}"
            );
        }
        let report = metrics.report();
        for bad in ["NaN", "inf"] {
            assert!(!report.contains(bad), "{what}: {bad} in report:\n{report}");
        }
    }
}
