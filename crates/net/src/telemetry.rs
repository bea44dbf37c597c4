//! Run telemetry: the engine's event count and the soak-run **progress**
//! lines. The run's exact record is [`crate::metrics::NetworkMetrics`],
//! which stores every latency, poll and occupancy sample; this module
//! only reports how far a run has come while it goes.
//!
//! A progress line is a periodic one-line run status (sim-time, events
//! processed, events per simulated second, live PRR, re-stripe count),
//! one per boundary of the simulated-time cadence set by
//! [`crate::scenario::ExecutionSection::progress`]. The first event at or
//! past a boundary emits its line, stamped at the boundary with the counts
//! held before that event, so a run prints duration ÷ cadence lines however
//! sparse its events are (`Scenario::validate` caps that at a million). Lines are collected
//! deterministically and optionally mirrored to stderr as the run goes.
//! Emitting them never touches the RNG streams, the queue or the medium,
//! so a run's trace and metrics are byte-identical at any cadence
//! (pinned by `every_execution_knob_leaves_every_preset_run_identical`).

use crate::time::Time;

/// What the run reported about itself besides its metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Engine events processed (every queue pop, including the horizon).
    pub events: u64,
    /// Collected progress lines (empty unless a cadence was configured).
    pub progress: Vec<String>,
}

impl TelemetryReport {
    /// A plain-text rendering: the collected progress lines, in emission
    /// order (empty when progress is off).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.progress {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The soak-run progress emitter: one deterministic status line per
/// `every_s` simulated seconds, stamped at the cadence boundary —
/// sim-time, events processed, events per simulated second, live PRR and
/// re-stripe count. Lines are collected into the report; with `live`
/// they are also mirrored to stderr as the run executes (stderr so
/// digest-checked stdout stays clean).
pub struct ProgressRuntime {
    period: u64,
    next: Time,
    live: bool,
    lines: Vec<String>,
}

impl ProgressRuntime {
    /// A progress emitter on an `every_s` cadence.
    pub fn new(every_s: f64, live: bool) -> ProgressRuntime {
        let period = Time::from_secs(every_s).as_nanos().max(1);
        ProgressRuntime {
            period,
            next: Time(period),
            live,
            lines: Vec::new(),
        }
    }

    /// Whether an event at `at` reaches the next cadence boundary.
    #[inline]
    pub fn due(&self, at: Time) -> bool {
        at >= self.next
    }

    /// Emits the line for the next cadence boundary, stamped at that
    /// boundary with the counts held there, and moves on to the one
    /// after it.
    pub fn emit(&mut self, events: u64, attempts: usize, delivered: usize, restripes: usize) {
        let t_s = self.next.as_secs();
        self.next = Time(self.next.as_nanos() + self.period);
        let rate = events as f64 / t_s;
        let prr = if attempts > 0 {
            format!("{:.3}", delivered as f64 / attempts as f64)
        } else {
            "—".into()
        };
        let line = format!(
            "[progress] t={t_s:.1}s events={events} ev/sim-s={rate:.0} prr={prr} \
             restripes={restripes}"
        );
        if self.live {
            eprintln!("{line}");
        }
        self.lines.push(line);
    }

    /// The collected lines.
    pub fn into_lines(self) -> Vec<String> {
        self.lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ExecutionConfig;

    #[test]
    fn config_validation_rejects_bad_parameters() {
        let with_progress = |every: f64| ExecutionConfig {
            progress_every_s: Some(every),
            ..ExecutionConfig::default()
        };
        for every in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(with_progress(every).validate().is_err(), "cadence {every}");
        }
        with_progress(1.0).validate().unwrap();
        ExecutionConfig::default().validate().unwrap();
    }

    #[test]
    fn progress_lines_are_deterministic() {
        let mut p = ProgressRuntime::new(1.0, false);
        assert!(!p.due(Time::from_secs(0.5)));
        assert!(p.due(Time::from_secs(1.0)));
        p.emit(1000, 80, 72, 0);
        assert!(!p.due(Time::from_secs(1.5)));
        // An event at 3.2 s crosses two boundaries: one line for each,
        // stamped at the boundary.
        assert!(p.due(Time::from_secs(3.2)));
        p.emit(2000, 160, 150, 1);
        assert!(p.due(Time::from_secs(3.2)));
        p.emit(2000, 160, 150, 1);
        assert!(!p.due(Time::from_secs(3.2)));
        let lines = p.into_lines();
        assert_eq!(
            lines,
            [
                "[progress] t=1.0s events=1000 ev/sim-s=1000 prr=0.900 restripes=0",
                "[progress] t=2.0s events=2000 ev/sim-s=1000 prr=0.938 restripes=1",
                "[progress] t=3.0s events=2000 ev/sim-s=667 prr=0.938 restripes=1",
            ]
        );
    }
}
