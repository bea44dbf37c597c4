//! The Monte-Carlo report: many independent trials of one scenario (run
//! by [`crate::run_trials`], one derived seed per trial, fanned out
//! across worker threads) aggregated into a fleet-level summary.

use crate::metrics::NetworkMetrics;
use crate::prof::ProfSummary;
use interscatter_sim::measurements::{mean, Cdf};

/// A set of Monte-Carlo trials. Every aggregate is derived from the
/// trials where it is read.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Scenario name the trials ran.
    pub scenario_name: String,
    /// Per-trial metrics, in trial order.
    pub trials: Vec<NetworkMetrics>,
    /// Per-trial self-profiling summaries, **in trial order**, when the
    /// scenario ran with [`crate::scenario::ExecutionConfig::profile`]
    /// set. Empty otherwise — and never consulted by the aggregates, so
    /// reports are identical with profiling on or off.
    pub prof: Vec<ProfSummary>,
}

impl MonteCarloReport {
    /// One value of `f` per trial, in trial order.
    fn per_trial(&self, f: impl Fn(&NetworkMetrics) -> f64) -> Vec<f64> {
        self.trials.iter().map(f).collect()
    }

    /// The samples of `f` pooled across all trials, in trial order.
    fn pooled(&self, f: impl Fn(&NetworkMetrics) -> &Cdf) -> Cdf {
        Cdf::from_samples(
            self.trials
                .iter()
                .flat_map(|m| f(m).samples().iter().copied()),
        )
    }

    /// Pooled delivery-latency quantile, milliseconds.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.pooled(|m| &m.latency_ms).quantile(q)
    }

    /// Pooled per-grant poll-latency quantile, milliseconds — the queueing
    /// delay the arbitration policy controls.
    pub fn poll_latency_quantile(&self, q: f64) -> Option<f64> {
        self.pooled(|m| &m.poll_latency_ms).quantile(q)
    }

    /// Mean aggregate throughput across trials, bits per second.
    pub fn mean_throughput_bps(&self) -> f64 {
        mean(&self.per_trial(NetworkMetrics::throughput_bps))
    }

    /// Mean packet error rate across trials.
    pub fn mean_per(&self) -> f64 {
        mean(&self.per_trial(NetworkMetrics::per))
    }

    /// Mean Jain fairness across trials.
    pub fn mean_fairness(&self) -> f64 {
        mean(&self.per_trial(NetworkMetrics::jain_fairness))
    }

    /// A plain-text summary table.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "=== {} ({} trials) ===\n",
            self.scenario_name,
            self.trials.len()
        ));
        out.push_str(&format!(
            "throughput {:.1} bit/s (median {:.1})\n",
            self.mean_throughput_bps(),
            Cdf::from_samples(self.per_trial(NetworkMetrics::throughput_bps))
                .median()
                .unwrap_or(0.0),
        ));
        out.push_str(&format!(
            "PER {:.3} (median {:.3})  fairness {:.3}\n",
            self.mean_per(),
            Cdf::from_samples(self.per_trial(NetworkMetrics::per))
                .median()
                .unwrap_or(0.0),
            self.mean_fairness(),
        ));
        if let (Some(p50), Some(p95)) = (self.latency_quantile(0.5), self.latency_quantile(0.95)) {
            out.push_str(&format!("latency p50 {p50:.2} ms  p95 {p95:.2} ms\n"));
        }
        if let Some(p50) = self.poll_latency_quantile(0.5) {
            out.push_str(&format!(
                "poll latency p50 {p50:.2} ms  p95 {:.2} ms\n",
                self.poll_latency_quantile(0.95).unwrap_or(0.0)
            ));
        }
        let mean_miss = mean(&self.per_trial(NetworkMetrics::deadline_miss_rate));
        if mean_miss > 0.0 {
            out.push_str(&format!("deadline miss rate {mean_miss:.3}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::entities::streams;
    use crate::scenario::{ExecutionSection, Scenario};

    /// `scenario` set up for `trials` Monte-Carlo trials.
    fn with_trials(scenario: Scenario, trials: usize) -> Scenario {
        scenario
            .builder()
            .execution(ExecutionSection::new().trials(trials))
            .build()
            .unwrap()
    }

    #[test]
    fn trials_are_reproducible_and_decorrelated() {
        let scenario = with_trials(Scenario::hospital_ward(6), 4);
        let a = crate::run_trials(&scenario, 1234).unwrap();
        let b = crate::run_trials(&scenario, 1234).unwrap();
        assert_eq!(a.trials.len(), 4);
        assert_eq!(format!("{:?}", a.trials), format!("{:?}", b.trials));
        // Different trials are different runs.
        assert_ne!(format!("{:?}", a.trials[0]), format!("{:?}", a.trials[1]));
        // Different base seed, different results.
        let c = crate::run_trials(&scenario, 999).unwrap();
        assert_ne!(format!("{:?}", a.trials), format!("{:?}", c.trials));
    }

    #[test]
    fn report_summarizes() {
        let scenario = with_trials(Scenario::card_to_card_room(4), 3);
        let report = crate::run_trials(&scenario, 7).unwrap();
        assert!(report.mean_throughput_bps() >= 0.0);
        assert!((0.0..=1.0).contains(&report.mean_per()));
        assert!((0.0..=1.0).contains(&report.mean_fairness()));
        let text = report.report();
        assert!(text.contains("card-to-card-4"));
        assert!(text.contains("throughput"));
    }

    #[test]
    fn report_pools_scheduler_aggregates() {
        let scenario = Scenario::hospital_ward(6)
            .builder()
            .scheduling(crate::sched::SchedPolicy::deadline_aware())
            .execution(ExecutionSection::new().trials(3))
            .build()
            .unwrap();
        let report = crate::run_trials(&scenario, 7).unwrap();
        // Every granted slot contributed a poll-latency sample, pooled
        // across trials.
        assert!(report.poll_latency_quantile(0.5).is_some());
        assert!(report.report().contains("poll latency p50"));
    }

    #[test]
    fn trial_seeds_differ() {
        assert_ne!(streams::trial_seed(42, 0), streams::trial_seed(42, 1));
    }
}
