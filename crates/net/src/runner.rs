//! The Monte-Carlo report: many independent trials of one scenario (run
//! by [`crate::run_trials`], one derived seed per trial, fanned out
//! across worker threads) aggregated into a fleet-level summary.

use crate::metrics::NetworkMetrics;
use crate::prof::ProfSummary;
use crate::scenario::Scenario;
use interscatter_sim::measurements::{mean, Cdf};

/// Aggregates over a set of Monte-Carlo trials.
#[derive(Debug, Clone)]
pub struct MonteCarloReport {
    /// Scenario name the trials ran.
    pub scenario_name: String,
    /// Per-trial metrics, in trial order.
    pub trials: Vec<NetworkMetrics>,
    /// Per-trial aggregate throughput samples, bits per second.
    pub throughput_bps: Cdf,
    /// Per-trial packet-error-rate samples.
    pub per: Cdf,
    /// Per-trial Jain fairness samples.
    pub fairness: Cdf,
    /// Pooled delivery-latency samples across all trials, milliseconds.
    pub latency_ms: Cdf,
    /// Pooled per-grant poll-latency samples across all trials,
    /// milliseconds — the queueing delay the arbitration policy controls.
    pub poll_latency_ms: Cdf,
    /// Per-trial deadline-miss-rate samples (all zero unless the scenario
    /// runs a deadline-aware scheduler).
    pub deadline_miss_rate: Cdf,
    /// Per-trial self-profiling summaries, **in trial order**, when the
    /// scenario ran with [`crate::scenario::ExecutionConfig::profile`]
    /// set. Empty otherwise — and never consulted by the aggregates
    /// above, so reports are identical with profiling on or off.
    pub prof: Vec<ProfSummary>,
}

impl MonteCarloReport {
    pub(crate) fn aggregate(
        scenario: &Scenario,
        trials: Vec<NetworkMetrics>,
        prof: Vec<ProfSummary>,
    ) -> Self {
        let mut throughput = Cdf::new();
        let mut per = Cdf::new();
        let mut fairness = Cdf::new();
        let mut latency = Cdf::new();
        let mut poll_latency = Cdf::new();
        let mut miss_rate = Cdf::new();
        for m in &trials {
            throughput.push(m.throughput_bps());
            per.push(m.per());
            fairness.push(m.jain_fairness());
            for &sample in m.latency_ms.samples() {
                latency.push(sample);
            }
            for &sample in m.poll_latency_ms.samples() {
                poll_latency.push(sample);
            }
            miss_rate.push(m.deadline_miss_rate());
        }
        MonteCarloReport {
            scenario_name: scenario.name.clone(),
            trials,
            throughput_bps: throughput,
            per,
            fairness,
            latency_ms: latency,
            poll_latency_ms: poll_latency,
            deadline_miss_rate: miss_rate,
            prof,
        }
    }

    /// Pooled delivery-latency quantile.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_ms.quantile(q)
    }

    /// Pooled poll-latency quantile.
    pub fn poll_latency_quantile(&self, q: f64) -> Option<f64> {
        self.poll_latency_ms.quantile(q)
    }

    /// Mean aggregate throughput across trials, bits per second.
    pub fn mean_throughput_bps(&self) -> f64 {
        mean(
            &self
                .trials
                .iter()
                .map(|m| m.throughput_bps())
                .collect::<Vec<_>>(),
        )
    }

    /// Mean packet error rate across trials.
    pub fn mean_per(&self) -> f64 {
        mean(&self.trials.iter().map(|m| m.per()).collect::<Vec<_>>())
    }

    /// Mean Jain fairness across trials.
    pub fn mean_fairness(&self) -> f64 {
        mean(
            &self
                .trials
                .iter()
                .map(|m| m.jain_fairness())
                .collect::<Vec<_>>(),
        )
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
            self.throughput_bps.median().unwrap_or(0.0),
        ));
        out.push_str(&format!(
            "PER {:.3} (median {:.3})  fairness {:.3}\n",
            self.mean_per(),
            self.per.median().unwrap_or(0.0),
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
        let mean_miss = mean(self.deadline_miss_rate.samples());
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
        // across trials; the miss-rate Cdf holds one sample per trial.
        assert!(report.poll_latency_ms.median().is_some());
        assert_eq!(report.deadline_miss_rate.samples().len(), 3);
        assert!(report.report().contains("poll latency p50"));
    }

    #[test]
    fn trial_seeds_differ() {
        assert_ne!(streams::trial_seed(42, 0), streams::trial_seed(42, 1));
    }
}
