//! Network-level bookkeeping: per-tag counters, aggregate throughput/PER,
//! latency distribution and Jain fairness, built on the statistics toolkit
//! of `interscatter-sim`'s [`measurements`](interscatter_sim::measurements).
//!
//! Every latency sample and every per-tick mobility/occupancy sample is
//! stored, so quantiles and band PRRs are exact; the engine pushes them
//! straight into the series below and bumps one [`TagStats`] row per tag.

use interscatter_sim::measurements::Cdf;
use std::ops::Range;

/// Counters for one tag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Packets the application generated.
    pub offered: usize,
    /// Packets delivered to the destination receiver.
    pub delivered: usize,
    /// Packets dropped (queue overflow or retry budget exhausted).
    pub dropped: usize,
    /// Packets still in the tag's queue at the horizon. Every offered
    /// packet ends the run exactly one way, so
    /// `offered == delivered + dropped + queued`.
    pub queued: usize,
    /// Transmission attempts (grants that went on the air).
    pub attempts: usize,
    /// Attempts lost to tag-to-tag (or mirror-copy) collisions.
    pub collided: usize,
    /// Attempts lost to external traffic: collisions whose in-band
    /// interferers were all coex-source emissions ([`crate::coex`]), or
    /// the fold of the sink's `external_occupancy` scalar.
    pub external_collisions: usize,
    /// Attempts lost to the link budget (shadowed RSSI under sensitivity).
    pub link_losses: usize,
    /// Carrier slots skipped because carrier-sense found the band busy.
    pub csma_defers: usize,
    /// Carrier slots the scheduler granted to this tag (open loop: grants
    /// become transmissions; closed loop: grants become polls).
    pub grants: usize,
    /// Grants whose head-of-queue packet had already outlived the
    /// scheduler's service deadline
    /// ([`crate::sched::SchedPolicy::DeadlineAware`]; always 0 for
    /// deadline-blind policies).
    pub deadline_misses: usize,
    /// Application bits delivered.
    pub delivered_bits: usize,
    /// Closed loop: poll frames addressed to this tag.
    pub polls: usize,
    /// Closed loop: polls the tag's envelope detector failed to decode
    /// (collision, external traffic or the downlink link budget).
    pub poll_losses: usize,
    /// Closed loop: polls decoded whose backscattered response was lost —
    /// the sink waited out the response window for nothing.
    pub timeouts: usize,
    /// Closed loop: responses the sink decoded whose ack the carrier failed
    /// to decode, forcing a retransmission of delivered data.
    pub ack_losses: usize,
    /// Closed loop: completed poll → response → ack transactions.
    pub transactions: usize,
    /// Closed loop: summed poll-start → ack-decode spans of completed
    /// transactions, nanoseconds (kept integral so metrics stay `Eq`).
    pub transaction_ns: u64,
}

impl TagStats {
    /// Mean completed-transaction span, milliseconds.
    pub fn mean_transaction_ms(&self) -> f64 {
        if self.transactions == 0 {
            return 0.0;
        }
        self.transaction_ns as f64 / self.transactions as f64 / 1e6
    }
}

/// One point of a tag's PRR-vs-displacement series, recorded at a mobility
/// tick: where the tag was relative to its starting position, and how its
/// attempts fared since the previous tick.
///
/// In open loop an attempt and its delivery are counted at one event, so
/// they always share a sample. In closed loop the attempt is counted when
/// the response ends and the delivery when the ack ends, so a tick between
/// the two puts the delivery in the next sample: a sample can read
/// `delivered > attempts`, even attempts 0 and delivered 1
/// (`ambulatory_ward(8).closed_loop()` at seed `0xDEC0DE`, at 1.1 s).
/// Sums over consecutive samples never deliver more than they attempted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MobilitySample {
    /// Simulated time of the tick, seconds.
    pub at_s: f64,
    /// Straight-line distance from the tag's starting position, metres.
    pub displacement_m: f64,
    /// Transmission attempts since the previous tick.
    pub attempts: usize,
    /// Deliveries since the previous tick.
    pub delivered: usize,
}

impl MobilitySample {
    /// Packet reception ratio over the tick's attempts: `None` when no
    /// attempt was counted in this tick. In closed loop that includes a
    /// tick that only counted the delivery of an attempt made in the tick
    /// before, and a ratio can exceed 1 (see [`MobilitySample`]); pool
    /// several samples for a closed-loop PRR.
    pub fn prr(&self) -> Option<f64> {
        (self.attempts > 0).then(|| self.delivered as f64 / self.attempts as f64)
    }
}

/// One point of a carrier's sensed-occupancy series, recorded every
/// 0.1 s of simulated time: what the carrier's EWMA busy
/// estimator reads on its own stripe, and how its member tags' attempts
/// fared since the previous sample — the raw material of the
/// PRR-under-congestion readout.
///
/// The counts are windowed like [`MobilitySample`]'s: in closed loop a
/// delivery is counted at its ack, so it can fall in the sample after its
/// attempt, and one sample can read more deliveries than attempts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OccupancySample {
    /// Simulated time of the sample, seconds.
    pub at_s: f64,
    /// The sub-band stripe the carrier was tuned to when sampling.
    pub subband: usize,
    /// EWMA busy-airtime estimate of the carrier's own channel, in [0, 1].
    pub occupancy: f64,
    /// Member-tag transmission attempts since the previous sample.
    pub attempts: usize,
    /// Member-tag deliveries since the previous sample.
    pub delivered: usize,
}

/// One adaptive re-striping decision ([`crate::coex::ReStripe`]): a
/// carrier — and every Wi-Fi tag it illuminates — re-tuned from one
/// sub-band stripe to another because its sensed occupancy spiked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReStripeEvent {
    /// Simulated time of the decision (slot-aligned), seconds.
    pub at_s: f64,
    /// The carrier that re-tuned.
    pub carrier: usize,
    /// The stripe it left.
    pub from_subband: usize,
    /// The stripe it re-tuned to (the least-occupied candidate).
    pub to_subband: usize,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct NetworkMetrics {
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Per-tag counters, indexed like the scenario's tag list.
    pub tags: Vec<TagStats>,
    /// Delivery latency samples, milliseconds (arrival → delivery).
    pub latency_ms: Cdf,
    /// Closed loop: completed-transaction spans (poll start → ack decode),
    /// milliseconds.
    pub transaction_latency_ms: Cdf,
    /// Per-grant poll latency, milliseconds: how long the granted packet
    /// sat at the head of its tag's queue before the scheduler gave it a
    /// slot — the queueing delay the arbitration policy controls, one
    /// sample per grant.
    pub poll_latency_ms: Cdf,
    /// Per-receiver airtime punctured by double-sideband mirror copies,
    /// seconds — the coexistence cost the §2.3.1 single-sideband design
    /// removes (cf. Fig. 12).
    pub mirror_airtime_s: Vec<f64>,
    /// Per-tag PRR-vs-displacement series, one entry per mobility tick
    /// (empty vectors for static runs) — how link quality tracks motion,
    /// indexed like the scenario's tag list.
    pub mobility_series: Vec<Vec<MobilitySample>>,
    /// Per-carrier sensed-occupancy series (empty unless the scenario
    /// attaches a [`crate::coex::CoexConfig`]), indexed like the
    /// scenario's carrier list.
    pub occupancy_series: Vec<Vec<OccupancySample>>,
    /// Every adaptive re-striping decision of the run, in time order.
    pub restripe_events: Vec<ReStripeEvent>,
    /// Per external source: emissions put on the air, indexed like the
    /// coex config's source list.
    pub coex_emissions: Vec<usize>,
    /// Per external source: summed on-air time, seconds.
    pub coex_airtime_s: Vec<f64>,
    /// Per external source: CSMA deferrals (busy band or NAV honoured).
    pub coex_defers: Vec<usize>,
}

impl NetworkMetrics {
    /// Creates zeroed metrics for `n_tags` tags and `n_receivers`
    /// receivers over `duration_s` simulated seconds.
    pub fn new(n_tags: usize, n_receivers: usize, duration_s: f64) -> Self {
        NetworkMetrics {
            duration_s,
            tags: vec![TagStats::default(); n_tags],
            latency_ms: Cdf::new(),
            transaction_latency_ms: Cdf::new(),
            poll_latency_ms: Cdf::new(),
            mirror_airtime_s: vec![0.0; n_receivers],
            mobility_series: vec![Vec::new(); n_tags],
            occupancy_series: Vec::new(),
            restripe_events: Vec::new(),
            coex_emissions: Vec::new(),
            coex_airtime_s: Vec::new(),
            coex_defers: Vec::new(),
        }
    }

    /// Sizes the coexistence series for `n_carriers` carriers and
    /// `n_sources` external sources (called by the engine when the
    /// scenario attaches a coex config).
    pub fn init_coex(&mut self, n_carriers: usize, n_sources: usize) {
        self.occupancy_series = vec![Vec::new(); n_carriers];
        self.coex_emissions = vec![0; n_sources];
        self.coex_airtime_s = vec![0.0; n_sources];
        self.coex_defers = vec![0; n_sources];
    }

    /// The `q`-quantile of the delivery-latency distribution.
    pub fn latency_quantile(&self, q: f64) -> Option<f64> {
        self.latency_ms.quantile(q)
    }

    /// The `q`-quantile of the poll-latency distribution.
    pub fn poll_latency_quantile(&self, q: f64) -> Option<f64> {
        self.poll_latency_ms.quantile(q)
    }

    /// The `q`-quantile of the transaction-span distribution.
    pub fn transaction_quantile(&self, q: f64) -> Option<f64> {
        self.transaction_latency_ms.quantile(q)
    }

    /// Pooled PRR of all mobility samples whose displacement falls in
    /// `[min_m, max_m)`, with the number of attempts it is based on —
    /// the paper-style "how far can the tag wander before the link dies"
    /// readout. `None` when no attempts landed in the band.
    pub fn prr_in_displacement_band(&self, min_m: f64, max_m: f64) -> Option<(f64, usize)> {
        let samples = self.mobility_series.iter().flatten();
        let keyed = samples.map(|s| (s.displacement_m, s.attempts, s.delivered));
        pooled_prr(keyed, min_m..max_m)
    }

    /// Pooled member-tag PRR of all occupancy samples whose sensed
    /// occupancy falls in `[min_occ, max_occ)`, with the number of
    /// attempts it is based on — the PRR-under-congestion readout: how the
    /// fleet fares while its channels are externally loaded vs. quiet.
    /// `None` when no attempts landed in the band.
    pub fn prr_in_occupancy_band(&self, min_occ: f64, max_occ: f64) -> Option<(f64, usize)> {
        let samples = self.occupancy_series.iter().flatten();
        let keyed = samples.map(|s| (s.occupancy, s.attempts, s.delivered));
        pooled_prr(keyed, min_occ..max_occ)
    }

    /// Highest occupancy carrier `c` ever sensed on its own stripe
    /// (`None` without a coex config or before the first sample).
    pub fn peak_occupancy(&self, c: usize) -> Option<f64> {
        self.occupancy_series
            .get(c)?
            .iter()
            .map(|s| s.occupancy)
            .fold(None, |acc: Option<f64>, o| {
                Some(acc.map_or(o, |a| a.max(o)))
            })
    }

    /// Total adaptive re-striping decisions of the run.
    pub fn restripes(&self) -> usize {
        self.restripe_events.len()
    }

    /// Total external emissions the coex sources put on the air.
    pub fn external_emissions(&self) -> usize {
        self.coex_emissions.iter().sum()
    }

    /// Total external on-air time across sources, seconds.
    pub fn external_airtime_s(&self) -> f64 {
        self.coex_airtime_s.iter().sum()
    }

    /// Largest displacement any tag reached, metres (0 for static runs).
    pub fn max_displacement_m(&self) -> f64 {
        self.mobility_series
            .iter()
            .flatten()
            .map(|s| s.displacement_m)
            .fold(0.0, f64::max)
    }

    /// Total packets the applications offered.
    pub fn offered_packets(&self) -> usize {
        self.tags.iter().map(|t| t.offered).sum()
    }

    /// Total packets delivered.
    pub fn delivered_packets(&self) -> usize {
        self.tags.iter().map(|t| t.delivered).sum()
    }

    /// Total transmission attempts.
    pub fn attempts(&self) -> usize {
        self.tags.iter().map(|t| t.attempts).sum()
    }

    /// Aggregate network throughput, application bits per second.
    pub fn throughput_bps(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.tags.iter().map(|t| t.delivered_bits).sum::<usize>() as f64 / self.duration_s
    }

    /// Packet error rate over the air: failed attempts / attempts.
    pub fn per(&self) -> f64 {
        let attempts = self.attempts();
        if attempts == 0 {
            return 0.0;
        }
        1.0 - self.delivered_packets() as f64 / attempts as f64
    }

    /// End-to-end delivery ratio: delivered / offered (includes queue and
    /// retry drops, unlike [`NetworkMetrics::per`]).
    pub fn delivery_ratio(&self) -> f64 {
        let offered = self.offered_packets();
        if offered == 0 {
            return 1.0;
        }
        self.delivered_packets() as f64 / offered as f64
    }

    /// Closed loop: total poll frames sent.
    pub fn polls(&self) -> usize {
        self.tags.iter().map(|t| t.polls).sum()
    }

    /// Closed loop: total completed transactions.
    pub fn completed_transactions(&self) -> usize {
        self.tags.iter().map(|t| t.transactions).sum()
    }

    /// Closed loop: completed transactions per poll sent — how often a poll
    /// turns into an acked delivery (1.0 when nothing sent yet).
    pub fn transaction_completion_rate(&self) -> f64 {
        let polls = self.polls();
        if polls == 0 {
            return 1.0;
        }
        self.completed_transactions() as f64 / polls as f64
    }

    /// Closed loop: completed transactions per simulated second.
    pub fn transactions_per_sec(&self) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.completed_transactions() as f64 / self.duration_s
    }

    /// Total carrier slots the schedulers granted.
    pub fn grants(&self) -> usize {
        self.tags.iter().map(|t| t.grants).sum()
    }

    /// Total grants that missed their scheduler deadline.
    pub fn deadline_misses(&self) -> usize {
        self.tags.iter().map(|t| t.deadline_misses).sum()
    }

    /// Deadline misses per grant (0 when nothing was granted, or for
    /// deadline-blind policies).
    pub fn deadline_miss_rate(&self) -> f64 {
        let grants = self.grants();
        if grants == 0 {
            return 0.0;
        }
        self.deadline_misses() as f64 / grants as f64
    }

    /// Jain's fairness index over per-tag delivered bits: 1 when every tag
    /// got the same throughput, → 1/n when one tag starved the rest.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.tags.iter().map(|t| t.delivered_bits as f64).collect();
        jain_index(&xs)
    }

    /// Jain's fairness index over per-tag *grants* — how evenly the
    /// scheduler spread slots, regardless of whether the attempts
    /// delivered (a margin-aware policy may be grant-unfair on purpose
    /// while a fade lasts; the starvation bound caps how unfair).
    pub fn grant_fairness(&self) -> f64 {
        let xs: Vec<f64> = self.tags.iter().map(|t| t.grants as f64).collect();
        jain_index(&xs)
    }

    /// Mirror-copy duty cycle at receiver `rx`: the fraction of airtime
    /// punctured by double-sideband mirror copies.
    pub fn mirror_duty(&self, rx: usize) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        self.mirror_airtime_s.get(rx).copied().unwrap_or(0.0) / self.duration_s
    }

    /// A plain-text report of the aggregates.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "tags {}  duration {:.1}s  offered {}  attempts {}  delivered {}\n",
            self.tags.len(),
            self.duration_s,
            self.offered_packets(),
            self.attempts(),
            self.delivered_packets(),
        ));
        out.push_str(&format!(
            "throughput {:.1} bit/s  PER {:.3}  delivery {:.3}  fairness {:.3}\n",
            self.throughput_bps(),
            self.per(),
            self.delivery_ratio(),
            self.jain_fairness(),
        ));
        if let (Some(p50), Some(p95)) = (self.latency_quantile(0.5), self.latency_quantile(0.95)) {
            out.push_str(&format!("latency p50 {p50:.2} ms  p95 {p95:.2} ms\n"));
        }
        if self.grants() > 0 {
            out.push_str(&format!(
                "scheduler: {} grants  grant fairness {:.3}",
                self.grants(),
                self.grant_fairness(),
            ));
            if let (Some(p50), Some(p95)) = (
                self.poll_latency_quantile(0.5),
                self.poll_latency_quantile(0.95),
            ) {
                out.push_str(&format!("  poll latency p50 {p50:.2} ms  p95 {p95:.2} ms"));
            }
            if self.deadline_misses() > 0 {
                out.push_str(&format!(
                    "  deadline misses {} (rate {:.3})",
                    self.deadline_misses(),
                    self.deadline_miss_rate(),
                ));
            }
            out.push('\n');
        }
        let collided: usize = self.tags.iter().map(|t| t.collided).sum();
        let external: usize = self.tags.iter().map(|t| t.external_collisions).sum();
        let link: usize = self.tags.iter().map(|t| t.link_losses).sum();
        let defers: usize = self.tags.iter().map(|t| t.csma_defers).sum();
        out.push_str(&format!(
            "losses: {collided} tag-tag, {external} external, {link} link; {defers} CSMA defers\n"
        ));
        if self.polls() > 0 {
            let poll_losses: usize = self.tags.iter().map(|t| t.poll_losses).sum();
            let timeouts: usize = self.tags.iter().map(|t| t.timeouts).sum();
            let ack_losses: usize = self.tags.iter().map(|t| t.ack_losses).sum();
            out.push_str(&format!(
                "closed loop: {} polls, {poll_losses} poll losses, {timeouts} timeouts, \
                 {ack_losses} ack losses, {} transactions (completion {:.3})\n",
                self.polls(),
                self.completed_transactions(),
                self.transaction_completion_rate(),
            ));
            if let (Some(p50), Some(p95)) = (
                self.transaction_quantile(0.5),
                self.transaction_quantile(0.95),
            ) {
                out.push_str(&format!(
                    "transaction span p50 {p50:.3} ms  p95 {p95:.3} ms\n"
                ));
            }
        }
        for (rx, _) in self
            .mirror_airtime_s
            .iter()
            .enumerate()
            .filter(|(_, &a)| a > 0.0)
        {
            out.push_str(&format!(
                "receiver {rx}: mirror-copy duty {:.4}\n",
                self.mirror_duty(rx)
            ));
        }
        if self.external_emissions() > 0 || self.restripes() > 0 {
            let defers: usize = self.coex_defers.iter().sum();
            out.push_str(&format!(
                "coex: {} external emissions ({:.3} s on air, {defers} defers), {} re-stripes\n",
                self.external_emissions(),
                self.external_airtime_s(),
                self.restripes(),
            ));
            if let (Some((quiet, _)), Some((busy, _))) = (
                self.prr_in_occupancy_band(0.0, 0.3),
                self.prr_in_occupancy_band(0.3, f64::INFINITY),
            ) {
                out.push_str(&format!(
                    "PRR under occupancy <0.3: {quiet:.3}  ≥0.3: {busy:.3}\n"
                ));
            }
        }
        let max_disp = self.max_displacement_m();
        if max_disp > 0.0 {
            out.push_str(&format!("mobility: max displacement {max_disp:.2} m"));
            let half = max_disp / 2.0;
            if let (Some((near, _)), Some((far, _))) = (
                self.prr_in_displacement_band(0.0, half),
                self.prr_in_displacement_band(half, f64::INFINITY),
            ) {
                out.push_str(&format!(
                    "  PRR near (<{half:.1} m) {near:.3}  far (≥{half:.1} m) {far:.3}"
                ));
            }
            out.push('\n');
        }
        out
    }
}

/// Pooled PRR of the `(key, attempts, delivered)` samples whose key falls
/// in `band`, with the attempts it is based on; `None` when none did.
fn pooled_prr(
    samples: impl Iterator<Item = (f64, usize, usize)>,
    band: Range<f64>,
) -> Option<(f64, usize)> {
    let in_band = samples.filter(|(key, ..)| band.contains(key));
    let (attempts, delivered) = in_band.fold((0, 0), |(a, d), (_, sa, sd)| (a + sa, d + sd));
    (attempts > 0).then(|| (delivered as f64 / attempts as f64, attempts))
}

/// Jain's fairness index of a sample set; 1.0 for empty or all-zero input.
pub fn jain_index(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n as f64 * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_from_tag_stats() {
        let mut m = NetworkMetrics::new(2, 1, 10.0);
        m.tags[0] = TagStats {
            offered: 10,
            delivered: 8,
            attempts: 10,
            collided: 1,
            link_losses: 1,
            delivered_bits: 8 * 248,
            ..Default::default()
        };
        m.tags[1] = TagStats {
            offered: 10,
            delivered: 8,
            attempts: 10,
            external_collisions: 2,
            delivered_bits: 8 * 248,
            ..Default::default()
        };
        assert_eq!(m.offered_packets(), 20);
        assert_eq!(m.delivered_packets(), 16);
        assert_eq!(m.attempts(), 20);
        assert!((m.per() - 0.2).abs() < 1e-12);
        assert!((m.delivery_ratio() - 0.8).abs() < 1e-12);
        assert!((m.throughput_bps() - 2.0 * 8.0 * 248.0 / 10.0).abs() < 1e-9);
        // Equal split → perfectly fair.
        assert!((m.jain_fairness() - 1.0).abs() < 1e-12);
        let report = m.report();
        assert!(report.contains("PER 0.200"));
        assert!(report.contains("fairness 1.000"));
    }

    #[test]
    fn fairness_detects_starvation() {
        assert!((jain_index(&[]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[0.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[5.0, 5.0, 5.0, 5.0]) - 1.0).abs() < 1e-12);
        // One tag hogs everything: index → 1/n.
        let hog = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((hog - 0.25).abs() < 1e-12);
        let skew = jain_index(&[4.0, 1.0]);
        assert!(skew < 0.8 && skew > 0.25 + 1e-12, "skew {skew}");
    }

    #[test]
    fn scheduler_metrics_aggregate() {
        let mut m = NetworkMetrics::new(3, 1, 10.0);
        m.tags[0] = TagStats {
            grants: 40,
            deadline_misses: 10,
            ..Default::default()
        };
        m.tags[1] = TagStats {
            grants: 40,
            ..Default::default()
        };
        m.tags[2] = TagStats {
            grants: 20,
            deadline_misses: 5,
            ..Default::default()
        };
        m.poll_latency_ms.push(2.0);
        m.poll_latency_ms.push(4.0);
        m.poll_latency_ms.push(6.0);
        assert_eq!(m.grants(), 100);
        assert_eq!(m.deadline_misses(), 15);
        assert!((m.deadline_miss_rate() - 0.15).abs() < 1e-12);
        // Jain over (40, 40, 20): (100²)/(3·3600) = 0.9259…
        assert!((m.grant_fairness() - 100.0 * 100.0 / (3.0 * 3600.0)).abs() < 1e-12);
        assert_eq!(m.poll_latency_ms.median(), Some(4.0));
        let report = m.report();
        assert!(report.contains("scheduler: 100 grants"), "{report}");
        assert!(
            report.contains("deadline misses 15 (rate 0.150)"),
            "{report}"
        );
        assert!(report.contains("poll latency p50 4.00 ms"), "{report}");
    }

    #[test]
    fn scheduler_metrics_empty_cases() {
        let empty = NetworkMetrics::default();
        assert_eq!(empty.grants(), 0);
        assert_eq!(empty.deadline_miss_rate(), 0.0);
        assert_eq!(empty.grant_fairness(), 1.0);
        assert!(!empty.report().contains("scheduler"));
        // Grants without misses keep the miss clause out of the report.
        let mut m = NetworkMetrics::new(1, 1, 1.0);
        m.tags[0].grants = 3;
        assert_eq!(m.deadline_miss_rate(), 0.0);
        assert!(m.report().contains("scheduler: 3 grants"));
        assert!(!m.report().contains("deadline misses"));
    }

    #[test]
    fn mirror_duty_and_empty_cases() {
        let mut m = NetworkMetrics::new(1, 2, 10.0);
        m.mirror_airtime_s[1] = 0.5;
        assert_eq!(m.mirror_duty(0), 0.0);
        assert!((m.mirror_duty(1) - 0.05).abs() < 1e-12);
        assert_eq!(m.mirror_duty(99), 0.0);

        let empty = NetworkMetrics::default();
        assert_eq!(empty.per(), 0.0);
        assert_eq!(empty.delivery_ratio(), 1.0);
        assert_eq!(empty.throughput_bps(), 0.0);
        assert_eq!(empty.jain_fairness(), 1.0);
    }

    #[test]
    fn mobility_series_aggregates_prr_by_displacement() {
        let mut m = NetworkMetrics::new(2, 1, 10.0);
        assert_eq!(m.max_displacement_m(), 0.0);
        assert!(m.prr_in_displacement_band(0.0, f64::INFINITY).is_none());
        assert!(!m.report().contains("mobility"));

        let sample = |d: f64, attempts: usize, delivered: usize| MobilitySample {
            at_s: 0.1,
            displacement_m: d,
            attempts,
            delivered,
        };
        m.mobility_series[0] = vec![sample(0.5, 4, 4), sample(3.0, 4, 1)];
        m.mobility_series[1] = vec![sample(1.0, 2, 2), sample(0.0, 0, 0)];
        assert_eq!(m.max_displacement_m(), 3.0);
        let (near, near_n) = m.prr_in_displacement_band(0.0, 1.5).unwrap();
        assert!((near - 1.0).abs() < 1e-12 && near_n == 6);
        let (far, far_n) = m.prr_in_displacement_band(1.5, f64::INFINITY).unwrap();
        assert!((far - 0.25).abs() < 1e-12 && far_n == 4);
        assert_eq!(sample(0.0, 0, 0).prr(), None);
        assert_eq!(sample(1.0, 4, 3).prr(), Some(0.75));
        let report = m.report();
        assert!(
            report.contains("mobility: max displacement 3.00 m"),
            "{report}"
        );
    }

    #[test]
    fn coex_series_aggregate_and_report() {
        let mut m = NetworkMetrics::new(2, 1, 10.0);
        assert_eq!(m.restripes(), 0);
        assert_eq!(m.external_emissions(), 0);
        assert!(m.peak_occupancy(0).is_none());
        assert!(m.prr_in_occupancy_band(0.0, 1.0).is_none());
        assert!(!m.report().contains("coex"));

        m.init_coex(2, 3);
        assert_eq!(m.occupancy_series.len(), 2);
        assert!(m.peak_occupancy(0).is_none(), "no samples yet");
        let sample = |occ: f64, attempts: usize, delivered: usize| OccupancySample {
            at_s: 1.0,
            subband: 0,
            occupancy: occ,
            attempts,
            delivered,
        };
        m.occupancy_series[0] = vec![sample(0.05, 10, 10), sample(0.6, 10, 3)];
        m.occupancy_series[1] = vec![sample(0.1, 4, 4)];
        assert_eq!(m.peak_occupancy(0), Some(0.6));
        assert_eq!(m.peak_occupancy(1), Some(0.1));
        let (quiet, quiet_n) = m.prr_in_occupancy_band(0.0, 0.3).unwrap();
        assert!((quiet - 1.0).abs() < 1e-12 && quiet_n == 14);
        let (busy, busy_n) = m.prr_in_occupancy_band(0.3, f64::INFINITY).unwrap();
        assert!((busy - 0.3).abs() < 1e-12 && busy_n == 10);

        m.coex_emissions = vec![100, 0, 5];
        m.coex_airtime_s = vec![0.4, 0.0, 0.1];
        m.coex_defers = vec![7, 0, 0];
        m.restripe_events.push(ReStripeEvent {
            at_s: 3.1,
            carrier: 1,
            from_subband: 1,
            to_subband: 0,
        });
        assert_eq!(m.external_emissions(), 105);
        assert!((m.external_airtime_s() - 0.5).abs() < 1e-12);
        assert_eq!(m.restripes(), 1);
        let report = m.report();
        assert!(
            report
                .contains("coex: 105 external emissions (0.500 s on air, 7 defers), 1 re-stripes"),
            "{report}"
        );
        assert!(
            report.contains("PRR under occupancy <0.3: 1.000"),
            "{report}"
        );
    }

    #[test]
    fn closed_loop_counters_aggregate() {
        let mut m = NetworkMetrics::new(2, 1, 10.0);
        m.tags[0] = TagStats {
            polls: 10,
            poll_losses: 2,
            timeouts: 1,
            ack_losses: 1,
            transactions: 6,
            transaction_ns: 6 * 600_000,
            ..Default::default()
        };
        m.tags[1] = TagStats {
            polls: 6,
            transactions: 6,
            transaction_ns: 6 * 500_000,
            ..Default::default()
        };
        assert_eq!(m.polls(), 16);
        assert_eq!(m.completed_transactions(), 12);
        assert!((m.transaction_completion_rate() - 12.0 / 16.0).abs() < 1e-12);
        assert!((m.transactions_per_sec() - 1.2).abs() < 1e-12);
        assert!((m.tags[0].mean_transaction_ms() - 0.6).abs() < 1e-12);
        assert_eq!(TagStats::default().mean_transaction_ms(), 0.0);
        let report = m.report();
        assert!(report.contains("closed loop: 16 polls"));
        assert!(report.contains("12 transactions"));
        // Open-loop metrics stay silent about the closed loop.
        assert!(!NetworkMetrics::new(1, 1, 1.0).report().contains("closed"));
    }
}
