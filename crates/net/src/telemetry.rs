//! Streaming telemetry: Iris-style subscriptions over the engine's event
//! stream, feeding **online sketches**. The run's exact, stored-sample
//! record stays in [`crate::metrics::NetworkMetrics`]; telemetry is an
//! optional second view of the same events, made of three pieces:
//!
//! * **[`Subscription`]** — a [`Filter`] predicate (per-tag set,
//!   per-carrier set, per-event-kind, time window) paired with a
//!   [`SinkSpec`]. Filters are compiled once per run into a per-event-kind
//!   dispatch mask, so the engine's hot path pays **one branch per emit
//!   site when nothing is subscribed** (the mask test) and only walks
//!   subscriptions whose mask bit matches.
//! * **Online sketches** — [`LatencySketch`] (a log-bucketed histogram
//!   with ≤ [`SKETCH_GAMMA`]·½ relative error per bucket), [`P2Quantile`]
//!   (the classic P² streaming quantile estimator, O(1) memory),
//!   [`RateRing`] (a windowed PRR/occupancy ring) and plain monotonic
//!   counters.
//! * **Progress** — a periodic one-line run status (sim-time, events
//!   processed, events per simulated second, live PRR, re-stripe count,
//!   live p99 poll latency from a P² estimator) for soak runs, collected
//!   deterministically and optionally mirrored to stderr as the run goes.
//!
//! Subscriptions never touch the RNG streams, the queue or the medium, so
//! attaching any number of them leaves the event trace **byte-identical**
//! (pinned by the `telemetry` integration tests).

use crate::time::Time;
use std::collections::BTreeMap;

/// Relative bucket width of [`LatencySketch`]: quantiles come back within
/// ±γ/2 ≈ 0.25 % of the exact stored-sample value (well inside the 1 %
/// acceptance bound the telemetry tests pin on `congested_ward`).
pub const SKETCH_GAMMA: f64 = 0.005;

/// What a telemetry event describes. Each kind owns one bit of the
/// dispatch mask; [`TelemetryKind::COUNT`] kinds exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
pub enum TelemetryKind {
    /// A tag's application offered a packet.
    Offered = 0,
    /// A packet was dropped (queue overflow or retry budget exhausted).
    Dropped = 1,
    /// A carrier granted its slot to a tag.
    Grant = 2,
    /// An uplink transmission attempt completed (any outcome).
    Attempt = 3,
    /// An uplink packet was delivered end to end.
    Delivery = 4,
    /// An uplink attempt was lost (collision, external traffic or link
    /// budget).
    Loss = 5,
    /// A closed-loop poll → response → ack transaction completed.
    Transaction = 6,
    /// A carrier re-tuned itself (and its tags) to another sub-band.
    Restripe = 7,
    /// A carrier recorded an occupancy sample on its own stripe.
    Occupancy = 8,
}

impl TelemetryKind {
    /// Number of event kinds (= dispatch-mask width in bits).
    pub const COUNT: usize = 9;

    /// All kinds, in bit order.
    pub const ALL: [TelemetryKind; TelemetryKind::COUNT] = [
        TelemetryKind::Offered,
        TelemetryKind::Dropped,
        TelemetryKind::Grant,
        TelemetryKind::Attempt,
        TelemetryKind::Delivery,
        TelemetryKind::Loss,
        TelemetryKind::Transaction,
        TelemetryKind::Restripe,
        TelemetryKind::Occupancy,
    ];

    /// This kind's bit in a dispatch mask.
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Human-readable label (counter reports and docs).
    pub fn label(self) -> &'static str {
        match self {
            TelemetryKind::Offered => "offered",
            TelemetryKind::Dropped => "dropped",
            TelemetryKind::Grant => "grant",
            TelemetryKind::Attempt => "attempt",
            TelemetryKind::Delivery => "delivery",
            TelemetryKind::Loss => "loss",
            TelemetryKind::Transaction => "transaction",
            TelemetryKind::Restripe => "restripe",
            TelemetryKind::Occupancy => "occupancy",
        }
    }
}

/// Why an uplink attempt was lost (the [`TelemetryKind::Loss`] payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossKind {
    /// Lost to the fleet's own contention (capture failed).
    Collision,
    /// Lost to external coexistence traffic.
    External,
    /// Lost to the link budget (shadowed RSSI under sensitivity).
    LinkBudget,
}

/// One observation the engine emits into the subscription layer. Events
/// are tiny `Copy` values; the engine only constructs one after the
/// dispatch mask says somebody is listening.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TelemetryEvent {
    /// A packet arrival ([`TelemetryKind::Offered`]).
    Offered {
        /// The offering tag.
        tag: usize,
    },
    /// A packet drop ([`TelemetryKind::Dropped`]).
    Dropped {
        /// The dropping tag.
        tag: usize,
    },
    /// A granted carrier slot ([`TelemetryKind::Grant`]).
    Grant {
        /// The granted tag.
        tag: usize,
        /// The granting carrier.
        carrier: usize,
        /// How long the head packet waited in queue, nanoseconds.
        waited_ns: u64,
    },
    /// A completed uplink attempt ([`TelemetryKind::Attempt`]).
    Attempt {
        /// The transmitting tag.
        tag: usize,
    },
    /// An end-to-end delivery ([`TelemetryKind::Delivery`]).
    Delivery {
        /// The delivering tag.
        tag: usize,
        /// Arrival → delivery latency, nanoseconds.
        latency_ns: u64,
        /// Application bits delivered.
        bits: usize,
    },
    /// A lost uplink attempt ([`TelemetryKind::Loss`]).
    Loss {
        /// The losing tag.
        tag: usize,
        /// What ate the attempt.
        loss: LossKind,
    },
    /// A completed closed-loop transaction ([`TelemetryKind::Transaction`]).
    Transaction {
        /// The tag whose transaction completed.
        tag: usize,
        /// Poll start → ack decode span, nanoseconds.
        span_ns: u64,
    },
    /// An adaptive re-stripe ([`TelemetryKind::Restripe`]).
    Restripe {
        /// The re-tuning carrier.
        carrier: usize,
        /// The stripe it left.
        from_subband: usize,
        /// The stripe it re-tuned to.
        to_subband: usize,
    },
    /// An occupancy sample ([`TelemetryKind::Occupancy`]).
    Occupancy {
        /// The sensing carrier.
        carrier: usize,
        /// Its current stripe.
        subband: usize,
        /// Its EWMA busy estimate on its own channel, in [0, 1].
        occupancy: f64,
    },
}

impl TelemetryEvent {
    /// The event's kind (its dispatch-mask bit).
    pub fn kind(&self) -> TelemetryKind {
        match self {
            TelemetryEvent::Offered { .. } => TelemetryKind::Offered,
            TelemetryEvent::Dropped { .. } => TelemetryKind::Dropped,
            TelemetryEvent::Grant { .. } => TelemetryKind::Grant,
            TelemetryEvent::Attempt { .. } => TelemetryKind::Attempt,
            TelemetryEvent::Delivery { .. } => TelemetryKind::Delivery,
            TelemetryEvent::Loss { .. } => TelemetryKind::Loss,
            TelemetryEvent::Transaction { .. } => TelemetryKind::Transaction,
            TelemetryEvent::Restripe { .. } => TelemetryKind::Restripe,
            TelemetryEvent::Occupancy { .. } => TelemetryKind::Occupancy,
        }
    }

    /// The tag the event concerns, if any.
    pub fn tag(&self) -> Option<usize> {
        match *self {
            TelemetryEvent::Offered { tag }
            | TelemetryEvent::Dropped { tag }
            | TelemetryEvent::Grant { tag, .. }
            | TelemetryEvent::Attempt { tag }
            | TelemetryEvent::Delivery { tag, .. }
            | TelemetryEvent::Loss { tag, .. }
            | TelemetryEvent::Transaction { tag, .. } => Some(tag),
            TelemetryEvent::Restripe { .. } | TelemetryEvent::Occupancy { .. } => None,
        }
    }

    /// The carrier the event concerns, if any.
    pub fn carrier(&self) -> Option<usize> {
        match *self {
            TelemetryEvent::Grant { carrier, .. }
            | TelemetryEvent::Restripe { carrier, .. }
            | TelemetryEvent::Occupancy { carrier, .. } => Some(carrier),
            _ => None,
        }
    }
}

/// A subscription's predicate over the event stream. Every axis is
/// optional; an empty filter matches everything the sink consumes.
/// Entity axes only constrain events that carry that entity (an
/// [`TelemetryEvent::Occupancy`] sample has no tag, so a tag filter
/// ignores it rather than rejecting it).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    /// Restrict to these tag indices (`None` = all tags).
    pub tags: Option<Vec<usize>>,
    /// Restrict to these carrier indices (`None` = all carriers).
    pub carriers: Option<Vec<usize>>,
    /// Restrict to these event kinds (`None` = every kind the sink
    /// consumes).
    pub kinds: Option<Vec<TelemetryKind>>,
    /// Restrict to events in `[start_s, end_s)` of simulated time.
    pub window_s: Option<(f64, f64)>,
}

impl Filter {
    /// The match-everything filter.
    pub fn all() -> Filter {
        Filter::default()
    }

    /// Restricts the filter to the given tags.
    pub fn tags(mut self, tags: impl IntoIterator<Item = usize>) -> Filter {
        self.tags = Some(tags.into_iter().collect());
        self
    }

    /// Restricts the filter to the given carriers.
    pub fn carriers(mut self, carriers: impl IntoIterator<Item = usize>) -> Filter {
        self.carriers = Some(carriers.into_iter().collect());
        self
    }

    /// Restricts the filter to the given event kinds.
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = TelemetryKind>) -> Filter {
        self.kinds = Some(kinds.into_iter().collect());
        self
    }

    /// Restricts the filter to `[start_s, end_s)` of simulated time.
    pub fn window(mut self, start_s: f64, end_s: f64) -> Filter {
        self.window_s = Some((start_s, end_s));
        self
    }

    /// Validates the filter against the scenario's entity counts.
    pub fn validate(&self, n_tags: usize, n_carriers: usize) -> Result<(), String> {
        if let Some(tags) = &self.tags {
            if let Some(&bad) = tags.iter().find(|&&t| t >= n_tags) {
                return Err(format!("tag index {bad} out of range ({n_tags} tags)"));
            }
        }
        if let Some(carriers) = &self.carriers {
            if let Some(&bad) = carriers.iter().find(|&&c| c >= n_carriers) {
                return Err(format!(
                    "carrier index {bad} out of range ({n_carriers} carriers)"
                ));
            }
        }
        if let Some((start, end)) = self.window_s {
            if !(start >= 0.0 && end > start) {
                return Err(format!("window [{start}, {end}) is not a forward interval"));
            }
        }
        Ok(())
    }

    /// The kind mask this filter admits (before intersecting with the
    /// sink's own interest mask).
    fn kind_mask(&self) -> u32 {
        match &self.kinds {
            None => (1 << TelemetryKind::COUNT) - 1,
            Some(kinds) => kinds.iter().fold(0, |m, k| m | k.bit()),
        }
    }
}

/// Which sample stream a [`SinkSpec::Quantiles`] sketch tracks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Arrival → delivery latency, milliseconds
    /// ([`TelemetryEvent::Delivery`]).
    DeliveryLatencyMs,
    /// Poll start → ack decode span, milliseconds
    /// ([`TelemetryEvent::Transaction`]).
    TransactionLatencyMs,
    /// Head-of-queue wait before a grant, milliseconds
    /// ([`TelemetryEvent::Grant`]).
    PollLatencyMs,
}

impl Dataset {
    /// The event kind feeding this dataset.
    pub fn source_kind(self) -> TelemetryKind {
        match self {
            Dataset::DeliveryLatencyMs => TelemetryKind::Delivery,
            Dataset::TransactionLatencyMs => TelemetryKind::Transaction,
            Dataset::PollLatencyMs => TelemetryKind::Grant,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            Dataset::DeliveryLatencyMs => "delivery latency",
            Dataset::TransactionLatencyMs => "transaction latency",
            Dataset::PollLatencyMs => "poll latency",
        }
    }
}

/// What a subscription does with its matched events.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkSpec {
    /// Stream one [`Dataset`] into a [`LatencySketch`]: online quantiles
    /// in O(log-buckets) memory.
    Quantiles(Dataset),
    /// A windowed PRR ring over [`TelemetryEvent::Attempt`] /
    /// [`TelemetryEvent::Delivery`]: live packet-reception ratio over the
    /// trailing window, plus the worst window the run ever saw.
    WindowedPrr {
        /// Window length, simulated seconds.
        window_s: f64,
    },
    /// A windowed occupancy ring over [`TelemetryEvent::Occupancy`]:
    /// mean sensed occupancy over the trailing window, plus the peak.
    WindowedOccupancy {
        /// Window length, simulated seconds.
        window_s: f64,
    },
    /// Monotonic per-kind counters of every matched event.
    Counters,
}

impl SinkSpec {
    /// The kinds this sink consumes (intersected with the filter's kinds
    /// into the subscription's dispatch mask).
    fn interest_mask(&self) -> u32 {
        match self {
            SinkSpec::Quantiles(data) => data.source_kind().bit(),
            SinkSpec::WindowedPrr { .. } => {
                TelemetryKind::Attempt.bit() | TelemetryKind::Delivery.bit()
            }
            SinkSpec::WindowedOccupancy { .. } => TelemetryKind::Occupancy.bit(),
            SinkSpec::Counters => (1 << TelemetryKind::COUNT) - 1,
        }
    }

    /// Validates sink parameters.
    fn validate(&self) -> Result<(), String> {
        match self {
            SinkSpec::WindowedPrr { window_s } | SinkSpec::WindowedOccupancy { window_s } => {
                if !crate::scenario::positive_finite(*window_s) {
                    return Err(format!("window {window_s} s must be positive and finite"));
                }
            }
            SinkSpec::Quantiles(_) | SinkSpec::Counters => {}
        }
        Ok(())
    }
}

/// One registered subscription: a name (for reports), a filter and a sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Report label.
    pub name: String,
    /// Which events reach the sink.
    pub filter: Filter,
    /// What the sink does with them.
    pub sink: SinkSpec,
}

impl Subscription {
    /// Builds a subscription.
    pub fn new(name: impl Into<String>, filter: Filter, sink: SinkSpec) -> Subscription {
        Subscription {
            name: name.into(),
            filter,
            sink,
        }
    }
}

/// The scenario-attached telemetry configuration: subscriptions and the
/// optional soak-run progress cadence.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TelemetryConfig {
    /// Registered subscriptions (empty = the dispatch mask is 0 and the
    /// engine pays one dead branch per emit site).
    pub subscriptions: Vec<Subscription>,
    /// Emit a one-line progress status every this many simulated seconds
    /// (`None` = no progress output).
    pub progress_every_s: Option<f64>,
    /// Mirror progress lines to stderr as the run executes (the collected
    /// lines are always returned in the report either way).
    pub live_progress: bool,
}

impl TelemetryConfig {
    /// An empty config (no subscriptions, no progress).
    pub fn new() -> TelemetryConfig {
        TelemetryConfig::default()
    }

    /// Adds a subscription.
    pub fn subscribe(mut self, sub: Subscription) -> TelemetryConfig {
        self.subscriptions.push(sub);
        self
    }

    /// Enables periodic progress lines.
    pub fn with_progress(mut self, every_s: f64) -> TelemetryConfig {
        self.progress_every_s = Some(every_s);
        self
    }

    /// Mirrors progress lines to stderr while the run executes.
    pub fn live(mut self) -> TelemetryConfig {
        self.live_progress = true;
        self
    }

    /// Validates the whole config against the scenario's entity counts.
    pub fn validate(&self, n_tags: usize, n_carriers: usize) -> Result<(), String> {
        for (i, sub) in self.subscriptions.iter().enumerate() {
            sub.filter
                .validate(n_tags, n_carriers)
                .map_err(|e| format!("subscription {i} ({}): {e}", sub.name))?;
            sub.sink
                .validate()
                .map_err(|e| format!("subscription {i} ({}): {e}", sub.name))?;
        }
        if let Some(every) = self.progress_every_s {
            if !crate::scenario::positive_finite(every) {
                return Err(format!(
                    "progress cadence {every} s must be positive and finite"
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Online sketches
// ---------------------------------------------------------------------------

/// A streaming-quantile sketch: log-bucketed counts with
/// relative bucket width [`SKETCH_GAMMA`], so any quantile comes back
/// within ±γ/2 of the exact stored-sample answer regardless of how many
/// samples streamed through. Memory is O(distinct buckets) — about 1.9 k
/// buckets span 1 µs to 10⁵ ms — independent of sample count.
///
/// The quantile definition matches
/// [`interscatter_sim::measurements::Cdf::quantile`] (nearest rank on
/// `round((n−1)·q)`), so stored-vs-streamed comparisons differ only by the
/// bucket width.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencySketch {
    buckets: BTreeMap<i32, u64>,
    /// Samples ≤ 0 (their own bucket: log has no home for them).
    zeros: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LatencySketch {
    /// An empty sketch.
    pub fn new() -> LatencySketch {
        LatencySketch::default()
    }

    /// Streams one sample in.
    pub fn add(&mut self, value: f64) {
        if self.count == 0 {
            (self.min, self.max) = (value, value);
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value <= 0.0 {
            self.zeros += 1;
        } else {
            let bucket = (value.ln() / (1.0 + SKETCH_GAMMA).ln()).floor() as i32;
            *self.buckets.entry(bucket).or_insert(0) += 1;
        }
    }

    /// Number of samples streamed in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing streamed in yet.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean of the streamed samples (exact; `None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest and largest sample (exact; `None` when empty).
    pub fn range(&self) -> Option<(f64, f64)> {
        (self.count > 0).then_some((self.min, self.max))
    }

    /// The `q`-quantile, within ±[`SKETCH_GAMMA`]/2 relative error
    /// (`None` when empty). Nearest-rank on `round((n−1)·q)`, like the
    /// stored-sample `Cdf`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((self.count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        if rank < self.zeros {
            return Some(self.min.min(0.0));
        }
        let mut seen = self.zeros;
        for (&bucket, &n) in &self.buckets {
            seen += n;
            if seen > rank {
                // Geometric bucket midpoint, clamped to the exact range.
                let mid = (1.0 + SKETCH_GAMMA).powi(bucket) * (1.0 + SKETCH_GAMMA).sqrt();
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// The median (`quantile(0.5)`).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

/// The classic P² streaming quantile estimator (Jain & Chlamtac 1985):
/// five markers track one quantile in O(1) memory and O(1) time per
/// sample. Used for *live* tail tracking (the progress line's p99 poll
/// latency); [`LatencySketch`] is the subscription reporting path.
#[derive(Debug, Clone, PartialEq)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights (the first `seen` entries are raw samples until
    /// five arrive).
    heights: [f64; 5],
    /// Marker positions (1-based ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per sample.
    increments: [f64; 5],
    seen: usize,
}

impl P2Quantile {
    /// An estimator for the `q`-quantile.
    pub fn new(q: f64) -> P2Quantile {
        let q = q.clamp(0.0, 1.0);
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            seen: 0,
        }
    }

    /// Streams one sample in.
    pub fn add(&mut self, value: f64) {
        if self.seen < 5 {
            self.heights[self.seen] = value;
            self.seen += 1;
            if self.seen == 5 {
                // total_cmp: identical order for the finite samples the
                // sketches feed in, but a consistent comparator under NaN.
                self.heights.sort_by(f64::total_cmp);
            }
            return;
        }
        // Find the cell the sample falls into and bump marker positions.
        let k = if value < self.heights[0] {
            self.heights[0] = value;
            0
        } else if value >= self.heights[4] {
            self.heights[4] = value;
            3
        } else {
            (1..5)
                .find(|&i| value < self.heights[i])
                .map(|i| i - 1)
                .unwrap_or(3)
        };
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }
        // Adjust the three interior markers toward their desired ranks.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let below = self.positions[i] - self.positions[i - 1];
            let above = self.positions[i + 1] - self.positions[i];
            if (d >= 1.0 && above > 1.0) || (d <= -1.0 && below > 1.0) {
                let sign = d.signum();
                let parabolic = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < parabolic && parabolic < self.heights[i + 1] {
                        parabolic
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
        self.seen += 1;
    }

    fn parabolic(&self, i: usize, sign: f64) -> f64 {
        let (p, h) = (&self.positions, &self.heights);
        h[i] + sign / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, sign: f64) -> f64 {
        let j = if sign > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + sign * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current estimate (`None` before any sample; exact while fewer
    /// than five samples arrived).
    pub fn estimate(&self) -> Option<f64> {
        match self.seen {
            0 => None,
            n @ 1..=4 => {
                let mut head: Vec<f64> = self.heights[..n].to_vec();
                head.sort_by(f64::total_cmp);
                let idx = ((n - 1) as f64 * self.q).round() as usize;
                Some(head[idx])
            }
            _ => Some(self.heights[2]),
        }
    }

    /// Samples streamed in.
    pub fn count(&self) -> usize {
        self.seen
    }
}

/// A windowed rate ring: the trailing window is split into
/// [`RateRing::SLOTS`] sub-windows of equal simulated time, each holding
/// an (attempts, delivered) pair — O(1) memory however long the run.
/// Advancing is driven by event timestamps, so it is deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct RateRing {
    slot_ns: u64,
    slots: Vec<(u64, u64)>,
    /// Index of the slot `cursor_start` opens.
    cursor: usize,
    /// Start time of the cursor slot.
    cursor_start: u64,
    /// Worst full-window PRR observed at any slot rollover.
    worst: Option<f64>,
}

impl RateRing {
    /// Sub-windows per ring.
    pub const SLOTS: usize = 16;

    /// A ring covering `window_s` trailing simulated seconds.
    pub fn new(window_s: f64) -> RateRing {
        let slot_ns = (Time::from_secs(window_s).as_nanos() / Self::SLOTS as u64).max(1);
        RateRing {
            slot_ns,
            slots: vec![(0, 0); Self::SLOTS],
            cursor: 0,
            cursor_start: 0,
            worst: None,
        }
    }

    /// Rolls the cursor forward to cover `at`, retiring expired slots.
    fn roll(&mut self, at: Time) {
        let now = at.as_nanos();
        while now >= self.cursor_start + self.slot_ns {
            // A full window just closed behind the cursor: remember the
            // worst PRR any window position ever showed.
            if let Some(prr) = self.rate() {
                self.worst = Some(self.worst.map_or(prr, |w| w.min(prr)));
            }
            self.cursor = (self.cursor + 1) % Self::SLOTS;
            self.cursor_start += self.slot_ns;
            self.slots[self.cursor] = (0, 0);
        }
    }

    /// Records `attempts` attempts at `at`.
    pub fn attempt(&mut self, at: Time) {
        self.roll(at);
        self.slots[self.cursor].0 += 1;
    }

    /// Records a delivery at `at`.
    pub fn delivered(&mut self, at: Time) {
        self.roll(at);
        self.slots[self.cursor].1 += 1;
    }

    /// Records an arbitrary numerator/denominator pair at `at` (the
    /// occupancy ring records occupancy‰ over samples this way).
    pub fn record(&mut self, at: Time, num: u64, den: u64) {
        self.roll(at);
        self.slots[self.cursor].0 += den;
        self.slots[self.cursor].1 += num;
    }

    /// The rate over the trailing window (`None` while the window is
    /// empty): delivered / attempts for the PRR ring.
    pub fn rate(&self) -> Option<f64> {
        let (attempts, delivered) = self
            .slots
            .iter()
            .fold((0u64, 0u64), |(a, d), &(sa, sd)| (a + sa, d + sd));
        (attempts > 0).then(|| delivered as f64 / attempts as f64)
    }

    /// The worst windowed rate seen at any slot rollover (`None` until a
    /// window has both filled and rolled).
    pub fn worst(&self) -> Option<f64> {
        self.worst
    }
}

// ---------------------------------------------------------------------------
// Runtime: compiled filters + sink state
// ---------------------------------------------------------------------------

/// A filter compiled against one scenario: index sets become bit vectors,
/// window bounds become integer nanoseconds, and the kind axis is folded
/// into the subscription's dispatch mask.
#[derive(Debug, Clone)]
struct CompiledFilter {
    tags: Option<Vec<bool>>,
    carriers: Option<Vec<bool>>,
    window: Option<(Time, Time)>,
}

impl CompiledFilter {
    fn compile(filter: &Filter, n_tags: usize, n_carriers: usize) -> CompiledFilter {
        let to_mask = |indices: &Vec<usize>, n: usize| {
            let mut mask = vec![false; n];
            for &i in indices {
                if i < n {
                    mask[i] = true;
                }
            }
            mask
        };
        CompiledFilter {
            tags: filter.tags.as_ref().map(|t| to_mask(t, n_tags)),
            carriers: filter.carriers.as_ref().map(|c| to_mask(c, n_carriers)),
            window: filter
                .window_s
                .map(|(s, e)| (Time::from_secs(s), Time::from_secs(e))),
        }
    }

    #[inline]
    fn matches(&self, at: Time, event: &TelemetryEvent) -> bool {
        if let Some((start, end)) = self.window {
            if at < start || at >= end {
                return false;
            }
        }
        if let Some(tags) = &self.tags {
            if let Some(tag) = event.tag() {
                if !tags.get(tag).copied().unwrap_or(false) {
                    return false;
                }
            }
        }
        if let Some(carriers) = &self.carriers {
            if let Some(carrier) = event.carrier() {
                if !carriers.get(carrier).copied().unwrap_or(false) {
                    return false;
                }
            }
        }
        true
    }
}

/// One subscription's live state.
#[derive(Debug, Clone)]
enum SinkState {
    Quantiles {
        data: Dataset,
        sketch: LatencySketch,
    },
    WindowedPrr {
        ring: RateRing,
    },
    WindowedOccupancy {
        ring: RateRing,
        peak: f64,
    },
    Counters {
        counts: [u64; TelemetryKind::COUNT],
    },
}

impl SinkState {
    fn build(spec: &SinkSpec) -> SinkState {
        match spec {
            SinkSpec::Quantiles(data) => SinkState::Quantiles {
                data: *data,
                sketch: LatencySketch::new(),
            },
            SinkSpec::WindowedPrr { window_s } => SinkState::WindowedPrr {
                ring: RateRing::new(*window_s),
            },
            SinkSpec::WindowedOccupancy { window_s } => SinkState::WindowedOccupancy {
                ring: RateRing::new(*window_s),
                peak: 0.0,
            },
            SinkSpec::Counters => SinkState::Counters {
                counts: [0; TelemetryKind::COUNT],
            },
        }
    }

    fn consume(&mut self, at: Time, event: &TelemetryEvent) {
        match self {
            SinkState::Quantiles { data, sketch } => {
                let sample_ms = match (*data, event) {
                    (Dataset::DeliveryLatencyMs, TelemetryEvent::Delivery { latency_ns, .. }) => {
                        Some(*latency_ns as f64 / 1e6)
                    }
                    (
                        Dataset::TransactionLatencyMs,
                        TelemetryEvent::Transaction { span_ns, .. },
                    ) => Some(*span_ns as f64 / 1e6),
                    (Dataset::PollLatencyMs, TelemetryEvent::Grant { waited_ns, .. }) => {
                        Some(*waited_ns as f64 / 1e6)
                    }
                    _ => None,
                };
                if let Some(ms) = sample_ms {
                    sketch.add(ms);
                }
            }
            SinkState::WindowedPrr { ring } => match event {
                TelemetryEvent::Attempt { .. } => ring.attempt(at),
                TelemetryEvent::Delivery { .. } => ring.delivered(at),
                _ => {}
            },
            SinkState::WindowedOccupancy { ring, peak } => {
                if let TelemetryEvent::Occupancy { occupancy, .. } = event {
                    // Per-mille resolution keeps the ring integral, and
                    // so deterministic.
                    ring.record(at, (occupancy * 1000.0).round() as u64, 1000);
                    *peak = peak.max(*occupancy);
                }
            }
            SinkState::Counters { counts } => {
                counts[event.kind() as usize] += 1;
            }
        }
    }

    fn report(&self) -> SinkReport {
        match self {
            SinkState::Quantiles { data, sketch } => SinkReport::Quantiles {
                data: *data,
                sketch: sketch.clone(),
            },
            SinkState::WindowedPrr { ring } => SinkReport::WindowedPrr {
                last: ring.rate(),
                worst: ring.worst(),
            },
            SinkState::WindowedOccupancy { ring, peak } => SinkReport::WindowedOccupancy {
                last: ring.rate(),
                peak: *peak,
            },
            SinkState::Counters { counts } => SinkReport::Counters { counts: *counts },
        }
    }
}

/// What one subscription's sink reduced its matched events to.
#[derive(Debug, Clone, PartialEq)]
pub enum SinkReport {
    /// Quantile sketch results (the sketch itself is returned so callers
    /// can query any quantile).
    Quantiles {
        /// The dataset tracked.
        data: Dataset,
        /// The sketch.
        sketch: LatencySketch,
    },
    /// Windowed PRR results.
    WindowedPrr {
        /// PRR over the final trailing window.
        last: Option<f64>,
        /// Worst trailing-window PRR the run saw.
        worst: Option<f64>,
    },
    /// Windowed occupancy results.
    WindowedOccupancy {
        /// Mean occupancy over the final trailing window.
        last: Option<f64>,
        /// Peak instantaneous occupancy sample.
        peak: f64,
    },
    /// Monotonic event counters, indexed by [`TelemetryKind`].
    Counters {
        /// Matched events per kind.
        counts: [u64; TelemetryKind::COUNT],
    },
}

impl SinkReport {
    /// One-line summary for reports.
    pub fn render(&self) -> String {
        match self {
            SinkReport::Quantiles { data, sketch } => {
                if sketch.is_empty() {
                    format!("{}: no samples", data.label())
                } else {
                    format!(
                        "{}: n {}  mean {:.3} ms  p50 {:.3}  p90 {:.3}  p99 {:.3} ms",
                        data.label(),
                        sketch.count(),
                        sketch.mean().unwrap_or(0.0),
                        sketch.quantile(0.5).unwrap_or(0.0),
                        sketch.quantile(0.9).unwrap_or(0.0),
                        sketch.quantile(0.99).unwrap_or(0.0),
                    )
                }
            }
            SinkReport::WindowedPrr { last, worst } => format!(
                "windowed PRR: last {}  worst {}",
                last.map_or("—".into(), |p| format!("{p:.3}")),
                worst.map_or("—".into(), |p| format!("{p:.3}")),
            ),
            SinkReport::WindowedOccupancy { last, peak } => format!(
                "windowed occupancy: last {}  peak {peak:.3}",
                last.map_or("—".into(), |o| format!("{o:.3}")),
            ),
            SinkReport::Counters { counts } => {
                let parts: Vec<String> = TelemetryKind::ALL
                    .iter()
                    .filter(|k| counts[**k as usize] > 0)
                    .map(|k| format!("{} {}", k.label(), counts[*k as usize]))
                    .collect();
                if parts.is_empty() {
                    "counters: none matched".into()
                } else {
                    format!("counters: {}", parts.join("  "))
                }
            }
        }
    }
}

/// One subscription's final result.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionReport {
    /// The subscription's name.
    pub name: String,
    /// What its sink reduced to.
    pub report: SinkReport,
}

/// Everything the telemetry layer produced over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetryReport {
    /// Engine events processed (every queue pop, including the horizon).
    pub events: u64,
    /// Per-subscription results, in registration order.
    pub subscriptions: Vec<SubscriptionReport>,
    /// Collected progress lines (empty unless a cadence was configured).
    pub progress: Vec<String>,
}

impl TelemetryReport {
    /// A plain-text rendering: the collected progress lines (in emission
    /// order), then each subscription's result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.progress {
            out.push_str(line);
            out.push('\n');
        }
        for sub in &self.subscriptions {
            out.push_str(&format!("[{}] {}\n", sub.name, sub.report.render()));
        }
        out
    }
}

struct SubRuntime {
    name: String,
    mask: u32,
    filter: CompiledFilter,
    state: SinkState,
}

/// The per-run telemetry engine: compiled subscriptions plus the global
/// dispatch mask. Owned by the engine core behind [`crate::run`]; the hot
/// path asks [`TelemetryRuntime::wants`] (one mask test) before
/// constructing an event.
pub struct TelemetryRuntime {
    mask: u32,
    subs: Vec<SubRuntime>,
    events: u64,
}

impl TelemetryRuntime {
    /// Compiles `config` against the scenario's entity counts.
    pub fn new(config: &TelemetryConfig, n_tags: usize, n_carriers: usize) -> TelemetryRuntime {
        let subs: Vec<SubRuntime> = config
            .subscriptions
            .iter()
            .map(|sub| SubRuntime {
                name: sub.name.clone(),
                mask: sub.filter.kind_mask() & sub.sink.interest_mask(),
                filter: CompiledFilter::compile(&sub.filter, n_tags, n_carriers),
                state: SinkState::build(&sub.sink),
            })
            .collect();
        let mask = subs.iter().fold(0, |m, s| m | s.mask);
        TelemetryRuntime {
            mask,
            subs,
            events: 0,
        }
    }

    /// Whether any subscription consumes `kind` — the one-branch gate the
    /// engine pays per emit site when nothing is subscribed (mask == 0).
    #[inline]
    pub fn wants(&self, kind: TelemetryKind) -> bool {
        self.mask & kind.bit() != 0
    }

    /// Dispatches an event to every matching subscription. Call only
    /// after [`TelemetryRuntime::wants`] said yes (the engine idiom is
    /// `if tele.wants(K) { tele.emit(at, &event) }`).
    pub fn emit(&mut self, at: Time, event: &TelemetryEvent) {
        let bit = event.kind().bit();
        for sub in &mut self.subs {
            if sub.mask & bit != 0 && sub.filter.matches(at, event) {
                sub.state.consume(at, event);
            }
        }
    }

    /// Counts one processed engine event (the progress line's event rate).
    #[inline]
    pub fn tick_event(&mut self) {
        self.events += 1;
    }

    /// Engine events processed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Finalizes into the run's [`TelemetryReport`] (progress lines are
    /// appended by the engine).
    pub fn finish(self, progress: Vec<String>) -> TelemetryReport {
        TelemetryReport {
            events: self.events,
            subscriptions: self
                .subs
                .iter()
                .map(|s| SubscriptionReport {
                    name: s.name.clone(),
                    report: s.state.report(),
                })
                .collect(),
            progress,
        }
    }
}

/// The soak-run progress emitter: one deterministic status line every
/// `every_s` simulated seconds — sim-time, events processed, events per
/// simulated second, live PRR, re-stripe count and a live p99
/// poll-latency estimate from a [`P2Quantile`]. Lines are collected into
/// the report; with `live` they are also mirrored to stderr as the run
/// executes (stderr so digest-checked stdout stays clean).
pub struct ProgressRuntime {
    period: u64,
    next: Time,
    live: bool,
    /// Live p99 poll-latency estimator (fed on every grant).
    pub p2_poll_ms: P2Quantile,
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
            p2_poll_ms: P2Quantile::new(0.99),
            lines: Vec::new(),
        }
    }

    /// Whether a status line is due at `at`.
    #[inline]
    pub fn due(&self, at: Time) -> bool {
        at >= self.next
    }

    /// Emits the status line for the period(s) covering `at`.
    #[allow(clippy::too_many_arguments)]
    pub fn emit(
        &mut self,
        at: Time,
        events: u64,
        attempts: usize,
        delivered: usize,
        restripes: usize,
    ) {
        // Catch up over idle gaps without emitting duplicate lines.
        while self.next <= at {
            self.next = Time(self.next.as_nanos() + self.period);
        }
        let t_s = at.as_secs();
        let rate = if t_s > 0.0 { events as f64 / t_s } else { 0.0 };
        let prr = if attempts > 0 {
            format!("{:.3}", delivered as f64 / attempts as f64)
        } else {
            "—".into()
        };
        let p99 = self
            .p2_poll_ms
            .estimate()
            .map_or("—".into(), |v| format!("{v:.2} ms"));
        let line = format!(
            "[progress] t={t_s:.1}s events={events} ev/sim-s={rate:.0} prr={prr} \
             restripes={restripes} poll-p99≈{p99}"
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

    #[test]
    fn sketch_tracks_quantiles_within_gamma() {
        use interscatter_sim::measurements::Cdf;
        // A deterministic heavy-tailed-ish stream vs the exact Cdf.
        let mut sketch = LatencySketch::new();
        let mut cdf = Cdf::new();
        let mut x = 0.37f64;
        for _ in 0..50_000 {
            // A fixed-point chaotic map spreads samples over ~3 decades.
            x = (x * 997.0 + 0.123).rem_euclid(1.0);
            let v = 0.1 + 1000.0 * x * x;
            sketch.add(v);
            cdf.push(v);
        }
        assert_eq!(sketch.count(), 50_000);
        for q in [0.1, 0.5, 0.9, 0.99, 0.999] {
            let exact = cdf.quantile(q).unwrap();
            let approx = sketch.quantile(q).unwrap();
            let rel = (approx - exact).abs() / exact;
            assert!(rel < 0.01, "q{q}: exact {exact} vs sketch {approx} ({rel})");
        }
        // Mean and range are exact.
        let mean_exact: f64 = cdf.samples().iter().sum::<f64>() / cdf.samples().len() as f64;
        assert!((sketch.mean().unwrap() - mean_exact).abs() < 1e-9);
        let (min, max) = sketch.range().unwrap();
        assert_eq!(Some((min, max)), cdf.range());
    }

    #[test]
    fn sketch_edge_cases() {
        let empty = LatencySketch::new();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), None);
        assert_eq!(empty.mean(), None);

        let mut zeros = LatencySketch::new();
        zeros.add(0.0);
        zeros.add(0.0);
        zeros.add(5.0);
        assert_eq!(zeros.quantile(0.0), Some(0.0));
        assert!((zeros.quantile(1.0).unwrap() - 5.0).abs() / 5.0 < 0.01);

        let mut one = LatencySketch::new();
        one.add(42.0);
        assert_eq!(one.quantile(0.5), Some(42.0), "clamped to the range");
    }

    #[test]
    fn p2_estimates_quantiles() {
        let mut p2 = P2Quantile::new(0.5);
        assert_eq!(p2.estimate(), None);
        p2.add(3.0);
        assert_eq!(p2.estimate(), Some(3.0), "exact below five samples");
        for v in [1.0, 2.0, 4.0, 5.0] {
            p2.add(v);
        }
        assert_eq!(p2.estimate(), Some(3.0));
        // A long uniform ramp: the median estimate converges near 500.
        let mut p2 = P2Quantile::new(0.5);
        let mut x = 0.5f64;
        for _ in 0..20_000 {
            x = (x * 997.0 + 0.123).rem_euclid(1.0);
            p2.add(1000.0 * x);
        }
        let est = p2.estimate().unwrap();
        assert!((est - 500.0).abs() < 25.0, "median estimate {est}");
        // p99 tracks the tail.
        let mut p99 = P2Quantile::new(0.99);
        let mut x = 0.5f64;
        for _ in 0..20_000 {
            x = (x * 997.0 + 0.123).rem_euclid(1.0);
            p99.add(1000.0 * x);
        }
        let est = p99.estimate().unwrap();
        assert!((est - 990.0).abs() < 15.0, "p99 estimate {est}");
    }

    #[test]
    fn rate_ring_windows_prr() {
        let mut ring = RateRing::new(1.0);
        // First half-window: perfect delivery.
        for i in 0..100 {
            let at = Time(i * 5_000_000);
            ring.attempt(at);
            ring.delivered(at);
        }
        assert_eq!(ring.rate(), Some(1.0));
        // Second window: everything lost — the trailing window decays to
        // 0 once the good slots expire.
        for i in 0..400 {
            let at = Time(500_000_000 + i * 5_000_000);
            ring.attempt(at);
        }
        let late = ring.rate().unwrap();
        assert!(late < 0.1, "late PRR {late}");
        assert!(ring.worst().unwrap() <= late);
    }

    #[test]
    fn filters_compile_and_match() {
        let f = Filter::all()
            .tags([1, 3])
            .kinds([TelemetryKind::Delivery])
            .window(1.0, 2.0);
        f.validate(4, 2).unwrap();
        assert!(Filter::all().tags([9]).validate(4, 2).is_err());
        assert!(Filter::all().carriers([5]).validate(4, 2).is_err());
        assert!(Filter::all().window(2.0, 1.0).validate(4, 2).is_err());

        let c = CompiledFilter::compile(&f, 4, 2);
        let hit = TelemetryEvent::Delivery {
            tag: 3,
            latency_ns: 5,
            bits: 8,
        };
        let misses_tag = TelemetryEvent::Delivery {
            tag: 2,
            latency_ns: 5,
            bits: 8,
        };
        assert!(c.matches(Time::from_secs(1.5), &hit));
        assert!(!c.matches(Time::from_secs(1.5), &misses_tag));
        assert!(!c.matches(Time::from_secs(0.5), &hit), "before the window");
        assert!(
            !c.matches(Time::from_secs(2.0), &hit),
            "window end exclusive"
        );
        // Entity axes ignore events without that entity.
        let occ = TelemetryEvent::Occupancy {
            carrier: 0,
            subband: 0,
            occupancy: 0.4,
        };
        assert!(CompiledFilter::compile(&Filter::all().tags([0]), 4, 2).matches(Time::ZERO, &occ));
    }

    #[test]
    fn runtime_masks_and_dispatches() {
        let none = TelemetryRuntime::new(&TelemetryConfig::new(), 4, 2);
        assert!(!none.wants(TelemetryKind::Delivery), "empty mask");

        let config = TelemetryConfig::new()
            .subscribe(Subscription::new(
                "poll",
                Filter::all(),
                SinkSpec::Quantiles(Dataset::PollLatencyMs),
            ))
            .subscribe(Subscription::new(
                "tag1",
                Filter::all().tags([1]),
                SinkSpec::Counters,
            ));
        config.validate(4, 2).unwrap();
        let mut rt = TelemetryRuntime::new(&config, 4, 2);
        assert!(rt.wants(TelemetryKind::Grant));
        assert!(rt.wants(TelemetryKind::Delivery), "counters want all");
        rt.emit(
            Time(10),
            &TelemetryEvent::Grant {
                tag: 1,
                carrier: 0,
                waited_ns: 2_000_000,
            },
        );
        rt.emit(
            Time(20),
            &TelemetryEvent::Grant {
                tag: 0,
                carrier: 0,
                waited_ns: 8_000_000,
            },
        );
        let report = rt.finish(Vec::new());
        let SinkReport::Quantiles { sketch, .. } = &report.subscriptions[0].report else {
            panic!("quantile sink");
        };
        assert_eq!(sketch.count(), 2, "unfiltered sketch saw both grants");
        let SinkReport::Counters { counts } = &report.subscriptions[1].report else {
            panic!("counter sink");
        };
        assert_eq!(counts[TelemetryKind::Grant as usize], 1, "tag filter held");
        assert!(report.render().contains("poll latency"));
        assert!(report.render().contains("grant 1"));
    }

    #[test]
    fn config_validation_rejects_bad_parameters() {
        for window_s in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for sink in [
                SinkSpec::WindowedPrr { window_s },
                SinkSpec::WindowedOccupancy { window_s },
            ] {
                let bad_window =
                    TelemetryConfig::new().subscribe(Subscription::new("w", Filter::all(), sink));
                assert!(bad_window.validate(4, 2).is_err(), "window {window_s}");
            }
        }
        for every in [0.0, f64::NAN, f64::INFINITY] {
            let bad_progress = TelemetryConfig::new().with_progress(every);
            assert!(bad_progress.validate(4, 2).is_err(), "cadence {every}");
        }
        TelemetryConfig::new()
            .with_progress(1.0)
            .validate(4, 2)
            .unwrap();
    }

    #[test]
    fn progress_lines_are_deterministic() {
        let mut p = ProgressRuntime::new(1.0, false);
        assert!(!p.due(Time::from_secs(0.5)));
        assert!(p.due(Time::from_secs(1.0)));
        p.p2_poll_ms.add(2.0);
        p.emit(Time::from_secs(1.0), 1000, 80, 72, 0);
        assert!(!p.due(Time::from_secs(1.5)));
        p.emit(Time::from_secs(2.0), 2000, 160, 150, 1);
        let lines = p.into_lines();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("t=1.0s"), "{}", lines[0]);
        assert!(lines[0].contains("events=1000"));
        assert!(lines[0].contains("prr=0.900"));
        assert!(lines[1].contains("restripes=1"));
    }
}
