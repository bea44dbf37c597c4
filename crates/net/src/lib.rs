//! # interscatter-net
//!
//! A deterministic, event-driven **network** engine for the Interscatter
//! reproduction: where `interscatter-sim` studies one link at a time (one
//! BLE carrier, one tag, one receiver — the regime of the paper's figures),
//! this crate simulates *fleets* of backscatter tags sharing the 2.4 GHz
//! medium with multiple BLE carrier providers and multiple Wi-Fi/ZigBee
//! receivers.
//!
//! ## Entity model
//!
//! A [`scenario::Scenario`] instantiates three kinds of entities, each with
//! a position in metres:
//!
//! * [`entities::CarrierSource`] — a Bluetooth device emitting the
//!   single-tone advertisement the tags modulate. Each carrier activates
//!   periodically (its *slot cadence*); one slot illuminates exactly one
//!   tag, selected round-robin among the tags assigned to that carrier
//!   that have traffic queued (§2.3.3's helper-device scheduling,
//!   generalized to N tags).
//! * [`entities::TagNode`] — a backscatter tag with an application traffic
//!   source (Poisson arrivals into a FIFO queue), an antenna/tissue profile
//!   (bench monopole, contact lens, neural implant, printed card), a
//!   sideband architecture (single or double) and a target PHY
//!   ([`entities::NetPhy`]: 802.11b at a Wi-Fi channel, ZigBee, or
//!   card-to-card OOK).
//! * [`entities::SinkReceiver`] — a commodity radio (Wi-Fi AP, ZigBee hub,
//!   or a peer card's envelope detector) that decodes what the tags
//!   synthesize. Each tag delivers to the receiver its scenario assigns
//!   (the builders use round-robin channel striping or nearest-hub
//!   assignment, per scenario).
//!
//! ## Event model
//!
//! The engine ([`engine`], run through [`run`]) is a classic discrete-event
//! simulation: an [`event::EventQueue`] orders [`event::EventKind`]s by
//! integer-nanosecond timestamps ([`time::Time`]). At a shared
//! nanosecond, a monotone sequence number orders every event but the
//! carrier slots, which pop after those in carrier order, so the
//! execution order is total and reproducible. Carrier slots go in a
//! sorted FIFO lane; every other kind goes in a 4-ary min-heap, and a pop
//! takes the earlier head. Eight event kinds drive everything, each
//! handled by one engine method (a ninth, `Horizon`, ends the run):
//!
//! * `PacketArrival` — a tag's application emits a packet and schedules the
//!   next arrival from its *own* seeded RNG stream. An accepted packet
//!   wakes its carrier if it sleeps.
//! * `CarrierSlot` — a carrier activates: the scenario's arbitration
//!   policy ([`sched::SchedPolicy`] — round-robin, proportional-fair,
//!   deadline-aware or margin-aware) picks a tag, the engine checks the
//!   medium (CSMA, optionally a CTS-to-Self reservation), and starts a
//!   transmission. A carrier offers its tags a slot every slot interval,
//!   but only while one of them holds a queued packet: a slot that finds
//!   none puts the carrier to sleep (coex runs excepted, whose carriers
//!   sense the medium every slot), and the arrival that wakes it
//!   schedules its next slot on the same grid. The helper provides a
//!   carrier only for a tag with data to send (§2.3.3).
//! * `TxEnd` — a transmission completes: the [`medium::Medium`] reports
//!   tag-to-tag collisions (including the *mirror copies* double-sideband
//!   tags place on the opposite side of the carrier), the link budget
//!   ([`links::LinkMatrix`], built from `interscatter-channel`'s pathloss,
//!   tissue and noise models) draws per-packet shadowing, and the outcome
//!   lands in [`metrics::NetworkMetrics`].
//! * `PollEnd` / `AckEnd` — in closed-loop scenarios
//!   ([`mac::MacMode::ClosedLoop`]), an AM-OFDM poll or ack frame
//!   completes and the addressed listener (the tag's envelope detector
//!   for a poll, the carrier's radio for an ack) decides whether it
//!   decoded. The [`mac`] module documents the poll → backscatter
//!   response → ack transaction and the physics that assigns each leg
//!   its transmitter.
//! * `MobilityTick` — when the scenario attaches a
//!   [`mobility::MobilityConfig`], every tag advances one step of its
//!   mobility model (random waypoint or random walk, each tag walking its
//!   own seeded stream) and the [`links::LinkMatrix`] refreshes **only the
//!   budgets of the tags the moved entities touch** from cached
//!   position-independent terms (pair powers read the live geometry on
//!   every query) — link quality tracks geometry tick by tick without
//!   rebuilding the matrix (the `net_mobility` bench anchors the flush
//!   against a full rebuild).
//! * `CoexStart` / `CoexEnd` — when the scenario attaches a
//!   [`coex::CoexConfig`], external traffic sources (bursty Wi-Fi, BLE
//!   advertising, ZigBee chatter, a microwave duty cycle) put *real timed
//!   emissions* on the medium from their own seeded streams, carriers
//!   sense per-channel occupancy, and an optional [`coex::ReStripe`]
//!   policy re-tunes congested carriers (and their tags) to the
//!   least-occupied sub-band mid-run.
//!
//! Every entity owns a `SmallRng` seeded from the scenario seed and its
//! entity id, so identical seeds reproduce byte-identical event traces and
//! metrics — see [`engine::NetRunResult::trace`] and the
//! `net_determinism` integration test — while different seeds decorrelate.
//!
//! ## Observability
//!
//! A run's one record is [`metrics::NetworkMetrics`]: exact counters per
//! tag and every latency, poll and occupancy sample, stored. The
//! [`telemetry`] module adds only the engine's event count and, when
//! [`scenario::ExecutionSection::progress`] sets a cadence, a
//! deterministic one-line status on simulated time. Progress lines never
//! touch the RNG streams, so the event trace and metrics stay
//! byte-identical at any cadence. [`prof`] observes the run's wall-clock
//! phases the same digest-neutral way.
//!
//! ## Running a scenario
//!
//! Configure a scenario with [`scenario::ScenarioBuilder`] (presets open
//! one with [`scenario::Scenario::builder`]), then run it with [`run`]
//! (one seed) or [`run_trials`] (the Monte-Carlo trials set in
//! [`scenario::ExecutionSection::trials`], aggregated into a
//! [`runner::MonteCarloReport`]). Both simulate the whole scenario in one
//! uninterrupted pass of one engine core: every tag shares one medium, so
//! interference between neighbouring deployments is modelled exactly.
//!
//! ```
//! use interscatter_net::prelude::*;
//!
//! let scenario = Scenario::hospital_ward(8)
//!     .builder()
//!     .execution(ExecutionSection::new().trials(4))
//!     .build()
//!     .unwrap();
//! let result = run(&scenario, 42).unwrap();
//! assert!(result.metrics.offered_packets() > 0);
//! let replay = run(&scenario, 42).unwrap();
//! assert_eq!(result.trace.to_bytes(), replay.trace.to_bytes());
//! let report = run_trials(&scenario, 7).unwrap();
//! assert_eq!(report.trials.len(), 4);
//! ```

// Functions stay under `too-many-lines-threshold` (crates/net/clippy.toml).
// The workspace manifest owns `[lints]`, so this crate-only lint lives here.
#![warn(clippy::too_many_lines)]

pub mod coex;
pub mod engine;
pub mod entities;
pub mod event;
pub mod links;
pub mod mac;
pub mod medium;
pub mod metrics;
pub mod mobility;
pub mod prof;
pub mod runner;
pub mod scenario;
pub mod sched;
pub mod shard;
pub mod telemetry;
pub mod time;
pub mod trace_digest;

/// Errors surfaced by the network engine.
///
/// Marked `#[non_exhaustive]`: future validation variants (say, a
/// dedicated geometry error) must not be breaking changes, so downstream
/// matches need a wildcard arm. [`std::error::Error::source`] chains to
/// the underlying channel- or sim-layer cause where one exists.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A scenario parameter was invalid.
    InvalidScenario(String),
    /// An error from the channel layer while building link budgets.
    Channel(interscatter_channel::ChannelError),
    /// An error from the simulation layer.
    Sim(interscatter_sim::SimError),
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::InvalidScenario(what) => write!(f, "invalid scenario: {what}"),
            NetError::Channel(e) => write!(f, "channel error: {e}"),
            NetError::Sim(e) => write!(f, "sim error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::InvalidScenario(_) => None,
            NetError::Channel(e) => Some(e),
            NetError::Sim(e) => Some(e),
        }
    }
}

impl From<interscatter_channel::ChannelError> for NetError {
    fn from(e: interscatter_channel::ChannelError) -> Self {
        NetError::Channel(e)
    }
}

impl From<interscatter_sim::SimError> for NetError {
    fn from(e: interscatter_sim::SimError) -> Self {
        NetError::Sim(e)
    }
}

#[cfg(test)]
mod tests {
    use super::NetError;
    use std::error::Error;

    #[test]
    fn net_error_chains_to_its_cause() {
        assert!(NetError::InvalidScenario("x".into()).source().is_none());

        let channel = interscatter_channel::ChannelError::InvalidParameter("distance");
        let err = NetError::from(channel.clone());
        let source = err.source().expect("channel cause is chained");
        assert_eq!(source.to_string(), channel.to_string());

        let sim = interscatter_sim::SimError::InvalidScenario("bad");
        let err = NetError::from(sim.clone());
        let source = err.source().expect("sim cause is chained");
        assert_eq!(source.to_string(), sim.to_string());
    }
}

/// Runs `scenario` once with `seed` on one engine core and returns its
/// metrics, event trace and telemetry report.
///
/// This is the one entrypoint behind every run shape: the execution
/// knobs — trace recording, profiling, progress — come from the scenario's
/// [`scenario::ExecutionConfig`], set through
/// [`scenario::ExecutionSection`] on the builder. Neither changes what
/// the run computes: a profiled run reproduces the plain run's trace
/// byte for byte.
///
/// ```
/// use interscatter_net::prelude::*;
///
/// let profiled = Scenario::hospital_ward(8)
///     .builder()
///     .execution(ExecutionSection::new().profile(true))
///     .build()
///     .unwrap();
/// let result = interscatter_net::run(&profiled, 42).unwrap();
/// let plain = interscatter_net::run(&Scenario::hospital_ward(8), 42).unwrap();
/// assert_eq!(result.trace.digest(), plain.trace.digest());
/// assert!(result.prof.is_some() && plain.prof.is_none());
/// ```
pub fn run(scenario: &scenario::Scenario, seed: u64) -> Result<engine::NetRunResult, NetError> {
    engine::execute(scenario, seed, scenario.execution.trace)
}

/// Runs the scenario's Monte-Carlo trials
/// ([`scenario::ExecutionConfig::trials`], one derived seed per trial,
/// traces disabled) and aggregates them into a
/// [`runner::MonteCarloReport`].
///
/// ```
/// use interscatter_net::prelude::*;
///
/// let scenario = Scenario::hospital_ward(6)
///     .builder()
///     .execution(ExecutionSection::new().trials(4))
///     .build()
///     .unwrap();
/// let report = interscatter_net::run_trials(&scenario, 7).unwrap();
/// assert_eq!(report.trials.len(), 4);
/// ```
pub fn run_trials(
    scenario: &scenario::Scenario,
    base_seed: u64,
) -> Result<runner::MonteCarloReport, NetError> {
    scenario.validate()?;
    type TrialOut = (metrics::NetworkMetrics, Option<prof::ProfSummary>);
    let results: Vec<Result<TrialOut, NetError>> =
        rayon::det::map_indexed_ordered(scenario.execution.trials, |trial| {
            engine::execute(
                scenario,
                entities::streams::trial_seed(base_seed, trial),
                false,
            )
            .map(|r| {
                let prof = r.prof.map(|p| p.summary());
                (r.metrics, prof)
            })
        });
    let mut trials = Vec::with_capacity(results.len());
    let mut prof = Vec::new();
    for r in results {
        let (metrics, summary) = r?;
        trials.push(metrics);
        prof.extend(summary);
    }
    Ok(runner::MonteCarloReport::aggregate(scenario, trials, prof))
}

/// The commonly used types in one import.
pub mod prelude {
    pub use crate::coex::{CoexConfig, CoexModel, CoexSource, ReStripe};
    pub use crate::engine::NetRunResult;
    pub use crate::entities::{CarrierSource, NetPhy, Position, SinkReceiver, TagNode, TagProfile};
    pub use crate::links::{EntityId, LinkMatrix};
    pub use crate::mac::{MacLoop, MacMode};
    pub use crate::metrics::NetworkMetrics;
    pub use crate::mobility::{Bounds, MobilityConfig, MobilityModel};
    pub use crate::prof::{ProfReport, ProfSummary, Profiler};
    pub use crate::runner::MonteCarloReport;
    pub use crate::scenario::{
        ExecutionConfig, ExecutionSection, RadioSection, Scenario, ScenarioBuilder,
    };
    pub use crate::sched::{CarrierSched, SchedPolicy};
    pub use crate::shard::Cell;
    pub use crate::telemetry::TelemetryReport;
    pub use crate::time::Time;
    pub use crate::NetError;
    pub use crate::{run, run_trials};
}
