//! The discrete-event simulation loop.
//!
//! One engine core owns the event queue, the medium, the link matrix
//! and every entity's runtime state (packet queues, round-robin cursors,
//! per-entity RNG streams). Determinism comes from three rules:
//!
//! 1. time is integer nanoseconds and event ties resolve by scheduling
//!    order ([`crate::event::EventQueue`]);
//! 2. every random draw comes from the RNG of the entity the event
//!    belongs to, seeded from `(scenario seed, entity kind, entity
//!    index)` — never from a shared stream whose consumption order could
//!    drift;
//! 3. entity iteration is always by index.
//!
//! Two MAC disciplines share the loop ([`crate::mac::MacMode`]): the
//! open loop, where carriers grant slots blindly and delivery is decided
//! when the packet ends, and the closed poll/ack loop, where every uplink
//! transmission is bracketed by an AM-OFDM poll from the carrier and an
//! AM-OFDM ack from the sink (see [`crate::mac`] for the transaction
//! structure and its physics). `EngineCore::run` hands each event to the
//! one handler of its kind; the handlers share the uplink start, the
//! delivery and the reception arbitration.

use crate::coex::{CoexConfig, MediumAccess, SENSE_EWMA_ALPHA, SENSE_SAMPLE_INTERVAL_S};
use crate::entities::{streams, NetPhy, Position, SinkKind};
use crate::event::{EventKind, EventQueue, EventTrace};
use crate::links::{EntityId, LinkMatrix, Listener};
use crate::mac::{self, LoopPhase, MacLoop, MacMode};
use crate::medium::{Band, Emitter, Interferer, Medium};
use crate::metrics::{MobilitySample, NetworkMetrics, OccupancySample, ReStripeEvent};
use crate::mobility::{MobilityConfig, MotionState};
use crate::prof::{Clock, ProfReport, Profiler};
use crate::scenario::Scenario;
use crate::sched::{CarrierSched, SlotView};
use crate::telemetry::{ProgressRuntime, TelemetryReport};
use crate::time::Time;
use crate::NetError;
use interscatter_backscatter::tag::SidebandMode;
use interscatter_sim::mac::backscatter_delivery_probability;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::VecDeque;

/// How much stronger than the sum of its interferers a packet must be at
/// its receiver to survive a collision (capture effect), dB.
pub const CAPTURE_MARGIN_DB: f64 = 10.0;

/// Bandwidth an AM downlink frame occupies on the medium: the 802.11
/// channel mask, shared with the Wi-Fi uplink bands so poll/ack frames
/// contend on exactly the channels the data does.
pub const AM_DOWNLINK_BANDWIDTH_HZ: f64 = interscatter_wifi::dot11b::CHANNEL_BANDWIDTH_HZ;

/// A packet waiting in a tag's queue.
#[derive(Debug, Clone, Copy)]
struct QueuedPacket {
    arrived: Time,
    retries: u32,
}

/// Runtime state of one tag.
#[derive(Debug)]
struct TagState {
    queue: VecDeque<QueuedPacket>,
    rng: SmallRng,
}

/// Attempts and deliveries since a sampler last took (read and zeroed) it.
#[derive(Debug, Clone, Copy, Default)]
struct Window {
    attempts: usize,
    delivered: usize,
}

/// Runtime state of one carrier.
#[derive(Debug)]
struct CarrierState {
    /// The carrier's arbitration runtime: member list, sub-band stripe and
    /// the scenario's [`crate::sched::SchedPolicy`] state. Which tag a
    /// slot illuminates is decided here, not in the engine.
    sched: CarrierSched,
    /// Slot period on the integer-nanosecond grid (quantized once, so
    /// slot `k` fires at exactly `offset + k · period` — re-rounding the
    /// f64 period every slot would accumulate cadence drift).
    slot_interval_ns: u64,
    rng: SmallRng,
}

/// Runtime state of the mobility subsystem (only present when the scenario
/// attaches a [`MobilityConfig`]).
#[derive(Debug)]
struct MobilityRuntime {
    config: MobilityConfig,
    /// Tick period on the integer-nanosecond grid (quantized once).
    tick_ns: u64,
    /// Per-tag kinematic state.
    states: Vec<MotionState>,
    /// Per-tag mobility RNG stream, independent of the traffic streams.
    rngs: Vec<SmallRng>,
    /// Per-carrier scenario placement, the reference for body-worn
    /// carriers that follow their tag.
    carrier_origin: Vec<Position>,
    /// For each carrier with exactly one assigned tag: that tag (the
    /// wearer). Shared carriers stay put.
    carrier_wearer: Vec<Option<usize>>,
    /// Per-tag windows, taken by each tick's PRR-vs-displacement samples.
    windows: Vec<Window>,
}

impl MobilityRuntime {
    /// Every tag at rest at its scenario position, each walking its own
    /// mobility stream.
    fn new(
        config: MobilityConfig,
        scenario: &Scenario,
        seed: u64,
        carriers: &[CarrierState],
    ) -> Self {
        MobilityRuntime {
            config,
            tick_ns: Time::from_secs(config.tick_interval_s).as_nanos().max(1),
            states: scenario
                .tags
                .iter()
                .map(|t| MotionState::at(t.position()))
                .collect(),
            rngs: (0..scenario.tags.len())
                .map(|t| streams::mobility_rng(seed, t))
                .collect(),
            carrier_origin: scenario.carriers.iter().map(|c| c.position()).collect(),
            carrier_wearer: carriers
                .iter()
                .map(|state| match state.sched.members() {
                    [only] => Some(*only),
                    _ => None,
                })
                .collect(),
            windows: vec![Window::default(); scenario.tags.len()],
        }
    }
}

/// Runtime state of the coexistence subsystem (only present when the
/// scenario attaches a [`CoexConfig`]).
#[derive(Debug)]
struct CoexRuntime<'a> {
    config: &'a CoexConfig,
    /// Per source: its dedicated RNG stream (stream 4 — isolated from the
    /// traffic, carrier and mobility streams, so adding a source never
    /// shifts anyone else's draws).
    rngs: Vec<SmallRng>,
    /// Per source: the emission duration drawn for its pending
    /// `CoexStart`.
    pending_dur_s: Vec<f64>,
    /// Per receiver: the band its channel occupies — the sensing axis.
    rx_bands: Vec<Band>,
    /// Wi-Fi receiver indices: the candidate sub-bands of re-striping
    /// (the same axis [`Scenario::with_subband_striping`] stripes over).
    wifi_rx: Vec<usize>,
    /// Per carrier: sensing estimators and re-striping decision state.
    sense: Vec<CarrierSense>,
    /// Metrics sampling cadence on the integer-ns grid (quantized once).
    sample_ns: u64,
}

/// One carrier's occupancy sensing and re-striping state.
#[derive(Debug)]
struct CarrierSense {
    /// EWMA busy-airtime estimate per receiver channel, in [0, 1].
    ewma: Vec<f64>,
    /// When the last [`OccupancySample`] was recorded.
    last_sample: Time,
    /// Member-tag attempts and deliveries since then.
    window: Window,
    /// Slots seen so far (the re-striping check cadence counts these).
    slots: u32,
    /// When the carrier last re-striped (the dwell-time hysteresis).
    last_restripe: Time,
}

impl<'a> CoexRuntime<'a> {
    /// One stream per source, no emission pending yet, and every
    /// carrier's sensing estimators at zero.
    fn new(config: &'a CoexConfig, scenario: &Scenario, seed: u64) -> Self {
        let carrier0_freq = scenario.carriers[0].carrier_freq_hz();
        CoexRuntime {
            config,
            rngs: (0..config.sources.len())
                .map(|k| streams::coex_rng(seed, k))
                .collect(),
            pending_dur_s: vec![0.0; config.sources.len()],
            rx_bands: scenario
                .receivers
                .iter()
                .map(|r| Band::new(r.center_freq_hz(carrier0_freq), r.bandwidth_hz()))
                .collect(),
            wifi_rx: scenario
                .receivers
                .iter()
                .enumerate()
                .filter(|(_, r)| matches!(r.kind, SinkKind::Wifi { .. }))
                .map(|(i, _)| i)
                .collect(),
            sense: (0..scenario.carriers.len())
                .map(|_| CarrierSense {
                    ewma: vec![0.0; scenario.receivers.len()],
                    last_sample: Time::ZERO,
                    window: Window::default(),
                    slots: 0,
                    last_restripe: Time::ZERO,
                })
                .collect(),
            sample_ns: Time::from_secs(SENSE_SAMPLE_INTERVAL_S).as_nanos().max(1),
        }
    }
}

/// How one reception attempt resolved, in arbitration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RxOutcome {
    /// Survived collisions, external traffic and the link budget.
    Delivered,
    /// Lost to in-model interference (capture failed).
    Collision,
    /// Lost to external traffic: a collision where every in-band
    /// interferer was a coex source's emission, or the fold of the sink's
    /// `external_occupancy` scalar.
    External,
    /// Lost to the link budget (shadowed RSSI under sensitivity).
    LinkLoss,
}

impl RxOutcome {
    fn label(self) -> &'static str {
        match self {
            RxOutcome::Delivered => "delivered",
            RxOutcome::Collision => "collision",
            RxOutcome::External => "external collision",
            RxOutcome::LinkLoss => "link loss",
        }
    }
}

/// The result of one run: metrics plus (optionally) the full event trace.
#[derive(Debug, Clone)]
pub struct NetRunResult {
    /// Aggregated counters and distributions.
    pub metrics: NetworkMetrics,
    /// The event trace (empty if tracing was disabled).
    pub trace: EventTrace,
    /// The engine's event count plus any collected progress lines
    /// ([`crate::telemetry`]). Empty (but for the event count) when
    /// progress is off.
    pub telemetry: TelemetryReport,
    /// The run's self-profile ([`crate::prof`]): wall-clock span timeline
    /// plus phase summary. `Some` only when
    /// [`crate::scenario::ExecutionConfig::profile`] was set; never
    /// consulted by the simulation, so digests are identical either way.
    pub prof: Option<ProfReport>,
}

/// Runs `scenario` once with `seed` on one engine core — `new`, `run`,
/// `finish` — the engine behind [`crate::run`] and [`crate::run_trials`].
pub(crate) fn execute(
    scenario: &Scenario,
    seed: u64,
    record_trace: bool,
) -> Result<NetRunResult, NetError> {
    let mut core = EngineCore::new(scenario, seed, record_trace)?;
    core.run();
    Ok(core.finish())
}

/// All of a run's state: [`execute`] builds it with `new`, pops every
/// event up to the horizon with `run`, and materialises the result with
/// `finish`.
pub(crate) struct EngineCore<'a> {
    scenario: &'a Scenario,
    links: LinkMatrix,
    queue: EventQueue,
    medium: Medium,
    trace: EventTrace,
    metrics: NetworkMetrics,
    /// Engine events processed so far (every queue pop).
    events: u64,
    progress: Option<ProgressRuntime>,
    mac_loop: Option<MacLoop>,
    tags: Vec<TagState>,
    carriers: Vec<CarrierState>,
    /// Per carrier, the instant of the slot that put it to sleep, while
    /// it sleeps: no member holds a queued packet and no next slot is
    /// scheduled until an arrival wakes it ([`EngineCore::on_arrival`]).
    /// Empty in coex runs, whose carriers sample the medium every slot
    /// and never sleep.
    asleep: Vec<Option<Time>>,
    mobility: Option<MobilityRuntime>,
    coex: Option<CoexRuntime<'a>>,
    /// Self-profiling recorder, `Some` only when the scenario enables
    /// profiling. Wall-clock state stays out of the event loop's inputs —
    /// the clippy config bans `Instant` everywhere but `prof.rs`.
    prof: Option<Profiler>,
}

impl<'a> EngineCore<'a> {
    /// Validates the scenario, builds the link matrix and primes the queue.
    pub(crate) fn new(
        scenario: &'a Scenario,
        seed: u64,
        record_trace: bool,
    ) -> Result<EngineCore<'a>, NetError> {
        let mut prof = scenario
            .execution
            .profile
            .then(|| Profiler::new(Clock::wall()));
        let init_tok = prof.as_mut().map(|p| p.begin("engine_init"));
        let validate_tok = prof.as_mut().map(|p| p.begin("validate"));
        scenario.validate()?;
        if let (Some(p), Some(tok)) = (prof.as_mut(), validate_tok) {
            p.end(tok);
        }
        let link_tok = prof.as_mut().map(|p| p.begin("link_build"));
        let links = LinkMatrix::build(scenario)?;
        if let (Some(p), Some(tok)) = (prof.as_mut(), link_tok) {
            p.end(tok);
        }
        let horizon = Time::from_secs(scenario.duration_s);

        let mut queue = EventQueue::until(horizon);
        let medium = Medium::new();
        let trace = EventTrace::new(record_trace);
        let mut metrics = NetworkMetrics::new(
            scenario.tags.len(),
            scenario.receivers.len(),
            scenario.duration_s,
        );
        // Progress lines consume no RNG and never touch the queue or the
        // medium, so traces stay byte-identical at any cadence.
        let progress: Option<ProgressRuntime> = scenario
            .execution
            .progress_every_s
            .map(|every| ProgressRuntime::new(every, scenario.execution.live_progress));
        let mac_loop = match scenario.mac {
            MacMode::OpenLoop => None,
            MacMode::ClosedLoop => Some(MacLoop::new(scenario.tags.len())),
        };
        let mut tags: Vec<TagState> = (0..scenario.tags.len())
            .map(|t| TagState {
                queue: VecDeque::new(),
                rng: streams::tag_rng(seed, t),
            })
            .collect();
        let mut carriers: Vec<CarrierState> = (0..scenario.carriers.len())
            .map(|c| CarrierState {
                sched: CarrierSched::new(
                    scenario.scheduler,
                    // The matrix's hoisted carrier → tags index (ascending,
                    // like the fleet scan it replaced).
                    links.carrier_tags(c).to_vec(),
                    scenario.carriers[c].subband,
                ),
                slot_interval_ns: Time::from_secs(scenario.carriers[c].slot_interval_s)
                    .as_nanos()
                    .max(1),
                rng: streams::carrier_rng(seed, c),
            })
            .collect();
        let mobility = scenario
            .mobility
            .map(|config| MobilityRuntime::new(config, scenario, seed, &carriers));

        let mut coex = scenario.coex.as_ref().map(|config| {
            metrics.init_coex(scenario.carriers.len(), config.sources.len());
            CoexRuntime::new(config, scenario, seed)
        });

        // Prime the queue: first packet arrival per tag, first slot per
        // carrier (staggered within one interval so co-located carriers do
        // not fire in lockstep), and the horizon.
        for (t, state) in tags.iter_mut().enumerate() {
            let dt = streams::exponential_s(&mut state.rng, scenario.tags[t].arrival_rate_pps);
            queue.schedule(
                Time::ZERO.after_secs(dt),
                EventKind::PacketArrival { tag: t },
            );
        }
        for (c, state) in carriers.iter_mut().enumerate() {
            let offset = state
                .rng
                .gen_range(0.0..scenario.carriers[c].slot_interval_s);
            queue.schedule(
                Time::ZERO.after_secs(offset),
                EventKind::CarrierSlot { carrier: c },
            );
        }
        if let Some(mob) = &mobility {
            queue.schedule(Time::ZERO.after_nanos(mob.tick_ns), EventKind::MobilityTick);
        }
        if let Some(cx) = coex.as_mut() {
            // First arrival per external source.
            for (k, source) in cx.config.sources.iter().enumerate() {
                let (gap, dur) = source.model.next_emission(&mut cx.rngs[k]);
                let start = Time::from_secs(source.start_s).after_secs(gap);
                if start.as_secs() < source.stop_s {
                    cx.pending_dur_s[k] = dur;
                    queue.schedule(start, EventKind::CoexStart { source: k });
                }
            }
        }
        queue.schedule(horizon, EventKind::Horizon);

        let asleep = match coex {
            Some(_) => Vec::new(),
            None => vec![None; carriers.len()],
        };
        if let (Some(p), Some(tok)) = (prof.as_mut(), init_tok) {
            p.end(tok);
        }
        Ok(EngineCore {
            scenario,
            links,
            queue,
            medium,
            trace,
            metrics,
            events: 0,
            progress,
            mac_loop,
            tags,
            carriers,
            asleep,
            mobility,
            coex,
            prof,
        })
    }

    /// The event loop: pops every event in queue order up to and including
    /// the horizon, emits the progress lines of the cadence boundaries it
    /// reaches, and hands the event to the one handler of its kind. A
    /// profiled run records the whole loop as one `"epoch"` span, the
    /// phase name the benchmark's event-loop metrics read, and marks every
    /// dispatch for the per-kind totals ([`Profiler::dispatch`]).
    pub(crate) fn run(&mut self) {
        let epoch_tok = self.prof.as_mut().map(|p| p.begin("epoch"));
        while let Some(event) = self.queue.pop() {
            if let Some(p) = self.progress.as_mut() {
                // One status line per cadence boundary this event reaches,
                // with the counts held before it: simulated time only, so
                // the output is deterministic.
                while p.due(event.at) {
                    p.emit(
                        self.events,
                        self.metrics.attempts(),
                        self.metrics.delivered_packets(),
                        self.metrics.restripes(),
                    );
                }
            }
            self.events += 1;
            if let Some(p) = self.prof.as_mut() {
                p.dispatch(&event.kind);
            }
            let now = event.at;
            match event.kind {
                EventKind::Horizon => break,
                EventKind::PacketArrival { tag } => self.on_arrival(tag, now),
                EventKind::CarrierSlot { carrier } => self.on_slot(carrier, now),
                EventKind::TxEnd {
                    tag,
                    tx_id,
                    started,
                } => self.on_tx_end(tag, tx_id, started, now),
                EventKind::PollEnd { tag, tx_id } => self.on_poll_end(tag, tx_id, now),
                EventKind::AckEnd { tag, tx_id } => self.on_ack_end(tag, tx_id, now),
                EventKind::CoexStart { source } => self.on_coex_start(source, now),
                EventKind::CoexEnd { source, tx_id } => self.on_coex_end(source, tx_id, now),
                EventKind::MobilityTick => self.on_mobility_tick(now),
            }
        }
        if let (Some(p), Some(tok)) = (self.prof.as_mut(), epoch_tok) {
            p.end(tok);
        }
    }

    /// Records what each tag still holds at the horizon, materialises the
    /// telemetry report and hands the metrics out as the public run
    /// result.
    pub(crate) fn finish(self) -> NetRunResult {
        let EngineCore {
            scenario,
            mut metrics,
            events,
            progress,
            tags,
            trace,
            mut prof,
            ..
        } = self;
        let fin_tok = prof.as_mut().map(|p| p.begin("finalize"));
        for (stats, state) in metrics.tags.iter_mut().zip(&tags) {
            stats.queued = state.queue.len();
        }
        let telemetry = TelemetryReport {
            events,
            progress: progress
                .map(ProgressRuntime::into_lines)
                .unwrap_or_default(),
        };
        if let (Some(p), Some(tok)) = (prof.as_mut(), fin_tok) {
            p.end(tok);
        }
        NetRunResult {
            metrics,
            trace,
            telemetry,
            prof: prof.map(|p| p.finish(&scenario.name)),
        }
    }

    /// A tag's application produced a packet: queue it (or drop it on a
    /// full queue), wake its carrier if it sleeps, and draw the next
    /// arrival from the tag's own stream.
    fn on_arrival(&mut self, tag: usize, now: Time) {
        let spec = &self.scenario.tags[tag];
        let state = &mut self.tags[tag];
        self.metrics.tags[tag].offered += 1;
        if state.queue.len() < self.scenario.max_queue {
            state.queue.push_back(QueuedPacket {
                arrived: now,
                retries: 0,
            });
            let depth = state.queue.len();
            self.trace
                .record(now, || format!("tag {tag} arrival (queue {depth})"));
            if let Some(slept) = self.asleep.get_mut(spec.carrier).and_then(Option::take) {
                self.wake(spec.carrier, slept, now);
            }
        } else {
            self.metrics.tags[tag].dropped += 1;
            self.trace
                .record(now, || format!("tag {tag} arrival dropped (queue full)"));
        }
        let dt = streams::exponential_s(&mut self.tags[tag].rng, spec.arrival_rate_pps);
        self.queue
            .schedule(now.after_secs(dt), EventKind::PacketArrival { tag });
    }

    /// Wakes `carrier`, asleep since its slot at `slept`, for a packet
    /// queued at `now`: schedules the first slot of its grid at or after
    /// `now` (a slot on `now`'s own nanosecond pops after the arrival and
    /// serves it) and replays the scheduler steps of the slots skipped in
    /// between, which would have found nothing queued.
    fn wake(&mut self, carrier: usize, slept: Time, now: Time) {
        let state = &mut self.carriers[carrier];
        let interval = state.slot_interval_ns;
        let k = now.since(slept).as_nanos().div_ceil(interval).max(1);
        state.sched.idle_slots(k - 1);
        self.queue.schedule(
            slept.after_nanos(k.saturating_mul(interval)),
            EventKind::CarrierSlot { carrier },
        );
    }

    /// A carrier slot: the scheduler picks a backlogged member and, if the
    /// band of the slot's first frame is free, the slot is granted and that
    /// frame goes on the air — the uplink packet itself in open loop, the
    /// AM-OFDM poll in closed loop. The carrier then schedules its next
    /// slot, one interval on, unless it falls asleep: outside coex runs, a
    /// slot that finds no member holding a queued packet (a closed-loop
    /// packet stays queued until its ack) schedules none.
    fn on_slot(&mut self, carrier: usize, now: Time) {
        let scenario = self.scenario;
        // Coex scenarios: sample the receive-side channel load into the
        // carrier's EWMAs and — on the policy cadence — maybe re-tune the
        // carrier and its tags to the least-occupied sub-band.
        // Slot-aligned, RNG-free.
        self.sense_and_restripe(carrier, now);
        // Consult the scenario's scheduler: the backlog oracle reports each
        // member's head-of-queue arrival when the tag can be granted (queued
        // traffic and — closed loop — no transaction in flight).
        let (tags, mac) = (&self.tags, self.mac_loop.as_ref());
        let backlog = |t: usize| -> Option<Time> {
            let state = &tags[t];
            (!state.queue.is_empty() && mac.is_none_or(|m| m.is_idle(t)))
                .then(|| state.queue.front().expect("backlogged").arrived)
        };
        let state = &mut self.carriers[carrier];
        let picked = state.sched.pick(
            &backlog,
            &SlotView {
                now,
                links: &self.links,
            },
        );
        let idle = || {
            state
                .sched
                .members()
                .iter()
                .all(|&t| tags[t].queue.is_empty())
        };
        match self.asleep.get_mut(carrier) {
            Some(asleep) if picked.is_none() && idle() => *asleep = Some(now),
            _ => self.queue.schedule(
                now.after_nanos(state.slot_interval_ns),
                EventKind::CarrierSlot { carrier },
            ),
        }
        let Some(tag) = picked else {
            return;
        };
        // The slot's first frame — the uplink packet on the tag's live
        // tuning, or the poll on the tag's service band — and the airtime
        // its §2.3.3 NAV must protect: the packet with the inter-channel
        // gaps around it, or the whole poll → response → ack exchange.
        let (primary, _, airtime) = self.uplink(tag);
        let (band, leg, protected_s) = match self.mac_loop {
            None => (primary, "slot", airtime),
            Some(_) => {
                let band = downlink_band(scenario, &self.links, tag);
                (band, "poll", mac::transaction_airtime_s(airtime))
            }
        };
        if self.medium.busy(band, now) {
            self.metrics.tags[tag].csma_defers += 1;
            self.trace.record(now, || {
                format!("carrier {carrier} {leg}: tag {tag} defers (band busy)")
            });
            return;
        }
        self.grant_slot(carrier, tag, now);
        if scenario.cts_to_self {
            // The NAV outlives the frame itself and keeps other tags off
            // the band while the next trigger is being set up.
            let nav = interscatter_ble::timing::reservation_window_s(protected_s);
            self.medium.reserve(band, now.after_secs(nav));
        }
        match self.mac_loop.as_mut() {
            None => self.start_uplink(tag, now, now, || {
                format!("carrier {carrier} slot: tag {tag} tx start")
            }),
            Some(mac_state) => {
                let poll_air = mac::poll_airtime_s();
                let end = now.after_secs(poll_air);
                let tx_id = self
                    .medium
                    .start(Emitter::Carrier(carrier), band, None, now, end);
                mac_state.poll_started(tag, now);
                self.metrics.tags[tag].polls += 1;
                self.queue.schedule(end, EventKind::PollEnd { tag, tx_id });
                self.trace.record(now, || {
                    format!(
                        "carrier {carrier} poll: tag {tag} ({} ns airtime)",
                        Time::from_secs(poll_air).as_nanos()
                    )
                });
            }
        }
    }

    /// Accounts one granted carrier slot: hands the grant to the carrier's
    /// scheduler (cursor/counter updates and the deadline check live there,
    /// not in the engine) and records the scheduler-facing metrics — the
    /// grant count, any deadline miss, and the head packet's poll latency
    /// (how long it waited in queue before winning this slot).
    fn grant_slot(&mut self, carrier: usize, tag: usize, now: Time) {
        let head_arrived = self.tags[tag]
            .queue
            .front()
            .map(|p| p.arrived)
            .unwrap_or(now);
        let view = SlotView {
            now,
            links: &self.links,
        };
        let missed = self.carriers[carrier]
            .sched
            .granted(tag, head_arrived, &view);
        self.metrics.tags[tag].grants += 1;
        if missed {
            self.metrics.tags[tag].deadline_misses += 1;
        }
        let waited = now.since(head_arrived);
        self.metrics.poll_latency_ms.push(waited.as_secs() * 1e3);
    }

    /// Tag `tag`'s uplink packet on its *live* tuning (a re-striped tag
    /// synthesizes onto its carrier's new sub-band): the primary band, the
    /// mirror band and the airtime in seconds. A double-sideband tag's
    /// carrier reflection places a mirror copy at `2·f_carrier − f_primary`
    /// (§2.3.1); single-sideband tags and card OOK (whose "primary"
    /// already straddles the carrier) have none.
    fn uplink(&self, tag: usize) -> (Band, Option<Band>, f64) {
        let spec = &self.scenario.tags[tag];
        let carrier_freq = self.scenario.carriers[spec.carrier].carrier_freq_hz();
        let phy = self.links.tag_phy(tag);
        let primary = Band::new(phy.center_freq_hz(carrier_freq), phy.bandwidth_hz());
        let mirror = match (spec.sideband, phy) {
            (SidebandMode::Double, NetPhy::Wifi { .. } | NetPhy::Zigbee { .. }) => Some(Band::new(
                2.0 * carrier_freq - primary.center_hz,
                primary.bandwidth_hz,
            )),
            _ => None,
        };
        (primary, mirror, phy.airtime_s(spec.payload_bytes))
    }

    /// Puts tag `tag`'s uplink packet on the air from `started` — `now` in
    /// open loop, one SIFS after a decoded poll in closed loop — and
    /// schedules its `TxEnd`. The medium holds the band from `now`, so a
    /// SIFS gap counts as part of the emission window. `what` opens the
    /// trace line.
    fn start_uplink(
        &mut self,
        tag: usize,
        now: Time,
        started: Time,
        what: impl FnOnce() -> String,
    ) {
        let (primary, mirror, airtime) = self.uplink(tag);
        let end = started.after_secs(airtime);
        if let Some(m) = mirror {
            // The mirror copy's airtime is charged to every receiver whose
            // channel it punctures (Fig. 12's coexistence cost) but the
            // tag's own sink: the copy rides its own packet.
            let scenario = self.scenario;
            let carrier_freq = scenario.carriers[scenario.tags[tag].carrier].carrier_freq_hz();
            let own_rx = self.links.tag_receiver(tag);
            for (r, rx) in scenario.receivers.iter().enumerate() {
                let rx_band = Band::new(rx.center_freq_hz(carrier_freq), rx.bandwidth_hz());
                if r != own_rx && m.overlaps(&rx_band) {
                    self.metrics.mirror_airtime_s[r] += airtime;
                }
            }
        }
        let tx_id = self
            .medium
            .start(Emitter::Tag(tag), primary, mirror, now, end);
        self.queue.schedule(
            end,
            EventKind::TxEnd {
                tag,
                tx_id,
                started,
            },
        );
        self.trace.record(now, || {
            format!(
                "{} ({} ns airtime{})",
                what(),
                Time::from_secs(airtime).as_nanos(),
                if mirror.is_some() { ", dsb mirror" } else { "" }
            )
        });
    }

    /// A tag's uplink packet ends at its sink. In open loop the reception
    /// decides the attempt; a closed-loop response instead starts the
    /// sink's ack one SIFS later, or times the transaction out.
    fn on_tx_end(&mut self, tag: usize, tx_id: u64, started: Time, now: Time) {
        let interferers = self.medium.finish(tx_id);
        let rx_idx = self.links.tag_receiver(tag);
        self.metrics.tags[tag].attempts += 1;
        self.tally(tag, |w| w.attempts += 1);
        let outcome = receive_outcome(
            self.scenario,
            &self.links,
            tag,
            Listener::Receiver(rx_idx),
            &interferers,
            &mut self.tags[tag].rng,
        );
        match outcome {
            RxOutcome::Collision => self.metrics.tags[tag].collided += 1,
            RxOutcome::External => self.metrics.tags[tag].external_collisions += 1,
            RxOutcome::LinkLoss => self.metrics.tags[tag].link_losses += 1,
            RxOutcome::Delivered => {}
        }

        let responding = self
            .mac_loop
            .as_ref()
            .is_some_and(|m| m.phase(tag) == LoopPhase::Responding);
        if !responding {
            // Open loop: delivery is decided here.
            if outcome == RxOutcome::Delivered {
                self.deliver(tag, now);
            } else {
                self.retry_packet(tag);
            }
            self.trace.record(now, || {
                format!(
                    "tag {tag} tx end ({}, started {} ns, {} interferer(s))",
                    outcome.label(),
                    started.as_nanos(),
                    interferers.len()
                )
            });
        } else if outcome == RxOutcome::Delivered {
            // The sink decoded the response: transmit the AM-OFDM ack one
            // SIFS later. Acks ride SIFS priority, no carrier-sense.
            let band = downlink_band(self.scenario, &self.links, tag);
            let ack_start = now.after_secs(mac::SIFS_S);
            let ack_end = ack_start.after_secs(mac::ack_airtime_s());
            let ack_tx = self
                .medium
                .start(Emitter::Sink(rx_idx), band, None, now, ack_end);
            self.mac_loop
                .as_mut()
                .expect("closed loop")
                .ack_started(tag);
            self.queue
                .schedule(ack_end, EventKind::AckEnd { tag, tx_id: ack_tx });
            self.trace.record(now, || {
                format!("tag {tag} response delivered; sink {rx_idx} ack start")
            });
        } else {
            // The response never made it: the sink times out and the
            // carrier will re-poll.
            self.metrics.tags[tag].timeouts += 1;
            self.retry_packet(tag);
            self.mac_loop.as_mut().expect("closed loop").finish(tag);
            self.trace.record(now, || {
                format!(
                    "tag {tag} response lost ({}, started {} ns, \
                     {} interferer(s)); sink timeout",
                    outcome.label(),
                    started.as_nanos(),
                    interferers.len()
                )
            });
        }
    }

    /// A poll ends at the tag's envelope detector. A decoded poll starts
    /// the backscatter response one SIFS later, while the carrier holds
    /// the tone; no carrier-sense — SIFS-spaced frames of one transaction
    /// own the reservation. A lost poll ends the transaction.
    fn on_poll_end(&mut self, tag: usize, tx_id: u64, now: Time) {
        let interferers = self.medium.finish(tx_id);
        let outcome = receive_outcome(
            self.scenario,
            &self.links,
            tag,
            Listener::Tag(tag),
            &interferers,
            &mut self.tags[tag].rng,
        );
        if outcome == RxOutcome::Delivered {
            self.start_uplink(tag, now, now.after_secs(mac::SIFS_S), || {
                format!("tag {tag} poll decoded; backscatter response start")
            });
            self.mac_loop
                .as_mut()
                .expect("closed loop")
                .response_started(tag);
        } else {
            self.metrics.tags[tag].poll_losses += 1;
            self.retry_packet(tag);
            self.mac_loop.as_mut().expect("closed loop").finish(tag);
            self.trace.record(now, || {
                format!(
                    "tag {tag} poll lost ({}, {} interferer(s))",
                    outcome.label(),
                    interferers.len()
                )
            });
        }
    }

    /// An ack ends at the carrier's radio, closing the transaction: a
    /// decoded ack delivers the packet, a lost one burns a retry.
    fn on_ack_end(&mut self, tag: usize, tx_id: u64, now: Time) {
        let interferers = self.medium.finish(tx_id);
        let carrier = self.scenario.tags[tag].carrier;
        let outcome = receive_outcome(
            self.scenario,
            &self.links,
            tag,
            Listener::Carrier(carrier),
            &interferers,
            &mut self.carriers[carrier].rng,
        );
        let poll_started = self.mac_loop.as_mut().expect("closed loop").finish(tag);
        if outcome == RxOutcome::Delivered {
            if self.deliver(tag, now) {
                let span = now.since(poll_started);
                self.metrics.tags[tag].transactions += 1;
                self.metrics.tags[tag].transaction_ns += span.as_nanos();
                self.metrics
                    .transaction_latency_ms
                    .push(span.as_secs() * 1e3);
            }
            self.trace.record(now, || {
                format!(
                    "tag {tag} ack decoded (transaction complete in {} ns)",
                    now.since(poll_started).as_nanos()
                )
            });
        } else {
            self.metrics.tags[tag].ack_losses += 1;
            self.retry_packet(tag);
            self.trace.record(now, || {
                format!(
                    "tag {tag} ack lost ({}, {} interferer(s))",
                    outcome.label(),
                    interferers.len()
                )
            });
        }
    }

    /// Delivers the packet at the head of `tag`'s queue at `now`: credits
    /// the carrier's scheduler and the tag's counters and records the
    /// packet's latency. `false` when the queue was empty.
    fn deliver(&mut self, tag: usize, now: Time) -> bool {
        let Some(packet) = self.tags[tag].queue.pop_front() else {
            return false;
        };
        let spec = &self.scenario.tags[tag];
        let bits = spec.phy.payload_bits(spec.payload_bytes);
        self.carriers[spec.carrier].sched.delivered(tag, bits);
        self.metrics.tags[tag].delivered += 1;
        self.metrics.tags[tag].delivered_bits += bits;
        self.tally(tag, |w| w.delivered += 1);
        let latency = now.since(packet.arrived);
        self.metrics.latency_ms.push(latency.as_secs() * 1e3);
        true
    }

    /// Bumps the windows that count `tag`: its carrier's under coex, its own
    /// under mobility. Runs without a sampler carry none of its windows.
    fn tally(&mut self, tag: usize, bump: fn(&mut Window)) {
        let carrier = self.scenario.tags[tag].carrier;
        let occupancy = self.coex.as_mut().map(|cx| &mut cx.sense[carrier].window);
        let mobility = self.mobility.as_mut().map(|mob| &mut mob.windows[tag]);
        occupancy.into_iter().chain(mobility).for_each(bump);
    }

    /// Burns one retry on the packet at the head of `tag`'s queue, dropping
    /// it once the retry budget is exhausted.
    fn retry_packet(&mut self, tag: usize) {
        let state = &mut self.tags[tag];
        if let Some(packet) = state.queue.front_mut() {
            packet.retries += 1;
            if packet.retries > self.scenario.tags[tag].max_retries {
                state.queue.pop_front();
                self.metrics.tags[tag].dropped += 1;
            }
        }
    }

    /// An external source wants the air: a CSMA source defers to a busy
    /// band with a backoff from its own stream; otherwise the emission
    /// starts, clipped at the source's activity window.
    fn on_coex_start(&mut self, source: usize, now: Time) {
        let cx = self.coex.as_mut().expect("coex event without config");
        let spec = &cx.config.sources[source];
        let band = spec.model.band();
        if spec.model.access() == MediumAccess::Csma && self.medium.busy(band, now) {
            // A well-behaved neighbour defers to the busy band (including
            // the §2.3.3 NAV — this is exactly the protection a
            // CTS-to-Self buys against external traffic) and retries after
            // a contention-window backoff from its own stream.
            self.metrics.coex_defers[source] += 1;
            let backoff = cx.rngs[source].gen_range(50e-6..500e-6);
            let retry = now.after_secs(backoff);
            if retry.as_secs() < spec.stop_s {
                self.queue.schedule(retry, EventKind::CoexStart { source });
            }
            return;
        }
        // Clip at the activity window's edge: `stop_s` means silent from
        // that instant on, even mid-burst.
        let dur = cx.pending_dur_s[source].min(spec.stop_s - now.as_secs());
        let end = now.after_secs(dur);
        let tx_id = if spec.model.access() == MediumAccess::Hidden {
            self.medium
                .start_hidden(Emitter::External(source), band, None, now, end)
        } else {
            self.medium
                .start(Emitter::External(source), band, None, now, end)
        };
        self.metrics.coex_emissions[source] += 1;
        self.metrics.coex_airtime_s[source] += dur;
        self.queue
            .schedule(end, EventKind::CoexEnd { source, tx_id });
        self.trace.record(now, || {
            format!(
                "coex {} {source}: {} ns on air",
                spec.model.slug(),
                Time::from_secs(dur).as_nanos()
            )
        });
    }

    /// An external emission ends: the medium is released and the source
    /// draws its next arrival from its own stream.
    fn on_coex_end(&mut self, source: usize, tx_id: u64, now: Time) {
        // External receptions are nobody's business: its interferers only
        // mattered to the in-model victims, whose own finishes collect them.
        let _ = self.medium.finish(tx_id);
        let cx = self.coex.as_mut().expect("coex event without config");
        let spec = &cx.config.sources[source];
        let (gap, dur) = spec.model.next_emission(&mut cx.rngs[source]);
        let start = now.after_secs(gap);
        if start.as_secs() < spec.stop_s {
            cx.pending_dur_s[source] = dur;
            self.queue.schedule(start, EventKind::CoexStart { source });
        }
    }

    /// A mobility tick: every tag advances one step of its walk, worn
    /// carriers follow their wearer, the link matrix refreshes the budgets
    /// the moves touch, and each tag records a PRR-vs-displacement sample.
    fn on_mobility_tick(&mut self, now: Time) {
        let scenario = self.scenario;
        let mob = self.mobility.as_mut().expect("tick without mobility");
        self.queue
            .schedule(now.after_nanos(mob.tick_ns), EventKind::MobilityTick);
        // Advance every tag's walk from its own RNG stream (in index order
        // — the determinism contract), pushing new positions into the
        // matrix as dirty entities.
        let dt_s = mob.tick_ns as f64 / 1e9;
        let mut moved = 0usize;
        for t in 0..scenario.tags.len() {
            let before = mob.states[t].position;
            mob.config.model.step(
                &mut mob.states[t],
                &mob.config.bounds,
                dt_s,
                &mut mob.rngs[t],
            );
            if mob.states[t].position != before {
                self.links
                    .set_position(EntityId::Tag(t), mob.states[t].position);
                moved += 1;
            }
        }
        if mob.config.carriers_follow {
            // Body-worn carriers ride rigidly with their single wearer
            // tag, preserving the scenario offset.
            for (c, wearer) in mob.carrier_wearer.iter().enumerate() {
                let Some(t) = *wearer else { continue };
                let state = &mob.states[t];
                let origin = mob.carrier_origin[c];
                let p = Position::new(
                    origin.x + (state.position.x - state.origin.x),
                    origin.y + (state.position.y - state.origin.y),
                    origin.z + (state.position.z - state.origin.z),
                );
                if p != self.links.position(EntityId::Carrier(c)) {
                    self.links.set_position(EntityId::Carrier(c), p);
                }
            }
        }
        let flush_tok = self.prof.as_mut().map(|p| p.begin("link_flush"));
        let refreshed = self.links.flush(scenario);
        if let (Some(p), Some(tok)) = (self.prof.as_mut(), flush_tok) {
            p.end(tok);
        }
        // One PRR-vs-displacement sample per tag per tick.
        let mut max_disp_mm = 0u64;
        for t in 0..scenario.tags.len() {
            let window = std::mem::take(&mut mob.windows[t]);
            self.metrics.mobility_series[t].push(MobilitySample {
                at_s: now.as_secs(),
                displacement_m: mob.states[t].displacement_m(),
                attempts: window.attempts,
                delivered: window.delivered,
            });
            max_disp_mm = max_disp_mm.max((mob.states[t].displacement_m() * 1e3).round() as u64);
        }
        self.trace.record(now, || {
            format!(
                "mobility tick: {moved} moved, {refreshed} entities refreshed, \
                 max displacement {max_disp_mm} mm"
            )
        });
    }

    /// One carrier slot's coexistence step (a no-op without a coex
    /// config): update the carrier's per-channel EWMA busy estimates from
    /// the medium's receive-side load, take the carrier's window into an
    /// [`OccupancySample`] on the configured cadence, and — when a
    /// [`crate::coex::ReStripe`] policy is attached — maybe re-tune the
    /// carrier and its Wi-Fi tags to the least-occupied sub-band.
    ///
    /// Re-striping is deterministic (no RNG), slot-aligned, hysteretic (an
    /// occupancy threshold *and* a dwell time) and quiescent: a carrier
    /// with a member mid-transmission or mid-transaction defers the move to
    /// a later check, so no tag is ever re-tuned with an emission in
    /// flight.
    fn sense_and_restripe(&mut self, carrier: usize, now: Time) {
        let Some(CoexRuntime {
            config,
            rx_bands,
            wifi_rx,
            sense,
            sample_ns,
            ..
        }) = self.coex.as_mut()
        else {
            return;
        };
        let scenario = self.scenario;
        let sense = &mut sense[carrier];
        sense.slots = sense.slots.wrapping_add(1);
        for (r, band) in rx_bands.iter().enumerate() {
            let busy = if self.medium.occupied(*band, now) {
                1.0
            } else {
                0.0
            };
            sense.ewma[r] += SENSE_EWMA_ALPHA * (busy - sense.ewma[r]);
        }
        // The carrier's own channel: where its members actually deliver (in
        // a striped scenario that *is* the stripe's sink, before and after
        // any re-stripe; in an unstriped multi-AP ward — whose tags cycle
        // the APs while every `subband` sits at 0 — the first member's live
        // sink is the one whose load matters). Memberless carriers fall
        // back to their stripe's sink.
        let sched = &mut self.carriers[carrier].sched;
        let own_rx = sched
            .members()
            .first()
            .map(|&t| self.links.tag_receiver(t))
            .unwrap_or_else(|| {
                if wifi_rx.is_empty() {
                    0
                } else {
                    wifi_rx[sched.subband().min(wifi_rx.len() - 1)]
                }
            });
        if now.since(sense.last_sample).as_nanos() >= *sample_ns {
            sense.last_sample = now;
            let window = std::mem::take(&mut sense.window);
            self.metrics.occupancy_series[carrier].push(OccupancySample {
                at_s: now.as_secs(),
                subband: sched.subband(),
                occupancy: sense.ewma[own_rx],
                attempts: window.attempts,
                delivered: window.delivered,
            });
        }

        let Some(policy) = config.restripe else {
            return;
        };
        if wifi_rx.len() < 2 || sense.slots % policy.check_every_slots != 0 {
            return;
        }
        if now.since(sense.last_restripe).as_nanos()
            < Time::from_secs(policy.min_dwell_s).as_nanos()
        {
            return;
        }
        // The carrier's current stripe, derived from where its members
        // deliver (so an unstriped ward's channel-6 carriers are judged on
        // channel 6, not on the never-assigned subband 0). A carrier whose
        // own channel is not a Wi-Fi sink has nothing to re-stripe.
        let Some(cur) = wifi_rx.iter().position(|&r| r == own_rx) else {
            return;
        };
        let cur_occ = sense.ewma[own_rx];
        if cur_occ <= policy.high_occupancy {
            return;
        }
        // The least-occupied candidate stripe; ties break toward the lower
        // stripe index (strict `<` with an ascending scan).
        let (mut best, mut best_occ) = (cur, cur_occ);
        for (b, &r) in wifi_rx.iter().enumerate() {
            if sense.ewma[r] < best_occ {
                (best, best_occ) = (b, sense.ewma[r]);
            }
        }
        if best == cur || best_occ + policy.hysteresis >= cur_occ {
            return;
        }
        let members = sched.members();
        let mac = self.mac_loop.as_ref();
        let quiescent = members
            .iter()
            .all(|&t| !self.medium.emitting(Emitter::Tag(t)) && mac.is_none_or(|m| m.is_idle(t)));
        let any_wifi = members
            .iter()
            .any(|&t| matches!(self.links.tag_phy(t), NetPhy::Wifi { .. }));
        if !quiescent || !any_wifi {
            return;
        }
        let to_rx = wifi_rx[best];
        let SinkKind::Wifi { channel } = scenario.receivers[to_rx].kind else {
            unreachable!("wifi_rx only holds Wi-Fi sinks");
        };
        for &t in members {
            let NetPhy::Wifi { rate, .. } = self.links.tag_phy(t) else {
                continue;
            };
            self.links
                .retune_tag(scenario, t, to_rx, NetPhy::Wifi { rate, channel });
        }
        self.links.flush(scenario);
        sched.set_subband(best);
        sense.last_restripe = now;
        self.metrics.restripe_events.push(ReStripeEvent {
            at_s: now.as_secs(),
            carrier,
            from_subband: cur,
            to_subband: best,
        });
        let (from_pct, to_pct) = (
            (cur_occ * 100.0).round() as u64,
            (best_occ * 100.0).round() as u64,
        );
        self.trace.record(now, || {
            format!(
                "carrier {carrier} re-stripe: subband {cur} -> {best} \
                 (occupancy {from_pct}% -> {to_pct}%)"
            )
        });
    }
}

/// The band an AM-OFDM downlink frame of `tag`'s transaction occupies: a
/// full 802.11g transmission centred on the band of the tag's *live* sink
/// (re-striping can re-tune it).
fn downlink_band(scenario: &Scenario, links: &LinkMatrix, tag: usize) -> Band {
    let sink = &scenario.receivers[links.tag_receiver(tag)];
    let carrier_freq = scenario.carriers[scenario.tags[tag].carrier].carrier_freq_hz();
    Band::new(sink.center_freq_hz(carrier_freq), AM_DOWNLINK_BANDWIDTH_HZ)
}

/// Arbitrates one reception of `tag`'s transaction at `at`, which names
/// the leg: the uplink packet at its sink ([`Listener::Receiver`]), the
/// poll at the tag ([`Listener::Tag`]) or the ack at the tag's carrier
/// ([`Listener::Carrier`]). The leg fixes the link budget and the victim
/// band; the loss model then runs three stages, in order:
///
/// 1. in-model collision with capture — the signal survives if it
///    outpowers the summed interferers that actually land in the victim's
///    band by [`CAPTURE_MARGIN_DB`];
/// 2. collision with external (unmodelled) Wi-Fi traffic on the band — the
///    tag's sink's `external_occupancy` — tamed by the §2.3.3 reservation;
/// 3. the link budget itself (lognormal shadowing around the median).
///
/// `rng` is the stream the leg draws from: the tag's for the uplink and
/// the poll, the carrier's for the ack.
fn receive_outcome<R: Rng>(
    scenario: &Scenario,
    links: &LinkMatrix,
    tag: usize,
    at: Listener,
    interferers: &[Interferer],
    rng: &mut R,
) -> RxOutcome {
    let sink = &scenario.receivers[links.tag_receiver(tag)];
    let carrier_freq = scenario.carriers[scenario.tags[tag].carrier].carrier_freq_hz();
    let (budget, victim_band) = match at {
        Listener::Receiver(_) => (
            links.budget(tag),
            Band::new(sink.center_freq_hz(carrier_freq), sink.bandwidth_hz()),
        ),
        Listener::Tag(_) => (links.poll_budget(tag), downlink_band(scenario, links, tag)),
        Listener::Carrier(_) => (links.ack_budget(tag), downlink_band(scenario, links, tag)),
    };
    let total_interference_mw: f64 = interferers
        .iter()
        .filter(|i| i.lands_in(&victim_band))
        .map(|i| 10f64.powf(links.power_dbm(i.who, at) / 10.0))
        .sum();
    let captured =
        budget.median_rssi_dbm >= 10.0 * total_interference_mw.log10() + CAPTURE_MARGIN_DB;
    if !interferers.is_empty() && !captured {
        // A failed capture with *only* coex emissions in the victim's band
        // is a loss to external traffic, not to the fleet's own contention
        // (an uncaptured reception always has at least one in-band
        // interferer, so `all` cannot be vacuous here).
        let all_external = interferers
            .iter()
            .filter(|i| i.lands_in(&victim_band))
            .all(|i| matches!(i.who, Emitter::External(_)));
        return if all_external {
            RxOutcome::External
        } else {
            RxOutcome::Collision
        };
    }
    let p_deliver = backscatter_delivery_probability(sink.external_occupancy, scenario.cts_to_self);
    if rng.gen_range(0.0..1.0) >= p_deliver {
        return RxOutcome::External;
    }
    let (ok, _rssi) = budget.packet_outcome(rng);
    if ok {
        RxOutcome::Delivered
    } else {
        RxOutcome::LinkLoss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{Bounds, MobilityModel, RandomWaypoint};
    use crate::scenario::{ExecutionSection, Scenario};

    /// Runs `scenario` with event-trace recording off.
    fn run_untraced(scenario: &Scenario, seed: u64) -> NetRunResult {
        let scenario = scenario
            .clone()
            .builder()
            .execution(ExecutionSection::new().trace(false))
            .build()
            .unwrap();
        run(&scenario, seed)
    }

    fn run(scenario: &Scenario, seed: u64) -> NetRunResult {
        crate::run(scenario, seed).unwrap()
    }

    #[test]
    fn runs_and_delivers_traffic() {
        let scenario = Scenario::hospital_ward(12);
        let result = run(&scenario, 7);
        let m = &result.metrics;
        // ~12 tags × 2 pps × 10 s ≈ 240 offered packets.
        assert!(m.offered_packets() > 120, "offered {}", m.offered_packets());
        assert!(m.delivered_packets() > 0);
        assert!(m.throughput_bps() > 0.0);
        assert!(m.jain_fairness() > 0.0 && m.jain_fairness() <= 1.0);
        assert!(!result.trace.records().is_empty());
    }

    #[test]
    fn same_seed_reproduces_different_seed_diverges() {
        let scenario = Scenario::hospital_ward(8);
        let a = run(&scenario, 99);
        let b = run(&scenario, 99);
        assert_eq!(a.trace.to_bytes(), b.trace.to_bytes());
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        let c = run(&scenario, 100);
        assert_ne!(a.trace.to_bytes(), c.trace.to_bytes());
    }

    #[test]
    fn trace_can_be_disabled() {
        let scenario = Scenario::contact_lens_fleet(6);
        let result = run_untraced(&scenario, 3);
        assert!(result.trace.records().is_empty());
        assert!(result.metrics.offered_packets() > 0);
    }

    #[test]
    fn contention_grows_with_fleet_size() {
        // More tags per carrier slot supply → lower delivery ratio.
        let small = run_untraced(&Scenario::contact_lens_fleet(2), 5);
        let mut big_scenario = Scenario::contact_lens_fleet(48);
        // Stress: one carrier only, so 48 tags share 100 slots/s.
        for tag in &mut big_scenario.tags {
            tag.carrier = 0;
        }
        big_scenario.carriers.truncate(1);
        let big = run_untraced(&big_scenario, 5);
        assert!(
            big.metrics.delivery_ratio() < small.metrics.delivery_ratio(),
            "small {} vs big {}",
            small.metrics.delivery_ratio(),
            big.metrics.delivery_ratio()
        );
        // Saturated carriers leave latency well above the idle case.
        let p50_small = small.metrics.latency_ms.median().unwrap_or(0.0);
        let p50_big = big.metrics.latency_ms.median().unwrap_or(f64::INFINITY);
        assert!(p50_big > p50_small, "latency {p50_small} vs {p50_big}");
    }

    #[test]
    fn card_room_runs_on_shared_spectrum() {
        let scenario = Scenario::card_to_card_room(9);
        let result = run(&scenario, 11);
        // All pairs share one band: carrier-slot scheduling must still
        // deliver most packets (one tx at a time).
        assert!(result.metrics.delivered_packets() > 0);
        assert!(
            result.metrics.per() < 0.5,
            "card room PER {}",
            result.metrics.per()
        );
    }

    #[test]
    fn zigbee_wing_delivers() {
        let scenario = Scenario::zigbee_wing(10);
        let result = run_untraced(&scenario, 21);
        assert!(result.metrics.delivered_packets() > 0);
    }

    #[test]
    fn closed_loop_completes_transactions() {
        for (_, preset) in crate::scenario::catalogue() {
            let scenario = preset.closed_loop();
            let result = run(&scenario, 13);
            let m = &result.metrics;
            assert!(m.polls() > 0, "{}: no polls", scenario.name);
            assert!(
                m.completed_transactions() > 0,
                "{}: no completed transactions",
                scenario.name
            );
            assert_eq!(
                m.completed_transactions(),
                m.delivered_packets(),
                "{}: every delivery must ride a transaction",
                scenario.name
            );
            assert!(
                m.transaction_latency_ms.median().unwrap_or(0.0) > 0.0,
                "{}: transactions must take time",
                scenario.name
            );
            // The trace shows the full poll → backscatter → ack loop.
            let text = String::from_utf8(result.trace.to_bytes()).unwrap();
            assert!(text.contains("poll"), "{}: no polls traced", scenario.name);
            assert!(
                text.contains("backscatter response start"),
                "{}: no responses traced",
                scenario.name
            );
            assert!(
                text.contains("ack decoded (transaction complete"),
                "{}: no acks traced",
                scenario.name
            );
        }
    }

    #[test]
    fn closed_loop_accounting_is_conserved() {
        let scenario = Scenario::hospital_ward(16).closed_loop();
        let m = run_untraced(&scenario, 4).metrics;
        for (t, stats) in m.tags.iter().enumerate() {
            // Every poll resolves as a loss, a timeout, an ack loss, a
            // completed transaction — or is still in flight at the horizon.
            let resolved =
                stats.poll_losses + stats.timeouts + stats.ack_losses + stats.transactions;
            assert!(
                stats.polls >= resolved && stats.polls <= resolved + 1,
                "tag {t}: polls {} vs resolved {resolved}",
                stats.polls
            );
            // Attempts are responses: only decoded polls backscatter.
            assert!(
                stats.attempts <= stats.polls - stats.poll_losses,
                "tag {t}: attempts {} polls {} losses {}",
                stats.attempts,
                stats.polls,
                stats.poll_losses
            );
        }
        // The loop costs airtime: some polls are lost to the downlink
        // margin or contention, so completion is below 1.
        assert!(m.transaction_completion_rate() <= 1.0);
    }

    #[test]
    fn closed_loop_counts_every_lost_poll() {
        // One carrier's downlink sits far below its tags' envelope-detector
        // sensitivity, so its polls are lost again and again. A granted
        // slot either starts a backscatter response (an attempt) or loses
        // its poll; only the one transaction in flight at the horizon may
        // be neither.
        let mut scenario = Scenario::hospital_ward(8).closed_loop();
        let starved = scenario.tags[0].carrier;
        scenario.carriers[starved].tx_power_dbm = -90.0;
        let m = run_untraced(&scenario, 5).metrics;
        let members: Vec<usize> = (0..scenario.tags.len())
            .filter(|&t| scenario.tags[t].carrier == starved)
            .collect();
        assert!(!members.is_empty());
        for t in members {
            let stats = &m.tags[t];
            assert!(stats.poll_losses >= 2, "tag {t}: {stats:?}");
            let resolved = stats.attempts + stats.poll_losses;
            assert!(
                (resolved..=resolved + 1).contains(&stats.grants),
                "tag {t}: grants {} vs attempts {} + poll losses {}",
                stats.grants,
                stats.attempts,
                stats.poll_losses
            );
        }
    }

    #[test]
    fn closed_loop_is_deterministic() {
        let scenario = Scenario::hospital_ward(12).closed_loop();
        let a = run(&scenario, 123);
        let b = run(&scenario, 123);
        assert_eq!(a.trace.to_bytes(), b.trace.to_bytes());
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        let c = run(&scenario, 124);
        assert_ne!(a.trace.to_bytes(), c.trace.to_bytes());
    }

    #[test]
    fn mobile_runs_are_deterministic_and_track_displacement() {
        let scenario = Scenario::ambulatory_ward(8);
        let a = run(&scenario, 5);
        let b = run(&scenario, 5);
        assert_eq!(a.trace.to_bytes(), b.trace.to_bytes());
        assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        let c = run(&scenario, 6);
        assert_ne!(a.trace.to_bytes(), c.trace.to_bytes());

        let text = String::from_utf8(a.trace.to_bytes()).unwrap();
        assert!(text.contains("mobility tick"), "no ticks traced");
        // 10 s at a 100 ms tick: one PRR sample per tick per tag.
        assert!(
            a.metrics.mobility_series[0].len() >= 99,
            "samples {}",
            a.metrics.mobility_series[0].len()
        );
        // Patients actually walk: metres of displacement by the horizon.
        assert!(
            a.metrics.max_displacement_m() > 1.0,
            "max displacement {}",
            a.metrics.max_displacement_m()
        );
        // Worn carriers keep the illumination hop alive, so traffic still
        // flows while patients wander.
        assert!(a.metrics.delivered_packets() > 0);
    }

    #[test]
    fn walking_away_from_a_bedside_carrier_starves_the_uplink() {
        // Same ward, but the helpers stay at the bedside while the
        // patients walk: the carrier → tag hop collapses with distance and
        // delivery must fall well below the static ward's.
        let static_ward = Scenario::hospital_ward(10);
        let mobile_ward = Scenario::hospital_ward(10)
            .builder()
            .mobility(MobilityConfig {
                model: MobilityModel::RandomWaypoint(RandomWaypoint {
                    speed_min_mps: 0.8,
                    speed_max_mps: 1.5,
                    pause_s: 0.5,
                }),
                tick_interval_s: 0.1,
                bounds: Bounds::room(12.0, 9.0, 1.0),
                carriers_follow: false,
            })
            .build()
            .unwrap();
        let fixed = run_untraced(&static_ward, 11).metrics;
        let walking = run_untraced(&mobile_ward, 11).metrics;
        assert!(fixed.mobility_series.iter().all(|s| s.is_empty()));
        assert!(
            walking.delivery_ratio() < fixed.delivery_ratio() - 0.2,
            "static {} vs walking {}",
            fixed.delivery_ratio(),
            walking.delivery_ratio()
        );
        // The PRR-vs-displacement series shows the same story: links near
        // the starting geometry beat links far from it.
        let near = walking.prr_in_displacement_band(0.0, 1.0);
        let far = walking.prr_in_displacement_band(3.0, f64::INFINITY);
        if let (Some((near_prr, _)), Some((far_prr, _))) = (near, far) {
            assert!(
                near_prr > far_prr,
                "near PRR {near_prr} vs far PRR {far_prr}"
            );
        } else {
            panic!("both displacement bands must see attempts: {near:?} vs {far:?}");
        }
    }

    #[test]
    fn closed_loop_survives_mobility() {
        let scenario = Scenario::ambulatory_ward(6).closed_loop();
        let result = run(&scenario, 13);
        let m = &result.metrics;
        assert!(m.polls() > 0);
        assert!(
            m.completed_transactions() > 0,
            "no transactions completed while walking"
        );
        assert_eq!(m.completed_transactions(), m.delivered_packets());
        assert!(m.max_displacement_m() > 1.0);
        // Determinism holds with the full poll/ack loop and mobility
        // interleaved.
        let replay = run(&scenario, 13);
        assert_eq!(result.trace.to_bytes(), replay.trace.to_bytes());
    }

    #[test]
    fn round_robin_reproduces_pre_extraction_traces() {
        // Digests captured from the engine *before* the scheduler was
        // extracted into `sched.rs` (commit e60cecf): the default
        // round-robin policy must keep producing these bytes, or the
        // extraction changed behaviour. (The constants assume the usual
        // glibc libm; a platform with a different `ln`/`log10` rounding
        // would shift them while same-binary determinism still holds.)
        // The two `coex` cases attach an empty coex config: the sinks'
        // `external_occupancy` scalars must still fold, so they reproduce
        // the plain wards' digests.
        let with_empty_coex = |s: Scenario| {
            s.builder()
                .coex(CoexConfig::default())
                .build()
                .expect("empty coex config builds")
        };
        let cases: [(&str, Scenario, u64, u64); 8] = [
            (
                "open ward",
                Scenario::hospital_ward(12),
                7,
                0x7FFE_41A8_87B8_D4D2,
            ),
            (
                "closed ward",
                Scenario::hospital_ward(10).closed_loop(),
                13,
                0xA9EF_B8C8_FD03_1709,
            ),
            (
                "open ward + empty coex",
                with_empty_coex(Scenario::hospital_ward(12)),
                7,
                0x7FFE_41A8_87B8_D4D2,
            ),
            (
                "closed ward + empty coex",
                with_empty_coex(Scenario::hospital_ward(10).closed_loop()),
                13,
                0xA9EF_B8C8_FD03_1709,
            ),
            (
                "mobile ward",
                Scenario::ambulatory_ward(8),
                5,
                0x55C3_1028_8FE0_2A99,
            ),
            (
                "mobile closed ward",
                Scenario::ambulatory_ward(6).closed_loop(),
                21,
                0x1F17_3B41_0172_34F0,
            ),
            (
                "card room",
                Scenario::card_to_card_room(6),
                11,
                0x4496_0DA0_D925_6BE8,
            ),
            (
                "zigbee wing",
                Scenario::zigbee_wing(10),
                3,
                0x2E0F_8E80_91EC_18D0,
            ),
        ];
        // Every case runs before one comparison, so a change that moves
        // several digests names them all.
        let got: Vec<String> = cases
            .iter()
            .map(|(what, scenario, seed, _)| {
                format!("{what}: {:#018X}", run(scenario, *seed).trace.digest())
            })
            .collect();
        let want: Vec<String> = cases
            .iter()
            .map(|(what, _, _, expect)| format!("{what}: {expect:#018X}"))
            .collect();
        assert_eq!(
            got, want,
            "trace digests moved from the pre-extraction pins"
        );
    }

    #[test]
    fn engine_core_swap_reproduces_pre_refactor_traces() {
        // Digests captured from the engine *before* the city-scale core
        // swap (binary-heap EventQueue → hierarchical timing wheel,
        // linear-scan medium → band-indexed emission set, AoS hot tables →
        // SoA): every preset across every axis — open/closed loop,
        // mobility, scheduling policies, sub-band striping, coexistence,
        // mid-run re-striping — must keep producing these exact bytes.
        // They also pin the later wheel → 4-ary heap swap, unedited.
        // (Like the digests above, the constants assume the usual glibc
        // libm rounding.)
        use crate::coex::ReStripe;
        use crate::sched::SchedPolicy;
        let cases: Vec<(&str, Scenario, u64)> = vec![
            (
                "hospital_ward_12_open",
                Scenario::hospital_ward(12),
                0x90B0_EB83_F4F6_9E17,
            ),
            (
                "hospital_ward_12_closed",
                Scenario::hospital_ward(12).closed_loop(),
                0x6455_9DBC_CAF9_81EF,
            ),
            (
                "contact_lens_8_open",
                Scenario::contact_lens_fleet(8),
                0xEA8D_FD36_BBD3_8671,
            ),
            (
                "contact_lens_8_closed",
                Scenario::contact_lens_fleet(8).closed_loop(),
                0xC50B_2F9E_9D51_5AE2,
            ),
            (
                "card_room_6_open",
                Scenario::card_to_card_room(6),
                0x8792_1070_7FB0_CDCA,
            ),
            (
                "card_room_6_closed",
                Scenario::card_to_card_room(6).closed_loop(),
                0x071D_B96D_E091_78D4,
            ),
            (
                "zigbee_wing_10_open",
                Scenario::zigbee_wing(10),
                0x7A6B_6E55_5F1D_38AD,
            ),
            (
                "zigbee_wing_10_closed",
                Scenario::zigbee_wing(10).closed_loop(),
                0xEA04_B1B9_EB0D_F36D,
            ),
            (
                "ambulatory_8_open",
                Scenario::ambulatory_ward(8),
                0x479B_17BF_EC48_1775,
            ),
            (
                "ambulatory_8_closed",
                Scenario::ambulatory_ward(8).closed_loop(),
                0xFA55_BB09_E675_951E,
            ),
            (
                "walking_8",
                Scenario::walking_ward(8),
                0x575B_4B06_5573_0AC7,
            ),
            (
                "walking_8_margin",
                Scenario::walking_ward(8)
                    .builder()
                    .scheduling(SchedPolicy::margin_aware())
                    .build()
                    .unwrap(),
                0xF140_4873_4D67_7F54,
            ),
            (
                "congested_10_open",
                Scenario::congested_ward(10),
                0x3219_5606_8ED4_A18A,
            ),
            (
                "congested_10_restripe",
                Scenario::congested_ward(10).with_restripe(ReStripe::default()),
                0x0C1E_CF22_AA41_DFF3,
            ),
            (
                "congested_8_closed_restripe",
                Scenario::congested_ward(8)
                    .closed_loop()
                    .with_restripe(ReStripe::default()),
                0xB83F_C0B5_6039_5C1E,
            ),
            (
                "hospital_16_striped_pf",
                Scenario::hospital_ward(16)
                    .with_subband_striping()
                    .builder()
                    .scheduling(SchedPolicy::proportional_fair())
                    .build()
                    .unwrap(),
                0xDAC0_2872_E363_DFB1,
            ),
            (
                "hospital_12_deadline_closed",
                Scenario::hospital_ward(12)
                    .closed_loop()
                    .builder()
                    .scheduling(SchedPolicy::deadline_aware())
                    .build()
                    .unwrap(),
                0x6217_9E49_3798_3BEF,
            ),
        ];
        // Every case runs before one comparison, so a change that moves
        // several digests names them all.
        let got: Vec<String> = cases
            .iter()
            .map(|(what, scenario, _)| {
                format!("{what}: {:#018X}", run(scenario, 42).trace.digest())
            })
            .collect();
        let want: Vec<String> = cases
            .iter()
            .map(|(what, _, expect)| format!("{what}: {expect:#018X}"))
            .collect();
        assert_eq!(got, want, "trace digests moved from the pre-refactor pins");
    }

    #[test]
    fn every_policy_runs_and_is_deterministic() {
        use crate::sched::SchedPolicy;
        for policy in [
            SchedPolicy::RoundRobin,
            SchedPolicy::proportional_fair(),
            SchedPolicy::deadline_aware(),
            SchedPolicy::margin_aware(),
        ] {
            let scenario = Scenario::walking_ward(10)
                .closed_loop()
                .builder()
                .scheduling(policy)
                .build()
                .unwrap();
            let a = run(&scenario, 17);
            let b = run(&scenario, 17);
            assert_eq!(
                a.trace.to_bytes(),
                b.trace.to_bytes(),
                "{}: same-seed traces must match",
                scenario.name
            );
            assert!(
                a.metrics.delivered_packets() > 0,
                "{}: nothing delivered",
                scenario.name
            );
            assert!(
                a.metrics.grants() >= a.metrics.polls(),
                "{}: every poll rides a grant",
                scenario.name
            );
        }
    }

    #[test]
    fn margin_aware_beats_round_robin_prr_on_the_walking_ward() {
        // The acceptance bar of the scheduler extraction: with live
        // margins from the mobility-refreshed LinkMatrix, skipping
        // mid-fade tags (starvation-bounded) must convert into a higher
        // packet reception ratio than blind rotation.
        let seed = 42;
        let rr = run_untraced(&Scenario::walking_ward(12).closed_loop(), seed).metrics;
        let ma = run_untraced(
            &Scenario::walking_ward(12)
                .closed_loop()
                .builder()
                .scheduling(crate::sched::SchedPolicy::margin_aware())
                .build()
                .unwrap(),
            seed,
        )
        .metrics;
        let (prr_rr, prr_ma) = (1.0 - rr.per(), 1.0 - ma.per());
        assert!(
            prr_ma > prr_rr + 0.1,
            "margin-aware PRR {prr_ma:.3} vs round-robin {prr_rr:.3}"
        );
        // The bound holds: every tag still got polled.
        assert!(
            ma.tags.iter().all(|t| t.grants > 0),
            "starvation bound must keep every tag polled"
        );
    }

    #[test]
    fn deadline_misses_surface_under_congestion() {
        let scenario = Scenario::walking_ward(12)
            .closed_loop()
            .builder()
            .scheduling(crate::sched::SchedPolicy::deadline_aware())
            .build()
            .unwrap();
        let m = run_untraced(&scenario, 42).metrics;
        assert!(m.grants() > 0);
        assert!(
            m.deadline_misses() > 0,
            "a congested walking ward must miss 50 ms deadlines"
        );
        assert!(m.deadline_miss_rate() > 0.0 && m.deadline_miss_rate() < 1.0);
        // Deadline-blind policies never report misses.
        let rr = run_untraced(&Scenario::walking_ward(12).closed_loop(), 42).metrics;
        assert_eq!(rr.deadline_misses(), 0);
    }

    #[test]
    fn grants_feed_poll_latency_and_fairness() {
        let m = run_untraced(&Scenario::hospital_ward(12), 7).metrics;
        // Open loop: every attempt was a granted slot.
        assert_eq!(m.grants(), m.attempts());
        assert_eq!(m.poll_latency_ms.samples().len(), m.grants());
        let fairness = m.grant_fairness();
        assert!(fairness > 0.0 && fairness <= 1.0, "fairness {fairness}");
        assert!(m.report().contains("scheduler:"), "{}", m.report());
    }

    #[test]
    fn subband_striping_separates_neighbouring_carriers() {
        let plain = Scenario::hospital_ward(12);
        let striped = Scenario::hospital_ward(12).with_subband_striping();
        striped.validate().unwrap();
        assert!(striped.name.ends_with("striped"));
        // Carriers stripe 0,1,2,0,… across the three APs and their tags
        // follow their carrier's stripe.
        for (c, carrier) in striped.carriers.iter().enumerate() {
            assert_eq!(carrier.subband, c % 3);
        }
        for tag in &striped.tags {
            assert_eq!(tag.receiver, striped.carriers[tag.carrier].subband);
        }
        // Both run; striping changes the channel map, hence the trace.
        let a = run(&plain, 9);
        let b = run(&striped, 9);
        assert!(b.metrics.delivered_packets() > 0);
        assert_ne!(a.trace.to_bytes(), b.trace.to_bytes());
    }

    #[test]
    fn external_traffic_congests_the_hammered_stripe() {
        // The static-striping half of the acceptance bar: from t = 3 s a
        // hidden Wi-Fi transmitter hammers channel 6, so stripe-1 tags
        // keep transmitting (they cannot hear it) and lose captures at
        // their AP — external collisions, not fleet contention.
        let quiet = run_untraced(&Scenario::hospital_ward(12).with_subband_striping(), 42).metrics;
        let congested = run(&Scenario::congested_ward(12), 42).metrics;
        assert!(congested.external_emissions() > 100);
        assert!(congested.external_airtime_s() > 1.0);
        let ext: usize = congested.tags.iter().map(|t| t.external_collisions).sum();
        assert!(ext > 50, "external collisions {ext}");
        assert!(
            congested.per() > quiet.per() + 0.2,
            "PER quiet {:.3} vs congested {:.3}",
            quiet.per(),
            congested.per()
        );
        // The trace shows the external bursts.
        let result = run(&Scenario::congested_ward(12), 42);
        let text = String::from_utf8(result.trace.to_bytes()).unwrap();
        assert!(
            text.contains("coex wifi-bursty"),
            "no coex emissions traced"
        );
    }

    #[test]
    fn occupancy_sensing_tracks_the_hammered_channel() {
        // Carrier 1 sits on stripe 1 (channel 6, the hammered one),
        // carrier 0 on stripe 0 (channel 1): their sensed-occupancy series
        // must diverge once the hidden source switches on at t = 3 s.
        let m = run_untraced(&Scenario::congested_ward(12), 42).metrics;
        let late_peak = |c: usize| -> f64 {
            m.occupancy_series[c]
                .iter()
                .filter(|s| s.at_s > 4.0)
                .map(|s| s.occupancy)
                .fold(0.0, f64::max)
        };
        assert!(late_peak(1) > 0.4, "hammered stripe peak {}", late_peak(1));
        assert!(late_peak(0) < 0.2, "quiet stripe peak {}", late_peak(0));
        // Before the source switches on, everyone is quiet.
        let early_peak = m.occupancy_series[1]
            .iter()
            .filter(|s| s.at_s < 2.9)
            .map(|s| s.occupancy)
            .fold(0.0, f64::max);
        assert!(early_peak < 0.1, "early peak {early_peak}");
        // The PRR-under-congestion readout orders the same way.
        let (quiet_prr, _) = m.prr_in_occupancy_band(0.0, 0.3).expect("quiet samples");
        let (busy_prr, _) = m
            .prr_in_occupancy_band(0.3, f64::INFINITY)
            .expect("busy samples");
        assert!(
            quiet_prr > busy_prr + 0.2,
            "PRR quiet {quiet_prr:.3} vs busy {busy_prr:.3}"
        );
    }

    #[test]
    fn sensing_follows_member_channels_without_striping() {
        use crate::coex::{CoexConfig, CoexSource, ReStripe};
        // In the *unstriped* ward every carrier's `subband` is 0 while its
        // tags cycle the three APs — sensing must read the channel the
        // members actually deliver on, not the never-assigned stripe.
        // Carrier 2's first member (tag 4) delivers to the channel-6 AP;
        // carrier 0's (tag 0) to channel 1.
        let hammered = Scenario::hospital_ward(12)
            .builder()
            .coex(CoexConfig::with_sources(vec![CoexSource::hidden_wifi(
                Position::new(6.0, 8.0, 2.0),
                6,
                0.6,
            )]))
            .build()
            .unwrap();
        let m = run_untraced(&hammered, 42).metrics;
        assert!(
            m.peak_occupancy(2).unwrap() > 0.4,
            "channel-6 carrier sensed {:?}",
            m.peak_occupancy(2)
        );
        assert!(
            m.peak_occupancy(0).unwrap() < 0.2,
            "channel-1 carrier sensed {:?}",
            m.peak_occupancy(0)
        );
        // And re-striping keys on the same member-derived channel: the
        // channel-6 carriers escape even though their subband was 0.
        let adaptive = run_untraced(&hammered.with_restripe(ReStripe::default()), 42).metrics;
        assert!(adaptive.restripes() > 0, "no re-stripes fired");
        assert!(adaptive
            .restripe_events
            .iter()
            .all(|e| e.from_subband == 1 && e.to_subband != 1));
    }

    #[test]
    fn coex_activity_window_clips_emissions() {
        use crate::coex::{CoexConfig, CoexSource};
        // A source windowed to [1 s, 2 s) must put airtime on the medium
        // inside the window and none after it — even when a burst is
        // drawn just before the edge (emissions clip at stop_s).
        let mut scenario = Scenario::hospital_ward(4)
            .builder()
            .coex(CoexConfig::with_sources(vec![CoexSource::hidden_wifi(
                Position::new(6.0, 8.0, 2.0),
                6,
                0.6,
            )
            .active(1.0, 2.0)]))
            .build()
            .unwrap();
        scenario.duration_s = 4.0;
        let result = run(&scenario, 5);
        let m = &result.metrics;
        assert!(
            m.coex_emissions[0] > 20,
            "emissions {}",
            m.coex_emissions[0]
        );
        assert!(
            m.coex_airtime_s[0] > 0.3 && m.coex_airtime_s[0] <= 1.0 + 1e-9,
            "airtime {} outside the 1 s window",
            m.coex_airtime_s[0]
        );
        // No trace line of an external burst at or past the stop instant.
        let text = String::from_utf8(result.trace.to_bytes()).unwrap();
        for line in text.lines().filter(|l| l.contains("coex wifi-bursty")) {
            let ns: u64 = line[1..13].trim().parse().unwrap();
            assert!(ns < 2_000_000_000, "burst started at {ns} ns");
        }
    }

    #[test]
    fn adaptive_restriping_beats_static_on_the_congested_ward() {
        // The acceptance bar of this PR, pinned at a fixed seed: with the
        // default ReStripe policy the stripe-1 carriers sense the spike,
        // re-tune themselves and their tags to the quietest sub-band, and
        // convert the escape into a large PRR uplift over static striping.
        let seed = 42;
        let fixed = run_untraced(&Scenario::congested_ward(12), seed).metrics;
        let scenario = Scenario::congested_ward(12).with_restripe(crate::coex::ReStripe::default());
        let result = run(&scenario, seed);
        let adaptive = &result.metrics;
        let (prr_fixed, prr_adaptive) = (1.0 - fixed.per(), 1.0 - adaptive.per());
        assert!(
            prr_adaptive > prr_fixed + 0.2,
            "adaptive PRR {prr_adaptive:.3} vs static {prr_fixed:.3}"
        );
        // Both stripe-1 carriers re-tuned, shortly after the spike began,
        // and the decisions are trace-visible.
        assert!(
            adaptive.restripes() >= 2,
            "re-stripes {}",
            adaptive.restripes()
        );
        for e in &adaptive.restripe_events {
            assert!(e.at_s >= 3.0, "re-stripe before the spike at {} s", e.at_s);
            assert_eq!(e.from_subband, 1, "only the hammered stripe moves");
            assert_ne!(e.to_subband, 1);
        }
        let text = String::from_utf8(result.trace.to_bytes()).unwrap();
        assert!(
            text.contains("re-stripe: subband 1 ->"),
            "no re-stripe traced"
        );
        // Determinism holds across the mid-run re-stripe.
        let replay = run(&scenario, seed);
        assert_eq!(result.trace.to_bytes(), replay.trace.to_bytes());
    }

    #[test]
    fn csma_coex_sources_defer_to_the_fleet() {
        use crate::coex::{CoexConfig, CoexSource};
        // A well-behaved neighbour AP on the lens fleet's only channel:
        // heavy load means it keeps bumping into the fleet's emissions and
        // NAV reservations, deferring with a backoff each time.
        let scenario = Scenario::contact_lens_fleet(8)
            .builder()
            .coex(CoexConfig::with_sources(vec![CoexSource::wifi_neighbor(
                Position::new(1.5, 1.5, 2.0),
                11,
                0.5,
            )]))
            .build()
            .unwrap();
        let m = run_untraced(&scenario, 9).metrics;
        assert!(m.external_emissions() > 50);
        let defers: usize = m.coex_defers.iter().sum();
        assert!(defers > 0, "a CSMA source must defer sometimes");
        // The fleet's carrier-sense hears the visible neighbour too.
        let fleet_defers: usize = m.tags.iter().map(|t| t.csma_defers).sum();
        assert!(fleet_defers > 0, "the fleet must defer to visible bursts");
    }

    #[test]
    fn every_generator_kind_runs_deterministically() {
        use crate::coex::{CoexConfig, CoexSource};
        let config = CoexConfig::with_sources(vec![
            CoexSource::wifi_neighbor(Position::new(6.0, 8.0, 2.0), 6, 0.2),
            CoexSource::hidden_wifi(Position::new(2.0, 8.0, 2.0), 1, 0.1),
            CoexSource::ble_beacon(Position::new(0.5, 0.5, 1.0), 0.05),
            CoexSource::zigbee_neighbor(Position::new(11.0, 1.0, 1.0), 17, 30.0),
            CoexSource::microwave_oven(Position::new(11.5, 8.5, 1.0)),
        ]);
        for scenario in [
            Scenario::hospital_ward(10)
                .builder()
                .coex(config.clone())
                .build()
                .unwrap(),
            Scenario::hospital_ward(10)
                .closed_loop()
                .builder()
                .coex(config.clone())
                .build()
                .unwrap(),
        ] {
            let a = run(&scenario, 31);
            let b = run(&scenario, 31);
            assert_eq!(
                a.trace.to_bytes(),
                b.trace.to_bytes(),
                "{}: same-seed coex traces must match",
                scenario.name
            );
            let c = run(&scenario, 32);
            assert_ne!(a.trace.to_bytes(), c.trace.to_bytes());
            // Every source of every kind actually emitted.
            assert_eq!(a.metrics.coex_emissions.len(), 5);
            for (k, &emissions) in a.metrics.coex_emissions.iter().enumerate() {
                assert!(emissions > 0, "{}: source {k} never emitted", scenario.name);
            }
            assert!(a.metrics.delivered_packets() > 0);
        }
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = rand::derive_stream_seed(1, 1, 0);
        let b = rand::derive_stream_seed(1, 1, 1);
        let c = rand::derive_stream_seed(1, 2, 0);
        let d = rand::derive_stream_seed(2, 1, 0);
        assert!(a != b && a != c && a != d && b != c);
    }
}
