//! The scenario library: deployments of many tags, carriers and receivers,
//! built on the application profiles of `interscatter-sim`'s §5 scenarios.
//!
//! All builders are pure functions of their arguments — positions and
//! assignments are laid out deterministically, so a scenario plus a seed
//! fully determines a run. Layouts respect the paper's link geometry: a
//! backscatter tag must sit within roughly a metre of its illuminating
//! carrier (Figs. 10/15/16 place the Bluetooth source inches to feet from
//! the tag), while the receiver can be across the room.

use crate::coex::{CoexConfig, CoexSource, ReStripe};
use crate::entities::{
    CarrierSource, NetPhy, Position, SinkKind, SinkReceiver, TagNode, TagProfile,
};
use crate::mac::MacMode;
use crate::mobility::{Bounds, MobilityConfig, MobilityModel, RandomWaypoint};
use crate::sched::SchedPolicy;
use crate::NetError;
use interscatter_backscatter::tag::SidebandMode;
use interscatter_wifi::dot11b::DsssRate;

/// A complete network scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable name, used in reports.
    pub name: String,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// The BLE carrier providers.
    pub carriers: Vec<CarrierSource>,
    /// The backscatter tags.
    pub tags: Vec<TagNode>,
    /// The receivers.
    pub receivers: Vec<SinkReceiver>,
    /// Whether carriers place CTS-to-Self reservations before triggering a
    /// tag (§2.3.3).
    pub cts_to_self: bool,
    /// Per-tag queue capacity; arrivals beyond this are dropped.
    pub max_queue: usize,
    /// Open-loop slot granting or the closed poll/ack loop
    /// ([`crate::mac`]).
    pub mac: MacMode,
    /// How (and whether) the tags move during the run
    /// ([`crate::mobility`]). `None` keeps every entity where the builder
    /// placed it.
    pub mobility: Option<MobilityConfig>,
    /// Which tag each carrier slot illuminates ([`crate::sched`]). The
    /// default [`SchedPolicy::RoundRobin`] reproduces the pre-extraction
    /// engine byte for byte.
    pub scheduler: SchedPolicy,
    /// External coexistence traffic, occupancy sensing and (optionally)
    /// adaptive sub-band re-striping ([`crate::coex`]). `None` means
    /// nothing external ever touches the medium and nothing is sensed.
    /// Either way each sink's `external_occupancy` scalar is folded into
    /// its delivery probability.
    pub coex: Option<CoexConfig>,
    /// Run-shape knobs ([`ExecutionConfig`]): Monte-Carlo trial count,
    /// trace recording, profiling and the progress cadence. None of them
    /// changes what a run computes — only how often it runs and what is
    /// recorded.
    pub execution: ExecutionConfig,
}

/// How a scenario is executed ([`Scenario::execution`]): the run-shape
/// knobs that do not change *what* is simulated, only how the work is
/// scheduled and what is recorded.
///
/// [`crate::run`] simulates the whole scenario in one pass of one engine
/// core; every digest and metric is byte-identical at any value of these
/// knobs.
#[derive(Debug, Clone)]
pub struct ExecutionConfig {
    /// Validated (≥ 1) but has no effect: every run uses one engine core.
    /// Kept only so existing callers of [`ExecutionSection::shards`] keep
    /// building; slated for removal.
    pub shards: usize,
    /// Monte-Carlo trial count used by [`crate::run_trials`] (≥ 1).
    pub trials: usize,
    /// Whether the run records its event trace ([`crate::event::EventTrace`]).
    /// [`crate::run`] honours it; [`crate::run_trials`] always disables
    /// tracing per trial.
    pub trace: bool,
    /// Whether the run records a self-profile ([`crate::prof`]): wall-clock
    /// span timelines and a phase summary. Digest-neutral —
    /// traces, metrics reports and telemetry are byte-identical with
    /// profiling on or off; wall time lives only in the prof output.
    pub profile: bool,
    /// Emit a one-line progress status every this many simulated seconds
    /// ([`crate::telemetry`]; `None` = no progress output). Digest-neutral:
    /// the trace and metrics are byte-identical at any cadence.
    pub progress_every_s: Option<f64>,
    /// Mirror progress lines to stderr as the run executes (the collected
    /// lines are always returned in the report either way).
    pub live_progress: bool,
    /// Wall time [`ScenarioBuilder::build`] took, nanoseconds, stashed here
    /// when `profile` is set so the executor can prepend a
    /// `scenario_build` span. Never affects simulation state, and is
    /// ignored by `PartialEq` so wall-clock jitter cannot leak into
    /// scenario comparisons.
    pub build_ns: Option<u64>,
}

impl PartialEq for ExecutionConfig {
    fn eq(&self, other: &Self) -> bool {
        // build_ns is a wall-clock measurement, not configuration: two
        // scenarios with the same run shape must compare equal even when
        // one was timed and the other was not.
        self.shards == other.shards
            && self.trials == other.trials
            && self.trace == other.trace
            && self.profile == other.profile
            && self.progress_every_s == other.progress_every_s
            && self.live_progress == other.live_progress
    }
}

impl Default for ExecutionConfig {
    fn default() -> Self {
        ExecutionConfig {
            shards: 1,
            trials: 1,
            trace: true,
            profile: false,
            progress_every_s: None,
            live_progress: false,
            build_ns: None,
        }
    }
}

impl ExecutionConfig {
    /// Checks the run-shape knobs are usable.
    pub fn validate(&self) -> Result<(), String> {
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if self.trials == 0 {
            return Err("trials must be at least 1".into());
        }
        if let Some(every) = self.progress_every_s {
            if !positive_finite(every) {
                return Err(format!(
                    "progress cadence {every} s must be positive and finite"
                ));
            }
        }
        Ok(())
    }
}

/// True when every coordinate is finite. Link powers are evaluated from
/// live positions on every query, so one NaN coordinate would poison every
/// capture decision that touches the entity.
pub(crate) fn finite_position(p: &Position) -> bool {
    p.x.is_finite() && p.y.is_finite() && p.z.is_finite()
}

impl Scenario {
    /// Checks indices, capacities, timing and geometry so the engine can
    /// assume a well-formed scenario.
    pub fn validate(&self) -> Result<(), NetError> {
        if !positive_finite(self.duration_s) {
            return Err(NetError::InvalidScenario(
                "duration must be positive and finite".into(),
            ));
        }
        if self.carriers.is_empty() || self.tags.is_empty() || self.receivers.is_empty() {
            return Err(NetError::InvalidScenario(
                "need at least one carrier, tag and receiver".into(),
            ));
        }
        if self.max_queue == 0 {
            return Err(NetError::InvalidScenario(
                "max_queue must be at least 1".into(),
            ));
        }
        for (c, carrier) in self.carriers.iter().enumerate() {
            if !(positive_finite(carrier.slot_interval_s) && positive_finite(carrier.slot_window_s))
            {
                return Err(NetError::InvalidScenario(format!(
                    "carrier {c}: slot interval and window must be positive and finite"
                )));
            }
            if !(carrier.tx_power_dbm.is_finite() && carrier.ack_sensitivity_dbm.is_finite()) {
                return Err(NetError::InvalidScenario(format!(
                    "carrier {c}: tx power and ack sensitivity must be finite"
                )));
            }
            if !finite_position(&carrier.position()) {
                return Err(NetError::InvalidScenario(format!(
                    "carrier {c}: position must be finite"
                )));
            }
        }
        for (r, receiver) in self.receivers.iter().enumerate() {
            if !finite_position(&receiver.position()) {
                return Err(NetError::InvalidScenario(format!(
                    "receiver {r}: position must be finite"
                )));
            }
            if !(receiver.sensitivity_dbm.is_finite() && receiver.downlink_tx_power_dbm.is_finite())
            {
                return Err(NetError::InvalidScenario(format!(
                    "receiver {r}: sensitivity and downlink tx power must be finite"
                )));
            }
            if !(0.0..=1.0).contains(&receiver.external_occupancy) {
                return Err(NetError::InvalidScenario(format!(
                    "receiver {r}: external occupancy {} outside [0, 1]",
                    receiver.external_occupancy
                )));
            }
        }
        for (t, tag) in self.tags.iter().enumerate() {
            let Some(carrier) = self.carriers.get(tag.carrier) else {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: carrier index {} out of range",
                    tag.carrier
                )));
            };
            let Some(receiver) = self.receivers.get(tag.receiver) else {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: receiver index {} out of range",
                    tag.receiver
                )));
            };
            if !receiver.accepts(&tag.phy) {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: receiver {} cannot decode its PHY",
                    tag.receiver
                )));
            }
            if !positive_finite(tag.arrival_rate_pps) {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: arrival rate must be positive and finite"
                )));
            }
            if !finite_position(&tag.position()) {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: position must be finite"
                )));
            }
            if tag.payload_bytes == 0 {
                return Err(NetError::InvalidScenario(format!("tag {t}: empty payload")));
            }
            let airtime = tag.phy.airtime_s(tag.payload_bytes);
            if airtime > carrier.slot_window_s {
                return Err(NetError::InvalidScenario(format!(
                    "tag {t}: airtime {airtime:.1e}s exceeds carrier {}'s window {:.1e}s",
                    tag.carrier, carrier.slot_window_s
                )));
            }
        }
        if let Some(mobility) = &self.mobility {
            mobility
                .validate()
                .map_err(|e| NetError::InvalidScenario(format!("mobility: {e}")))?;
        }
        self.scheduler
            .validate()
            .map_err(|e| NetError::InvalidScenario(format!("scheduler: {e}")))?;
        if let Some(coex) = &self.coex {
            coex.validate()
                .map_err(|e| NetError::InvalidScenario(format!("coex: {e}")))?;
        }
        self.execution
            .validate()
            .map_err(|e| NetError::InvalidScenario(format!("execution: {e}")))?;
        Ok(())
    }

    /// Repositions tag `t` before the run. Positions are private — this is
    /// the only way to move a tag between building a scenario and running
    /// it, so a [`crate::links::LinkMatrix`] can never be built from one
    /// geometry and silently reused with another.
    pub fn place_tag(&mut self, t: usize, position: Position) {
        self.tags[t].position = position;
    }

    /// Repositions carrier `c` before the run (see [`Scenario::place_tag`]).
    pub fn place_carrier(&mut self, c: usize, position: Position) {
        self.carriers[c].position = position;
    }

    /// Repositions sink `s` before the run (see [`Scenario::place_tag`]).
    pub fn place_sink(&mut self, s: usize, position: Position) {
        self.receivers[s].position = position;
    }

    /// A hospital ward of implanted sensors (cf. the in-body sub-network
    /// regime): `n_tags` neural-implant tags in beds across a 16 m × 12 m
    /// ward. Every pair of adjacent beds shares a bedside 20 dBm helper
    /// beacon (§2.3.3) about 1 m from each implant, and three Wi-Fi APs on
    /// channels 1, 6 and 11 line the far wall.
    ///
    /// Tags cycle through the three AP channels; every fifth tag is a
    /// legacy double-sideband tag, whose mirror copy from the BLE-38
    /// carrier lands near an adjacent channel (ch 1 → mirror in ch 6,
    /// ch 6 → mirror in ch 1) — the coexistence problem §2.3.1
    /// quantifies.
    pub fn hospital_ward(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        let (width, depth) = (12.0, 9.0);
        let (beds, bedsides) = couple_positions(n, width, depth, 1.0, 1.0);

        // One helper beacon between each pair of beds (5 ms cadence: 200
        // crafted advertisements per second per helper).
        let carriers: Vec<CarrierSource> = bedsides
            .into_iter()
            .map(|p| CarrierSource::helper(p, 5e-3))
            .collect();

        let ap_channels = [1u8, 6, 11];
        let receivers: Vec<SinkReceiver> = ap_channels
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let x = width * (i as f64 + 0.5) / 3.0;
                let mut ap = SinkReceiver::wifi_ap(Position::new(x, depth - 0.5, 2.5), ch);
                // Hospital Wi-Fi keeps channel 6 the busiest.
                ap.external_occupancy = if ch == 6 { 0.2 } else { 0.05 };
                ap
            })
            .collect();

        let tags: Vec<TagNode> = beds
            .iter()
            .enumerate()
            .map(|(t, &position)| {
                let rx = t % receivers.len();
                TagNode {
                    position,
                    profile: TagProfile::NeuralImplant,
                    sideband: if t % 5 == 4 {
                        SidebandMode::Double
                    } else {
                        SidebandMode::Single
                    },
                    phy: NetPhy::Wifi {
                        rate: DsssRate::Mbps2,
                        channel: ap_channels[rx],
                    },
                    carrier: t / 2,
                    receiver: rx,
                    payload_bytes: 31,
                    arrival_rate_pps: 2.0,
                    max_retries: 8,
                }
            })
            .collect();

        Scenario {
            name: format!("hospital-ward-{n}"),
            duration_s: 10.0,
            carriers,
            tags,
            receivers,
            cts_to_self: true,
            max_queue: 64,
            mac: MacMode::OpenLoop,
            mobility: None,
            scheduler: SchedPolicy::RoundRobin,
            coex: None,
            execution: ExecutionConfig::default(),
        }
    }

    /// A fleet of smart contact lenses (§5.1) in a 5 m × 5 m clinic room:
    /// pairs of patients share a 20 dBm desk hub ~0.6 m from each lens,
    /// all backscattering 2 Mbps Wi-Fi to a single channel-11 AP on the
    /// ceiling.
    pub fn contact_lens_fleet(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        let side = 3.0;
        let (seats, desks) = couple_positions(n, side, side, 1.2, 0.6);
        let carriers: Vec<CarrierSource> = desks
            .into_iter()
            .map(|p| CarrierSource::helper(p, 10e-3))
            .collect();
        let receivers = vec![SinkReceiver::wifi_ap(
            Position::new(side / 2.0, side / 2.0, 2.0),
            11,
        )];
        let tags: Vec<TagNode> = seats
            .iter()
            .enumerate()
            .map(|(t, &position)| TagNode {
                position,
                profile: TagProfile::ContactLens,
                sideband: SidebandMode::Single,
                phy: NetPhy::Wifi {
                    rate: DsssRate::Mbps2,
                    channel: 11,
                },
                carrier: t / 2,
                receiver: 0,
                payload_bytes: 16,
                arrival_rate_pps: 1.0,
                max_retries: 8,
            })
            .collect();
        Scenario {
            name: format!("contact-lens-fleet-{n}"),
            duration_s: 10.0,
            carriers,
            tags,
            receivers,
            cts_to_self: true,
            max_queue: 32,
            mac: MacMode::OpenLoop,
            mobility: None,
            scheduler: SchedPolicy::RoundRobin,
            coex: None,
            execution: ExecutionConfig::default(),
        }
    }

    /// A table of card-to-card pairs (§5.3): `n_pairs` transmitting cards
    /// ringed around one smartphone carrier, each 0.25 m from its
    /// receiving card's envelope detector. OOK does not shift the carrier,
    /// so every pair contends for the same spectrum — carrier-slot
    /// scheduling is what keeps them apart.
    pub fn card_to_card_room(n_pairs: usize) -> Scenario {
        let n = n_pairs.max(1);
        let center = Position::new(1.0, 1.0, 0.8);
        let carriers = vec![CarrierSource {
            slot_window_s: 1.2e-3,
            ..CarrierSource::phone(center, 2e-3)
        }];
        let mut receivers = Vec::with_capacity(n);
        let tags: Vec<TagNode> = (0..n)
            .map(|t| {
                // Cards fan out on the table: radius grows slowly with the
                // index so far pairs see a weaker tone (position-dependent
                // PER, like Fig. 17's distance sweep).
                let angle = std::f64::consts::TAU * t as f64 / n as f64;
                let radius = 0.10 + 0.02 * t as f64;
                let position = Position::new(
                    center.x + radius * angle.cos(),
                    center.y + radius * angle.sin(),
                    0.8,
                );
                receivers.push(SinkReceiver::card_detector(Position::new(
                    center.x + (radius + 0.25) * angle.cos(),
                    center.y + (radius + 0.25) * angle.sin(),
                    0.8,
                )));
                TagNode {
                    position,
                    profile: TagProfile::Card,
                    sideband: SidebandMode::Double,
                    phy: NetPhy::CardOok {
                        bit_rate_bps: 100e3,
                    },
                    carrier: 0,
                    receiver: t,
                    payload_bytes: 8,
                    arrival_rate_pps: 0.5,
                    max_retries: 4,
                }
            })
            .collect();
        Scenario {
            name: format!("card-to-card-{n}"),
            duration_s: 10.0,
            carriers,
            tags,
            receivers,
            cts_to_self: false,
            max_queue: 16,
            mac: MacMode::OpenLoop,
            mobility: None,
            scheduler: SchedPolicy::RoundRobin,
            coex: None,
            execution: ExecutionConfig::default(),
        }
    }

    /// A ZigBee sensor wing: implant tags generating 802.15.4 frames on
    /// ZigBee channel 14 for hubs along the wall, with bedside helpers
    /// configured for an extended 2 ms tone window to fit the 250 kbps
    /// frames (§4.5's rate mismatch).
    pub fn zigbee_wing(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        let (width, depth) = (14.0, 10.0);
        let (beds, bedsides) = couple_positions(n, width, depth, 1.0, 1.0);
        let carriers: Vec<CarrierSource> = bedsides
            .into_iter()
            .map(|p| CarrierSource {
                slot_window_s: 2e-3,
                ..CarrierSource::helper(p, 8e-3)
            })
            .collect();
        let n_hubs = n / 25 + 1;
        let receivers: Vec<SinkReceiver> = (0..n_hubs)
            .map(|h| {
                let x = width * (h as f64 + 0.5) / n_hubs as f64;
                SinkReceiver::zigbee_hub(Position::new(x, depth - 0.5, 2.0), 14)
            })
            .collect();
        let tags: Vec<TagNode> = beds
            .iter()
            .enumerate()
            .map(|(t, &position)| TagNode {
                position,
                profile: TagProfile::NeuralImplant,
                sideband: SidebandMode::Single,
                phy: NetPhy::Zigbee { channel: 14 },
                carrier: t / 2,
                receiver: nearest_index(&receivers, &position),
                payload_bytes: 20,
                arrival_rate_pps: 1.0,
                max_retries: 6,
            })
            .collect();
        Scenario {
            name: format!("zigbee-wing-{n}"),
            duration_s: 10.0,
            carriers,
            tags,
            receivers,
            cts_to_self: false,
            max_queue: 32,
            mac: MacMode::OpenLoop,
            mobility: None,
            scheduler: SchedPolicy::RoundRobin,
            coex: None,
            execution: ExecutionConfig::default(),
        }
    }

    /// The closed-loop variant of any preset: carriers poll their tags with
    /// AM-OFDM downlink frames, tags respond with backscattered uplink, and
    /// the sink acks — see [`crate::mac`]. Works on every preset and names
    /// the variant:
    ///
    /// ```
    /// use interscatter_net::scenario::Scenario;
    /// let ward = Scenario::hospital_ward(8).closed_loop();
    /// assert!(ward.name.ends_with("closed-loop"));
    /// ward.validate().unwrap();
    /// ```
    pub fn closed_loop(mut self) -> Scenario {
        self.name = format!("{}-closed-loop", self.name);
        self.mac = MacMode::ClosedLoop;
        self
    }

    /// Stripes the carriers across the scenario's Wi-Fi channels, making
    /// spectrum a scheduler-visible axis (cf. Wi-Fi 6 resource-unit
    /// sharing and the in-body sub-band allocation comparison): carrier
    /// `c` is assigned sub-band `c mod n_wifi_aps`, and every Wi-Fi tag it
    /// illuminates is retuned to that sub-band's AP and channel. Adjacent
    /// carriers — the ones whose slots actually overlap in space — then
    /// synthesize onto *different* channels, so their tags stop colliding
    /// with each other and only contend within their stripe.
    ///
    /// Scenarios without at least two Wi-Fi APs (card table, ZigBee wing)
    /// are returned unchanged apart from the name.
    pub fn with_subband_striping(mut self) -> Scenario {
        let wifi_rx: Vec<usize> = self
            .receivers
            .iter()
            .enumerate()
            .filter(|(_, r)| matches!(r.kind, SinkKind::Wifi { .. }))
            .map(|(i, _)| i)
            .collect();
        if wifi_rx.len() > 1 {
            for (c, carrier) in self.carriers.iter_mut().enumerate() {
                carrier.subband = c % wifi_rx.len();
            }
            for tag in &mut self.tags {
                let NetPhy::Wifi { rate, .. } = tag.phy else {
                    continue;
                };
                let rx = wifi_rx[self.carriers[tag.carrier].subband];
                let SinkKind::Wifi { channel } = self.receivers[rx].kind else {
                    unreachable!("wifi_rx only holds Wi-Fi sinks");
                };
                tag.receiver = rx;
                tag.phy = NetPhy::Wifi { rate, channel };
            }
        }
        self.name = format!("{}-striped", self.name);
        self
    }

    /// Attaches (or swaps) the adaptive re-striping policy, on the
    /// scenario's coex config or on an empty one. The sinks'
    /// `external_occupancy` scalars fold either way, so attaching the
    /// policy never changes the external-loss baseline.
    pub fn with_restripe(mut self, policy: ReStripe) -> Scenario {
        self.coex = Some(self.coex.take().unwrap_or_default().with_restripe(policy));
        self.name = format!("{}-adaptive", self.name);
        self
    }

    /// The congestion-stress ward: the striped hospital ward (carriers and
    /// tags spread across the three AP channels), except that from `t =
    /// 3 s` a **hidden** Wi-Fi transmitter hammers channel 6 at ~60% load
    /// — too far to trip the helpers' carrier-sense, close enough to the
    /// wall APs to collide with everything the stripe-1 tags send. Static
    /// striping rides the collapse out; attach
    /// [`Scenario::with_restripe`] and the stripe-1 carriers sense the
    /// spike and re-tune themselves (and their tags) to the quietest
    /// sub-band. This is the geometry the `coex_shootout` example and the
    /// re-striping regression tests compare policies on. The hidden
    /// transmitter is the only external load: the APs' `external_occupancy`
    /// scalars are zero.
    pub fn congested_ward(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        let mut ward = Scenario::hospital_ward(n).with_subband_striping();
        for ap in &mut ward.receivers {
            ap.external_occupancy = 0.0;
        }
        ward.coex = Some(CoexConfig::with_sources(vec![CoexSource::hidden_wifi(
            // Beside the channel-6 AP on the far wall: loud at the APs,
            // unheard at the bedside helpers.
            Position::new(6.0, 8.0, 2.0),
            6,
            0.6,
        )
        .active(3.0, f64::INFINITY)]));
        ward.name = format!("congested-ward-{n}");
        ward
    }

    /// An ambulatory hospital ward: `n_tags` implanted patients *walking*
    /// a 12 m × 9 m ward under a random-waypoint model, each wearing their
    /// own 20 dBm helper beacon 0.3 m from the implant (the §2.3.3 helper
    /// device, body-worn so it stays inside the ~1 m illumination range
    /// while the patient moves). The three wall APs are fixed, so the
    /// tag → AP leg sweeps metres of path loss as patients wander — the
    /// regime where link budgets must track geometry tick by tick.
    pub fn ambulatory_ward(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        let (width, depth) = (12.0, 9.0);
        let (patients, _) = couple_positions(n, width, depth, 1.0, 1.0);

        // One body-worn helper per patient, polled on a 5 ms cadence.
        let carriers: Vec<CarrierSource> = patients
            .iter()
            .map(|p| CarrierSource::helper(Position::new(p.x + 0.3, p.y, p.z), 5e-3))
            .collect();

        let ap_channels = [1u8, 6, 11];
        let receivers: Vec<SinkReceiver> = ap_channels
            .iter()
            .enumerate()
            .map(|(i, &ch)| {
                let x = width * (i as f64 + 0.5) / 3.0;
                let mut ap = SinkReceiver::wifi_ap(Position::new(x, depth - 0.5, 2.5), ch);
                ap.external_occupancy = if ch == 6 { 0.2 } else { 0.05 };
                ap
            })
            .collect();

        let tags: Vec<TagNode> = patients
            .iter()
            .enumerate()
            .map(|(t, &position)| {
                let rx = t % receivers.len();
                TagNode {
                    position,
                    profile: TagProfile::NeuralImplant,
                    sideband: SidebandMode::Single,
                    phy: NetPhy::Wifi {
                        rate: DsssRate::Mbps2,
                        channel: ap_channels[rx],
                    },
                    carrier: t,
                    receiver: rx,
                    payload_bytes: 31,
                    arrival_rate_pps: 2.0,
                    max_retries: 8,
                }
            })
            .collect();

        Scenario {
            name: format!("ambulatory-ward-{n}-mobile"),
            duration_s: 10.0,
            carriers,
            tags,
            receivers,
            cts_to_self: true,
            max_queue: 64,
            mac: MacMode::OpenLoop,
            mobility: Some(MobilityConfig {
                model: MobilityModel::RandomWaypoint(RandomWaypoint {
                    speed_min_mps: 0.6,
                    speed_max_mps: 1.2,
                    pause_s: 2.0,
                }),
                tick_interval_s: 0.1,
                bounds: Bounds::room(width, depth, 1.0),
                carriers_follow: true,
            }),
            scheduler: SchedPolicy::RoundRobin,
            coex: None,
            execution: ExecutionConfig::default(),
        }
    }

    /// The arbitration-stress ward: `n_tags` implanted patients *walking*
    /// the 12 m × 9 m hospital ward while the **shared bedside helpers
    /// stay put** — the opposite trade of [`Scenario::ambulatory_ward`].
    /// Every carrier keeps two members to arbitrate between, and each
    /// tag's uplink margin sweeps tens of dB per walk, so which tag a
    /// slot illuminates actually matters: this is the geometry the
    /// `scheduler_shootout` example and the scheduler regression tests
    /// compare policies on.
    pub fn walking_ward(n_tags: usize) -> Scenario {
        let mut ward = Scenario::hospital_ward(n_tags);
        ward.mobility = Some(MobilityConfig {
            model: MobilityModel::RandomWaypoint(RandomWaypoint {
                speed_min_mps: 0.8,
                speed_max_mps: 1.5,
                pause_s: 0.5,
            }),
            tick_interval_s: 0.1,
            bounds: Bounds::room(12.0, 9.0, 1.0),
            carriers_follow: false,
        });
        ward.name = format!("{}-mobile", ward.name);
        ward
    }

    /// The city-scale stress preset: `n_tags` implants clustered around
    /// **shared** 20 dBm helper beacons on a campus quad, polled closed
    /// loop — the deployment regime the paper's
    /// "internet connectivity for implanted devices" vision implies, and
    /// the scale target of the engine-core work (4-ary event heap, band
    /// index, SoA link budgets).
    ///
    /// Layout: clusters of up to 256 implants ring one helper each (every
    /// tag inside the ~1 m illumination range), cluster centres on an
    /// 8 m grid. A 4 × 4 lattice of Wi-Fi APs covers the quad, channels
    /// cycling 1/6/11; each helper is *striped* onto the sub-band of its
    /// nearest AP and its implants are tuned to that AP's channel, so
    /// adjacent clusters synthesize onto different channels — the
    /// campus-scale version of [`Scenario::with_subband_striping`].
    /// Three neighbour Wi-Fi networks (one per channel) load the band
    /// through [`crate::coex`].
    ///
    /// Carrier count stays O(`n_tags` / 256), one helper per cluster; no
    /// pair power is tabled ([`crate::links`] evaluates every pair on
    /// demand).
    ///
    /// ```
    /// use interscatter_net::scenario::Scenario;
    /// let quad = Scenario::campus(5_000);
    /// assert_eq!(quad.tags.len(), 5_000);
    /// quad.validate().unwrap();
    /// ```
    pub fn campus(n_tags: usize) -> Scenario {
        let n = n_tags.max(1);
        const TAGS_PER_CLUSTER: usize = 256;
        let clusters = n.div_ceil(TAGS_PER_CLUSTER);
        let cols = (clusters as f64).sqrt().ceil() as usize;
        let rows = clusters.div_ceil(cols);
        // 3 m between cluster centres: the 4 × 4 AP lattice then keeps
        // every cluster within ward-like range (~11 m) of its AP even at
        // the 100k-tag quad (~60 m a side).
        let pitch = 3.0;
        let (width, depth) = (cols as f64 * pitch, rows as f64 * pitch);

        // One shared helper per cluster, cycling the three BLE
        // advertising channels so the tones spread over three collision
        // domains. The 50 ms cadence keeps the aggregate tone duty near
        // 60% of those domains at 100k tags — any faster and every slot
        // carrier-senses busy: at this scale spectrum, not airtime, is
        // the bottleneck.
        let mut carriers: Vec<CarrierSource> = (0..clusters)
            .map(|c| {
                let centre = Position::new(
                    pitch * ((c % cols) as f64 + 0.5),
                    pitch * ((c / cols) as f64 + 0.5),
                    1.0,
                );
                CarrierSource {
                    ble_channel: interscatter_ble::channels::ADVERTISING_CHANNELS[c % 3],
                    ..CarrierSource::helper(centre, 50e-3)
                }
            })
            .collect();

        let ap_channels = [1u8, 6, 11];
        let receivers: Vec<SinkReceiver> = (0..16)
            .map(|a| {
                let ch = ap_channels[a % ap_channels.len()];
                let position = Position::new(
                    width * ((a % 4) as f64 + 0.5) / 4.0,
                    depth * ((a / 4) as f64 + 0.5) / 4.0,
                    3.0,
                );
                SinkReceiver::wifi_ap(position, ch)
            })
            .collect();

        // Stripe each helper onto its nearest AP's sub-band; the channel
        // cycle along the AP lattice then puts adjacent clusters on
        // different channels.
        for carrier in &mut carriers {
            carrier.subband = nearest_index(&receivers, &carrier.position);
        }

        let tags: Vec<TagNode> = (0..n)
            .map(|t| {
                let cluster = t / TAGS_PER_CLUSTER;
                let centre = carriers[cluster].position;
                // Golden-angle ring keeps every implant 0.4–0.9 m from
                // its helper, deterministically spread.
                let k = (t % TAGS_PER_CLUSTER) as f64;
                let angle = 2.399_963_229_728_653 * k;
                let radius = 0.4 + 0.5 * (k / TAGS_PER_CLUSTER as f64);
                let rx = carriers[cluster].subband;
                let SinkKind::Wifi { channel } = receivers[rx].kind else {
                    unreachable!("campus sinks are all Wi-Fi APs");
                };
                TagNode {
                    position: Position::new(
                        centre.x + radius * angle.cos(),
                        centre.y + radius * angle.sin(),
                        1.0,
                    ),
                    profile: TagProfile::NeuralImplant,
                    sideband: SidebandMode::Single,
                    phy: NetPhy::Wifi {
                        rate: DsssRate::Mbps2,
                        channel,
                    },
                    carrier: cluster,
                    receiver: rx,
                    payload_bytes: 31,
                    arrival_rate_pps: 0.2,
                    max_retries: 4,
                }
            })
            .collect();

        let coex = CoexConfig::with_sources(
            ap_channels
                .iter()
                .enumerate()
                .map(|(i, &ch)| {
                    CoexSource::wifi_neighbor(
                        Position::new(width * (i as f64 + 0.5) / 3.0, depth / 2.0, 6.0),
                        ch,
                        if ch == 6 { 0.3 } else { 0.15 },
                    )
                })
                .collect(),
        );

        Scenario {
            name: format!("campus-{n}"),
            duration_s: 2.0,
            carriers,
            tags,
            receivers,
            cts_to_self: true,
            max_queue: 8,
            mac: MacMode::ClosedLoop,
            mobility: None,
            scheduler: SchedPolicy::RoundRobin,
            coex: Some(coex),
            execution: ExecutionConfig::default(),
        }
    }

    /// Opens the typed builder API on this scenario: section setters
    /// ([`ScenarioBuilder::radio`], [`ScenarioBuilder::mobility`],
    /// [`ScenarioBuilder::scheduling`], [`ScenarioBuilder::coex`],
    /// [`ScenarioBuilder::execution`]) and **eager** validation on
    /// [`ScenarioBuilder::build`]. Start from a preset to reconfigure a
    /// deployment, or from [`ScenarioBuilder::new`] to assemble one from
    /// scratch:
    ///
    /// ```
    /// use interscatter_net::prelude::*;
    /// let ward = Scenario::hospital_ward(8)
    ///     .builder()
    ///     .scheduling(SchedPolicy::margin_aware())
    ///     .coex(CoexConfig::with_sources(vec![CoexSource::ble_beacon(
    ///         Position::new(1.0, 1.0, 1.0),
    ///         0.1,
    ///     )]))
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(ward.name, Scenario::hospital_ward(8).name);
    /// ```
    ///
    /// The builder never renames the scenario, and a configuration
    /// `validate()` would reject is refused at `build()` time instead of
    /// at run time.
    pub fn builder(self) -> ScenarioBuilder {
        ScenarioBuilder { scenario: self }
    }
}

/// The deployment section of a [`ScenarioBuilder`]: who is on the air —
/// carriers, tags, sinks — plus the MAC parameters governing how they
/// share it (CTS-to-Self, queue depth, open vs closed loop).
#[derive(Debug, Clone)]
pub struct RadioSection {
    carriers: Vec<CarrierSource>,
    tags: Vec<TagNode>,
    receivers: Vec<SinkReceiver>,
    cts_to_self: bool,
    max_queue: usize,
    mac: MacMode,
}

impl RadioSection {
    /// A radio section over the given entities with the ward defaults:
    /// CTS-to-Self on, 64-deep tag queues, open-loop MAC.
    pub fn new(
        carriers: Vec<CarrierSource>,
        tags: Vec<TagNode>,
        receivers: Vec<SinkReceiver>,
    ) -> RadioSection {
        RadioSection {
            carriers,
            tags,
            receivers,
            cts_to_self: true,
            max_queue: 64,
            mac: MacMode::OpenLoop,
        }
    }

    /// Whether carriers place CTS-to-Self reservations before triggering
    /// a tag (§2.3.3).
    pub fn cts_to_self(mut self, on: bool) -> RadioSection {
        self.cts_to_self = on;
        self
    }

    /// Per-tag queue capacity; arrivals beyond this are dropped.
    pub fn max_queue(mut self, depth: usize) -> RadioSection {
        self.max_queue = depth;
        self
    }

    /// Open-loop slot granting or the closed poll/ack loop
    /// ([`crate::mac`]).
    pub fn mac(mut self, mode: MacMode) -> RadioSection {
        self.mac = mode;
        self
    }
}

/// The execution section of a [`ScenarioBuilder`]: every run-shape knob in
/// one typed value — Monte-Carlo trial count, trace recording, profiling
/// and the progress cadence. It replaces [`Scenario::execution`] whole.
///
/// ```
/// use interscatter_net::prelude::*;
/// use interscatter_net::scenario::ExecutionSection;
/// let quad = Scenario::campus(1_000)
///     .builder()
///     .execution(ExecutionSection::new().trials(8).trace(false))
///     .build()
///     .unwrap();
/// assert_eq!(quad.execution.trials, 8);
/// // Ill-formed run shapes are refused eagerly, at build() time:
/// assert!(Scenario::campus(1_000)
///     .builder()
///     .execution(ExecutionSection::new().trials(0))
///     .build()
///     .is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExecutionSection {
    config: ExecutionConfig,
}

impl ExecutionSection {
    /// The default run shape: one trial, tracing on, profiling off, no
    /// progress lines.
    pub fn new() -> ExecutionSection {
        ExecutionSection::default()
    }

    /// Validated, no effect ([`ExecutionConfig::shards`]).
    pub fn shards(mut self, shards: usize) -> ExecutionSection {
        self.config.shards = shards;
        self
    }

    /// Monte-Carlo trial count for [`crate::run_trials`]
    /// ([`ExecutionConfig::trials`]).
    pub fn trials(mut self, trials: usize) -> ExecutionSection {
        self.config.trials = trials;
        self
    }

    /// Whether the run records its event trace
    /// ([`ExecutionConfig::trace`]).
    pub fn trace(mut self, on: bool) -> ExecutionSection {
        self.config.trace = on;
        self
    }

    /// Whether the run records a self-profile
    /// ([`ExecutionConfig::profile`]): span timelines and a phase
    /// summary, exported via [`crate::engine::NetRunResult::prof`].
    /// Digest-neutral.
    pub fn profile(mut self, on: bool) -> ExecutionSection {
        self.config.profile = on;
        self
    }

    /// Progress cadence: one status line every `every_s` simulated
    /// seconds, mirrored to stderr when `live` is set
    /// ([`ExecutionConfig::progress_every_s`],
    /// [`ExecutionConfig::live_progress`]).
    pub fn progress(mut self, every_s: f64, live: bool) -> ExecutionSection {
        self.config.progress_every_s = Some(every_s);
        self.config.live_progress = live;
        self
    }
}

/// Assembles a [`Scenario`] out of cohesive sections — radio, mobility,
/// scheduling, coex, execution — with **eager** validation:
/// [`ScenarioBuilder::build`] runs [`Scenario::validate`] and refuses an
/// ill-formed configuration at construction time, not at run time.
///
/// ```
/// use interscatter_net::prelude::*;
/// use interscatter_net::scenario::{RadioSection, ScenarioBuilder};
///
/// // From scratch: an empty deployment is rejected at build time...
/// assert!(ScenarioBuilder::new().build().is_err());
///
/// // ...and a well-formed one comes back validated.
/// let donor = Scenario::contact_lens_fleet(4);
/// let built = ScenarioBuilder::new()
///     .name("clinic")
///     .duration_s(5.0)
///     .radio(RadioSection::new(
///         donor.carriers.clone(),
///         donor.tags.clone(),
///         donor.receivers.clone(),
///     ))
///     .execution(ExecutionSection::new().progress(1.0, false))
///     .build()
///     .unwrap();
/// assert_eq!(built.name, "clinic");
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        ScenarioBuilder::new()
    }
}

impl ScenarioBuilder {
    /// A blank builder: no entities yet (so [`ScenarioBuilder::build`]
    /// fails until a [`ScenarioBuilder::radio`] section is supplied),
    /// 1 s duration, round-robin scheduling, no mobility, no coex, the
    /// default execution section.
    pub fn new() -> ScenarioBuilder {
        ScenarioBuilder {
            scenario: Scenario {
                name: "scenario".into(),
                duration_s: 1.0,
                carriers: Vec::new(),
                tags: Vec::new(),
                receivers: Vec::new(),
                cts_to_self: true,
                max_queue: 64,
                mac: MacMode::OpenLoop,
                mobility: None,
                scheduler: SchedPolicy::RoundRobin,
                coex: None,
                execution: ExecutionConfig::default(),
            },
        }
    }

    /// Human-readable name, used in reports. The builder never renames
    /// implicitly — what you set here is what the run reports itself as.
    pub fn name(mut self, name: impl Into<String>) -> ScenarioBuilder {
        self.scenario.name = name.into();
        self
    }

    /// Simulated duration, seconds.
    pub fn duration_s(mut self, duration_s: f64) -> ScenarioBuilder {
        self.scenario.duration_s = duration_s;
        self
    }

    /// Replaces the deployment section: entities on the air and the MAC
    /// parameters that govern how they share it.
    pub fn radio(mut self, radio: RadioSection) -> ScenarioBuilder {
        self.scenario.carriers = radio.carriers;
        self.scenario.tags = radio.tags;
        self.scenario.receivers = radio.receivers;
        self.scenario.cts_to_self = radio.cts_to_self;
        self.scenario.max_queue = radio.max_queue;
        self.scenario.mac = radio.mac;
        self
    }

    /// Sets the mobility section ([`crate::mobility`]): how (and
    /// whether) the tags move during the run.
    pub fn mobility(mut self, config: MobilityConfig) -> ScenarioBuilder {
        self.scenario.mobility = Some(config);
        self
    }

    /// Sets the scheduling section ([`crate::sched`]): which backlogged
    /// tag a carrier slot illuminates.
    pub fn scheduling(mut self, policy: SchedPolicy) -> ScenarioBuilder {
        self.scenario.scheduler = policy;
        self
    }

    /// Sets the coexistence section ([`crate::coex`]): external traffic
    /// sources, occupancy sensing and (optionally) adaptive re-striping.
    pub fn coex(mut self, config: CoexConfig) -> ScenarioBuilder {
        self.scenario.coex = Some(config);
        self
    }

    /// Sets the execution section ([`ExecutionSection`]): trial count,
    /// trace recording, profiling and the progress cadence. Like every
    /// section it is validated eagerly at [`ScenarioBuilder::build`].
    pub fn execution(mut self, section: ExecutionSection) -> ScenarioBuilder {
        self.scenario.execution = section.config;
        self
    }

    /// Validates eagerly and returns the finished scenario — every check
    /// [`Scenario::validate`] performs, but at construction time. When the
    /// execution section enables profiling, the validation wall time is
    /// stashed in [`ExecutionConfig::build_ns`] so the run's profile can
    /// open with a `scenario_build` span.
    pub fn build(mut self) -> Result<Scenario, NetError> {
        if self.scenario.execution.profile {
            let (res, ns) = crate::prof::measure_ns(|| self.scenario.validate());
            res?;
            self.scenario.execution.build_ns = Some(ns);
        } else {
            self.scenario.validate()?;
        }
        Ok(self.scenario)
    }
}

/// `x > 0` and finite; false for NaN, so a NaN input is rejected rather
/// than slipping past a `<= 0.0` test.
pub(crate) fn positive_finite(x: f64) -> bool {
    x > 0.0 && x.is_finite()
}

/// Lays `n` tag positions out as *couples*: `ceil(n/2)` couple centres on
/// a grid filling `width × depth`, each couple's two tags `gap` metres
/// apart in x. Returns `(tag_positions, couple_centres)`; tag `t` belongs
/// to couple `t / 2`, so a carrier at each centre sits `gap / 2` from its
/// tags — inside the ~1 m illumination range backscatter needs.
fn couple_positions(
    n: usize,
    width: f64,
    depth: f64,
    z: f64,
    gap: f64,
) -> (Vec<Position>, Vec<Position>) {
    let couples = n.div_ceil(2);
    let cols = (couples as f64).sqrt().ceil() as usize;
    let rows = couples.div_ceil(cols);
    let centres: Vec<Position> = (0..couples)
        .map(|c| {
            Position::new(
                width * ((c % cols) as f64 + 0.5) / cols as f64,
                depth * ((c / cols) as f64 + 0.5) / rows as f64,
                z,
            )
        })
        .collect();
    let tags = (0..n)
        .map(|t| {
            let centre = centres[t / 2];
            let side = if t % 2 == 0 { -1.0 } else { 1.0 };
            Position::new(centre.x + side * gap / 2.0, centre.y, centre.z)
        })
        .collect();
    (tags, centres)
}

/// Index of the receiver nearest to `position`.
fn nearest_index(receivers: &[SinkReceiver], position: &Position) -> usize {
    receivers
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            // total_cmp, not partial_cmp: distances are finite here, so the
            // order is identical — but the comparator stays consistent (and
            // free of the banned `partial_cmp`) even if a NaN ever leaks in.
            a.position
                .distance_m(position)
                .total_cmp(&b.position.distance_m(position))
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coex::CoexModel;
    use crate::mobility::RandomWalk;

    #[test]
    fn builders_produce_valid_scenarios() {
        for scenario in [
            Scenario::hospital_ward(1),
            Scenario::hospital_ward(50),
            Scenario::contact_lens_fleet(12),
            Scenario::card_to_card_room(9),
            Scenario::zigbee_wing(30),
            Scenario::walking_ward(12),
        ] {
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        }
    }

    #[test]
    fn every_preset_has_a_closed_loop_variant() {
        for scenario in [
            Scenario::hospital_ward(10).closed_loop(),
            Scenario::contact_lens_fleet(8).closed_loop(),
            Scenario::card_to_card_room(5).closed_loop(),
            Scenario::zigbee_wing(12).closed_loop(),
        ] {
            assert_eq!(scenario.mac, MacMode::ClosedLoop);
            assert!(
                scenario.name.ends_with("closed-loop"),
                "name {}",
                scenario.name
            );
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        }
        // The combinator changes the MAC mode and nothing else about the
        // deployment.
        let open = Scenario::hospital_ward(10);
        let closed = Scenario::hospital_ward(10).closed_loop();
        assert_eq!(open.tags.len(), closed.tags.len());
        assert_eq!(open.carriers.len(), closed.carriers.len());
        assert_eq!(open.mac, MacMode::OpenLoop);
    }

    #[test]
    fn hospital_ward_scales_entities() {
        let small = Scenario::hospital_ward(8);
        let large = Scenario::hospital_ward(64);
        assert_eq!(small.tags.len(), 8);
        assert_eq!(large.tags.len(), 64);
        assert!(large.carriers.len() > small.carriers.len());
        assert_eq!(large.receivers.len(), 3);
        // The legacy fraction exists and is the minority.
        let dsb = large
            .tags
            .iter()
            .filter(|t| t.sideband == SidebandMode::Double)
            .count();
        assert!(dsb > 0 && dsb < large.tags.len() / 3, "dsb {dsb}");
    }

    #[test]
    fn tags_sit_close_to_their_carriers() {
        for scenario in [
            Scenario::hospital_ward(50),
            Scenario::contact_lens_fleet(16),
            Scenario::zigbee_wing(24),
        ] {
            for (t, tag) in scenario.tags.iter().enumerate() {
                let d = scenario.carriers[tag.carrier]
                    .position
                    .distance_m(&tag.position);
                assert!(
                    d < 1.6,
                    "{}: tag {t} is {d:.2} m from its carrier",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn builders_are_deterministic() {
        let a = Scenario::hospital_ward(20);
        let b = Scenario::hospital_ward(20);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = Scenario::ambulatory_ward(20);
        let d = Scenario::ambulatory_ward(20);
        assert_eq!(format!("{c:?}"), format!("{d:?}"));
    }

    #[test]
    fn ambulatory_ward_wears_its_helpers() {
        let ward = Scenario::ambulatory_ward(12);
        ward.validate().unwrap();
        assert!(ward.name.starts_with("ambulatory-ward-12"));
        let mobility = ward.mobility.expect("preset attaches mobility");
        assert!(mobility.carriers_follow);
        // One body-worn helper per patient, 0.3 m from the implant.
        assert_eq!(ward.carriers.len(), ward.tags.len());
        for (t, tag) in ward.tags.iter().enumerate() {
            assert_eq!(tag.carrier, t);
            let d = ward.carriers[t].position().distance_m(&tag.position());
            assert!((d - 0.3).abs() < 1e-9, "tag {t} helper at {d} m");
        }
        // Composes with the closed loop.
        let closed = Scenario::ambulatory_ward(6).closed_loop();
        closed.validate().unwrap();
        assert_eq!(closed.mac, MacMode::ClosedLoop);
        assert!(closed.mobility.is_some());
    }

    #[test]
    fn every_preset_takes_mobility() {
        let config = MobilityConfig {
            model: MobilityModel::RandomWalk(RandomWalk {
                speed_mps: 0.2,
                turn_rad: 0.5,
            }),
            tick_interval_s: 0.2,
            bounds: Bounds::room(12.0, 9.0, 1.0),
            carriers_follow: false,
        };
        for preset in [
            Scenario::hospital_ward(8),
            Scenario::contact_lens_fleet(6),
            Scenario::card_to_card_room(4),
            Scenario::zigbee_wing(8),
        ] {
            let name = preset.name.clone();
            let scenario = preset
                .builder()
                .mobility(config)
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenario.mobility, Some(config));
            assert_eq!(scenario.name, name, "the builder never renames");
        }
    }

    #[test]
    fn every_preset_takes_a_scheduler() {
        use crate::sched::SchedPolicy;
        for (preset, policy) in [
            (Scenario::hospital_ward(8), SchedPolicy::proportional_fair()),
            (
                Scenario::contact_lens_fleet(6),
                SchedPolicy::deadline_aware(),
            ),
            (Scenario::card_to_card_room(4), SchedPolicy::margin_aware()),
            (Scenario::zigbee_wing(8), SchedPolicy::RoundRobin),
            (
                Scenario::ambulatory_ward(4).closed_loop(),
                SchedPolicy::margin_aware(),
            ),
        ] {
            let name = preset.name.clone();
            let scenario = preset
                .builder()
                .scheduling(policy)
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenario.scheduler, policy);
        }
        // Presets default to the baseline.
        assert_eq!(
            Scenario::hospital_ward(4).scheduler,
            SchedPolicy::RoundRobin
        );
    }

    #[test]
    fn subband_striping_retunes_wifi_tags_only() {
        let striped = Scenario::hospital_ward(20).with_subband_striping();
        striped.validate().unwrap();
        for tag in &striped.tags {
            let subband = striped.carriers[tag.carrier].subband;
            assert_eq!(tag.receiver, subband);
            let NetPhy::Wifi { channel, .. } = tag.phy else {
                panic!("ward tags are Wi-Fi")
            };
            let SinkKind::Wifi { channel: rx_ch } = striped.receivers[tag.receiver].kind else {
                panic!("ward sinks are Wi-Fi")
            };
            assert_eq!(channel, rx_ch);
        }
        // Adjacent carriers land on different stripes.
        assert_ne!(striped.carriers[0].subband, striped.carriers[1].subband);

        // Single-AP and non-Wi-Fi scenarios pass through unchanged (but
        // for the name).
        for scenario in [
            Scenario::contact_lens_fleet(6).with_subband_striping(),
            Scenario::card_to_card_room(4).with_subband_striping(),
            Scenario::zigbee_wing(8).with_subband_striping(),
        ] {
            assert!(scenario.name.ends_with("striped"));
            assert!(scenario.carriers.iter().all(|c| c.subband == 0));
            scenario
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", scenario.name));
        }
    }

    #[test]
    fn every_preset_takes_coex() {
        use crate::coex::{CoexConfig, CoexSource, ReStripe};
        let config = CoexConfig::with_sources(vec![
            CoexSource::microwave_oven(Position::new(5.0, 5.0, 1.0)),
            CoexSource::ble_beacon(Position::new(1.0, 1.0, 1.0), 0.1),
        ]);
        for preset in [
            Scenario::hospital_ward(8),
            Scenario::contact_lens_fleet(6),
            Scenario::card_to_card_room(4),
            Scenario::zigbee_wing(8),
            Scenario::ambulatory_ward(4).closed_loop(),
        ] {
            let name = preset.name.clone();
            let scenario = preset
                .builder()
                .coex(config.clone())
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(scenario.coex, Some(config.clone()));
        }
        // with_restripe composes (and bootstraps an empty config when
        // absent) without touching the sinks' scalars.
        let adaptive = Scenario::hospital_ward(8)
            .with_subband_striping()
            .with_restripe(ReStripe::default());
        assert!(adaptive.name.ends_with("adaptive"));
        let cfg = adaptive.coex.as_ref().unwrap();
        assert_eq!(cfg.restripe, Some(ReStripe::default()));
        assert!(cfg.sources.is_empty());
        let scalars: Vec<f64> = adaptive
            .receivers
            .iter()
            .map(|r| r.external_occupancy)
            .collect();
        assert_eq!(scalars, [0.05, 0.2, 0.05]);
        adaptive.validate().unwrap();
    }

    #[test]
    fn congested_ward_hammers_channel_6_mid_run() {
        let ward = Scenario::congested_ward(12);
        ward.validate().unwrap();
        assert!(ward.name.starts_with("congested-ward-12"));
        // Striped deployment: carriers spread over the three APs.
        assert_ne!(ward.carriers[0].subband, ward.carriers[1].subband);
        let cfg = ward.coex.as_ref().expect("preset attaches coex");
        assert_eq!(cfg.sources.len(), 1);
        let source = &cfg.sources[0];
        assert_eq!(source.start_s, 3.0, "the hammer starts mid-run");
        assert!(matches!(
            source.model,
            crate::coex::CoexModel::WifiBursty(w) if w.channel == 6
                && w.access == crate::coex::MediumAccess::Hidden
        ));
        // The hidden transmitter is the only external load.
        for rx in &ward.receivers {
            assert_eq!(rx.external_occupancy, 0.0);
        }
        assert!(cfg.restripe.is_none(), "static striping by default");
        // Composes with the closed loop and the adaptive policy.
        Scenario::congested_ward(8)
            .closed_loop()
            .validate()
            .unwrap();
        Scenario::congested_ward(8)
            .with_restripe(ReStripe::default())
            .validate()
            .unwrap();
    }

    #[test]
    fn every_preset_takes_telemetry() {
        for preset in [
            Scenario::hospital_ward(8),
            Scenario::contact_lens_fleet(6),
            Scenario::card_to_card_room(4),
            Scenario::zigbee_wing(8),
            Scenario::congested_ward(8).closed_loop(),
        ] {
            let name = preset.name.clone();
            let scenario = preset
                .builder()
                .execution(ExecutionSection::new().progress(0.5, true).trace(false))
                .build()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            // The progress cadence lands in the execution config next to
            // the other run-shape knobs the same section set.
            assert_eq!(scenario.execution.progress_every_s, Some(0.5));
            assert!(scenario.execution.live_progress);
            assert!(!scenario.execution.trace);
            // Progress never renames: observation is invisible to reports.
            assert_eq!(scenario.name, name);
        }
    }

    #[test]
    fn builder_reconstructs_presets_digest_identically() {
        let presets = [
            Scenario::hospital_ward(10),
            Scenario::contact_lens_fleet(8).closed_loop(),
            Scenario::card_to_card_room(5),
            Scenario::zigbee_wing(12),
            Scenario::walking_ward(8),
            Scenario::congested_ward(12).with_restripe(ReStripe::default()),
        ];
        for mut preset in presets {
            preset.duration_s = 2.0;
            let mut builder = ScenarioBuilder::new()
                .name(preset.name.clone())
                .duration_s(preset.duration_s)
                .radio(
                    RadioSection::new(
                        preset.carriers.clone(),
                        preset.tags.clone(),
                        preset.receivers.clone(),
                    )
                    .cts_to_self(preset.cts_to_self)
                    .max_queue(preset.max_queue)
                    .mac(preset.mac),
                )
                .scheduling(preset.scheduler);
            if let Some(mobility) = preset.mobility {
                builder = builder.mobility(mobility);
            }
            if let Some(coex) = preset.coex.clone() {
                builder = builder.coex(coex);
            }
            let rebuilt = builder
                .build()
                .unwrap_or_else(|e| panic!("{}: {e}", preset.name));
            let original = crate::run(&preset, 42).unwrap();
            let replayed = crate::run(&rebuilt, 42).unwrap();
            assert_eq!(
                original.trace.to_bytes(),
                replayed.trace.to_bytes(),
                "{}: builder reconstruction diverges",
                preset.name
            );
        }
    }

    #[test]
    fn builder_rejects_invalid_configs_at_build_time() {
        use crate::coex::{CoexConfig, CoexSource};
        use crate::sched::DeadlineAware;
        let donor = Scenario::hospital_ward(4);

        // build() surfaces exactly the validate() error, eagerly.
        let mut bad = donor.clone();
        bad.tags[0].carrier = 99;
        assert_eq!(
            bad.validate().unwrap_err(),
            bad.clone().builder().build().unwrap_err()
        );

        assert!(matches!(
            ScenarioBuilder::new().build(),
            Err(NetError::InvalidScenario(_))
        ));
        assert!(donor.clone().builder().duration_s(0.0).build().is_err());
        let radio = RadioSection::new(
            donor.carriers.clone(),
            donor.tags.clone(),
            donor.receivers.clone(),
        )
        .max_queue(0);
        assert!(donor.clone().builder().radio(radio).build().is_err());
        assert!(donor
            .clone()
            .builder()
            .scheduling(SchedPolicy::DeadlineAware(DeadlineAware {
                deadline_s: -1.0
            }))
            .build()
            .is_err());
        assert!(donor
            .clone()
            .builder()
            .coex(CoexConfig::with_sources(vec![CoexSource::zigbee_neighbor(
                Position::default(),
                9,
                10.0
            )]))
            .build()
            .is_err());
        assert!(donor
            .clone()
            .builder()
            .mobility(MobilityConfig {
                model: MobilityModel::RandomWalk(RandomWalk {
                    speed_mps: 0.2,
                    turn_rad: 0.5,
                }),
                tick_interval_s: 0.0,
                bounds: Bounds::room(12.0, 9.0, 1.0),
                carriers_follow: false,
            })
            .build()
            .is_err());
        assert!(donor
            .clone()
            .builder()
            .execution(ExecutionSection::new().progress(f64::NAN, false))
            .build()
            .is_err());

        // And an untouched preset round-trips through build().
        assert!(donor.builder().build().is_ok());
    }

    #[test]
    fn campus_preset_is_city_scale_and_striped() {
        let quad = Scenario::campus(100_000);
        quad.validate().unwrap();
        assert_eq!(quad.tags.len(), 100_000);
        assert_eq!(quad.mac, MacMode::ClosedLoop);
        assert!(quad.coex.is_some(), "preset attaches coex load");
        // Shared helpers, O(n / 256): one per cluster of up to 256
        // implants.
        assert_eq!(quad.carriers.len(), 100_000usize.div_ceil(256));
        // Striped: the helpers spread across several sub-bands, and each
        // implant is tuned to its helper's stripe.
        // Sorted + deduped, not a hash set: any future iteration (say an
        // error message listing stripes) reads in stripe order.
        let mut subbands: Vec<usize> = quad.carriers.iter().map(|c| c.subband).collect();
        subbands.sort_unstable();
        subbands.dedup();
        assert!(subbands.len() > 1, "campus helpers use one sub-band");
        for (t, tag) in quad.tags.iter().enumerate().step_by(9973) {
            assert_eq!(tag.receiver, quad.carriers[tag.carrier].subband);
            let d = quad.carriers[tag.carrier]
                .position
                .distance_m(&tag.position);
            assert!(d < 1.0, "tag {t} is {d:.2} m from its helper");
        }
    }

    #[test]
    fn campus_closed_loop_runs_above_the_dense_pair_limit() {
        // 4200 tags in one engine: the largest single-engine closed-loop
        // run in the suite, end to end through the link matrix.
        let quad = Scenario::campus(4_200)
            .builder()
            .execution(ExecutionSection::new().trace(false))
            .build()
            .unwrap();
        let run = |seed| crate::run(&quad, seed).unwrap();
        let a = run(42);
        assert!(a.metrics.delivered_packets() > 0, "campus delivers nothing");
        // Exact samples at this scale too: one per delivery and per grant.
        assert_eq!(
            a.metrics.latency_ms.samples().len(),
            a.metrics.delivered_packets()
        );
        assert_eq!(
            a.metrics.poll_latency_ms.samples().len(),
            a.metrics.grants()
        );
        // Same seed, same report — the campus smoke example's CI contract.
        let b = run(42);
        assert_eq!(a.metrics.report(), b.metrics.report());
        assert_eq!(
            format!("{:?}", a.metrics.tags),
            format!("{:?}", b.metrics.tags)
        );
    }

    #[test]
    fn placement_setters_move_entities_before_the_run() {
        let mut s = Scenario::hospital_ward(4);
        let p = Position::new(1.5, 2.5, 1.0);
        s.place_tag(0, p);
        s.place_carrier(1, p);
        s.place_sink(2, p);
        assert_eq!(s.tags[0].position(), p);
        assert_eq!(s.carriers[1].position(), p);
        assert_eq!(s.receivers[2].position(), p);
        s.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_indices_and_timing() {
        let mut s = Scenario::hospital_ward(4);
        s.tags[0].carrier = 99;
        assert!(matches!(s.validate(), Err(NetError::InvalidScenario(_))));

        let mut s = Scenario::hospital_ward(4);
        s.tags[1].receiver = 99;
        assert!(s.validate().is_err());

        // A ZigBee frame cannot fit the default 248 µs tone window (and a
        // Wi-Fi AP cannot decode it either way).
        let mut s = Scenario::hospital_ward(4);
        s.tags[2].phy = NetPhy::Zigbee { channel: 14 };
        assert!(
            s.validate().is_err(),
            "zigbee tag in a wifi ward must be rejected"
        );

        // A fitting PHY but an overlong airtime is rejected by the window
        // check.
        let mut s = Scenario::zigbee_wing(4);
        s.tags[0].payload_bytes = 127;
        assert!(
            s.validate().is_err(),
            "127-byte zigbee frame exceeds the 2 ms window"
        );

        let mut s = Scenario::hospital_ward(4);
        s.duration_s = 0.0;
        assert!(s.validate().is_err());

        let mut s = Scenario::hospital_ward(4);
        s.max_queue = 0;
        assert!(s.validate().is_err());

        let mut s = Scenario::hospital_ward(4);
        s.tags[0].arrival_rate_pps = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn build_rejects_non_finite_inputs() {
        // Each of these once built fine and then reported NaN throughput,
        // panicked, never returned, or ran on silently.
        type Edit = fn(&mut Scenario);
        /// The walking ward's mobility section with `model` swapped in.
        fn walk(model: MobilityModel) -> Option<MobilityConfig> {
            let mut mobility = Scenario::walking_ward(4).mobility;
            mobility.as_mut().expect("preset attaches mobility").model = model;
            mobility
        }
        const WAYPOINT: RandomWaypoint = RandomWaypoint {
            speed_min_mps: 0.8,
            speed_max_mps: 1.5,
            pause_s: 0.5,
        };
        let cases: [(&str, Edit); 25] = [
            ("NaN duration", |s| s.duration_s = f64::NAN),
            ("NaN slot interval", |s| {
                s.carriers[0].slot_interval_s = f64::NAN
            }),
            ("NaN slot window", |s| {
                s.carriers[0].slot_window_s = f64::NAN
            }),
            ("NaN tx power", |s| s.carriers[0].tx_power_dbm = f64::NAN),
            ("NaN ack sensitivity", |s| {
                s.carriers[0].ack_sensitivity_dbm = f64::NAN
            }),
            ("NaN receiver sensitivity", |s| {
                s.receivers[0].sensitivity_dbm = f64::NAN
            }),
            ("NaN downlink tx power", |s| {
                s.receivers[0].downlink_tx_power_dbm = f64::NAN
            }),
            ("infinite receiver sensitivity", |s| {
                s.receivers[1].sensitivity_dbm = f64::NEG_INFINITY
            }),
            ("NaN arrival rate", |s| {
                s.tags[0].arrival_rate_pps = f64::NAN
            }),
            ("infinite arrival rate", |s| {
                s.tags[0].arrival_rate_pps = f64::INFINITY
            }),
            ("NaN tag position", |s| {
                s.place_tag(0, Position::new(f64::NAN, 0.0, 0.0))
            }),
            ("infinite carrier position", |s| {
                s.place_carrier(1, Position::new(0.0, f64::INFINITY, 0.0))
            }),
            ("NaN receiver position", |s| {
                s.place_sink(2, Position::new(0.0, 0.0, f64::NAN))
            }),
            ("NaN coex source position", |s| {
                s.coex = Some(CoexConfig::with_sources(vec![CoexSource::hidden_wifi(
                    Position::new(f64::NAN, 8.0, 2.0),
                    6,
                    0.6,
                )]))
            }),
            ("infinite coex frame airtime", |s| {
                let mut source = CoexSource::wifi_neighbor(Position::new(6.0, 8.0, 2.0), 6, 0.6);
                if let CoexModel::WifiBursty(w) = &mut source.model {
                    w.frame_airtime_s = f64::INFINITY;
                }
                s.coex = Some(CoexConfig::with_sources(vec![source]))
            }),
            ("occupancy above 1", |s| {
                s.receivers[0].external_occupancy = 1.7
            }),
            ("negative occupancy", |s| {
                s.receivers[1].external_occupancy = -0.1
            }),
            ("NaN occupancy", |s| {
                s.receivers[2].external_occupancy = f64::NAN
            }),
            ("NaN progress cadence", |s| {
                s.execution.progress_every_s = Some(f64::NAN)
            }),
            ("NaN walk speed", |s| {
                s.mobility = walk(MobilityModel::RandomWalk(RandomWalk {
                    speed_mps: f64::NAN,
                    turn_rad: 0.5,
                }))
            }),
            ("infinite waypoint speed", |s| {
                s.mobility = walk(MobilityModel::RandomWaypoint(RandomWaypoint {
                    speed_max_mps: f64::INFINITY,
                    ..WAYPOINT
                }))
            }),
            ("NaN waypoint pause", |s| {
                s.mobility = walk(MobilityModel::RandomWaypoint(RandomWaypoint {
                    pause_s: f64::NAN,
                    ..WAYPOINT
                }))
            }),
            ("infinite mobility tick", |s| {
                s.mobility = Scenario::walking_ward(4).mobility;
                s.mobility.as_mut().unwrap().tick_interval_s = f64::INFINITY;
            }),
            ("infinite mobility bounds", |s| {
                s.mobility = Scenario::walking_ward(4).mobility;
                let bounds = &mut s.mobility.as_mut().unwrap().bounds;
                (bounds.min.x, bounds.max.x) = (f64::NEG_INFINITY, f64::INFINITY);
            }),
            ("NaN re-stripe dwell", |s| {
                s.coex = Some(CoexConfig::default().with_restripe(ReStripe {
                    min_dwell_s: f64::NAN,
                    ..ReStripe::default()
                }))
            }),
        ];
        for (what, edit) in cases {
            let mut s = Scenario::hospital_ward(4).closed_loop();
            edit(&mut s);
            assert!(
                matches!(s.builder().build(), Err(NetError::InvalidScenario(_))),
                "{what} must be rejected at build()"
            );
        }
    }
}
