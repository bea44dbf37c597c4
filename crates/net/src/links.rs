//! Position-dependent link budgets and pair powers, evaluated per query
//! from the live geometry.
//!
//! Every tag's uplink is the two-hop backscatter budget of
//! [`interscatter_channel::link::BackscatterLink`]: carrier → tag (at the
//! BLE tone frequency, through the tag's tissue) and tag → receiver (at the
//! synthesized packet's frequency). The engine draws per-packet lognormal
//! shadowing around the median, so packet success is a function of where
//! the entities sit — near tags see PER ≈ 0, far tags fall off the
//! sensitivity cliff, exactly like the range curves of Figs. 10/14/15/16
//! but evaluated across a whole fleet at once.
//!
//! The matrix also answers every tag's signal strength at every *other*
//! receiver: that is what turns an overlapping transmission into a
//! measurable interferer during collision arbitration (capture effect).
//!
//! For closed-loop scenarios ([`crate::mac::MacMode::ClosedLoop`]) the
//! matrix additionally holds the **downlink** budgets of the poll/ack MAC:
//!
//! * a *poll* budget per tag — the carrier's AM-OFDM frame, one
//!   conventional forward hop into the tag's passive envelope detector
//!   (−32 dBm sensitivity, §4.4 / Fig. 13, the regime `sim::downlink`
//!   reproduces at the waveform level), and
//! * an *ack* budget per tag — the sink device's AM-OFDM frame decoded by
//!   the carrier's conventional radio (the §2.3.3 helper device, which
//!   relays the outcome to its tag over the short illumination-range hop),
//!
//! plus the median power of **every** emitter kind (tag, carrier, sink,
//! external source) at every listener kind (receiver, tag, carrier), so
//! downlink collisions are arbitrated with the same capture rule as the
//! uplink.
//!
//! ## One layout at every fleet size
//!
//! No pair power is tabled: a capture arbitration reads a handful of
//! pairs, so each is evaluated when it is asked for — one `log10` over the
//! live geometry plus cached per-emitter terms. A tag emitter reuses its
//! cached carrier → tag base. Every other emitter (a carrier's poll, a
//! sink's ack, an external source) is one record — EIRP, path-loss
//! evaluator, frequency — and follows one rule: EIRP plus the listener's
//! package minus the path loss. Only each tag's own uplink, poll and ack
//! budgets are stored, so a 100k-tag campus and a ten-bed ward share one
//! code path and one memory profile.
//!
//! Build cost is linear in the fleet because the position-independent
//! terms are memoised on their real inputs: a tag's receive package
//! (antenna gain − tissue) once per `(profile, frequency)`, keyed by
//! `f64::to_bits`, and its uplink terms once per (carrier, receiver,
//! profile, sideband, PHY). Both return the very f64 the direct
//! evaluation gives, so memoisation never moves a digest.
//!
//! ## Live geometry and invalidation
//!
//! Since mobility landed ([`crate::mobility`]), the matrix owns the *live*
//! geometry: a position per entity, initialised from the scenario and
//! updated through [`LinkMatrix::set_position`]. Pair powers read it
//! directly and are never stale; the stored budgets are. Moving an entity
//! marks it dirty, and [`LinkMatrix::flush`] refreshes **only the budgets
//! of the tags it touches** — the tag itself, a carrier's illuminated
//! tags, a sink's current members — from position-independent terms
//! (antenna gains, tissue attenuations, conversion losses, per-frequency
//! path-loss models) cached once at build time. A mobility tick over a
//! hundred tags therefore costs a few `log10`s per tag instead of a
//! rebuild — anchored by the `net_mobility` bench against a full
//! [`LinkMatrix::build`].
//!
//! The scenario's own entity positions are private (build-time inputs, see
//! [`crate::entities`]); they cannot be mutated behind the matrix's back,
//! which closes the stale-geometry bug where a caller repositioned a tag
//! and silently kept the old budgets.

use crate::entities::{NetPhy, Position, TagProfile};
use crate::mac::MacMode;
use crate::medium::Emitter;
use crate::scenario::Scenario;
use crate::NetError;
use interscatter_backscatter::envelope::EnvelopeDetector;
use interscatter_backscatter::tag::SidebandMode;
use interscatter_channel::antenna::Antenna;
use interscatter_channel::link::{BackscatterLink, ConversionLoss};
use interscatter_channel::noise::NoiseModel;
use interscatter_channel::pathloss::{gaussian, LogDistanceModel};
use interscatter_wifi::ofdm::OFDM_SAMPLE_RATE;
use rand::Rng;

/// The budget of one point-to-point reception: a tag's uplink to its
/// destination receiver, a poll into a tag's envelope detector, or an ack
/// into a carrier's radio.
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Median RSSI at the destination, dBm.
    pub median_rssi_dbm: f64,
    /// Combined lognormal shadowing standard deviation of the path, dB.
    pub shadow_sigma_db: f64,
    /// The destination's sensitivity, dBm.
    pub sensitivity_dbm: f64,
    /// The destination's noise floor, dBm.
    pub noise_floor_dbm: f64,
}

impl LinkBudget {
    /// Median SNR at the destination receiver, dB.
    pub fn median_snr_db(&self) -> f64 {
        self.median_rssi_dbm - self.noise_floor_dbm
    }

    /// Median margin above the sensitivity cliff, dB.
    pub fn margin_db(&self) -> f64 {
        self.median_rssi_dbm - self.sensitivity_dbm
    }

    /// Draws one packet's shadowed RSSI and whether the receiver decodes
    /// it, `(ok, rssi_dbm)`.
    pub fn packet_outcome<R: Rng>(&self, rng: &mut R) -> (bool, f64) {
        let rssi = self.median_rssi_dbm + gaussian(rng) * self.shadow_sigma_db;
        (rssi >= self.sensitivity_dbm, rssi)
    }
}

/// Where a signal is being received during collision arbitration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Listener {
    /// A sink receiver decoding a tag's uplink packet.
    Receiver(usize),
    /// A tag's envelope detector decoding a poll.
    Tag(usize),
    /// A carrier's radio decoding an ack.
    Carrier(usize),
}

/// One entity of the scenario, for geometry updates. Ordered by variant
/// (tags, carriers, sinks), then by index: the derive's order, written out
/// by hand for the reason [`crate::time::Time`] gives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntityId {
    /// A backscatter tag.
    Tag(usize),
    /// A carrier device.
    Carrier(usize),
    /// A sink receiver.
    Sink(usize),
}

impl Ord for EntityId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let key = |e: &EntityId| match *e {
            EntityId::Tag(i) => (0u8, i),
            EntityId::Carrier(i) => (1, i),
            EntityId::Sink(i) => (2, i),
        };
        key(self).cmp(&key(other))
    }
}

impl PartialOrd for EntityId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A log-distance path-loss evaluator with the reference loss folded in:
/// one comparison and one `log10` per call. `LogDistanceModel::path_loss_db`
/// recomputes its reference Friis loss (a second `log10`, a `powi` and a
/// wavelength division) on every call — too slow for the per-query pair
/// powers capture arbitration and the mobility tick's budget refreshes
/// evaluate.
#[derive(Debug, Clone, Copy)]
struct FastPathLoss {
    /// Friis loss at the 1 m reference distance, dB.
    ref_loss_db: f64,
    /// dB per decade of *squared* distance beyond the reference
    /// (10 × exponent / 2 — [`log_distance`] hands over `log10(d²)`).
    half_decade_db: f64,
}

impl FastPathLoss {
    fn new(model: &LogDistanceModel) -> Self {
        // The folded form below assumes the 1 m reference every model in
        // this crate uses (`LogDistanceModel::indoor_los`).
        debug_assert!((model.reference_m - 1.0).abs() < 1e-12);
        FastPathLoss {
            ref_loss_db: model.path_loss_db(model.reference_m),
            half_decade_db: 5.0 * model.exponent,
        }
    }

    /// Median path loss from a precomputed [`log_distance`] — a tag's
    /// budget refresh evaluates two models (illumination and poll) over
    /// the same carrier → tag distance, and this shares the single `log10`
    /// between them.
    #[inline]
    fn db_at(&self, log10_q: f64, within_ref: bool) -> f64 {
        if within_ref {
            // Friis: 20·log10(d) = 10·log10(d²).
            self.ref_loss_db + 10.0 * log10_q
        } else {
            self.ref_loss_db + self.half_decade_db * log10_q
        }
    }
}

/// `(log10(d²), d ≤ reference)` between two positions, with the 1 cm floor
/// every path-loss model applies — the shared prefix of
/// [`FastPathLoss::db_at`]. Works on the *squared* distance
/// (`log10(d) = log10(d²) / 2`, folded into the slope), so a pair query
/// takes neither a square root nor a division. Bit-symmetric in its
/// arguments: `a − b` is exactly `−(b − a)`, so a pair's power does not
/// depend on which end is named first.
#[inline]
fn log_distance(a: &Position, b: &Position) -> (f64, bool) {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    let dz = a.z - b.z;
    let q = (dx * dx + dy * dy + dz * dz).max(1e-4);
    (q.log10(), q <= 1.0)
}

/// The four tag packages, in `TagProfile as usize` order — the column
/// index of [`PkgGains`].
const PROFILES: [TagProfile; 4] = [
    TagProfile::Bench,
    TagProfile::ContactLens,
    TagProfile::NeuralImplant,
    TagProfile::Card,
];

/// Every tag's receive package (antenna gain − tissue, one forward hop) at
/// every frequency an emitter of the run uses. The package is a pure
/// function of `(profile, frequency)` and a fleet uses a handful of each,
/// so every value is evaluated once, at registration, and every pair
/// query reads it back. Frequencies are keyed by `f64::to_bits`: a lookup
/// returns exactly the f64 [`rx_pkg_db`] would produce.
#[derive(Debug, Clone)]
struct PkgGains {
    /// Registered frequencies, as bit patterns.
    freq_bits: Vec<u64>,
    /// `[f][profile]`: `rx_pkg_db(PROFILES[profile], f)`, dB.
    db: Vec<[f64; 4]>,
    /// Per tag: its package (fixed for the run).
    tag_profile: Vec<TagProfile>,
    /// Per tag: its emission frequency (follows re-tunes).
    tag_freq: Vec<u32>,
}

impl PkgGains {
    /// The index of `freq_hz`, evaluating all four packages at it the first
    /// time it is seen.
    fn register(&mut self, freq_hz: f64) -> u32 {
        let bits = freq_hz.to_bits();
        if let Some(f) = self.freq_bits.iter().position(|&b| b == bits) {
            return f as u32;
        }
        self.freq_bits.push(bits);
        self.db.push(PROFILES.map(|p| rx_pkg_db(p, freq_hz)));
        (self.freq_bits.len() - 1) as u32
    }

    /// Tag `t`'s receive package at registered frequency `f`, dB.
    #[inline]
    fn at(&self, t: usize, f: u32) -> f64 {
        self.db[f as usize][self.tag_profile[t] as usize]
    }
}

/// One emitter that is not a tag — a carrier's poll, a sink's ack or an
/// external source: every position-independent term of its power at a
/// listener, `eirp_dbm + package − pl(d)` ([`LinkMatrix::power_dbm`]).
#[derive(Debug, Clone, Copy)]
struct Radiator {
    /// Transmit power plus the 2 dBi monopole, dBm.
    eirp_dbm: f64,
    /// Path-loss evaluator at its emission frequency.
    pl: FastPathLoss,
    /// Its emission frequency, registered in [`PkgGains`].
    freq: u32,
}

impl Radiator {
    /// An emitter of `tx_power_dbm` through `model`, registering the
    /// tags' packages at its frequency.
    fn new(tx_power_dbm: f64, model: &LogDistanceModel, pkg: &mut PkgGains) -> Self {
        Radiator {
            eirp_dbm: tx_power_dbm + 2.0,
            pl: FastPathLoss::new(model),
            freq: pkg.register(model.freq_hz),
        }
    }
}

/// The closed-loop extension: the downlink budgets and the carrier and
/// sink emitters (only built for `MacMode::ClosedLoop` scenarios —
/// open-loop runs never arbitrate at tags or carriers).
#[derive(Debug, Clone)]
struct ClosedLoop {
    /// Per tag: carrier poll → the tag's envelope detector.
    poll_budgets: Vec<LinkBudget>,
    /// Per tag: sink ack → the tag's carrier radio.
    ack_budgets: Vec<LinkBudget>,
    /// Per carrier: its poll, at its tone frequency.
    carriers: Vec<Radiator>,
    /// Per sink: its ack, at its downlink frequency.
    sinks: Vec<Radiator>,
    /// Per sink: the shadowing sigma of its downlink path-loss model — the
    /// value a re-tuned tag's poll/ack budgets pick up.
    sink_sigma_db: Vec<f64>,
}

/// Precomputed budgets for every tag, the live geometry they were
/// computed from, and the cached terms that make budget refreshes and
/// per-query pair powers cheap.
#[derive(Debug, Clone)]
pub struct LinkMatrix {
    budgets: Vec<LinkBudget>,
    closed_loop: Option<ClosedLoop>,
    /// Per external coexistence source: its emitter and where it sits
    /// (static for the whole run). Empty without coex sources.
    ext: Vec<(Radiator, Position)>,
    /// Package gains of every tag at every emitter frequency.
    pkg: PkgGains,
    // --- live geometry ---
    tag_pos: Vec<Position>,
    carrier_pos: Vec<Position>,
    sink_pos: Vec<Position>,
    // --- live assignment ---
    /// Per tag: the receiver it currently delivers to. Initialised from
    /// the scenario; adaptive re-striping re-tunes it through
    /// [`LinkMatrix::retune_tag`].
    tag_rx: Vec<usize>,
    /// Per tag: the PHY it currently synthesizes (the scenario's until a
    /// re-stripe re-tunes it).
    tag_phy: Vec<NetPhy>,
    /// Per carrier: the tags it illuminates, hoisted once at build so a
    /// moved carrier refreshes exactly its own members instead of
    /// scanning the fleet — the membership never changes during a run.
    carrier_tags: Vec<Vec<usize>>,
    /// Per sink: the tags currently delivering to it (in ascending tag
    /// order; follows `tag_rx` across re-stripes).
    sink_tags: Vec<Vec<usize>>,
    // --- position-independent uplink terms ---
    /// Per tag: every term of the two-hop uplink budget except the two
    /// path losses (with the standard 2 dBi listener package).
    up_fixed_db: Vec<f64>,
    /// Per tag: path-loss evaluator of the carrier → tag hop.
    up_pl_src: Vec<FastPathLoss>,
    /// Per tag: path-loss evaluator of the tag → listener hop.
    up_pl_emit: Vec<FastPathLoss>,
    /// Per tag: `up_fixed_db − pl_src(d(carrier, tag))` at the current
    /// geometry — the base every emission of this tag reuses. Maintained
    /// by `refresh_tag`.
    up_base_db: Vec<f64>,
    /// Entities whose budgets are stale, pending a [`LinkMatrix::flush`].
    dirty: Vec<EntityId>,
}

/// The two-hop backscatter model of tag `t`'s uplink, synthesizing `phy`
/// (the scenario's PHY at build time; possibly a re-tuned channel after a
/// re-stripe).
fn uplink_model(scenario: &Scenario, t: usize, phy: &NetPhy) -> BackscatterLink {
    let tag = &scenario.tags[t];
    let carrier = &scenario.carriers[tag.carrier];
    let carrier_freq = carrier.carrier_freq_hz();
    let emission_freq = phy.center_freq_hz(carrier_freq);
    let conversion = match (tag.profile, tag.sideband) {
        // Card-to-card OOK is energy detection of both sidebands.
        (TagProfile::Card, _) => ConversionLoss::double_sideband(),
        (_, SidebandMode::Single) => ConversionLoss::single_sideband(),
        (_, SidebandMode::Double) => ConversionLoss::double_sideband(),
    };
    BackscatterLink {
        tx_power_dbm: carrier.tx_power_dbm,
        tx_antenna: Antenna::monopole_2dbi(),
        tag_antenna: tag.profile.antenna(),
        rx_antenna: Antenna::monopole_2dbi(),
        source_to_tag: LogDistanceModel::indoor_los(carrier_freq),
        tag_to_rx: LogDistanceModel::indoor_los(emission_freq),
        tissue_source_to_tag: tag.profile.tissue(),
        tissue_tag_to_rx: tag.profile.tissue(),
        conversion,
    }
}

/// Every term of the uplink budget except the two path losses, plus the
/// combined shadowing sigma — shared by the build and by
/// [`LinkMatrix::retune_tag`]. Evaluating the full budget at the reference
/// geometry and adding the reference path losses back keeps the fixed part
/// consistent with `BackscatterLink::received_power_dbm` by construction.
fn uplink_fixed_terms(link: &BackscatterLink) -> (f64, f64) {
    let fixed = link.received_power_dbm(1.0, 1.0)
        + link.source_to_tag.path_loss_db(1.0)
        + link.tag_to_rx.path_loss_db(1.0);
    let s1 = link.source_to_tag.shadowing_sigma_db;
    let s2 = link.tag_to_rx.shadowing_sigma_db;
    (fixed, (s1 * s1 + s2 * s2).sqrt())
}

/// The frequency sink `s` transmits its AM downlink on: its own listening
/// band. Envelope-detector sinks (card peers) sit on the carrier tone; the
/// card scenario has a single carrier, so its tone stands in for them.
fn sink_freq_hz(scenario: &Scenario, s: usize) -> f64 {
    scenario.receivers[s].center_freq_hz(scenario.carriers[0].carrier_freq_hz())
}

/// A tag's receive package at `freq_hz`: effective antenna gain minus the
/// tissue covering it (one forward hop), dB — evaluated once per
/// `(profile, frequency)` by [`PkgGains::register`].
fn rx_pkg_db(profile: TagProfile, freq_hz: f64) -> f64 {
    profile.antenna().effective_gain_dbi() - profile.tissue().attenuation_db(freq_hz)
}

/// Tag `t`'s position-independent uplink terms: the budget skeleton, the
/// fixed dB term and the two cached path-loss models.
#[derive(Debug, Clone, Copy)]
struct UplinkRowTerms {
    budget: LinkBudget,
    fixed_db: f64,
    pl_src: FastPathLoss,
    pl_emit: FastPathLoss,
    emit_freq_hz: f64,
}

fn uplink_row_terms(scenario: &Scenario, t: usize) -> Result<UplinkRowTerms, NetError> {
    let tag = &scenario.tags[t];
    let link = uplink_model(scenario, t, &tag.phy);
    link.validate()?;
    let (fixed, sigma) = uplink_fixed_terms(&link);
    let noise = tag.phy.noise_model();
    Ok(UplinkRowTerms {
        budget: LinkBudget {
            median_rssi_dbm: 0.0, // filled by refresh_tag during the build
            shadow_sigma_db: sigma,
            sensitivity_dbm: scenario.receivers[tag.receiver].sensitivity_dbm,
            noise_floor_dbm: noise.noise_floor_dbm(),
        },
        fixed_db: fixed,
        pl_src: FastPathLoss::new(&link.source_to_tag),
        pl_emit: FastPathLoss::new(&link.tag_to_rx),
        emit_freq_hz: link.tag_to_rx.freq_hz,
    })
}

/// Everything of tag `t` that [`uplink_row_terms`] reads: carrier,
/// receiver, package, sideband and PHY (as a kind and an exact payload).
/// A fleet shares a few hundred of these, so the build evaluates each once.
type UplinkKey = (usize, usize, usize, usize, u8, u64);

fn uplink_key(scenario: &Scenario, t: usize) -> UplinkKey {
    let tag = &scenario.tags[t];
    let phy = match tag.phy {
        NetPhy::Wifi { rate, channel } => (0, (rate as u64) << 8 | u64::from(channel)),
        NetPhy::Zigbee { channel } => (1, u64::from(channel)),
        NetPhy::CardOok { bit_rate_bps } => (2, bit_rate_bps.to_bits()),
    };
    (
        tag.carrier,
        tag.receiver,
        tag.profile as usize,
        tag.sideband as usize,
        phy.0,
        phy.1,
    )
}

impl LinkMatrix {
    /// Builds the matrix for a validated scenario, caching the
    /// position-independent terms and filling every budget through the
    /// same per-tag refresh [`LinkMatrix::flush`] uses — so an incremental
    /// update lands on exactly the values a fresh build would produce.
    pub fn build(scenario: &Scenario) -> Result<LinkMatrix, NetError> {
        let n_tags = scenario.tags.len();
        let n_rx = scenario.receivers.len();
        let n_carriers = scenario.carriers.len();

        let tag_pos: Vec<Position> = scenario.tags.iter().map(|t| t.position()).collect();
        let carrier_pos: Vec<Position> = scenario.carriers.iter().map(|c| c.position()).collect();
        let sink_pos: Vec<Position> = scenario.receivers.iter().map(|r| r.position()).collect();

        let mut pkg = PkgGains {
            freq_bits: Vec::new(),
            db: Vec::new(),
            tag_profile: scenario.tags.iter().map(|t| t.profile).collect(),
            tag_freq: Vec::with_capacity(n_tags),
        };
        // The per-tag uplink terms, memoised on their inputs (sorted by
        // key): each distinct key is evaluated once, in tag order, so the
        // first invalid link is the one reported.
        let mut memo: Vec<(UplinkKey, UplinkRowTerms, u32)> = Vec::new();
        let mut budgets = Vec::with_capacity(n_tags);
        let mut up_fixed_db = Vec::with_capacity(n_tags);
        let mut up_pl_src = Vec::with_capacity(n_tags);
        let mut up_pl_emit = Vec::with_capacity(n_tags);
        for t in 0..n_tags {
            let key = uplink_key(scenario, t);
            let (row, freq) = match memo.binary_search_by(|m| m.0.cmp(&key)) {
                Ok(i) => (memo[i].1, memo[i].2),
                Err(i) => {
                    let row = uplink_row_terms(scenario, t)?;
                    let freq = pkg.register(row.emit_freq_hz);
                    memo.insert(i, (key, row, freq));
                    (row, freq)
                }
            };
            budgets.push(row.budget);
            up_fixed_db.push(row.fixed_db);
            up_pl_src.push(row.pl_src);
            up_pl_emit.push(row.pl_emit);
            pkg.tag_freq.push(freq);
        }

        let closed_loop = match scenario.mac {
            MacMode::OpenLoop => None,
            MacMode::ClosedLoop => {
                let detector_sensitivity = EnvelopeDetector::new(OFDM_SAMPLE_RATE).sensitivity_dbm;
                let envelope_noise = NoiseModel::envelope_detector().noise_floor_dbm();
                let radio_noise = NoiseModel::wifi_dsss().noise_floor_dbm();
                let carriers = scenario
                    .carriers
                    .iter()
                    .map(|c| {
                        let model = LogDistanceModel::indoor_los(c.carrier_freq_hz());
                        Radiator::new(c.tx_power_dbm, &model, &mut pkg)
                    })
                    .collect();
                let sink_models: Vec<LogDistanceModel> = (0..n_rx)
                    .map(|s| LogDistanceModel::indoor_los(sink_freq_hz(scenario, s)))
                    .collect();
                let sinks = scenario
                    .receivers
                    .iter()
                    .zip(&sink_models)
                    .map(|(r, model)| Radiator::new(r.downlink_tx_power_dbm, model, &mut pkg))
                    .collect();
                let sink_sigma_db: Vec<f64> =
                    sink_models.iter().map(|m| m.shadowing_sigma_db).collect();
                let budget = |sensitivity_dbm: f64, noise_floor_dbm: f64, sigma: f64| LinkBudget {
                    median_rssi_dbm: 0.0, // filled by refresh_tag below
                    shadow_sigma_db: sigma,
                    sensitivity_dbm,
                    noise_floor_dbm,
                };
                Some(ClosedLoop {
                    poll_budgets: scenario
                        .tags
                        .iter()
                        .map(|tag| {
                            budget(
                                detector_sensitivity,
                                envelope_noise,
                                sink_sigma_db[tag.receiver],
                            )
                        })
                        .collect(),
                    ack_budgets: scenario
                        .tags
                        .iter()
                        .map(|tag| {
                            budget(
                                scenario.carriers[tag.carrier].ack_sensitivity_dbm,
                                radio_noise,
                                sink_sigma_db[tag.receiver],
                            )
                        })
                        .collect(),
                    carriers,
                    sinks,
                    sink_sigma_db,
                })
            }
        };

        // External coexistence sources: static emitters whose power at
        // every listener feeds the same capture arbitration as in-model
        // traffic.
        let ext = scenario
            .coex
            .iter()
            .flat_map(|cfg| &cfg.sources)
            .map(|s| {
                let model = LogDistanceModel::indoor_los(s.model.band().center_hz);
                (Radiator::new(s.tx_power_dbm, &model, &mut pkg), s.position)
            })
            .collect();

        let mut carrier_tags: Vec<Vec<usize>> = vec![Vec::new(); n_carriers];
        for (t, tag) in scenario.tags.iter().enumerate() {
            carrier_tags[tag.carrier].push(t);
        }
        let mut sink_tags: Vec<Vec<usize>> = vec![Vec::new(); n_rx];
        for (t, tag) in scenario.tags.iter().enumerate() {
            sink_tags[tag.receiver].push(t);
        }

        let mut matrix = LinkMatrix {
            budgets,
            closed_loop,
            ext,
            pkg,
            tag_pos,
            carrier_pos,
            sink_pos,
            tag_rx: scenario.tags.iter().map(|t| t.receiver).collect(),
            tag_phy: scenario.tags.iter().map(|t| t.phy).collect(),
            carrier_tags,
            sink_tags,
            up_fixed_db,
            up_pl_src,
            up_pl_emit,
            up_base_db: vec![0.0; n_tags],
            dirty: Vec::new(),
        };
        for t in 0..n_tags {
            matrix.refresh_tag(scenario, t);
        }
        Ok(matrix)
    }

    /// The live position of `id`.
    pub fn position(&self, id: EntityId) -> Position {
        match id {
            EntityId::Tag(t) => self.tag_pos[t],
            EntityId::Carrier(c) => self.carrier_pos[c],
            EntityId::Sink(s) => self.sink_pos[s],
        }
    }

    /// Moves `id` to `position` and marks it dirty. Pair powers follow at
    /// once; the budgets it touches keep their old values until
    /// [`LinkMatrix::flush`] runs.
    pub fn set_position(&mut self, id: EntityId, position: Position) {
        match id {
            EntityId::Tag(t) => self.tag_pos[t] = position,
            EntityId::Carrier(c) => self.carrier_pos[c] = position,
            EntityId::Sink(s) => self.sink_pos[s] = position,
        }
        self.invalidate_entity(id);
    }

    /// Marks `id` dirty without moving it (for callers that batch position
    /// writes themselves).
    pub fn invalidate_entity(&mut self, id: EntityId) {
        self.dirty.push(id);
    }

    /// Number of dirty entities.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Refreshes the budgets of every tag a dirty entity touches — the tag
    /// itself, every tag a carrier illuminates (both uplink hops, the poll
    /// and the ack), every tag a sink currently serves (uplink and ack) —
    /// from the cached position-independent terms and the live geometry,
    /// returning how many distinct entities were dirty. Each tag costs a
    /// few `log10`s; nothing else of the build is repeated.
    pub fn flush(&mut self, scenario: &Scenario) -> usize {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let refreshed = dirty.len();
        if refreshed == 0 {
            return 0;
        }
        let mut tag_dirty = vec![false; self.tag_pos.len()];
        for id in &dirty {
            let touched = match id {
                EntityId::Tag(t) => std::slice::from_ref(t),
                EntityId::Carrier(c) => &self.carrier_tags[*c],
                EntityId::Sink(s) => &self.sink_tags[*s],
            };
            for &t in touched {
                tag_dirty[t] = true;
            }
        }
        for (t, &dirty) in tag_dirty.iter().enumerate() {
            if dirty {
                self.refresh_tag(scenario, t);
            }
        }
        refreshed
    }

    /// Tag `t`'s own budgets: its uplink to its live receiver (and the
    /// cached carrier → tag base every per-query power of `t` as an
    /// emitter reuses) and — closed loop — its poll and ack budgets.
    fn refresh_tag(&mut self, scenario: &Scenario, t: usize) {
        let c = scenario.tags[t].carrier;
        // The tag's *live* destination: the scenario's assignment, unless a
        // re-stripe re-tuned it ([`LinkMatrix::retune_tag`]).
        let s = self.tag_rx[t];
        // The carrier → tag hop: the base of every emission of this tag,
        // and (closed loop) the poll distance.
        let hop1 = log_distance(&self.carrier_pos[c], &self.tag_pos[t]);
        self.up_base_db[t] = self.up_fixed_db[t] - self.up_pl_src[t].db_at(hop1.0, hop1.1);
        self.budgets[t].median_rssi_dbm = self.tag_power_dbm(t, Listener::Receiver(s));

        let Some(cl) = &self.closed_loop else {
            return;
        };
        // Poll: the carrier's AM frame on the tag's service band (its sink's
        // downlink frequency), one conventional hop into the envelope
        // detector (same distance as the illumination hop above).
        let service = &cl.sinks[s];
        let poll = cl.carriers[c].eirp_dbm + self.pkg.at(t, service.freq)
            - service.pl.db_at(hop1.0, hop1.1);
        // Ack: the sink's AM frame into the carrier's radio.
        let ack = self.power_dbm(Emitter::Sink(s), Listener::Carrier(c));
        let cl = self.closed_loop.as_mut().expect("closed loop");
        cl.poll_budgets[t].median_rssi_dbm = poll;
        cl.ack_budgets[t].median_rssi_dbm = ack;
    }

    /// Re-tunes tag `t` to deliver to `new_rx` synthesizing `new_phy` —
    /// the adaptive re-striping entry point ([`crate::coex::ReStripe`]).
    /// Recomputes the position-independent terms that depend on the
    /// emission frequency and destination (uplink fixed terms, path-loss
    /// evaluator, sensitivity/noise, the emission frequency's package
    /// gains and the poll/ack shadowing sigmas), then marks the tag dirty:
    /// call [`LinkMatrix::flush`] afterwards to land the new budgets, the
    /// same way a mobility tick does.
    pub fn retune_tag(&mut self, scenario: &Scenario, t: usize, new_rx: usize, new_phy: NetPhy) {
        debug_assert!(
            scenario.receivers[new_rx].accepts(&new_phy),
            "tag {t}: receiver {new_rx} cannot decode the re-tuned PHY"
        );
        let old_rx = self.tag_rx[t];
        if old_rx != new_rx {
            self.sink_tags[old_rx].retain(|&u| u != t);
            let row = &mut self.sink_tags[new_rx];
            let at = row.partition_point(|&u| u < t);
            row.insert(at, t);
            self.tag_rx[t] = new_rx;
        }
        self.tag_phy[t] = new_phy;
        let link = uplink_model(scenario, t, &new_phy);
        let (fixed, sigma) = uplink_fixed_terms(&link);
        self.up_fixed_db[t] = fixed;
        self.up_pl_src[t] = FastPathLoss::new(&link.source_to_tag);
        self.up_pl_emit[t] = FastPathLoss::new(&link.tag_to_rx);
        self.budgets[t].shadow_sigma_db = sigma;
        self.budgets[t].sensitivity_dbm = scenario.receivers[new_rx].sensitivity_dbm;
        self.budgets[t].noise_floor_dbm = new_phy.noise_model().noise_floor_dbm();
        // Peers' packages at the new emission frequency: evaluated once,
        // the first time any tag emits there.
        self.pkg.tag_freq[t] = self.pkg.register(link.tag_to_rx.freq_hz);
        if let Some(cl) = self.closed_loop.as_mut() {
            cl.poll_budgets[t].shadow_sigma_db = cl.sink_sigma_db[new_rx];
            cl.ack_budgets[t].shadow_sigma_db = cl.sink_sigma_db[new_rx];
        }
        self.invalidate_entity(EntityId::Tag(t));
    }

    /// The receiver tag `t` currently delivers to (the scenario's
    /// assignment until a re-stripe re-tunes it).
    pub fn tag_receiver(&self, t: usize) -> usize {
        self.tag_rx[t]
    }

    /// The PHY tag `t` currently synthesizes (the scenario's until a
    /// re-stripe re-tunes it).
    pub fn tag_phy(&self, t: usize) -> NetPhy {
        self.tag_phy[t]
    }

    /// The tags carrier `c` illuminates, in ascending index order — the
    /// hoisted membership index (fixed for the run).
    pub fn carrier_tags(&self, c: usize) -> &[usize] {
        &self.carrier_tags[c]
    }

    fn closed(&self) -> &ClosedLoop {
        self.closed_loop
            .as_ref()
            .expect("poll and ack budgets are only built for MacMode::ClosedLoop scenarios")
    }

    /// The budget of `tag`'s uplink.
    pub fn budget(&self, tag: usize) -> &LinkBudget {
        &self.budgets[tag]
    }

    /// The budget of the poll downlink into `tag`'s envelope detector
    /// (closed-loop scenarios only).
    pub fn poll_budget(&self, tag: usize) -> &LinkBudget {
        &self.closed().poll_budgets[tag]
    }

    /// The budget of the ack downlink from `tag`'s sink into its carrier's
    /// radio (closed-loop scenarios only).
    pub fn ack_budget(&self, tag: usize) -> &LinkBudget {
        &self.closed().ack_budgets[tag]
    }

    /// Live margin of `tag`'s uplink above its receiver's sensitivity
    /// cliff, dB — the signal [`crate::sched::SchedPolicy::MarginAware`]
    /// polls every carrier slot. Fresh after every mobility-tick
    /// [`LinkMatrix::flush`], so a walking tag's fade shows up within one
    /// tick.
    pub fn uplink_margin_db(&self, tag: usize) -> f64 {
        self.budgets[tag].margin_db()
    }

    /// Median power of emitter `from`'s signal at listener `at`, dBm, from
    /// the live geometry. Used for capture arbitration; carrier and sink
    /// emitters need a closed-loop scenario, external ones the scenario's
    /// coex sources. Every emitter but a tag follows one rule: EIRP plus
    /// the listener's package at the emitter's frequency (2 dBi at a
    /// receiver or carrier) minus the path loss.
    pub fn power_dbm(&self, from: Emitter, at: Listener) -> f64 {
        let (radiator, pos) = match from {
            Emitter::Tag(u) => return self.tag_power_dbm(u, at),
            Emitter::Carrier(c) => (&self.closed().carriers[c], &self.carrier_pos[c]),
            Emitter::Sink(s) => (&self.closed().sinks[s], &self.sink_pos[s]),
            Emitter::External(k) => {
                let (radiator, pos) = &self.ext[k];
                (radiator, pos)
            }
        };
        let gain = match at {
            Listener::Tag(t) => self.pkg.at(t, radiator.freq),
            Listener::Receiver(_) | Listener::Carrier(_) => 2.0,
        };
        let (l, near) = log_distance(self.listener_pos(at), pos);
        radiator.eirp_dbm + gain - radiator.pl.db_at(l, near)
    }

    /// Tag `u`'s emission at listener `at`, dBm, from the live geometry and
    /// `u`'s cached base. The uplink terms carry the standard 2 dBi
    /// listener package; a tag listener swaps in its own package at `u`'s
    /// frequency.
    fn tag_power_dbm(&self, u: usize, at: Listener) -> f64 {
        let (l, near) = log_distance(&self.tag_pos[u], self.listener_pos(at));
        let power = self.up_base_db[u] - self.up_pl_emit[u].db_at(l, near);
        match at {
            Listener::Tag(t) => power - 2.0 + self.pkg.at(t, self.pkg.tag_freq[u]),
            Listener::Receiver(_) | Listener::Carrier(_) => power,
        }
    }

    /// The live position of listener `at`.
    fn listener_pos(&self, at: Listener) -> &Position {
        match at {
            Listener::Receiver(r) => &self.sink_pos[r],
            Listener::Tag(t) => &self.tag_pos[t],
            Listener::Carrier(c) => &self.carrier_pos[c],
        }
    }

    /// Number of tags covered.
    pub fn len(&self) -> usize {
        self.budgets.len()
    }

    /// True when the scenario had no tags.
    pub fn is_empty(&self) -> bool {
        self.budgets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// Every preset the memo tests sweep: each closed-loop bedside preset
    /// (with coex sources, mobility and card OOK among them) and a small
    /// campus.
    fn presets() -> Vec<Scenario> {
        vec![
            Scenario::hospital_ward(24).closed_loop(),
            Scenario::contact_lens_fleet(6).closed_loop(),
            Scenario::card_to_card_room(5).closed_loop(),
            Scenario::zigbee_wing(12).closed_loop(),
            Scenario::congested_ward(16).closed_loop(),
            Scenario::ambulatory_ward(8).closed_loop(),
            Scenario::campus(600),
        ]
    }

    /// Every registered package gain is the f64 `rx_pkg_db` gives, and
    /// every emitter points at its own frequency.
    fn assert_pkg_gains_exact(m: &LinkMatrix, scenario: &Scenario, when: &str) {
        let pkg = &m.pkg;
        for (&bits, row) in pkg.freq_bits.iter().zip(&pkg.db) {
            let freq = f64::from_bits(bits);
            for (&profile, &db) in PROFILES.iter().zip(row) {
                let direct = rx_pkg_db(profile, freq);
                assert_eq!(
                    db.to_bits(),
                    direct.to_bits(),
                    "{when}: {profile:?} at {freq} Hz"
                );
            }
        }
        let freq_of = |f: u32| pkg.freq_bits[f as usize];
        for (t, tag) in scenario.tags.iter().enumerate() {
            assert_eq!(pkg.tag_profile[t], tag.profile, "{when}: tag {t}");
            let emit = uplink_model(scenario, t, &tag.phy).tag_to_rx.freq_hz;
            assert_eq!(freq_of(pkg.tag_freq[t]), emit.to_bits(), "{when}: tag {t}");
        }
        if let Some(cl) = m.closed_loop.as_ref() {
            for (c, spec) in scenario.carriers.iter().enumerate() {
                assert_eq!(
                    freq_of(cl.carriers[c].freq),
                    spec.carrier_freq_hz().to_bits()
                );
            }
            for s in 0..scenario.receivers.len() {
                assert_eq!(
                    freq_of(cl.sinks[s].freq),
                    sink_freq_hz(scenario, s).to_bits()
                );
            }
        }
        if let Some(cfg) = scenario.coex.as_ref() {
            for (k, src) in cfg.sources.iter().enumerate() {
                let band = src.model.band().center_hz.to_bits();
                assert_eq!(freq_of(m.ext[k].0.freq), band, "{when}: source {k}");
            }
        }
    }

    #[test]
    fn pkg_gains_match_direct_evaluation() {
        use interscatter_wifi::dot11b::DsssRate;
        for scenario in presets() {
            let matrix = LinkMatrix::build(&scenario).unwrap();
            assert_pkg_gains_exact(&matrix, &scenario, &scenario.name);
            // A handful of frequencies serve the whole fleet.
            assert!(matrix.pkg.freq_bits.len() <= 16, "{}", scenario.name);
        }
        // A channel no emitter of the run has used yet: registering it
        // evaluates four fresh gains, which must match too.
        let ward = Scenario::hospital_ward(1);
        let mut matrix = LinkMatrix::build(&ward).unwrap();
        let before = matrix.pkg.freq_bits.len();
        let ch11 = NetPhy::Wifi {
            rate: DsssRate::Mbps2,
            channel: 11,
        };
        matrix.retune_tag(&ward, 0, 2, ch11);
        assert_eq!(matrix.pkg.freq_bits.len(), before + 1);
        let mut moved = ward.clone();
        moved.tags[0].receiver = 2;
        moved.tags[0].phy = ch11;
        assert_pkg_gains_exact(&matrix, &moved, "after a re-tune to a new channel");
    }

    #[test]
    fn memoised_uplink_terms_match_direct_evaluation() {
        // Tags sharing an uplink key share one evaluation; every tag must
        // still land exactly its own terms, to the last mantissa bit.
        for scenario in presets() {
            let matrix = LinkMatrix::build(&scenario).unwrap();
            for t in 0..scenario.tags.len() {
                let row = uplink_row_terms(&scenario, t).unwrap();
                let b = (&matrix.budgets[t], &row.budget);
                assert_eq!(b.0.shadow_sigma_db.to_bits(), b.1.shadow_sigma_db.to_bits());
                assert_eq!(b.0.sensitivity_dbm.to_bits(), b.1.sensitivity_dbm.to_bits());
                assert_eq!(b.0.noise_floor_dbm.to_bits(), b.1.noise_floor_dbm.to_bits());
                assert_eq!(matrix.up_fixed_db[t].to_bits(), row.fixed_db.to_bits());
                for (a, b) in [
                    (matrix.up_pl_src[t], row.pl_src),
                    (matrix.up_pl_emit[t], row.pl_emit),
                ] {
                    assert_eq!(a.ref_loss_db.to_bits(), b.ref_loss_db.to_bits());
                    assert_eq!(a.half_decade_db.to_bits(), b.half_decade_db.to_bits());
                }
                let freq = matrix.pkg.freq_bits[matrix.pkg.tag_freq[t] as usize];
                assert_eq!(
                    freq,
                    row.emit_freq_hz.to_bits(),
                    "{}: tag {t}",
                    scenario.name
                );
            }
        }
    }

    #[test]
    fn one_and_zero_tag_fleets_are_well_defined() {
        // One tag (with an external source in the room) and no tags at
        // all: every emitter × listener power the matrix answers is finite.
        let one = Scenario::congested_ward(1).closed_loop();
        let mut empty = Scenario::hospital_ward(1).closed_loop();
        empty.tags.clear();
        for (scenario, n_tags) in [(&one, 1), (&empty, 0)] {
            let matrix = LinkMatrix::build(scenario).unwrap();
            assert_eq!(matrix.len(), n_tags);
            for (from, at) in pairs(&matrix) {
                let p = matrix.power_dbm(from, at);
                assert!(p.is_finite(), "{from:?} at {at:?}: {p} dBm");
            }
        }
        // The one-tag fleet runs without NaN; the empty one is refused
        // with the typed error, by the builder and `net::run` alike.
        let run = crate::run(&one, 7).unwrap();
        assert!(!run.metrics.report().contains("NaN"));
        assert!(matches!(
            crate::run(&empty, 7),
            Err(NetError::InvalidScenario(_))
        ));
        assert!(matches!(
            empty.builder().build(),
            Err(NetError::InvalidScenario(_))
        ));
    }

    #[test]
    fn nearer_tags_have_stronger_links() {
        let scenario = Scenario::hospital_ward(16);
        let matrix = LinkMatrix::build(&scenario).unwrap();
        assert_eq!(matrix.len(), 16);
        assert!(!matrix.is_empty());
        // Budgets must be position-dependent: not all medians equal.
        let medians: Vec<f64> = (0..16).map(|t| matrix.budget(t).median_rssi_dbm).collect();
        let min = medians.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = medians.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 1.0, "spread {min}..{max}");
    }

    #[test]
    fn interference_weakens_with_receiver_distance() {
        let scenario = Scenario::hospital_ward(4);
        let matrix = LinkMatrix::build(&scenario).unwrap();
        for t in 0..4 {
            let own = matrix.power_dbm(
                Emitter::Tag(t),
                Listener::Receiver(scenario.tags[t].receiver),
            );
            assert!((own - matrix.budget(t).median_rssi_dbm).abs() < 1e-9);
        }
    }

    #[test]
    fn packet_outcomes_follow_the_margin() {
        let strong = LinkBudget {
            median_rssi_dbm: -60.0,
            shadow_sigma_db: 2.8,
            sensitivity_dbm: -88.0,
            noise_floor_dbm: -93.6,
        };
        let weak = LinkBudget {
            median_rssi_dbm: -95.0,
            ..strong
        };
        assert!(strong.margin_db() > 20.0);
        assert!(strong.median_snr_db() > strong.margin_db());
        #[expect(
            clippy::disallowed_methods,
            reason = "test-local stream sampling packet outcomes, not an engine entity"
        )]
        let mut rng = SmallRng::seed_from_u64(1);
        let strong_ok = (0..200)
            .filter(|_| strong.packet_outcome(&mut rng).0)
            .count();
        let weak_ok = (0..200).filter(|_| weak.packet_outcome(&mut rng).0).count();
        assert_eq!(strong_ok, 200);
        assert!(weak_ok < 20, "weak link delivered {weak_ok}/200");
    }

    #[test]
    fn closed_loop_budgets_close_the_loop() {
        // The §2.3.3 geometry must make the loop viable: the bedside
        // carrier's poll reaches the implant's −32 dBm envelope detector,
        // and the AP's ack reaches the carrier's conventional radio — while
        // the AP's own AM frame is *below* the detector sensitivity at ward
        // distance, which is exactly why the carrier does the polling.
        let scenario = Scenario::hospital_ward(12).closed_loop();
        let matrix = LinkMatrix::build(&scenario).unwrap();
        for t in 0..scenario.tags.len() {
            let poll = matrix.poll_budget(t);
            assert!(
                poll.margin_db() > 3.0,
                "tag {t}: poll margin {:.1} dB",
                poll.margin_db()
            );
            let ack = matrix.ack_budget(t);
            assert!(
                ack.margin_db() > 10.0,
                "tag {t}: ack margin {:.1} dB",
                ack.margin_db()
            );
            // An AP cannot poll the implant directly across the ward.
            let ap_at_tag =
                matrix.power_dbm(Emitter::Sink(scenario.tags[t].receiver), Listener::Tag(t));
            assert!(
                ap_at_tag < poll.sensitivity_dbm,
                "tag {t}: AP downlink {ap_at_tag:.1} dBm would reach the detector"
            );
        }
    }

    #[test]
    fn power_tables_cover_every_emitter_listener_pair() {
        let scenario = Scenario::contact_lens_fleet(6).closed_loop();
        let matrix = LinkMatrix::build(&scenario).unwrap();
        for from in [Emitter::Tag(1), Emitter::Carrier(0), Emitter::Sink(0)] {
            for at in [
                Listener::Receiver(0),
                Listener::Tag(2),
                Listener::Carrier(1),
            ] {
                let p = matrix.power_dbm(from, at);
                assert!(p.is_finite() && p < 25.0, "{from:?} at {at:?}: {p} dBm");
            }
        }
        // A carrier is loudest at its own tags.
        let near = matrix.power_dbm(Emitter::Carrier(0), Listener::Tag(0));
        let far = matrix.power_dbm(Emitter::Carrier(2), Listener::Tag(0));
        assert!(near > far, "near {near} dBm vs far {far} dBm");
    }

    #[test]
    fn pair_powers_match_direct_evaluation() {
        // Every carrier, sink and external-source power at every listener
        // against the channel model itself: transmit power, the 2 dBi
        // monopole, the listener's package (a tag's antenna gain − tissue
        // at the emitter's frequency, 2 dBi otherwise) and the full
        // `LogDistanceModel` path loss. The second round moves one entity
        // of each kind without a flush: pair powers read the live geometry.
        for base in presets() {
            let mut matrix = LinkMatrix::build(&base).unwrap();
            let mut moved = base.clone();
            for round in 0..2 {
                let mut checked = 0;
                for (from, at) in pairs(&matrix) {
                    let (tx_dbm, freq_hz, from_pos) = match from {
                        Emitter::Tag(_) => continue,
                        Emitter::Carrier(c) => {
                            let spec = &moved.carriers[c];
                            (spec.tx_power_dbm, spec.carrier_freq_hz(), spec.position())
                        }
                        Emitter::Sink(s) => {
                            let spec = &moved.receivers[s];
                            let freq_hz = sink_freq_hz(&moved, s);
                            (spec.downlink_tx_power_dbm, freq_hz, spec.position())
                        }
                        Emitter::External(k) => {
                            let src = &moved.coex.as_ref().unwrap().sources[k];
                            (src.tx_power_dbm, src.model.band().center_hz, src.position)
                        }
                    };
                    let (gain, at_pos) = match at {
                        Listener::Tag(t) => {
                            let tag = &moved.tags[t];
                            (rx_pkg_db(tag.profile, freq_hz), tag.position())
                        }
                        Listener::Receiver(r) => (2.0, moved.receivers[r].position()),
                        Listener::Carrier(c) => (2.0, moved.carriers[c].position()),
                    };
                    let pl = LogDistanceModel::indoor_los(freq_hz)
                        .path_loss_db(from_pos.distance_m(&at_pos));
                    let direct = tx_dbm + 2.0 + gain - pl;
                    let p = matrix.power_dbm(from, at);
                    assert!(
                        (p - direct).abs() < 1e-9,
                        "{} round {round}: {from:?} at {at:?}: {p} vs {direct} dBm",
                        base.name
                    );
                    checked += 1;
                }
                assert!(checked > 0, "{}: no non-tag emitter", base.name);
                nudge(&mut matrix, &mut moved, EntityId::Tag(0), 0.7, -0.4);
                nudge(&mut matrix, &mut moved, EntityId::Carrier(0), -0.3, 0.5);
                nudge(&mut matrix, &mut moved, EntityId::Sink(0), 0.9, 0.2);
            }
        }
    }

    #[test]
    #[should_panic(expected = "poll and ack budgets")]
    fn open_loop_matrices_have_no_downlink_tables() {
        let scenario = Scenario::hospital_ward(4);
        let matrix = LinkMatrix::build(&scenario).unwrap();
        let _ = matrix.poll_budget(0);
    }

    /// Every emitter × listener pairing a matrix can answer: all of them
    /// for closed-loop matrices, tag → receiver otherwise, plus the
    /// external sources when the scenario has any.
    fn pairs(m: &LinkMatrix) -> Vec<(Emitter, Listener)> {
        let closed = m.closed_loop.is_some();
        let mut emitters: Vec<Emitter> = (0..m.len()).map(Emitter::Tag).collect();
        let mut listeners: Vec<Listener> = (0..m.sink_pos.len()).map(Listener::Receiver).collect();
        if closed {
            emitters.extend((0..m.carrier_pos.len()).map(Emitter::Carrier));
            emitters.extend((0..m.sink_pos.len()).map(Emitter::Sink));
            listeners.extend((0..m.len()).map(Listener::Tag));
            listeners.extend((0..m.carrier_pos.len()).map(Listener::Carrier));
        }
        emitters.extend((0..m.ext.len()).map(Emitter::External));
        let mut out = Vec::new();
        for &from in &emitters {
            for &at in &listeners {
                out.push((from, at));
            }
        }
        out
    }

    /// Every emitter × listener pairing of two matrices and every budget
    /// agree to the last mantissa bit, read through the public query
    /// surface.
    fn assert_tables_match(a: &LinkMatrix, b: &LinkMatrix, what: &str) {
        let same = |x: &LinkBudget, y: &LinkBudget| {
            [
                (x.median_rssi_dbm, y.median_rssi_dbm),
                (x.shadow_sigma_db, y.shadow_sigma_db),
                (x.sensitivity_dbm, y.sensitivity_dbm),
                (x.noise_floor_dbm, y.noise_floor_dbm),
            ]
            .iter()
            .all(|(p, q)| p.to_bits() == q.to_bits())
        };
        for t in 0..a.len() {
            let (x, y) = (a.budget(t), b.budget(t));
            assert!(
                same(x, y),
                "{what}: uplink budget of tag {t}: {x:?} vs {y:?}"
            );
            if a.closed_loop.is_some() {
                let (x, y) = (a.poll_budget(t), b.poll_budget(t));
                assert!(same(x, y), "{what}: poll budget of tag {t}: {x:?} vs {y:?}");
                let (x, y) = (a.ack_budget(t), b.ack_budget(t));
                assert!(same(x, y), "{what}: ack budget of tag {t}: {x:?} vs {y:?}");
            }
        }
        for (from, at) in pairs(a) {
            let (pa, pb) = (a.power_dbm(from, at), b.power_dbm(from, at));
            assert_eq!(
                pa.to_bits(),
                pb.to_bits(),
                "{what}: {from:?} at {at:?}: {pa} vs {pb}"
            );
        }
    }

    /// Moves `id` by `(dx, dy)` in both the matrix and the scenario copy the
    /// rebuild reads.
    fn nudge(matrix: &mut LinkMatrix, moved: &mut Scenario, id: EntityId, dx: f64, dy: f64) {
        let p = matrix.position(id);
        let p = Position::new(p.x + dx, p.y + dy, p.z);
        matrix.set_position(id, p);
        match id {
            EntityId::Tag(t) => moved.place_tag(t, p),
            EntityId::Carrier(c) => moved.place_carrier(c, p),
            EntityId::Sink(s) => moved.place_sink(s, p),
        }
    }

    /// Re-tunes the first Wi-Fi tag to another Wi-Fi receiver's channel, in
    /// both the matrix and the scenario copy (a no-op on presets without
    /// such a pair).
    fn retune_first_wifi_tag(matrix: &mut LinkMatrix, base: &Scenario, moved: &mut Scenario) {
        for (t, tag) in base.tags.iter().enumerate() {
            let NetPhy::Wifi { rate, .. } = tag.phy else {
                continue;
            };
            for (r, rx) in base.receivers.iter().enumerate() {
                let crate::entities::SinkKind::Wifi { channel } = rx.kind else {
                    continue;
                };
                if r == matrix.tag_receiver(t) {
                    continue;
                }
                let phy = NetPhy::Wifi { rate, channel };
                matrix.retune_tag(base, t, r, phy);
                moved.tags[t].receiver = r;
                moved.tags[t].phy = phy;
                return;
            }
        }
    }

    #[test]
    fn incremental_update_matches_full_rebuild() {
        // Move tags, a carrier and a sink and re-tune a tag through the
        // incremental path, then build the moved scenario from scratch:
        // every budget and every emitter × listener power must agree bit
        // for bit, through two rounds of moves and flushes.
        for base in presets() {
            let mut matrix = LinkMatrix::build(&base).unwrap();
            let mut moved = base.clone();
            let last = base.tags.len() - 1;
            nudge(&mut matrix, &mut moved, EntityId::Tag(0), 0.7, -0.4);
            nudge(&mut matrix, &mut moved, EntityId::Carrier(0), -0.3, 0.5);
            nudge(&mut matrix, &mut moved, EntityId::Sink(0), 0.9, 0.2);
            assert_eq!(matrix.dirty_len(), 3);
            // The re-tuned tag is tag 0, already dirty, on every Wi-Fi preset.
            retune_first_wifi_tag(&mut matrix, &base, &mut moved);
            assert_eq!(matrix.flush(&base), 3);
            assert_eq!(matrix.dirty_len(), 0);
            assert_tables_match(&matrix, &LinkMatrix::build(&moved).unwrap(), &base.name);

            // A second round, as a mobility tick would: every entity kind
            // again, including the last tag and sink.
            nudge(&mut matrix, &mut moved, EntityId::Tag(last), -0.2, 0.3);
            nudge(&mut matrix, &mut moved, EntityId::Tag(0), 0.1, 0.1);
            let last_sink = EntityId::Sink(base.receivers.len() - 1);
            nudge(&mut matrix, &mut moved, last_sink, -0.5, 0.4);
            let last_carrier = EntityId::Carrier(base.carriers.len() - 1);
            nudge(&mut matrix, &mut moved, last_carrier, 0.2, -0.6);
            matrix.flush(&base);
            let what = format!("{} (second round)", base.name);
            assert_tables_match(&matrix, &LinkMatrix::build(&moved).unwrap(), &what);
        }
    }

    #[test]
    fn moving_a_tag_changes_its_decode_probability() {
        // Regression for the stale-geometry bug: a repositioned tag must
        // see a different link budget (and hence decode probability) — the
        // matrix can no longer be silently reused with old geometry,
        // because positions are only reachable through the dirty-marking
        // setter.
        let scenario = Scenario::hospital_ward(4);
        let mut matrix = LinkMatrix::build(&scenario).unwrap();
        let before = *matrix.budget(0);
        // Walk the tag away from its carrier and across the ward.
        let far = Position::new(11.5, 0.5, 1.0);
        matrix.set_position(EntityId::Tag(0), far);
        matrix.flush(&scenario);
        let after = *matrix.budget(0);
        assert!(
            after.median_rssi_dbm < before.median_rssi_dbm - 10.0,
            "median {} → {} dBm",
            before.median_rssi_dbm,
            after.median_rssi_dbm
        );
        // The decode probability itself moves: the strong bedside link
        // delivers essentially always, the walked-away link does not.
        let decode_rate = |budget: &LinkBudget| {
            #[expect(
                clippy::disallowed_methods,
                reason = "test-local stream sampling packet outcomes, not an engine entity"
            )]
            let mut rng = SmallRng::seed_from_u64(9);
            (0..500)
                .filter(|_| budget.packet_outcome(&mut rng).0)
                .count() as f64
                / 500.0
        };
        let (p_before, p_after) = (decode_rate(&before), decode_rate(&after));
        assert!(
            p_before - p_after > 0.3,
            "decode probability {p_before} → {p_after}"
        );
    }

    #[test]
    fn retune_matches_a_rebuilt_scenario() {
        use interscatter_wifi::dot11b::DsssRate;
        // Re-tuning a tag through the incremental path (the re-striping
        // entry point) must land on exactly the tables a from-scratch
        // build of the re-tuned scenario produces — including after a
        // subsequent carrier move, which exercises the hoisted
        // carrier → tags index against live assignments.
        for base in [
            Scenario::hospital_ward(10),
            Scenario::hospital_ward(10).closed_loop(),
        ] {
            let mut matrix = LinkMatrix::build(&base).unwrap();
            // Tag 1 delivers to AP 1 (channel 6); re-tune it to AP 0
            // (channel 1), as a stripe-1 → stripe-0 re-stripe would.
            let new_phy = NetPhy::Wifi {
                rate: DsssRate::Mbps2,
                channel: 1,
            };
            matrix.retune_tag(&base, 1, 0, new_phy);
            assert_eq!(matrix.tag_receiver(1), 0);
            let moved = Position::new(3.0, 2.0, 1.0);
            matrix.set_position(EntityId::Carrier(0), moved);
            matrix.flush(&base);

            let mut retuned = base.clone();
            retuned.tags[1].receiver = 0;
            retuned.tags[1].phy = new_phy;
            retuned.place_carrier(0, moved);
            retuned.validate().unwrap();
            let rebuilt = LinkMatrix::build(&retuned).unwrap();
            // The sigma/sensitivity terms re-derive too, not just medians.
            assert_tables_match(&matrix, &rebuilt, &base.name);
        }
    }

    #[test]
    fn carrier_tags_index_matches_the_fleet_scan() {
        let scenario = Scenario::hospital_ward(11);
        let matrix = LinkMatrix::build(&scenario).unwrap();
        for c in 0..scenario.carriers.len() {
            let scanned: Vec<usize> = scenario
                .tags
                .iter()
                .enumerate()
                .filter(|(_, tag)| tag.carrier == c)
                .map(|(t, _)| t)
                .collect();
            assert_eq!(matrix.carrier_tags(c), scanned.as_slice());
        }
        for (t, tag) in scenario.tags.iter().enumerate() {
            assert_eq!(matrix.tag_receiver(t), tag.receiver);
        }
    }

    #[test]
    fn external_sources_feed_the_power_tables() {
        let scenario = Scenario::congested_ward(12).closed_loop();
        let matrix = LinkMatrix::build(&scenario).unwrap();
        // The hidden source sits beside the channel-6 AP (index 1): its
        // power there dwarfs its power at the far channel-1 AP.
        let near = matrix.power_dbm(Emitter::External(0), Listener::Receiver(1));
        let far = matrix.power_dbm(Emitter::External(0), Listener::Receiver(0));
        assert!(near.is_finite() && far.is_finite());
        assert!(near > far + 3.0, "near {near} dBm vs far {far} dBm");
        // Tag and carrier listeners are covered too (closed loop).
        for at in [Listener::Tag(0), Listener::Carrier(0)] {
            let p = matrix.power_dbm(Emitter::External(0), at);
            assert!(p.is_finite() && p < 25.0, "{at:?}: {p} dBm");
        }
    }

    #[test]
    fn flush_without_moves_is_a_no_op() {
        let scenario = Scenario::contact_lens_fleet(4).closed_loop();
        let mut matrix = LinkMatrix::build(&scenario).unwrap();
        let reference = matrix.clone();
        assert_eq!(matrix.flush(&scenario), 0);
        // Invalidating without moving recomputes in place to the same
        // values.
        matrix.invalidate_entity(EntityId::Tag(1));
        matrix.invalidate_entity(EntityId::Tag(1));
        assert_eq!(matrix.flush(&scenario), 1, "duplicates must dedup");
        assert_tables_match(&matrix, &reference, "no-op flush");
    }
}
