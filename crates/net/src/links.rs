//! Position-dependent link budgets with **row-level incremental update**.
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
//! plus the median power of **every** emitter kind (tag, carrier, sink) at
//! every listener kind (receiver, tag, carrier), so downlink collisions are
//! arbitrated with the same capture rule as the uplink.
//!
//! ## One layout at every fleet size
//!
//! Tables are kept only for pairings whose both sides are small
//! (receivers, carriers, external sources). Every pairing with a tag on
//! one side — tag ↔ tag, tag ↔ carrier, tag ↔ receiver, sink → tag and
//! external source → tag — is evaluated per query instead, one `log10`
//! over the live geometry plus cached per-tag terms; only each tag's own
//! uplink, poll and ack budgets are stored. A capture arbitration reads a
//! handful of such pairs, so a 100k-tag campus and a ten-bed ward share
//! one code path and one memory profile.
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
//! updated through [`LinkMatrix::set_position`]. Moving an entity marks its
//! rows dirty; [`LinkMatrix::flush`] then recomputes **only the budgets
//! and the small emitter × listener tables touching the moved
//! entities**, from position-independent terms (antenna gains, tissue
//! attenuations, conversion losses, per-frequency path-loss models) cached
//! once at build time. A mobility tick over a hundred tags therefore costs
//! a few `log10`s per affected row instead of rebuilding every table —
//! anchored by the `net_mobility` bench against a full
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

/// One entity of the scenario, for geometry updates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntityId {
    /// A backscatter tag.
    Tag(usize),
    /// A carrier device.
    Carrier(usize),
    /// A sink receiver.
    Sink(usize),
}

/// A log-distance path-loss evaluator with the reference loss folded in:
/// one comparison and one `log10` per call. `LogDistanceModel::path_loss_db`
/// recomputes its reference Friis loss (a second `log10`, a `powi` and a
/// wavelength division) on every call — too slow for the mobility tick's
/// row refreshes, which evaluate tens of thousands of pairs.
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

    /// Median path loss from a precomputed [`log_distance`] — the hottest
    /// pairs in a mobility tick evaluate two models (one per direction)
    /// over the same distance, and this shares the single `log10` between
    /// them.
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
/// (`log10(d) = log10(d²) / 2`, folded into the slope), so the hot row
/// refreshes take neither a square root nor a division.
#[inline]
fn log_distance(a: &Position, b: &Position) -> (f64, bool) {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    let dz = a.z - b.z;
    let q = (dx * dx + dy * dy + dz * dz).max(1e-4);
    (q.log10(), q <= 1.0)
}

/// A dense 2-D power table in one flat row-major allocation — the
/// struct-of-arrays replacement for the old jagged `Vec<Vec<f64>>` layout:
/// one contiguous block instead of `rows + 1` allocations, `u32`
/// dimensions (dense-id tables never need more), and row access without
/// per-row pointer chasing in the refresh loops.
#[derive(Debug, Clone)]
struct Table2d {
    cols: u32,
    data: Vec<f64>,
}

impl Table2d {
    fn new(rows: usize, cols: usize, fill: f64) -> Self {
        assert!(
            rows <= u32::MAX as usize && cols <= u32::MAX as usize,
            "table ids are dense u32s"
        );
        Table2d {
            cols: cols as u32,
            data: vec![fill; rows * cols],
        }
    }

    #[inline]
    fn at(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols as usize + c]
    }

    #[inline]
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols as usize + c] = v;
    }
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
    /// Per carrier: its tone frequency (closed loop only).
    carrier_freq: Vec<u32>,
    /// Per sink: its downlink frequency (closed loop only).
    sink_freq: Vec<u32>,
    /// Per external source: its band centre.
    ext_freq: Vec<u32>,
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

/// The closed-loop extension: downlink budgets plus the carrier/sink
/// emitter × listener power tables (only built for `MacMode::ClosedLoop`
/// scenarios — open-loop runs never arbitrate at tags or carriers). Every
/// pairing with a tag on one side is evaluated per query, not tabled (see
/// the module docs).
#[derive(Debug, Clone)]
struct ClosedLoopTables {
    /// Per tag: carrier poll → the tag's envelope detector.
    poll_budgets: Vec<LinkBudget>,
    /// Per tag: sink ack → the tag's carrier radio.
    ack_budgets: Vec<LinkBudget>,
    /// Per carrier: transmit power, dBm.
    carrier_tx_dbm: Vec<f64>,
    /// Per sink: downlink transmit power, dBm.
    sink_tx_dbm: Vec<f64>,
    /// `[c][r]`: carrier `c`'s poll at receiver `r`, dBm.
    carrier_at_rx: Table2d,
    /// `[c][c2]`: carrier `c`'s poll at carrier `c2`, dBm.
    carrier_at_carrier: Table2d,
    /// `[s][r]`: sink `s`'s ack at receiver `r`, dBm.
    sink_at_rx: Table2d,
    /// `[s][c]`: sink `s`'s ack at carrier `c`, dBm.
    sink_at_carrier: Table2d,
    // --- position-independent terms cached for row recomputes ---
    /// Per carrier: path-loss evaluator at its tone frequency.
    pl_carrier: Vec<FastPathLoss>,
    /// Per sink: path-loss evaluator at its downlink frequency.
    pl_sink: Vec<FastPathLoss>,
    /// Per sink: the shadowing sigma of its downlink path-loss model — the
    /// value a re-tuned tag's poll/ack budgets pick up.
    sink_sigma_db: Vec<f64>,
}

/// Median power of every external coexistence source at every listener
/// kind but tags (only built when the scenario attaches
/// [`crate::coex::CoexSource`]s; the power at a tag's detector is
/// evaluated per query). Sources never move, so these rows are only
/// refreshed when the *listener* moves.
#[derive(Debug, Clone)]
struct ExtTables {
    /// `at_rx[k][r]`: source `k`'s emission at receiver `r`, dBm.
    at_rx: Table2d,
    /// `at_carrier[k][c]`: source `k`'s emission at carrier `c`, dBm.
    at_carrier: Table2d,
    /// Per source: path-loss evaluator at its emission frequency.
    pl: Vec<FastPathLoss>,
    /// Per source: transmit power + antenna gain, dBm.
    eirp_dbm: Vec<f64>,
    /// Per source: where it sits (static for the whole run).
    pos: Vec<Position>,
}

/// Precomputed budgets for every tag, the small emitter × listener power
/// tables, the live geometry they were computed from, and the cached terms
/// that make row-level recomputation and per-query powers cheap.
#[derive(Debug, Clone)]
pub struct LinkMatrix {
    budgets: Vec<LinkBudget>,
    closed_loop: Option<ClosedLoopTables>,
    ext: Option<ExtTables>,
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
    /// Per carrier: the tags it illuminates, hoisted once at build so a
    /// moved or re-tuned carrier refreshes exactly its own members instead
    /// of scanning O(carriers × sinks × tags) — the membership never
    /// changes during a run.
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
    /// geometry — the emitter base every row sharing this tag reuses.
    /// Maintained by `refresh_uplink_row`.
    up_base_db: Vec<f64>,
    /// Entities whose rows are stale, pending a [`LinkMatrix::flush`].
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
    /// position-independent terms and filling every table through the same
    /// row functions [`LinkMatrix::flush`] uses — so an incremental update
    /// lands on exactly the values a fresh build would produce.
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
            carrier_freq: Vec::new(),
            sink_freq: Vec::new(),
            ext_freq: Vec::new(),
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
                let carrier_models: Vec<LogDistanceModel> = scenario
                    .carriers
                    .iter()
                    .map(|c| LogDistanceModel::indoor_los(c.carrier_freq_hz()))
                    .collect();
                let sink_models: Vec<LogDistanceModel> = (0..n_rx)
                    .map(|s| LogDistanceModel::indoor_los(sink_freq_hz(scenario, s)))
                    .collect();
                pkg.carrier_freq = carrier_models
                    .iter()
                    .map(|m| pkg.register(m.freq_hz))
                    .collect();
                pkg.sink_freq = sink_models
                    .iter()
                    .map(|m| pkg.register(m.freq_hz))
                    .collect();
                let sink_sigma_db: Vec<f64> =
                    sink_models.iter().map(|m| m.shadowing_sigma_db).collect();
                let budget = |sensitivity_dbm: f64, noise_floor_dbm: f64, sigma: f64| LinkBudget {
                    median_rssi_dbm: 0.0, // filled by the row functions below
                    shadow_sigma_db: sigma,
                    sensitivity_dbm,
                    noise_floor_dbm,
                };
                Some(ClosedLoopTables {
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
                    carrier_tx_dbm: scenario.carriers.iter().map(|c| c.tx_power_dbm).collect(),
                    sink_tx_dbm: scenario
                        .receivers
                        .iter()
                        .map(|r| r.downlink_tx_power_dbm)
                        .collect(),
                    carrier_at_rx: Table2d::new(n_carriers, n_rx, 0.0),
                    carrier_at_carrier: Table2d::new(n_carriers, n_carriers, 0.0),
                    sink_at_rx: Table2d::new(n_rx, n_rx, 0.0),
                    sink_at_carrier: Table2d::new(n_rx, n_carriers, 0.0),
                    pl_carrier: carrier_models.iter().map(FastPathLoss::new).collect(),
                    pl_sink: sink_models.iter().map(FastPathLoss::new).collect(),
                    sink_sigma_db,
                })
            }
        };

        // External coexistence sources: static emitters whose power at
        // every listener feeds the same capture arbitration as in-model
        // traffic.
        let ext = scenario
            .coex
            .as_ref()
            .filter(|cfg| !cfg.sources.is_empty())
            .map(|cfg| {
                let n_src = cfg.sources.len();
                pkg.ext_freq = cfg
                    .sources
                    .iter()
                    .map(|s| pkg.register(s.model.band().center_hz))
                    .collect();
                ExtTables {
                    at_rx: Table2d::new(n_src, n_rx, 0.0),
                    at_carrier: Table2d::new(n_src, n_carriers, 0.0),
                    pl: cfg
                        .sources
                        .iter()
                        .map(|s| {
                            let centre_hz = s.model.band().center_hz;
                            FastPathLoss::new(&LogDistanceModel::indoor_los(centre_hz))
                        })
                        .collect(),
                    eirp_dbm: cfg.sources.iter().map(|s| s.tx_power_dbm + 2.0).collect(),
                    pos: cfg.sources.iter().map(|s| s.position).collect(),
                }
            });

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
        for c in 0..n_carriers {
            matrix.refresh_carrier_rows(scenario, c);
        }
        // The tag passes already wrote every tag's budgets; only the
        // sinks' own rows remain.
        for s in 0..n_rx {
            matrix.refresh_sink_rows(scenario, s);
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

    /// Moves `id` to `position` and marks every row touching it dirty. The
    /// tables keep their old values until [`LinkMatrix::flush`] runs.
    pub fn set_position(&mut self, id: EntityId, position: Position) {
        match id {
            EntityId::Tag(t) => self.tag_pos[t] = position,
            EntityId::Carrier(c) => self.carrier_pos[c] = position,
            EntityId::Sink(s) => self.sink_pos[s] = position,
        }
        self.invalidate_entity(id);
    }

    /// Marks every row touching `id` dirty without moving it (for callers
    /// that batch position writes themselves).
    pub fn invalidate_entity(&mut self, id: EntityId) {
        self.dirty.push(id);
    }

    /// Number of entities with stale rows.
    pub fn dirty_len(&self) -> usize {
        self.dirty.len()
    }

    /// Recomputes the rows of every dirty entity from the cached
    /// position-independent terms and the live geometry, returning how many
    /// entities were refreshed. Each affected row costs a handful of
    /// `log10`s; nothing else of the build is repeated.
    pub fn flush(&mut self, scenario: &Scenario) -> usize {
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        let refreshed = dirty.len();
        if refreshed == 0 {
            return 0;
        }
        // Expand the dirty set: a moved carrier changes both hops of every
        // tag it illuminates (uplink base, poll and ack geometry).
        let mut tag_dirty = vec![false; scenario.tags.len()];
        let mut carriers = Vec::new();
        let mut sinks = Vec::new();
        for id in dirty {
            match id {
                EntityId::Tag(t) => tag_dirty[t] = true,
                EntityId::Carrier(c) => {
                    // The hoisted member index: a moved carrier dirties
                    // exactly the tags it illuminates, no fleet scan.
                    for &t in &self.carrier_tags[c] {
                        tag_dirty[t] = true;
                    }
                    carriers.push(c);
                }
                EntityId::Sink(s) => sinks.push(s),
            }
        }
        // Dirty tags first: their passes refresh the cached bases the sink
        // rows reuse.
        for (t, &dirty) in tag_dirty.iter().enumerate() {
            if dirty {
                self.refresh_tag(scenario, t);
            }
        }
        for c in carriers {
            self.refresh_carrier_rows(scenario, c);
        }
        for s in sinks {
            self.refresh_sink_rows(scenario, s);
            self.refresh_sink_tag_cells(scenario, s);
        }
        refreshed
    }

    /// Tag `t`'s own budgets: its uplink to its live receiver (and the
    /// cached carrier → tag base every per-query power of `t` as an
    /// emitter reuses) and — closed loop — its poll and ack budgets. Its
    /// pairs with every other entity are evaluated on demand.
    fn refresh_tag(&mut self, scenario: &Scenario, t: usize) {
        let tag = &scenario.tags[t];
        let pos = self.tag_pos[t];
        // The tag's *live* destination: the scenario's assignment, unless a
        // re-stripe re-tuned it ([`LinkMatrix::retune_tag`]).
        let s = self.tag_rx[t];
        // The carrier → tag hop: the base of every emission of this tag,
        // and (closed loop) the poll distance.
        let hop1 = log_distance(&self.carrier_pos[tag.carrier], &pos);
        self.up_base_db[t] = self.up_fixed_db[t] - self.up_pl_src[t].db_at(hop1.0, hop1.1);
        self.budgets[t].median_rssi_dbm = self.tag_at_rx_dbm(t, s);

        let Some(cl) = self.closed_loop.as_mut() else {
            return;
        };
        let pkg = &self.pkg;
        // Poll: the carrier's AM frame on the tag's service band, one
        // conventional hop into the envelope detector (same distance as
        // the illumination hop above).
        cl.poll_budgets[t].median_rssi_dbm =
            scenario.carriers[tag.carrier].tx_power_dbm + 2.0 + pkg.at(t, pkg.sink_freq[s])
                - cl.pl_sink[s].db_at(hop1.0, hop1.1);
        // Ack: the sink's AM frame into the carrier's radio. Independent
        // of the tag's own position but cheap, and it keeps every budget
        // of tag `t` fresh through one entry point.
        let ack_hop = log_distance(&self.sink_pos[s], &self.carrier_pos[tag.carrier]);
        cl.ack_budgets[t].median_rssi_dbm = scenario.receivers[s].downlink_tx_power_dbm + 2.0 + 2.0
            - cl.pl_sink[s].db_at(ack_hop.0, ack_hop.1);
    }

    /// Carrier `c` as an **emitter and listener** (closed loop): its poll
    /// power at every listener, and every emitter's power at its radio.
    fn refresh_carrier_rows(&mut self, scenario: &Scenario, c: usize) {
        let pos = self.carrier_pos[c];
        // External sources at this carrier's radio.
        if let Some(ext) = self.ext.as_mut() {
            for k in 0..ext.pos.len() {
                let (l, near) = log_distance(&pos, &ext.pos[k]);
                ext.at_carrier
                    .set(k, c, ext.eirp_dbm[k] + 2.0 - ext.pl[k].db_at(l, near));
            }
        }
        let Self {
            ref carrier_pos,
            ref sink_pos,
            ref tag_rx,
            ref carrier_tags,
            ref mut closed_loop,
            ..
        } = *self;
        let Some(cl) = closed_loop.as_mut() else {
            return;
        };
        let spec = &scenario.carriers[c];
        // Carrier c's poll at every receiver.
        for (r, r_pos) in sink_pos.iter().enumerate() {
            let (l, near) = log_distance(&pos, r_pos);
            cl.carrier_at_rx.set(
                c,
                r,
                spec.tx_power_dbm + 2.0 + 2.0 - cl.pl_carrier[c].db_at(l, near),
            );
        }
        for (c2, c2_pos) in carrier_pos.iter().enumerate() {
            let (l, near) = log_distance(&pos, c2_pos);
            cl.carrier_at_carrier.set(
                c,
                c2,
                spec.tx_power_dbm + 2.0 + 2.0 - cl.pl_carrier[c].db_at(l, near),
            );
            // The reverse direction: c2's poll at the moved carrier c.
            cl.carrier_at_carrier.set(
                c2,
                c,
                scenario.carriers[c2].tx_power_dbm + 2.0 + 2.0 - cl.pl_carrier[c2].db_at(l, near),
            );
        }
        for (s, s_spec) in scenario.receivers.iter().enumerate() {
            let (l, near) = log_distance(&sink_pos[s], &pos);
            cl.sink_at_carrier.set(
                s,
                c,
                s_spec.downlink_tx_power_dbm + 2.0 + 2.0 - cl.pl_sink[s].db_at(l, near),
            );
        }
        // Ack budgets of the tags this carrier serves — the hoisted
        // member index replaces the old O(sinks × tags) fleet scan, which
        // re-striping turned into a hot path.
        for &t in &carrier_tags[c] {
            cl.ack_budgets[t].median_rssi_dbm = cl.sink_at_carrier.at(tag_rx[t], c);
        }
    }

    /// Sink `s` as an **emitter and listener** towards every entity but
    /// the tags: external sources at it and — closed loop — its ack power
    /// at every receiver and carrier, and every carrier's poll at it. The
    /// tag × sink cells are [`LinkMatrix::refresh_sink_tag_cells`]'s.
    fn refresh_sink_rows(&mut self, scenario: &Scenario, s: usize) {
        let pos = self.sink_pos[s];
        // External sources at this receiver.
        if let Some(ext) = self.ext.as_mut() {
            for k in 0..ext.pos.len() {
                let (l, near) = log_distance(&pos, &ext.pos[k]);
                ext.at_rx
                    .set(k, s, ext.eirp_dbm[k] + 2.0 - ext.pl[k].db_at(l, near));
            }
        }
        let Self {
            ref carrier_pos,
            ref sink_pos,
            ref mut closed_loop,
            ..
        } = *self;
        let Some(cl) = closed_loop.as_mut() else {
            return;
        };
        let spec = &scenario.receivers[s];
        for (r, r_pos) in sink_pos.iter().enumerate() {
            let (l, near) = log_distance(&pos, r_pos);
            cl.sink_at_rx.set(
                s,
                r,
                spec.downlink_tx_power_dbm + 2.0 + 2.0 - cl.pl_sink[s].db_at(l, near),
            );
            // The reverse direction: r's ack at the moved sink s.
            cl.sink_at_rx.set(
                r,
                s,
                scenario.receivers[r].downlink_tx_power_dbm + 2.0 + 2.0
                    - cl.pl_sink[r].db_at(l, near),
            );
        }
        for (c, c_pos) in carrier_pos.iter().enumerate() {
            let (l, near) = log_distance(&pos, c_pos);
            cl.sink_at_carrier.set(
                s,
                c,
                spec.downlink_tx_power_dbm + 2.0 + 2.0 - cl.pl_sink[s].db_at(l, near),
            );
            cl.carrier_at_rx.set(
                c,
                s,
                scenario.carriers[c].tx_power_dbm + 2.0 + 2.0 - cl.pl_carrier[c].db_at(l, near),
            );
        }
    }

    /// Sink `s` against the tags it currently serves (the live assignment
    /// index, maintained across re-stripes): their uplink and ack budgets.
    /// Only a moved sink needs this: at build time
    /// [`LinkMatrix::refresh_tag`] has already written every budget.
    fn refresh_sink_tag_cells(&mut self, scenario: &Scenario, s: usize) {
        for i in 0..self.sink_tags[s].len() {
            let u = self.sink_tags[s][i];
            self.budgets[u].median_rssi_dbm = self.tag_at_rx_dbm(u, s);
        }
        let Some(cl) = self.closed_loop.as_mut() else {
            return;
        };
        for &t in &self.sink_tags[s] {
            cl.ack_budgets[t].median_rssi_dbm = cl.sink_at_carrier.at(s, scenario.tags[t].carrier);
        }
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

    /// The tags carrier `c` illuminates, in ascending index order — the
    /// hoisted membership index (fixed for the run).
    pub fn carrier_tags(&self, c: usize) -> &[usize] {
        &self.carrier_tags[c]
    }

    fn closed(&self) -> &ClosedLoopTables {
        self.closed_loop
            .as_ref()
            .expect("closed-loop tables are only built for MacMode::ClosedLoop scenarios")
    }

    fn ext(&self) -> &ExtTables {
        self.ext
            .as_ref()
            .expect("external power tables are only built for scenarios with coex sources")
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

    /// Tag `u`'s emission at receiver `r`, dBm, from the live geometry and
    /// `u`'s cached base.
    fn tag_at_rx_dbm(&self, u: usize, r: usize) -> f64 {
        let (l, near) = log_distance(&self.tag_pos[u], &self.sink_pos[r]);
        self.up_base_db[u] - self.up_pl_emit[u].db_at(l, near)
    }

    /// Tag `u`'s emission at tag `t`'s detector, dBm, from the live
    /// geometry, `u`'s cached base and `t`'s package at `u`'s frequency.
    fn tag_at_tag_dbm(&self, u: usize, t: usize) -> f64 {
        let (l, near) = log_distance(&self.tag_pos[u], &self.tag_pos[t]);
        self.up_base_db[u] - self.up_pl_emit[u].db_at(l, near) - 2.0
            + self.pkg.at(t, self.pkg.tag_freq[u])
    }

    /// Tag `u`'s emission at carrier `c`'s radio, dBm.
    fn tag_at_carrier_dbm(&self, u: usize, c: usize) -> f64 {
        let (l, near) = log_distance(&self.tag_pos[u], &self.carrier_pos[c]);
        self.up_base_db[u] - self.up_pl_emit[u].db_at(l, near)
    }

    /// Sink `s`'s ack at tag `t`'s detector, dBm.
    fn sink_at_tag_dbm(&self, s: usize, t: usize) -> f64 {
        let cl = self.closed();
        let (l, near) = log_distance(&self.tag_pos[t], &self.sink_pos[s]);
        cl.sink_tx_dbm[s] + 2.0 + self.pkg.at(t, self.pkg.sink_freq[s])
            - cl.pl_sink[s].db_at(l, near)
    }

    /// External source `k`'s emission at tag `t`'s detector, dBm.
    fn ext_at_tag_dbm(&self, k: usize, t: usize) -> f64 {
        let ext = self.ext();
        let (l, near) = log_distance(&self.tag_pos[t], &ext.pos[k]);
        ext.eirp_dbm[k] + self.pkg.at(t, self.pkg.ext_freq[k]) - ext.pl[k].db_at(l, near)
    }

    /// Carrier `p`'s poll at tag `t`'s detector, dBm.
    fn carrier_at_tag_dbm(&self, p: usize, t: usize) -> f64 {
        let cl = self.closed();
        let (l, near) = log_distance(&self.tag_pos[t], &self.carrier_pos[p]);
        cl.carrier_tx_dbm[p] + 2.0 + self.pkg.at(t, self.pkg.carrier_freq[p])
            - cl.pl_carrier[p].db_at(l, near)
    }

    /// Live margin of `tag`'s uplink above its receiver's sensitivity
    /// cliff, dB — the signal [`crate::sched::SchedPolicy::MarginAware`]
    /// polls every carrier slot. Fresh after every mobility-tick
    /// [`LinkMatrix::flush`], so a walking tag's fade shows up within one
    /// tick.
    pub fn uplink_margin_db(&self, tag: usize) -> f64 {
        self.budgets[tag].margin_db()
    }

    /// Median power of emitter `from`'s signal at listener `at`, dBm. Used
    /// for capture arbitration; carrier and sink emitters need the
    /// closed-loop tables, external ones the scenario's coex sources.
    pub fn power_dbm(&self, from: Emitter, at: Listener) -> f64 {
        match (from, at) {
            (Emitter::Tag(u), Listener::Receiver(r)) => self.tag_at_rx_dbm(u, r),
            (Emitter::Tag(u), Listener::Tag(t)) => self.tag_at_tag_dbm(u, t),
            (Emitter::Tag(u), Listener::Carrier(c)) => self.tag_at_carrier_dbm(u, c),
            (Emitter::Carrier(p), Listener::Receiver(r)) => self.closed().carrier_at_rx.at(p, r),
            (Emitter::Carrier(p), Listener::Tag(t)) => self.carrier_at_tag_dbm(p, t),
            (Emitter::Carrier(p), Listener::Carrier(c)) => {
                self.closed().carrier_at_carrier.at(p, c)
            }
            (Emitter::Sink(s), Listener::Receiver(r)) => self.closed().sink_at_rx.at(s, r),
            (Emitter::Sink(s), Listener::Tag(t)) => self.sink_at_tag_dbm(s, t),
            (Emitter::Sink(s), Listener::Carrier(c)) => self.closed().sink_at_carrier.at(s, c),
            (Emitter::External(k), Listener::Receiver(r)) => self.ext().at_rx.at(k, r),
            (Emitter::External(k), Listener::Tag(t)) => self.ext_at_tag_dbm(k, t),
            (Emitter::External(k), Listener::Carrier(c)) => self.ext().at_carrier.at(k, c),
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
        if m.closed_loop.is_some() {
            for (c, spec) in scenario.carriers.iter().enumerate() {
                assert_eq!(
                    freq_of(pkg.carrier_freq[c]),
                    spec.carrier_freq_hz().to_bits()
                );
            }
            for s in 0..scenario.receivers.len() {
                assert_eq!(
                    freq_of(pkg.sink_freq[s]),
                    sink_freq_hz(scenario, s).to_bits()
                );
            }
        }
        if let Some(cfg) = scenario.coex.as_ref() {
            for (k, src) in cfg.sources.iter().enumerate() {
                let band = src.model.band().center_hz.to_bits();
                assert_eq!(freq_of(pkg.ext_freq[k]), band, "{when}: source {k}");
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
        // all: every emitter × listener power the matrix holds is finite.
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
        // detlint: allow(stray_rng): test-local stream sampling packet outcomes, not an engine entity
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
    #[should_panic(expected = "closed-loop tables")]
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
        if let Some(ext) = m.ext.as_ref() {
            emitters.extend((0..ext.pos.len()).map(Emitter::External));
        }
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
            // detlint: allow(stray_rng): test-local stream sampling packet outcomes, not an engine entity
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
