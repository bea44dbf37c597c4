//! Coexistence: the rest of the 2.4 GHz band, modelled as *traffic*.
//!
//! Until this module existed, "other people's Wi-Fi" was a single static
//! `external_occupancy` scalar per sink, folded into a delivery
//! probability inside the engine's reception arbitration. That shortcut
//! cannot congest, cannot spike mid-run and cannot be sensed — which made
//! the ROADMAP's "dynamic sub-band re-striping when a channel's external
//! occupancy spikes" unbuildable. This module replaces it with three
//! layers:
//!
//! 1. **External traffic generators** — a [`CoexTraffic`] trait
//!    enum-dispatched through [`CoexModel`], like
//!    [`crate::mobility::Mobility`] and [`crate::sched::Scheduler`]. Each
//!    [`CoexSource`] runs a seeded arrival process on its own RNG stream
//!    and injects *real timed emissions* into the [`crate::medium::Medium`]
//!    ([`crate::medium::Emitter::External`]), so collisions, capture and
//!    the §2.3.3 NAV interact with external traffic packet by packet. The
//!    legacy scalar survives as the degenerate [`CoexModel::Constant`],
//!    which emits nothing and keeps the old probability fold — byte-for-
//!    byte, so pre-refactor trace digests still reproduce.
//! 2. **Occupancy sensing** — each carrier maintains an EWMA busy-airtime
//!    estimate per channel from what the medium actually carries at its
//!    slot instants ([`SenseConfig`]), exposed to schedulers through
//!    [`crate::sched::SlotView::occupancy`] and to metrics as the
//!    per-carrier [`crate::metrics::OccupancySample`] series.
//! 3. **Adaptive re-striping** — a [`ReStripe`] policy: when a carrier's
//!    sensed occupancy on its own stripe crosses `high_occupancy` and
//!    another sub-band is at least `hysteresis` quieter, the carrier and
//!    its tags re-tune to the least-occupied sub-band. Decisions are
//!    slot-aligned, deterministic (no RNG) and trace-visible as a
//!    [`crate::metrics::ReStripeEvent`].
//!
//! Determinism: every generator draws only from its own
//! [`crate::entities::streams::coex_rng`] stream (stream 4 of the named
//! per-entity derivation), sensing and re-striping
//! draw nothing, and all decision ties break toward the lower index — so
//! coex scenarios keep the byte-identical-trace contract
//! (`tests/net_determinism.rs` runs every generator kind, including a
//! mid-run re-stripe).

use crate::entities::Position;
use crate::medium::Band;
use interscatter_ble::channels::{wifi_channel_freq_hz, zigbee_channel_freq_hz, BleChannel};
use rand::rngs::SmallRng;
use rand::Rng;

/// On-air duration of one BLE advertising PDU (preamble + access address +
/// a full 37-byte advertisement at 1 Mbps), seconds.
pub const BLE_ADV_AIRTIME_S: f64 = 376e-6;

/// Upper bound of the BLE spec's pseudo-random `advDelay` between
/// advertising events, seconds.
pub const BLE_ADV_DELAY_MAX_S: f64 = 10e-3;

/// How an external source treats the shared medium before emitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediumAccess {
    /// Carrier-senses first (defers while the band — or a NAV reservation
    /// — is busy), and is itself audible to everyone's carrier-sense.
    /// Well-behaved Wi-Fi and ZigBee neighbours.
    Csma,
    /// Never senses, but is audible: in-model tags defer to it (a
    /// microwave oven is loud enough to trip any CCA).
    Ignore,
    /// Never senses and is *inaudible to carrier-sense* — the classic
    /// hidden terminal: too far from the transmitting side to trip its
    /// CCA, close enough to the receiving side to collide. Hidden
    /// emissions still register as interference and still count toward
    /// the AP-side occupancy that sensing reads
    /// ([`crate::medium::Medium::occupied`]).
    Hidden,
}

/// An external traffic process: when (and for how long) the source is on
/// the air. Enum-dispatched through [`CoexModel`], like
/// [`crate::mobility::Mobility`].
pub trait CoexTraffic {
    /// Draws the next emission as `(gap_s, duration_s)`: an idle gap from
    /// the previous emission's end (or the activity window's start) to the
    /// next start, then the on-air time. `None` for silent models
    /// ([`CoexModel::Constant`]).
    fn next_emission(&self, rng: &mut SmallRng) -> Option<(f64, f64)>;

    /// The band emissions occupy; `None` for silent models.
    fn band(&self) -> Option<Band>;

    /// How the source treats the shared medium.
    fn access(&self) -> MediumAccess {
        MediumAccess::Ignore
    }

    /// A short name for traces and report tables.
    fn slug(&self) -> &'static str;
}

/// The legacy static scalar: fold `occupancy` into sink `sink`'s delivery
/// probability, exactly as the pre-coex engine did. Emits nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantOccupancy {
    /// Index of the sink whose channel the occupancy applies to.
    pub sink: usize,
    /// Fraction of airtime the channel is externally occupied, in [0, 1].
    pub occupancy: f64,
}

impl CoexTraffic for ConstantOccupancy {
    fn next_emission(&self, _rng: &mut SmallRng) -> Option<(f64, f64)> {
        None
    }

    fn band(&self) -> Option<Band> {
        None
    }

    fn slug(&self) -> &'static str {
        "constant"
    }
}

/// Bursty Wi-Fi OFDM traffic on one channel: geometrically sized A-MPDU
/// bursts separated by exponential idle gaps — the on/off shape real
/// WLAN load shows at millisecond scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WifiBursty {
    /// Wi-Fi channel the traffic lands on (1–13).
    pub channel: u8,
    /// Mean frames per burst (geometric).
    pub mean_burst_frames: f64,
    /// On-air time of one frame (data + IFS), seconds.
    pub frame_airtime_s: f64,
    /// Mean idle gap between bursts, seconds (exponential).
    pub mean_gap_s: f64,
    /// CSMA-abiding neighbour or hidden terminal.
    pub access: MediumAccess,
}

impl CoexTraffic for WifiBursty {
    fn next_emission(&self, rng: &mut SmallRng) -> Option<(f64, f64)> {
        let gap = exponential_s(rng, 1.0 / self.mean_gap_s);
        // Geometric burst length with the configured mean, ≥ 1 frame.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let frames = (-u.ln() * self.mean_burst_frames).ceil().max(1.0);
        Some((gap, frames * self.frame_airtime_s))
    }

    fn band(&self) -> Option<Band> {
        Some(Band::new(wifi_channel_freq_hz(self.channel), 22e6))
    }

    fn access(&self) -> MediumAccess {
        self.access
    }

    fn slug(&self) -> &'static str {
        "wifi-bursty"
    }
}

/// Periodic BLE advertising on one advertising channel: one PDU per
/// advertising event, spaced `interval_s` plus the spec's pseudo-random
/// `advDelay`. Advertisements never carrier-sense.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BleAdvertiser {
    /// The advertising channel the PDUs land on.
    pub ble_channel: BleChannel,
    /// Nominal advertising interval, seconds.
    pub interval_s: f64,
}

impl CoexTraffic for BleAdvertiser {
    fn next_emission(&self, rng: &mut SmallRng) -> Option<(f64, f64)> {
        let gap = self.interval_s + rng.gen_range(0.0..BLE_ADV_DELAY_MAX_S);
        Some((gap, BLE_ADV_AIRTIME_S))
    }

    fn band(&self) -> Option<Band> {
        Some(Band::new(self.ble_channel.center_freq_hz(), 2e6))
    }

    fn slug(&self) -> &'static str {
        "ble-adv"
    }
}

/// Poisson ZigBee chatter on one 802.15.4 channel: fixed-size frames at a
/// mean rate, CSMA-abiding like the standard's CCA.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZigbeeChatter {
    /// ZigBee channel the frames land on (11–26).
    pub channel: u8,
    /// Mean frame rate, frames per second (Poisson).
    pub rate_fps: f64,
    /// Application payload per frame, bytes.
    pub payload_bytes: usize,
}

impl ZigbeeChatter {
    /// On-air time of one frame: 6 sync/header bytes plus the payload at
    /// 250 kbps.
    pub fn frame_airtime_s(&self) -> f64 {
        (6.0 * 8.0 + self.payload_bytes as f64 * 8.0) / 250e3
    }
}

impl CoexTraffic for ZigbeeChatter {
    fn next_emission(&self, rng: &mut SmallRng) -> Option<(f64, f64)> {
        Some((exponential_s(rng, self.rate_fps), self.frame_airtime_s()))
    }

    fn band(&self) -> Option<Band> {
        Some(Band::new(zigbee_channel_freq_hz(self.channel), 2e6))
    }

    fn access(&self) -> MediumAccess {
        MediumAccess::Csma
    }

    fn slug(&self) -> &'static str {
        "zigbee"
    }
}

/// A microwave oven: a strict magnetron duty cycle (on for `duty` of every
/// `period_s`, off for the rest), wideband around 2.45 GHz, deaf to
/// carrier-sense but loud enough that everyone else defers to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Microwave {
    /// Magnetron cycle period, seconds (mains half-cycle scale, ~10 ms).
    pub period_s: f64,
    /// Fraction of each period the magnetron radiates, in (0, 1).
    pub duty: f64,
}

impl CoexTraffic for Microwave {
    fn next_emission(&self, _rng: &mut SmallRng) -> Option<(f64, f64)> {
        // Deterministic: the oven does not consult its RNG stream at all.
        Some(((1.0 - self.duty) * self.period_s, self.duty * self.period_s))
    }

    fn band(&self) -> Option<Band> {
        // 40 MHz around 2.45 GHz: punctures Wi-Fi channels 6 and 11 but
        // spares channel 1 — the classic kitchen-adjacent deployment tale.
        Some(Band::new(2.45e9, 40e6))
    }

    fn slug(&self) -> &'static str {
        "microwave"
    }
}

/// The generator catalogue a [`CoexSource`] can run (plain data, `Copy`,
/// like [`crate::mobility::MobilityModel`] and
/// [`crate::sched::SchedPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoexModel {
    /// The legacy static per-sink scalar; emits nothing.
    Constant(ConstantOccupancy),
    /// Bursty Wi-Fi OFDM on a channel.
    WifiBursty(WifiBursty),
    /// Periodic BLE advertising.
    BleAdvertiser(BleAdvertiser),
    /// Poisson ZigBee chatter.
    ZigbeeChatter(ZigbeeChatter),
    /// An on/off microwave duty cycle.
    Microwave(Microwave),
}

impl CoexModel {
    /// The model as its [`CoexTraffic`] behaviour.
    pub fn traffic(&self) -> &dyn CoexTraffic {
        match self {
            CoexModel::Constant(m) => m,
            CoexModel::WifiBursty(m) => m,
            CoexModel::BleAdvertiser(m) => m,
            CoexModel::ZigbeeChatter(m) => m,
            CoexModel::Microwave(m) => m,
        }
    }
}

/// One external emitter: where it sits, how loud it is, when it is active
/// and which traffic process it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexSource {
    /// Where the source sits (feeds the capture tables in
    /// [`crate::links::LinkMatrix`]).
    pub position: Position,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// The source is silent before this instant, seconds.
    pub start_s: f64,
    /// The source is silent from this instant on, seconds
    /// (`f64::INFINITY` for always-on).
    pub stop_s: f64,
    /// The traffic process.
    pub model: CoexModel,
}

impl CoexSource {
    fn always(position: Position, tx_power_dbm: f64, model: CoexModel) -> Self {
        CoexSource {
            position,
            tx_power_dbm,
            start_s: 0.0,
            stop_s: f64::INFINITY,
            model,
        }
    }

    /// The legacy scalar for sink `sink` (position and power are unused —
    /// the model emits nothing).
    pub fn constant(sink: usize, occupancy: f64) -> Self {
        CoexSource::always(
            Position::default(),
            -300.0,
            CoexModel::Constant(ConstantOccupancy { sink, occupancy }),
        )
    }

    /// A CSMA-abiding Wi-Fi neighbour AP on `channel` offering roughly
    /// `load` of the channel's airtime (15 dBm, 4-frame mean bursts of
    /// 1 ms A-MPDUs).
    pub fn wifi_neighbor(position: Position, channel: u8, load: f64) -> Self {
        CoexSource::always(
            position,
            15.0,
            CoexModel::WifiBursty(WifiBursty {
                channel,
                mean_burst_frames: 4.0,
                frame_airtime_s: 1e-3,
                mean_gap_s: burst_gap_for_load(4.0 * 1e-3, load),
                access: MediumAccess::Csma,
            }),
        )
    }

    /// A *hidden* Wi-Fi transmitter on `channel` at roughly `load`: too
    /// far to trip the fleet's carrier-sense, close enough to its own AP
    /// to collide with everything the fleet sends there (20 dBm).
    pub fn hidden_wifi(position: Position, channel: u8, load: f64) -> Self {
        CoexSource::always(
            position,
            20.0,
            CoexModel::WifiBursty(WifiBursty {
                channel,
                mean_burst_frames: 4.0,
                frame_airtime_s: 1e-3,
                mean_gap_s: burst_gap_for_load(4.0 * 1e-3, load),
                access: MediumAccess::Hidden,
            }),
        )
    }

    /// A BLE beacon advertising every `interval_s` on channel 38 (0 dBm).
    pub fn ble_beacon(position: Position, interval_s: f64) -> Self {
        CoexSource::always(
            position,
            0.0,
            CoexModel::BleAdvertiser(BleAdvertiser {
                ble_channel: BleChannel::ADV_38,
                interval_s,
            }),
        )
    }

    /// A ZigBee neighbour network chattering at `rate_fps` 20-byte frames
    /// on `channel` (0 dBm).
    pub fn zigbee_neighbor(position: Position, channel: u8, rate_fps: f64) -> Self {
        CoexSource::always(
            position,
            0.0,
            CoexModel::ZigbeeChatter(ZigbeeChatter {
                channel,
                rate_fps,
                payload_bytes: 20,
            }),
        )
    }

    /// A microwave oven: 50% duty over a 10 ms magnetron cycle, leaking
    /// ~20 dBm into the band.
    pub fn microwave_oven(position: Position) -> Self {
        CoexSource::always(
            position,
            20.0,
            CoexModel::Microwave(Microwave {
                period_s: 10e-3,
                duty: 0.5,
            }),
        )
    }

    /// Restricts the source to the `[start_s, stop_s)` window (builder
    /// style) — how a preset hammers a channel *mid-run*.
    pub fn active(mut self, start_s: f64, stop_s: f64) -> Self {
        self.start_s = start_s;
        self.stop_s = stop_s;
        self
    }

    /// Checks the source's parameters.
    pub fn validate(&self, n_sinks: usize) -> Result<(), String> {
        if !(self.start_s >= 0.0 && self.stop_s > self.start_s) {
            return Err(format!(
                "activity window [{}, {}) is empty",
                self.start_s, self.stop_s
            ));
        }
        if !self.tx_power_dbm.is_finite() {
            return Err("tx power must be finite".into());
        }
        match self.model {
            CoexModel::Constant(ConstantOccupancy { sink, occupancy }) => {
                if sink >= n_sinks {
                    return Err(format!("constant source: sink {sink} out of range"));
                }
                if !(0.0..=1.0).contains(&occupancy) {
                    return Err(format!("constant occupancy {occupancy} outside [0, 1]"));
                }
            }
            CoexModel::WifiBursty(WifiBursty {
                channel,
                mean_burst_frames,
                frame_airtime_s,
                mean_gap_s,
                ..
            }) => {
                if !(1..=13).contains(&channel) {
                    return Err(format!("wifi channel {channel} outside 1..=13"));
                }
                if mean_burst_frames <= 0.0 || frame_airtime_s <= 0.0 || mean_gap_s <= 0.0 {
                    return Err("wifi burst parameters must be positive".into());
                }
            }
            CoexModel::BleAdvertiser(BleAdvertiser { interval_s, .. }) => {
                if interval_s <= 0.0 {
                    return Err("BLE advertising interval must be positive".into());
                }
            }
            CoexModel::ZigbeeChatter(ZigbeeChatter {
                channel,
                rate_fps,
                payload_bytes,
            }) => {
                if !(11..=26).contains(&channel) {
                    return Err(format!("zigbee channel {channel} outside 11..=26"));
                }
                if rate_fps <= 0.0 || payload_bytes == 0 {
                    return Err("zigbee chatter needs a positive rate and payload".into());
                }
            }
            CoexModel::Microwave(Microwave { period_s, duty }) => {
                if period_s <= 0.0 || !(duty > 0.0 && duty < 1.0) {
                    return Err(format!(
                        "microwave needs a positive period and duty in (0, 1), got {period_s}/{duty}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The mean inter-burst gap that offers `load` of a channel's airtime with
/// bursts of `burst_airtime_s` seconds.
fn burst_gap_for_load(burst_airtime_s: f64, load: f64) -> f64 {
    let load = load.clamp(0.01, 0.95);
    burst_airtime_s * (1.0 - load) / load
}

/// Occupancy-sensing parameters: how each carrier's per-channel EWMA busy
/// estimate is maintained and how often it is sampled into the metrics
/// series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SenseConfig {
    /// EWMA smoothing factor per carrier slot, in (0, 1]: the weight of
    /// the newest busy/idle observation.
    pub ewma_alpha: f64,
    /// Cadence of [`crate::metrics::OccupancySample`] records, seconds.
    pub sample_interval_s: f64,
}

impl Default for SenseConfig {
    fn default() -> Self {
        SenseConfig {
            // At the presets' 5 ms slot cadence, α = 0.05 gives a ~100 ms
            // time constant: fast enough to catch a mid-run load spike,
            // slow enough not to chase single bursts.
            ewma_alpha: 0.05,
            sample_interval_s: 0.1,
        }
    }
}

impl SenseConfig {
    /// Checks the sensing parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(format!(
                "sense ewma_alpha must be in (0, 1], got {}",
                self.ewma_alpha
            ));
        }
        if self.sample_interval_s <= 0.0 {
            return Err("sense sample interval must be positive".into());
        }
        Ok(())
    }
}

/// The adaptive re-striping policy: when a carrier's sensed occupancy on
/// its own stripe crosses `high_occupancy` and the least-occupied
/// alternative sub-band is at least `hysteresis` quieter, the carrier and
/// its Wi-Fi tags re-tune there. All thresholds compare EWMA occupancies;
/// the dwell time and the check cadence are the hysteresis in *time* that
/// keeps carriers from flapping between stripes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReStripe {
    /// Re-striping is considered only above this sensed occupancy.
    pub high_occupancy: f64,
    /// The best alternative must be at least this much quieter.
    pub hysteresis: f64,
    /// Minimum time between re-stripes of one carrier, seconds.
    pub min_dwell_s: f64,
    /// Decision cadence: check every this many of the carrier's slots.
    pub check_every_slots: u32,
}

impl Default for ReStripe {
    fn default() -> Self {
        ReStripe {
            high_occupancy: 0.35,
            hysteresis: 0.15,
            min_dwell_s: 1.0,
            check_every_slots: 10,
        }
    }
}

impl ReStripe {
    /// Checks the policy's parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.high_occupancy) {
            return Err(format!(
                "high_occupancy {} outside [0, 1]",
                self.high_occupancy
            ));
        }
        if !(self.hysteresis >= 0.0 && self.hysteresis.is_finite()) {
            return Err("hysteresis must be finite and non-negative".into());
        }
        if self.min_dwell_s < 0.0 {
            return Err("min_dwell_s must be non-negative".into());
        }
        if self.check_every_slots == 0 {
            return Err("check_every_slots must be at least 1".into());
        }
        Ok(())
    }
}

/// The full coexistence configuration a scenario attaches: the external
/// sources, the sensing parameters, and (optionally) the adaptive
/// re-striping policy. The default is sourceless: sensing runs on the
/// fleet's own traffic and nothing external touches the medium.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoexConfig {
    /// The external emitters sharing the band with the fleet.
    pub sources: Vec<CoexSource>,
    /// Occupancy-sensing parameters.
    pub sense: SenseConfig,
    /// Adaptive sub-band re-striping, off by default.
    pub restripe: Option<ReStripe>,
}

impl CoexConfig {
    /// A config carrying only the given sources, default sensing and no
    /// re-striping.
    pub fn with_sources(sources: Vec<CoexSource>) -> Self {
        CoexConfig {
            sources,
            ..CoexConfig::default()
        }
    }

    /// Attaches the re-striping policy (builder style).
    pub fn with_restripe(mut self, policy: ReStripe) -> Self {
        self.restripe = Some(policy);
        self
    }

    /// The engine's per-sink *scalar* occupancy under this config: the sum
    /// of the [`CoexModel::Constant`] sources targeting the sink, clamped
    /// to [0, 1]. Real generators contribute through the medium instead,
    /// so any sink without a constant source reads 0 here.
    pub fn constant_occupancy(&self, sink: usize) -> f64 {
        self.sources
            .iter()
            .filter_map(|s| match s.model {
                CoexModel::Constant(ConstantOccupancy { sink: k, occupancy }) if k == sink => {
                    Some(occupancy)
                }
                _ => None,
            })
            .sum::<f64>()
            .clamp(0.0, 1.0)
    }

    /// Checks every source and parameter block.
    pub fn validate(&self, n_sinks: usize) -> Result<(), String> {
        for (k, source) in self.sources.iter().enumerate() {
            source
                .validate(n_sinks)
                .map_err(|e| format!("source {k}: {e}"))?;
        }
        self.sense.validate()?;
        if let Some(restripe) = &self.restripe {
            restripe.validate()?;
        }
        Ok(())
    }
}

/// An exponential draw with mean `1/rate` seconds (the same shape as the
/// engine's arrival draws, duplicated so coex streams stay self-contained).
fn exponential_s<R: Rng>(rng: &mut R, rate_per_s: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate_per_s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        // detlint: allow(stray_rng): test-local stream driving generators directly, not an engine entity
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn constant_is_silent_and_folds_per_sink() {
        let c = CoexSource::constant(1, 0.2);
        assert!(c.model.traffic().next_emission(&mut rng()).is_none());
        assert!(c.model.traffic().band().is_none());
        let cfg = CoexConfig::with_sources(vec![
            CoexSource::constant(0, 0.05),
            CoexSource::constant(1, 0.2),
            CoexSource::constant(1, 0.9),
        ]);
        assert_eq!(cfg.constant_occupancy(0), 0.05);
        // Multiple constants on one sink sum, clamped into [0, 1].
        assert_eq!(cfg.constant_occupancy(1), 1.0);
        assert_eq!(cfg.constant_occupancy(2), 0.0);
        cfg.validate(3).unwrap();
    }

    #[test]
    fn wifi_bursty_approximates_its_offered_load() {
        for load in [0.2, 0.6] {
            let src = CoexSource::hidden_wifi(Position::default(), 6, load);
            let traffic = src.model.traffic();
            let mut rng = rng();
            let (mut on, mut total) = (0.0, 0.0);
            for _ in 0..4000 {
                let (gap, dur) = traffic.next_emission(&mut rng).unwrap();
                on += dur;
                total += gap + dur;
            }
            let measured = on / total;
            assert!(
                (measured - load).abs() < 0.05,
                "load {load}: measured {measured}"
            );
        }
        assert_eq!(
            CoexSource::hidden_wifi(Position::default(), 6, 0.5)
                .model
                .traffic()
                .access(),
            MediumAccess::Hidden
        );
        assert_eq!(
            CoexSource::wifi_neighbor(Position::default(), 6, 0.5)
                .model
                .traffic()
                .access(),
            MediumAccess::Csma
        );
    }

    #[test]
    fn generators_draw_sane_schedules() {
        let ble = CoexSource::ble_beacon(Position::default(), 0.1);
        let (gap, dur) = ble.model.traffic().next_emission(&mut rng()).unwrap();
        assert!((0.1..0.1 + BLE_ADV_DELAY_MAX_S).contains(&gap));
        assert_eq!(dur, BLE_ADV_AIRTIME_S);

        let zb = CoexSource::zigbee_neighbor(Position::default(), 14, 50.0);
        let (gap, dur) = zb.model.traffic().next_emission(&mut rng()).unwrap();
        assert!(gap > 0.0);
        // 6 header bytes + 20 payload bytes at 250 kbps = 832 µs.
        assert!((dur - 832e-6).abs() < 1e-9);
        assert_eq!(zb.model.traffic().access(), MediumAccess::Csma);

        // The microwave never consults its RNG: a strict duty cycle.
        let mw = CoexSource::microwave_oven(Position::default());
        let a = mw.model.traffic().next_emission(&mut rng()).unwrap();
        let b = mw.model.traffic().next_emission(&mut rng()).unwrap();
        assert_eq!(a, b);
        assert!((a.0 - 5e-3).abs() < 1e-12 && (a.1 - 5e-3).abs() < 1e-12);
        assert_eq!(mw.model.traffic().access(), MediumAccess::Ignore);
    }

    #[test]
    fn microwave_band_spares_channel_1() {
        let band = CoexSource::microwave_oven(Position::default())
            .model
            .traffic()
            .band()
            .unwrap();
        let ch = |c| Band::new(wifi_channel_freq_hz(c), 22e6);
        assert!(!band.overlaps(&ch(1)), "channel 1 must escape the oven");
        assert!(band.overlaps(&ch(6)));
        assert!(band.overlaps(&ch(11)));
    }

    #[test]
    fn activity_windows_and_validation() {
        let src = CoexSource::hidden_wifi(Position::default(), 6, 0.5).active(3.0, 8.0);
        assert_eq!((src.start_s, src.stop_s), (3.0, 8.0));
        src.validate(1).unwrap();
        assert!(CoexSource::hidden_wifi(Position::default(), 6, 0.5)
            .active(5.0, 5.0)
            .validate(1)
            .is_err());
        assert!(CoexSource::constant(4, 0.1).validate(3).is_err());
        assert!(CoexSource::constant(0, 1.5).validate(3).is_err());
        // Channel ranges are validated, not deferred to a mid-run panic
        // inside the channel-frequency asserts.
        assert!(CoexSource::wifi_neighbor(Position::default(), 14, 0.3)
            .validate(1)
            .is_err());
        assert!(CoexSource::zigbee_neighbor(Position::default(), 9, 10.0)
            .validate(1)
            .is_err());

        let mut bad = CoexSource::microwave_oven(Position::default());
        bad.model = CoexModel::Microwave(Microwave {
            period_s: 10e-3,
            duty: 1.0,
        });
        assert!(bad.validate(1).is_err());

        assert!(SenseConfig::default().validate().is_ok());
        assert!(SenseConfig {
            ewma_alpha: 0.0,
            sample_interval_s: 0.1
        }
        .validate()
        .is_err());
        assert!(ReStripe::default().validate().is_ok());
        assert!(ReStripe {
            check_every_slots: 0,
            ..ReStripe::default()
        }
        .validate()
        .is_err());
        assert!(ReStripe {
            high_occupancy: 1.5,
            ..ReStripe::default()
        }
        .validate()
        .is_err());

        let cfg = CoexConfig::with_sources(vec![CoexSource::constant(9, 0.1)]);
        assert!(cfg.validate(2).is_err());
        CoexConfig::default().validate(0).unwrap();
    }
}
