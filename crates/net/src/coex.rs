//! Coexistence: the rest of the 2.4 GHz band, modelled as *traffic*.
//!
//! Each sink's [`crate::entities::SinkReceiver::external_occupancy`] scalar
//! is the share of airtime Wi-Fi outside the model holds; the engine folds
//! it into every reception's delivery probability, with or without a coex
//! config. This module adds what a scalar cannot do — congest, spike
//! mid-run, be sensed — in three layers:
//!
//! 1. **External traffic generators** — a closed [`CoexModel`] catalogue
//!    whose methods `match` on the variant. Each [`CoexSource`] runs a
//!    seeded arrival process on its own RNG stream and injects *real timed
//!    emissions* into the [`crate::medium::Medium`]
//!    ([`crate::medium::Emitter::External`]), so collisions, capture and
//!    the §2.3.3 NAV interact with external traffic packet by packet.
//! 2. **Occupancy sensing** — each carrier maintains an EWMA busy-airtime
//!    estimate per channel from what the medium actually carries at its
//!    slot instants (α = 0.05 per slot, sampled every 0.1 s). It feeds the
//!    re-striping decision below and the per-carrier
//!    [`crate::metrics::OccupancySample`] series.
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

use crate::entities::streams::exponential_s;
use crate::entities::Position;
use crate::medium::Band;
use crate::scenario::{check_channel, finite_position, positive_finite};
use interscatter_ble::channels::{
    wifi_channel_freq_hz, zigbee_channel_freq_hz, BleChannel, WIFI_CHANNELS, ZIGBEE_CHANNELS,
};
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

impl WifiBursty {
    /// An exponential idle gap, then a geometric burst of at least one
    /// frame with the configured mean.
    fn next_burst(&self, rng: &mut SmallRng) -> (f64, f64) {
        let gap = exponential_s(rng, 1.0 / self.mean_gap_s);
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let frames = (-u.ln() * self.mean_burst_frames).ceil().max(1.0);
        (gap, frames * self.frame_airtime_s)
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

/// The generator catalogue a [`CoexSource`] can run (plain data, `Copy`,
/// like [`crate::mobility::MobilityModel`] and
/// [`crate::sched::SchedPolicy`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoexModel {
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
    /// Draws the next emission as `(gap_s, duration_s)`: an idle gap from
    /// the previous emission's end (or the activity window's start) to the
    /// next start, then the on-air time.
    pub fn next_emission(&self, rng: &mut SmallRng) -> (f64, f64) {
        match self {
            CoexModel::WifiBursty(m) => m.next_burst(rng),
            CoexModel::BleAdvertiser(m) => (
                m.interval_s + rng.gen_range(0.0..BLE_ADV_DELAY_MAX_S),
                BLE_ADV_AIRTIME_S,
            ),
            CoexModel::ZigbeeChatter(m) => (exponential_s(rng, m.rate_fps), m.frame_airtime_s()),
            // Deterministic: the oven does not consult its RNG stream at all.
            CoexModel::Microwave(m) => ((1.0 - m.duty) * m.period_s, m.duty * m.period_s),
        }
    }

    /// The band emissions occupy.
    pub fn band(&self) -> Band {
        match self {
            CoexModel::WifiBursty(m) => Band::new(wifi_channel_freq_hz(m.channel), 22e6),
            CoexModel::BleAdvertiser(m) => Band::new(m.ble_channel.center_freq_hz(), 2e6),
            CoexModel::ZigbeeChatter(m) => Band::new(zigbee_channel_freq_hz(m.channel), 2e6),
            // 40 MHz around 2.45 GHz: punctures Wi-Fi channels 6 and 11 but
            // spares channel 1 — the classic kitchen-adjacent deployment tale.
            CoexModel::Microwave(_) => Band::new(2.45e9, 40e6),
        }
    }

    /// How the source treats the shared medium.
    pub fn access(&self) -> MediumAccess {
        match self {
            CoexModel::WifiBursty(m) => m.access,
            CoexModel::ZigbeeChatter(_) => MediumAccess::Csma,
            CoexModel::BleAdvertiser(_) | CoexModel::Microwave(_) => MediumAccess::Ignore,
        }
    }

    /// A short name for traces and report tables.
    pub fn slug(&self) -> &'static str {
        match self {
            CoexModel::WifiBursty(_) => "wifi-bursty",
            CoexModel::BleAdvertiser(_) => "ble-adv",
            CoexModel::ZigbeeChatter(_) => "zigbee",
            CoexModel::Microwave(_) => "microwave",
        }
    }
}

/// One external emitter: where it sits, how loud it is, when it is active
/// and which traffic process it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoexSource {
    /// Where the source sits (feeds its pair powers in
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

    /// Checks the source's parameters: a finite position and power, a
    /// non-empty activity window, and positive-finite rates and durations
    /// (a NaN or infinite one would otherwise pass here and panic mid-run
    /// in the time arithmetic).
    pub fn validate(&self) -> Result<(), String> {
        if !finite_position(&self.position) {
            return Err("position must be finite".into());
        }
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
            CoexModel::WifiBursty(WifiBursty {
                channel,
                mean_burst_frames,
                frame_airtime_s,
                mean_gap_s,
                ..
            }) => {
                check_channel("wifi", channel, WIFI_CHANNELS)?;
                if ![mean_burst_frames, frame_airtime_s, mean_gap_s]
                    .into_iter()
                    .all(positive_finite)
                {
                    return Err("wifi burst parameters must be positive and finite".into());
                }
            }
            CoexModel::BleAdvertiser(BleAdvertiser { interval_s, .. }) => {
                if !positive_finite(interval_s) {
                    return Err("BLE advertising interval must be positive and finite".into());
                }
            }
            CoexModel::ZigbeeChatter(ZigbeeChatter {
                channel,
                rate_fps,
                payload_bytes,
            }) => {
                check_channel("zigbee", channel, ZIGBEE_CHANNELS)?;
                if !positive_finite(rate_fps) || payload_bytes == 0 {
                    return Err("zigbee chatter needs a positive finite rate and payload".into());
                }
            }
            CoexModel::Microwave(Microwave { period_s, duty }) => {
                if !(positive_finite(period_s) && duty > 0.0 && duty < 1.0) {
                    return Err(format!(
                        "microwave needs a positive finite period and duty in (0, 1), got {period_s}/{duty}"
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

/// EWMA smoothing factor of occupancy sensing, per carrier slot: the
/// weight of the newest busy/idle observation. At the presets' 5 ms slot
/// cadence, α = 0.05 gives a ~100 ms time constant: fast enough to catch a
/// mid-run load spike, slow enough not to chase single bursts.
pub(crate) const SENSE_EWMA_ALPHA: f64 = 0.05;

/// Cadence of [`crate::metrics::OccupancySample`] records, seconds.
pub(crate) const SENSE_SAMPLE_INTERVAL_S: f64 = 0.1;

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
        if !(self.min_dwell_s >= 0.0 && self.min_dwell_s.is_finite()) {
            return Err(format!(
                "min_dwell_s must be finite and non-negative, got {}",
                self.min_dwell_s
            ));
        }
        if self.check_every_slots == 0 {
            return Err("check_every_slots must be at least 1".into());
        }
        Ok(())
    }
}

/// The full coexistence configuration a scenario attaches: the external
/// traffic sources and (optionally) the adaptive re-striping policy. The
/// default is sourceless: sensing runs on the fleet's own traffic and
/// nothing external touches the medium. A config never changes the sinks'
/// `external_occupancy` scalars the engine folds.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CoexConfig {
    /// The external emitters sharing the band with the fleet.
    pub sources: Vec<CoexSource>,
    /// Adaptive sub-band re-striping, off by default.
    pub restripe: Option<ReStripe>,
}

impl CoexConfig {
    /// A config carrying only the given sources and no re-striping.
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

    /// Checks every source and parameter block.
    pub fn validate(&self) -> Result<(), String> {
        for (k, source) in self.sources.iter().enumerate() {
            source.validate().map_err(|e| format!("source {k}: {e}"))?;
        }
        if let Some(restripe) = &self.restripe {
            restripe.validate()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[expect(
        clippy::disallowed_methods,
        reason = "test-local stream driving generators directly, not an engine entity"
    )]
    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    #[test]
    fn wifi_bursty_approximates_its_offered_load() {
        for load in [0.2, 0.6] {
            let src = CoexSource::hidden_wifi(Position::default(), 6, load);
            let mut rng = rng();
            let (mut on, mut total) = (0.0, 0.0);
            for _ in 0..4000 {
                let (gap, dur) = src.model.next_emission(&mut rng);
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
                .access(),
            MediumAccess::Hidden
        );
        assert_eq!(
            CoexSource::wifi_neighbor(Position::default(), 6, 0.5)
                .model
                .access(),
            MediumAccess::Csma
        );
    }

    #[test]
    fn generators_draw_sane_schedules() {
        let ble = CoexSource::ble_beacon(Position::default(), 0.1);
        let (gap, dur) = ble.model.next_emission(&mut rng());
        assert!((0.1..0.1 + BLE_ADV_DELAY_MAX_S).contains(&gap));
        assert_eq!(dur, BLE_ADV_AIRTIME_S);

        let zb = CoexSource::zigbee_neighbor(Position::default(), 14, 50.0);
        let (gap, dur) = zb.model.next_emission(&mut rng());
        assert!(gap > 0.0);
        // 6 header bytes + 20 payload bytes at 250 kbps = 832 µs.
        assert!((dur - 832e-6).abs() < 1e-9);
        assert_eq!(zb.model.access(), MediumAccess::Csma);

        // The microwave never consults its RNG: a strict duty cycle.
        let mw = CoexSource::microwave_oven(Position::default());
        let a = mw.model.next_emission(&mut rng());
        let b = mw.model.next_emission(&mut rng());
        assert_eq!(a, b);
        assert!((a.0 - 5e-3).abs() < 1e-12 && (a.1 - 5e-3).abs() < 1e-12);
        assert_eq!(mw.model.access(), MediumAccess::Ignore);
    }

    #[test]
    fn microwave_band_spares_channel_1() {
        let band = CoexSource::microwave_oven(Position::default()).model.band();
        let ch = |c| Band::new(wifi_channel_freq_hz(c), 22e6);
        assert!(!band.overlaps(&ch(1)), "channel 1 must escape the oven");
        assert!(band.overlaps(&ch(6)));
        assert!(band.overlaps(&ch(11)));
    }

    #[test]
    fn activity_windows_and_validation() {
        let here = Position::default();
        let src = CoexSource::hidden_wifi(here, 6, 0.5).active(3.0, 8.0);
        assert_eq!((src.start_s, src.stop_s), (3.0, 8.0));
        src.validate().unwrap();
        assert!(CoexSource::hidden_wifi(here, 6, 0.5)
            .active(5.0, 5.0)
            .validate()
            .is_err());
        // Channel ranges are validated, not deferred to a mid-run panic
        // inside the channel-frequency asserts.
        assert!(CoexSource::wifi_neighbor(here, 14, 0.3).validate().is_err());
        assert!(CoexSource::zigbee_neighbor(here, 9, 10.0)
            .validate()
            .is_err());
        let mut far = CoexSource::microwave_oven(here);
        far.position.y = f64::NAN;
        assert!(far.validate().is_err());

        // Each model with one parameter made non-positive or non-finite:
        // all rejected here rather than panicking in the time arithmetic
        // mid-run.
        let with = |model| CoexSource {
            model,
            ..CoexSource::microwave_oven(here)
        };
        let wifi = WifiBursty {
            channel: 6,
            mean_burst_frames: 4.0,
            frame_airtime_s: 1e-3,
            mean_gap_s: 1e-2,
            access: MediumAccess::Csma,
        };
        let ble = BleAdvertiser {
            ble_channel: BleChannel::ADV_38,
            interval_s: 0.1,
        };
        let zigbee = ZigbeeChatter {
            channel: 14,
            rate_fps: 50.0,
            payload_bytes: 20,
        };
        let oven = Microwave {
            period_s: 10e-3,
            duty: 0.5,
        };
        for model in [
            CoexModel::WifiBursty(wifi),
            CoexModel::BleAdvertiser(ble),
            CoexModel::ZigbeeChatter(zigbee),
            CoexModel::Microwave(oven),
        ] {
            with(model).validate().unwrap();
        }
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            for model in [
                CoexModel::WifiBursty(WifiBursty {
                    frame_airtime_s: bad,
                    ..wifi
                }),
                CoexModel::WifiBursty(WifiBursty {
                    mean_burst_frames: bad,
                    ..wifi
                }),
                CoexModel::WifiBursty(WifiBursty {
                    mean_gap_s: bad,
                    ..wifi
                }),
                CoexModel::BleAdvertiser(BleAdvertiser {
                    interval_s: bad,
                    ..ble
                }),
                CoexModel::ZigbeeChatter(ZigbeeChatter {
                    rate_fps: bad,
                    ..zigbee
                }),
                CoexModel::Microwave(Microwave {
                    period_s: bad,
                    ..oven
                }),
            ] {
                assert!(with(model).validate().is_err(), "{bad}: {model:?}");
            }
        }
        assert!(with(CoexModel::Microwave(Microwave { duty: 1.0, ..oven }))
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
        // A NaN dwell would panic in the time arithmetic mid-run; an
        // infinite one would silently never re-stripe.
        for min_dwell_s in [-1.0, f64::NAN, f64::INFINITY] {
            let policy = ReStripe {
                min_dwell_s,
                ..ReStripe::default()
            };
            assert!(policy.validate().is_err(), "dwell {min_dwell_s}");
        }

        let cfg = CoexConfig::with_sources(vec![CoexSource::ble_beacon(here, f64::NAN)]);
        assert!(cfg.validate().is_err());
        CoexConfig::default().validate().unwrap();
    }
}
