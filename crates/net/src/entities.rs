//! The three entity kinds of a network scenario: carriers, tags and
//! receivers, plus the geometry and PHY descriptors they share.

use interscatter_backscatter::tag::SidebandMode;
use interscatter_ble::channels::{wifi_channel_freq_hz, zigbee_channel_freq_hz, BleChannel};
use interscatter_channel::antenna::Antenna;
use interscatter_channel::noise::NoiseModel;
use interscatter_channel::tissue::TissuePath;
use interscatter_dsp::Cplx;
use interscatter_wifi::dot11b::rates::SHORT_PLCP_DURATION_S;
use interscatter_wifi::dot11b::DsssRate;

/// A point in the scenario's coordinate system, metres.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Position {
    /// East, metres.
    pub x: f64,
    /// North, metres.
    pub y: f64,
    /// Up, metres.
    pub z: f64,
}

impl Position {
    /// Builds a position from coordinates in metres.
    pub fn new(x: f64, y: f64, z: f64) -> Self {
        Position { x, y, z }
    }

    /// Euclidean distance to `other`, metres (floored at 1 cm so link
    /// budgets never divide by zero).
    pub fn distance_m(&self, other: &Position) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        let dz = self.z - other.z;
        (dx * dx + dy * dy + dz * dz).sqrt().max(0.01)
    }
}

/// The antenna/tissue package a tag is built into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagProfile {
    /// Bench prototype: 2 dBi monopole, no tissue (Fig. 10).
    Bench,
    /// Smart contact lens: 1 cm loop in lens solution (§5.1).
    ContactLens,
    /// Implanted neural recorder: 4 cm loop under muscle (§5.2).
    NeuralImplant,
    /// Credit-card form factor: printed antenna, no tissue (§5.3).
    Card,
}

impl TagProfile {
    /// The tag's antenna.
    pub fn antenna(&self) -> Antenna {
        match self {
            TagProfile::Bench => Antenna::monopole_2dbi(),
            TagProfile::ContactLens => Antenna::contact_lens_loop(),
            TagProfile::NeuralImplant => Antenna::implant_loop(),
            TagProfile::Card => Antenna {
                name: "card antenna",
                gain_dbi: 1.0,
                efficiency: 0.7,
                mismatch_loss_db: 1.0,
                impedance: Cplx::real(50.0),
            },
        }
    }

    /// The tissue covering the tag, traversed on both hops.
    pub fn tissue(&self) -> TissuePath {
        match self {
            TagProfile::Bench | TagProfile::Card => TissuePath::new(),
            TagProfile::ContactLens => TissuePath::contact_lens(),
            TagProfile::NeuralImplant => TissuePath::neural_implant(),
        }
    }
}

/// The packet format a tag synthesizes on the air.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetPhy {
    /// 802.11b DSSS/CCK on the given Wi-Fi channel (1–13).
    Wifi {
        /// DSSS/CCK rate of the synthesized packets.
        rate: DsssRate,
        /// Wi-Fi channel number the packets land on.
        channel: u8,
    },
    /// IEEE 802.15.4 O-QPSK on the given ZigBee channel (11–26).
    Zigbee {
        /// ZigBee channel number the packets land on.
        channel: u8,
    },
    /// Card-to-card on-off keying of the carrier tone itself (§5.3): no
    /// frequency shift, decoded by a peer card's envelope detector.
    CardOok {
        /// OOK bit rate, bits per second (100 kbps in the paper).
        bit_rate_bps: f64,
    },
}

impl NetPhy {
    /// Airtime of one packet with `payload_bytes` of payload, seconds.
    pub fn airtime_s(&self, payload_bytes: usize) -> f64 {
        match self {
            NetPhy::Wifi { rate, .. } => {
                SHORT_PLCP_DURATION_S + rate.payload_airtime_s(payload_bytes)
            }
            // 802.15.4: 4-byte preamble + SFD + length at 250 kbps, then
            // the payload.
            NetPhy::Zigbee { .. } => (6.0 * 8.0 + payload_bytes as f64 * 8.0) / 250e3,
            // OOK: a short preamble for threshold calibration plus the
            // payload bits.
            NetPhy::CardOok { bit_rate_bps } => (16.0 + payload_bytes as f64 * 8.0) / bit_rate_bps,
        }
    }

    /// Information bits delivered by one packet.
    pub fn payload_bits(&self, payload_bytes: usize) -> usize {
        payload_bytes * 8
    }

    /// Centre frequency of the synthesized packet, Hz. `carrier_freq_hz` is
    /// the illuminating tone's frequency (used by [`NetPhy::CardOok`], which
    /// does not shift).
    pub fn center_freq_hz(&self, carrier_freq_hz: f64) -> f64 {
        match self {
            NetPhy::Wifi { channel, .. } => wifi_channel_freq_hz(*channel),
            NetPhy::Zigbee { channel } => zigbee_channel_freq_hz(*channel),
            NetPhy::CardOok { .. } => carrier_freq_hz,
        }
    }

    /// Occupied bandwidth of the synthesized packet, Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        match self {
            NetPhy::Wifi { .. } => 22e6,
            NetPhy::Zigbee { .. } => 2e6,
            NetPhy::CardOok { bit_rate_bps } => (4.0 * bit_rate_bps).max(1e6),
        }
    }

    /// The receiver noise model matching this PHY.
    pub fn noise_model(&self) -> NoiseModel {
        match self {
            NetPhy::Wifi { .. } => NoiseModel::wifi_dsss(),
            NetPhy::Zigbee { .. } => NoiseModel::zigbee(),
            NetPhy::CardOok { .. } => NoiseModel::envelope_detector(),
        }
    }
}

/// A Bluetooth device providing the carrier the tags modulate.
///
/// The carrier activates every `slot_interval_s` (one crafted advertisement
/// per activation) and its single-tone payload window illuminates one tag
/// for up to `slot_window_s`.
#[derive(Debug, Clone)]
pub struct CarrierSource {
    /// Where the Bluetooth device sits. Private: a scenario's positions
    /// are build-time inputs; the *live* geometry belongs to
    /// [`crate::links::LinkMatrix`], whose `set_position` marks the
    /// carrier dirty for the next budget flush. Mutating a position here
    /// after the matrix was built would silently leave every budget
    /// stale — the bug this field's privacy removes. Read with
    /// [`CarrierSource::position`]; reposition before the run with
    /// [`crate::scenario::Scenario::place_carrier`].
    pub(crate) position: Position,
    /// Transmit power, dBm.
    pub tx_power_dbm: f64,
    /// BLE advertising channel the tone is emitted on.
    pub ble_channel: BleChannel,
    /// Time between carrier activations, seconds.
    pub slot_interval_s: f64,
    /// Usable single-tone window per activation, seconds.
    pub slot_window_s: f64,
    /// Minimum RSSI the carrier's conventional radio can decode, dBm —
    /// what a closed-loop ack frame from the sink must clear.
    pub ack_sensitivity_dbm: f64,
    /// The Wi-Fi sub-band stripe this carrier's tags synthesize onto
    /// (0 unless the scenario striped its carriers across channels with
    /// [`crate::scenario::Scenario::with_subband_striping`]). Striping
    /// itself acts at build time — it retunes the tags' channels — and
    /// the stripe index is carried into
    /// [`crate::sched::CarrierSched::subband`] so future arbitration
    /// policies can key on it; none of the built-in four does yet.
    pub subband: usize,
}

impl CarrierSource {
    /// A phone-class 10 dBm carrier on BLE channel 38 activating every
    /// `slot_interval_s`, with the paper's 248 µs payload window.
    pub fn phone(position: Position, slot_interval_s: f64) -> Self {
        CarrierSource {
            position,
            tx_power_dbm: 10.0,
            ble_channel: BleChannel::ADV_38,
            slot_interval_s,
            slot_window_s: interscatter_ble::timing::MAX_PAYLOAD_DURATION_S,
            ack_sensitivity_dbm: -85.0,
            subband: 0,
        }
    }

    /// A class-1 20 dBm helper beacon (the dedicated "helper device" of
    /// §2.3.3, deployed bedside so implants sit inside the ~1 m
    /// illumination range the paper's links need).
    pub fn helper(position: Position, slot_interval_s: f64) -> Self {
        CarrierSource {
            tx_power_dbm: 20.0,
            ..CarrierSource::phone(position, slot_interval_s)
        }
    }

    /// The tone frequency, Hz.
    pub fn carrier_freq_hz(&self) -> f64 {
        self.ble_channel.center_freq_hz()
    }

    /// Where the Bluetooth device sits (the scenario's build-time
    /// placement; a mobile run's live position lives in the
    /// [`crate::links::LinkMatrix`]).
    pub fn position(&self) -> Position {
        self.position
    }
}

/// A backscatter tag with its application traffic source.
#[derive(Debug, Clone)]
pub struct TagNode {
    /// Where the tag sits. Private for the same reason as
    /// [`CarrierSource::position`]: post-build mutation would leave the
    /// [`crate::links::LinkMatrix`] silently stale. Read with
    /// [`TagNode::position`]; reposition before the run with
    /// [`crate::scenario::Scenario::place_tag`]; attach a
    /// [`crate::mobility::MobilityConfig`] to move tags *during* a run.
    pub(crate) position: Position,
    /// Antenna/tissue package.
    pub profile: TagProfile,
    /// Single- or double-sideband modulator.
    pub sideband: SidebandMode,
    /// What the tag synthesizes.
    pub phy: NetPhy,
    /// Index (into the scenario's carrier list) of the carrier that
    /// illuminates this tag.
    pub carrier: usize,
    /// Index (into the scenario's receiver list) of the receiver the tag's
    /// packets are destined for.
    pub receiver: usize,
    /// Application payload per packet, bytes.
    pub payload_bytes: usize,
    /// Mean application packet rate, packets per second (Poisson arrivals).
    pub arrival_rate_pps: f64,
    /// How many carrier slots a packet may be retried in before it is
    /// dropped.
    pub max_retries: u32,
}

impl TagNode {
    /// Where the tag sits (build-time placement; a mobile run's live
    /// position lives in the [`crate::links::LinkMatrix`]).
    pub fn position(&self) -> Position {
        self.position
    }
}

/// What kind of radio a receiver is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SinkKind {
    /// A commodity 802.11b receiver on the given Wi-Fi channel.
    Wifi {
        /// Wi-Fi channel the receiver listens on.
        channel: u8,
    },
    /// A commodity 802.15.4 receiver on the given ZigBee channel.
    Zigbee {
        /// ZigBee channel the receiver listens on.
        channel: u8,
    },
    /// A peer card's passive envelope detector (wideband, around the
    /// carrier).
    Envelope,
}

/// A device that decodes tag transmissions.
#[derive(Debug, Clone)]
pub struct SinkReceiver {
    /// Where the receiver sits. Private for the same reason as
    /// [`CarrierSource::position`]; read with [`SinkReceiver::position`],
    /// reposition before the run with
    /// [`crate::scenario::Scenario::place_sink`].
    pub(crate) position: Position,
    /// What kind of radio it is.
    pub kind: SinkKind,
    /// Minimum RSSI it can decode, dBm.
    pub sensitivity_dbm: f64,
    /// Fraction of airtime its channel is occupied by *other* (external)
    /// Wi-Fi traffic the engine does not model packet-by-packet, in [0, 1].
    /// Folded into every reception's delivery probability on every run,
    /// whether or not the scenario attaches a coex config
    /// ([`crate::coex`] sources add traffic on top; they never replace
    /// this scalar).
    pub external_occupancy: f64,
    /// Transmit power of the sink's AM-OFDM downlink (closed-loop acks),
    /// dBm. APs transmit at the §4.4 bench's 15 dBm; hubs and card hosts
    /// are weaker.
    pub downlink_tx_power_dbm: f64,
}

impl SinkReceiver {
    /// A Wi-Fi access point: −88 dBm sensitivity at 2 Mbps DSSS.
    pub fn wifi_ap(position: Position, channel: u8) -> Self {
        SinkReceiver {
            position,
            kind: SinkKind::Wifi { channel },
            sensitivity_dbm: -88.0,
            external_occupancy: 0.0,
            downlink_tx_power_dbm: 15.0,
        }
    }

    /// A ZigBee hub: −94 dBm sensitivity (§4.5 notes ZigBee's narrower
    /// bandwidth buys sensitivity).
    pub fn zigbee_hub(position: Position, channel: u8) -> Self {
        SinkReceiver {
            position,
            kind: SinkKind::Zigbee { channel },
            sensitivity_dbm: -94.0,
            external_occupancy: 0.0,
            downlink_tx_power_dbm: 10.0,
        }
    }

    /// A peer card's envelope detector: −58 dBm sensitivity (the averaging
    /// comparator of the §5.3 prototype).
    pub fn card_detector(position: Position) -> Self {
        SinkReceiver {
            position,
            kind: SinkKind::Envelope,
            sensitivity_dbm: -58.0,
            external_occupancy: 0.0,
            downlink_tx_power_dbm: 4.0,
        }
    }

    /// Where the receiver sits (build-time placement; a mobile run's live
    /// position lives in the [`crate::links::LinkMatrix`]).
    pub fn position(&self) -> Position {
        self.position
    }

    /// Centre frequency the receiver listens at, Hz. For an envelope
    /// detector this is the carrier frequency, supplied by the caller.
    pub fn center_freq_hz(&self, carrier_freq_hz: f64) -> f64 {
        match self.kind {
            SinkKind::Wifi { channel } => wifi_channel_freq_hz(channel),
            SinkKind::Zigbee { channel } => zigbee_channel_freq_hz(channel),
            SinkKind::Envelope => carrier_freq_hz,
        }
    }

    /// Occupied bandwidth the receiver listens over, Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        match self.kind {
            SinkKind::Wifi { .. } => 22e6,
            SinkKind::Zigbee { .. } => 2e6,
            SinkKind::Envelope => 20e6,
        }
    }

    /// Whether this receiver can decode packets of the given PHY (same
    /// technology *and* same channel).
    pub fn accepts(&self, phy: &NetPhy) -> bool {
        match (self.kind, phy) {
            (SinkKind::Wifi { channel: rx }, NetPhy::Wifi { channel: tx, .. }) => rx == *tx,
            (SinkKind::Zigbee { channel: rx }, NetPhy::Zigbee { channel: tx }) => rx == *tx,
            (SinkKind::Envelope, NetPhy::CardOok { .. }) => true,
            _ => false,
        }
    }
}

/// The named per-entity RNG streams — the **only** sanctioned way to
/// construct a generator in this crate.
///
/// Every run's randomness fans out from the scenario seed through five
/// decorrelated streams, one per entity kind:
///
/// | stream | constructor | consumer |
/// |--------|-------------|----------|
/// | 0 | [`streams::trial_seed`] | Monte-Carlo trials ([`crate::run_trials`]) |
/// | 1 | [`streams::tag_rng`] | tag traffic arrivals |
/// | 2 | [`streams::carrier_rng`] | carrier CSMA backoff |
/// | 3 | [`streams::mobility_rng`] | per-tag mobility walks |
/// | 4 | [`streams::coex_rng`] | coex source emission processes |
///
/// The derivation itself lives in [`rand::derive_stream_seed`]; this
/// module names the streams so a call site reads as *which* entity's
/// randomness it draws. `crates/net/clippy.toml` bans `seed_from_u64`
/// anywhere in the engine crate (these constructors go through
/// [`rand::stream::small_rng`]), because a stray
/// generator is a determinism hazard, not a style nit: it either aliases
/// an existing stream (correlating what must be independent) or invents
/// an unnamed one (breaking the seed-reproducibility audit trail).
pub mod streams {
    use rand::rngs::SmallRng;
    use rand::Rng;

    /// Stream id of the Monte-Carlo trial stream.
    pub const TRIALS: u64 = 0;
    /// Stream id of the tag traffic stream.
    pub const TAGS: u64 = 1;
    /// Stream id of the carrier CSMA stream.
    pub const CARRIERS: u64 = 2;
    /// Stream id of the mobility stream.
    pub const MOBILITY: u64 = 3;
    /// Stream id of the coex-source stream.
    pub const COEX: u64 = 4;

    /// The seed Monte-Carlo trial `trial` runs with (stream 0): trials are
    /// whole engine runs, so this hands out a seed, not a generator.
    pub fn trial_seed(base: u64, trial: usize) -> u64 {
        rand::derive_stream_seed(base, TRIALS, trial as u64)
    }

    /// Tag `tag`'s traffic-arrival generator (stream 1).
    pub fn tag_rng(seed: u64, tag: usize) -> SmallRng {
        rand::stream::small_rng(seed, TAGS, tag as u64)
    }

    /// Carrier `carrier`'s CSMA-backoff generator (stream 2).
    pub fn carrier_rng(seed: u64, carrier: usize) -> SmallRng {
        rand::stream::small_rng(seed, CARRIERS, carrier as u64)
    }

    /// Tag `tag`'s mobility-walk generator (stream 3).
    pub fn mobility_rng(seed: u64, tag: usize) -> SmallRng {
        rand::stream::small_rng(seed, MOBILITY, tag as u64)
    }

    /// Coex source `source`'s emission-process generator (stream 4).
    pub fn coex_rng(seed: u64, source: usize) -> SmallRng {
        rand::stream::small_rng(seed, COEX, source as u64)
    }

    /// An exponential draw with mean `1/rate_per_s` seconds: tag
    /// inter-arrivals and coex-source gaps, each from its own stream.
    pub(crate) fn exponential_s<R: Rng>(rng: &mut R, rate_per_s: f64) -> f64 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        -u.ln() / rate_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_constructors_are_decorrelated_and_reproducible() {
        use rand::Rng;
        let mut draws: Vec<u64> = vec![
            streams::tag_rng(42, 0).gen(),
            streams::tag_rng(42, 1).gen(),
            streams::carrier_rng(42, 0).gen(),
            streams::mobility_rng(42, 0).gen(),
            streams::coex_rng(42, 0).gen(),
            streams::trial_seed(42, 0),
            streams::trial_seed(42, 1),
        ];
        draws.sort_unstable();
        draws.dedup();
        assert_eq!(draws.len(), 7, "streams alias each other");
        // Reproducible: the same constructor yields the same stream.
        let mut a = streams::tag_rng(42, 3);
        let mut b = streams::tag_rng(42, 3);
        for _ in 0..8 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn distances() {
        let a = Position::new(0.0, 0.0, 0.0);
        let b = Position::new(3.0, 4.0, 0.0);
        assert!((a.distance_m(&b) - 5.0).abs() < 1e-12);
        // Coincident points floor at 1 cm.
        assert!((a.distance_m(&a) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn airtimes_scale_with_payload_and_rate() {
        let slow = NetPhy::Wifi {
            rate: DsssRate::Mbps2,
            channel: 11,
        };
        let fast = NetPhy::Wifi {
            rate: DsssRate::Mbps11,
            channel: 11,
        };
        assert!(slow.airtime_s(31) > fast.airtime_s(31));
        assert!(slow.airtime_s(62) > slow.airtime_s(31));
        // 2 Mbps, 31 bytes: 96 µs PLCP + 124 µs payload ≈ 220 µs, inside
        // the 248 µs single-tone window.
        assert!(slow.airtime_s(31) < 248e-6);
        let zb = NetPhy::Zigbee { channel: 14 };
        assert!(zb.airtime_s(20) > slow.airtime_s(20));
        let ook = NetPhy::CardOok {
            bit_rate_bps: 100e3,
        };
        assert!(ook.airtime_s(8) > zb.airtime_s(8));
    }

    #[test]
    fn frequencies_and_acceptance() {
        let carrier = CarrierSource::phone(Position::default(), 20e-3);
        assert!((carrier.carrier_freq_hz() - 2.426e9).abs() < 1.0);
        let wifi = NetPhy::Wifi {
            rate: DsssRate::Mbps2,
            channel: 11,
        };
        assert!((wifi.center_freq_hz(carrier.carrier_freq_hz()) - 2.462e9).abs() < 1.0);
        let ook = NetPhy::CardOok {
            bit_rate_bps: 100e3,
        };
        assert_eq!(ook.center_freq_hz(2.426e9), 2.426e9);

        let ap = SinkReceiver::wifi_ap(Position::default(), 11);
        assert!(ap.accepts(&wifi));
        assert!(!ap.accepts(&ook));
        let card = SinkReceiver::card_detector(Position::default());
        assert!(card.accepts(&ook));
        assert!(!card.accepts(&wifi));
    }

    #[test]
    fn profiles_provide_antennas_and_tissue() {
        for profile in [
            TagProfile::Bench,
            TagProfile::ContactLens,
            TagProfile::NeuralImplant,
            TagProfile::Card,
        ] {
            assert!(profile.antenna().validate().is_ok());
            let _ = profile.tissue();
        }
        // Implant antennas are lossier than the bench monopole.
        assert!(
            TagProfile::NeuralImplant.antenna().effective_gain_dbi()
                < TagProfile::Bench.antenna().effective_gain_dbi()
        );
    }
}
