//! # interscatter
//!
//! A library-level reproduction of **"Inter-Technology Backscatter: Towards
//! Internet Connectivity for Implanted Devices"** (SIGCOMM 2016).
//!
//! Interscatter turns transmissions from one commodity wireless technology
//! into another, on the air: a backscatter tag reflects a Bluetooth Low
//! Energy advertisement (crafted to be a single tone) and, by switching
//! among four complex antenna impedances at tens of MHz, synthesizes a
//! standards-compliant 802.11b or ZigBee packet that a normal smartphone,
//! laptop or sensor hub can decode. In the other direction, a commodity
//! 802.11g transmitter is turned into an amplitude modulator that a passive
//! envelope detector on the tag can decode.
//!
//! This crate is the facade over the workspace: it re-exports the individual
//! layers and offers a small high-level API ([`Interscatter`]) that wires the
//! typical pipelines together. The heavy lifting lives in the sub-crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`dsp`] | complex IQ, FFT, filters, spectra, CRCs, LFSRs |
//! | [`ble`] | BLE GFSK, advertising PDUs, whitening, single-tone crafting |
//! | [`wifi`] | 802.11b DSSS/CCK and 802.11g OFDM PHYs, AM downlink crafting |
//! | [`zigbee`] | IEEE 802.15.4 O-QPSK PHY |
//! | [`backscatter`] | impedance model, single/double-sideband modulators, tag, envelope detector, IC power |
//! | [`channel`] | path loss, noise, tissue attenuation, antennas, link budget |
//! | [`sim`] | end-to-end scenarios, MAC coexistence, per-figure experiments |
//! | [`net`] | deterministic event-driven multi-tag network engine and Monte-Carlo runner |
//!
//! # Quick start
//!
//! ```
//! use interscatter::prelude::*;
//!
//! // 1. Craft the BLE advertising payload that makes the radio emit a tone.
//! let system = Interscatter::default();
//! let packet = system.single_tone_advertisement([0xC0, 0xFF, 0xEE, 0x01, 0x02, 0x03]).unwrap();
//! assert_eq!(packet.adv_data.len(), 31);
//!
//! // 2. Ask the tag for the Wi-Fi packet it will synthesize from that tone.
//! let reflection = system.wifi_reflection_sequence(b"hello interscatter").unwrap();
//! assert!(reflection.iter().all(|g| g.abs() <= 1.0 + 1e-9));
//!
//! // 3. Estimate the link: 10 dBm phone 1 ft from the tag, laptop 20 ft away.
//! let rssi = system.uplink_rssi_dbm(10.0, 1.0, 20.0);
//! assert!(rssi > -92.0, "the packet should be decodable at 20 ft");
//! ```

pub use interscatter_backscatter as backscatter;
pub use interscatter_ble as ble;
pub use interscatter_channel as channel;
pub use interscatter_dsp as dsp;
pub use interscatter_net as net;
pub use interscatter_sim as sim;
pub use interscatter_wifi as wifi;
pub use interscatter_zigbee as zigbee;

pub mod prelude;

use backscatter::tag::{InterscatterTag, SidebandMode, TagConfig, TargetPhy};
use backscatter::BackscatterError;
use ble::channels::BleChannel;
use ble::packet::AdvertisingPacket;
use ble::single_tone::{single_tone_packet, TonePolarity};
use ble::BleError;
use dsp::Cplx;
use sim::uplink::UplinkScenario;
use wifi::dot11b::DsssRate;

/// Errors surfaced by the high-level facade.
#[derive(Debug, Clone, PartialEq)]
pub enum InterscatterError {
    /// Error from the BLE layer.
    Ble(BleError),
    /// Error from the backscatter layer.
    Backscatter(BackscatterError),
}

impl core::fmt::Display for InterscatterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InterscatterError::Ble(e) => write!(f, "BLE: {e}"),
            InterscatterError::Backscatter(e) => write!(f, "backscatter: {e}"),
        }
    }
}

impl std::error::Error for InterscatterError {}

impl From<BleError> for InterscatterError {
    fn from(e: BleError) -> Self {
        InterscatterError::Ble(e)
    }
}

impl From<BackscatterError> for InterscatterError {
    fn from(e: BackscatterError) -> Self {
        InterscatterError::Backscatter(e)
    }
}

/// High-level configuration of an interscatter deployment.
#[derive(Debug, Clone, Copy)]
pub struct Interscatter {
    /// BLE advertising channel used as the RF source (38 in the paper).
    pub ble_channel: BleChannel,
    /// Advertiser address placed in the crafted advertisements.
    pub advertiser_address: [u8; 6],
    /// Which tone polarity the crafted payload produces.
    pub tone_polarity: TonePolarity,
    /// The packet format the tag synthesizes.
    pub target: TargetPhy,
    /// Sideband architecture of the tag.
    pub sideband: SidebandMode,
    /// Simulation sample rate used when waveforms are generated.
    pub sample_rate: f64,
    /// Frequency shift applied by the tag, Hz.
    pub shift_hz: f64,
}

impl Default for Interscatter {
    /// The paper's prototype configuration: BLE channel 38 shifted by
    /// +35.75 MHz into Wi-Fi channel 11 as a 2 Mbps 802.11b packet, single
    /// sideband.
    fn default() -> Self {
        Interscatter {
            ble_channel: BleChannel::ADV_38,
            advertiser_address: [0x49, 0x53, 0x43, 0x54, 0x52, 0x00], // "ISCTR"
            tone_polarity: TonePolarity::High,
            target: TargetPhy::Wifi(DsssRate::Mbps2),
            sideband: SidebandMode::Single,
            sample_rate: 176e6,
            shift_hz: backscatter::ssb::PROTOTYPE_SHIFT_HZ,
        }
    }
}

impl Interscatter {
    /// A configuration targeting ZigBee channel 14 instead of Wi-Fi
    /// (§4.5 of the paper): the tag shifts the BLE channel 38 tone down by
    /// 6 MHz.
    pub fn zigbee() -> Self {
        Interscatter {
            target: TargetPhy::Zigbee,
            shift_hz: -6e6,
            sample_rate: 88e6,
            ..Default::default()
        }
    }

    /// Builds the BLE advertising packet whose payload section is a single
    /// tone, carrying the given 6-byte advertiser address... the payload
    /// bytes themselves are dictated by the whitening sequence, so the
    /// "content" of this advertisement is fixed; applications identify the
    /// source through the advertiser address.
    pub fn single_tone_advertisement(
        &self,
        advertiser_address: [u8; 6],
    ) -> Result<AdvertisingPacket, InterscatterError> {
        Ok(single_tone_packet(
            self.ble_channel,
            advertiser_address,
            ble::packet::MAX_ADV_DATA_LEN,
            self.tone_polarity,
        )?)
    }

    /// The tag object configured for this deployment.
    pub fn tag(&self) -> Result<InterscatterTag, InterscatterError> {
        let config = TagConfig {
            sample_rate: self.sample_rate,
            shift_hz: self.shift_hz,
            target: self.target,
            sideband: self.sideband,
            guard_interval_s: 4e-6,
        };
        Ok(InterscatterTag::new(config)?)
    }

    /// The reflection-coefficient sequence the tag applies to synthesize a
    /// Wi-Fi/ZigBee packet carrying `payload`.
    pub fn wifi_reflection_sequence(&self, payload: &[u8]) -> Result<Vec<Cplx>, InterscatterError> {
        Ok(self.tag()?.reflection_for_payload(payload)?)
    }

    /// Link-budget estimate of the RSSI a commodity receiver reports, dBm.
    ///
    /// * `ble_tx_power_dbm` — transmit power of the Bluetooth source.
    /// * `source_to_tag_ft` — Bluetooth-to-tag distance in feet.
    /// * `tag_to_rx_ft` — tag-to-receiver distance in feet.
    pub fn uplink_rssi_dbm(
        &self,
        ble_tx_power_dbm: f64,
        source_to_tag_ft: f64,
        tag_to_rx_ft: f64,
    ) -> f64 {
        let mut scenario =
            UplinkScenario::fig10_bench(ble_tx_power_dbm, source_to_tag_ft, tag_to_rx_ft);
        scenario.target = self.target;
        scenario.sideband = self.sideband;
        scenario.rssi_dbm()
    }

    /// The active power the interscatter IC draws while generating packets
    /// at this configuration's rates, watts.
    pub fn ic_power_w(&self) -> f64 {
        let model = backscatter::power::IcPowerModel::tsmc65nm();
        match self.target {
            TargetPhy::Wifi(rate) => {
                model.total_active_w(rate.bits_per_second(), wifi::dot11b::CHIP_RATE)
            }
            TargetPhy::Zigbee => {
                model.total_active_w(zigbee::phy::BIT_RATE, zigbee::oqpsk::CHIP_RATE)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_configuration_matches_the_prototype() {
        let system = Interscatter::default();
        assert_eq!(system.ble_channel, BleChannel::ADV_38);
        assert_eq!(system.target, TargetPhy::Wifi(DsssRate::Mbps2));
        assert_eq!(system.sideband, SidebandMode::Single);
        assert!((system.shift_hz - 35.75e6).abs() < 1.0);
    }

    #[test]
    fn quickstart_pipeline_works() {
        let system = Interscatter::default();
        let advert = system
            .single_tone_advertisement([1, 2, 3, 4, 5, 6])
            .unwrap();
        assert_eq!(advert.adv_data.len(), 31);
        let reflection = system.wifi_reflection_sequence(b"test payload").unwrap();
        assert!(!reflection.is_empty());
        assert!(reflection.iter().all(|g| g.abs() <= 1.0 + 1e-9));
        let rssi = system.uplink_rssi_dbm(10.0, 1.0, 20.0);
        assert!(rssi > -92.0 && rssi < -30.0, "RSSI {rssi}");
    }

    #[test]
    fn zigbee_configuration() {
        let system = Interscatter::zigbee();
        assert_eq!(system.target, TargetPhy::Zigbee);
        assert!(system.shift_hz < 0.0);
        let reflection = system.wifi_reflection_sequence(&[0xAB; 10]).unwrap();
        assert!(!reflection.is_empty());
    }

    #[test]
    fn ic_power_is_tens_of_microwatts() {
        let wifi_power = Interscatter::default().ic_power_w();
        assert!(
            (20e-6..60e-6).contains(&wifi_power),
            "Wi-Fi power {wifi_power}"
        );
        let zigbee_power = Interscatter::zigbee().ic_power_w();
        assert!(zigbee_power < wifi_power);
    }

    #[test]
    fn error_conversion_and_display() {
        let e: InterscatterError = BleError::CrcMismatch.into();
        assert!(e.to_string().contains("BLE"));
        let e: InterscatterError = BackscatterError::NoPacketDetected.into();
        assert!(e.to_string().contains("backscatter"));
    }
}
