//! The BLE 2.4 GHz channel map and its relationship to Wi-Fi channels.
//!
//! BLE divides the 2400–2483.5 MHz ISM band into 40 RF channels of 2 MHz.
//! The three *advertising* channels are deliberately placed to dodge the
//! centres of Wi-Fi channels 1, 6 and 11 (paper Fig. 3):
//!
//! * channel 37 at 2402 MHz (below Wi-Fi channel 1),
//! * channel 38 at 2426 MHz (between Wi-Fi channels 1 and 6),
//! * channel 39 at 2480 MHz (above Wi-Fi channel 11).
//!
//! Interscatter backscatters advertisements on channel 38 and shifts them by
//! tens of MHz to land inside Wi-Fi channel 11 (2462 MHz) or ZigBee channel
//! 14 (2420 MHz).

use crate::BleError;
use std::ops::RangeInclusive;

/// A BLE RF channel index (0–39), newtype-wrapped so channel numbers cannot
/// be confused with Wi-Fi channel numbers in the simulation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BleChannel(u8);

/// The three BLE advertising channels.
pub const ADVERTISING_CHANNELS: [BleChannel; 3] = [BleChannel(37), BleChannel(38), BleChannel(39)];

impl BleChannel {
    /// Creates a channel, validating the index.
    pub fn new(index: u8) -> Result<Self, BleError> {
        if index > 39 {
            Err(BleError::InvalidChannel(index))
        } else {
            Ok(BleChannel(index))
        }
    }

    /// Advertising channel 37 (2402 MHz).
    pub const ADV_37: BleChannel = BleChannel(37);
    /// Advertising channel 38 (2426 MHz).
    pub const ADV_38: BleChannel = BleChannel(38);
    /// Advertising channel 39 (2480 MHz).
    pub const ADV_39: BleChannel = BleChannel(39);

    /// The channel index (0–39).
    pub fn index(self) -> u8 {
        self.0
    }

    /// True for the three advertising channels.
    pub fn is_advertising(self) -> bool {
        matches!(self.0, 37..=39)
    }

    /// Centre frequency in Hz.
    ///
    /// Per the Bluetooth Core specification the advertising channels sit at
    /// 2402, 2426 and 2480 MHz; the 37 data channels fill the remaining 2 MHz
    /// slots from 2404 to 2478 MHz.
    pub fn center_freq_hz(self) -> f64 {
        let mhz = match self.0 {
            37 => 2402.0,
            38 => 2426.0,
            39 => 2480.0,
            // Data channels 0..=10 occupy 2404..=2424 MHz,
            // data channels 11..=36 occupy 2428..=2478 MHz.
            d if d <= 10 => 2404.0 + 2.0 * f64::from(d),
            d => 2428.0 + 2.0 * f64::from(d - 11),
        };
        mhz * 1e6
    }

    /// Ensures this channel is an advertising channel.
    pub fn require_advertising(self) -> Result<Self, BleError> {
        if self.is_advertising() {
            Ok(self)
        } else {
            Err(BleError::NotAdvertisingChannel(self.0))
        }
    }
}

/// Channel bandwidth of a BLE channel in Hz (2 MHz grid, ~1 MHz occupied for
/// 1 Mbit/s GFSK).
pub const BLE_CHANNEL_BANDWIDTH_HZ: f64 = 2e6;

/// Frequency deviation of the BLE GFSK modulation: a `1` bit is ~+250 kHz,
/// a `0` bit is ~−250 kHz from the carrier.
pub const BLE_FREQ_DEVIATION_HZ: f64 = 250e3;

/// BLE LE 1M PHY symbol (bit) rate in bits per second.
pub const BLE_BIT_RATE: f64 = 1e6;

/// The IEEE 802.11b/g channels [`wifi_channel_freq_hz`] accepts.
pub const WIFI_CHANNELS: RangeInclusive<u8> = 1..=13;

/// The IEEE 802.15.4 (ZigBee) 2.4 GHz channels [`zigbee_channel_freq_hz`]
/// accepts.
pub const ZIGBEE_CHANNELS: RangeInclusive<u8> = 11..=26;

/// Centre frequency in Hz of an IEEE 802.11b/g channel (1–13).
pub fn wifi_channel_freq_hz(channel: u8) -> f64 {
    assert!(
        WIFI_CHANNELS.contains(&channel),
        "Wi-Fi channel must be 1..=13"
    );
    (2407.0 + 5.0 * f64::from(channel)) * 1e6
}

/// Centre frequency in Hz of an IEEE 802.15.4 (ZigBee) 2.4 GHz channel
/// (11–26).
pub fn zigbee_channel_freq_hz(channel: u8) -> f64 {
    assert!(
        ZIGBEE_CHANNELS.contains(&channel),
        "ZigBee channel must be 11..=26"
    );
    (2405.0 + 5.0 * f64::from(channel - 11)) * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advertising_channel_frequencies_match_the_spec() {
        assert_eq!(BleChannel::ADV_37.center_freq_hz(), 2402e6);
        assert_eq!(BleChannel::ADV_38.center_freq_hz(), 2426e6);
        assert_eq!(BleChannel::ADV_39.center_freq_hz(), 2480e6);
        for ch in ADVERTISING_CHANNELS {
            assert!(ch.is_advertising());
            assert!(ch.require_advertising().is_ok());
        }
    }

    #[test]
    fn data_channel_frequencies_fill_the_band() {
        assert_eq!(BleChannel::new(0).unwrap().center_freq_hz(), 2404e6);
        assert_eq!(BleChannel::new(10).unwrap().center_freq_hz(), 2424e6);
        assert_eq!(BleChannel::new(11).unwrap().center_freq_hz(), 2428e6);
        assert_eq!(BleChannel::new(36).unwrap().center_freq_hz(), 2478e6);
        assert!(!BleChannel::new(5).unwrap().is_advertising());
        assert!(BleChannel::new(5).unwrap().require_advertising().is_err());
    }

    #[test]
    fn all_channels_are_distinct_frequencies() {
        let mut freqs: Vec<f64> = (0..=39)
            .map(|i| BleChannel::new(i).unwrap().center_freq_hz())
            .collect();
        freqs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for w in freqs.windows(2) {
            assert!(
                w[1] - w[0] >= 2e6 - 1.0,
                "channels closer than 2 MHz: {w:?}"
            );
        }
    }

    #[test]
    fn invalid_channel_is_rejected() {
        assert_eq!(
            BleChannel::new(40).unwrap_err(),
            BleError::InvalidChannel(40)
        );
    }

    #[test]
    fn wifi_channel_frequencies() {
        assert_eq!(wifi_channel_freq_hz(1), 2412e6);
        assert_eq!(wifi_channel_freq_hz(6), 2437e6);
        assert_eq!(wifi_channel_freq_hz(11), 2462e6);
    }

    #[test]
    fn zigbee_channel_frequencies() {
        assert_eq!(zigbee_channel_freq_hz(11), 2405e6);
        // The paper's ZigBee experiment uses channel 14 at 2.420 GHz.
        assert_eq!(zigbee_channel_freq_hz(14), 2420e6);
        assert_eq!(zigbee_channel_freq_hz(26), 2480e6);
    }

    #[test]
    fn paper_fig3_geometry_offsets() {
        // The offsets the paper exploits: BLE 38 -> Wi-Fi 11 is +36 MHz,
        // BLE 38 -> ZigBee 14 is -6 MHz; the prototype uses a 35.75 MHz shift
        // to sit just inside Wi-Fi channel 11's 22 MHz bandwidth.
        let d_wifi = wifi_channel_freq_hz(11) - BleChannel::ADV_38.center_freq_hz();
        assert_eq!(d_wifi, 36e6);
        let d_zig = zigbee_channel_freq_hz(14) - BleChannel::ADV_38.center_freq_hz();
        assert_eq!(d_zig, -6e6);
    }

    #[test]
    #[should_panic(expected = "Wi-Fi channel")]
    fn wifi_channel_out_of_range_panics() {
        let _ = wifi_channel_freq_hz(14);
    }

    #[test]
    #[should_panic(expected = "ZigBee channel")]
    fn zigbee_channel_out_of_range_panics() {
        let _ = zigbee_channel_freq_hz(27);
    }
}
