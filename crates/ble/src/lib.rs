//! # interscatter-ble
//!
//! A Bluetooth Low Energy transmitter/receiver model for the Interscatter
//! (SIGCOMM 2016) reproduction. Interscatter uses a commodity BLE device as
//! the RF *source* for backscatter: by choosing the advertising payload bits
//! carefully, the whitened on-air bit stream becomes constant, and the GFSK
//! modulator then emits a single frequency tone (§2.2 of the paper). The tag
//! backscatters that tone into an 802.11b or ZigBee packet.
//!
//! This crate models the pieces of BLE that matter for that trick:
//!
//! * [`channels`] — the 2.4 GHz channel map and the three advertising
//!   channels (37/38/39) straddling the Wi-Fi channels (paper Fig. 3).
//! * [`packet`] — advertising-PDU framing: preamble, access address, header,
//!   advertiser address, payload and CRC-24, with BLE data whitening.
//! * [`gfsk`] — the GFSK modulator (1 Mbit/s, BT = 0.5, ±250 kHz deviation)
//!   and an FM-discriminator demodulator used to validate round trips.
//! * [`single_tone`] — computing the payload bytes that turn the whitened
//!   payload section into a run of identical bits, plus verification helpers.
//! * [`device`] — impairment profiles for the three devices evaluated in the
//!   paper (TI CC2650, Samsung Galaxy S5, Moto 360 2nd gen): transmit power,
//!   carrier-frequency offset and phase-noise level.
//! * [`timing`] — advertising-packet timing used by the tag's state machine
//!   (56 µs of preamble+address+header, up to 248 µs of payload, the 4 µs
//!   guard interval).

pub mod channels;
pub mod device;
pub mod gfsk;
pub mod packet;
pub mod single_tone;
pub mod timing;

/// Errors produced by the BLE layer.
#[derive(Debug, Clone, PartialEq)]
pub enum BleError {
    /// Payload longer than the 31 bytes an advertising PDU can carry.
    PayloadTooLong {
        /// Bytes requested.
        requested: usize,
        /// Maximum allowed (31).
        max: usize,
    },
    /// The requested channel index is not a valid BLE RF channel (0–39).
    InvalidChannel(u8),
    /// The requested channel is not one of the three advertising channels.
    NotAdvertisingChannel(u8),
    /// A received packet failed CRC validation.
    CrcMismatch,
    /// A received waveform was too short to contain the requested structure.
    TruncatedWaveform {
        /// Samples available.
        have: usize,
        /// Samples needed.
        need: usize,
    },
    /// An underlying DSP error (filter/FFT misconfiguration).
    Dsp(interscatter_dsp::DspError),
}

impl core::fmt::Display for BleError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BleError::PayloadTooLong { requested, max } => {
                write!(
                    f,
                    "advertising payload of {requested} bytes exceeds the {max}-byte limit"
                )
            }
            BleError::InvalidChannel(c) => write!(f, "invalid BLE RF channel {c}"),
            BleError::NotAdvertisingChannel(c) => {
                write!(
                    f,
                    "BLE channel {c} is not an advertising channel (37/38/39)"
                )
            }
            BleError::CrcMismatch => write!(f, "BLE CRC-24 mismatch"),
            BleError::TruncatedWaveform { have, need } => {
                write!(f, "waveform truncated: have {have} samples, need {need}")
            }
            BleError::Dsp(e) => write!(f, "DSP error: {e}"),
        }
    }
}

impl std::error::Error for BleError {}

impl From<interscatter_dsp::DspError> for BleError {
    fn from(e: interscatter_dsp::DspError) -> Self {
        BleError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_mention_key_fields() {
        let e = BleError::PayloadTooLong {
            requested: 40,
            max: 31,
        };
        assert!(e.to_string().contains("40") && e.to_string().contains("31"));
        assert!(BleError::InvalidChannel(99).to_string().contains("99"));
        assert!(BleError::NotAdvertisingChannel(12)
            .to_string()
            .contains("12"));
        assert!(BleError::CrcMismatch.to_string().contains("CRC"));
        let e = BleError::TruncatedWaveform { have: 1, need: 2 };
        assert!(e.to_string().contains('1') && e.to_string().contains('2'));
        let e: BleError = interscatter_dsp::DspError::EmptyInput("x").into();
        assert!(e.to_string().contains("DSP"));
    }
}
