//! # interscatter-zigbee
//!
//! An IEEE 802.15.4 (ZigBee) 2.4 GHz physical-layer model for the
//! Interscatter reproduction.
//!
//! §4.5 of the paper demonstrates that the same single-sideband backscatter
//! technique that synthesizes 802.11b can also synthesize ZigBee: the
//! 802.15.4 O-QPSK PHY is — like 802.11b — a constant-envelope,
//! phase-modulated DSSS waveform, so it too can be produced by switching
//! between the tag's four complex impedance states. The paper backscatters a
//! Bluetooth advertisement on BLE channel 38 into a ZigBee packet on ZigBee
//! channel 14 (2.420 GHz, a −6 MHz shift) and receives it on a TI CC2531.
//!
//! Modules:
//!
//! * [`chips`] — the 16 × 32-chip pseudo-noise sequences that spread each
//!   4-bit symbol.
//! * [`oqpsk`] — offset-QPSK half-sine modulation and demodulation at
//!   2 Mchip/s.
//! * [`frame`] — PPDU framing: preamble, SFD, length, payload, CRC-16 FCS.
//! * [`phy`] — the complete transmitter and receiver plus rate/timing
//!   constants (250 kbps, 5 MHz channels).

pub mod chips;
pub mod frame;
pub mod oqpsk;
pub mod phy;

pub use phy::{ZigbeeReceiver, ZigbeeTransmitter};

/// Errors produced by the ZigBee PHY model.
#[derive(Debug, Clone, PartialEq)]
pub enum ZigbeeError {
    /// Payload exceeds the 127-byte maximum PSDU size (or the 125-byte MAC
    /// payload once the FCS is counted).
    PayloadTooLong {
        /// Bytes requested.
        requested: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// No preamble / start-of-frame delimiter was found.
    SfdNotFound,
    /// The frame check sequence did not validate.
    FcsMismatch,
    /// The waveform was shorter than the structure it should contain.
    TruncatedWaveform {
        /// Samples available.
        have: usize,
        /// Samples needed.
        need: usize,
    },
    /// An underlying DSP error.
    Dsp(interscatter_dsp::DspError),
}

impl core::fmt::Display for ZigbeeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ZigbeeError::PayloadTooLong { requested, max } => {
                write!(
                    f,
                    "PSDU of {requested} bytes exceeds the {max}-byte maximum"
                )
            }
            ZigbeeError::SfdNotFound => write!(f, "no 802.15.4 SFD found"),
            ZigbeeError::FcsMismatch => write!(f, "802.15.4 FCS mismatch"),
            ZigbeeError::TruncatedWaveform { have, need } => {
                write!(f, "waveform truncated: have {have} samples, need {need}")
            }
            ZigbeeError::Dsp(e) => write!(f, "DSP error: {e}"),
        }
    }
}

impl std::error::Error for ZigbeeError {}

impl From<interscatter_dsp::DspError> for ZigbeeError {
    fn from(e: interscatter_dsp::DspError) -> Self {
        ZigbeeError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ZigbeeError::PayloadTooLong {
            requested: 200,
            max: 127
        }
        .to_string()
        .contains("127"));
        assert!(ZigbeeError::SfdNotFound.to_string().contains("SFD"));
        assert!(ZigbeeError::FcsMismatch.to_string().contains("FCS"));
        assert!(ZigbeeError::TruncatedWaveform { have: 5, need: 9 }
            .to_string()
            .contains('9'));
        let e: ZigbeeError = interscatter_dsp::DspError::EmptyInput("x").into();
        assert!(e.to_string().contains("DSP"));
    }
}
