//! # interscatter-wifi
//!
//! 802.11 physical-layer models for the Interscatter (SIGCOMM 2016)
//! reproduction.
//!
//! Two distinct PHYs matter to the paper:
//!
//! * **802.11b (DSSS/CCK)** — the *uplink*. The backscatter tag synthesizes
//!   standards-compliant 1/2/5.5/11 Mbps 802.11b baseband (Barker spreading
//!   for 1–2 Mbps, CCK for 5.5–11 Mbps, DBPSK/DQPSK phase modulation) on top
//!   of the frequency-shifted Bluetooth tone. The [`dot11b`] module contains
//!   the transmitter the tag logic reuses and the receiver the commodity
//!   Wi-Fi card model uses to measure RSSI and packet error rate
//!   (Figures 10 and 11).
//!
//! * **802.11g (OFDM)** — the *downlink*. A commodity OFDM transmitter is
//!   turned into an amplitude modulator by choosing payload bits such that
//!   individual OFDM symbols are either "random" (high envelope) or
//!   "constant" (energy compressed into one time sample). The [`ofdm`]
//!   module implements the full 802.11g encoding chain (scrambler,
//!   convolutional coder, interleaver, QAM mapping, IFFT, cyclic prefix) and
//!   the [`ofdm::am`] sub-module crafts the AM payloads and predicts
//!   scrambler seeds (Figure 13, §4.4).
//!
//! The [`mac`] module supplies the handful of MAC-layer frame formats and
//! timing rules the coexistence evaluation needs (CTS-to-Self, RTS/CTS,
//! DIFS/SIFS timing for the iperf-style throughput model of Figure 12).

pub mod dot11b;
pub mod mac;
pub mod ofdm;

/// Errors produced by the Wi-Fi PHY models.
#[derive(Debug, Clone, PartialEq)]
pub enum WifiError {
    /// Payload exceeds the maximum PSDU size for the selected rate/window.
    PayloadTooLong {
        /// Bytes requested.
        requested: usize,
        /// Maximum allowed.
        max: usize,
    },
    /// The receiver could not find a preamble / start-frame delimiter.
    PreambleNotFound,
    /// A decoded frame failed its CRC check.
    CrcMismatch,
    /// The PLCP or SIGNAL header was invalid.
    InvalidHeader(&'static str),
    /// The requested rate is not supported by the operation.
    UnsupportedRate(&'static str),
    /// The waveform was too short for the requested operation.
    TruncatedWaveform {
        /// Samples available.
        have: usize,
        /// Samples required.
        need: usize,
    },
    /// An underlying DSP error.
    Dsp(interscatter_dsp::DspError),
}

impl core::fmt::Display for WifiError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WifiError::PayloadTooLong { requested, max } => {
                write!(f, "payload of {requested} bytes exceeds maximum of {max}")
            }
            WifiError::PreambleNotFound => write!(f, "no 802.11 preamble found"),
            WifiError::CrcMismatch => write!(f, "frame check sequence mismatch"),
            WifiError::InvalidHeader(what) => write!(f, "invalid header: {what}"),
            WifiError::UnsupportedRate(what) => write!(f, "unsupported rate: {what}"),
            WifiError::TruncatedWaveform { have, need } => {
                write!(f, "waveform truncated: have {have} samples, need {need}")
            }
            WifiError::Dsp(e) => write!(f, "DSP error: {e}"),
        }
    }
}

impl std::error::Error for WifiError {}

impl From<interscatter_dsp::DspError> for WifiError {
    fn from(e: interscatter_dsp::DspError) -> Self {
        WifiError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(WifiError::PayloadTooLong {
            requested: 300,
            max: 209
        }
        .to_string()
        .contains("209"));
        assert!(WifiError::PreambleNotFound.to_string().contains("preamble"));
        assert!(WifiError::CrcMismatch.to_string().contains("check"));
        assert!(WifiError::InvalidHeader("length")
            .to_string()
            .contains("length"));
        assert!(WifiError::UnsupportedRate("1 Mbps")
            .to_string()
            .contains("1 Mbps"));
        assert!(WifiError::TruncatedWaveform { have: 10, need: 20 }
            .to_string()
            .contains("20"));
        let e: WifiError = interscatter_dsp::DspError::EmptyInput("x").into();
        assert!(e.to_string().contains("DSP"));
    }
}
