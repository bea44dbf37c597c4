//! # interscatter-backscatter
//!
//! The backscatter tag model — the primary contribution of the Interscatter
//! paper (SIGCOMM 2016) — plus its baselines and supporting hardware models.
//!
//! A backscatter tag does not generate RF; it modulates how much of an
//! incident carrier its antenna reflects by switching the impedance
//! terminating the antenna. The paper's three hardware-level ideas live
//! here:
//!
//! * [`impedance`] — the reflection-coefficient model
//!   Γ = (Za − Zc)/(Za + Zc) and the four complex impedance states
//!   (3 pF, open, 1 pF, 2 nH at 2.4 GHz) that realise the values
//!   {1+j, 1−j, −1+j, −1−j} needed for single-sideband modulation.
//! * [`ssb`] — the single-sideband backscatter modulator: square-wave
//!   approximations of cos/sin at the shift frequency Δf drive the complex
//!   reflection coefficient so the incident tone is shifted to `f + Δf`
//!   *without* the mirror image at `f − Δf` (§2.3.1), and the baseband
//!   802.11b/ZigBee symbols are multiplied in on top (§2.3.2).
//! * [`dsb`] — the conventional double-sideband modulator used as the
//!   baseline in Figures 6 and 12.
//! * [`tag`] — the tag state machine: envelope-detect the Bluetooth packet,
//!   wait out the header plus a guard interval, backscatter the synthesized
//!   packet, stop before the Bluetooth CRC (§2.2/§2.3.3).
//! * [`envelope`] — the passive envelope-detector receiver used both for
//!   packet detection and for the OFDM AM downlink (§2.4), with the −32 dBm
//!   sensitivity measured in §4.4.
//! * [`power`] — the 65 nm IC power model reproducing the 28 µW budget of
//!   §3 and the comparison against active radios.
//! * [`clocks`] — the frequency-synthesizer plan (143 MHz PLL divided to
//!   11 MHz baseband and four phases of 35.75 MHz).

pub mod clocks;
pub mod dsb;
pub mod envelope;
pub mod impedance;
pub mod power;
pub mod ssb;
pub mod tag;

/// Errors produced by the backscatter layer.
#[derive(Debug, Clone, PartialEq)]
pub enum BackscatterError {
    /// The requested configuration is inconsistent (sample rates, shift
    /// frequency, window sizes...).
    InvalidConfig(&'static str),
    /// The incident carrier waveform is too short for the requested
    /// backscatter operation.
    CarrierTooShort {
        /// Samples available.
        have: usize,
        /// Samples needed.
        need: usize,
    },
    /// No Bluetooth packet was detected by the envelope detector.
    NoPacketDetected,
    /// An error bubbled up from the Wi-Fi PHY used to synthesize the packet.
    Wifi(interscatter_wifi::WifiError),
    /// An error bubbled up from the ZigBee PHY used to synthesize the packet.
    Zigbee(interscatter_zigbee::ZigbeeError),
    /// An underlying DSP error.
    Dsp(interscatter_dsp::DspError),
}

impl core::fmt::Display for BackscatterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BackscatterError::InvalidConfig(what) => write!(f, "invalid configuration: {what}"),
            BackscatterError::CarrierTooShort { have, need } => {
                write!(
                    f,
                    "incident carrier too short: have {have} samples, need {need}"
                )
            }
            BackscatterError::NoPacketDetected => write!(f, "no Bluetooth packet detected"),
            BackscatterError::Wifi(e) => write!(f, "Wi-Fi PHY error: {e}"),
            BackscatterError::Zigbee(e) => write!(f, "ZigBee PHY error: {e}"),
            BackscatterError::Dsp(e) => write!(f, "DSP error: {e}"),
        }
    }
}

impl std::error::Error for BackscatterError {}

impl From<interscatter_dsp::DspError> for BackscatterError {
    fn from(e: interscatter_dsp::DspError) -> Self {
        BackscatterError::Dsp(e)
    }
}

impl From<interscatter_wifi::WifiError> for BackscatterError {
    fn from(e: interscatter_wifi::WifiError) -> Self {
        BackscatterError::Wifi(e)
    }
}

impl From<interscatter_zigbee::ZigbeeError> for BackscatterError {
    fn from(e: interscatter_zigbee::ZigbeeError) -> Self {
        BackscatterError::Zigbee(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(BackscatterError::InvalidConfig("shift")
            .to_string()
            .contains("shift"));
        assert!(BackscatterError::CarrierTooShort { have: 1, need: 2 }
            .to_string()
            .contains('2'));
        assert!(BackscatterError::NoPacketDetected
            .to_string()
            .contains("Bluetooth"));
        let e: BackscatterError = interscatter_dsp::DspError::EmptyInput("x").into();
        assert!(e.to_string().contains("DSP"));
        let e: BackscatterError = interscatter_wifi::WifiError::PreambleNotFound.into();
        assert!(e.to_string().contains("Wi-Fi"));
        let e: BackscatterError = interscatter_zigbee::ZigbeeError::SfdNotFound.into();
        assert!(e.to_string().contains("ZigBee"));
    }
}
