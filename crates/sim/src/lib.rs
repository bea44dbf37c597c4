//! # interscatter-sim
//!
//! End-to-end simulations and experiment runners for the Interscatter
//! (SIGCOMM 2016) reproduction.
//!
//! The lower crates provide the pieces — BLE single-tone generation, the
//! single-sideband backscatter tag, the 802.11b/802.11g/802.15.4 PHYs and
//! the RF channel models. This crate assembles them into the scenarios the
//! paper evaluates and regenerates every figure:
//!
//! * [`uplink`] — Bluetooth → tag → Wi-Fi/ZigBee receiver simulations at
//!   both the link-budget level (RSSI sweeps, Fig. 10/14/15/16) and the
//!   waveform level (packet error rate, Fig. 11).
//! * [`downlink`] — 802.11g OFDM AM → envelope detector (BER vs distance,
//!   Fig. 13).
//! * [`mac`] — an event-driven model of a Wi-Fi TCP flow coexisting with
//!   backscatter transmissions, with and without the double-sideband mirror
//!   copy (Fig. 12), plus the CTS-to-Self / RTS reservation optimisations of
//!   §2.3.3.
//! * [`applications`] — the three proof-of-concept applications of §5:
//!   contact lens, neural implant, card-to-card.
//! * [`measurements`] — PER/BER/CDF bookkeeping shared by the experiments.
//! * [`experiments`] — one module per table/figure, each with a `run`
//!   function returning structured rows and a plain-text report; the bench
//!   harness and the `run_experiments` example call these.

pub mod applications;
pub mod downlink;
pub mod experiments;
pub mod mac;
pub mod measurements;
pub mod uplink;

/// Errors produced by the simulation layer.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A scenario parameter was invalid.
    InvalidScenario(&'static str),
    /// An error from the BLE layer.
    Ble(interscatter_ble::BleError),
    /// An error from the Wi-Fi layer.
    Wifi(interscatter_wifi::WifiError),
    /// An error from the ZigBee layer.
    Zigbee(interscatter_zigbee::ZigbeeError),
    /// An error from the backscatter layer.
    Backscatter(interscatter_backscatter::BackscatterError),
    /// An error from the channel layer.
    Channel(interscatter_channel::ChannelError),
    /// An error from the DSP layer.
    Dsp(interscatter_dsp::DspError),
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SimError::InvalidScenario(what) => write!(f, "invalid scenario: {what}"),
            SimError::Ble(e) => write!(f, "BLE error: {e}"),
            SimError::Wifi(e) => write!(f, "Wi-Fi error: {e}"),
            SimError::Zigbee(e) => write!(f, "ZigBee error: {e}"),
            SimError::Backscatter(e) => write!(f, "backscatter error: {e}"),
            SimError::Channel(e) => write!(f, "channel error: {e}"),
            SimError::Dsp(e) => write!(f, "DSP error: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

macro_rules! impl_from {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for SimError {
            fn from(e: $ty) -> Self {
                SimError::$variant(e)
            }
        }
    };
}

impl_from!(Ble, interscatter_ble::BleError);
impl_from!(Wifi, interscatter_wifi::WifiError);
impl_from!(Zigbee, interscatter_zigbee::ZigbeeError);
impl_from!(Backscatter, interscatter_backscatter::BackscatterError);
impl_from!(Channel, interscatter_channel::ChannelError);
impl_from!(Dsp, interscatter_dsp::DspError);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_conversions() {
        assert!(SimError::InvalidScenario("distance")
            .to_string()
            .contains("distance"));
        let e: SimError = interscatter_ble::BleError::CrcMismatch.into();
        assert!(e.to_string().contains("BLE"));
        let e: SimError = interscatter_wifi::WifiError::PreambleNotFound.into();
        assert!(e.to_string().contains("Wi-Fi"));
        let e: SimError = interscatter_zigbee::ZigbeeError::SfdNotFound.into();
        assert!(e.to_string().contains("ZigBee"));
        let e: SimError = interscatter_backscatter::BackscatterError::NoPacketDetected.into();
        assert!(e.to_string().contains("backscatter"));
        let e: SimError = interscatter_channel::ChannelError::InvalidParameter("x").into();
        assert!(e.to_string().contains("channel"));
        let e: SimError = interscatter_dsp::DspError::EmptyInput("x").into();
        assert!(e.to_string().contains("DSP"));
    }
}
