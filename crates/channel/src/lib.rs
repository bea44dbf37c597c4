//! # interscatter-channel
//!
//! RF propagation substrate for the Interscatter reproduction.
//!
//! The paper's evaluation is a set of over-the-air range experiments:
//! Wi-Fi RSSI versus distance (Fig. 10), packet error rate across the
//! observed RSSI range (Fig. 11), ZigBee RSSI at several locations
//! (Fig. 14), and the in-vitro contact-lens / neural-implant / card-to-card
//! experiments (Figs. 15–17). Reproducing the *shape* of those results needs
//! an explicit link-budget model, which this crate provides:
//!
//! * [`pathloss`] — free-space (Friis) and log-distance path-loss models
//!   with shadowing, parameterised per environment.
//! * [`noise`] — thermal noise, receiver noise figure, and AWGN injection.
//! * [`tissue`] — attenuation of 2.4 GHz signals in biological tissue and
//!   saline, used by the implant and contact-lens scenarios.
//! * [`antenna`] — antenna models: the 2 dBi monopoles of the bench
//!   experiments and the electrically small loop antennas of the lens and
//!   implant prototypes (with efficiency and detuning penalties).
//! * [`link`] — the backscatter link budget: transmitter → tag → receiver,
//!   combining both hops, the tag's conversion loss, and the resulting RSSI
//!   and SNR at the receiver.

pub mod antenna;
pub mod link;
pub mod noise;
pub mod pathloss;
pub mod tissue;

/// Errors produced by the channel layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelError {
    /// A geometric or model parameter was out of range.
    InvalidParameter(&'static str),
}

impl core::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChannelError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
        }
    }
}

impl std::error::Error for ChannelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ChannelError::InvalidParameter("distance")
            .to_string()
            .contains("distance"));
    }
}
