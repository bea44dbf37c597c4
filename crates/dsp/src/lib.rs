//! # interscatter-dsp
//!
//! Digital-signal-processing substrate for the Interscatter (SIGCOMM 2016)
//! reproduction. All of the physical layers in the workspace (Bluetooth LE
//! GFSK, 802.11b DSSS/CCK, 802.11g OFDM, 802.15.4 O-QPSK) and the backscatter
//! tag model are expressed as operations on discrete-time complex-baseband
//! sample streams. This crate provides those primitives:
//!
//! * [`Cplx`] — a small `f64` complex number type with the arithmetic the
//!   PHY layers need (the workspace deliberately avoids external numeric
//!   crates so the whole pipeline is auditable).
//! * [`fft`] — radix-2 FFT/IFFT used by the OFDM modulator and the spectrum
//!   estimators.
//! * [`filter`] — windowed-sinc FIR design, filtering, and rational
//!   resampling.
//! * [`gaussian`] — the Gaussian pulse-shaping filter used by BLE GFSK.
//! * [`spectrum`] — periodogram / Welch power-spectral-density estimation in
//!   dBm, used to regenerate the spectra of Figures 6 and 9.
//! * [`iq`] — sample-buffer utilities: frequency shifting (mixing), power and
//!   RSSI measurement, normalisation.
//! * [`crc`], [`lfsr`], [`bits`] — the bit-domain helpers shared by every
//!   802.x framing implementation (CRC-24/16/32, the x^7+x^4+1 whitening and
//!   scrambling register, LSB/MSB bit packing).
//! * [`constellation`] — PSK/QAM mapping used by the OFDM downlink.
//! * [`units`] — dB / dBm / distance conversions so link-budget code never
//!   mixes linear and logarithmic quantities silently.
//!
//! Everything is deterministic: functions that need randomness take an
//! explicit [`rand::Rng`](https://docs.rs/rand).

pub mod bits;
pub mod complex;
pub mod constellation;
pub mod correlate;
pub mod crc;
pub mod fft;
pub mod filter;
pub mod gaussian;
pub mod iq;
pub mod lfsr;
pub mod spectrum;
pub mod units;
pub mod window;

pub use complex::Cplx;

/// Crate-wide error type for DSP primitives.
///
/// The DSP layer is almost entirely infallible by construction, but a few
/// operations (FFT on a non-power-of-two length, filter design with an
/// invalid cutoff) need a structured error instead of a panic so that the
/// higher layers can surface configuration mistakes cleanly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DspError {
    /// FFT length was not a power of two (or zero).
    InvalidFftLength(usize),
    /// A filter design parameter was out of range (cutoff, number of taps...).
    InvalidFilterSpec(&'static str),
    /// A resampling ratio was invalid (zero numerator or denominator).
    InvalidResampleRatio {
        /// Upsampling factor requested.
        up: usize,
        /// Downsampling factor requested.
        down: usize,
    },
    /// Input buffer was empty where at least one sample is required.
    EmptyInput(&'static str),
    /// Mismatched lengths between two buffers that must agree.
    LengthMismatch {
        /// Length of the first operand.
        left: usize,
        /// Length of the second operand.
        right: usize,
    },
}

impl core::fmt::Display for DspError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DspError::InvalidFftLength(n) => {
                write!(f, "FFT length {n} is not a non-zero power of two")
            }
            DspError::InvalidFilterSpec(what) => write!(f, "invalid filter specification: {what}"),
            DspError::InvalidResampleRatio { up, down } => {
                write!(f, "invalid resample ratio {up}/{down}")
            }
            DspError::EmptyInput(what) => write!(f, "empty input: {what}"),
            DspError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for DspError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_informative() {
        let e = DspError::InvalidFftLength(3);
        assert!(e.to_string().contains('3'));
        let e = DspError::LengthMismatch { left: 4, right: 8 };
        assert!(e.to_string().contains('4') && e.to_string().contains('8'));
        let e = DspError::InvalidResampleRatio { up: 0, down: 2 };
        assert!(e.to_string().contains("0/2"));
        let e = DspError::EmptyInput("samples");
        assert!(e.to_string().contains("samples"));
        let e = DspError::InvalidFilterSpec("cutoff");
        assert!(e.to_string().contains("cutoff"));
    }
}
