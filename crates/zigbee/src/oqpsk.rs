//! Offset-QPSK half-sine modulation for the 802.15.4 2.4 GHz PHY.
//!
//! Chips are split alternately onto the I and Q rails (even-indexed chips on
//! I, odd on Q), each chip is shaped with a half-sine pulse lasting two chip
//! periods, and the Q rail is delayed by one chip period. The result is a
//! constant-envelope waveform (equivalent to MSK), which is why the paper
//! can synthesize it with the same impedance-switching backscatter hardware
//! it uses for 802.11b.

use crate::ZigbeeError;
use interscatter_dsp::Cplx;

/// 802.15.4 2.4 GHz chip rate: 2 Mchip/s.
pub const CHIP_RATE: f64 = 2e6;

/// O-QPSK modulator/demodulator configuration.
#[derive(Debug, Clone, Copy)]
pub struct OqpskConfig {
    /// Output sample rate (must be an integer multiple of the chip rate,
    /// at least 2 samples per chip).
    pub sample_rate: f64,
}

impl Default for OqpskConfig {
    fn default() -> Self {
        OqpskConfig { sample_rate: 8e6 }
    }
}

impl OqpskConfig {
    /// Samples per chip.
    pub fn samples_per_chip(&self) -> usize {
        (self.sample_rate / CHIP_RATE).round() as usize
    }

    /// Validates the configuration.
    pub fn validate(&self) -> Result<(), ZigbeeError> {
        let spc = self.sample_rate / CHIP_RATE;
        if spc < 2.0 || (spc - spc.round()).abs() > 1e-9 {
            return Err(ZigbeeError::Dsp(
                interscatter_dsp::DspError::InvalidFilterSpec(
                    "sample_rate must be an integer multiple (>=2) of the 2 Mchip/s chip rate",
                ),
            ));
        }
        Ok(())
    }
}

/// Modulates a binary chip stream into O-QPSK half-sine baseband samples.
///
/// The chip count should be even (the 802.15.4 spreading always produces a
/// multiple of 32); an odd final chip is treated as if followed by a zero.
pub fn modulate(chips: &[u8], config: OqpskConfig) -> Result<Vec<Cplx>, ZigbeeError> {
    config.validate()?;
    let spc = config.samples_per_chip();
    if chips.is_empty() {
        return Ok(Vec::new());
    }
    // Each rail gets one chip per 2 chip-periods; the half-sine pulse spans
    // 2 chip-periods (2*spc samples). Total duration: (chips + 1) chip
    // periods to account for the Q-rail offset tail.
    let total = (chips.len() + 2) * spc;
    let mut i_rail = vec![0.0f64; total];
    let mut q_rail = vec![0.0f64; total];
    // The half-sine pulse, sampled once: `t` runs 0..1 over its 2*spc
    // samples.
    let pulse: Vec<f64> = (0..2 * spc)
        .map(|s| {
            let t = s as f64 / (2 * spc) as f64;
            (std::f64::consts::PI * t).sin()
        })
        .collect();
    for (idx, &chip) in chips.iter().enumerate() {
        let level = if chip & 1 == 1 { 1.0 } else { -1.0 };
        let target = if idx % 2 == 0 {
            &mut i_rail
        } else {
            &mut q_rail
        };
        // The pulse for chip `idx` starts at sample idx*spc on its rail
        // (the Q rail's one-chip delay falls out naturally because odd
        // indices start one chip period later).
        let start = idx * spc;
        let end = (start + pulse.len()).min(total);
        for (sample, p) in target[start..end].iter_mut().zip(&pulse) {
            *sample += level * p;
        }
    }
    Ok(i_rail
        .into_iter()
        .zip(q_rail)
        .map(|(i, q)| Cplx::new(i, q) * std::f64::consts::FRAC_1_SQRT_2)
        .collect())
}

/// Demodulates O-QPSK samples back into hard chip decisions by sampling each
/// rail at its pulse centre. The waveform must start at the first chip (the
/// frame layer handles SFD alignment).
pub fn demodulate(
    samples: &[Cplx],
    num_chips: usize,
    config: OqpskConfig,
) -> Result<Vec<u8>, ZigbeeError> {
    config.validate()?;
    let spc = config.samples_per_chip();
    let mut chips = Vec::with_capacity(num_chips);
    for idx in 0..num_chips {
        // Pulse centre for chip idx is at idx*spc + spc (middle of its
        // 2-chip-period half-sine).
        let centre = idx * spc + spc;
        if centre >= samples.len() {
            return Err(ZigbeeError::TruncatedWaveform {
                have: samples.len(),
                need: centre + 1,
            });
        }
        let value = if idx % 2 == 0 {
            samples[centre].re
        } else {
            samples[centre].im
        };
        chips.push(u8::from(value >= 0.0));
    }
    Ok(chips)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn config_validation() {
        assert!(OqpskConfig::default().validate().is_ok());
        assert!(OqpskConfig { sample_rate: 3e6 }.validate().is_err());
        assert!(OqpskConfig { sample_rate: 2e6 }.validate().is_err());
        assert_eq!(OqpskConfig { sample_rate: 8e6 }.samples_per_chip(), 4);
    }

    #[test]
    fn round_trip_random_chips() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let chips: Vec<u8> = (0..256).map(|_| rng.gen_range(0..=1u8)).collect();
        let cfg = OqpskConfig::default();
        let wave = modulate(&chips, cfg).unwrap();
        let back = demodulate(&wave, chips.len(), cfg).unwrap();
        assert_eq!(back, chips);
    }

    #[test]
    fn envelope_is_nearly_constant() {
        // O-QPSK with half-sine pulses is MSK-like: after the initial ramp-up
        // the envelope stays near 1/sqrt(2)·sqrt(I²+Q²) ≈ constant.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let chips: Vec<u8> = (0..200).map(|_| rng.gen_range(0..=1u8)).collect();
        let cfg = OqpskConfig { sample_rate: 16e6 };
        let wave = modulate(&chips, cfg).unwrap();
        let spc = cfg.samples_per_chip();
        let steady = &wave[2 * spc..wave.len() - 4 * spc];
        let mean: f64 = steady.iter().map(|s| s.abs()).sum::<f64>() / steady.len() as f64;
        for s in steady {
            assert!(
                (s.abs() - mean).abs() < 0.35 * mean,
                "envelope ripple too large: {} vs mean {mean}",
                s.abs()
            );
        }
    }

    #[test]
    fn empty_and_truncated_inputs() {
        let cfg = OqpskConfig::default();
        assert!(modulate(&[], cfg).unwrap().is_empty());
        let wave = modulate(&[1, 0, 1, 1], cfg).unwrap();
        assert!(matches!(
            demodulate(&wave[..4], 4, cfg),
            Err(ZigbeeError::TruncatedWaveform { .. })
        ));
    }

    #[test]
    fn q_rail_is_offset_from_i_rail() {
        // With a single chip on each rail, the I pulse peaks one chip period
        // before the Q pulse.
        let cfg = OqpskConfig { sample_rate: 8e6 };
        let wave = modulate(&[1, 1], cfg).unwrap();
        let spc = cfg.samples_per_chip();
        let i_peak = (0..wave.len())
            .max_by(|&a, &b| wave[a].re.partial_cmp(&wave[b].re).unwrap())
            .unwrap();
        let q_peak = (0..wave.len())
            .max_by(|&a, &b| wave[a].im.partial_cmp(&wave[b].im).unwrap())
            .unwrap();
        assert_eq!(q_peak as i64 - i_peak as i64, spc as i64);
    }
}
