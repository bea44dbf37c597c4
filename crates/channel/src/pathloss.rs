//! Path-loss models.
//!
//! The bench experiments of the paper (Figs. 10–14) happen indoors at ranges
//! of a few feet to ~90 feet. The simulation uses a log-distance path-loss
//! model with a free-space (Friis) reference at 1 m and a configurable
//! exponent: 2.0 reproduces free space, ~2.2–2.6 reproduces typical
//! line-of-sight indoor links, and lognormal shadowing adds the
//! location-to-location variation visible in the paper's scatter of RSSI
//! points.

use crate::ChannelError;
use interscatter_dsp::units::{ratio_to_db, wavelength, SPEED_OF_LIGHT};
use rand::Rng;

/// Free-space (Friis) path loss in dB at `distance_m` metres and carrier
/// frequency `freq_hz`. Distances below 1 cm are clamped to 1 cm so the
/// near-field singularity cannot produce gains.
pub fn friis_db(distance_m: f64, freq_hz: f64) -> f64 {
    let d = distance_m.max(0.01);
    let lambda = wavelength(freq_hz);
    ratio_to_db((4.0 * std::f64::consts::PI * d / lambda).powi(2))
}

/// A log-distance path-loss model with optional lognormal shadowing.
#[derive(Debug, Clone, Copy)]
pub struct LogDistanceModel {
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Path-loss exponent (2.0 = free space, 2.2–2.6 indoor line of sight,
    /// 3+ through obstructions).
    pub exponent: f64,
    /// Reference distance, metres (the Friis model is used up to this
    /// distance).
    pub reference_m: f64,
    /// Standard deviation of the lognormal shadowing term, dB.
    pub shadowing_sigma_db: f64,
}

impl LogDistanceModel {
    /// Free-space propagation at the given frequency.
    pub fn free_space(freq_hz: f64) -> Self {
        LogDistanceModel {
            freq_hz,
            exponent: 2.0,
            reference_m: 1.0,
            shadowing_sigma_db: 0.0,
        }
    }

    /// A line-of-sight indoor model at the given frequency (exponent 2.3,
    /// 2 dB shadowing), matching the office/lab settings of the paper's
    /// experiments.
    pub fn indoor_los(freq_hz: f64) -> Self {
        LogDistanceModel {
            freq_hz,
            exponent: 2.3,
            reference_m: 1.0,
            shadowing_sigma_db: 2.0,
        }
    }

    /// Validates the parameters.
    pub fn validate(&self) -> Result<(), ChannelError> {
        if self.freq_hz <= 0.0 {
            return Err(ChannelError::InvalidParameter("frequency must be positive"));
        }
        if self.exponent < 1.0 || self.exponent > 6.0 {
            return Err(ChannelError::InvalidParameter(
                "path-loss exponent must be in [1, 6]",
            ));
        }
        if self.reference_m <= 0.0 {
            return Err(ChannelError::InvalidParameter(
                "reference distance must be positive",
            ));
        }
        if self.shadowing_sigma_db < 0.0 {
            return Err(ChannelError::InvalidParameter(
                "shadowing sigma must be non-negative",
            ));
        }
        Ok(())
    }

    /// Median (no shadowing) path loss in dB at `distance_m`.
    pub fn path_loss_db(&self, distance_m: f64) -> f64 {
        let d = distance_m.max(0.01);
        if d <= self.reference_m {
            friis_db(d, self.freq_hz)
        } else {
            friis_db(self.reference_m, self.freq_hz)
                + 10.0 * self.exponent * (d / self.reference_m).log10()
        }
    }

    /// Path loss with a lognormal shadowing draw from `rng`.
    pub fn path_loss_shadowed_db<R: Rng>(&self, distance_m: f64, rng: &mut R) -> f64 {
        self.path_loss_db(distance_m) + gaussian(rng) * self.shadowing_sigma_db
    }

    /// Amplitude gain (≤ 1) corresponding to the median path loss — the
    /// factor applied to IQ samples traversing this link.
    pub fn amplitude_gain(&self, distance_m: f64) -> f64 {
        interscatter_dsp::units::db_to_amplitude(-self.path_loss_db(distance_m))
    }
}

/// A standard-normal draw using the Box–Muller transform (kept local so the
/// crate only needs the `rand` core traits).
///
/// This is the scalar draw for shadowing and other one-off normals; it
/// keeps the cosine half of the pair only. Waveform noise
/// ([`crate::noise::NoiseModel::add_noise_in_place`]) uses both halves of
/// one pair per complex sample instead.
pub fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Propagation delay in seconds over `distance_m`.
pub fn propagation_delay_s(distance_m: f64) -> f64 {
    distance_m / SPEED_OF_LIGHT
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn friis_known_values() {
        // At 2.45 GHz and 1 m, free-space loss is ~40.2 dB.
        let pl = friis_db(1.0, 2.45e9);
        assert!((pl - 40.2).abs() < 0.3, "1 m Friis loss {pl}");
        // Doubling the distance adds 6 dB.
        assert!((friis_db(2.0, 2.45e9) - pl - 6.02).abs() < 0.05);
        // Clamping below 1 cm.
        assert_eq!(friis_db(0.0, 2.45e9), friis_db(0.001, 2.45e9));
    }

    #[test]
    fn log_distance_reduces_to_friis_in_free_space() {
        let model = LogDistanceModel::free_space(2.45e9);
        for &d in &[0.5, 1.0, 3.0, 10.0, 30.0] {
            assert!(
                (model.path_loss_db(d) - friis_db(d, 2.45e9)).abs() < 1e-9,
                "distance {d}"
            );
        }
    }

    #[test]
    fn indoor_model_loses_more_than_free_space_beyond_reference() {
        let fs = LogDistanceModel::free_space(2.45e9);
        let indoor = LogDistanceModel::indoor_los(2.45e9);
        assert!(indoor.path_loss_db(10.0) > fs.path_loss_db(10.0));
        assert!((indoor.path_loss_db(1.0) - fs.path_loss_db(1.0)).abs() < 1e-9);
        assert!(indoor.validate().is_ok());
    }

    #[test]
    fn path_loss_is_monotonic_in_distance() {
        let model = LogDistanceModel::indoor_los(2.45e9);
        let mut prev = 0.0;
        for i in 1..100 {
            let d = i as f64 * 0.5;
            let pl = model.path_loss_db(d);
            assert!(pl >= prev, "path loss must not decrease with distance");
            prev = pl;
        }
    }

    #[test]
    fn amplitude_gain_matches_loss() {
        let model = LogDistanceModel::free_space(2.45e9);
        let gain = model.amplitude_gain(5.0);
        let expected = interscatter_dsp::units::db_to_amplitude(-model.path_loss_db(5.0));
        assert!((gain - expected).abs() < 1e-15);
        assert!(gain < 1.0);
    }

    #[test]
    fn shadowing_has_requested_spread() {
        let model = LogDistanceModel {
            shadowing_sigma_db: 4.0,
            ..LogDistanceModel::indoor_los(2.45e9)
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let median = model.path_loss_db(10.0);
        let samples: Vec<f64> = (0..2000)
            .map(|_| model.path_loss_shadowed_db(10.0, &mut rng) - median)
            .collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let std = (samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>()
            / samples.len() as f64)
            .sqrt();
        assert!(mean.abs() < 0.5, "shadowing mean {mean}");
        assert!((std - 4.0).abs() < 0.5, "shadowing std {std}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let mut m = LogDistanceModel::free_space(2.45e9);
        m.exponent = 0.5;
        assert!(m.validate().is_err());
        let mut m = LogDistanceModel::free_space(2.45e9);
        m.freq_hz = 0.0;
        assert!(m.validate().is_err());
        let mut m = LogDistanceModel::free_space(2.45e9);
        m.reference_m = 0.0;
        assert!(m.validate().is_err());
        let mut m = LogDistanceModel::free_space(2.45e9);
        m.shadowing_sigma_db = -1.0;
        assert!(m.validate().is_err());
    }

    #[test]
    fn propagation_delay() {
        assert!((propagation_delay_s(300.0) - 1e-6).abs() < 2e-9);
    }

    #[test]
    fn gaussian_is_roughly_standard_normal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let n = 5000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
