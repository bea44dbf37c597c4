//! Thermal noise, receiver noise figure and AWGN injection.
//!
//! Every receiver in the evaluation ultimately makes decisions at some SNR;
//! this module computes the noise power a given receiver sees (kTB plus its
//! noise figure) and adds complex white Gaussian noise of that level to IQ
//! streams under the workspace convention that a unit-amplitude sample is
//! 0 dBm at the antenna reference plane.

use crate::pathloss::gaussian;
use interscatter_dsp::units::{db_to_amplitude, thermal_noise_dbm};
use interscatter_dsp::Cplx;
use rand::Rng;

/// Standard noise temperature used throughout the workspace, kelvin.
pub const NOISE_TEMPERATURE_K: f64 = 290.0;

/// A receiver noise model.
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Receiver noise bandwidth, Hz (22 MHz for 802.11b, 2 MHz for ZigBee
    /// and BLE, 20 MHz for OFDM).
    pub bandwidth_hz: f64,
    /// Receiver noise figure, dB (commodity 2.4 GHz radios sit around
    /// 6–10 dB).
    pub noise_figure_db: f64,
}

impl NoiseModel {
    /// Noise model for an 802.11b receiver (Intel 5300-class card).
    pub fn wifi_dsss() -> Self {
        NoiseModel {
            bandwidth_hz: 22e6,
            noise_figure_db: 7.0,
        }
    }

    /// Noise model for an 802.11g OFDM receiver.
    pub fn wifi_ofdm() -> Self {
        NoiseModel {
            bandwidth_hz: 20e6,
            noise_figure_db: 7.0,
        }
    }

    /// Noise model for a ZigBee (CC2531-class) receiver — narrower bandwidth
    /// means a lower noise floor, which is why §4.5 notes ZigBee has better
    /// sensitivity than Wi-Fi.
    pub fn zigbee() -> Self {
        NoiseModel {
            bandwidth_hz: 2e6,
            noise_figure_db: 8.0,
        }
    }

    /// Noise model for the tag's envelope detector (wideband, poor noise
    /// figure — it is a passive diode detector).
    pub fn envelope_detector() -> Self {
        NoiseModel {
            bandwidth_hz: 20e6,
            noise_figure_db: 25.0,
        }
    }

    /// Total noise power referred to the receiver input, dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        thermal_noise_dbm(self.bandwidth_hz, NOISE_TEMPERATURE_K) + self.noise_figure_db
    }

    /// Noise amplitude per complex sample under the unit-amplitude = 0 dBm
    /// convention (the standard deviation of each of I and Q is this value
    /// divided by √2).
    pub fn noise_amplitude(&self) -> f64 {
        db_to_amplitude(self.noise_floor_dbm())
    }

    /// Adds AWGN of this model's level to an IQ stream.
    pub fn add_noise<R: Rng>(&self, samples: &[Cplx], rng: &mut R) -> Vec<Cplx> {
        let mut noisy = samples.to_vec();
        self.add_noise_in_place(&mut noisy, rng);
        noisy
    }

    /// [`NoiseModel::add_noise`] without the copy: adds AWGN to `samples`
    /// where they lie.
    pub fn add_noise_in_place<R: Rng>(&self, samples: &mut [Cplx], rng: &mut R) {
        let sigma = self.noise_amplitude() / 2f64.sqrt();
        for s in samples {
            *s += Cplx::new(gaussian(rng) * sigma, gaussian(rng) * sigma);
        }
    }

    /// Advances `rng` exactly as adding noise to `n` samples would, without
    /// computing any noise: each complex sample takes two [`gaussian`]
    /// draws of two uniform `next_u64` values each.
    pub fn skip_noise<R: Rng>(n: usize, rng: &mut R) {
        for _ in 0..4 * n {
            rng.next_u64();
        }
    }

    /// SNR in dB of a signal at `signal_dbm` seen by this receiver.
    pub fn snr_db(&self, signal_dbm: f64) -> f64 {
        signal_dbm - self.noise_floor_dbm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interscatter_dsp::iq::{mean_power, rssi_dbm, tone};
    use rand::SeedableRng;

    #[test]
    fn noise_floors_are_physically_sensible() {
        // kTB over 22 MHz ≈ -100.5 dBm; +7 dB NF ≈ -93.5 dBm.
        let wifi = NoiseModel::wifi_dsss().noise_floor_dbm();
        assert!((wifi + 93.5).abs() < 1.0, "Wi-Fi noise floor {wifi}");
        // ZigBee floor is ~10 dB lower thanks to the 2 MHz bandwidth.
        let zigbee = NoiseModel::zigbee().noise_floor_dbm();
        assert!(wifi - zigbee > 8.0, "ZigBee floor {zigbee} vs Wi-Fi {wifi}");
        // Envelope detector is far worse than either radio.
        assert!(NoiseModel::envelope_detector().noise_floor_dbm() > wifi + 10.0);
    }

    #[test]
    fn added_noise_has_the_requested_power() {
        let model = NoiseModel::wifi_dsss();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let silence = vec![Cplx::ZERO; 50_000];
        let noisy = model.add_noise(&silence, &mut rng);
        let measured_dbm = rssi_dbm(&noisy);
        assert!(
            (measured_dbm - model.noise_floor_dbm()).abs() < 0.5,
            "measured noise {measured_dbm} dBm, expected {}",
            model.noise_floor_dbm()
        );
    }

    #[test]
    fn snr_matches_construction() {
        let model = NoiseModel::wifi_dsss();
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // A -80 dBm tone in -93.5 dBm noise: SNR ~13.5 dB.
        let amplitude = db_to_amplitude(-80.0);
        let signal: Vec<Cplx> = tone(1e6, 44e6, 50_000, 0.0)
            .iter()
            .map(|&s| s * amplitude)
            .collect();
        let noisy = model.add_noise(&signal, &mut rng);
        let total = mean_power(&noisy);
        let noise = mean_power(&noisy) - mean_power(&signal);
        let snr_measured = 10.0 * ((total - noise) / noise).log10();
        assert!(
            (snr_measured - model.snr_db(-80.0)).abs() < 1.5,
            "measured SNR {snr_measured}"
        );
    }

    #[test]
    fn skip_noise_draws_what_add_noise_draws() {
        let model = NoiseModel::wifi_dsss();
        for n in [0, 1, 3652] {
            let mut added = rand::rngs::StdRng::seed_from_u64(n as u64);
            let mut skipped = added.clone();
            let samples: Vec<Cplx> = (0..n).map(|i| Cplx::new(i as f64, -(i as f64))).collect();
            model.add_noise(&samples, &mut added);
            NoiseModel::skip_noise(n, &mut skipped);
            assert_eq!(added, skipped, "n = {n}");
        }
    }

    #[test]
    fn in_place_noise_matches_the_allocating_path() {
        let model = NoiseModel::wifi_dsss();
        let samples: Vec<Cplx> = (0..257)
            .map(|i| Cplx::new((i as f64).sin(), (i as f64).cos()) * 1e-4)
            .collect();
        // The allocate-and-map body `add_noise` had before it delegated.
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let sigma = model.noise_amplitude() / 2f64.sqrt();
        let mapped: Vec<Cplx> = samples
            .iter()
            .map(|&s| s + Cplx::new(gaussian(&mut rng) * sigma, gaussian(&mut rng) * sigma))
            .collect();
        let mut in_place = samples.clone();
        let mut rng_in_place = rand::rngs::StdRng::seed_from_u64(9);
        model.add_noise_in_place(&mut in_place, &mut rng_in_place);
        let bits = |v: &[Cplx]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        assert_eq!(bits(&in_place), bits(&mapped));
        assert_eq!(rng_in_place, rng);
        let mut rng_alloc = rand::rngs::StdRng::seed_from_u64(9);
        assert_eq!(
            bits(&model.add_noise(&samples, &mut rng_alloc)),
            bits(&mapped)
        );
    }

    #[test]
    fn snr_formula() {
        let model = NoiseModel::zigbee();
        assert!((model.snr_db(model.noise_floor_dbm()) - 0.0).abs() < 1e-12);
        assert!((model.snr_db(model.noise_floor_dbm() + 10.0) - 10.0).abs() < 1e-12);
    }
}
