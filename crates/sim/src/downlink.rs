//! Downlink simulation: 802.11g OFDM transmitter → AM modulation → path loss
//! → the tag's passive envelope detector (Fig. 13, §4.4).
//!
//! The Wi-Fi transmitter sends 36 Mbps 802.11g frames whose payload bits are
//! crafted so OFDM symbols alternate between "random" and "constant"
//! envelopes, encoding 125 kbps toward the tag. The tag's peak-detector
//! receiver measured a −32 dBm sensitivity; this simulation sweeps the
//! transmitter-to-tag distance and reports the bit error rate at each point,
//! reproducing the shape of Fig. 13: essentially error-free up to the
//! distance where the received power crosses the detector sensitivity, then
//! a rapid collapse.

use crate::measurements::BitErrorCounter;
use crate::SimError;
use interscatter_backscatter::envelope::EnvelopeDetector;
use interscatter_channel::noise::NoiseModel;
use interscatter_channel::pathloss::LogDistanceModel;
use interscatter_dsp::bits::hamming_distance;
use interscatter_dsp::units::db_to_amplitude;
use interscatter_wifi::ofdm::ppdu::{OfdmRate, OfdmTransmitter};
use interscatter_wifi::ofdm::scrambler::SeedPolicy;
use interscatter_wifi::ofdm::symbol::SYMBOL_LEN;
use interscatter_wifi::ofdm::OFDM_SAMPLE_RATE;
use rand::Rng;

/// A downlink scenario: OFDM Wi-Fi transmitter → envelope-detector receiver.
#[derive(Debug, Clone)]
pub struct DownlinkScenario {
    /// Wi-Fi transmit power, dBm (typical APs/clients: 15–20 dBm).
    pub wifi_tx_power_dbm: f64,
    /// OFDM rate used for the AM frames (36 Mbps in the paper).
    pub rate: OfdmRate,
    /// How the chipset picks scrambler seeds (determines whether the AM
    /// crafting predicts the right sequence).
    pub seed_policy: SeedPolicy,
    /// Propagation model between transmitter and tag.
    pub propagation: LogDistanceModel,
    /// The tag's envelope detector.
    pub detector: EnvelopeDetector,
}

impl DownlinkScenario {
    /// The §4.4 bench setup: 36 Mbps frames, fixed scrambler seed (ath5k
    /// behaviour), indoor line of sight, the prototype's −32 dBm detector.
    pub fn fig13_bench(wifi_tx_power_dbm: f64) -> Self {
        DownlinkScenario {
            wifi_tx_power_dbm,
            rate: OfdmRate::Mbps36,
            seed_policy: SeedPolicy::Fixed { seed: 0x2C },
            propagation: LogDistanceModel::indoor_los(2.437e9),
            detector: EnvelopeDetector::new(OFDM_SAMPLE_RATE),
        }
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<(), SimError> {
        self.propagation.validate()?;
        self.detector.validate()?;
        Ok(())
    }

    /// Received power at the tag for a given distance, dBm (one hop — this
    /// is a conventional forward link, not a backscatter link).
    pub fn received_power_dbm(&self, distance_m: f64) -> f64 {
        // 2 dBi at the Wi-Fi transmitter and 2 dBi at the tag prototype's
        // antenna, as in the bench setup.
        self.wifi_tx_power_dbm + 2.0 + 2.0 - self.propagation.path_loss_db(distance_m)
    }

    /// Simulates the transmission of `downlink_bits` over one AM frame at
    /// `distance_m`, for frame number `frame_index` (which determines the
    /// scrambler seed under the chipset's policy). Returns the number of bit
    /// errors observed at the detector; a frame the detector misses scores
    /// half its bits (rounded up) as errors, the expectation of guessing.
    pub fn simulate_frame<R: Rng>(
        &self,
        downlink_bits: &[u8],
        distance_m: f64,
        frame_index: u64,
        rng: &mut R,
    ) -> Result<usize, SimError> {
        // The crafting side predicts the seed of the *previous* frame plus
        // one for incrementing chipsets, or the pinned value; with a random
        // policy its prediction is wrong almost always.
        let actual_seed = self.seed_policy.seed_for_frame(frame_index);
        let predicted_seed = match self.seed_policy {
            SeedPolicy::Random => SeedPolicy::Random.seed_for_frame(frame_index.wrapping_add(17)),
            _ => actual_seed,
        };
        // Payload is crafted against the predicted seed...
        let schedule = interscatter_wifi::ofdm::am::symbol_schedule(downlink_bits);
        let data_bits =
            interscatter_wifi::ofdm::am::craft_data_bits(self.rate, predicted_seed, &schedule, rng);
        // ...but the radio scrambles with the seed it actually chose.
        let actual_tx = OfdmTransmitter::new(self.rate, actual_seed);
        let frame = actual_tx.transmit_raw_bits(&data_bits)?;

        let amplitude = db_to_amplitude(self.received_power_dbm(distance_m));
        let mut noisy = frame.samples;
        for s in &mut noisy {
            *s = *s * amplitude;
        }
        NoiseModel::envelope_detector().add_noise_in_place(&mut noisy, rng);
        match self.detector.decode_am_downlink(&noisy, SYMBOL_LEN) {
            Ok(decoded) => Ok(hamming_distance(&decoded, downlink_bits)),
            // No frame detected: the tag guesses, so half the bits are wrong.
            Err(_) => Ok(downlink_bits.len().div_ceil(2)),
        }
    }

    /// Runs `frames` AM frames of `bits_per_frame` bits at `distance_m` and
    /// returns the bit-error counter.
    pub fn bit_error_rate<R: Rng>(
        &self,
        distance_m: f64,
        frames: usize,
        bits_per_frame: usize,
        rng: &mut R,
    ) -> Result<BitErrorCounter, SimError> {
        self.validate()?;
        let mut counter = BitErrorCounter::default();
        for f in 0..frames {
            let bits: Vec<u8> = (0..bits_per_frame)
                .map(|_| rng.gen_range(0..=1u8))
                .collect();
            let errors = self.simulate_frame(&bits, distance_m, f as u64, rng)?;
            counter.record(bits_per_frame, errors);
        }
        Ok(counter)
    }

    /// The distance (metres) at which the received power crosses the
    /// detector sensitivity — the analytic range limit visible in Fig. 13.
    pub fn sensitivity_range_m(&self) -> f64 {
        // Binary search the monotone path-loss model.
        let target = self.detector.sensitivity_dbm;
        let mut lo = 0.01;
        let mut hi = 1000.0;
        for _ in 0..60 {
            let mid = (lo + hi) / 2.0;
            if self.received_power_dbm(mid) > target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo + hi) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use interscatter_dsp::units::feet_to_meters;
    use rand::SeedableRng;

    #[test]
    fn validation_and_power() {
        let s = DownlinkScenario::fig13_bench(15.0);
        assert!(s.validate().is_ok());
        assert!(s.received_power_dbm(1.0) > s.received_power_dbm(10.0));
    }

    #[test]
    fn close_range_is_error_free() {
        let s = DownlinkScenario::fig13_bench(15.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ber = s
            .bit_error_rate(feet_to_meters(5.0), 3, 32, &mut rng)
            .unwrap();
        assert_eq!(ber.ber(), 0.0, "5 ft downlink should be clean");
    }

    #[test]
    fn far_range_fails_once_below_sensitivity() {
        let s = DownlinkScenario::fig13_bench(15.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let range = s.sensitivity_range_m();
        let ber = s.bit_error_rate(range * 3.0, 2, 32, &mut rng).unwrap();
        assert!(ber.ber() > 0.3, "far-range BER {}", ber.ber());
    }

    #[test]
    fn sensitivity_range_is_tens_of_feet() {
        // Fig. 13 reports BER < 0.01 up to ~18 feet with the prototype's
        // -32 dBm detector; the analytic crossing should land in the
        // 10-40 foot range for a 15 dBm transmitter.
        let s = DownlinkScenario::fig13_bench(15.0);
        let range_ft = interscatter_dsp::units::meters_to_feet(s.sensitivity_range_m());
        assert!(
            (8.0..60.0).contains(&range_ft),
            "sensitivity range {range_ft} ft"
        );
    }

    #[test]
    fn random_seed_policy_breaks_the_downlink() {
        let mut s = DownlinkScenario::fig13_bench(15.0);
        s.seed_policy = SeedPolicy::Random;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let ber = s
            .bit_error_rate(feet_to_meters(5.0), 3, 32, &mut rng)
            .unwrap();
        assert!(
            ber.ber() > 0.2,
            "an unpredictable scrambler seed must break AM crafting (BER {})",
            ber.ber()
        );
    }

    #[test]
    fn incrementing_seed_policy_works_like_fixed() {
        let mut s = DownlinkScenario::fig13_bench(15.0);
        s.seed_policy = SeedPolicy::Incrementing { start: 40 };
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let ber = s
            .bit_error_rate(feet_to_meters(6.0), 3, 24, &mut rng)
            .unwrap();
        assert_eq!(ber.ber(), 0.0);
    }
}
