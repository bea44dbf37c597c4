//! The three proof-of-concept applications of §5.
//!
//! * **Smart contact lens** (§5.1, Fig. 15): a 1 cm loop antenna encapsulated
//!   in PDMS, immersed in contact-lens solution, backscattering 2 Mbps Wi-Fi
//!   with the Bluetooth source 12 inches away.
//! * **Implanted neural recorder** (§5.2, Fig. 16): a 4 cm loop antenna under
//!   1/16 inch of muscle tissue, Bluetooth source 3 inches from the tissue
//!   surface.
//! * **Card-to-card communication** (§5.3, Fig. 17): two credit-card
//!   form-factor tags; one backscatters the Bluetooth single tone at
//!   100 kbps and the other receives it with its envelope detector — ambient
//!   backscatter between peers, with the smartphone as the only active
//!   radio.

use crate::uplink::UplinkScenario;
use crate::SimError;
use interscatter_backscatter::envelope::EnvelopeDetector;
use interscatter_backscatter::tag::{SidebandMode, TargetPhy};
use interscatter_channel::antenna::Antenna;
use interscatter_channel::link::{BackscatterLink, ConversionLoss};
use interscatter_channel::noise::NoiseModel;
use interscatter_channel::pathloss::LogDistanceModel;
use interscatter_channel::tissue::TissuePath;
use interscatter_dsp::units::{db_to_amplitude, inches_to_meters};
use interscatter_wifi::dot11b::DsssRate;
use rand::Rng;

/// The smart contact-lens scenario: returns the uplink scenario for a given
/// Bluetooth transmit power and lens-to-receiver distance in inches.
pub fn contact_lens_scenario(ble_tx_power_dbm: f64, rx_distance_in: f64) -> UplinkScenario {
    UplinkScenario {
        ble_tx_power_dbm,
        source_to_tag_m: inches_to_meters(12.0),
        tag_to_rx_m: inches_to_meters(rx_distance_in),
        target: TargetPhy::Wifi(DsssRate::Mbps2),
        sideband: SidebandMode::Single,
        tag_antenna: Antenna::contact_lens_loop(),
        tag_tissue: TissuePath::contact_lens(),
        propagation: LogDistanceModel::indoor_los(2.462e9),
    }
}

/// The implanted neural-recorder scenario: Bluetooth source 3 inches from
/// the tissue surface, receiver at `rx_distance_in` inches.
pub fn neural_implant_scenario(ble_tx_power_dbm: f64, rx_distance_in: f64) -> UplinkScenario {
    UplinkScenario {
        ble_tx_power_dbm,
        source_to_tag_m: inches_to_meters(3.0),
        tag_to_rx_m: inches_to_meters(rx_distance_in),
        target: TargetPhy::Wifi(DsssRate::Mbps2),
        sideband: SidebandMode::Single,
        tag_antenna: Antenna::implant_loop(),
        tag_tissue: TissuePath::neural_implant(),
        propagation: LogDistanceModel::indoor_los(2.462e9),
    }
}

/// The card-to-card scenario of §5.3.
#[derive(Debug, Clone)]
pub struct CardToCardScenario {
    /// Bluetooth transmit power, dBm (10 dBm in the paper — a phone-class
    /// device).
    pub ble_tx_power_dbm: f64,
    /// Distance from the Bluetooth device to the transmitting card, metres.
    pub source_to_tx_card_m: f64,
    /// Distance between the two cards, metres.
    pub card_to_card_m: f64,
    /// Bit rate of the card-to-card link, bits/s (100 kbps in the paper).
    pub bit_rate: f64,
    /// Propagation model.
    pub propagation: LogDistanceModel,
}

impl CardToCardScenario {
    /// The Fig. 17 setup: 10 dBm Bluetooth 3 inches from the transmitting
    /// card, receiver card at `card_distance_in` inches.
    pub fn fig17(card_distance_in: f64) -> Self {
        CardToCardScenario {
            ble_tx_power_dbm: 10.0,
            source_to_tx_card_m: inches_to_meters(3.0),
            card_to_card_m: inches_to_meters(card_distance_in),
            bit_rate: 100e3,
            propagation: LogDistanceModel::indoor_los(2.426e9),
        }
    }

    /// The backscatter link from the Bluetooth device via the transmitting
    /// card to the receiving card's envelope detector.
    pub fn link(&self) -> BackscatterLink {
        BackscatterLink {
            tx_power_dbm: self.ble_tx_power_dbm,
            tx_antenna: Antenna::monopole_2dbi(),
            // Credit-card tags use printed antennas comparable to a slightly
            // lossy monopole.
            tag_antenna: Antenna {
                name: "card antenna",
                gain_dbi: 1.0,
                efficiency: 0.7,
                mismatch_loss_db: 1.0,
                impedance: interscatter_dsp::Cplx::real(50.0),
            },
            rx_antenna: Antenna {
                name: "card antenna",
                gain_dbi: 1.0,
                efficiency: 0.7,
                mismatch_loss_db: 1.0,
                impedance: interscatter_dsp::Cplx::real(50.0),
            },
            source_to_tag: self.propagation,
            tag_to_rx: self.propagation,
            tissue_source_to_tag: TissuePath::new(),
            tissue_tag_to_rx: TissuePath::new(),
            // Card-to-card uses simple on-off keying of the tone (ambient
            // backscatter style), i.e. double-sideband energy detection.
            conversion: ConversionLoss::double_sideband(),
        }
    }

    /// Received power at the receiving card's envelope detector, dBm.
    pub fn received_power_dbm(&self) -> f64 {
        self.link()
            .received_power_dbm(self.source_to_tx_card_m, self.card_to_card_m)
    }

    /// Simulates `bits` on-off-keyed bits through the receiving card's
    /// envelope detector and returns the number of bit errors.
    ///
    /// Each bit is `samples_per_bit` samples of either reflected tone (1) or
    /// silence (0); the receiving card detects energy above its comparator
    /// threshold. The threshold is set midway between the expected on and
    /// off levels, as the cards calibrate during the preamble.
    pub fn simulate_bits<R: Rng>(&self, bits: &[u8], rng: &mut R) -> Result<usize, SimError> {
        let sample_rate = 4e6;
        let samples_per_bit = (sample_rate / self.bit_rate) as usize;
        let amplitude = db_to_amplitude(self.received_power_dbm());
        let detector = EnvelopeDetector {
            sample_rate,
            time_constant_s: 2e-6,
            // The card receivers follow the ambient-backscatter design: an
            // averaging comparator at the low 100 kbps bit rate reaches a
            // better sensitivity than the wideband interscatter detector.
            sensitivity_dbm: -58.0,
        };
        let noise = NoiseModel::envelope_detector();
        let mut waveform = Vec::with_capacity(bits.len() * samples_per_bit);
        for &b in bits {
            let level = if b & 1 == 1 { amplitude } else { 0.0 };
            for k in 0..samples_per_bit {
                let phase = k as f64 * 0.7;
                waveform.push(interscatter_dsp::Cplx::expj(phase) * level);
            }
        }
        noise.add_noise_in_place(&mut waveform, rng);
        let envelope = detector.envelope(&waveform)?;
        // Decision threshold: midway between the on amplitude and the noise
        // floor, but never below the detector sensitivity.
        let threshold = (amplitude / 2.0).max(detector.sensitivity_amplitude());
        let mut errors = 0usize;
        for (i, &b) in bits.iter().enumerate() {
            let start = i * samples_per_bit + samples_per_bit / 2;
            let end = (i + 1) * samples_per_bit;
            let level = envelope[start..end].iter().sum::<f64>() / (end - start) as f64;
            let decided = u8::from(level > threshold);
            if decided != (b & 1) {
                errors += 1;
            }
        }
        Ok(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn lens_scenario_ranges_are_inches_not_feet() {
        // Fig. 15: RSSI between roughly -72 and -86 dBm over 5-40 inches at
        // 10-20 dBm. The shape matters: a steep fall-off over tens of inches.
        let near = contact_lens_scenario(20.0, 5.0).rssi_dbm();
        let far = contact_lens_scenario(20.0, 40.0).rssi_dbm();
        assert!(near > far + 10.0, "near {near}, far {far}");
        assert!((-90.0..-55.0).contains(&near), "near-lens RSSI {near} dBm");
        // At 10 dBm the same geometry is 10 dB weaker.
        assert!((contact_lens_scenario(10.0, 5.0).rssi_dbm() - (near - 10.0)).abs() < 1e-9);
    }

    #[test]
    fn implant_outranges_the_lens() {
        // Fig. 16 achieves longer range than Fig. 15 (bigger antenna, less
        // lossy medium).
        let lens = contact_lens_scenario(20.0, 24.0).rssi_dbm();
        let implant = neural_implant_scenario(20.0, 24.0).rssi_dbm();
        assert!(implant > lens + 3.0, "implant {implant} vs lens {lens}");
    }

    #[test]
    fn implant_scenario_reaches_tens_of_inches() {
        let rssi_70in = neural_implant_scenario(10.0, 70.0).rssi_dbm();
        assert!(rssi_70in > -95.0, "70-inch implant RSSI {rssi_70in}");
        assert!(rssi_70in < -60.0);
    }

    #[test]
    fn card_link_budget_and_bits() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let near = CardToCardScenario::fig17(5.0);
        assert!(
            near.received_power_dbm() > -58.0,
            "near cards must be above detector sensitivity"
        );
        let bits: Vec<u8> = (0..64).map(|i| (i % 3 == 0) as u8).collect();
        let errors = near.simulate_bits(&bits, &mut rng).unwrap();
        assert_eq!(errors, 0, "5-inch card link should be clean");
    }

    #[test]
    fn card_link_fails_far_beyond_the_paper_range() {
        // Fig. 17 works to ~30 inches; at several times that distance the
        // received tone is below the envelope-detector sensitivity and the
        // BER collapses to ~0.5 for a balanced bit pattern.
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let far = CardToCardScenario::fig17(120.0);
        assert!(far.received_power_dbm() < -58.0);
        let bits: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
        let errors = far.simulate_bits(&bits, &mut rng).unwrap();
        assert!(
            errors as f64 >= 0.3 * bits.len() as f64,
            "far card link errors {errors}"
        );
    }
}
