//! Uplink simulations: Bluetooth → interscatter tag → Wi-Fi / ZigBee
//! receiver.
//!
//! Two levels of fidelity are provided, mirroring how the evaluation is
//! structured:
//!
//! * **Link-budget level** — [`UplinkScenario::rssi_dbm`] computes the RSSI
//!   a commodity receiver reports for a given geometry and transmit power.
//!   This is what the range sweeps of Figures 10, 14, 15 and 16 need; it is
//!   fast enough to sweep hundreds of points.
//! * **Waveform level** — [`UplinkScenario::simulate_wifi_packet`] runs the
//!   actual 802.11b chip stream through AWGN at the link-budget SNR and the
//!   full receiver, producing packet/bit errors. Figure 11's PER CDF is
//!   built from these trials, which [`UplinkScenario::simulate_wifi_packets`]
//!   runs across cores: the generator is snapshotted at each packet and
//!   advanced exactly past its noise draws, so the outcomes are
//!   bit-identical to running one packet at a time. (The tag's
//!   frequency-translation fidelity is validated separately in the
//!   backscatter crate at the full carrier sample rate; running every PER
//!   trial at 176 MS/s would add hours of runtime without changing the
//!   decision statistics, which depend only on the post-translation SNR.)

use crate::measurements::{BitErrorCounter, PacketErrorCounter};
use crate::SimError;
use interscatter_backscatter::tag::{SidebandMode, TargetPhy};
use interscatter_channel::antenna::Antenna;
use interscatter_channel::link::{BackscatterLink, ConversionLoss};
use interscatter_channel::noise::NoiseModel;
use interscatter_channel::pathloss::LogDistanceModel;
use interscatter_channel::tissue::TissuePath;
use interscatter_dsp::units::{db_to_amplitude, feet_to_meters};
use interscatter_wifi::dot11b::{Dot11bReceiver, Dot11bTransmitter, DsssRate};
use interscatter_zigbee::{ZigbeeReceiver, ZigbeeTransmitter};
use rand::Rng;

/// A complete uplink scenario description.
#[derive(Debug, Clone)]
pub struct UplinkScenario {
    /// Bluetooth transmit power, dBm.
    pub ble_tx_power_dbm: f64,
    /// Distance from the Bluetooth source to the tag, metres.
    pub source_to_tag_m: f64,
    /// Distance from the tag to the receiver, metres.
    pub tag_to_rx_m: f64,
    /// What the tag synthesizes.
    pub target: TargetPhy,
    /// Sideband architecture of the tag.
    pub sideband: SidebandMode,
    /// Antenna at the tag (monopole on the bench, loop for the implants).
    pub tag_antenna: Antenna,
    /// Tissue covering the tag, traversed on both hops.
    pub tag_tissue: TissuePath,
    /// Path-loss exponent environment.
    pub propagation: LogDistanceModel,
}

impl UplinkScenario {
    /// The bench setup of Fig. 10: 2 Mbps Wi-Fi on channel 11, single
    /// sideband, monopole antennas, indoor line of sight.
    pub fn fig10_bench(ble_tx_power_dbm: f64, source_to_tag_ft: f64, tag_to_rx_ft: f64) -> Self {
        UplinkScenario {
            ble_tx_power_dbm,
            source_to_tag_m: feet_to_meters(source_to_tag_ft),
            tag_to_rx_m: feet_to_meters(tag_to_rx_ft),
            target: TargetPhy::Wifi(DsssRate::Mbps2),
            sideband: SidebandMode::Single,
            tag_antenna: Antenna::monopole_2dbi(),
            tag_tissue: TissuePath::new(),
            propagation: LogDistanceModel::indoor_los(2.462e9),
        }
    }

    /// The ZigBee setup of Fig. 14: tag 2 ft from the Bluetooth source,
    /// generating packets on ZigBee channel 14.
    pub fn fig14_zigbee(tag_to_rx_ft: f64) -> Self {
        UplinkScenario {
            ble_tx_power_dbm: 0.0,
            source_to_tag_m: feet_to_meters(2.0),
            tag_to_rx_m: feet_to_meters(tag_to_rx_ft),
            target: TargetPhy::Zigbee,
            sideband: SidebandMode::Single,
            tag_antenna: Antenna::monopole_2dbi(),
            tag_tissue: TissuePath::new(),
            propagation: LogDistanceModel::indoor_los(2.420e9),
        }
    }

    /// Validates the scenario.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.source_to_tag_m <= 0.0 || self.tag_to_rx_m <= 0.0 {
            return Err(SimError::InvalidScenario("distances must be positive"));
        }
        self.propagation.validate()?;
        self.tag_antenna.validate()?;
        Ok(())
    }

    /// Builds the link-budget object for this scenario.
    pub fn link(&self) -> BackscatterLink {
        BackscatterLink {
            tx_power_dbm: self.ble_tx_power_dbm,
            tx_antenna: Antenna::monopole_2dbi(),
            tag_antenna: self.tag_antenna,
            rx_antenna: Antenna::monopole_2dbi(),
            source_to_tag: self.propagation,
            tag_to_rx: self.propagation,
            tissue_source_to_tag: self.tag_tissue.clone(),
            tissue_tag_to_rx: self.tag_tissue.clone(),
            conversion: match self.sideband {
                SidebandMode::Single => ConversionLoss::single_sideband(),
                SidebandMode::Double => ConversionLoss::double_sideband(),
            },
        }
    }

    /// The receiver noise model implied by the target PHY.
    pub fn noise_model(&self) -> NoiseModel {
        match self.target {
            TargetPhy::Wifi(_) => NoiseModel::wifi_dsss(),
            TargetPhy::Zigbee => NoiseModel::zigbee(),
        }
    }

    /// Median RSSI at the receiver, dBm.
    pub fn rssi_dbm(&self) -> f64 {
        self.link()
            .received_power_dbm(self.source_to_tag_m, self.tag_to_rx_m)
    }

    /// RSSI with per-trial shadowing (location-to-location variation).
    pub fn rssi_shadowed_dbm<R: Rng>(&self, rng: &mut R) -> f64 {
        self.link()
            .received_power_shadowed_dbm(self.source_to_tag_m, self.tag_to_rx_m, rng)
    }

    /// SNR at the receiver, dB.
    pub fn snr_db(&self) -> f64 {
        self.noise_model().snr_db(self.rssi_dbm())
    }

    /// Simulates one backscatter-generated Wi-Fi packet through the receiver
    /// at the scenario's link budget, returning `(received_ok, bit_errors,
    /// payload_bits)`.
    pub fn simulate_wifi_packet<R: Rng>(
        &self,
        payload: &[u8],
        rssi_dbm: f64,
        rng: &mut R,
    ) -> Result<(bool, usize, usize), SimError> {
        let tx = Dot11bTransmitter::new(self.wifi_rate()?);
        let mut frame = tx.transmit(payload)?;
        let amplitude = db_to_amplitude(rssi_dbm);
        for c in &mut frame.chips {
            *c = *c * amplitude;
        }
        self.noise_model().add_noise_in_place(&mut frame.chips, rng);
        let rx = Dot11bReceiver::default();
        match rx.receive(&frame.chips) {
            Ok(received) => {
                let ok = received.fcs_ok && received.payload == payload;
                let errors =
                    interscatter_wifi::dot11b::rx::payload_bit_errors(&frame, &received.payload);
                Ok((ok, errors, payload.len() * 8))
            }
            Err(_) => Ok((false, payload.len() * 8, payload.len() * 8)),
        }
    }

    /// [`UplinkScenario::simulate_wifi_packet`] over every payload in turn,
    /// all at `rssi_dbm`, run across cores. Returns the same outcomes and
    /// leaves `rng` in the same state as calling it in a loop.
    ///
    /// Each packet draws a known number of values (four per chip), so a
    /// sequential pass snapshots the generator at the start of every packet
    /// and skips that packet's draws; the packets then run in parallel, each
    /// from its own snapshot. Every packet must end where the next one
    /// starts, and the last where `rng` now stands; a mismatch panics.
    pub fn simulate_wifi_packets<R>(
        &self,
        payloads: &[Vec<u8>],
        rssi_dbm: f64,
        rng: &mut R,
    ) -> Result<Vec<(bool, usize, usize)>, SimError>
    where
        R: Rng + Clone + PartialEq + std::fmt::Debug + Send + Sync,
    {
        let tx = Dot11bTransmitter::new(self.wifi_rate()?);
        let mut starts = Vec::with_capacity(payloads.len());
        for payload in payloads {
            starts.push(rng.clone());
            NoiseModel::skip_noise(tx.chip_count(payload.len())?, rng);
        }
        let runs = rayon::det::map_indexed_ordered(payloads.len(), |i| {
            let mut packet_rng = starts[i].clone();
            let outcome = self.simulate_wifi_packet(&payloads[i], rssi_dbm, &mut packet_rng);
            (outcome, packet_rng)
        });
        let mut outcomes = Vec::with_capacity(runs.len());
        for (i, (outcome, end)) in runs.into_iter().enumerate() {
            outcomes.push(outcome?);
            let next = starts.get(i + 1).unwrap_or(rng);
            assert_eq!(&end, next, "packet {i} drew a different number of values");
        }
        Ok(outcomes)
    }

    fn wifi_rate(&self) -> Result<DsssRate, SimError> {
        match self.target {
            TargetPhy::Wifi(rate) => Ok(rate),
            TargetPhy::Zigbee => Err(SimError::InvalidScenario(
                "simulate_wifi_packet requires a Wi-Fi target",
            )),
        }
    }

    /// Simulates one backscatter-generated ZigBee packet, returning
    /// `(received_ok, lqi)`.
    pub fn simulate_zigbee_packet<R: Rng>(
        &self,
        payload: &[u8],
        rssi_dbm: f64,
        rng: &mut R,
    ) -> Result<(bool, usize), SimError> {
        if self.target != TargetPhy::Zigbee {
            return Err(SimError::InvalidScenario(
                "simulate_zigbee_packet requires a ZigBee target",
            ));
        }
        let tx = ZigbeeTransmitter::default();
        let wave = tx.transmit(payload)?;
        let amplitude = db_to_amplitude(rssi_dbm);
        let scaled: Vec<_> = wave.samples.iter().map(|&c| c * amplitude).collect();
        let noisy = self.noise_model().add_noise(&scaled, rng);
        let rx = ZigbeeReceiver::default();
        match rx.receive(&noisy) {
            Ok(frame) => Ok((frame.payload == payload, frame.lqi)),
            Err(_) => Ok((false, 0)),
        }
    }

    /// Runs `trials` Wi-Fi packets at this scenario's (shadowed) link budget
    /// and returns the packet- and bit-error counters.
    pub fn wifi_error_rates<R: Rng>(
        &self,
        payload_len: usize,
        trials: usize,
        rng: &mut R,
    ) -> Result<(PacketErrorCounter, BitErrorCounter), SimError> {
        self.validate()?;
        let mut per = PacketErrorCounter::default();
        let mut ber = BitErrorCounter::default();
        for t in 0..trials {
            let payload: Vec<u8> = (0..payload_len).map(|i| ((i + t) % 251) as u8).collect();
            let rssi = self.rssi_shadowed_dbm(rng);
            let (ok, errors, bits) = self.simulate_wifi_packet(&payload, rssi, rng)?;
            per.record(ok);
            ber.record(bits, errors);
        }
        Ok((per, ber))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn validation() {
        assert!(UplinkScenario::fig10_bench(0.0, 1.0, 10.0)
            .validate()
            .is_ok());
        let mut s = UplinkScenario::fig10_bench(0.0, 1.0, 10.0);
        s.tag_to_rx_m = 0.0;
        assert!(s.validate().is_err());
    }

    #[test]
    fn rssi_falls_with_distance_and_rises_with_power() {
        let near = UplinkScenario::fig10_bench(0.0, 1.0, 10.0).rssi_dbm();
        let far = UplinkScenario::fig10_bench(0.0, 1.0, 60.0).rssi_dbm();
        assert!(near > far + 10.0);
        let loud = UplinkScenario::fig10_bench(20.0, 1.0, 10.0).rssi_dbm();
        assert!((loud - near - 20.0).abs() < 1e-9);
    }

    #[test]
    fn strong_link_has_zero_per() {
        let scenario = UplinkScenario::fig10_bench(20.0, 1.0, 5.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let (per, ber) = scenario.wifi_error_rates(31, 10, &mut rng).unwrap();
        assert_eq!(per.per(), 0.0, "strong link should deliver every packet");
        assert_eq!(ber.ber(), 0.0);
    }

    #[test]
    fn weak_link_loses_packets() {
        // 0 dBm source, tag 3 ft away, receiver 90 ft away: the link-budget
        // RSSI is near or below the Wi-Fi sensitivity, so most packets fail.
        let scenario = UplinkScenario::fig10_bench(0.0, 3.0, 90.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let (per, _) = scenario.wifi_error_rates(31, 10, &mut rng).unwrap();
        assert!(per.per() > 0.5, "weak link PER {}", per.per());
    }

    #[test]
    fn per_is_monotone_in_distance_on_average() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let near = UplinkScenario::fig10_bench(4.0, 1.0, 20.0)
            .wifi_error_rates(31, 8, &mut rng)
            .unwrap()
            .0
            .per();
        let far = UplinkScenario::fig10_bench(4.0, 1.0, 85.0)
            .wifi_error_rates(31, 8, &mut rng)
            .unwrap()
            .0
            .per();
        assert!(far >= near, "near {near}, far {far}");
    }

    #[test]
    fn zigbee_scenario_delivers_packets_in_range() {
        let scenario = UplinkScenario::fig14_zigbee(5.0);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let rssi = scenario.rssi_dbm();
        let (ok, lqi) = scenario
            .simulate_zigbee_packet(&[0x42u8; 20], rssi, &mut rng)
            .unwrap();
        assert!(ok, "ZigBee packet should decode at 5 ft (RSSI {rssi} dBm)");
        assert!(lqi > 20);
    }

    #[test]
    fn target_mismatch_is_an_error() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let wifi = UplinkScenario::fig10_bench(0.0, 1.0, 10.0);
        assert!(wifi
            .simulate_zigbee_packet(&[0u8; 4], -50.0, &mut rng)
            .is_err());
        let zigbee = UplinkScenario::fig14_zigbee(5.0);
        assert!(zigbee
            .simulate_wifi_packet(&[0u8; 4], -50.0, &mut rng)
            .is_err());
    }

    #[test]
    fn packet_batch_matches_the_sequential_loop() {
        // Two RSSIs on each rate's waterfall, then one too weak to find the
        // preamble (the receiver's `Err` branch).
        let cases = [
            (DsssRate::Mbps2, 31usize, [-92.5, -91.5, -110.0]),
            (DsssRate::Mbps11, 77, [-89.0, -88.5, -110.0]),
        ];
        for (rate, payload_len, rssis) in cases {
            let mut scenario = UplinkScenario::fig10_bench(4.0, 1.0, 10.0);
            scenario.target = TargetPhy::Wifi(rate);
            let payloads: Vec<Vec<u8>> = (0..8)
                .map(|p| {
                    (0..payload_len)
                        .map(|i| ((i * 7 + p) % 251) as u8)
                        .collect()
                })
                .collect();
            let mut outcomes = Vec::new();
            for rssi in rssis {
                let mut looped = rand::rngs::StdRng::seed_from_u64(0xB47C);
                let mut batched = looped.clone();
                let want: Vec<_> = payloads
                    .iter()
                    .map(|p| scenario.simulate_wifi_packet(p, rssi, &mut looped).unwrap())
                    .collect();
                let got = scenario
                    .simulate_wifi_packets(&payloads, rssi, &mut batched)
                    .unwrap();
                assert_eq!(got, want, "{rate:?} at {rssi} dBm");
                assert_eq!(batched, looped, "{rate:?} at {rssi} dBm");
                outcomes.push(got);
            }
            let waterfall: Vec<bool> = outcomes[..2].concat().iter().map(|o| o.0).collect();
            assert!(
                waterfall.contains(&true) && waterfall.contains(&false),
                "{rate:?}"
            );
            let bits = payload_len * 8;
            assert!(
                outcomes[2].iter().all(|&o| o == (false, bits, bits)),
                "{rate:?}"
            );
        }
    }

    #[test]
    fn packet_batch_needs_a_wifi_target() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let zigbee = UplinkScenario::fig14_zigbee(5.0);
        assert!(zigbee
            .simulate_wifi_packets(&[vec![0u8; 4]], -50.0, &mut rng)
            .is_err());
        let wifi = UplinkScenario::fig10_bench(0.0, 1.0, 10.0);
        assert_eq!(
            wifi.simulate_wifi_packets(&[], -50.0, &mut rng).unwrap(),
            vec![]
        );
    }

    #[test]
    fn double_sideband_link_is_weaker() {
        let ssb = UplinkScenario::fig10_bench(4.0, 1.0, 30.0);
        let mut dsb = ssb.clone();
        dsb.sideband = SidebandMode::Double;
        assert!(ssb.rssi_dbm() > dsb.rssi_dbm() + 2.0);
    }
}
