//! The 802.11b baseband receiver.
//!
//! Models the commodity Wi-Fi card (an Intel Link 5300 in the paper's
//! experiments) that receives the backscatter-generated packets: it detects
//! the long preamble, decodes the PLCP header at 1 Mbps, then despreads and
//! demodulates the PSDU at the signalled rate, verifies the FCS, and reports
//! RSSI. The packet-error-rate measurements of Fig. 11 run this receiver
//! over noisy channels.

use super::barker;
use super::cck::CckDemodulator;
use super::dpsk::DifferentialDecoder;
use super::plcp::{find_sfd, PlcpHeader, LONG_SYNC_BITS, PLCP_HEADER_BITS};
use super::rates::DsssRate;
use super::scrambler::DsssScrambler;
use super::tx::Dot11bFrame;
use crate::WifiError;
use interscatter_dsp::bits::bits_to_bytes_lsb;
use interscatter_dsp::crc::crc32_ieee;
use interscatter_dsp::iq::rssi_dbm;
use interscatter_dsp::Cplx;

/// A successfully received 802.11b frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ReceivedFrame {
    /// The MAC payload with the FCS stripped.
    pub payload: Vec<u8>,
    /// The rate signalled in the PLCP header.
    pub rate: DsssRate,
    /// Received signal strength over the frame, dBm (workspace convention:
    /// unit amplitude = 0 dBm).
    pub rssi_dbm: f64,
    /// Whether the 32-bit FCS validated.
    pub fcs_ok: bool,
}

/// 802.11b receiver configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dot11bReceiver {
    /// Receiver sensitivity in dBm: frames weaker than this are not detected
    /// at all (commodity cards sit around −92 dBm for 2 Mbps DSSS).
    pub sensitivity_dbm: f64,
    /// Whether to require a valid FCS for [`Dot11bReceiver::receive`] to
    /// return a frame.
    pub require_fcs: bool,
}

impl Default for Dot11bReceiver {
    fn default() -> Self {
        Dot11bReceiver {
            sensitivity_dbm: -92.0,
            require_fcs: false,
        }
    }
}

impl Dot11bReceiver {
    /// Creates a receiver with the given sensitivity.
    pub fn with_sensitivity(sensitivity_dbm: f64) -> Self {
        Dot11bReceiver {
            sensitivity_dbm,
            ..Default::default()
        }
    }

    /// Receives a frame from a chip-rate baseband stream that starts at the
    /// beginning of the PLCP preamble (chip-level timing recovery is assumed;
    /// the simulation crate aligns streams explicitly, matching how the
    /// evaluation isolates PHY behaviour from acquisition).
    pub fn receive(&self, chips: &[Cplx]) -> Result<ReceivedFrame, WifiError> {
        let rssi = rssi_dbm(chips);
        if rssi < self.sensitivity_dbm {
            return Err(WifiError::PreambleNotFound);
        }

        // --- Despread and DBPSK-decode the 1 Mbps PLCP section ---
        let plcp_bits_needed = LONG_SYNC_BITS + 16 + PLCP_HEADER_BITS;
        let plcp_chips_needed = plcp_bits_needed * barker::CHIPS_PER_SYMBOL;
        if chips.len() < plcp_chips_needed {
            return Err(WifiError::TruncatedWaveform {
                have: chips.len(),
                need: plcp_chips_needed,
            });
        }
        let plcp_symbols = barker::despread(&chips[..plcp_chips_needed]);
        // The first symbol is the DBPSK reference.
        let mut decoder = DifferentialDecoder::new(plcp_symbols[0]);
        let plcp_scrambled: Vec<u8> = decoder.decode_dbpsk_stream(&plcp_symbols[1..]);
        let mut descrambler = DsssScrambler::new(0);
        let plcp_bits = descrambler.descramble(&plcp_scrambled);

        // Find the SFD; everything after it is the PLCP header.
        let header_start = find_sfd(&plcp_bits)?;
        if plcp_bits.len() < header_start + PLCP_HEADER_BITS {
            return Err(WifiError::TruncatedWaveform {
                have: plcp_bits.len(),
                need: header_start + PLCP_HEADER_BITS,
            });
        }
        let header =
            PlcpHeader::from_bits(&plcp_bits[header_start..header_start + PLCP_HEADER_BITS])?;

        // --- PSDU section ---
        // The PLCP section we consumed is (1 reference + decoded bits); the
        // first PSDU chip follows the header bits. Account for the exact
        // number of 1 Mbps symbols consumed: 1 + header_start + 48 decoded
        // bits... the decoded bit stream is offset by one symbol (reference),
        // so the PSDU begins after (header_start + 48 + 1) symbols.
        let psdu_symbol_start = header_start + PLCP_HEADER_BITS + 1;
        let psdu_chip_start = psdu_symbol_start * barker::CHIPS_PER_SYMBOL;
        let psdu_bytes = header.psdu_bytes();
        let psdu_bits_expected = psdu_bytes * 8;
        let psdu_chips_expected =
            psdu_bits_expected / header.rate.bits_per_symbol() * header.rate.chips_per_symbol();
        if chips.len() < psdu_chip_start + psdu_chips_expected {
            return Err(WifiError::TruncatedWaveform {
                have: chips.len(),
                need: psdu_chip_start + psdu_chips_expected,
            });
        }
        let psdu_chips = &chips[psdu_chip_start..psdu_chip_start + psdu_chips_expected];
        let reference = plcp_symbols[psdu_symbol_start - 1];

        let scrambled_bits: Vec<u8> = match header.rate {
            DsssRate::Mbps1 => {
                let symbols = barker::despread(psdu_chips);
                let mut d = DifferentialDecoder::new(reference);
                d.decode_dbpsk_stream(&symbols)
            }
            DsssRate::Mbps2 => {
                let symbols = barker::despread(psdu_chips);
                let mut d = DifferentialDecoder::new(reference);
                d.decode_dqpsk_stream(&symbols)
            }
            DsssRate::Mbps5_5 => {
                let mut d = CckDemodulator::new(reference.arg());
                d.decode_stream_5_5mbps(psdu_chips)
            }
            DsssRate::Mbps11 => {
                let mut d = CckDemodulator::new(reference.arg());
                d.decode_stream_11mbps(psdu_chips)
            }
        };
        let psdu_scrambled = &scrambled_bits[..psdu_bits_expected.min(scrambled_bits.len())];
        let psdu_bit_vec = descrambler.descramble(psdu_scrambled);
        let psdu = bits_to_bytes_lsb(&psdu_bit_vec);

        // --- FCS check ---
        let (payload, fcs_ok) = if psdu.len() >= 4 {
            let (data, fcs) = psdu.split_at(psdu.len() - 4);
            (data.to_vec(), crc32_ieee(data) == *fcs)
        } else {
            (psdu.clone(), false)
        };
        if self.require_fcs && !fcs_ok {
            return Err(WifiError::CrcMismatch);
        }
        Ok(ReceivedFrame {
            payload,
            rate: header.rate,
            rssi_dbm: rssi,
            fcs_ok,
        })
    }
}

/// Convenience: counts payload bit errors between a transmitted frame and
/// the frame decoded from a (possibly corrupted) chip stream. Used by the
/// PER/BER sweeps.
pub fn payload_bit_errors(tx_frame: &Dot11bFrame, decoded_payload: &[u8]) -> usize {
    let tx_payload = &tx_frame.psdu[..tx_frame.psdu.len().saturating_sub(4)];
    let tx_bits = interscatter_dsp::bits::bytes_to_bits_lsb(tx_payload);
    let rx_bits = interscatter_dsp::bits::bytes_to_bits_lsb(decoded_payload);
    interscatter_dsp::bits::hamming_distance(&tx_bits, &rx_bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dot11b::tx::Dot11bTransmitter;
    use interscatter_dsp::iq::scale;
    use rand::{Rng, SeedableRng};

    fn awgn(chips: &[Cplx], sigma: f64, seed: u64) -> Vec<Cplx> {
        // Box-Muller AWGN without depending on the channel crate.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        chips
            .iter()
            .map(|&c| {
                let u1: f64 = rng.gen_range(1e-12..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                let r = (-2.0 * u1.ln()).sqrt() * sigma;
                let theta = 2.0 * std::f64::consts::PI * u2;
                c + Cplx::new(r * theta.cos(), r * theta.sin())
            })
            .collect()
    }

    #[test]
    fn clean_round_trip_all_rates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for rate in DsssRate::ALL {
            let payload: Vec<u8> = (0..31).map(|_| rng.gen()).collect();
            let tx = Dot11bTransmitter::new(rate);
            let frame = tx.transmit(&payload).unwrap();
            let rx = Dot11bReceiver::default();
            let received = rx.receive(&frame.chips).unwrap();
            assert_eq!(received.payload, payload, "rate {rate:?}");
            assert!(received.fcs_ok, "rate {rate:?}");
            assert_eq!(received.rate, rate);
            assert!((received.rssi_dbm - 0.0).abs() < 0.5);
        }
    }

    #[test]
    fn weak_frames_are_detected_down_to_sensitivity() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let frame = tx.transmit(&[0x55u8; 31]).unwrap();
        // -60 dBm: amplitude 1e-3.
        let weak = scale(&frame.chips, 1e-3);
        let rx = Dot11bReceiver::default();
        let received = rx.receive(&weak).unwrap();
        assert!(received.fcs_ok);
        assert!((received.rssi_dbm + 60.0).abs() < 0.5);
        // Below sensitivity: rejected.
        let too_weak = scale(&frame.chips, 1e-5);
        assert!(matches!(
            rx.receive(&too_weak),
            Err(WifiError::PreambleNotFound)
        ));
    }

    #[test]
    fn round_trip_with_moderate_noise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let payload: Vec<u8> = (0..31).map(|_| rng.gen()).collect();
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let frame = tx.transmit(&payload).unwrap();
        // SNR ~ 10 dB per chip: sigma^2 = 0.1 over two dimensions.
        let noisy = awgn(&frame.chips, 0.22, 99);
        let rx = Dot11bReceiver::default();
        let received = rx.receive(&noisy).unwrap();
        assert_eq!(received.payload, payload);
        assert!(received.fcs_ok);
    }

    #[test]
    fn heavy_noise_breaks_fcs() {
        let payload = vec![0xABu8; 31];
        let tx = Dot11bTransmitter::new(DsssRate::Mbps11);
        let frame = tx.transmit(&payload).unwrap();
        let strict = Dot11bReceiver {
            require_fcs: true,
            ..Default::default()
        };
        // σ = 0.8 keeps the spread 1 Mbps header but corrupts the 11 Mbps
        // PSDU; σ = 1.6 corrupts the header as well.
        for sigma in [0.8, 1.6] {
            let noisy = awgn(&frame.chips, sigma, 3);
            let strict_result = strict.receive(&noisy);
            match Dot11bReceiver::default().receive(&noisy) {
                Ok(received) => {
                    assert!(!received.fcs_ok, "σ {sigma}: PSDU should be corrupted");
                    assert!(matches!(strict_result, Err(WifiError::CrcMismatch)));
                }
                Err(_) => assert!(strict_result.is_err(), "σ {sigma}"),
            }
        }
    }

    #[test]
    fn truncated_stream_is_rejected() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let frame = tx.transmit(&[1u8; 31]).unwrap();
        let rx = Dot11bReceiver::default();
        assert!(matches!(
            rx.receive(&frame.chips[..1000]),
            Err(WifiError::TruncatedWaveform { .. })
        ));
        assert!(matches!(
            rx.receive(&frame.chips[..frame.chips.len() - 50]),
            Err(WifiError::TruncatedWaveform { .. })
        ));
    }

    #[test]
    fn amplitude_scaling_does_not_change_payload() {
        // Differential phase modulation: RSSI changes, bits do not.
        let payload = vec![0xC3u8; 38];
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let frame = tx.transmit(&payload).unwrap();
        let rx = Dot11bReceiver::with_sensitivity(-120.0);
        for &gain in &[1.0, 1e-2, 1e-4] {
            let received = rx.receive(&scale(&frame.chips, gain)).unwrap();
            assert_eq!(received.payload, payload);
        }
    }

    #[test]
    fn bit_error_counter() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let frame = tx.transmit(&[0xF0, 0x0F]).unwrap();
        assert_eq!(payload_bit_errors(&frame, &[0xF0, 0x0F]), 0);
        assert_eq!(payload_bit_errors(&frame, &[0xF0, 0x0E]), 1);
        assert_eq!(payload_bit_errors(&frame, &[0x0F, 0x0F]), 8);
    }
}
