//! The complete 802.11b baseband transmitter.
//!
//! This is the chain the backscatter tag implements in its FPGA/IC baseband
//! processor (paper §3): MAC framing (payload + FCS), scrambling, spreading
//! (Barker or CCK), and differential phase modulation, producing one complex
//! chip per 1/11 µs. The tag then maps each chip onto one of its four
//! impedance states; a conventional radio would instead feed the chips to a
//! DAC. Both consumers share this transmitter.

use super::barker;
use super::cck::CckModulator;
use super::dpsk::DifferentialEncoder;
use super::plcp::{long_preamble_bits, PlcpHeader, LONG_PREAMBLE_HEADER_BITS};
use super::rates::DsssRate;
use super::scrambler::DsssScrambler;
use crate::WifiError;
use interscatter_dsp::bits::bytes_to_bits_lsb;
use interscatter_dsp::crc::crc32_ieee;
use interscatter_dsp::Cplx;

/// Maximum PSDU (MAC frame) size in bytes accepted by the transmitter. The
/// 802.11 limit is 2346; backscattered frames are far smaller.
pub const MAX_PSDU_BYTES: usize = 2346;

/// A generated 802.11b baseband frame.
#[derive(Debug, Clone)]
pub struct Dot11bFrame {
    /// Chip-rate complex baseband samples (11 Mchip/s).
    pub chips: Vec<Cplx>,
    /// Index of the first payload (PSDU) chip, i.e. where the PLCP
    /// preamble + header end.
    pub psdu_start_chip: usize,
    /// The rate the PSDU is encoded at.
    pub rate: DsssRate,
    /// The PSDU bytes (payload + FCS) carried by the frame.
    pub psdu: Vec<u8>,
}

impl Dot11bFrame {
    /// Frame airtime in seconds at the 11 Mchip/s chip rate.
    pub fn airtime_s(&self) -> f64 {
        self.chips.len() as f64 / super::CHIP_RATE
    }
}

/// 802.11b transmitter configuration.
#[derive(Debug, Clone, Copy)]
pub struct Dot11bTransmitter {
    /// PSDU data rate.
    pub rate: DsssRate,
    /// Whether to append a 32-bit FCS to the payload (true for MAC frames;
    /// the PER experiments rely on it to detect corrupted packets).
    pub append_fcs: bool,
}

impl Dot11bTransmitter {
    /// Creates a transmitter for the given rate with FCS appending enabled.
    pub fn new(rate: DsssRate) -> Self {
        Dot11bTransmitter {
            rate,
            append_fcs: true,
        }
    }

    /// Builds the PSDU (payload plus optional FCS).
    pub fn build_psdu(&self, payload: &[u8]) -> Vec<u8> {
        let mut psdu = payload.to_vec();
        if self.append_fcs {
            psdu.extend_from_slice(&crc32_ieee(payload));
        }
        psdu
    }

    /// The PLCP header for a payload of `payload_len` bytes, or the error
    /// [`Dot11bTransmitter::transmit`] gives for that length.
    fn header_for(&self, payload_len: usize) -> Result<PlcpHeader, WifiError> {
        let psdu_len = self.psdu_len(payload_len);
        if psdu_len > MAX_PSDU_BYTES {
            return Err(WifiError::PayloadTooLong {
                requested: psdu_len,
                max: MAX_PSDU_BYTES,
            });
        }
        PlcpHeader::for_payload(self.rate, psdu_len)
    }

    fn psdu_len(&self, payload_len: usize) -> usize {
        payload_len + if self.append_fcs { 4 } else { 0 }
    }

    /// Number of chips [`Dot11bTransmitter::transmit`] produces for a
    /// payload of `payload_len` bytes, without producing them: the 192
    /// Barker-spread PLCP bits plus the PSDU (FCS included) at the
    /// configured rate. Errors exactly where `transmit` does.
    pub fn chip_count(&self, payload_len: usize) -> Result<usize, WifiError> {
        self.header_for(payload_len)?;
        Ok(self.chips_for_psdu(self.psdu_len(payload_len)))
    }

    fn chips_for_psdu(&self, psdu_len: usize) -> usize {
        LONG_PREAMBLE_HEADER_BITS * barker::CHIPS_PER_SYMBOL
            + psdu_len * 8 / self.rate.bits_per_symbol() * self.rate.chips_per_symbol()
    }

    /// Generates the chip-rate baseband waveform for `payload`.
    ///
    /// The long PLCP preamble and header are always sent at 1 Mbps DBPSK with
    /// Barker spreading; the PSDU is sent at the configured rate.
    pub fn transmit(&self, payload: &[u8]) -> Result<Dot11bFrame, WifiError> {
        let header = self.header_for(payload.len())?;
        let psdu = self.build_psdu(payload);

        // --- 1 Mbps portion: preamble + header, scrambled, DBPSK, Barker ---
        let mut scrambler = DsssScrambler::long_preamble();
        let mut plcp_bits = long_preamble_bits();
        plcp_bits.extend(header.to_bits());
        let plcp_scrambled = scrambler.scramble(&plcp_bits);
        let mut encoder = DifferentialEncoder::new(0.0);
        let plcp_symbols = encoder.encode_dbpsk_stream(&plcp_scrambled);
        let mut chips = Vec::with_capacity(self.chips_for_psdu(psdu.len()));
        barker::spread_into(&plcp_symbols, &mut chips);
        let psdu_start_chip = chips.len();

        // --- PSDU at the configured rate, continuing the same scrambler ---
        let psdu_bits = bytes_to_bits_lsb(&psdu);
        let psdu_scrambled = scrambler.scramble(&psdu_bits);
        match self.rate {
            DsssRate::Mbps1 => {
                let symbols = encoder.encode_dbpsk_stream(&psdu_scrambled);
                barker::spread_into(&symbols, &mut chips);
            }
            DsssRate::Mbps2 => {
                let symbols = encoder.encode_dqpsk_stream(&psdu_scrambled);
                barker::spread_into(&symbols, &mut chips);
            }
            DsssRate::Mbps5_5 => {
                let mut cck = CckModulator::new(encoder.phase());
                chips.extend(cck.encode_stream_5_5mbps(&psdu_scrambled));
            }
            DsssRate::Mbps11 => {
                let mut cck = CckModulator::new(encoder.phase());
                chips.extend(cck.encode_stream_11mbps(&psdu_scrambled));
            }
        }

        Ok(Dot11bFrame {
            chips,
            psdu_start_chip,
            rate: self.rate,
            psdu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_structure_at_2mbps() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let payload = vec![0xA5u8; 31];
        let frame = tx.transmit(&payload).unwrap();
        // PLCP: 192 bits at 1 Mbps, 11 chips per bit.
        assert_eq!(frame.psdu_start_chip, 192 * 11);
        // PSDU: 35 bytes (31 + FCS) = 280 bits = 140 DQPSK symbols = 1540 chips.
        assert_eq!(frame.chips.len() - frame.psdu_start_chip, 140 * 11);
        assert_eq!(frame.psdu.len(), 35);
        // Airtime: 192 µs PLCP + 140 µs payload.
        assert!((frame.airtime_s() - 332e-6).abs() < 1e-9);
    }

    #[test]
    fn frame_structure_at_11mbps() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps11);
        let payload = vec![0x42u8; 77];
        let frame = tx.transmit(&payload).unwrap();
        // PSDU: 81 bytes = 648 bits = 81 code words = 648 chips.
        assert_eq!(frame.chips.len() - frame.psdu_start_chip, 81 * 8);
    }

    #[test]
    fn all_chips_have_unit_magnitude() {
        // The entire 802.11b waveform is pure phase modulation — this is the
        // property that lets the backscatter tag realise it with impedance
        // switching alone.
        for rate in DsssRate::ALL {
            let tx = Dot11bTransmitter::new(rate);
            let frame = tx.transmit(&[0x13, 0x37, 0x00, 0xFF, 0x55]).unwrap();
            for chip in &frame.chips {
                assert!((chip.abs() - 1.0).abs() < 1e-9, "{rate:?} chip magnitude");
            }
        }
    }

    #[test]
    fn fcs_is_appended_and_depends_on_payload() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let a = tx.build_psdu(&[1, 2, 3]);
        let b = tx.build_psdu(&[1, 2, 4]);
        assert_eq!(a.len(), 7);
        assert_ne!(a[3..], b[3..]);
        let no_fcs = Dot11bTransmitter {
            rate: DsssRate::Mbps2,
            append_fcs: false,
        };
        assert_eq!(no_fcs.build_psdu(&[1, 2, 3]).len(), 3);
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps11);
        let payload = vec![0u8; MAX_PSDU_BYTES + 1];
        assert!(tx.transmit(&payload).is_err());
    }

    #[test]
    fn chip_count_matches_transmit() {
        // Every short length, then every length around the PSDU limit, where
        // the FCS pushes the PSDU over it (the whole 0..=max sweep costs
        // ~40 s in a debug build).
        let payload: Vec<u8> = (0..=MAX_PSDU_BYTES).map(|i| (i % 251) as u8).collect();
        let lengths = (0..=256).chain(MAX_PSDU_BYTES - 64..=MAX_PSDU_BYTES);
        for rate in DsssRate::ALL {
            let tx = Dot11bTransmitter::new(rate);
            for len in lengths.clone() {
                match (tx.chip_count(len), tx.transmit(&payload[..len])) {
                    (Ok(n), Ok(frame)) => assert_eq!(n, frame.chips.len(), "{rate:?} {len} B"),
                    (Err(a), Err(b)) => assert_eq!(a, b, "{rate:?} {len} B"),
                    (count, frame) => panic!(
                        "{rate:?} {len} B: chip_count {count:?}, transmit ok {}",
                        frame.is_ok()
                    ),
                }
            }
        }
    }

    #[test]
    fn different_payloads_give_different_chip_streams() {
        let tx = Dot11bTransmitter::new(DsssRate::Mbps2);
        let f1 = tx.transmit(&[0u8; 20]).unwrap();
        let f2 = tx.transmit(&[1u8; 20]).unwrap();
        assert_eq!(f1.chips.len(), f2.chips.len());
        let differing = f1
            .chips
            .iter()
            .zip(&f2.chips)
            .filter(|(a, b)| (**a - **b).abs() > 1e-9)
            .count();
        assert!(differing > 100, "payload change must alter the PSDU chips");
        // The PLCP portion is identical for equal-length payloads.
        assert!(f1.chips[..f1.psdu_start_chip]
            .iter()
            .zip(&f2.chips[..f2.psdu_start_chip])
            .all(|(a, b)| (*a - *b).abs() < 1e-12));
    }
}
