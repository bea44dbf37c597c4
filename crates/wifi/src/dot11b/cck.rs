//! Complementary Code Keying (CCK) for 5.5 and 11 Mbps 802.11b.
//!
//! At the high rates each group of incoming bits selects an 8-chip complex
//! code word. The code word is built from four QPSK phases φ1..φ4:
//!
//! ```text
//! c = ( e^{j(φ1+φ2+φ3+φ4)},  e^{j(φ1+φ3+φ4)},  e^{j(φ1+φ2+φ4)}, −e^{j(φ1+φ4)},
//!       e^{j(φ1+φ2+φ3)},     e^{j(φ1+φ3)},    −e^{j(φ1+φ2)},     e^{jφ1} )
//! ```
//!
//! At 11 Mbps all four phases carry data (8 bits/code word); at 5.5 Mbps only
//! φ1 (differential, 2 bits) and a constrained mapping of 2 more bits are
//! used (4 bits/code word). φ1 is always differentially encoded relative to
//! the previous code word, with the extra 180° rotation on odd-numbered
//! code words required by the standard omitted here for clarity — the
//! receiver in this workspace uses the same convention, and the property the
//! paper relies on (pure phase modulation realisable with four impedance
//! states) is unaffected.
//!
//! The receiver ([`CckDemodulator`]) is the factored correlator: 64×8 + 256
//! complex multiply-adds and 4 sin/cos per 11 Mbps block, where
//! re-synthesising all 256 candidate code words costs 256×8 sin/cos.

use interscatter_dsp::Cplx;

/// Chips per CCK code word.
pub const CHIPS_PER_CODEWORD: usize = 8;

/// Maps a dibit to a DQPSK phase *increment* for φ1 (same table as the
/// Barker rates).
fn dqpsk_increment(d0: u8, d1: u8) -> f64 {
    match (d0 & 1, d1 & 1) {
        (0, 0) => 0.0,
        (0, 1) => std::f64::consts::FRAC_PI_2,
        (1, 1) => std::f64::consts::PI,
        (1, 0) => 3.0 * std::f64::consts::FRAC_PI_2,
        _ => unreachable!(),
    }
}

/// Maps a dibit to an absolute QPSK phase for φ2..φ4 (11 Mbps).
fn qpsk_phase(d0: u8, d1: u8) -> f64 {
    match (d0 & 1, d1 & 1) {
        (0, 0) => 0.0,
        (0, 1) => std::f64::consts::FRAC_PI_2,
        (1, 0) => std::f64::consts::PI,
        (1, 1) => 3.0 * std::f64::consts::FRAC_PI_2,
        _ => unreachable!(),
    }
}

/// Builds the 8-chip CCK code word from the four phases.
pub fn codeword(phi1: f64, phi2: f64, phi3: f64, phi4: f64) -> [Cplx; 8] {
    [
        Cplx::expj(phi1 + phi2 + phi3 + phi4),
        Cplx::expj(phi1 + phi3 + phi4),
        Cplx::expj(phi1 + phi2 + phi4),
        -Cplx::expj(phi1 + phi4),
        Cplx::expj(phi1 + phi2 + phi3),
        Cplx::expj(phi1 + phi3),
        -Cplx::expj(phi1 + phi2),
        Cplx::expj(phi1),
    ]
}

/// A stateful CCK modulator (tracks the differential φ1 phase).
#[derive(Debug, Clone, Copy)]
pub struct CckModulator {
    phi1: f64,
}

impl CckModulator {
    /// Creates a modulator whose φ1 reference is the phase of the last
    /// header symbol.
    pub fn new(reference_phase: f64) -> Self {
        CckModulator {
            phi1: reference_phase,
        }
    }

    /// Encodes 8 bits into one 11 Mbps code word.
    pub fn encode_11mbps(&mut self, bits: &[u8]) -> [Cplx; 8] {
        assert_eq!(bits.len(), 8, "11 Mbps CCK consumes 8 bits per code word");
        self.phi1 += dqpsk_increment(bits[0], bits[1]);
        let phi2 = qpsk_phase(bits[2], bits[3]);
        let phi3 = qpsk_phase(bits[4], bits[5]);
        let phi4 = qpsk_phase(bits[6], bits[7]);
        codeword(self.phi1, phi2, phi3, phi4)
    }

    /// Encodes 4 bits into one 5.5 Mbps code word. Per the standard the last
    /// two bits choose among four specific (φ2, φ3, φ4) combinations.
    pub fn encode_5_5mbps(&mut self, bits: &[u8]) -> [Cplx; 8] {
        assert_eq!(bits.len(), 4, "5.5 Mbps CCK consumes 4 bits per code word");
        self.phi1 += dqpsk_increment(bits[0], bits[1]);
        let (phi2, phi3, phi4) = match (bits[2] & 1, bits[3] & 1) {
            (0, 0) => (std::f64::consts::FRAC_PI_2, 0.0, 0.0),
            (0, 1) => (3.0 * std::f64::consts::FRAC_PI_2, 0.0, 0.0),
            (1, 0) => (std::f64::consts::FRAC_PI_2, 0.0, std::f64::consts::PI),
            (1, 1) => (3.0 * std::f64::consts::FRAC_PI_2, 0.0, std::f64::consts::PI),
            _ => unreachable!(),
        };
        codeword(self.phi1, phi2, phi3, phi4)
    }

    /// Encodes a full bit stream at 11 Mbps (length must be a multiple of 8).
    pub fn encode_stream_11mbps(&mut self, bits: &[u8]) -> Vec<Cplx> {
        assert_eq!(bits.len() % 8, 0);
        bits.chunks(8).flat_map(|c| self.encode_11mbps(c)).collect()
    }

    /// Encodes a full bit stream at 5.5 Mbps (length must be a multiple of 4).
    pub fn encode_stream_5_5mbps(&mut self, bits: &[u8]) -> Vec<Cplx> {
        assert_eq!(bits.len() % 4, 0);
        bits.chunks(4)
            .flat_map(|c| self.encode_5_5mbps(c))
            .collect()
    }
}

/// A CCK demodulator: picks the code word `c = e^{jφ1} · b(φ2, φ3, φ4)` with
/// the largest `Re(Σ_k r_k · conj(c_k))`, mirroring the modulator's φ1 state.
/// Each block is correlated once per φ1-free base word `b` (tabulated once
/// per stream), then rotated by the four candidate `e^{-jφ1}`; candidates
/// are scanned in data-word order with a strict `>` (ties: lowest word).
#[derive(Debug, Clone, Copy)]
pub struct CckDemodulator {
    phi1: f64,
}

impl CckDemodulator {
    /// Creates a demodulator with the same φ1 reference as the modulator.
    pub fn new(reference_phase: f64) -> Self {
        CckDemodulator {
            phi1: reference_phase,
        }
    }

    /// Decodes one block against the rate's base words, returning the
    /// winning data word (φ1 dibit in bits 0–1, base-word index above) and
    /// advancing φ1 to the winner's.
    fn decode_word(&mut self, chips: &[Cplx], bases: &[Cplx]) -> usize {
        let phi1: [f64; 4] =
            std::array::from_fn(|d| self.phi1 + dqpsk_increment(d as u8, (d >> 1) as u8));
        let derotate = phi1.map(|p| Cplx::expj(p).conj());
        let mut best = (f64::MIN, 0);
        for (w, base) in bases.chunks_exact(CHIPS_PER_CODEWORD).enumerate() {
            let corr: Cplx = chips.iter().zip(base).map(|(&r, &b)| r * b.conj()).sum();
            for (d, rot) in derotate.iter().enumerate() {
                let metric = (*rot * corr).re;
                if metric > best.0 {
                    best = (metric, 4 * w + d);
                }
            }
        }
        self.phi1 = phi1[best.1 & 3];
        best.1
    }

    /// Decodes a chip stream of `bits_per_word`-bit code words.
    fn decode_stream(&mut self, chips: &[Cplx], bits_per_word: usize) -> Vec<u8> {
        let bases = base_words(bits_per_word);
        let mut bits = Vec::with_capacity(chips.len() / CHIPS_PER_CODEWORD * bits_per_word);
        for block in chips.chunks_exact(CHIPS_PER_CODEWORD) {
            let v = self.decode_word(block, &bases);
            bits.extend((0..bits_per_word).map(|i| ((v >> i) & 1) as u8));
        }
        bits
    }

    /// Decodes one 8-chip block at 11 Mbps (256 candidate code words).
    pub fn decode_11mbps(&mut self, chips: &[Cplx]) -> Vec<u8> {
        assert_eq!(chips.len(), 8);
        self.decode_stream(chips, 8)
    }

    /// Decodes one 8-chip block at 5.5 Mbps (16 candidate code words).
    pub fn decode_5_5mbps(&mut self, chips: &[Cplx]) -> Vec<u8> {
        assert_eq!(chips.len(), 8);
        self.decode_stream(chips, 4)
    }

    /// Decodes a chip stream at 11 Mbps.
    pub fn decode_stream_11mbps(&mut self, chips: &[Cplx]) -> Vec<u8> {
        self.decode_stream(chips, 8)
    }

    /// Decodes a chip stream at 5.5 Mbps.
    pub fn decode_stream_5_5mbps(&mut self, chips: &[Cplx]) -> Vec<u8> {
        self.decode_stream(chips, 4)
    }
}

/// The φ1-free base words of one rate (64 at 11 Mbps, 4 at 5.5 Mbps), one
/// after another: every data word whose φ1 dibit is 00, encoded from φ1 = 0.
fn base_words(bits_per_word: usize) -> Vec<Cplx> {
    let bits: Vec<u8> = (0..1usize << bits_per_word)
        .step_by(4)
        .flat_map(|v| (0..bits_per_word).map(move |i| ((v >> i) & 1) as u8))
        .collect();
    let mut modulator = CckModulator::new(0.0);
    match bits_per_word {
        8 => modulator.encode_stream_11mbps(&bits),
        _ => modulator.encode_stream_5_5mbps(&bits),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn codeword_chips_have_unit_magnitude() {
        let cw = codeword(0.3, 1.1, 2.0, -0.7);
        for chip in &cw {
            assert!((chip.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn cck_11mbps_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let bits: Vec<u8> = (0..8 * 40).map(|_| rng.gen_range(0..=1u8)).collect();
        let mut modulator = CckModulator::new(0.0);
        let chips = modulator.encode_stream_11mbps(&bits);
        assert_eq!(chips.len(), bits.len());
        let mut demod = CckDemodulator::new(0.0);
        assert_eq!(demod.decode_stream_11mbps(&chips), bits);
    }

    #[test]
    fn cck_5_5mbps_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        let bits: Vec<u8> = (0..4 * 50).map(|_| rng.gen_range(0..=1u8)).collect();
        let mut modulator = CckModulator::new(0.5);
        let chips = modulator.encode_stream_5_5mbps(&bits);
        assert_eq!(chips.len(), bits.len() * 2);
        let mut demod = CckDemodulator::new(0.5);
        assert_eq!(demod.decode_stream_5_5mbps(&chips), bits);
    }

    #[test]
    fn cck_round_trip_survives_constant_rotation_and_scaling() {
        // Same robustness argument as DQPSK: the tag's constellation offset
        // and the backscatter attenuation are common to all chips. A constant
        // rotation does shift the correlation metric equally for all
        // candidates of the *current* code word, but because φ1 is tracked
        // differentially the decoder locks to the rotated reference after the
        // first code word; we rotate the reference accordingly here.
        let mut rng = rand::rngs::StdRng::seed_from_u64(44);
        let bits: Vec<u8> = (0..8 * 20).map(|_| rng.gen_range(0..=1u8)).collect();
        let mut modulator = CckModulator::new(0.0);
        let rotation = std::f64::consts::FRAC_PI_4;
        let chips: Vec<Cplx> = modulator
            .encode_stream_11mbps(&bits)
            .iter()
            .map(|&c| c * Cplx::expj(rotation) * 2e-3)
            .collect();
        let mut demod = CckDemodulator::new(rotation);
        assert_eq!(demod.decode_stream_11mbps(&chips), bits);
    }

    #[test]
    fn cck_tolerates_moderate_noise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(45);
        let bits: Vec<u8> = (0..8 * 30).map(|_| rng.gen_range(0..=1u8)).collect();
        let mut modulator = CckModulator::new(0.0);
        let mut chips = modulator.encode_stream_11mbps(&bits);
        for c in &mut chips {
            *c += Cplx::new(rng.gen_range(-0.3..0.3), rng.gen_range(-0.3..0.3));
        }
        let mut demod = CckDemodulator::new(0.0);
        assert_eq!(demod.decode_stream_11mbps(&chips), bits);
    }

    #[test]
    fn different_codewords_are_distinguishable() {
        // All 256 11 Mbps code words (for a fixed φ1) must be distinct.
        let mut words: Vec<[Cplx; 8]> = Vec::new();
        for v in 0..256u32 {
            let bits: Vec<u8> = (0..8).map(|i| ((v >> i) & 1) as u8).collect();
            let mut m = CckModulator::new(0.0);
            words.push(m.encode_11mbps(&bits));
        }
        for i in 0..words.len() {
            for j in (i + 1)..words.len() {
                let dist: f64 = words[i]
                    .iter()
                    .zip(words[j].iter())
                    .map(|(a, b)| (*a - *b).norm_sq())
                    .sum();
                assert!(dist > 1e-9, "code words {i} and {j} identical");
            }
        }
    }

    /// The direct search the factored decoder replaced: re-synthesise every
    /// candidate code word at its absolute φ1 and correlate against it.
    fn direct_decode(phi1: &mut f64, chips: &[Cplx], bits_per_word: usize) -> Vec<u8> {
        let bits_of =
            |v: u32| -> Vec<u8> { (0..bits_per_word).map(|i| ((v >> i) & 1) as u8).collect() };
        let mut best = (f64::MIN, 0, *phi1);
        for v in 0..1u32 << bits_per_word {
            let mut candidate = CckModulator::new(*phi1);
            let cw = match bits_per_word {
                8 => candidate.encode_11mbps(&bits_of(v)),
                _ => candidate.encode_5_5mbps(&bits_of(v)),
            };
            let metric: f64 = chips
                .iter()
                .zip(cw.iter())
                .map(|(&r, &c)| (r * c.conj()).re)
                .sum();
            if metric > best.0 {
                best = (metric, v, candidate.phi1);
            }
        }
        *phi1 = best.2;
        bits_of(best.1)
    }

    /// Runs 200 streams of 100 code words (20 000 blocks) through the
    /// factored decoder and the direct search, with the noise σ swept from
    /// 0.05 to 2.0 and φ1 references up to ±600 rad (plus what each stream
    /// accumulates), and requires the same bits and the same tracked φ1 on
    /// every block.
    fn factored_decoder_matches_direct_search(bits_per_word: usize) {
        const STREAMS: usize = 200;
        const BLOCKS: usize = 100;
        let decode = |d: &mut CckDemodulator, block: &[Cplx]| match bits_per_word {
            8 => d.decode_11mbps(block),
            _ => d.decode_5_5mbps(block),
        };
        // An all-zero block ties every candidate at 0: data word 0 wins.
        let mut zero = CckDemodulator::new(0.7);
        assert_eq!(
            decode(&mut zero, &[Cplx::new(0.0, 0.0); 8]),
            vec![0; bits_per_word]
        );
        assert_eq!(zero.phi1, 0.7);

        let mut rng = rand::rngs::StdRng::seed_from_u64(0xCC00 + bits_per_word as u64);
        let mut wrong_words = 0;
        for stream in 0..STREAMS {
            let sigma = 0.05 + 1.95 * stream as f64 / (STREAMS - 1) as f64;
            let reference = match stream % 2 {
                0 => rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI),
                _ => rng.gen_range(-600.0..600.0),
            };
            let gain = rng.gen_range(0.5..2.0);
            let bits: Vec<u8> = (0..bits_per_word * BLOCKS)
                .map(|_| rng.gen_range(0..=1u8))
                .collect();
            let mut modulator = CckModulator::new(reference);
            let chips = match bits_per_word {
                8 => modulator.encode_stream_11mbps(&bits),
                _ => modulator.encode_stream_5_5mbps(&bits),
            };
            let mut factored = CckDemodulator::new(reference);
            let mut direct_phi1 = reference;
            for (k, (block, sent)) in chips
                .chunks_exact(8)
                .zip(bits.chunks_exact(bits_per_word))
                .enumerate()
            {
                let noisy: Vec<Cplx> = block
                    .iter()
                    .map(|&c| {
                        let r = (-2.0 * rng.gen_range(1e-12..1.0f64).ln()).sqrt() * sigma;
                        c * gain + Cplx::from_polar(r, rng.gen_range(0.0..std::f64::consts::TAU))
                    })
                    .collect();
                let want = direct_decode(&mut direct_phi1, &noisy, bits_per_word);
                let got = decode(&mut factored, &noisy);
                assert_eq!(got, want, "stream {stream} (σ {sigma:.3}) block {k}");
                assert_eq!(
                    factored.phi1.to_bits(),
                    direct_phi1.to_bits(),
                    "stream {stream} (σ {sigma:.3}) block {k}: φ1 diverged"
                );
                wrong_words += usize::from(got != sent);
            }
        }
        // The sweep must reach both the clean and the hopeless regime, so
        // that near-tied metrics are actually exercised.
        let total = STREAMS * BLOCKS;
        assert!(
            wrong_words > total / 10 && wrong_words < total * 9 / 10,
            "{wrong_words}"
        );
    }

    #[test]
    fn factored_11mbps_decoder_matches_direct_search() {
        factored_decoder_matches_direct_search(8);
    }

    #[test]
    fn factored_5_5mbps_decoder_matches_direct_search() {
        factored_decoder_matches_direct_search(4);
    }

    #[test]
    #[should_panic(expected = "8 bits")]
    fn wrong_bit_count_panics() {
        let mut m = CckModulator::new(0.0);
        let _ = m.encode_11mbps(&[1, 0, 1]);
    }
}
