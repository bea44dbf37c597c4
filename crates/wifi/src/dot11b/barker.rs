//! Barker-sequence spreading for 1 and 2 Mbps 802.11b.
//!
//! At the DSSS basic rates every symbol is spread by the 11-chip Barker
//! sequence, giving the 22 MHz-wide waveform and the ~10.4 dB processing
//! gain that lets 2 Mbps packets be decoded at low SNR — the property the
//! paper leans on when arguing that backscattered Wi-Fi needs only ~6 dB of
//! SNR (§4.2).

use interscatter_dsp::correlate::bipolar_correlation;
use interscatter_dsp::Cplx;

/// The 11-chip Barker sequence used by 802.11 DSSS, in chip order,
/// represented as ±1.
pub const BARKER_11: [i8; 11] = [1, -1, 1, 1, -1, 1, 1, 1, -1, -1, -1];

/// Number of chips per DSSS symbol at the Barker rates.
pub const CHIPS_PER_SYMBOL: usize = 11;

/// Spreads a stream of symbols, each into 11 chips by multiplying it with
/// the Barker sequence.
pub fn spread(symbols: &[Cplx]) -> Vec<Cplx> {
    let mut chips = Vec::with_capacity(symbols.len() * CHIPS_PER_SYMBOL);
    spread_into(symbols, &mut chips);
    chips
}

/// [`spread`], appending the chips to `chips` instead of allocating.
pub fn spread_into(symbols: &[Cplx], chips: &mut Vec<Cplx>) {
    for &s in symbols {
        chips.extend(BARKER_11.iter().map(|&c| s * f64::from(c)));
    }
}

/// Despreads a block of 11 received chips back into one symbol estimate by
/// correlating with the Barker sequence (matched filter). The output is
/// normalised by the sequence length so a noiseless round trip returns the
/// original symbol.
pub fn despread_symbol(chips: &[Cplx]) -> Cplx {
    assert_eq!(chips.len(), CHIPS_PER_SYMBOL, "expected 11 chips");
    let sum: Cplx = chips
        .iter()
        .zip(BARKER_11.iter())
        .map(|(&chip, &b)| chip * f64::from(b))
        .sum();
    sum / CHIPS_PER_SYMBOL as f64
}

/// Despreads a chip stream into symbol estimates. Trailing chips that do not
/// fill a whole symbol are ignored.
pub fn despread(chips: &[Cplx]) -> Vec<Cplx> {
    chips
        .chunks_exact(CHIPS_PER_SYMBOL)
        .map(despread_symbol)
        .collect()
}

/// Processing gain of the Barker spreading in dB (10·log10(11) ≈ 10.4 dB).
pub fn processing_gain_db() -> f64 {
    10.0 * (CHIPS_PER_SYMBOL as f64).log10()
}

/// The aperiodic autocorrelation of the Barker sequence at a given lag —
/// exposed for tests and documentation: |sidelobes| ≤ 1, which is what makes
/// symbol timing recovery easy.
pub fn autocorrelation(lag: usize) -> i32 {
    if lag >= CHIPS_PER_SYMBOL {
        return 0;
    }
    let shifted: Vec<i8> = BARKER_11[lag..].to_vec();
    bipolar_correlation(&shifted, &BARKER_11[..CHIPS_PER_SYMBOL - lag])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_has_unit_sidelobes() {
        assert_eq!(autocorrelation(0), 11);
        for lag in 1..11 {
            assert!(
                autocorrelation(lag).abs() <= 1,
                "lag {lag} sidelobe too high"
            );
        }
        assert_eq!(autocorrelation(11), 0);
    }

    #[test]
    fn spread_despread_round_trip() {
        let symbols = vec![
            Cplx::new(1.0, 0.0),
            Cplx::new(-1.0, 0.0),
            Cplx::new(0.0, 1.0),
            Cplx::new(-0.7, -0.7),
        ];
        let chips = spread(&symbols);
        assert_eq!(chips.len(), symbols.len() * 11);
        let back = despread(&chips);
        assert_eq!(back.len(), symbols.len());
        for (a, b) in symbols.iter().zip(&back) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn despread_averages_noise() {
        // Adding independent noise to each chip should be attenuated by the
        // 11-chip average (processing gain).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let symbol = Cplx::new(1.0, 0.0);
        let mut chips = spread(&[symbol]);
        let noise_amp = 0.5;
        for c in &mut chips {
            *c += Cplx::new(
                rng.gen_range(-noise_amp..noise_amp),
                rng.gen_range(-noise_amp..noise_amp),
            );
        }
        let est = despread_symbol(&chips);
        assert!(
            (est - symbol).abs() < noise_amp,
            "despreading should average out noise"
        );
    }

    #[test]
    fn processing_gain_is_about_10_4_db() {
        assert!((processing_gain_db() - 10.41).abs() < 0.05);
    }

    #[test]
    fn partial_symbols_are_dropped() {
        let chips = vec![Cplx::ONE; 25];
        assert_eq!(despread(&chips).len(), 2);
    }

    #[test]
    #[should_panic(expected = "11 chips")]
    fn despread_symbol_requires_11_chips() {
        let _ = despread_symbol(&[Cplx::ONE; 10]);
    }
}
