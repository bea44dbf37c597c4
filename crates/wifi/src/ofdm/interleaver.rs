//! The 802.11a/g block interleaver.
//!
//! Coded bits within each OFDM symbol are interleaved by two permutations:
//! the first spreads adjacent coded bits onto non-adjacent subcarriers, the
//! second alternates them between more and less significant constellation
//! bits. The property the downlink trick uses (paper §2.4) is trivial but
//! worth stating: a permutation of an all-equal sequence is the same
//! sequence, so the crafted all-ones/all-zeros symbols pass through the
//! interleaver unchanged.

/// Computes the interleaving permutation for `n_cbps` coded bits per symbol
/// and `n_bpsc` coded bits per subcarrier. Returns a vector `perm` such that
/// output index `perm[k]` takes input bit `k`.
pub fn permutation(n_cbps: usize, n_bpsc: usize) -> Vec<usize> {
    let s = (n_bpsc / 2).max(1);
    let mut perm = vec![0usize; n_cbps];
    #[expect(
        clippy::needless_range_loop,
        reason = "k is the spec's symbol index; indexing mirrors 17.3.5.7"
    )]
    for k in 0..n_cbps {
        // First permutation.
        let i = (n_cbps / 16) * (k % 16) + (k / 16);
        // Second permutation.
        let j = s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s;
        perm[k] = j;
    }
    perm
}

/// Interleaves the coded bits of one OFDM symbol.
///
/// # Panics
/// Panics if `bits.len() != n_cbps` — symbol assembly always supplies whole
/// symbols.
pub fn interleave(bits: &[u8], n_cbps: usize, n_bpsc: usize) -> Vec<u8> {
    assert_eq!(
        bits.len(),
        n_cbps,
        "interleaver needs exactly one symbol of bits"
    );
    let perm = permutation(n_cbps, n_bpsc);
    let mut out = vec![0u8; n_cbps];
    for (k, &bit) in bits.iter().enumerate() {
        out[perm[k]] = bit;
    }
    out
}

/// Inverts the interleaving of one OFDM symbol.
///
/// # Panics
/// Panics if `bits.len() != n_cbps`.
pub fn deinterleave(bits: &[u8], n_cbps: usize, n_bpsc: usize) -> Vec<u8> {
    assert_eq!(
        bits.len(),
        n_cbps,
        "deinterleaver needs exactly one symbol of bits"
    );
    let perm = permutation(n_cbps, n_bpsc);
    let mut out = vec![0u8; n_cbps];
    for (k, &p) in perm.iter().enumerate() {
        out[k] = bits[p];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// (n_cbps, n_bpsc) pairs for BPSK, QPSK, 16-QAM and 64-QAM at 48 data
    /// subcarriers.
    const CONFIGS: [(usize, usize); 4] = [(48, 1), (96, 2), (192, 4), (288, 6)];

    #[test]
    fn permutation_is_a_bijection() {
        for (n_cbps, n_bpsc) in CONFIGS {
            let perm = permutation(n_cbps, n_bpsc);
            let mut seen = vec![false; n_cbps];
            for &p in &perm {
                assert!(p < n_cbps);
                assert!(!seen[p], "duplicate output index {p}");
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn interleave_deinterleave_round_trip() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for (n_cbps, n_bpsc) in CONFIGS {
            let bits: Vec<u8> = (0..n_cbps).map(|_| rng.gen_range(0..=1u8)).collect();
            let inter = interleave(&bits, n_cbps, n_bpsc);
            assert_eq!(deinterleave(&inter, n_cbps, n_bpsc), bits);
        }
    }

    #[test]
    fn constant_sequences_are_fixed_points() {
        // The §2.4 property: all-ones and all-zeros are unchanged.
        for (n_cbps, n_bpsc) in CONFIGS {
            let ones = vec![1u8; n_cbps];
            assert_eq!(interleave(&ones, n_cbps, n_bpsc), ones);
            let zeros = vec![0u8; n_cbps];
            assert_eq!(interleave(&zeros, n_cbps, n_bpsc), zeros);
        }
    }

    #[test]
    fn adjacent_bits_are_separated() {
        // Adjacent coded bits must land at least a few positions apart for
        // the interleaver to provide frequency diversity.
        let (n_cbps, n_bpsc) = (192, 4);
        let perm = permutation(n_cbps, n_bpsc);
        for k in 0..n_cbps - 1 {
            let d = (perm[k] as isize - perm[k + 1] as isize).unsigned_abs();
            assert!(d >= 2, "adjacent coded bits mapped {d} apart at k={k}");
        }
    }

    #[test]
    fn known_first_entries_for_bpsk() {
        // For n_cbps = 48, n_bpsc = 1: perm[k] = 3*(k mod 16) + k/16.
        let perm = permutation(48, 1);
        assert_eq!(perm[0], 0);
        assert_eq!(perm[1], 3);
        assert_eq!(perm[2], 6);
        assert_eq!(perm[16], 1);
        assert_eq!(perm[17], 4);
        assert_eq!(perm[47], 47);
    }

    #[test]
    #[should_panic(expected = "exactly one symbol")]
    fn wrong_length_panics() {
        let _ = interleave(&[1, 0, 1], 48, 1);
    }
}
