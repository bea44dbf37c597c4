//! The FNV-1a fingerprint shared by every digest-checked surface: event
//! traces ([`crate::event::EventTrace::digest`]), the digest-checked
//! examples, the determinism tests, and the soak-run report digest.
//!
//! One implementation, one set of constants — the pinned digests
//! (`round_robin_reproduces_pre_extraction_traces` and the examples) all
//! hash through here, so a typo'd constant in a copy would show up as a
//! digest mismatch instead of silently forking the fingerprint space.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// The 64-bit FNV-1a hash of `bytes` — the fingerprint the digest-checked
/// examples print and the regression tests pin across refactors.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET_BASIS;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// [`fnv1a`] over a string's UTF-8 bytes, for digesting report text (the
/// `net_run` example fingerprints its report and progress lines this way).
pub fn fnv1a_str(text: &str) -> u64 {
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
        assert_eq!(fnv1a_str("foobar"), fnv1a(b"foobar"));
    }

    #[test]
    fn distinguishes_inputs() {
        assert_ne!(fnv1a(b"trace a"), fnv1a(b"trace b"));
    }
}
