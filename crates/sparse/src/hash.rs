//! The one hash and the one PRNG behind every fingerprint and seed in the
//! workspace: FNV-1a (over bytes, or one 64-bit word per step) and
//! splitmix64. Plan-cache keys, dataset seeds, device fingerprints and the
//! estimator's samples all derive from these, so each value that leaves
//! the process is pinned by the baselines and digests that record it.

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One FNV step over a whole 64-bit word: `(hash ^ value) · prime`. Fed
/// one byte at a time it is FNV-1a proper ([`fnv1a`]); fed words it hashes
/// a structure array eight times faster.
pub fn fnv_mix(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// FNV-1a over `bytes`, from the offset basis.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV_OFFSET, |h, &b| fnv_mix(h, b as u64))
}

/// splitmix64: advances `state` and returns the next output. Tiny,
/// seedable, with excellent diffusion — the standard choice for
/// deterministic index sampling.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        let mut state = 1234567;
        let got: Vec<u64> = (0..3).map(|_| splitmix64(&mut state)).collect();
        assert_eq!(
            got,
            [
                6_457_827_717_110_365_317,
                3_203_168_211_198_807_973,
                9_817_491_932_198_370_423
            ]
        );
    }
}
