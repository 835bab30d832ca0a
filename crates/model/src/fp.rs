//! 128-bit state fingerprints and the seen-set dedup policy.
//!
//! The explorers deduplicate discovered states by key. A key can be the
//! state itself (exact, collision-free, but a whole `KernelState` per
//! entry) or a 128-bit fingerprint: two independently-seeded 64-bit hashes,
//! each finalized through a [`SplitMix64`] round so related inputs do not
//! produce related keys. Fingerprints are deterministic across threads and
//! shard counts — the same state always fingerprints to the same value —
//! which is what lets every expander thread of the parallel checker test a
//! successor against one seen-set of 16-byte keys instead of whole states.
//!
//! A fingerprint collision (two distinct reachable states with the same
//! 128 bits) would merge two states silently. With two independent 64-bit
//! hashes the chance is cryptographically negligible at any state count
//! this repo can enumerate; the differential suite pins fingerprint runs
//! against exact runs regardless, and [`Dedup::Exact`] remains available
//! for the paranoid.

use crate::rng::SplitMix64;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Seed separating the second hash stream from the first (the SplitMix64
/// golden gamma).
const SECOND_STREAM: u64 = 0x9E37_79B9_7F4A_7C15;

/// How an explorer's seen-set identifies states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Dedup {
    /// Deduplicate by 128-bit fingerprint: 16 bytes per seen state, same
    /// exploration order as exact dedup barring an astronomically unlikely
    /// collision. The default.
    #[default]
    Fingerprint,
    /// Deduplicate by full state equality: collision-free, at the cost of
    /// keeping every state resident in the seen-set.
    Exact,
}

/// The 128-bit fingerprint of a hashable value.
#[inline]
pub fn fingerprint<T: Hash>(value: &T) -> u128 {
    let mut h1 = DefaultHasher::new();
    value.hash(&mut h1);
    let mut h2 = DefaultHasher::new();
    h2.write_u64(SECOND_STREAM);
    value.hash(&mut h2);
    let hi = SplitMix64::new(h1.finish()).next_u64();
    let lo = SplitMix64::new(h2.finish()).next_u64();
    ((hi as u128) << 64) | lo as u128
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_value_sensitive() {
        assert_eq!(fingerprint(&(1u32, "a")), fingerprint(&(1u32, "a")));
        assert_ne!(fingerprint(&(1u32, "a")), fingerprint(&(2u32, "a")));
        assert_ne!(fingerprint(&(1u32, "a")), fingerprint(&(1u32, "b")));
    }

    #[test]
    fn halves_are_independent_streams() {
        let fp = fingerprint(&42u64);
        assert_ne!((fp >> 64) as u64, fp as u64);
    }

    #[test]
    fn default_dedup_is_fingerprint() {
        assert_eq!(Dedup::default(), Dedup::Fingerprint);
    }
}
