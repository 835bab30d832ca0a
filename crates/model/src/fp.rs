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
//!
//! [`Fingerprinter`] is the same pair of streams as a [`Hasher`], so a value
//! can be fingerprinted field by field, straight from where its fields
//! live, without first building it: [`fingerprint`] is written through it.

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

/// A streaming fingerprint: a [`Hasher`] that feeds every byte written to
/// it into both seeded streams. [`Fingerprinter::finish128`] equals
/// [`fingerprint`] of any value whose `Hash` writes the same bytes, so a
/// type can key a value it never materialises by hashing its parts in the
/// order that value's `Hash` would.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    first: DefaultHasher,
    second: DefaultHasher,
    /// Bytes not yet fed to the streams. SipHash hashes a byte stream, so
    /// feeding many small writes as one changes no result, and costs each
    /// stream one call instead of one per field.
    pending: [u8; PENDING],
    len: usize,
}

/// How many written bytes a [`Fingerprinter`] gathers before feeding them
/// to its streams.
const PENDING: usize = 64;

impl Default for Fingerprinter {
    fn default() -> Self {
        Fingerprinter::new()
    }
}

impl Fingerprinter {
    /// A fingerprinter that has seen nothing yet.
    pub fn new() -> Fingerprinter {
        let mut second = DefaultHasher::new();
        second.write_u64(SECOND_STREAM);
        Fingerprinter {
            first: DefaultHasher::new(),
            second,
            pending: [0; PENDING],
            len: 0,
        }
    }

    /// The 128-bit fingerprint of everything written so far.
    pub fn finish128(&self) -> u128 {
        let (mut first, mut second) = (self.first.clone(), self.second.clone());
        first.write(&self.pending[..self.len]);
        second.write(&self.pending[..self.len]);
        let hi = SplitMix64::new(first.finish()).next_u64();
        let lo = SplitMix64::new(second.finish()).next_u64();
        ((hi as u128) << 64) | lo as u128
    }
}

impl Hasher for Fingerprinter {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > PENDING {
            self.first.write(&self.pending[..self.len]);
            self.second.write(&self.pending[..self.len]);
            self.len = 0;
            if bytes.len() > PENDING {
                self.first.write(bytes);
                self.second.write(bytes);
                return;
            }
        }
        self.pending[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// The high half of [`Fingerprinter::finish128`].
    fn finish(&self) -> u64 {
        (self.finish128() >> 64) as u64
    }
}

/// The 128-bit fingerprint of a hashable value.
#[inline]
pub fn fingerprint<T: Hash>(value: &T) -> u128 {
    let mut f = Fingerprinter::new();
    value.hash(&mut f);
    f.finish128()
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

    /// `fingerprint` as it was before it went through [`Fingerprinter`]:
    /// each stream a `DefaultHasher` the value hashes itself into.
    fn two_hashers<T: Hash>(value: &T) -> u128 {
        let mut h1 = DefaultHasher::new();
        value.hash(&mut h1);
        let mut h2 = DefaultHasher::new();
        h2.write_u64(SECOND_STREAM);
        value.hash(&mut h2);
        let hi = SplitMix64::new(h1.finish()).next_u64();
        let lo = SplitMix64::new(h2.finish()).next_u64();
        ((hi as u128) << 64) | lo as u128
    }

    #[test]
    fn streaming_equals_the_two_hasher_fingerprint() {
        use std::collections::VecDeque;
        let nested: Vec<Vec<u16>> = vec![vec![], vec![1, 2, 0o177777], vec![9]];
        let queue: VecDeque<(usize, Vec<u8>)> = [(3, vec![7u8]), (0, vec![])].into();
        assert_eq!(fingerprint(&42u64), two_hashers(&42u64));
        assert_eq!(fingerprint(&u128::MAX), two_hashers(&u128::MAX));
        assert_eq!(fingerprint(&"a str"), two_hashers(&"a str"));
        assert_eq!(fingerprint(&nested), two_hashers(&nested));
        assert_eq!(fingerprint(&queue), two_hashers(&queue));
        let tuple = (true, 'x', -5i32, (&nested, &queue), Some(String::from("s")));
        assert_eq!(fingerprint(&tuple), two_hashers(&tuple));
        // Writes that fill, cross and overrun the gathered bytes.
        for len in [
            PENDING - 9,
            PENDING - 8,
            PENDING,
            PENDING + 1,
            3 * PENDING + 5,
        ] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let words: Vec<u64> = (0..len as u64).collect();
            let value = (len as u8, &bytes, 7u16, &words, "tail", &bytes[..len / 2]);
            assert_eq!(fingerprint(&value), two_hashers(&value), "{len} bytes");
        }
        // Field by field, with the `Vec`'s length written where its `Hash`
        // writes it, is the fingerprint of the built value.
        let mut f = Fingerprinter::new();
        7u32.hash(&mut f);
        f.write_usize(nested.len());
        for v in &nested {
            v.hash(&mut f);
        }
        queue.hash(&mut f);
        assert_eq!(f.finish128(), fingerprint(&(7u32, &nested, &queue)));
        assert_eq!(f.finish(), (f.finish128() >> 64) as u64);
    }

    #[test]
    fn default_dedup_is_fingerprint() {
        assert_eq!(Dedup::default(), Dedup::Fingerprint);
    }
}
