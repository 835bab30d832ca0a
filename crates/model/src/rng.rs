//! A tiny deterministic PRNG (SplitMix64) for sampled checking.
//!
//! The sampled checker must be reproducible — a verification run that cannot
//! be replayed is worthless as evidence — so we use a self-contained,
//! seedable generator rather than an external crate.

/// SplitMix64: fast, seedable, and statistically adequate for state-space
/// sampling (not for cryptography).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The state word: `SplitMix64::new(g.state())` continues `g`'s
    /// stream.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`bound` must be non-zero).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        // Multiply-shift bounded sampling; bias is negligible for the bounds
        // used here (state/input set sizes).
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(13) < 13);
        }
    }

    #[test]
    fn below_covers_range() {
        let mut rng = SplitMix64::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[rng.below(8)] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SplitMix64::new(0).below(0);
    }
}
