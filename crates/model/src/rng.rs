//! A tiny deterministic PRNG (SplitMix64) for sampled checking, and the
//! seeded case runner the property suites use.
//!
//! The sampled checker must be reproducible — a verification run that cannot
//! be replayed is worthless as evidence — so we use a self-contained,
//! seedable generator rather than an external crate. The same holds for a
//! property test: [`cases`] runs a property on seeded cases, and a failing
//! case names the seed and index that [`case`] reruns alone.

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

/// One case of a [`cases`] run.
#[derive(Debug)]
pub struct Case {
    /// The case's own generator, for draws that have no size: choices.
    pub rng: SplitMix64,
    /// Case `k` of `n` draws sizes from the first `(k + 1) / n` of a range.
    share: (u64, u64),
}

impl Case {
    /// A size in `lo..=hi`, from the first `(k + 1) / n` of the range:
    /// case 0 draws the smallest, the last case the whole range.
    pub fn int(&mut self, lo: u64, hi: u64) -> u64 {
        let (num, den) = self.share;
        let span = ((u128::from(hi - lo) + 1) * u128::from(num)).div_ceil(u128::from(den));
        lo + ((u128::from(self.rng.next_u64()) * span) >> 64) as u64
    }
}

/// Runs `property` on `count` cases. Case `k` draws from a generator
/// derived from `seed` and `k`, within a size bound that grows with `k`,
/// so the first case that fails is the smallest one tried. It panics
/// naming `seed` and its index, which [`case`] reruns alone.
pub fn cases(seed: u64, count: u64, mut property: impl FnMut(&mut Case)) {
    for k in 0..count {
        case(seed, count, k, &mut property);
    }
}

/// Runs case `k` of a [`cases`] run of `count` cases from `seed` alone.
pub fn case(seed: u64, count: u64, k: u64, property: impl FnOnce(&mut Case)) {
    let mut c = Case {
        rng: SplitMix64::new(SplitMix64::new(seed ^ k).next_u64()),
        share: (k + 1, count),
    };
    let run = std::panic::AssertUnwindSafe(|| property(&mut c));
    if let Err(cause) = std::panic::catch_unwind(run) {
        let text = cause.downcast_ref::<String>().map(String::as_str);
        let text = text.or_else(|| cause.downcast_ref::<&str>().copied());
        let text = text.unwrap_or_default();
        let rerun = format!("rng::case({seed:#x}, {count}, {k}, ..)");
        panic!("seed {seed:#x}, case {k} of {count} failed; {rerun} reruns it: {text}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_grow_to_the_whole_range_and_replay_alone() {
        let mut draws = Vec::new();
        cases(9, 8, |c| draws.push(c.int(0, 799)));
        for (k, &d) in draws.iter().enumerate() {
            assert!(d < 100 * (k as u64 + 1), "case {k} drew {d}");
            case(9, 8, k as u64, |c| assert_eq!(c.int(0, 799), d));
        }
        cases(1, 64, |c| assert!(c.int(3, u64::MAX) >= 3));
    }

    #[test]
    #[should_panic(expected = "seed 0x7, case 2 of 5 failed")]
    fn a_failing_case_names_its_seed_and_index() {
        cases(7, 5, |c| assert!(c.share.0 < 3));
    }

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
