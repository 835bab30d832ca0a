//! Property tests for the information-theoretic estimators, on seeded
//! cases; the one-parameter laws range over a grid of probabilities.

use sep_covert::channel::score_transfer;
use sep_covert::estimate::{binary_entropy, bsc_capacity, entropy, mutual_information};
use sep_model::rng::{cases, Case};

fn symbols(c: &mut Case, len: u64, max: u64) -> Vec<u8> {
    (0..len).map(|_| c.int(0, max) as u8).collect()
}

/// Two sequences of up to `max_len` paired symbols in `0..4`.
fn pairs(c: &mut Case, max_len: u64) -> (Vec<u8>, Vec<u8>) {
    let len = c.int(1, max_len);
    (symbols(c, len, 3), symbols(c, len, 3))
}

fn probabilities() -> impl Iterator<Item = f64> {
    (0..=1024).map(|i| f64::from(i) / 1024.0)
}

#[test]
fn entropy_is_bounded() {
    cases(0xE7, 256, |c| {
        let len = c.int(1, 299);
        let xs = symbols(c, len, 7);
        let distinct = xs.iter().collect::<std::collections::HashSet<_>>().len();
        let (h, bound) = (entropy(&xs), (distinct as f64).log2());
        assert!((-1e-9..=bound + 1e-9).contains(&h), "{h}");
    });
}

#[test]
fn mutual_information_is_nonnegative_and_bounded() {
    cases(0x31, 256, |c| {
        let (xs, ys) = pairs(c, 299);
        let mi = mutual_information(&xs, &ys);
        let bound = entropy(&xs).min(entropy(&ys));
        assert!((-1e-9..=bound + 1e-9).contains(&mi), "{mi}");
    });
}

#[test]
fn mi_symmetry() {
    cases(0x35, 256, |c| {
        let (xs, ys) = pairs(c, 199);
        let a = mutual_information(&xs, &ys);
        assert!((a - mutual_information(&ys, &xs)).abs() < 1e-9);
    });
}

#[test]
fn binary_entropy_symmetry() {
    for p in probabilities() {
        let h = binary_entropy(p);
        assert!((h - binary_entropy(1.0 - p)).abs() < 1e-9);
        assert!((-1e-9..=1.0 + 1e-9).contains(&h), "{p}: {h}");
    }
}

#[test]
fn bsc_capacity_bounded() {
    // The slack is for rounding on both sides: a noiseless channel (p = 0
    // or 1) carries exactly one bit, a fair coin none.
    for p in probabilities() {
        let c = bsc_capacity(p);
        assert!((-1e-12..=1.0 + 1e-12).contains(&c), "{p}: {c}");
    }
    assert_eq!([0.0, 0.5, 1.0].map(bsc_capacity), [1.0, 0.0, 1.0]);
}

#[test]
fn score_transfer_is_lawful() {
    cases(0x5C, 256, |c| {
        let (n, m, rounds) = (c.int(0, 63), c.int(0, 63), c.int(1, 9_999));
        let (secret, recovered) = (symbols(c, n, 255), symbols(c, m, 255));
        let s = score_transfer(&secret, &recovered, rounds);
        assert_eq!(s.bits_attempted, secret.len() * 8);
        assert!(s.bits_correct <= s.bits_attempted);
        assert!((0.0..=1.0).contains(&s.error_rate), "{}", s.error_rate);
        assert!(s.bits_per_round >= 0.0);
        assert!(s.bits_per_round <= s.bits_attempted as f64 / rounds as f64 + 1e-9);
    });
}

#[test]
fn perfect_recovery_scores_zero_error() {
    cases(0x9E, 256, |c| {
        let len = c.int(1, 63);
        let secret = symbols(c, len, 255);
        let s = score_transfer(&secret, &secret, 100);
        assert!(s.error_rate.abs() < 1e-12);
        assert_eq!(s.bits_correct, s.bits_attempted);
    });
}
