//! Small helpers shared by the workloads: medians, digests, span sampling,
//! and the process's memory high-water mark.

use std::time::{Duration, Instant};

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 48-bit FNV-1a digest: exact as a JSON number (below 2^53).
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(mut self, bytes: &[u8]) -> Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn words(self, words: &[u64]) -> Digest {
        words.iter().fold(self, |d, w| d.bytes(&w.to_le_bytes()))
    }

    pub fn value(self) -> u64 {
        (self.0 ^ (self.0 >> 48)) & ((1 << 48) - 1)
    }
}

/// Decides which calls get a span: on average one in `1 << shift`, drawn
/// from a xorshift stream so the choice never locks onto a periodic
/// schedule (a fixed stride would always time the same step of a round).
#[derive(Clone)]
pub struct Sampler {
    state: u64,
    mask: u64,
}

impl Sampler {
    pub fn new(seed: u64, shift: u32) -> Sampler {
        Sampler {
            state: seed | 1,
            mask: (1 << shift) - 1,
        }
    }

    pub fn hit(&mut self) -> bool {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state & self.mask == 0
    }
}

/// Nanoseconds in a duration, as a float.
pub fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// The measurement window: runs repetitions until `seconds` have passed,
/// and at least `min_reps` of them.
pub struct Window {
    start: Instant,
    budget: Duration,
    min_reps: usize,
}

impl Window {
    pub fn new(seconds: u64, min_reps: usize) -> Window {
        Window {
            start: Instant::now(),
            budget: Duration::from_secs(seconds),
            min_reps,
        }
    }

    pub fn more(&self, reps_done: usize) -> bool {
        reps_done < self.min_reps || self.start.elapsed() < self.budget
    }
}

/// The process's peak resident set in MiB (`VmHWM`), or 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

/// The process's current resident set in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    proc_status_kb("VmRSS:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn sampler_rate_is_about_one_in_two_to_the_shift() {
        let mut s = Sampler::new(7, 4);
        let hits = (0..160_000).filter(|_| s.hit()).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
    }

    #[test]
    fn digest_fits_a_json_number_and_sees_every_byte() {
        let a = Digest::new().bytes(b"abc").value();
        let b = Digest::new().bytes(b"abd").value();
        assert!(a < 1 << 48 && b < 1 << 48);
        assert_ne!(a, b);
    }
}
