//! The censor on the cleartext bypass.
//!
//! > "A 'censor' is inserted into the bypass to perform rigid procedural
//! > checks on the traffic passing through — to check that it has the
//! > appearance of legitimate protocol exchanges, rather than raw
//! > cleartext. A fairly simple censor can reduce the bandwidth available
//! > for illicit communication over the bypass to an acceptable level."
//!
//! The censor's strictness is a dial with three independent knobs, swept by
//! experiment E4:
//!
//! * **format checking** — frames must parse as legitimate headers (magic,
//!   length bound, valid destination);
//! * **canonicalization** — the header is *re-built* from its semantic
//!   fields, zeroing the padding and squashing any encoding games;
//! * **rate limiting** — at most `n` headers per 64-round window.

use super::red::Header;
#[cfg(test)]
use super::red::HEADER_LEN;
use crate::component::{Component, ComponentIo};
use std::any::Any;

/// Window length (rounds) for rate limiting.
pub const RATE_WINDOW: u64 = 64;

/// Maximum payload length a header may announce.
pub const MAX_ANNOUNCED_LEN: u16 = 4096;

/// Highest valid destination selector.
pub const MAX_DST: u8 = 3;

/// The censor's configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CensorPolicy {
    /// Require frames to parse as legitimate headers.
    pub check_format: bool,
    /// Rebuild headers from parsed fields (zeroing covert-capable bits).
    pub canonicalize: bool,
    /// Maximum headers forwarded per [`RATE_WINDOW`] rounds.
    pub rate_limit: Option<u32>,
}

impl CensorPolicy {
    /// No checking at all: the bypass is a wire (the baseline E4 measures
    /// against).
    pub fn off() -> CensorPolicy {
        CensorPolicy {
            check_format: false,
            canonicalize: false,
            rate_limit: None,
        }
    }

    /// Format checking only.
    pub fn format_only() -> CensorPolicy {
        CensorPolicy {
            check_format: true,
            canonicalize: false,
            rate_limit: None,
        }
    }

    /// Format checking plus canonicalization.
    pub fn canonical() -> CensorPolicy {
        CensorPolicy {
            check_format: true,
            canonicalize: true,
            rate_limit: None,
        }
    }

    /// Everything on: format, canonicalization, and a rate limit.
    pub fn strict() -> CensorPolicy {
        CensorPolicy {
            check_format: true,
            canonicalize: true,
            rate_limit: Some(16),
        }
    }
}

/// The censor component.
#[derive(Debug, Clone)]
pub struct Censor {
    policy: CensorPolicy,
    window_start: u64,
    window_count: u32,
    /// Headers forwarded.
    pub passed: u64,
    /// Frames dropped for format violations.
    pub dropped_format: u64,
    /// Frames dropped by rate limiting.
    pub dropped_rate: u64,
}

impl Censor {
    /// A censor with the given policy.
    pub fn new(policy: CensorPolicy) -> Censor {
        Censor {
            policy,
            window_start: 0,
            window_count: 0,
            passed: 0,
            dropped_format: 0,
            dropped_rate: 0,
        }
    }

    /// Applies the policy to one frame: `Some(out)` forwards, `None` drops.
    fn police(&mut self, frame: &[u8], round: u64) -> Option<Vec<u8>> {
        // Rate limiting first: even well-formed floods are suspect.
        if let Some(limit) = self.policy.rate_limit {
            if round.saturating_sub(self.window_start) >= RATE_WINDOW {
                self.window_start = round;
                self.window_count = 0;
            }
            if self.window_count >= limit {
                self.dropped_rate += 1;
                return None;
            }
        }
        let out = if self.policy.check_format {
            let Some(h) = Header::decode(frame) else {
                self.dropped_format += 1;
                return None;
            };
            if h.len > MAX_ANNOUNCED_LEN || h.dst > MAX_DST {
                self.dropped_format += 1;
                return None;
            }
            if self.policy.canonicalize {
                // Rebuild the header from its semantic content: the padding
                // byte is forced to zero and any hidden structure in the
                // encoding disappears.
                Header { pad: 0, ..h }.encode().to_vec()
            } else {
                frame.to_vec()
            }
        } else {
            frame.to_vec()
        };
        self.window_count += 1;
        self.passed += 1;
        Some(out)
    }
}

impl Component for Censor {
    fn name(&self) -> &str {
        "censor"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let round = io.round();
        while let Some(frame) = io.recv("red.in") {
            if let Some(out) = self.police(&frame, round) {
                io.send("black.out", &out);
            }
            io.recycle(frame);
        }
    }

    // The rate window moves only when a frame is policed.
    fn quiet_rounds(&self, _round: u64) -> u64 {
        u64::MAX
    }

    fn advance(&mut self, _round: u64, _n: u64) {}

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TestIo;

    fn header(pad: u8) -> Vec<u8> {
        Header {
            seq: 1,
            len: 10,
            dst: 1,
            pad,
        }
        .encode()
        .to_vec()
    }

    #[test]
    fn off_policy_is_a_wire() {
        let mut c = Censor::new(CensorPolicy::off());
        let mut io = TestIo::new();
        io.push("red.in", b"raw cleartext, not a header at all");
        io.run(&mut c, 1);
        assert_eq!(io.sent("black.out").len(), 1);
        assert_eq!(c.passed, 1);
    }

    #[test]
    fn format_check_drops_raw_cleartext() {
        let mut c = Censor::new(CensorPolicy::format_only());
        let mut io = TestIo::new();
        io.push("red.in", b"raw cleartext, not a header at all");
        io.push("red.in", &header(0));
        io.run(&mut c, 1);
        assert_eq!(io.sent("black.out").len(), 1);
        assert_eq!(c.dropped_format, 1);
    }

    #[test]
    fn format_check_enforces_field_bounds() {
        let mut c = Censor::new(CensorPolicy::format_only());
        let mut io = TestIo::new();
        let bad_dst = Header {
            seq: 0,
            len: 1,
            dst: 9,
            pad: 0,
        };
        let bad_len = Header {
            seq: 0,
            len: MAX_ANNOUNCED_LEN + 1,
            dst: 0,
            pad: 0,
        };
        io.push("red.in", &bad_dst.encode());
        io.push("red.in", &bad_len.encode());
        io.run(&mut c, 1);
        assert!(io.sent("black.out").is_empty());
        assert_eq!(c.dropped_format, 2);
    }

    #[test]
    fn format_only_lets_pad_bits_through_canonical_zeroes_them() {
        // Format checking alone still leaks the pad byte.
        let mut c = Censor::new(CensorPolicy::format_only());
        let mut io = TestIo::new();
        io.push("red.in", &header(0xAB));
        io.run(&mut c, 1);
        assert_eq!(Header::decode(&io.sent("black.out")[0]).unwrap().pad, 0xAB);

        // Canonicalization erases it.
        let mut c = Censor::new(CensorPolicy::canonical());
        let mut io = TestIo::new();
        io.push("red.in", &header(0xAB));
        io.run(&mut c, 1);
        assert_eq!(Header::decode(&io.sent("black.out")[0]).unwrap().pad, 0);
    }

    #[test]
    fn rate_limit_bounds_headers_per_window() {
        let mut c = Censor::new(CensorPolicy {
            check_format: true,
            canonicalize: true,
            rate_limit: Some(3),
        });
        let mut io = TestIo::new();
        for _ in 0..10 {
            io.push("red.in", &header(0));
        }
        io.run(&mut c, 1);
        assert_eq!(io.sent("black.out").len(), 3);
        assert_eq!(c.dropped_rate, 7);
        // A new window opens after RATE_WINDOW rounds.
        io.now = RATE_WINDOW + 1;
        io.push("red.in", &header(0));
        io.run(&mut c, 1);
        assert_eq!(c.passed, 4);
    }

    #[test]
    fn header_length_is_the_only_accepted_shape() {
        let mut c = Censor::new(CensorPolicy::format_only());
        let mut io = TestIo::new();
        io.push("red.in", &[0x5A; HEADER_LEN + 1]);
        io.push("red.in", &[0x5A; HEADER_LEN - 1]);
        io.run(&mut c, 1);
        assert!(io.sent("black.out").is_empty());
    }
}
