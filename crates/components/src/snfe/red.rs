//! The red (host-side) component of the SNFE.
//!
//! Red handles host protocols: it packetizes cleartext frames from the
//! host, sends a fixed-format **header** over the cleartext bypass (for
//! red/black co-operation) and the **payload** to the crypto. The honest
//! red here is small; the paper's premise is that real red software is "too
//! large and complex to allow its verification" — hence the censor, and
//! hence [`super::malicious::MaliciousRed`].

use crate::component::{Component, ComponentIo};
use std::any::Any;

/// Bypass header length in bytes.
pub const HEADER_LEN: usize = 7;

/// Magic byte opening every legitimate bypass header.
pub const HEADER_MAGIC: u8 = 0x5A;

/// A parsed bypass header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Packet sequence number.
    pub seq: u16,
    /// Payload length in bytes.
    pub len: u16,
    /// Destination selector (0–3 are valid).
    pub dst: u8,
    /// Padding byte; always zero in legitimate traffic.
    pub pad: u8,
}

impl Header {
    /// Serializes the header.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let s = self.seq.to_le_bytes();
        let l = self.len.to_le_bytes();
        [HEADER_MAGIC, s[0], s[1], l[0], l[1], self.dst, self.pad]
    }

    /// Parses a header; `None` when the frame is not even header-shaped.
    pub fn decode(frame: &[u8]) -> Option<Header> {
        if frame.len() != HEADER_LEN || frame[0] != HEADER_MAGIC {
            return None;
        }
        Some(Header {
            seq: u16::from_le_bytes([frame[1], frame[2]]),
            len: u16::from_le_bytes([frame[3], frame[4]]),
            dst: frame[5],
            pad: frame[6],
        })
    }
}

/// The honest red component.
#[derive(Debug, Clone)]
pub struct RedComponent {
    dst: u8,
    next_seq: u16,
    /// Host frames packetized.
    pub packets: u64,
}

impl RedComponent {
    /// A red component addressing destination `dst`.
    pub fn new(dst: u8) -> RedComponent {
        RedComponent {
            dst,
            next_seq: 0,
            packets: 0,
        }
    }
}

impl Component for RedComponent {
    fn name(&self) -> &str {
        "red"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        while let Some(data) = io.recv("host.in") {
            let seq = self.next_seq;
            self.next_seq = self.next_seq.wrapping_add(1);
            let header = Header {
                seq,
                len: data.len().min(u16::MAX as usize) as u16,
                dst: self.dst,
                pad: 0,
            };
            io.send("bypass.out", &header.encode());
            let mut payload = seq.to_le_bytes().to_vec();
            payload.extend(&data);
            io.send("crypto.out", &payload);
            io.recycle(data);
            self.packets += 1;
        }
    }

    // It only answers frames: with none arriving, nothing happens.
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

    #[test]
    fn header_roundtrip() {
        let h = Header {
            seq: 0x1234,
            len: 99,
            dst: 2,
            pad: 0,
        };
        assert_eq!(Header::decode(&h.encode()), Some(h));
        assert_eq!(Header::decode(&[0; HEADER_LEN]), None);
        assert_eq!(Header::decode(&[HEADER_MAGIC, 0]), None);
    }

    #[test]
    fn red_splits_header_and_payload() {
        let mut red = RedComponent::new(1);
        let mut io = TestIo::new();
        io.push("host.in", b"hello net");
        io.run(&mut red, 1);
        let headers = io.take_sent("bypass.out");
        let payloads = io.take_sent("crypto.out");
        assert_eq!(headers.len(), 1);
        assert_eq!(payloads.len(), 1);
        let h = Header::decode(&headers[0]).unwrap();
        assert_eq!(h.seq, 0);
        assert_eq!(h.len, 9);
        assert_eq!(h.dst, 1);
        assert_eq!(h.pad, 0, "honest red pads with zero");
        assert_eq!(&payloads[0][..2], &0u16.to_le_bytes());
        assert_eq!(&payloads[0][2..], b"hello net");
    }

    #[test]
    fn sequence_numbers_advance() {
        let mut red = RedComponent::new(0);
        let mut io = TestIo::new();
        io.push("host.in", b"a");
        io.push("host.in", b"b");
        io.run(&mut red, 1);
        let headers = io.take_sent("bypass.out");
        assert_eq!(Header::decode(&headers[0]).unwrap().seq, 0);
        assert_eq!(Header::decode(&headers[1]).unwrap().seq, 1);
        assert_eq!(red.packets, 2);
    }

    #[test]
    fn user_data_never_crosses_the_bypass() {
        let mut red = RedComponent::new(1);
        let mut io = TestIo::new();
        let secret = b"SECRET PAYLOAD CONTENT";
        io.push("host.in", secret);
        io.run(&mut red, 1);
        for frame in io.sent("bypass.out") {
            assert!(!frame.windows(6).any(|w| secret.windows(6).any(|s| s == w)));
        }
    }
}
