//! The black (network-side) component of the SNFE.
//!
//! Black receives encrypted payloads from the crypto and headers from the
//! censor, pairs them by sequence number, and transmits `header ‖ payload`
//! to the network. It never sees cleartext user data at all.

use super::red::Header;
use crate::component::{Component, ComponentIo};
use std::any::Any;
use std::collections::BTreeMap;

/// The black component.
#[derive(Debug, Clone, Default)]
pub struct BlackComponent {
    headers: BTreeMap<u16, Vec<u8>>,
    payloads: BTreeMap<u16, Vec<u8>>,
    /// Frames transmitted to the network.
    pub transmitted: u64,
}

impl BlackComponent {
    /// A fresh black component.
    pub fn new() -> BlackComponent {
        BlackComponent::default()
    }

    /// Packets waiting for their other half.
    pub fn unmatched(&self) -> usize {
        self.headers.len() + self.payloads.len()
    }
}

impl Component for BlackComponent {
    fn name(&self) -> &str {
        "black"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        while let Some(frame) = io.recv("bypass.in") {
            if let Some(h) = Header::decode(&frame) {
                self.headers.insert(h.seq, frame);
            }
            // Frames that do not parse as headers cannot be matched to a
            // payload; they are dropped (a censor in `off` mode may forward
            // such junk).
        }
        while let Some(frame) = io.recv("crypto.in") {
            if frame.len() >= 2 {
                let seq = u16::from_le_bytes([frame[0], frame[1]]);
                self.payloads.insert(seq, frame);
            }
        }
        // Transmit every matched pair, in sequence order.
        let ready: Vec<u16> = self
            .headers
            .keys()
            .filter(|seq| self.payloads.contains_key(seq))
            .copied()
            .collect();
        for seq in ready {
            let header = self.headers.remove(&seq).unwrap();
            let payload = self.payloads.remove(&seq).unwrap();
            let mut out = header;
            out.extend_from_slice(&payload);
            io.send("net.out", &out);
            io.recycle(payload);
            io.recycle(out);
            self.transmitted += 1;
        }
    }

    // Only a matched pair is sent, and it leaves in the round that
    // matches it; with none waiting, only an arriving frame can make a
    // round send.
    fn quiet_rounds(&self, _round: u64) -> u64 {
        if self
            .headers
            .keys()
            .any(|seq| self.payloads.contains_key(seq))
        {
            0
        } else {
            u64::MAX
        }
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
    use crate::snfe::red::HEADER_LEN;

    fn header(seq: u16) -> Vec<u8> {
        Header {
            seq,
            len: 4,
            dst: 1,
            pad: 0,
        }
        .encode()
        .to_vec()
    }

    fn payload(seq: u16, body: &[u8]) -> Vec<u8> {
        let mut p = seq.to_le_bytes().to_vec();
        p.extend(body);
        p
    }

    #[test]
    fn pairs_header_and_payload_by_seq() {
        let mut b = BlackComponent::new();
        let mut io = TestIo::new();
        io.push("bypass.in", &header(5));
        io.push("crypto.in", &payload(5, b"ct"));
        io.run(&mut b, 1);
        let out = io.take_sent("net.out");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), HEADER_LEN + 2 + 2);
        assert_eq!(b.transmitted, 1);
        assert_eq!(b.unmatched(), 0);
    }

    #[test]
    fn waits_for_the_missing_half() {
        let mut b = BlackComponent::new();
        let mut io = TestIo::new();
        io.push("bypass.in", &header(1));
        io.run(&mut b, 1);
        assert!(io.sent("net.out").is_empty());
        assert_eq!(b.unmatched(), 1);
        io.push("crypto.in", &payload(1, b"xx"));
        io.run(&mut b, 1);
        assert_eq!(io.sent("net.out").len(), 1);
    }

    #[test]
    fn transmits_in_sequence_order() {
        let mut b = BlackComponent::new();
        let mut io = TestIo::new();
        io.push("bypass.in", &header(2));
        io.push("bypass.in", &header(1));
        io.push("crypto.in", &payload(2, b"b"));
        io.push("crypto.in", &payload(1, b"a"));
        io.run(&mut b, 1);
        let out = io.take_sent("net.out");
        let seqs: Vec<u16> = out
            .iter()
            .map(|f| Header::decode(&f[..HEADER_LEN]).unwrap().seq)
            .collect();
        assert_eq!(seqs, vec![1, 2]);
    }

    #[test]
    fn junk_on_the_bypass_is_dropped() {
        let mut b = BlackComponent::new();
        let mut io = TestIo::new();
        io.push("bypass.in", b"not a header");
        io.push("crypto.in", &payload(9, b"orphan"));
        io.run(&mut b, 1);
        assert!(io.sent("net.out").is_empty());
        assert_eq!(b.unmatched(), 1);
    }
}
