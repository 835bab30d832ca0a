//! Wires: dedicated, unidirectional communication lines — optionally lossy,
//! with CRC-16 framing so endpoints can tell a damaged frame from a good
//! one.
//!
//! A frame is its payload followed by the payload's CRC-16/CCITT,
//! little-endian. Senders build a frame's bytes in one buffer and seal it
//! there; receivers check a frame where it lies and [`deframe`] hands back
//! the verified payload as a borrowed slice. The buffer comes from the
//! executor's frame pool ([`crate::NodeIo::buffer`]) and goes back to it
//! once consumed, so in steady state a transmission allocates nothing. The
//! pool keeps the capacity rule of [`sep_model::bufpool`]: a frame of up to
//! `FRAME_CAP` (64) bytes rides in a buffer of exactly that capacity, a
//! longer one in a buffer of exactly its length, so a buffer's capacity is
//! a function of its frame's length and carries nothing from earlier
//! frames. The checksum takes four bytes per step from four 256-entry
//! tables built at compile time and the remainder a byte at a time from the
//! first — the same polynomial and initial value as the textbook bit-serial
//! loop, so every frame's bytes are those of the eight-shifts-per-byte
//! form.

use sep_fault::{LossModel, WireFault};
use sep_model::bufpool::BufPool;
use std::collections::VecDeque;
use std::fmt;

/// Typed error for pushing onto a wire that has no room. Senders that
/// checked [`Wire::has_room`] first never see it; the round executor's
/// commit phase translates it into an over-capacity drop (a loss-model
/// duplicate can fill the last slot ahead of an admitted frame) instead of
/// a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireOverflow;

impl fmt::Display for WireOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire overflow")
    }
}

impl std::error::Error for WireOverflow {}

/// CRC-16/CCITT's generator polynomial.
const CRC_POLY: u16 = 0x1021;

/// `CRC_TABLES[k][i]` is the register after shifting byte `i`, then `k`
/// zero bytes, through eight steps of the generator each, from zero. The
/// CRC is linear, so four bytes XORed into a zero register are the XOR of
/// four lookups: one lookup per table stands in for 32 shift-and-xor steps.
const CRC_TABLES: [[u16; 256]; 4] = {
    let mut tables = [[0u16; 256]; 4];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ CRC_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 4 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-16/CCITT (poly 0x1021, init 0xFFFF) over a byte slice. Detects every
/// single-bit error — which is exactly the damage a [`LossModel`] corrupt
/// fault inflicts, so a corrupted frame can never pass the check.
pub fn crc16(bytes: &[u8]) -> u16 {
    let [t0, t1, t2, t3] = &CRC_TABLES;
    let mut words = bytes.chunks_exact(4);
    // The register's two bytes fold into the first two of each word; the
    // folded word is then pushed through a zero register.
    let crc = words.by_ref().fold(0xFFFF, |crc: u16, w| {
        let [hi, lo] = crc.to_be_bytes();
        t3[usize::from(hi ^ w[0])]
            ^ t2[usize::from(lo ^ w[1])]
            ^ t1[usize::from(w[2])]
            ^ t0[usize::from(w[3])]
    });
    words.remainder().iter().fold(crc, |crc, &b| {
        (crc << 8) ^ t0[usize::from((crc >> 8) as u8 ^ b)]
    })
}

/// Seals the frame built in `buf`: appends the CRC-16 of everything in it
/// (little-endian), so the buffer that held the bytes becomes the frame.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let crc = crc16(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Wraps a payload in a CRC-16 frame (payload then checksum,
/// little-endian).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(payload.len() + 2);
    f.extend_from_slice(payload);
    seal(&mut f);
    f
}

/// Checks a CRC-16 frame in place, returning its payload only when the
/// checksum verifies. `None` is the caller's signal to count and discard.
pub fn deframe(framed: &[u8]) -> Option<&[u8]> {
    let split = framed.len().checked_sub(2)?;
    let (payload, tail) = framed.split_at(split);
    (crc16(payload) == u16::from_le_bytes([tail[0], tail[1]])).then_some(payload)
}

/// A unidirectional FIFO line between two node ports.
#[derive(Debug, Clone)]
pub struct Wire {
    /// Source node index.
    pub from_node: usize,
    /// Source port name.
    pub from_port: String,
    /// Destination node index.
    pub to_node: usize,
    /// Destination port name.
    pub to_port: String,
    /// Maximum messages in flight.
    pub capacity: usize,
    /// Rounds between send and earliest delivery (≥ 1).
    pub latency: u64,
    /// Frames this wire silently discarded.
    pub dropped: u64,
    /// Frames this wire delivered twice.
    pub duplicated: u64,
    /// Frames this wire delivered with a bit flipped.
    pub corrupted: u64,
    /// Frame pairs this wire swapped in flight.
    pub reordered: u64,
    loss: Option<LossModel>,
    queue: VecDeque<(u64, Vec<u8>)>, // (deliverable-at round, payload)
}

impl Wire {
    /// A wire with the given capacity and latency.
    pub fn new(
        from_node: usize,
        from_port: &str,
        to_node: usize,
        to_port: &str,
        capacity: usize,
        latency: u64,
    ) -> Wire {
        assert!(capacity > 0, "wire capacity must be positive");
        assert!(latency > 0, "wire latency must be at least one round");
        Wire {
            from_node,
            from_port: from_port.to_string(),
            to_node,
            to_port: to_port.to_string(),
            capacity,
            latency,
            dropped: 0,
            duplicated: 0,
            corrupted: 0,
            reordered: 0,
            loss: None,
            queue: VecDeque::new(),
        }
    }

    /// Attaches a seeded loss model, builder-style.
    pub fn with_loss(mut self, loss: LossModel) -> Wire {
        self.set_loss(loss);
        self
    }

    /// Attaches a seeded loss model to an already-built wire.
    pub fn set_loss(&mut self, loss: LossModel) {
        self.loss = Some(loss);
    }

    /// True when another message can be enqueued.
    pub fn has_room(&self) -> bool {
        self.queue.len() < self.capacity
    }

    /// Number of messages in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// Enqueues a message sent at `round`. A lossy wire rolls the frame's
    /// fate here: the *sender* still sees a successful send — that is what
    /// makes the loss silent and retransmission necessary.
    ///
    /// Returns [`WireOverflow`] when the wire is full; callers normally
    /// check [`Wire::has_room`] first and translate the error into
    /// back-pressure. A duplicate's copy is a fresh buffer; see
    /// [`Wire::push_pooled`] for the executor's recycling form.
    pub fn push(&mut self, round: u64, msg: Vec<u8>) -> Result<(), WireOverflow> {
        self.push_pooled(round, msg, &mut BufPool::default())
    }

    /// [`Wire::push`] with the frame buffers it makes and discards moving
    /// through `pool`: a duplicate takes its copy from the pool, and a
    /// dropped frame (a loss-model drop, a duplicate without room, or a
    /// frame refused for overflow) goes back to it.
    pub fn push_pooled(
        &mut self,
        round: u64,
        msg: Vec<u8>,
        pool: &mut BufPool,
    ) -> Result<(), WireOverflow> {
        if !self.has_room() {
            pool.give(msg);
            return Err(WireOverflow);
        }
        let deliver_at = round + self.latency;
        // Roll the fate and flip the corrupt bit in one borrow of the loss
        // model: a Corrupt fate can only come from a model, so the second
        // lookup the old code `expect`ed on is gone by construction.
        let (fault, corrupt_pos) = match self.loss.as_mut() {
            Some(l) => {
                let fault = l.decide();
                let pos = match fault {
                    WireFault::Corrupt if !msg.is_empty() => Some(l.corrupt_pos(msg.len())),
                    _ => None,
                };
                (fault, pos)
            }
            None => (WireFault::None, None),
        };
        match fault {
            WireFault::None => self.queue.push_back((deliver_at, msg)),
            WireFault::Drop => {
                self.dropped += 1;
                pool.give(msg);
            }
            WireFault::Duplicate => {
                let mut copy = pool.take(msg.len());
                copy.extend_from_slice(&msg);
                self.queue.push_back((deliver_at, copy));
                // The second copy rides only if the wire has room for it.
                if self.has_room() {
                    self.queue.push_back((deliver_at, msg));
                    self.duplicated += 1;
                } else {
                    pool.give(msg);
                }
            }
            WireFault::Corrupt => {
                let mut msg = msg;
                if let Some((byte, bit)) = corrupt_pos {
                    msg[byte] ^= 1 << bit;
                    self.corrupted += 1;
                }
                self.queue.push_back((deliver_at, msg));
            }
            WireFault::Reorder => {
                self.queue.push_back((deliver_at, msg));
                let n = self.queue.len();
                if n >= 2 {
                    // Swap payloads but keep each slot's delivery time, so
                    // reordering never smuggles a frame past the latency.
                    let last = std::mem::take(&mut self.queue[n - 1].1);
                    let prev = std::mem::replace(&mut self.queue[n - 2].1, last);
                    self.queue[n - 1].1 = prev;
                    self.reordered += 1;
                }
            }
        }
        Ok(())
    }

    /// Dequeues the next message deliverable at `round`, if any.
    pub fn pop_deliverable(&mut self, round: u64) -> Option<Vec<u8>> {
        match self.queue.front() {
            Some((at, _)) if *at <= round => self.queue.pop_front().map(|(_, m)| m),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_respects_latency() {
        let mut w = Wire::new(0, "out", 1, "in", 4, 2);
        w.push(10, vec![1]).unwrap();
        assert_eq!(w.pop_deliverable(10), None);
        assert_eq!(w.pop_deliverable(11), None);
        assert_eq!(w.pop_deliverable(12), Some(vec![1]));
        assert_eq!(w.pop_deliverable(12), None);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut w = Wire::new(0, "out", 1, "in", 4, 1);
        w.push(0, vec![1]).unwrap();
        w.push(0, vec![2]).unwrap();
        assert_eq!(w.pop_deliverable(5), Some(vec![1]));
        assert_eq!(w.pop_deliverable(5), Some(vec![2]));
    }

    #[test]
    fn capacity_limits_in_flight() {
        let mut w = Wire::new(0, "out", 1, "in", 2, 1);
        w.push(0, vec![1]).unwrap();
        w.push(0, vec![2]).unwrap();
        assert!(!w.has_room());
        assert_eq!(w.in_flight(), 2);
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let mut w = Wire::new(0, "out", 1, "in", 1, 1);
        w.push(0, vec![1]).unwrap();
        assert_eq!(w.push(0, vec![2]), Err(WireOverflow));
        assert_eq!(w.in_flight(), 1, "rejected frame not enqueued");
    }

    #[test]
    #[should_panic(expected = "latency must be at least one round")]
    fn zero_latency_rejected() {
        Wire::new(0, "a", 1, "b", 1, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        // A zero-capacity wire could never carry anything and `has_room`
        // would be constant false — constructing one is a config bug.
        Wire::new(0, "a", 1, "b", 0, 1);
    }

    #[test]
    fn same_round_pushes_deliver_in_push_order() {
        let mut w = Wire::new(0, "out", 1, "in", 4, 3);
        w.push(7, vec![1]).unwrap();
        w.push(7, vec![2]).unwrap();
        w.push(7, vec![3]).unwrap();
        // All three mature at the same round and come out FIFO.
        assert_eq!(w.pop_deliverable(10), Some(vec![1]));
        assert_eq!(w.pop_deliverable(10), Some(vec![2]));
        assert_eq!(w.pop_deliverable(10), Some(vec![3]));
        assert_eq!(w.pop_deliverable(10), None);
    }

    #[test]
    fn delivery_at_exact_round_boundary() {
        // Deliverable at exactly round + latency: one round earlier is too
        // soon, the boundary round itself is not.
        let mut w = Wire::new(0, "out", 1, "in", 2, 1);
        w.push(5, vec![9]).unwrap();
        assert_eq!(w.pop_deliverable(5), None, "same round is too soon");
        assert_eq!(w.pop_deliverable(6), Some(vec![9]), "boundary delivers");
        w.push(u64::MAX - 1, vec![8]).unwrap();
        assert_eq!(w.pop_deliverable(u64::MAX), Some(vec![8]));
    }

    #[test]
    fn lossless_wire_with_model_rates_zero_is_transparent() {
        let mut w = Wire::new(0, "out", 1, "in", 8, 1).with_loss(LossModel::new(1));
        for i in 0..8u8 {
            w.push(0, vec![i]).unwrap();
        }
        for i in 0..8u8 {
            assert_eq!(w.pop_deliverable(1), Some(vec![i]));
        }
        assert_eq!(w.dropped + w.duplicated + w.corrupted + w.reordered, 0);
    }

    #[test]
    fn dropping_wire_loses_frames_silently() {
        let mut w =
            Wire::new(0, "out", 1, "in", 1024, 1).with_loss(LossModel::new(42).with_drop(1000));
        for _ in 0..64 {
            w.push(0, vec![1]).unwrap(); // "succeeds" from the sender's view
        }
        assert_eq!(w.in_flight(), 0);
        assert_eq!(w.dropped, 64);
    }

    #[test]
    fn corruption_flips_exactly_one_bit() {
        let mut w =
            Wire::new(0, "out", 1, "in", 8, 1).with_loss(LossModel::new(3).with_corrupt(1000));
        w.push(0, vec![0x55, 0xAA]).unwrap();
        let got = w.pop_deliverable(1).unwrap();
        let diff: u32 = got
            .iter()
            .zip([0x55u8, 0xAA])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(w.corrupted, 1);
    }

    #[test]
    fn reorder_swaps_payloads_not_delivery_times() {
        // 100% reorder: each push swaps with the frame ahead of it.
        let mut w =
            Wire::new(0, "out", 1, "in", 8, 2).with_loss(LossModel::new(9).with_reorder(1000));
        w.push(0, vec![1]).unwrap(); // nothing ahead: delivered as-is
        w.push(0, vec![2]).unwrap(); // swaps with [1]
        assert_eq!(w.reordered, 1);
        assert_eq!(w.pop_deliverable(2), Some(vec![2]));
        assert_eq!(w.pop_deliverable(2), Some(vec![1]));
    }

    #[test]
    fn pooled_pushes_copy_duplicates_into_pool_buffers_and_return_drops() {
        let mut pool = BufPool::new(8);
        let mut dup =
            Wire::new(0, "out", 1, "in", 1, 1).with_loss(LossModel::new(5).with_duplicate(1000));
        // No room for the second copy: the pooled copy rides, the
        // original goes back to the pool.
        let mut frame = pool.take(3);
        frame.extend_from_slice(&[1, 2, 3]);
        dup.push_pooled(0, frame, &mut pool).unwrap();
        assert_eq!(pool.len(), 1, "the copy without room came back");
        let copy = dup.pop_deliverable(1).unwrap();
        assert_eq!(
            (copy.as_slice(), copy.capacity()),
            (&[1u8, 2, 3][..], sep_model::bufpool::FRAME_CAP)
        );
        let mut lossy =
            Wire::new(0, "out", 1, "in", 4, 1).with_loss(LossModel::new(5).with_drop(1000));
        lossy.push_pooled(0, pool.take(2), &mut pool).unwrap();
        assert_eq!(
            (lossy.dropped, pool.len()),
            (1, 1),
            "a dropped frame came back"
        );
        let mut full = Wire::new(0, "out", 1, "in", 1, 1);
        full.push(0, vec![9]).unwrap();
        assert_eq!(
            full.push_pooled(0, pool.take(1), &mut pool),
            Err(WireOverflow)
        );
        assert_eq!(pool.len(), 1, "an overflowing frame came back");
    }

    #[test]
    fn crc_roundtrip_and_rejection() {
        let payload = b"separation".to_vec();
        let f = frame(&payload);
        assert_eq!(deframe(&f), Some(&payload[..]));
        // Any single flipped bit — payload or checksum — is caught.
        for byte in 0..f.len() {
            for bit in 0..8 {
                let mut bad = f.clone();
                bad[byte] ^= 1 << bit;
                assert_eq!(deframe(&bad), None, "flip at {byte}:{bit} accepted");
            }
        }
        assert_eq!(deframe(&[0x12]), None, "truncated frame rejected");
        assert_eq!(deframe(&frame(&[])), Some(&[][..]), "empty payload frames");
    }

    #[test]
    fn crc_matches_the_published_check_value() {
        // CRC-16/CCITT-FALSE's catalogue check value over "123456789".
        assert_eq!(crc16(b"123456789"), 0x29B1);
        assert_eq!(crc16(&[]), 0xFFFF);
    }
}
