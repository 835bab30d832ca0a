//! Ack/retransmit protocol for lossy wires, with crash-recovery epochs.
//!
//! A [`RetxSender`] and [`RetxReceiver`] pair turn a wire that drops,
//! duplicates, corrupts, and reorders frames into a reliable in-order
//! stream. The machinery is a textbook selective-repeat ARQ, scaled to the
//! round-based executor:
//!
//! * every data frame carries a 16-bit sequence number and a CRC-16
//!   ([`crate::wire::frame`]);
//! * the receiver acks every *valid* data frame (even duplicates — the ack
//!   may be what was lost), rejects any frame failing the CRC, buffers
//!   out-of-order arrivals, and releases payloads strictly in order;
//! * the sender keeps a window of unacked frames and retransmits each when
//!   its timeout expires, doubling the timeout per attempt (exponential
//!   backoff in rounds, the shift capped at [`MAX_BACKOFF_SHIFT`]) so a
//!   congested or dead link is not flooded.
//!
//! Sequence numbers wrap; ordering comparisons use the usual serial-number
//! arithmetic, which is sound only while every sequence number the two
//! ends hold lies fewer than 2^15 apart. The window does not ensure that:
//! it bounds the *unacked* frames, and while the oldest frame stays
//! unacked, acks for later ones free window slots and new sequence numbers
//! keep going out. So the sender also bounds the **span** — from its
//! oldest unacked frame through its newest sent one — below
//! [`MAX_SEQ_SPAN`] = 2^15, holding new frames back until the oldest is
//! acked. Were a long-lost frame to let the span pass 2^15, the receiver
//! would take the far-ahead frames for old duplicates, ack and drop them,
//! and the sender would believe them delivered.
//!
//! Both windows are rings indexed by sequence number. The sender's slot
//! `i` holds frame `base + i`, where `base` is its oldest unacked frame;
//! the receiver's slot `i` holds the early arrival `expected + i`. The span
//! bound caps either ring below 2^15 slots. A frame acked while an older
//! one is not stays in the sender's ring, never retransmitted and not
//! counted against the window, until `base` passes it: the receiver may be
//! holding it behind the gap. The sender retransmits, and returns frames to
//! its queue on a session restart, in slot order from `base`, oldest
//! first — across the 65,535 → 0 wrap too, so a resync there hands the new
//! receiver incarnation every payload in the order the application queued
//! it. A frame is built in
//! one buffer from the executor's frame pool ([`NodeIo::buffer`]) and
//! sealed there; a received payload is cut out of its frame's own buffer.
//! Every buffer the protocol is done with goes back through
//! [`NodeIo::recycle`]: a consumed ack or resync, a frame a full or unwired
//! port refused, a corrupt, stale or duplicate data frame, and each payload
//! the sender's ring slides past once it is acked. In steady state a
//! transmission therefore allocates nothing, and the pool's capacity rule
//! keeps every buffer's capacity a function of its frame's length.
//!
//! # Epochs and reboot
//!
//! A selective-repeat ARQ is only sound while both endpoints remember the
//! conversation. A rebooted endpoint restarts its sequence space at zero,
//! and without further protection a stale frame or ack from *before* the
//! reboot could be mistaken for a fresh one — a replayed delivery or a
//! mis-ack. The protocol closes this with two epoch bytes:
//!
//! * every receiver has a **boot epoch** — a counter bumped on each reboot
//!   (the one word an endpoint keeps in non-volatile storage, the same
//!   trick as clock-derived TCP initial sequence numbers). Data frames
//!   carry the boot epoch the sender believes; a mismatch means the frame
//!   predates the receiver's current incarnation, so it is dropped unacked
//!   and answered with a [`FRAME_RESYNC`] advertising the true boot epoch;
//! * every sender stamps frames with a **session epoch**, bumped every
//!   time the sender restarts its sequence space (its own reboot, or a
//!   resync forced by the receiver's). Acks echo the session epoch; an ack
//!   from a previous session is counted and dropped, never matched against
//!   the new session's in-flight frames.
//!
//! On resync the sender re-queues every frame from `base` on at the front
//! of the queue, the acked ones held behind a gap included: the new
//! receiver incarnation has lost all prior state, and every frame before
//! `base` was acked with nothing missing before it, so was delivered.
//! Delivery across a receiver reboot is therefore *at least once*: a frame
//! from `base` on that the old incarnation had already delivered comes
//! again (the ack that would have moved `base` past it was lost or still
//! on the wire), and end-to-end duplicate suppression is the business of
//! the layer above (request IDs), not the link. Epochs use the same serial-number arithmetic as sequence
//! numbers, sound while fewer than 128 reboots happen within one frame's
//! lifetime on the wire.
//!
//! A sender whose peer has gone silent backs off until some frame has
//! climbed [`GIVE_UP_ATTEMPTS`] rungs of the retransmit ladder (whether or
//! not the wire accepted each attempt — a dead peer's wire fills up and
//! stays full), then reports [`RetxSender::peer_down`] —
//! a *level*, not an edge: it clears on the first ack or resync, so a
//! recovered peer turns the light off by itself.
//!
//! Each poll resolves its two port names to slots once
//! ([`NodeIo::in_slot`], [`NodeIo::out_slot`]) and moves every frame by
//! slot. An unwired port refuses every frame, exactly as a full wire does.

use crate::node::NodeIo;
use crate::wire::{deframe, seal};
use std::collections::VecDeque;

/// Frame kind byte: application data.
pub const FRAME_DATA: u8 = 0;
/// Frame kind byte: acknowledgement.
pub const FRAME_ACK: u8 = 1;
/// Frame kind byte: epoch resync (receiver advertises its boot epoch).
pub const FRAME_RESYNC: u8 = 2;

/// Cap on the exponential-backoff shift: the retransmit interval saturates
/// at `timeout << MAX_BACKOFF_SHIFT` rounds so a long-dead peer can never
/// push the shift toward overflow.
pub const MAX_BACKOFF_SHIFT: u32 = 5;

/// Backoff-ladder rungs a single frame climbs before the sender reports
/// [`RetxSender::peer_down`].
pub const GIVE_UP_ATTEMPTS: u32 = 8;

/// Bound on a session's sequence span, the count of sequence numbers from
/// the oldest unacked frame through the newest sent one: the sender sends
/// no new frame that would make the span reach it, which keeps the
/// serial-number comparison sound (see the module docs).
pub const MAX_SEQ_SPAN: usize = 1 << 15;

/// Bytes of a data frame ahead of its payload: kind, session epoch,
/// receiver boot epoch, little-endian sequence number.
const DATA_HEADER: usize = 5;

/// Serial-number comparison: true when `a` precedes `b` modulo 2^16.
fn seq_before(a: u16, b: u16) -> bool {
    a != b && b.wrapping_sub(a) < 0x8000
}

/// Serial-number comparison for epoch bytes: true when `a` precedes `b`
/// modulo 2^8.
fn epoch_before(a: u8, b: u8) -> bool {
    a != b && b.wrapping_sub(a) < 0x80
}

/// Bytes of a data frame carrying `payload_len` bytes: header, payload,
/// CRC.
fn data_len(payload_len: usize) -> usize {
    DATA_HEADER + payload_len + 2
}

/// Builds a data frame in the empty buffer `f`: kind, session epoch,
/// receiver boot epoch, little-endian sequence number, payload, CRC.
fn data_frame(mut f: Vec<u8>, session: u8, rx_epoch: u8, seq: u16, payload: &[u8]) -> Vec<u8> {
    f.extend_from_slice(&[FRAME_DATA, session, rx_epoch]);
    f.extend_from_slice(&seq.to_le_bytes());
    f.extend_from_slice(payload);
    seal(&mut f);
    f
}

/// Bytes of an ack frame.
const ACK_LEN: usize = 6;

/// Builds an ack frame in the empty buffer `f`: kind, session epoch,
/// little-endian sequence number, CRC.
fn ack_frame(mut f: Vec<u8>, session: u8, seq: u16) -> Vec<u8> {
    let [lo, hi] = seq.to_le_bytes();
    f.extend_from_slice(&[FRAME_ACK, session, lo, hi]);
    seal(&mut f);
    f
}

/// Bytes of a resync frame.
const RESYNC_LEN: usize = 4;

/// Builds a resync frame in the empty buffer `f`: kind, receiver boot
/// epoch, CRC.
fn resync_frame(mut f: Vec<u8>, boot_epoch: u8) -> Vec<u8> {
    f.extend_from_slice(&[FRAME_RESYNC, boot_epoch]);
    seal(&mut f);
    f
}

/// Sends on a port slot resolved at the top of a poll; an unwired port
/// (no slot) refuses the frame like a full wire. A refused frame goes back
/// to the pool.
fn send_on(io: &mut dyn NodeIo, slot: Option<usize>, frame: Vec<u8>) -> bool {
    let refused = match slot {
        Some(slot) => io.send_to(slot, frame),
        None => Err(frame),
    };
    match refused {
        Ok(()) => true,
        Err(frame) => {
            io.recycle(frame);
            false
        }
    }
}

#[derive(Debug, Clone)]
struct Pending {
    payload: Vec<u8>,
    last_sent: u64,
    attempts: u32,
    /// Selectively acked while an older frame is not: never retransmitted,
    /// but kept, because the receiver may hold it behind that gap and a
    /// reboot of the receiver would lose it.
    acked: bool,
}

impl Pending {
    /// The round this frame's retransmit timer expires: the base timeout
    /// doubles per attempt, the shift saturating at [`MAX_BACKOFF_SHIFT`]
    /// so the arithmetic cannot overflow however long the peer stays dead.
    fn due(&self, timeout: u64) -> u64 {
        self.last_sent + (timeout << self.attempts.min(MAX_BACKOFF_SHIFT))
    }
}

/// The sending half: a bounded window of unacked frames with timeout-driven
/// retransmission, exponential backoff, and epoch resync.
#[derive(Debug, Clone)]
pub struct RetxSender {
    window: usize,
    timeout: u64,
    epoch: u8,
    rx_epoch: u8,
    next_seq: u16,
    /// Sequence number of `ring[0]`, the oldest unacked frame; equal to
    /// `next_seq` while nothing is in flight.
    base: u16,
    /// Slot `i` is frame `base + i`, acked or not. The front slot is never
    /// acked (acks slide the ring past it), so `ring.len()` is the sequence
    /// span `next_seq - base`.
    ring: VecDeque<Pending>,
    /// Unacked frames: the slots of `ring` not yet acked.
    inflight: usize,
    /// No unacked frame falls due before this round. The expiry scan walks
    /// the whole span, acked slots included, so the polls before this
    /// round, most of them, skip it. A lower bound, not exact (an ack can
    /// remove the frame that set it): a poll at or after it rescans.
    next_due: u64,
    queue: VecDeque<Vec<u8>>,
    /// Frames sent more than once.
    pub retransmissions: u64,
    /// Frames acknowledged.
    pub acked: u64,
    /// Acks from a previous session epoch, counted and dropped.
    pub stale_acks_dropped: u64,
    /// Session restarts forced by a receiver resync.
    pub resyncs: u64,
}

impl RetxSender {
    /// A sender with the given window (max unacked frames) and base
    /// retransmit timeout in rounds, starting at session epoch 0.
    pub fn new(window: usize, timeout: u64) -> RetxSender {
        RetxSender::with_epoch(window, timeout, 0)
    }

    /// A sender starting at the given session epoch — the value a rebooted
    /// node reads from its non-volatile boot counter. The receiver's boot
    /// epoch is volatile and relearned via resync (assumed 0 until told).
    pub fn with_epoch(window: usize, timeout: u64, epoch: u8) -> RetxSender {
        assert!(window > 0, "retx window must be positive");
        assert!(timeout > 0, "retx timeout must be at least one round");
        RetxSender {
            window,
            timeout,
            epoch,
            rx_epoch: 0,
            next_seq: 0,
            base: 0,
            ring: VecDeque::new(),
            inflight: 0,
            next_due: u64::MAX,
            queue: VecDeque::new(),
            retransmissions: 0,
            acked: 0,
            stale_acks_dropped: 0,
            resyncs: 0,
        }
    }

    /// The current session epoch stamped on outgoing frames.
    pub fn epoch(&self) -> u8 {
        self.epoch
    }

    /// Queues a payload for reliable delivery.
    pub fn enqueue(&mut self, payload: Vec<u8>) {
        self.queue.push_back(payload);
    }

    /// Payloads not yet acknowledged (queued or in flight).
    pub fn pending(&self) -> usize {
        self.queue.len() + self.inflight
    }

    /// True while some frame has been retransmitted [`GIVE_UP_ATTEMPTS`]
    /// times without an ack. A level, not a latch: the first ack or resync
    /// from a recovered peer clears it.
    pub fn peer_down(&self) -> bool {
        self.ring
            .iter()
            .any(|p| !p.acked && p.attempts >= GIVE_UP_ATTEMPTS)
    }

    /// Marks frame `seq` acknowledged if it is in flight, then slides the
    /// ring past every acknowledged frame at its front: with no frame
    /// missing before them, the receiver has delivered those, and their
    /// payload buffers go back to the pool.
    fn ack(&mut self, io: &mut dyn NodeIo, seq: u16) {
        let slot = usize::from(seq.wrapping_sub(self.base));
        match self.ring.get_mut(slot) {
            Some(p) if !p.acked => p.acked = true,
            _ => return,
        }
        self.inflight -= 1;
        self.acked += 1;
        while self.ring.front().is_some_and(|p| p.acked) {
            if let Some(p) = self.ring.pop_front() {
                io.recycle(p.payload);
            }
            self.base = self.base.wrapping_add(1);
        }
    }

    /// Restarts the session: bump the epoch, return every payload from
    /// `base` on, acked or not, to the front of the queue oldest first, and
    /// reset the sequence space. The bumped epoch makes every outstanding
    /// ack stale.
    fn restart_session(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        for p in self.ring.drain(..).rev() {
            self.queue.push_front(p.payload);
        }
        self.inflight = 0;
        self.next_due = u64::MAX;
        self.base = 0;
        self.next_seq = 0;
        self.resyncs += 1;
    }

    /// One round of protocol work: drain acks and resyncs from `ack_port`,
    /// retransmit expired frames on `data_port`, then fill the window from
    /// the queue.
    pub fn poll(&mut self, io: &mut dyn NodeIo, data_port: &str, ack_port: &str) {
        let data = io.out_slot(data_port);
        let acks = io.in_slot(ack_port);
        // 1. Acks and resyncs. A corrupt frame fails the CRC and is
        //    ignored; the data frame it covered simply retransmits later.
        //    Every frame goes back to the pool once read.
        while let Some(raw) = acks.and_then(|slot| io.recv_from(slot)) {
            match deframe(&raw) {
                // An ack from a previous session: the frame it covers no
                // longer exists. Matching it against the new session's
                // sequence space would mis-ack.
                Some(&[FRAME_ACK, session, _, _]) if session != self.epoch => {
                    self.stale_acks_dropped += 1;
                }
                Some(&[FRAME_ACK, _, lo, hi]) => self.ack(io, u16::from_le_bytes([lo, hi])),
                // The receiver rebooted: adopt its new boot epoch and
                // restart the session. Duplicate or stale resyncs (the
                // wire reorders) compare as not-newer and are ignored.
                Some(&[FRAME_RESYNC, boot]) if epoch_before(self.rx_epoch, boot) => {
                    self.rx_epoch = boot;
                    self.restart_session();
                }
                _ => {}
            }
            io.recycle(raw);
        }
        let now = io.round();
        // 2. Retransmissions, scanned only once some frame may be due.
        if now >= self.next_due {
            self.retransmit_expired(io, data, now);
        }
        // 3. New transmissions, up to the window and below the span bound.
        while self.inflight < self.window && self.ring.len() + 1 < MAX_SEQ_SPAN {
            let Some(payload) = self.queue.pop_front() else {
                break;
            };
            let f = io.buffer(data_len(payload.len()));
            let f = data_frame(f, self.epoch, self.rx_epoch, self.next_seq, &payload);
            if !send_on(io, data, f) {
                // Wire full: put it back and try next round.
                self.queue.push_front(payload);
                break;
            }
            self.next_seq = self.next_seq.wrapping_add(1);
            self.ring.push_back(Pending {
                payload,
                last_sent: now,
                attempts: 0,
                acked: false,
            });
            self.inflight += 1;
            self.next_due = self.next_due.min(now + self.timeout);
        }
    }

    /// Resends every expired frame, oldest first, and recomputes
    /// `next_due` exactly.
    fn retransmit_expired(&mut self, io: &mut dyn NodeIo, data: Option<usize>, now: u64) {
        let mut next_due = u64::MAX;
        for (slot, p) in self.ring.iter_mut().enumerate() {
            if p.acked {
                continue;
            }
            if now >= p.due(self.timeout) {
                let seq = self.base.wrapping_add(slot as u16);
                let f = io.buffer(data_len(p.payload.len()));
                let f = data_frame(f, self.epoch, self.rx_epoch, seq, &p.payload);
                // The backoff ladder advances whether or not the wire
                // accepts the frame: a dead peer's wire fills up and stays
                // full, and the give-up level must still be reached. Only
                // an actual transmission counts as a retransmission.
                if send_on(io, data, f) {
                    self.retransmissions += 1;
                    io.note_retransmit(seq);
                }
                p.last_sent = now;
                p.attempts = p.attempts.saturating_add(1);
            }
            next_due = next_due.min(p.due(self.timeout));
        }
        self.next_due = next_due;
    }
}

/// The receiving half: CRC guard, epoch guard, duplicate suppression,
/// in-order release.
#[derive(Debug, Clone)]
pub struct RetxReceiver {
    boot_epoch: u8,
    session: Option<u8>,
    expected: u16,
    /// Slot `i` holds the payload of frame `expected + i` once it arrived
    /// early; slot 0 is empty between polls (its payload was released).
    ahead: VecDeque<Option<Vec<u8>>>,
    /// Frames rejected by the CRC or malformed past it. Never delivered —
    /// the e9 bench asserts this stays equal to "corrupt frames seen".
    pub corrupt_rejected: u64,
    /// Valid frames ignored as duplicates (still acked).
    pub duplicates_ignored: u64,
    /// Frames from a stale epoch (a pre-reboot straggler or a superseded
    /// session), dropped unacked.
    pub stale_epoch_dropped: u64,
    /// Session adoptions after the first (the sender restarted).
    pub resyncs: u64,
    /// Payloads released to the application, in order.
    pub delivered: u64,
}

impl RetxReceiver {
    /// A receiver at boot epoch 0, expecting sequence 0 first.
    pub fn new() -> RetxReceiver {
        RetxReceiver::with_epoch(0)
    }

    /// A receiver at the given boot epoch — the value a rebooted node
    /// reads from its non-volatile boot counter. Until the sender learns
    /// this epoch (via resync) its frames are dropped as stale.
    pub fn with_epoch(boot_epoch: u8) -> RetxReceiver {
        RetxReceiver {
            boot_epoch,
            session: None,
            expected: 0,
            ahead: VecDeque::new(),
            corrupt_rejected: 0,
            duplicates_ignored: 0,
            stale_epoch_dropped: 0,
            resyncs: 0,
            delivered: 0,
        }
    }

    /// The receiver's own boot epoch.
    pub fn epoch(&self) -> u8 {
        self.boot_epoch
    }

    /// One round of protocol work: drain `data_port`, ack every valid
    /// current-epoch frame on `ack_port` (answering stale-epoch frames
    /// with a single resync instead), and append the in-order payload run
    /// to `out`.
    pub fn poll(
        &mut self,
        io: &mut dyn NodeIo,
        data_port: &str,
        ack_port: &str,
        out: &mut impl Extend<Vec<u8>>,
    ) {
        let data = io.in_slot(data_port);
        let acks = io.out_slot(ack_port);
        let mut resync_wanted = false;
        while let Some(mut raw) = data.and_then(|slot| io.recv_from(slot)) {
            // The CRC guard: damaged frames die here, unacked, before any
            // of their bytes are believed. Every frame not kept goes back
            // to the pool.
            let Some(inner) = deframe(&raw) else {
                self.corrupt_rejected += 1;
                io.recycle(raw);
                continue;
            };
            let &[FRAME_DATA, session, rx_epoch, lo, hi, ..] = inner else {
                self.corrupt_rejected += 1;
                io.recycle(raw);
                continue;
            };
            if rx_epoch != self.boot_epoch {
                // The sender believes a receiver incarnation that no
                // longer exists (or never did). Never ack — an ack would
                // be mistaken for one covering the *new* sequence space.
                // Advertise the true boot epoch instead.
                self.stale_epoch_dropped += 1;
                resync_wanted = true;
                io.recycle(raw);
                continue;
            }
            match self.session {
                None => self.session = Some(session),
                Some(cur) if session == cur => {}
                Some(cur) if epoch_before(cur, session) => {
                    // The sender restarted its sequence space: drop the
                    // old session's buffered fragments and start over.
                    for p in self.ahead.drain(..).flatten() {
                        io.recycle(p);
                    }
                    self.expected = 0;
                    self.session = Some(session);
                    self.resyncs += 1;
                }
                Some(_) => {
                    // A straggler from a superseded session.
                    self.stale_epoch_dropped += 1;
                    io.recycle(raw);
                    continue;
                }
            }
            let seq = u16::from_le_bytes([lo, hi]);
            // Ack even duplicates: the earlier ack may be the thing that
            // was lost. A full ack wire is fine — the data retransmits.
            let ack = ack_frame(io.buffer(ACK_LEN), session, seq);
            send_on(io, acks, ack);
            let slot = usize::from(seq.wrapping_sub(self.expected));
            if seq_before(seq, self.expected) || matches!(self.ahead.get(slot), Some(Some(_))) {
                self.duplicates_ignored += 1;
                io.recycle(raw);
                continue;
            }
            // The payload is the frame minus header and checksum: cut it
            // out of the buffer the wire delivered.
            raw.truncate(raw.len() - 2);
            raw.drain(..DATA_HEADER);
            if slot >= self.ahead.len() {
                self.ahead.resize(slot + 1, None);
            }
            self.ahead[slot] = Some(raw);
        }
        if resync_wanted {
            // One resync per poll is enough: the sender's retransmissions
            // re-trigger it next round if this frame is lost.
            let f = resync_frame(io.buffer(RESYNC_LEN), self.boot_epoch);
            send_on(io, acks, f);
        }
        while let Some(Some(_)) = self.ahead.front() {
            out.extend(self.ahead.pop_front().flatten());
            self.expected = self.expected.wrapping_add(1);
            self.delivered += 1;
        }
    }
}

impl Default for RetxReceiver {
    fn default() -> Self {
        RetxReceiver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use crate::node::Node;
    use sep_fault::LossModel;
    use std::sync::{Arc, Mutex};

    /// Sends `count` numbered payloads reliably.
    struct Source {
        tx: RetxSender,
        fed: usize,
        count: usize,
    }

    impl Node for Source {
        fn name(&self) -> &str {
            "source"
        }
        fn step(&mut self, io: &mut dyn NodeIo) {
            while self.fed < self.count && self.tx.pending() < 64 {
                self.tx.enqueue(vec![self.fed as u8, (self.fed >> 8) as u8]);
                self.fed += 1;
            }
            self.tx.poll(io, "data", "ack");
        }
    }

    /// Collects delivered payloads into a shared vector.
    struct Sink {
        rx: RetxReceiver,
        got: Arc<Mutex<Vec<Vec<u8>>>>,
    }

    impl Node for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn step(&mut self, io: &mut dyn NodeIo) {
            self.rx
                .poll(io, "data", "ack", &mut *self.got.lock().unwrap());
        }
    }

    fn run_transfer(
        count: usize,
        loss: Option<(LossModel, LossModel)>,
        rounds: u64,
    ) -> Vec<Vec<u8>> {
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut net = Network::new();
        let src = net.add_node(Box::new(Source {
            tx: RetxSender::new(8, 4),
            fed: 0,
            count,
        }));
        let dst = net.add_node(Box::new(Sink {
            rx: RetxReceiver::new(),
            got: Arc::clone(&got),
        }));
        match loss {
            Some((data_loss, ack_loss)) => {
                net.connect_lossy(src, "data", dst, "data", 16, 1, data_loss);
                net.connect_lossy(dst, "ack", src, "ack", 16, 1, ack_loss);
            }
            None => {
                net.connect(src, "data", dst, "data", 16, 1);
                net.connect(dst, "ack", src, "ack", 16, 1);
            }
        }
        net.run(rounds);
        let result = got.lock().unwrap().clone();
        result
    }

    fn expected(count: usize) -> Vec<Vec<u8>> {
        (0..count).map(|i| vec![i as u8, (i >> 8) as u8]).collect()
    }

    #[test]
    fn lossless_transfer_is_complete_and_ordered() {
        assert_eq!(run_transfer(40, None, 60), expected(40));
    }

    #[test]
    fn lossy_transfer_recovers_everything_in_order() {
        // 20% drop + 5% each of duplicate/corrupt/reorder on data, 10%
        // drop on acks — and the stream still arrives complete, in order.
        let data_loss = LossModel::new(0xFEED)
            .with_drop(200)
            .with_duplicate(50)
            .with_corrupt(50)
            .with_reorder(50);
        let ack_loss = LossModel::new(0xACED).with_drop(100);
        assert_eq!(
            run_transfer(40, Some((data_loss, ack_loss)), 2000),
            expected(40)
        );
    }

    #[test]
    fn corrupt_frames_are_rejected_never_delivered() {
        let got = Arc::new(Mutex::new(Vec::new()));
        let mut net = Network::new();
        let src = net.add_node(Box::new(Source {
            tx: RetxSender::new(8, 4),
            fed: 0,
            count: 30,
        }));
        let dst = net.add_node(Box::new(Sink {
            rx: RetxReceiver::new(),
            got: Arc::clone(&got),
        }));
        net.connect_lossy(
            src,
            "data",
            dst,
            "data",
            16,
            1,
            LossModel::new(7).with_corrupt(300),
        );
        net.connect(dst, "ack", src, "ack", 16, 1);
        net.run(1000);
        // Every payload arrives intact: the corrupted copies were all
        // stopped at the CRC and made up with retransmissions.
        assert_eq!(got.lock().unwrap().clone(), expected(30));
        let corrupted: u64 = net.wires().iter().map(|w| w.corrupted).sum();
        assert!(corrupted > 0, "loss model never corrupted anything");
    }

    #[test]
    fn retransmissions_counted_in_observability() {
        let mut net = Network::new();
        let src = net.add_node(Box::new(Source {
            tx: RetxSender::new(4, 3),
            fed: 0,
            count: 20,
        }));
        let got = Arc::new(Mutex::new(Vec::new()));
        let dst = net.add_node(Box::new(Sink {
            rx: RetxReceiver::new(),
            got,
        }));
        net.connect_lossy(
            src,
            "data",
            dst,
            "data",
            16,
            1,
            LossModel::new(11).with_drop(400),
        );
        net.connect(dst, "ack", src, "ack", 16, 1);
        net.run(600);
        assert!(
            net.obs.metrics.totals.retransmissions > 0,
            "40% drop must force retransmissions"
        );
        assert_eq!(
            net.obs.metrics.regime(0).map(|c| c.retransmissions),
            Some(net.obs.metrics.totals.retransmissions),
            "only the sender retransmits"
        );
    }

    #[test]
    fn sequence_comparison_wraps() {
        assert!(seq_before(0xFFFF, 0));
        assert!(seq_before(0xFFF0, 0x000F));
        assert!(!seq_before(0, 0xFFFF));
        assert!(!seq_before(5, 5));
        assert!(seq_before(5, 6));
    }

    #[test]
    fn epoch_comparison_wraps() {
        assert!(epoch_before(0xFF, 0));
        assert!(epoch_before(0, 1));
        assert!(!epoch_before(1, 0));
        assert!(!epoch_before(3, 3));
        assert!(epoch_before(0x80, 0x81));
        assert!(!epoch_before(0, 0x80 + 1));
    }

    #[test]
    fn one_resync_per_poll_regardless_of_stale_frame_count() {
        let mut io = PortIo::default();
        let mut rx = RetxReceiver::with_epoch(2);
        for seq in 0..5u16 {
            io.stage("data", data_frame(Vec::new(), 0, 0, seq, b"x"));
        }
        let out = poll_rx(&mut rx, &mut io, "data", "ack");
        assert!(out.is_empty());
        assert_eq!(rx.stale_epoch_dropped, 5);
        assert_eq!(io.resyncs_sent(), vec![2], "one resync with the boot epoch");
        assert!(io.acks_sent().is_empty(), "stale frames are never acked");
    }

    /// The ports a [`PortIo`] knows, in slot order.
    const PORTS: [&str; 6] = ["data", "ack", "rx_data", "rx_ack", "tx_data", "tx_ack"];

    /// A scripted [`NodeIo`] for protocol edge cases: incoming frames are
    /// staged per port, outgoing frames and retransmit notes are recorded.
    /// Every port in [`PORTS`] is wired both ways and never full.
    #[derive(Default)]
    struct PortIo {
        incoming: [VecDeque<Vec<u8>>; PORTS.len()],
        sent: Vec<(String, Vec<u8>)>,
        now: u64,
        retx_notes: Vec<u16>,
    }

    impl PortIo {
        fn stage(&mut self, port: &str, frame: Vec<u8>) {
            let slot = self.in_slot(port).expect("a PortIo port");
            self.incoming[slot].push_back(frame);
        }

        fn acks_sent(&self) -> Vec<u16> {
            self.sent
                .iter()
                .filter(|(port, _)| port == "ack")
                .filter_map(|(_, raw)| deframe(raw))
                .filter(|inner| inner.len() == 4 && inner[0] == FRAME_ACK)
                .map(|inner| u16::from_le_bytes([inner[2], inner[3]]))
                .collect()
        }

        fn resyncs_sent(&self) -> Vec<u8> {
            self.sent
                .iter()
                .filter(|(port, _)| port == "ack")
                .filter_map(|(_, raw)| deframe(raw))
                .filter(|inner| inner.len() == 2 && inner[0] == FRAME_RESYNC)
                .map(|inner| inner[1])
                .collect()
        }

        fn data_sent(&self) -> Vec<(u8, u8, u16, Vec<u8>)> {
            self.sent
                .iter()
                .filter(|(port, _)| port == "data")
                .filter_map(|(_, raw)| deframe(raw))
                .filter(|inner| inner.len() >= 5 && inner[0] == FRAME_DATA)
                .map(|inner| {
                    (
                        inner[1],
                        inner[2],
                        u16::from_le_bytes([inner[3], inner[4]]),
                        inner[5..].to_vec(),
                    )
                })
                .collect()
        }
    }

    impl NodeIo for PortIo {
        fn in_slot(&self, port: &str) -> Option<usize> {
            PORTS.iter().position(|p| *p == port)
        }
        fn out_slot(&self, port: &str) -> Option<usize> {
            self.in_slot(port)
        }
        fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
            self.incoming.get_mut(slot)?.pop_front()
        }
        fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
            self.sent.push((PORTS[slot].to_string(), msg));
            Ok(())
        }
        fn round(&self) -> u64 {
            self.now
        }
        fn note_retransmit(&mut self, seq: u16) {
            self.retx_notes.push(seq);
        }
    }

    /// One receiver poll against a [`PortIo`], returning what it released.
    fn poll_rx(rx: &mut RetxReceiver, io: &mut PortIo, data: &str, ack: &str) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        rx.poll(io, data, ack, &mut out);
        out
    }

    #[test]
    fn duplicate_after_reorder_delivers_once_and_acks_every_copy() {
        // The duplicate-then-reorder edge: the wire duplicated frame 0 and
        // a reorder pushed frame 1 ahead of both copies. The receiver must
        // release each payload exactly once, in order, while still acking
        // all three arrivals (an earlier ack may be what was lost).
        let mut io = PortIo::default();
        io.stage("data", data_frame(Vec::new(), 0, 0, 1, b"one"));
        io.stage("data", data_frame(Vec::new(), 0, 0, 0, b"zero"));
        io.stage("data", data_frame(Vec::new(), 0, 0, 0, b"zero"));
        let mut rx = RetxReceiver::new();
        let out = poll_rx(&mut rx, &mut io, "data", "ack");
        assert_eq!(out, vec![b"zero".to_vec(), b"one".to_vec()]);
        assert_eq!(rx.delivered, 2);
        assert_eq!(rx.duplicates_ignored, 1);
        assert_eq!(io.acks_sent(), vec![1, 0, 0]);
        // A straggler copy of an already-released frame is also ignored —
        // `seq_before` catches it even though the buffer has moved on.
        io.stage("data", data_frame(Vec::new(), 0, 0, 1, b"one"));
        assert!(poll_rx(&mut rx, &mut io, "data", "ack").is_empty());
        assert_eq!(rx.delivered, 2);
        assert_eq!(rx.duplicates_ignored, 2);
    }

    #[test]
    fn duplicated_reordered_acks_never_double_count_retransmissions() {
        // Both inflight frames are long expired when their acks finally
        // arrive — duplicated and reordered by the wire. Acks drain before
        // the expiry scan, so nothing retransmits and nothing is counted
        // twice (`acked` bumps only on the first copy of each ack).
        let mut io = PortIo::default();
        let mut tx = RetxSender::new(4, 2);
        tx.enqueue(b"a".to_vec());
        tx.enqueue(b"b".to_vec());
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.pending(), 2);
        io.now = 10;
        io.stage("ack", ack_frame(Vec::new(), 0, 1));
        io.stage("ack", ack_frame(Vec::new(), 0, 0));
        io.stage("ack", ack_frame(Vec::new(), 0, 0));
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.acked, 2);
        assert_eq!(tx.pending(), 0);
        assert_eq!(tx.retransmissions, 0);
        assert!(io.retx_notes.is_empty(), "no frame was actually resent");
    }

    #[test]
    fn expired_frame_retransmits_once_and_notes_once_per_resend() {
        let mut io = PortIo::default();
        let mut tx = RetxSender::new(4, 2);
        tx.enqueue(b"a".to_vec());
        tx.poll(&mut io, "data", "ack"); // fresh send at round 0
        io.now = 2; // base timeout expired
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.retransmissions, 1);
        assert_eq!(io.retx_notes, vec![0]);
        io.now = 3; // backoff doubled: not expired again yet
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.retransmissions, 1, "backoff suppresses a re-resend");
        io.now = 6; // 2 + (2 << 1) = 6: second expiry
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.retransmissions, 2);
        assert_eq!(io.retx_notes, vec![0, 0]);
    }

    #[test]
    fn retransmissions_and_requeue_across_the_wrap_go_oldest_first() {
        // Four frames straddling 65,535 -> 0 expire together: they resend,
        // and a resync requeues them, in serial order, oldest first.
        let mut io = PortIo::default();
        let mut tx = RetxSender::new(4, 2);
        tx.next_seq = 0xFFFE;
        tx.base = 0xFFFE;
        for p in [b"a", b"b", b"c", b"d"] {
            tx.enqueue(p.to_vec());
        }
        tx.poll(&mut io, "data", "ack");
        let seqs: Vec<u16> = io.data_sent().iter().map(|d| d.2).collect();
        assert_eq!(seqs, [0xFFFE, 0xFFFF, 0, 1]);
        io.now = 2;
        tx.poll(&mut io, "data", "ack");
        assert_eq!(io.retx_notes, [0xFFFE, 0xFFFF, 0, 1]);
        io.sent.clear();
        io.stage("ack", resync_frame(Vec::new(), 1));
        io.now = 3;
        tx.poll(&mut io, "data", "ack");
        let resent: Vec<(u16, Vec<u8>)> = io.data_sent().into_iter().map(|d| (d.2, d.3)).collect();
        assert_eq!(
            resent,
            [(0, b"a"), (1, b"b"), (2, b"c"), (3, b"d")].map(|(q, p)| (q, p.to_vec()))
        );
    }

    #[test]
    fn backoff_shift_saturates_at_the_cap() {
        // Drive one frame through more attempts than MAX_BACKOFF_SHIFT and
        // pin the interval sequence: it doubles up to timeout << cap, then
        // stays flat. With timeout=1 the expected gaps between resends are
        // 1, 2, 4, 8, 16, 32, 32, 32, ... — an uncapped shift would keep
        // doubling (and overflow u64 after attempt 63).
        let mut io = PortIo::default();
        let mut tx = RetxSender::new(1, 1);
        tx.enqueue(b"x".to_vec());
        tx.poll(&mut io, "data", "ack"); // fresh send at round 0
        let mut resend_rounds = Vec::new();
        let mut now = 0u64;
        while resend_rounds.len() < GIVE_UP_ATTEMPTS as usize + 2 {
            now += 1;
            io.now = now;
            let before = tx.retransmissions;
            tx.poll(&mut io, "data", "ack");
            if tx.retransmissions > before {
                resend_rounds.push(now);
            }
            assert!(now < 10_000, "backoff ran away");
        }
        let gaps: Vec<u64> = resend_rounds.windows(2).map(|w| w[1] - w[0]).collect();
        let capped = 1u64 << MAX_BACKOFF_SHIFT;
        assert_eq!(resend_rounds[0], 1, "first resend after the base timeout");
        assert_eq!(
            gaps,
            vec![2, 4, 8, 16, capped, capped, capped, capped, capped],
            "shift must saturate exactly at MAX_BACKOFF_SHIFT"
        );
        // And the give-up level is now lit...
        assert!(tx.peer_down(), "peer silent past GIVE_UP_ATTEMPTS resends");
        // ...until a single ack clears it.
        io.stage("ack", ack_frame(Vec::new(), tx.epoch(), 0));
        tx.poll(&mut io, "data", "ack");
        assert!(!tx.peer_down(), "an ack clears the peer-down level");
    }

    #[test]
    fn receiver_reboot_forces_resync_and_fresh_session() {
        // Sender mid-stream at session 0; the receiver reboots to boot
        // epoch 1. Stale frames are dropped unacked and answered with a
        // resync; the sender restarts the session and redelivers from
        // sequence 0 at session 1.
        let mut io = PortIo::default();
        let mut tx = RetxSender::new(4, 2);
        tx.enqueue(b"a".to_vec());
        tx.enqueue(b"b".to_vec());
        tx.poll(&mut io, "data", "ack"); // seq 0,1 in flight at epoch (0,0)

        // The rebooted receiver sees the in-flight frames: all stale.
        let mut rx = RetxReceiver::with_epoch(1);
        for (_, raw) in io.sent.clone() {
            io.stage("rx_data", raw);
        }
        let out = poll_rx(&mut rx, &mut io, "rx_data", "rx_ack");
        assert!(out.is_empty(), "stale frames must not be delivered");
        assert_eq!(rx.stale_epoch_dropped, 2);
        let resyncs: Vec<Vec<u8>> = io
            .sent
            .iter()
            .filter(|(p, _)| p == "rx_ack")
            .map(|(_, raw)| raw.clone())
            .collect();
        assert_eq!(resyncs.len(), 1, "exactly one resync per poll");

        // The sender adopts the new boot epoch: session bumps, both
        // payloads requeue in order, sequence space restarts.
        io.stage("ack", resyncs[0].clone());
        io.sent.clear();
        io.now = 1;
        tx.poll(&mut io, "data", "ack");
        assert_eq!(tx.resyncs, 1);
        assert_eq!(tx.epoch(), 1);
        let sent = io.data_sent();
        assert_eq!(
            sent,
            vec![(1, 1, 0, b"a".to_vec()), (1, 1, 1, b"b".to_vec()),],
            "redelivery restarts at seq 0, session 1, rx epoch 1"
        );

        // The new receiver incarnation accepts the fresh session.
        for (p, raw) in io.sent.clone() {
            if p == "data" {
                io.stage("rx_data", raw);
            }
        }
        let out = poll_rx(&mut rx, &mut io, "rx_data", "rx_ack");
        assert_eq!(out, vec![b"a".to_vec(), b"b".to_vec()]);
    }

    #[test]
    fn sender_reboot_is_adopted_and_stale_acks_dropped() {
        // A receiver that accepted session 0 up to seq 2 meets a rebooted
        // sender at session 1: it must reset its sequence space and accept
        // the new stream from seq 0 — and the old session's acks must not
        // be believed by the new sender.
        let mut io = PortIo::default();
        let mut rx = RetxReceiver::new();
        io.stage("data", data_frame(Vec::new(), 0, 0, 0, b"old0"));
        io.stage("data", data_frame(Vec::new(), 0, 0, 1, b"old1"));
        let out = poll_rx(&mut rx, &mut io, "data", "ack");
        assert_eq!(out, vec![b"old0".to_vec(), b"old1".to_vec()]);

        // The sender reboots: its boot counter gives session epoch 1.
        let mut tx = RetxSender::with_epoch(4, 2, 1);
        // Stale acks from the old incarnation arrive first.
        io.stage("tx_ack", ack_frame(Vec::new(), 0, 0));
        io.stage("tx_ack", ack_frame(Vec::new(), 0, 1));
        tx.enqueue(b"new0".to_vec());
        tx.poll(&mut io, "tx_data", "tx_ack");
        assert_eq!(tx.stale_acks_dropped, 2);
        assert_eq!(tx.pending(), 1, "stale acks must not clear new frames");

        // The receiver adopts the newer session and delivers from seq 0.
        io.stage("data", data_frame(Vec::new(), 1, 0, 0, b"new0"));
        let out = poll_rx(&mut rx, &mut io, "data", "ack");
        assert_eq!(out, vec![b"new0".to_vec()]);
        assert_eq!(rx.resyncs, 1);
        // A straggler from the superseded session is dropped, unacked.
        let acks_before = io.acks_sent().len();
        io.stage("data", data_frame(Vec::new(), 0, 0, 2, b"old2"));
        assert!(poll_rx(&mut rx, &mut io, "data", "ack").is_empty());
        assert_eq!(rx.stale_epoch_dropped, 1);
        assert_eq!(io.acks_sent().len(), acks_before, "stale frames unacked");
    }

    #[test]
    fn full_reboot_cycle_over_a_lossy_wire_stays_in_order() {
        // End-to-end over real wires: stream 20 payloads, "reboot" the
        // receiver mid-stream (epoch bump, fresh state), and check the
        // tail of the stream still arrives in order at the new
        // incarnation, with the sender's peer-down level cleared.
        let got = Arc::new(Mutex::new(Vec::new()));
        struct RebootingSink {
            rx: RetxReceiver,
            got: Arc<Mutex<Vec<Vec<u8>>>>,
            reboot_at: u64,
            rebooted: bool,
        }
        impl Node for RebootingSink {
            fn name(&self) -> &str {
                "sink"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                if !self.rebooted && io.round() >= self.reboot_at {
                    let epoch = self.rx.epoch().wrapping_add(1);
                    self.rx = RetxReceiver::with_epoch(epoch);
                    self.rebooted = true;
                }
                self.rx
                    .poll(io, "data", "ack", &mut *self.got.lock().unwrap());
            }
        }
        let mut net = Network::new();
        let src = net.add_node(Box::new(Source {
            tx: RetxSender::new(4, 2),
            fed: 0,
            count: 20,
        }));
        let dst = net.add_node(Box::new(RebootingSink {
            rx: RetxReceiver::new(),
            got: Arc::clone(&got),
            reboot_at: 10,
            rebooted: false,
        }));
        net.connect_lossy(
            src,
            "data",
            dst,
            "data",
            16,
            1,
            LossModel::new(0xB007).with_drop(100),
        );
        net.connect(dst, "ack", src, "ack", 16, 1);
        net.run(400);
        let delivered = got.lock().unwrap().clone();
        // The new incarnation re-receives whatever was unacked at reboot
        // time, then the rest — strictly in order with no gaps from the
        // resync point on. The full expected stream is a prefix delivered
        // to the old incarnation, then a suffix (with overlap) to the new.
        let all = expected(20);
        assert_eq!(
            delivered.last(),
            Some(&all[19]),
            "tail of the stream must reach the new incarnation"
        );
    }

    /// A [`Source`] that mirrors its sender counters into a shared cell so
    /// the test can compare them against the network's observability.
    struct CountingSource {
        tx: RetxSender,
        fed: usize,
        count: usize,
        stats: Arc<Mutex<(u64, u64)>>, // (retransmissions, acked)
    }

    impl Node for CountingSource {
        fn name(&self) -> &str {
            "source"
        }
        fn step(&mut self, io: &mut dyn NodeIo) {
            while self.fed < self.count && self.tx.pending() < 64 {
                self.tx.enqueue(vec![self.fed as u8, (self.fed >> 8) as u8]);
                self.fed += 1;
            }
            self.tx.poll(io, "data", "ack");
            *self.stats.lock().unwrap() = (self.tx.retransmissions, self.tx.acked);
        }
    }

    /// A [`Sink`] that mirrors its receiver counters the same way.
    struct CountingSink {
        rx: RetxReceiver,
        got: Arc<Mutex<Vec<Vec<u8>>>>,
        stats: Arc<Mutex<(u64, u64)>>, // (delivered, duplicates_ignored)
    }

    impl Node for CountingSink {
        fn name(&self) -> &str {
            "sink"
        }
        fn step(&mut self, io: &mut dyn NodeIo) {
            self.rx
                .poll(io, "data", "ack", &mut *self.got.lock().unwrap());
            *self.stats.lock().unwrap() = (self.rx.delivered, self.rx.duplicates_ignored);
        }
    }

    #[test]
    fn heavy_duplicate_reorder_loss_stays_exactly_once_with_agreeing_counters() {
        // The regression for the duplicate-then-reorder interaction under a
        // full LossModel: aggressive duplication and reordering on both
        // wires plus drops on data. The stream must arrive complete, in
        // order, exactly once, and the sender's own retransmission counter
        // must agree with the network's observability totals — a double
        // `note_retransmit` (or a missed one) breaks the equality.
        let count = 50;
        let got = Arc::new(Mutex::new(Vec::new()));
        let tx_stats = Arc::new(Mutex::new((0u64, 0u64)));
        let rx_stats = Arc::new(Mutex::new((0u64, 0u64)));
        let mut net = Network::new();
        let src = net.add_node(Box::new(CountingSource {
            tx: RetxSender::new(8, 4),
            fed: 0,
            count,
            stats: Arc::clone(&tx_stats),
        }));
        let dst = net.add_node(Box::new(CountingSink {
            rx: RetxReceiver::new(),
            got: Arc::clone(&got),
            stats: Arc::clone(&rx_stats),
        }));
        let data_loss = LossModel::new(0xD117)
            .with_drop(150)
            .with_duplicate(300)
            .with_reorder(200);
        let ack_loss = LossModel::new(0xD118).with_duplicate(300).with_reorder(200);
        net.connect_lossy(src, "data", dst, "data", 16, 1, data_loss);
        net.connect_lossy(dst, "ack", src, "ack", 16, 1, ack_loss);
        net.run(4000);
        assert_eq!(
            got.lock().unwrap().clone(),
            expected(count),
            "exactly once, in order"
        );
        let (retx, acked) = *tx_stats.lock().unwrap();
        let (delivered, dups_ignored) = *rx_stats.lock().unwrap();
        assert_eq!(delivered, count as u64);
        assert_eq!(acked, count as u64, "each sequence acked exactly once");
        assert_eq!(
            retx, net.obs.metrics.totals.retransmissions,
            "sender counter and observability must agree on every resend"
        );
        let duplicated: u64 = net.wires().iter().map(|w| w.duplicated).sum();
        assert!(duplicated > 0, "loss model never duplicated anything");
        assert!(dups_ignored > 0, "receiver never saw a duplicate");
    }
}
