//! The ARQ against its reference: the sequence-indexed rings, the table
//! CRC and the slot-based ports must put the same frames on the wire, in
//! the same order, and deliver the same payloads with the same counters as
//! `reference` below — `BTreeMap` windows, a bit-serial CRC and string
//! ports, kept as the oracle.
//!
//! Both implementations run in lockstep over identical seeded loopbacks
//! (drops, duplicates, bit flips, reorders, receiver and sender reboots),
//! and every round's data frames, acks, retransmit notes, deliveries and
//! counters are compared; a receiver reboot must redeliver every payload
//! the old incarnation acked but held behind a gap. A last test pins the
//! one place the two must
//! differ: the reference loses payloads once a long-lost frame lets the
//! sequence span pass 2^15, and the span bound delivers them all.

use sep_distributed::retx::{FRAME_DATA, MAX_SEQ_SPAN};
use sep_distributed::{crc16, deframe, frame, NodeIo, RetxReceiver, RetxSender, Wire};
use sep_fault::LossModel;
use sep_model::bufpool::{BufPool, FRAME_CAP};
use sep_model::rng::SplitMix64;

/// The oracle: the ARQ over `BTreeMap` windows and the CRC eight shifts
/// per byte.
#[allow(dead_code)]
mod reference {
    use sep_distributed::NodeIo;
    use std::collections::{BTreeMap, VecDeque};

    /// CRC-16/CCITT (poly 0x1021, init 0xFFFF) over a byte slice. Detects every
    /// single-bit error — which is exactly the damage a [`LossModel`] corrupt
    /// fault inflicts, so a corrupted frame can never pass the check.
    pub fn crc16(bytes: &[u8]) -> u16 {
        let mut crc: u16 = 0xFFFF;
        for &b in bytes {
            crc ^= (b as u16) << 8;
            for _ in 0..8 {
                crc = if crc & 0x8000 != 0 {
                    (crc << 1) ^ 0x1021
                } else {
                    crc << 1
                };
            }
        }
        crc
    }

    /// Wraps a payload in a CRC-16 frame (payload then checksum,
    /// little-endian).
    pub fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = payload.to_vec();
        f.extend_from_slice(&crc16(payload).to_le_bytes());
        f
    }

    /// Unwraps a CRC-16 frame, returning the payload only when the checksum
    /// verifies. `None` is the caller's signal to count and discard.
    pub fn deframe(framed: &[u8]) -> Option<Vec<u8>> {
        if framed.len() < 2 {
            return None;
        }
        let (payload, tail) = framed.split_at(framed.len() - 2);
        let expected = u16::from_le_bytes([tail[0], tail[1]]);
        (crc16(payload) == expected).then(|| payload.to_vec())
    }

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

    /// Serial-number comparison: true when `a` precedes `b` modulo 2^16.
    fn seq_before(a: u16, b: u16) -> bool {
        a != b && b.wrapping_sub(a) < 0x8000
    }

    /// Serial-number comparison for epoch bytes: true when `a` precedes `b`
    /// modulo 2^8.
    fn epoch_before(a: u8, b: u8) -> bool {
        a != b && b.wrapping_sub(a) < 0x80
    }

    /// Builds a data frame: kind, session epoch, receiver boot epoch,
    /// little-endian sequence number, payload, CRC.
    fn data_frame(session: u8, rx_epoch: u8, seq: u16, payload: &[u8]) -> Vec<u8> {
        let mut inner = Vec::with_capacity(5 + payload.len());
        inner.push(FRAME_DATA);
        inner.push(session);
        inner.push(rx_epoch);
        inner.extend_from_slice(&seq.to_le_bytes());
        inner.extend_from_slice(payload);
        frame(&inner)
    }

    /// Builds an ack frame: kind, session epoch, little-endian sequence
    /// number, CRC.
    fn ack_frame(session: u8, seq: u16) -> Vec<u8> {
        let mut inner = Vec::with_capacity(4);
        inner.push(FRAME_ACK);
        inner.push(session);
        inner.extend_from_slice(&seq.to_le_bytes());
        frame(&inner)
    }

    /// Builds a resync frame: kind, receiver boot epoch, CRC.
    fn resync_frame(boot_epoch: u8) -> Vec<u8> {
        frame(&[FRAME_RESYNC, boot_epoch])
    }

    #[derive(Debug, Clone)]
    struct Pending {
        payload: Vec<u8>,
        last_sent: u64,
        attempts: u32,
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
        inflight: BTreeMap<u16, Pending>,
        /// Payloads acked while an older frame is not: never retransmitted,
        /// but kept, since the receiver may hold them behind the gap.
        held: BTreeMap<u16, Vec<u8>>,
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
                inflight: BTreeMap::new(),
                held: BTreeMap::new(),
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
            self.queue.len() + self.inflight.len()
        }

        /// True while some frame has been retransmitted [`GIVE_UP_ATTEMPTS`]
        /// times without an ack. A level, not a latch: the first ack or resync
        /// from a recovered peer clears it.
        pub fn peer_down(&self) -> bool {
            self.inflight
                .values()
                .any(|p| p.attempts >= GIVE_UP_ATTEMPTS)
        }

        /// In-flight sequence numbers in serial order, oldest first: by
        /// age from `next_seq`, so frames sent before a 65,535 → 0 wrap come
        /// before the ones after it.
        fn serial(&self, mut seqs: Vec<u16>) -> Vec<u16> {
            seqs.sort_by_key(|&s| std::cmp::Reverse(self.next_seq.wrapping_sub(s)));
            seqs
        }

        /// The oldest key of `map` in serial order.
        fn oldest<T>(&self, map: &BTreeMap<u16, T>) -> Option<u16> {
            let mut keys = map.range(self.next_seq..).chain(map.range(..self.next_seq));
            keys.next().map(|(&seq, _)| seq)
        }

        /// Forgets the held payloads older than every in-flight frame: with
        /// no frame missing before them, the receiver has delivered them.
        fn forget_delivered(&mut self) {
            let age = |seq: u16| self.next_seq.wrapping_sub(seq);
            let unacked = self.oldest(&self.inflight).map(age);
            while let Some(seq) = self.oldest(&self.held) {
                if unacked.is_some_and(|a| age(seq) < a) {
                    break;
                }
                self.held.remove(&seq);
            }
        }

        /// Restarts the session: bump the epoch, return every in-flight
        /// and held payload to the front of the queue oldest first, and
        /// reset the sequence space. The bumped epoch makes every
        /// outstanding ack stale.
        fn restart_session(&mut self) {
            self.epoch = self.epoch.wrapping_add(1);
            let seqs = self.inflight.keys().chain(self.held.keys());
            let order = self.serial(seqs.copied().collect());
            let mut inflight = std::mem::take(&mut self.inflight);
            let mut held = std::mem::take(&mut self.held);
            for seq in order.into_iter().rev() {
                let payload = inflight.remove(&seq).map(|p| p.payload);
                self.queue
                    .push_front(payload.or_else(|| held.remove(&seq)).unwrap());
            }
            self.next_seq = 0;
            self.resyncs += 1;
        }

        /// One round of protocol work: drain acks and resyncs from `ack_port`,
        /// retransmit expired frames on `data_port`, then fill the window from
        /// the queue.
        pub fn poll(&mut self, io: &mut dyn NodeIo, data_port: &str, ack_port: &str) {
            // 1. Acks and resyncs. A corrupt frame fails the CRC and is
            //    ignored; the data frame it covered simply retransmits later.
            while let Some(raw) = io.recv(ack_port) {
                let Some(inner) = deframe(&raw) else { continue };
                match inner.first() {
                    Some(&FRAME_ACK) if inner.len() == 4 => {
                        if inner[1] != self.epoch {
                            // An ack from a previous session: the frame it
                            // covers no longer exists. Matching it against the
                            // new session's sequence space would mis-ack.
                            self.stale_acks_dropped += 1;
                            continue;
                        }
                        let seq = u16::from_le_bytes([inner[2], inner[3]]);
                        if let Some(p) = self.inflight.remove(&seq) {
                            self.acked += 1;
                            self.held.insert(seq, p.payload);
                            self.forget_delivered();
                        }
                    }
                    // The receiver rebooted: adopt its new boot epoch and
                    // restart the session. Duplicate or stale resyncs (the
                    // wire reorders) compare as not-newer and are ignored.
                    Some(&FRAME_RESYNC)
                        if inner.len() == 2 && epoch_before(self.rx_epoch, inner[1]) =>
                    {
                        self.rx_epoch = inner[1];
                        self.restart_session();
                    }
                    _ => {}
                }
            }
            let now = io.round();
            // 2. Retransmissions. Timeout doubles per attempt, the shift
            //    saturating at MAX_BACKOFF_SHIFT so the slot arithmetic cannot
            //    overflow however long the peer stays dead.
            let expired: Vec<u16> = self
                .inflight
                .iter()
                .filter(|(_, p)| {
                    now >= p.last_sent + (self.timeout << p.attempts.min(MAX_BACKOFF_SHIFT))
                })
                .map(|(&seq, _)| seq)
                .collect();
            for seq in self.serial(expired) {
                // One lookup, no panic path: a seq collected above could only
                // vanish if this loop removed it, and it never removes.
                let Some(p) = self.inflight.get_mut(&seq) else {
                    continue;
                };
                let f = data_frame(self.epoch, self.rx_epoch, seq, &p.payload);
                // The backoff ladder advances whether or not the wire accepts
                // the frame: a dead peer's wire fills up and stays full, and
                // the give-up level must still be reached. Only an actual
                // transmission counts as a retransmission.
                if io.send(data_port, f).is_ok() {
                    self.retransmissions += 1;
                    io.note_retransmit(seq);
                }
                p.last_sent = now;
                p.attempts = p.attempts.saturating_add(1);
            }
            // 3. New transmissions, up to the window.
            while self.inflight.len() < self.window {
                let Some(payload) = self.queue.pop_front() else {
                    break;
                };
                let seq = self.next_seq;
                let f = data_frame(self.epoch, self.rx_epoch, seq, &payload);
                if io.send(data_port, f).is_err() {
                    // Wire full: put it back and try next round.
                    self.queue.push_front(payload);
                    break;
                }
                self.next_seq = self.next_seq.wrapping_add(1);
                self.inflight.insert(
                    seq,
                    Pending {
                        payload,
                        last_sent: now,
                        attempts: 0,
                    },
                );
            }
        }
    }

    /// The receiving half: CRC guard, epoch guard, duplicate suppression,
    /// in-order release.
    #[derive(Debug, Clone)]
    pub struct RetxReceiver {
        boot_epoch: u8,
        session: Option<u8>,
        expected: u16,
        buffer: BTreeMap<u16, Vec<u8>>,
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
                buffer: BTreeMap::new(),
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
        /// with a single resync instead), and return the in-order payload run.
        pub fn poll(
            &mut self,
            io: &mut dyn NodeIo,
            data_port: &str,
            ack_port: &str,
        ) -> Vec<Vec<u8>> {
            let mut resync_wanted = false;
            while let Some(raw) = io.recv(data_port) {
                // The CRC guard: damaged frames die here, unacked, before any
                // of their bytes are believed.
                let Some(inner) = deframe(&raw) else {
                    self.corrupt_rejected += 1;
                    continue;
                };
                if inner.len() < 5 || inner[0] != FRAME_DATA {
                    self.corrupt_rejected += 1;
                    continue;
                }
                let session = inner[1];
                if inner[2] != self.boot_epoch {
                    // The sender believes a receiver incarnation that no
                    // longer exists (or never did). Never ack — an ack would
                    // be mistaken for one covering the *new* sequence space.
                    // Advertise the true boot epoch instead.
                    self.stale_epoch_dropped += 1;
                    resync_wanted = true;
                    continue;
                }
                match self.session {
                    None => self.session = Some(session),
                    Some(cur) if session == cur => {}
                    Some(cur) if epoch_before(cur, session) => {
                        // The sender restarted its sequence space: drop the
                        // old session's buffered fragments and start over.
                        self.buffer.clear();
                        self.expected = 0;
                        self.session = Some(session);
                        self.resyncs += 1;
                    }
                    Some(_) => {
                        // A straggler from a superseded session.
                        self.stale_epoch_dropped += 1;
                        continue;
                    }
                }
                let seq = u16::from_le_bytes([inner[3], inner[4]]);
                let payload = inner[5..].to_vec();
                // Ack even duplicates: the earlier ack may be the thing that
                // was lost. A full ack wire is fine — the data retransmits.
                let _ = io.send(ack_port, ack_frame(session, seq));
                if seq_before(seq, self.expected) || self.buffer.contains_key(&seq) {
                    self.duplicates_ignored += 1;
                    continue;
                }
                self.buffer.insert(seq, payload);
            }
            if resync_wanted {
                // One resync per poll is enough: the sender's retransmissions
                // re-trigger it next round if this frame is lost.
                let _ = io.send(ack_port, resync_frame(self.boot_epoch));
            }
            let mut out = Vec::new();
            while let Some(payload) = self.buffer.remove(&self.expected) {
                out.push(payload);
                self.expected = self.expected.wrapping_add(1);
                self.delivered += 1;
            }
            out
        }
    }

    impl Default for RetxReceiver {
        fn default() -> Self {
            RetxReceiver::new()
        }
    }
}

// ---------------------------------------------------------------------
// A loopback: one data wire, one ack wire, both endpoints polled once a
// round.
// ---------------------------------------------------------------------

/// Everything one round put on the wires or handed up, for comparison.
#[derive(Debug, Default, PartialEq)]
struct RoundLog {
    data: Vec<Vec<u8>>,
    acks: Vec<Vec<u8>>,
    retx: Vec<u16>,
    delivered: Vec<Vec<u8>>,
}

/// Decides which accepted data frames vanish before they reach the wire:
/// `lose(round, frame)`.
type Lose = dyn Fn(u64, &[u8]) -> bool;

/// One endpoint's ports for one poll: it receives on `inbox` and sends
/// onto `outbox`, one slot each, recording every frame the wire accepts.
struct End<'a> {
    round: u64,
    in_port: &'static str,
    out_port: &'static str,
    inbox: &'a mut Wire,
    outbox: &'a mut Wire,
    sent: &'a mut Vec<Vec<u8>>,
    retx: &'a mut Vec<u16>,
    lose: &'a Lose,
}

impl NodeIo for End<'_> {
    fn in_slot(&self, port: &str) -> Option<usize> {
        (port == self.in_port).then_some(0)
    }

    fn out_slot(&self, port: &str) -> Option<usize> {
        (port == self.out_port).then_some(0)
    }

    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
        (slot == 0).then(|| self.inbox.pop_deliverable(self.round))?
    }

    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        if slot != 0 || !self.outbox.has_room() {
            return Err(msg);
        }
        self.sent.push(msg.clone());
        if !(self.lose)(self.round, &msg) {
            self.outbox.push(self.round, msg).expect("room was checked");
        }
        Ok(())
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn note_retransmit(&mut self, seq: u16) {
        self.retx.push(seq);
    }
}

/// A sender/receiver pair of one implementation, behind one interface.
trait Pair {
    fn new(window: usize, timeout: u64) -> Self;
    fn enqueue(&mut self, payload: Vec<u8>);
    fn pending(&self) -> usize;
    fn poll_sender(&mut self, io: &mut dyn NodeIo);
    fn poll_receiver(&mut self, io: &mut dyn NodeIo, out: &mut Vec<Vec<u8>>);
    /// A receiver reboot: fresh state at the next boot epoch.
    fn reboot_receiver(&mut self);
    /// A sender reboot: fresh state (queue and window lost) at the next
    /// session epoch.
    fn reboot_sender(&mut self);
    /// Every counter both halves keep, and the peer-down level.
    fn counters(&self) -> [u64; 10];
}

struct Rings {
    window: usize,
    timeout: u64,
    tx: RetxSender,
    rx: RetxReceiver,
}

impl Pair for Rings {
    fn new(window: usize, timeout: u64) -> Self {
        Rings {
            window,
            timeout,
            tx: RetxSender::new(window, timeout),
            rx: RetxReceiver::new(),
        }
    }
    fn enqueue(&mut self, payload: Vec<u8>) {
        self.tx.enqueue(payload);
    }
    fn pending(&self) -> usize {
        self.tx.pending()
    }
    fn poll_sender(&mut self, io: &mut dyn NodeIo) {
        self.tx.poll(io, "data", "ack");
    }
    fn poll_receiver(&mut self, io: &mut dyn NodeIo, out: &mut Vec<Vec<u8>>) {
        self.rx.poll(io, "data", "ack", out);
    }
    fn reboot_receiver(&mut self) {
        self.rx = RetxReceiver::with_epoch(self.rx.epoch().wrapping_add(1));
    }
    fn reboot_sender(&mut self) {
        let epoch = self.tx.epoch().wrapping_add(1);
        self.tx = RetxSender::with_epoch(self.window, self.timeout, epoch);
    }
    fn counters(&self) -> [u64; 10] {
        let (tx, rx) = (&self.tx, &self.rx);
        [
            tx.retransmissions,
            tx.acked,
            tx.stale_acks_dropped,
            tx.resyncs,
            u64::from(tx.peer_down()),
            rx.corrupt_rejected,
            rx.duplicates_ignored,
            rx.stale_epoch_dropped,
            rx.resyncs,
            rx.delivered,
        ]
    }
}

struct Reference {
    window: usize,
    timeout: u64,
    tx: reference::RetxSender,
    rx: reference::RetxReceiver,
}

impl Pair for Reference {
    fn new(window: usize, timeout: u64) -> Self {
        Reference {
            window,
            timeout,
            tx: reference::RetxSender::new(window, timeout),
            rx: reference::RetxReceiver::new(),
        }
    }
    fn enqueue(&mut self, payload: Vec<u8>) {
        self.tx.enqueue(payload);
    }
    fn pending(&self) -> usize {
        self.tx.pending()
    }
    fn poll_sender(&mut self, io: &mut dyn NodeIo) {
        self.tx.poll(io, "data", "ack");
    }
    fn poll_receiver(&mut self, io: &mut dyn NodeIo, out: &mut Vec<Vec<u8>>) {
        out.extend(self.rx.poll(io, "data", "ack"));
    }
    fn reboot_receiver(&mut self) {
        self.rx = reference::RetxReceiver::with_epoch(self.rx.epoch().wrapping_add(1));
    }
    fn reboot_sender(&mut self) {
        let epoch = self.tx.epoch().wrapping_add(1);
        self.tx = reference::RetxSender::with_epoch(self.window, self.timeout, epoch);
    }
    fn counters(&self) -> [u64; 10] {
        let (tx, rx) = (&self.tx, &self.rx);
        [
            tx.retransmissions,
            tx.acked,
            tx.stale_acks_dropped,
            tx.resyncs,
            u64::from(tx.peer_down()),
            rx.corrupt_rejected,
            rx.duplicates_ignored,
            rx.stale_epoch_dropped,
            rx.resyncs,
            rx.delivered,
        ]
    }
}

/// Per-mille fault rates of one wire: drop, duplicate, corrupt, reorder.
type Faults = [u16; 4];

fn loss(seed: u64, [drop, duplicate, corrupt, reorder]: Faults) -> LossModel {
    LossModel::new(seed)
        .with_drop(drop)
        .with_duplicate(duplicate)
        .with_corrupt(corrupt)
        .with_reorder(reorder)
}

/// One transfer: `count` numbered payloads fed while fewer than 64 are
/// pending, over a data wire and an ack wire with seeded faults.
struct Scenario {
    seed: u64,
    count: u32,
    window: usize,
    timeout: u64,
    capacity: usize,
    latency: u64,
    data_faults: Faults,
    ack_faults: Faults,
    max_rounds: u64,
    /// Rounds at whose start the receiver reboots.
    rx_reboots: Vec<u64>,
    /// Rounds at whose start the sender reboots.
    tx_reboots: Vec<u64>,
}

impl Scenario {
    fn new(seed: u64, count: u32, data_faults: Faults, ack_faults: Faults) -> Scenario {
        Scenario {
            seed,
            count,
            window: 16,
            timeout: 4,
            capacity: 32,
            latency: 1,
            data_faults,
            ack_faults,
            max_rounds: 1_000_000,
            rx_reboots: Vec::new(),
            tx_reboots: Vec::new(),
        }
    }
}

/// Payload `i`: its index, then `i % 7` filler bytes, so frames vary in
/// length.
fn payload(i: u32) -> Vec<u8> {
    let mut p = i.to_le_bytes().to_vec();
    p.extend((0..i % 7).map(|k| (i as u8).wrapping_mul(31).wrapping_add(k as u8)));
    p
}

fn index_of(payload: &[u8]) -> u32 {
    u32::from_le_bytes([payload[0], payload[1], payload[2], payload[3]])
}

/// The sequence number of a data frame as it went onto the wire.
fn data_seq(frame: &[u8]) -> Option<u16> {
    (frame.len() >= 7 && frame[0] == FRAME_DATA).then(|| u16::from_le_bytes([frame[3], frame[4]]))
}

/// One implementation running a scenario, a round at a time.
struct Run<P: Pair> {
    pair: P,
    data: Wire,
    ack: Wire,
    round: u64,
    fed: u32,
}

impl<P: Pair> Run<P> {
    fn new(sc: &Scenario) -> Self {
        let data = Wire::new(0, "data", 1, "data", sc.capacity, sc.latency)
            .with_loss(loss(sc.seed, sc.data_faults));
        let ack = Wire::new(1, "ack", 0, "ack", sc.capacity, sc.latency)
            .with_loss(loss(sc.seed ^ 0xACC, sc.ack_faults));
        Run {
            pair: P::new(sc.window, sc.timeout),
            data,
            ack,
            round: 0,
            fed: 0,
        }
    }

    fn done(&self, sc: &Scenario) -> bool {
        self.fed == sc.count && self.pair.pending() == 0
    }

    fn step(&mut self, sc: &Scenario, lose: &Lose, log: &mut RoundLog) {
        let now = self.round;
        if sc.rx_reboots.contains(&now) {
            self.pair.reboot_receiver();
        }
        if sc.tx_reboots.contains(&now) {
            self.pair.reboot_sender();
        }
        while self.fed < sc.count && self.pair.pending() < 64 {
            self.pair.enqueue(payload(self.fed));
            self.fed += 1;
        }
        self.pair.poll_sender(&mut End {
            round: now,
            in_port: "ack",
            out_port: "data",
            inbox: &mut self.ack,
            outbox: &mut self.data,
            sent: &mut log.data,
            retx: &mut log.retx,
            lose,
        });
        let mut delivered = Vec::new();
        self.pair.poll_receiver(
            &mut End {
                round: now,
                in_port: "data",
                out_port: "ack",
                inbox: &mut self.data,
                outbox: &mut self.ack,
                sent: &mut log.acks,
                retx: &mut log.retx,
                lose: &|_, _| false,
            },
            &mut delivered,
        );
        log.delivered = delivered;
        self.round += 1;
    }

    fn wire_books(&self) -> [u64; 8] {
        let (d, a) = (&self.data, &self.ack);
        [
            d.dropped,
            d.duplicated,
            d.corrupted,
            d.reordered,
            a.dropped,
            a.duplicated,
            a.corrupted,
            a.reordered,
        ]
    }
}

/// What a lockstep run saw, for scenario-specific assertions.
struct Observed {
    rounds: u64,
    delivered: Vec<u32>,
    data_frames: u64,
    retransmissions: u64,
    /// Per round, the data frames' sequence numbers.
    seqs: Vec<Vec<u16>>,
}

/// Runs the rings and the reference side by side and asserts that every
/// round put the same bytes on both wires, in the same order, and that
/// deliveries, counters and wire books agree throughout.
fn lockstep(sc: &Scenario, lose: &Lose) -> Observed {
    let mut rings = Run::<Rings>::new(sc);
    let mut oracle = Run::<Reference>::new(sc);
    let mut seen = Observed {
        rounds: 0,
        delivered: Vec::new(),
        data_frames: 0,
        retransmissions: 0,
        seqs: Vec::new(),
    };
    while !rings.done(sc) && rings.round < sc.max_rounds {
        let round = rings.round;
        let (mut got, mut want) = (RoundLog::default(), RoundLog::default());
        rings.step(sc, lose, &mut got);
        oracle.step(sc, lose, &mut want);
        assert_eq!(
            got, want,
            "round {round}: frames, notes or deliveries differ"
        );
        assert_eq!(
            rings.pair.counters(),
            oracle.pair.counters(),
            "round {round}: counters differ"
        );
        assert_eq!(rings.pair.pending(), oracle.pair.pending(), "round {round}");
        assert_eq!(rings.wire_books(), oracle.wire_books(), "round {round}");
        seen.data_frames += got.data.len() as u64;
        seen.retransmissions += got.retx.len() as u64;
        seen.seqs
            .push(got.data.iter().filter_map(|f| data_seq(f)).collect());
        seen.delivered
            .extend(got.delivered.iter().map(|p| index_of(p)));
    }
    assert_eq!(rings.done(sc), oracle.done(sc));
    seen.rounds = rings.round;
    seen
}

fn never(_: u64, _: &[u8]) -> bool {
    false
}

#[test]
fn a_run_across_the_sequence_wrap_matches_the_reference() {
    // 70,000 payloads: the session's sequence numbers pass 65,535 → 0 with
    // frames in flight on both sides of the wrap, under every fault kind.
    let sc = Scenario::new(0x57A9, 70_000, [100, 40, 40, 40], [100, 30, 30, 30]);
    let seen = lockstep(&sc, &never);
    assert!(seen.data_frames >= 70_000);
    assert!(seen.retransmissions > 1_000, "{}", seen.retransmissions);
    assert_eq!(seen.delivered, (0..70_000).collect::<Vec<_>>());
    // Retransmissions went out while the window straddled the wrap.
    let straddled = seen
        .seqs
        .iter()
        .any(|s| s.iter().any(|&q| q < 16) && s.iter().any(|&q| q > 0xFFF0));
    assert!(straddled, "no round sent frames on both sides of the wrap");
}

#[test]
fn a_receiver_reboot_at_the_wrap_first_delivers_in_order_like_the_reference() {
    // Find the round the session first sends sequence number 0 again, then
    // rerun with the receiver rebooting two rounds later: the resync
    // restarts the session with frames unacked on both sides of the wrap.
    let base = Scenario::new(0x3A11, 66_000, [150, 0, 0, 0], [100, 0, 0, 0]);
    let seen = lockstep(&base, &never);
    let wrap_round = seen
        .seqs
        .iter()
        .enumerate()
        .skip(100)
        .find(|(_, s)| s.contains(&0))
        .map(|(r, _)| r as u64)
        .expect("the session wrapped");
    let mut sc = Scenario::new(0x3A11, 66_000, [150, 0, 0, 0], [100, 0, 0, 0]);
    sc.rx_reboots = vec![wrap_round + 2];
    let seen = lockstep(&sc, &never);
    // The new incarnation redelivers what the old one had delivered, so
    // the payload stream steps backwards at the restart: delivery across a
    // receiver reboot is at least once. The requeue takes every frame from
    // the oldest unacked one on, the acked ones the old incarnation held
    // behind a gap included, and keeps the older frames (65,5xx) ahead of
    // the wrapped ones (0, 1, ...), so every payload arrives and its first
    // delivery comes in index order.
    assert!(seen.delivered.windows(2).any(|w| w[1] < w[0]));
    let mut delivered = std::collections::HashSet::new();
    let firsts: Vec<u32> = seen
        .delivered
        .into_iter()
        .filter(|&i| delivered.insert(i))
        .collect();
    let late = firsts.windows(2).find(|w| w[1] < w[0]);
    assert_eq!(
        late, None,
        "a payload was first delivered after a later one"
    );
    assert_eq!(
        firsts,
        (0..66_000).collect::<Vec<_>>(),
        "a payload was lost"
    );
}

#[test]
fn a_span_past_the_window_matches_the_reference() {
    // Every copy of sequence number 3 is lost for 300 rounds: acks for
    // later frames keep freeing window slots, so the span from the oldest
    // unacked frame grows far past the 16-frame window, well below 2^15.
    let lose = |round: u64, f: &[u8]| round < 300 && data_seq(f) == Some(3);
    let sc = Scenario::new(0x5BA9, 6_000, [50, 20, 20, 20], [50, 20, 0, 20]);
    let seen = lockstep(&sc, &lose);
    let newest_while_lost = seen.seqs[..300].iter().flatten().max().copied();
    assert!(
        newest_while_lost.is_some_and(|s| s > 200),
        "span stayed near the window: {newest_while_lost:?}"
    );
    assert_eq!(seen.delivered, (0..6_000).collect::<Vec<_>>());
}

#[test]
fn reboots_and_resyncs_match_the_reference() {
    // Both ends reboot repeatedly mid-stream under every fault kind, some
    // reboots in the same round.
    let mut sc = Scenario::new(0xB007, 20_000, [120, 60, 60, 60], [120, 40, 40, 40]);
    sc.rx_reboots = vec![40, 41, 300, 900, 901, 2_000, 2_500];
    sc.tx_reboots = vec![120, 300, 1_500, 1_501, 2_600];
    sc.max_rounds = 6_000;
    let seen = lockstep(&sc, &never);
    assert!(seen.rounds > 2_600, "the run ended before the last reboot");
    assert!(!seen.delivered.is_empty());
}

#[test]
fn a_dead_peer_and_a_small_slow_wire_match_the_reference() {
    // A one-frame wire of latency 3 with heavy loss: the window is mostly
    // refused by the wire, timeouts climb the backoff ladder and the
    // peer-down level comes and goes.
    let mut sc = Scenario::new(0xDEAD, 2_000, [400, 50, 50, 50], [400, 0, 50, 50]);
    sc.capacity = 1;
    sc.latency = 3;
    sc.window = 8;
    sc.timeout = 2;
    sc.max_rounds = 400_000;
    let seen = lockstep(&sc, &never);
    assert_eq!(seen.delivered, (0..2_000).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// The CRC and framing.
// ---------------------------------------------------------------------

#[test]
fn table_crc_equals_the_bit_serial_crc() {
    assert_eq!(crc16(&[]), reference::crc16(&[]));
    for a in 0..=255u8 {
        assert_eq!(crc16(&[a]), reference::crc16(&[a]), "[{a:#04x}]");
        for b in 0..=255u8 {
            assert_eq!(
                crc16(&[a, b]),
                reference::crc16(&[a, b]),
                "[{a:#04x}, {b:#04x}]"
            );
        }
    }
    let mut rng = SplitMix64::new(0xC2C);
    for _ in 0..2_000 {
        let len = rng.below(600);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        assert_eq!(crc16(&bytes), reference::crc16(&bytes), "len {len}");
        let framed = frame(&bytes);
        assert_eq!(framed, reference::frame(&bytes));
        assert_eq!(deframe(&framed), Some(&bytes[..]));
        // A flipped bit anywhere fails both checks alike.
        let mut bad = framed.clone();
        let bit = rng.below(8 * bad.len());
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(deframe(&bad).map(<[u8]>::to_vec), reference::deframe(&bad));
        assert_eq!(deframe(&bad), None);
    }
}

// ---------------------------------------------------------------------
// The span bound: where the rings must differ from the reference.
// ---------------------------------------------------------------------

/// What one implementation made of a first frame lost for 5,000 rounds.
struct LongLoss {
    delivered: Vec<u32>,
    pending: usize,
    /// The newest sequence number sent while sequence number 0 was lost.
    newest_while_lost: u16,
}

/// Runs one implementation alone: window 16, timeout 4, a lossless
/// loopback, and every copy of sequence number 0 lost for the first 5,000
/// rounds.
fn long_lost_first_frame<P: Pair>(count: u32) -> LongLoss {
    let sc = Scenario::new(0, count, [0; 4], [0; 4]);
    let lose = |round: u64, f: &[u8]| round < 5_000 && data_seq(f) == Some(0);
    let mut run = Run::<P>::new(&sc);
    let mut seen = LongLoss {
        delivered: Vec::new(),
        pending: 0,
        newest_while_lost: 0,
    };
    while !run.done(&sc) && run.round < 50_000 {
        let mut log = RoundLog::default();
        run.step(&sc, &lose, &mut log);
        if run.round <= 5_000 {
            let newest = log.data.iter().filter_map(|f| data_seq(f)).max();
            seen.newest_while_lost = seen.newest_while_lost.max(newest.unwrap_or(0));
        }
        seen.delivered
            .extend(log.delivered.iter().map(|p| index_of(p)));
    }
    seen.pending = run.pair.pending();
    seen
}

#[test]
fn a_long_lost_frame_never_lets_the_span_reach_2_15() {
    let rings = long_lost_first_frame::<Rings>(40_000);
    assert_eq!(
        usize::from(rings.newest_while_lost),
        MAX_SEQ_SPAN - 2,
        "the span from seq 0 stops one short of 2^15"
    );
    assert_eq!(rings.pending, 0);
    assert_eq!(
        rings.delivered,
        (0..40_000).collect::<Vec<_>>(),
        "every payload exactly once, in order"
    );
    // The reference let the span pass 2^15: the receiver took the frames
    // 2^15 or more ahead of the one it awaited for old duplicates, acked
    // and dropped them, and the sender believed them delivered.
    let reference = long_lost_first_frame::<Reference>(40_000);
    assert!(usize::from(reference.newest_while_lost) >= MAX_SEQ_SPAN);
    assert_eq!(reference.pending, 0, "the reference thinks all arrived");
    assert_eq!(
        40_000 - reference.delivered.len(),
        7_231,
        "payloads the reference lost"
    );
    // Below the bound the two agree.
    let reference = long_lost_first_frame::<Reference>(20_000);
    assert_eq!(reference.delivered, (0..20_000).collect::<Vec<_>>());
}

// ---------------------------------------------------------------------
// The slicing-by-4 CRC over every frame length.
// ---------------------------------------------------------------------

#[test]
fn the_slicing_crc_equals_the_bit_serial_crc_at_every_frame_length() {
    // 519 bytes is the longest frame a MAX_MSG (512-byte) payload makes:
    // 5 header bytes, the payload, 2 CRC bytes. Every length exercises a
    // different split between four-byte words and the byte-wise remainder.
    let mut rng = SplitMix64::new(0x5_11CE);
    for len in 0..=519 {
        for _ in 0..4 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            assert_eq!(crc16(&bytes), reference::crc16(&bytes), "len {len}");
        }
    }
}

// ---------------------------------------------------------------------
// Pooled frame buffers against never-pooled ones.
// ---------------------------------------------------------------------

/// An [`End`] whose frame buffers come from, and go back to, a pool, as
/// the round executor serves them. With `pooled` set, every frame it
/// receives must obey the pool's capacity rule.
struct Pooled<'a> {
    end: End<'a>,
    pool: &'a mut BufPool,
    pooled: bool,
}

impl NodeIo for Pooled<'_> {
    fn in_slot(&self, port: &str) -> Option<usize> {
        self.end.in_slot(port)
    }

    fn out_slot(&self, port: &str) -> Option<usize> {
        self.end.out_slot(port)
    }

    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
        let frame = self.end.recv_from(slot)?;
        // Every frame on a pooled loopback was built in a pooled buffer or
        // copied into one by the wire, so its capacity follows its length.
        if self.pooled {
            assert_eq!(frame.capacity(), frame.len().max(FRAME_CAP));
        }
        Some(frame)
    }

    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        self.end.send_to(slot, msg)
    }

    fn round(&self) -> u64 {
        self.end.round()
    }

    fn note_retransmit(&mut self, seq: u16) {
        self.end.note_retransmit(seq);
    }

    fn buffer(&mut self, len: usize) -> Vec<u8> {
        self.pool.take(len)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.give(buf);
    }
}

/// Forwards every [`NodeIo`] method except `buffer` and `recycle`, so the
/// ARQ behind it runs on the provided defaults: every frame freshly
/// allocated, every spent buffer dropped.
struct NoPool<'a>(&'a mut dyn NodeIo);

impl NodeIo for NoPool<'_> {
    fn in_slot(&self, port: &str) -> Option<usize> {
        self.0.in_slot(port)
    }

    fn out_slot(&self, port: &str) -> Option<usize> {
        self.0.out_slot(port)
    }

    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
        self.0.recv_from(slot)
    }

    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        self.0.send_to(slot, msg)
    }

    fn round(&self) -> u64 {
        self.0.round()
    }

    fn note_retransmit(&mut self, seq: u16) {
        self.0.note_retransmit(seq);
    }
}

/// One round of the rings with its log, counters and wire books after it.
type PooledRound = (RoundLog, [u64; 10], [u64; 8]);

/// Runs the rings alone over a scenario, both ends drawing frame buffers
/// from one pool bounded by the two wires' capacity (`pooled`) or, behind
/// [`NoPool`], allocating every one, and returns every round.
fn pooled_rounds(sc: &Scenario, pooled: bool) -> Vec<PooledRound> {
    let mut run = Run::<Rings>::new(sc);
    let mut pool = BufPool::new(2 * sc.capacity);
    let mut rounds = Vec::new();
    while !run.done(sc) && run.round < sc.max_rounds {
        let now = run.round;
        if sc.rx_reboots.contains(&now) {
            run.pair.reboot_receiver();
        }
        if sc.tx_reboots.contains(&now) {
            run.pair.reboot_sender();
        }
        while run.fed < sc.count && run.pair.pending() < 64 {
            run.pair.enqueue(payload(run.fed));
            run.fed += 1;
        }
        let mut log = RoundLog::default();
        let mut tx = Pooled {
            end: End {
                round: now,
                in_port: "ack",
                out_port: "data",
                inbox: &mut run.ack,
                outbox: &mut run.data,
                sent: &mut log.data,
                retx: &mut log.retx,
                lose: &never,
            },
            pool: &mut pool,
            pooled,
        };
        if pooled {
            run.pair.poll_sender(&mut tx);
        } else {
            run.pair.poll_sender(&mut NoPool(&mut tx));
        }
        let mut delivered = Vec::new();
        let mut rx = Pooled {
            end: End {
                round: now,
                in_port: "data",
                out_port: "ack",
                inbox: &mut run.data,
                outbox: &mut run.ack,
                sent: &mut log.acks,
                retx: &mut log.retx,
                lose: &never,
            },
            pool: &mut pool,
            pooled,
        };
        if pooled {
            run.pair.poll_receiver(&mut rx, &mut delivered);
            // A payload is cut out of its frame's buffer: its capacity is
            // the frame's, a function of the payload's length.
            for p in &delivered {
                assert_eq!(p.capacity(), (p.len() + 7).max(FRAME_CAP));
            }
        } else {
            run.pair.poll_receiver(&mut NoPool(&mut rx), &mut delivered);
        }
        assert!(pool.len() <= pool.bound());
        log.delivered = delivered;
        run.round += 1;
        rounds.push((log, run.pair.counters(), run.wire_books()));
    }
    rounds
}

#[test]
fn pooled_frames_match_never_pooled_frames_through_loss_and_reboots() {
    // Every fault kind on both wires, both ends rebooting mid-stream:
    // frames, acks, retransmit notes, deliveries, counters and wire books
    // must agree round for round whether buffers circulate or not.
    let mut sc = Scenario::new(0xB0F, 12_000, [120, 60, 60, 60], [120, 40, 40, 40]);
    sc.rx_reboots = vec![50, 51, 700, 1_900];
    sc.tx_reboots = vec![300, 1_200, 1_201];
    sc.max_rounds = 5_000;
    let pooled = pooled_rounds(&sc, true);
    let fresh = pooled_rounds(&sc, false);
    assert!(pooled.len() > 1_900, "the run ended before the last reboot");
    assert_eq!(pooled.len(), fresh.len());
    for (round, (p, f)) in pooled.iter().zip(&fresh).enumerate() {
        assert_eq!(p, f, "round {round}: pooled and unpooled runs differ");
    }
    let delivered: usize = pooled.iter().map(|r| r.0.delivered.len()).sum();
    assert!(delivered >= 12_000, "{delivered} deliveries");
}
