//! Kernel-mediated message channels.
//!
//! Channels are the only communication the kernel provides between regimes,
//! mirroring the dedicated lines of the distributed design. Each is
//! unidirectional, statically configured, and bounded; the kernel copies
//! message bytes between partitions so no memory is ever shared.

use crate::config::{ChannelSpec, DepthPolicy};
use std::collections::VecDeque;

/// Maximum message size in bytes.
pub const MAX_MSG: usize = 512;

/// Status codes returned to regimes (in R0 for machine-code regimes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelStatus {
    /// Operation succeeded.
    Ok,
    /// Send refused: the queue is at capacity.
    Full,
    /// Receive refused: the queue is empty.
    Empty,
    /// The channel does not exist or the caller is not its declared
    /// endpoint, or the buffer was invalid.
    Invalid,
    /// Receive refused: the queue is empty *and* the sending regime is
    /// permanently stopped (halted, or faulted past its restart budget).
    /// Distinct from [`ChannelStatus::Empty`] so a receiver can tell
    /// "nothing yet" from "nothing ever again". The kernel, not the
    /// channel, makes this determination — only it knows regime status.
    PeerDown,
}

impl ChannelStatus {
    /// The ABI encoding placed in R0.
    pub fn code(self) -> u16 {
        match self {
            ChannelStatus::Ok => 0,
            ChannelStatus::Full => 1,
            ChannelStatus::Empty => 2,
            ChannelStatus::Invalid => 3,
            ChannelStatus::PeerDown => 4,
        }
    }
}

/// A channel's runtime state.
#[derive(Debug)]
pub struct Channel {
    /// The static configuration.
    pub spec: ChannelSpec,
    /// Whether this channel has been "cut" (wire-cutting argument): sends
    /// feed the queue but nothing ever drains it, and receives always
    /// report empty.
    pub cut: bool,
    /// The sticky Full/NotFull bit under [`DepthPolicy::Sticky`]: latched
    /// from the live queue at the sender's slot boundaries (the kernel
    /// calls [`Channel::latch`] on context switches in and out of the
    /// sender), constant `false` under the other policies.
    pub latched_full: bool,
    queue: VecDeque<Vec<u8>>,
}

impl Clone for Channel {
    /// Each queued message keeps its capacity in the clone, so a receiver
    /// in a cloned kernel reads exactly the capacities one in the source
    /// would: capacity stays a function of a message's length, not of
    /// whether it was queued before the clone.
    fn clone(&self) -> Channel {
        Channel {
            spec: self.spec,
            cut: self.cut,
            latched_full: self.latched_full,
            queue: self
                .queue
                .iter()
                .map(|m| {
                    let mut copy = Vec::with_capacity(m.capacity());
                    copy.extend_from_slice(m);
                    copy
                })
                .collect(),
        }
    }
}

impl Channel {
    /// A fresh channel for a spec.
    pub fn new(spec: ChannelSpec, cut: bool) -> Channel {
        Channel {
            spec,
            cut,
            latched_full: false,
            queue: VecDeque::new(),
        }
    }

    /// Re-latches the sticky Full/NotFull bit from the live queue. The
    /// kernel calls this at the sender's slot boundaries only, so between
    /// boundaries the sender's whole view of the receiver's draining is
    /// one stale bit. No-op under the other depth policies.
    pub fn latch(&mut self) {
        if self.spec.depth == DepthPolicy::Sticky {
            self.latched_full = self.queue.len() >= self.spec.capacity;
        }
    }

    /// Attempts to enqueue a message from regime `sender`. The message
    /// comes back whenever the queue did not keep it — refused, or
    /// accepted and dropped under [`DepthPolicy::Sticky`] — so the kernel
    /// can reuse its buffer.
    pub fn send(&mut self, sender: usize, msg: Vec<u8>) -> (ChannelStatus, Option<Vec<u8>>) {
        if sender != self.spec.from || msg.len() > MAX_MSG {
            return (ChannelStatus::Invalid, Some(msg));
        }
        if self.spec.depth == DepthPolicy::Sticky {
            // The sender's feedback is the latched bit, nothing fresher. A
            // send against a stale NotFull bit that meets a physically full
            // queue is accepted-and-dropped (a lossy wire), so the status
            // cannot leak mid-slot drains either.
            if self.latched_full {
                return (ChannelStatus::Full, Some(msg));
            }
            if self.queue.len() < self.spec.capacity {
                self.queue.push_back(msg);
                return (ChannelStatus::Ok, None);
            }
            return (ChannelStatus::Ok, Some(msg));
        }
        if self.queue.len() >= self.spec.capacity {
            return (ChannelStatus::Full, Some(msg));
        }
        self.queue.push_back(msg);
        (ChannelStatus::Ok, None)
    }

    /// The head message for regime `receiver` without consuming it, so the
    /// kernel can stage a copy and only dequeue once it has fully landed.
    pub fn peek(&self, receiver: usize) -> Result<&[u8], ChannelStatus> {
        if receiver != self.spec.to {
            return Err(ChannelStatus::Invalid);
        }
        if self.cut {
            return Err(ChannelStatus::Empty);
        }
        self.queue
            .front()
            .map(Vec::as_slice)
            .ok_or(ChannelStatus::Empty)
    }

    /// Attempts to dequeue a message for regime `receiver`.
    pub fn recv(&mut self, receiver: usize) -> Result<Vec<u8>, ChannelStatus> {
        if receiver != self.spec.to {
            return Err(ChannelStatus::Invalid);
        }
        if self.cut {
            return Err(ChannelStatus::Empty);
        }
        self.queue.pop_front().ok_or(ChannelStatus::Empty)
    }

    /// Queue depth as observable by regime `who`. The receiver always sees
    /// the live length (draining is its own action); the *sender* sees
    /// whatever its [`DepthPolicy`] allows. Third parties see nothing.
    pub fn poll(&self, who: usize) -> Option<usize> {
        if who == self.spec.from {
            Some(match self.spec.depth {
                DepthPolicy::Live => self.queue.len(),
                DepthPolicy::Quantized { step } => {
                    let step = step.max(1);
                    self.queue.len().div_ceil(step) * step
                }
                DepthPolicy::Sticky => {
                    if self.latched_full {
                        self.spec.capacity
                    } else {
                        0
                    }
                }
            })
        } else if who == self.spec.to {
            Some(if self.cut { 0 } else { self.queue.len() })
        } else {
            None
        }
    }

    /// The queued messages (for state snapshots).
    pub fn queue(&self) -> &VecDeque<Vec<u8>> {
        &self.queue
    }

    /// Replaces the queue contents (verification adapters imposing a
    /// projected state).
    pub fn restore_queue(&mut self, msgs: Vec<Vec<u8>>) {
        self.queue = msgs.into();
    }

    /// Host-side enqueue: the distributed realization's "network
    /// interface" feeding a channel whose nominal sender is the node's
    /// uplink regime. Capacity and message-size limits apply exactly as
    /// for a regime sender — the gateway gets no extra buffering — but
    /// endpoint validation does not: the host *is* the wire. A cut
    /// channel refuses, as it does for everyone. A refused message is
    /// handed back, so the host can keep it spooled without a copy.
    pub fn host_push(&mut self, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        if self.cut || msg.len() > MAX_MSG || self.queue.len() >= self.spec.capacity {
            return Err(msg);
        }
        self.queue.push_back(msg);
        Ok(())
    }

    /// Host-side drain: the mirror of [`Channel::host_push`] for channels
    /// carrying traffic out of the node toward the wire.
    pub fn host_pop(&mut self) -> Option<Vec<u8>> {
        if self.cut {
            return None;
        }
        self.queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chan(capacity: usize, cut: bool) -> Channel {
        Channel::new(ChannelSpec::new(0, 1, capacity), cut)
    }

    #[test]
    fn fifo_send_recv() {
        let mut c = chan(2, false);
        assert_eq!(c.send(0, vec![1]).0, ChannelStatus::Ok);
        assert_eq!(c.send(0, vec![2]).0, ChannelStatus::Ok);
        assert_eq!(c.recv(1), Ok(vec![1]));
        assert_eq!(c.recv(1), Ok(vec![2]));
        assert_eq!(c.recv(1), Err(ChannelStatus::Empty));
    }

    #[test]
    fn capacity_enforced() {
        let mut c = chan(1, false);
        assert_eq!(c.send(0, vec![1]).0, ChannelStatus::Ok);
        assert_eq!(c.send(0, vec![2]).0, ChannelStatus::Full);
    }

    #[test]
    fn endpoints_enforced() {
        let mut c = chan(2, false);
        assert_eq!(c.send(1, vec![1]).0, ChannelStatus::Invalid);
        assert_eq!(c.recv(0), Err(ChannelStatus::Invalid));
    }

    #[test]
    fn oversized_message_rejected() {
        let mut c = chan(2, false);
        assert_eq!(c.send(0, vec![0; MAX_MSG + 1]).0, ChannelStatus::Invalid);
        assert_eq!(c.send(0, vec![0; MAX_MSG]).0, ChannelStatus::Ok);
    }

    #[test]
    fn cut_channel_never_delivers() {
        let mut c = chan(2, true);
        assert_eq!(c.send(0, vec![9]).0, ChannelStatus::Ok);
        assert_eq!(c.recv(1), Err(ChannelStatus::Empty));
        // Sender still sees capacity behaviour.
        assert_eq!(c.send(0, vec![9]).0, ChannelStatus::Ok);
        assert_eq!(c.send(0, vec![9]).0, ChannelStatus::Full);
        // Receiver polls zero; sender polls its stub.
        assert_eq!(c.poll(1), Some(0));
        assert_eq!(c.poll(0), Some(2));
    }

    #[test]
    fn third_parties_cannot_poll() {
        let c = chan(2, false);
        assert_eq!(c.poll(2), None);
    }

    #[test]
    fn quantized_depth_rounds_up_for_the_sender_only() {
        let spec = ChannelSpec::new(0, 1, 8).with_depth(DepthPolicy::Quantized { step: 4 });
        let mut c = Channel::new(spec, false);
        assert_eq!(c.poll(0), Some(0));
        c.send(0, vec![1]);
        assert_eq!(c.poll(0), Some(4), "1 message reads as 4 to the sender");
        assert_eq!(c.poll(1), Some(1), "the receiver still sees the truth");
        for _ in 0..4 {
            c.send(0, vec![2]);
        }
        assert_eq!(c.poll(0), Some(8));
    }

    #[test]
    fn sticky_bit_hides_mid_slot_drains() {
        let spec = ChannelSpec::new(0, 1, 2).with_depth(DepthPolicy::Sticky);
        let mut c = Channel::new(spec, false);
        // Fill the queue; the sender's bit stays NotFull until a boundary.
        assert_eq!(c.send(0, vec![1]).0, ChannelStatus::Ok);
        assert_eq!(c.send(0, vec![2]).0, ChannelStatus::Ok);
        assert_eq!(c.poll(0), Some(0), "bit not latched yet");
        // Overfull send against the stale bit: accepted-and-dropped.
        assert_eq!(c.send(0, vec![3]).0, ChannelStatus::Ok);
        assert_eq!(c.queue().len(), 2, "the overflow message was dropped");
        // Slot boundary: the bit latches Full.
        c.latch();
        assert_eq!(c.poll(0), Some(2));
        assert_eq!(c.send(0, vec![4]).0, ChannelStatus::Full);
        // The receiver drains mid-slot; the sender's view is unchanged
        // until the next boundary.
        assert_eq!(c.recv(1), Ok(vec![1]));
        assert_eq!(c.poll(0), Some(2), "drain invisible before the boundary");
        assert_eq!(c.send(0, vec![5]).0, ChannelStatus::Full);
        c.latch();
        assert_eq!(c.poll(0), Some(0));
        assert_eq!(c.send(0, vec![6]).0, ChannelStatus::Ok);
    }

    #[test]
    fn a_message_the_queue_did_not_keep_comes_back() {
        let mut c = chan(1, false);
        assert_eq!(c.send(0, vec![1]), (ChannelStatus::Ok, None));
        assert_eq!(c.send(0, vec![2]), (ChannelStatus::Full, Some(vec![2])));
        assert_eq!(c.send(1, vec![3]), (ChannelStatus::Invalid, Some(vec![3])));
        let spec = ChannelSpec::new(0, 1, 1).with_depth(DepthPolicy::Sticky);
        let mut sticky = Channel::new(spec, false);
        assert_eq!(sticky.send(0, vec![4]), (ChannelStatus::Ok, None));
        assert_eq!(
            sticky.send(0, vec![5]),
            (ChannelStatus::Ok, Some(vec![5])),
            "accepted and dropped against a stale bit"
        );
        sticky.latch();
        assert_eq!(
            sticky.send(0, vec![6]),
            (ChannelStatus::Full, Some(vec![6]))
        );
    }

    #[test]
    fn a_cloned_channel_keeps_each_message_capacity() {
        let mut c = chan(4, false);
        let mut wide = Vec::with_capacity(64);
        wide.extend_from_slice(b"ping");
        c.send(0, wide);
        c.send(0, b"exact".to_vec());
        let clone = c.clone();
        let caps: Vec<(usize, usize)> = clone
            .queue()
            .iter()
            .map(|m| (m.len(), m.capacity()))
            .collect();
        assert_eq!(caps, [(4, 64), (5, 5)]);
        assert_eq!(clone.queue(), c.queue());
    }

    #[test]
    fn host_push_respects_capacity_and_size_but_not_endpoints() {
        let mut c = chan(2, false);
        assert_eq!(c.host_push(vec![1]), Ok(()));
        assert_eq!(c.host_push(vec![2]), Ok(()));
        assert_eq!(
            c.host_push(vec![3]),
            Err(vec![3]),
            "capacity still binds the host, and the refused message comes back"
        );
        assert!(
            c.host_push(vec![0; MAX_MSG + 1]).is_err(),
            "size still binds"
        );
        // The receiver drains what the host pushed, like any message.
        assert_eq!(c.recv(1), Ok(vec![1]));
        assert!(
            c.host_push(vec![0; MAX_MSG]).is_ok(),
            "exactly MAX_MSG fits"
        );
    }

    #[test]
    fn host_pop_drains_fifo_and_cut_channel_refuses_both_ways() {
        let mut c = chan(4, false);
        assert_eq!(c.send(0, vec![7]).0, ChannelStatus::Ok);
        assert_eq!(c.send(0, vec![8]).0, ChannelStatus::Ok);
        assert_eq!(c.host_pop(), Some(vec![7]));
        assert_eq!(c.host_pop(), Some(vec![8]));
        assert_eq!(c.host_pop(), None);
        let mut cut = chan(4, true);
        assert!(
            cut.host_push(vec![1]).is_err(),
            "a cut wire carries nothing"
        );
        assert_eq!(cut.host_pop(), None);
    }
}
