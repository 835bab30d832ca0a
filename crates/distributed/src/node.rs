//! Nodes: the private, physically isolated machines of the distributed
//! design.
//!
//! # Error contract
//!
//! Nothing in this interface panics. Every refusable operation reports
//! through its type: a missing wire or exhausted capacity is a
//! [`SendError`] by port name and the message handed back by slot, an
//! unwired port has no slot, and an empty port is `None`. The only panics
//! in the crate are boot-time configuration checks (zero-capacity wires,
//! double-wired ports) — documented invariants that fire before any
//! traffic flows, never on the hot path.

/// Why a send was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// The named port has no outgoing wire.
    NoSuchPort(String),
    /// The wire's capacity is exhausted this round (back-pressure).
    WireFull(String),
}

impl core::fmt::Display for SendError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SendError::NoSuchPort(p) => write!(f, "no outgoing wire on port {p}"),
            SendError::WireFull(p) => write!(f, "wire on port {p} is full"),
        }
    }
}

impl std::error::Error for SendError {}

/// The I/O context a node sees during its step: its own ports, nothing else.
///
/// This interface is the *whole* of a node's connection to the world — the
/// executable meaning of "physically isolated".
///
/// A port is named by a string, but frames move by **slot**: a node
/// resolves a port name once ([`NodeIo::in_slot`], [`NodeIo::out_slot`])
/// and then receives and sends on the slot, so a protocol that moves many
/// frames per step compares no strings per frame. A slot is only
/// meaningful to the context that issued it, and only for the current
/// step. The by-name [`NodeIo::recv`] and [`NodeIo::send`] are provided on
/// top of the slot methods.
///
/// Frame buffers circulate: a node asks [`NodeIo::buffer`] for the buffer
/// it builds a frame in, and hands every buffer it is done with — a
/// consumed frame, a frame a port refused — to [`NodeIo::recycle`]. The
/// round executor serves both from its frame pool, so in steady state a
/// frame costs no allocation; the provided defaults allocate exactly and
/// drop, so a context without a pool behaves as if every buffer were new.
pub trait NodeIo {
    /// The slot of an incoming port, `None` when no wire ends there.
    fn in_slot(&self, port: &str) -> Option<usize>;

    /// The slot of an outgoing port, `None` when no wire starts there.
    fn out_slot(&self, port: &str) -> Option<usize>;

    /// Receives the next pending message on an incoming slot, if any (a
    /// slot this context never issued has none).
    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>>;

    /// Sends a message on an outgoing slot. A wire with no room this round
    /// hands the message back (back-pressure), as does a slot this context
    /// never issued.
    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>>;

    /// The current round number (every node's only clock).
    fn round(&self) -> u64;

    /// Reports that a frame was sent *again* (retransmission protocols call
    /// this next to the repeated `send`). Purely observational — executors
    /// that keep books override it; the default is a no-op so plain nodes
    /// and test harnesses need not care.
    fn note_retransmit(&mut self, _seq: u16) {}

    /// An empty buffer with room for a frame of `len` bytes. The executor
    /// hands out pooled buffers under the capacity rule of
    /// [`sep_model::bufpool`]: the capacity is a function of `len` alone,
    /// never of what the buffer carried before. The default allocates
    /// exactly `len`.
    fn buffer(&mut self, len: usize) -> Vec<u8> {
        Vec::with_capacity(len)
    }

    /// Takes back a buffer the node is done with, for a later
    /// [`NodeIo::buffer`]. The default drops it.
    fn recycle(&mut self, _buf: Vec<u8>) {}

    /// Receives the next pending message on an incoming port, if any.
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        let slot = self.in_slot(port)?;
        self.recv_from(slot)
    }

    /// Sends a message on an outgoing port.
    fn send(&mut self, port: &str, msg: Vec<u8>) -> Result<(), SendError> {
        let slot = self
            .out_slot(port)
            .ok_or_else(|| SendError::NoSuchPort(port.to_string()))?;
        self.send_to(slot, msg)
            .map_err(|_| SendError::WireFull(port.to_string()))
    }
}

/// A component of the distributed system.
///
/// `Send` because the round executor may step nodes on a worker pool
/// ([`crate::Network::set_workers`]). A node's state is still exclusively
/// owned — the bound lets a node *move* to a worker thread for the
/// duration of a step phase, it never makes the state shared.
pub trait Node: Send {
    /// Display name (also the trace colour).
    fn name(&self) -> &str;

    /// Executes one round: consume available inputs, produce outputs.
    fn step(&mut self, io: &mut dyn NodeIo);
}
