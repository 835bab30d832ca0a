//! The network executor: deterministic rounds over nodes and wires,
//! sequentially or on a worker pool.
//!
//! # The staged round
//!
//! A round has two phases. In the **step phase** every node executes once
//! against a `StagedIo`, the executor's [`NodeIo`]: receives pop the
//! node's incoming wires (a wire has exactly one consumer, so receiving
//! nodes touch disjoint state), while sends are *staged* — admitted
//! against the wire's start-of-round occupancy plus what the node itself
//! already staged this round, and buffered instead of pushed. In the
//! **commit phase** the staged frames are applied to the wires (each wire
//! has exactly one sender, so per-wire FIFO order is simply that sender's
//! send order), and each node's buffered observability — counter deltas,
//! events, trace strings — is committed in node-index order, exactly the
//! order a sequential executor emits it in.
//!
//! Because wire latency is ≥ 1, nothing a node sends in a round is
//! deliverable to any node in the same round; and because send admission
//! never looks at what a *receiver* popped this round, no node's step
//! depends on any other node's step within the round. The step phase is
//! therefore embarrassingly parallel: [`Network::set_workers`] runs it on
//! a pool with a round barrier, and every output — wire state, traces,
//! counters, events, reports built from them — is byte-identical at any
//! worker count, including one.

use crate::node::{Node, NodeIo};
use crate::wire::Wire;
use sep_model::trace::TraceSet;
use sep_obs::{ObsEvent, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

/// Identifies a node within a [`Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// A distributed system: nodes plus dedicated wires.
pub struct Network {
    nodes: Vec<Box<dyn Node>>,
    wires: Vec<Wire>,
    round: u64,
    tracing: bool,
    workers: usize,
    /// Per-node observation traces: every receive and send, in order. Used
    /// for the indistinguishability experiments.
    pub traces: TraceSet<String>,
    /// Observability recorder: wire traffic counters, timestamped by round
    /// number. Nodes are registered as the recorder's "regimes".
    pub obs: Recorder,
}

impl Default for Network {
    fn default() -> Self {
        Network::new()
    }
}

impl Network {
    /// An empty network.
    pub fn new() -> Network {
        Network {
            nodes: Vec::new(),
            wires: Vec::new(),
            round: 0,
            tracing: true,
            workers: 1,
            traces: TraceSet::new(),
            obs: Recorder::disabled(),
        }
    }

    /// Switches per-message observation traces on or off (on by default).
    ///
    /// Tracing formats every send and receive into a per-node string — the
    /// right default for the indistinguishability and containment
    /// experiments, but measurable overhead for fleet-scale load runs,
    /// which turn it off. Counters in [`Network::obs`] stay on either way.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Sets the step-phase worker count used by [`Network::run`] (default
    /// 1 = run on the calling thread).
    ///
    /// Workers change wall-clock time and nothing else: the staged round
    /// makes every observable output byte-identical at any worker count.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured step-phase worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Adds a node.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        self.obs
            .metrics
            .register_regime(self.nodes.len(), node.name());
        self.nodes.push(node);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects `from`'s port to `to`'s port with a dedicated wire.
    ///
    /// # Panics
    ///
    /// Panics when either port already has a wire in that direction — ports
    /// are dedicated lines, not buses.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
        capacity: usize,
        latency: u64,
    ) {
        assert!(
            !self
                .wires
                .iter()
                .any(|w| w.from_node == from.0 && w.from_port == from_port),
            "port {from_port} of node {} already wired",
            self.nodes[from.0].name()
        );
        assert!(
            !self
                .wires
                .iter()
                .any(|w| w.to_node == to.0 && w.to_port == to_port),
            "port {to_port} of node {} already wired",
            self.nodes[to.0].name()
        );
        self.wires.push(Wire::new(
            from.0, from_port, to.0, to_port, capacity, latency,
        ));
    }

    /// Like [`Network::connect`], but the wire misbehaves per the seeded
    /// loss model (drops, duplicates, bit-flips, reorders). The wire is
    /// built with its loss model attached rather than patched after the
    /// fact, so there is no window in which a lossy wire looks lossless.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_lossy(
        &mut self,
        from: NodeId,
        from_port: &str,
        to: NodeId,
        to_port: &str,
        capacity: usize,
        latency: u64,
        loss: sep_fault::LossModel,
    ) {
        self.connect(from, from_port, to, to_port, capacity, latency);
        // `connect` either pushed the wire or panicked on a config bug.
        if let Some(w) = self.wires.last_mut() {
            w.set_loss(loss);
        }
    }

    /// The wires, in connection order (loss counters live on them).
    pub fn wires(&self) -> &[Wire] {
        &self.wires
    }

    /// The current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Runs one round on the calling thread: step phase in node-index
    /// order, then commit. (The worker pool engages only in
    /// [`Network::run`]; a single round is always sequential.)
    pub fn run_round(&mut self) {
        let plan = self.plan();
        self.round_sequential(&plan);
    }

    /// Runs `n` rounds, on the worker pool when one is configured.
    pub fn run(&mut self, n: u64) {
        let workers = self.workers.min(self.nodes.len());
        if workers <= 1 {
            let plan = self.plan();
            for _ in 0..n {
                self.round_sequential(&plan);
            }
        } else {
            self.run_pool(n, workers);
        }
    }

    /// Total messages currently in flight across all wires.
    pub fn in_flight(&self) -> usize {
        self.wires.iter().map(Wire::in_flight).sum()
    }

    /// Routing derived from the wire list once per run: which wires each
    /// node reads, and each node's outgoing ports (wire, name, capacity).
    fn plan(&self) -> Plan {
        let mut outs = vec![Vec::new(); self.nodes.len()];
        for (i, w) in self.wires.iter().enumerate() {
            outs[w.from_node].push((i, w.from_port.clone(), w.capacity));
        }
        Plan { outs }
    }

    /// One staged round on the calling thread.
    fn round_sequential(&mut self, plan: &Plan) {
        let round = self.round;
        let keep_events = self.obs.tracing();
        let tracing = self.tracing;
        let start_len: Vec<usize> = self.wires.iter().map(Wire::in_flight).collect();
        let mut outs: Vec<StepOut> = Vec::with_capacity(self.nodes.len());
        {
            let Network { nodes, wires, .. } = self;
            for (idx, node) in nodes.iter_mut().enumerate() {
                let ins: Vec<&mut Wire> = wires.iter_mut().filter(|w| w.to_node == idx).collect();
                let occ = plan.outs[idx]
                    .iter()
                    .map(|&(w, _, _)| start_len[w])
                    .collect();
                let mut io = StagedIo {
                    node: idx,
                    round,
                    ins,
                    outs: &plan.outs[idx],
                    occ,
                    keep_events,
                    tracing,
                    out: StepOut::default(),
                };
                node.step(&mut io);
                outs.push(io.out);
            }
        }
        for (idx, mut out) in outs.into_iter().enumerate() {
            for (w, msg) in out.staged.drain(..) {
                commit_push(&mut self.wires[w], round, msg);
            }
            let name = if out.trace.is_empty() {
                String::new()
            } else {
                self.nodes[idx].name().to_string()
            };
            self.apply_obs(round, idx, out, &name);
        }
        self.round += 1;
    }

    /// Commits one node's buffered observability: counter deltas, obs
    /// events, trace strings. Caller guarantees node-index order.
    fn apply_obs(&mut self, round: u64, idx: usize, out: StepOut, name: &str) {
        let m = &mut self.obs.metrics;
        m.totals.wire_messages += out.sent;
        m.totals.wire_bytes += out.bytes_sent;
        m.totals.retransmissions += out.retransmissions;
        let r = m.regime_mut(idx);
        r.messages_sent += out.sent;
        r.channel_bytes_sent += out.bytes_sent;
        r.messages_received += out.received;
        r.channel_bytes_received += out.bytes_received;
        r.retransmissions += out.retransmissions;
        self.obs.absorb(round, out.events);
        for ev in out.trace {
            self.traces.record(name, ev);
        }
    }

    /// `n` staged rounds with the step phase on `workers` threads.
    ///
    /// Nodes are binned by `index % workers` and *moved* to their worker;
    /// a wire moves to the worker of its receiving node, making every
    /// receive a plain owned-state pop. The only cross-worker traffic is
    /// the staged-frame mailbox per wire (single producer: the sender's
    /// worker), the atomically-published start-of-round occupancy per
    /// wire, and the per-node [`StepOut`] the main thread merges between
    /// the two barriers of each round.
    fn run_pool(&mut self, n: u64, workers: usize) {
        let plan = self.plan();
        let keep_events = self.obs.tracing();
        let tracing = self.tracing;
        let round0 = self.round;
        let num_nodes = self.nodes.len();
        let num_wires = self.wires.len();
        let names: Vec<String> = self.nodes.iter().map(|nd| nd.name().to_string()).collect();
        // Start-of-round occupancy per wire, re-published by the owning
        // worker at each commit; barrier-separated from every reader.
        let lens: Vec<AtomicUsize> = self
            .wires
            .iter()
            .map(|w| AtomicUsize::new(w.in_flight()))
            .collect();
        // Staged-frame mailbox per wire. A wire has exactly one sender, so
        // each mailbox has one producer per round — the lock is for the
        // receiving worker draining it at commit.
        let staging: Vec<Mutex<Vec<Vec<u8>>>> =
            (0..num_wires).map(|_| Mutex::new(Vec::new())).collect();
        let mailbox: Vec<Mutex<Option<StepOut>>> =
            (0..num_nodes).map(|_| Mutex::new(None)).collect();
        // A panicking node poisons the run: everyone keeps meeting the
        // barriers (no deadlock), skips the work, and the panic is
        // re-raised on the calling thread once the pool drains.
        let poisoned = AtomicBool::new(false);
        let poison_msg: Mutex<Option<String>> = Mutex::new(None);
        let barrier = Barrier::new(workers + 1);

        let mut node_bins: Vec<Vec<(usize, Box<dyn Node>)>> =
            (0..workers).map(|_| Vec::new()).collect();
        for (i, node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            node_bins[i % workers].push((i, node));
        }
        let mut wire_bins: Vec<Vec<(usize, Wire)>> = (0..workers).map(|_| Vec::new()).collect();
        for (i, w) in std::mem::take(&mut self.wires).into_iter().enumerate() {
            wire_bins[w.to_node % workers].push((i, w));
        }

        std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for (mut bin_nodes, mut bin_wires) in node_bins.into_iter().zip(wire_bins) {
                let (plan, lens, staging, mailbox, poisoned, poison_msg, barrier) = (
                    &plan,
                    &lens,
                    &staging,
                    &mailbox,
                    &poisoned,
                    &poison_msg,
                    &barrier,
                );
                handles.push(s.spawn(move || {
                    for r in 0..n {
                        let round = round0 + r;
                        if !poisoned.load(Ordering::Acquire) {
                            for (idx, node) in bin_nodes.iter_mut() {
                                let idx = *idx;
                                let ins: Vec<&mut Wire> = bin_wires
                                    .iter_mut()
                                    .filter(|(_, w)| w.to_node == idx)
                                    .map(|(_, w)| w)
                                    .collect();
                                let occ: Vec<usize> = plan.outs[idx]
                                    .iter()
                                    .map(|&(w, _, _)| lens[w].load(Ordering::Acquire))
                                    .collect();
                                let mut io = StagedIo {
                                    node: idx,
                                    round,
                                    ins,
                                    outs: &plan.outs[idx],
                                    occ,
                                    keep_events,
                                    tracing,
                                    out: StepOut::default(),
                                };
                                let stepped = catch_unwind(AssertUnwindSafe(|| node.step(&mut io)));
                                if let Err(p) = stepped {
                                    let mut slot = poison_msg.lock().expect("poison message lock");
                                    if slot.is_none() {
                                        *slot = Some(panic_text(p));
                                    }
                                    poisoned.store(true, Ordering::Release);
                                    break;
                                }
                                for (w, msg) in io.out.staged.drain(..) {
                                    staging[w].lock().expect("wire staging lock").push(msg);
                                }
                                *mailbox[idx].lock().expect("step mailbox lock") = Some(io.out);
                            }
                        }
                        barrier.wait();
                        // The main thread is merging StepOuts now; workers
                        // commit the wires they own.
                        if !poisoned.load(Ordering::Acquire) {
                            for (wi, wire) in bin_wires.iter_mut() {
                                let frames = std::mem::take(
                                    &mut *staging[*wi].lock().expect("wire staging lock"),
                                );
                                for msg in frames {
                                    commit_push(wire, round, msg);
                                }
                                lens[*wi].store(wire.in_flight(), Ordering::Release);
                            }
                        }
                        barrier.wait();
                    }
                    (bin_nodes, bin_wires)
                }));
            }

            for r in 0..n {
                barrier.wait();
                let round = round0 + r;
                if !poisoned.load(Ordering::Acquire) {
                    for (idx, slot) in mailbox.iter().enumerate() {
                        if let Some(out) = slot.lock().expect("step mailbox lock").take() {
                            self.apply_obs(round, idx, out, &names[idx]);
                        }
                    }
                    self.round += 1;
                }
                barrier.wait();
            }

            let mut nodes_back: Vec<Option<Box<dyn Node>>> = (0..num_nodes).map(|_| None).collect();
            let mut wires_back: Vec<Option<Wire>> = (0..num_wires).map(|_| None).collect();
            for h in handles {
                let (bn, bw) = h.join().expect("network worker thread");
                for (i, nd) in bn {
                    nodes_back[i] = Some(nd);
                }
                for (i, w) in bw {
                    wires_back[i] = Some(w);
                }
            }
            self.nodes = nodes_back
                .into_iter()
                .map(|o| o.expect("every node returned by its worker"))
                .collect();
            self.wires = wires_back
                .into_iter()
                .map(|o| o.expect("every wire returned by its worker"))
                .collect();
        });

        let poison = poison_msg.lock().expect("poison message lock").take();
        if let Some(msg) = poison {
            panic!("node step panicked in worker: {msg}");
        }
    }
}

/// Per-node outgoing-port routing, derived from the wire list once per run
/// (in-wires need no plan: both executors hand a node its in-wires as
/// exclusive `&mut` borrows).
struct Plan {
    /// Outgoing ports per node: (wire index, port name, capacity).
    outs: Vec<Vec<(usize, String, usize)>>,
}

/// Everything one node's step produced, buffered worker-locally during the
/// step phase and committed at the round barrier in node-index order.
#[derive(Default)]
struct StepOut {
    /// Admitted sends in call order: (wire index, frame).
    staged: Vec<(usize, Vec<u8>)>,
    /// Observability events in emission order (kept only while the
    /// recorder traces — a disabled recorder would drop them anyway).
    events: Vec<ObsEvent>,
    /// Per-node trace strings.
    trace: Vec<String>,
    sent: u64,
    bytes_sent: u64,
    received: u64,
    bytes_received: u64,
    retransmissions: u64,
}

/// The I/O context a stepping node sees: exclusive access to its incoming
/// wires, staged sends on its outgoing ports, and worker-local buffers for
/// everything observable. Send admission is against `start-of-round
/// occupancy + own staged count`, so it cannot depend on what any other
/// node did this round.
struct StagedIo<'a> {
    node: usize,
    round: u64,
    ins: Vec<&'a mut Wire>,
    outs: &'a [(usize, String, usize)],
    /// Occupancy per out-port: start-of-round length plus frames this node
    /// staged so far (parallel to `outs`).
    occ: Vec<usize>,
    keep_events: bool,
    tracing: bool,
    out: StepOut,
}

impl NodeIo for StagedIo<'_> {
    fn in_slot(&self, port: &str) -> Option<usize> {
        self.ins.iter().position(|w| w.to_port == port)
    }

    fn out_slot(&self, port: &str) -> Option<usize> {
        self.outs.iter().position(|(_, p, _)| p == port)
    }

    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
        let wire = self.ins.get_mut(slot)?;
        let msg = wire.pop_deliverable(self.round)?;
        self.out.received += 1;
        self.out.bytes_received += msg.len() as u64;
        if self.keep_events {
            self.out.events.push(ObsEvent::WireRecv {
                node: self.node as u16,
                bytes: msg.len() as u32,
            });
        }
        if self.tracing {
            let port = &self.ins[slot].to_port;
            self.out.trace.push(format!("recv {port} {}", hex(&msg)));
        }
        Some(msg)
    }

    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        let Some((wire, port, capacity)) = self.outs.get(slot) else {
            return Err(msg);
        };
        if self.occ[slot] >= *capacity {
            return Err(msg);
        }
        self.occ[slot] += 1;
        let bytes = msg.len() as u64;
        self.out.sent += 1;
        self.out.bytes_sent += bytes;
        if self.keep_events {
            self.out.events.push(ObsEvent::WireSend {
                node: self.node as u16,
                bytes: bytes as u32,
            });
        }
        if self.tracing {
            self.out.trace.push(format!("send {port} {}", hex(&msg)));
        }
        self.out.staged.push((*wire, msg));
        Ok(())
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn note_retransmit(&mut self, seq: u16) {
        self.out.retransmissions += 1;
        if self.keep_events {
            self.out.events.push(ObsEvent::Retransmit {
                node: self.node as u16,
                seq,
            });
        }
        if self.tracing {
            self.out.trace.push(format!("retx seq{seq}"));
        }
    }
}

/// Applies one staged frame to its wire. Admission already checked the
/// start-of-round occupancy and pops only shrink the queue, so the only
/// way this can still overflow is a loss-model *duplicate* that rode along
/// earlier in the same commit; the excess frame is charged to the wire as
/// a drop — over-capacity loss, never a panic.
fn commit_push(wire: &mut Wire, round: u64, msg: Vec<u8>) {
    if wire.push(round, msg).is_err() {
        wire.dropped += 1;
    }
}

fn panic_text(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SendError;

    /// Sends its name's bytes once, then echoes everything it receives.
    struct Echo {
        name: String,
        greeted: bool,
    }

    impl Echo {
        fn new(name: &str) -> Box<Echo> {
            Box::new(Echo {
                name: name.to_string(),
                greeted: false,
            })
        }
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            &self.name
        }

        fn step(&mut self, io: &mut dyn NodeIo) {
            if !self.greeted {
                let _ = io.send("out", self.name.clone().into_bytes());
                self.greeted = true;
            }
            while let Some(msg) = io.recv("in") {
                let _ = io.send("out", msg);
            }
        }
    }

    #[test]
    fn ring_passes_messages() {
        let mut net = Network::new();
        let a = net.add_node(Echo::new("a"));
        let b = net.add_node(Echo::new("b"));
        net.connect(a, "out", b, "in", 8, 1);
        net.connect(b, "out", a, "in", 8, 1);
        net.run(6);
        // Both greetings circulate; traces record sends and receives.
        assert!(net
            .traces
            .trace("a")
            .iter()
            .any(|e| e.starts_with("recv in")));
        assert!(net
            .traces
            .trace("b")
            .iter()
            .any(|e| e.starts_with("recv in")));
    }

    #[test]
    fn unconnected_port_errors() {
        struct Lost;
        impl Node for Lost {
            fn name(&self) -> &str {
                "lost"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                assert_eq!(
                    io.send("nowhere", vec![1]),
                    Err(SendError::NoSuchPort("nowhere".to_string()))
                );
                assert_eq!(io.recv("nothing"), None);
            }
        }
        let mut net = Network::new();
        net.add_node(Box::new(Lost));
        net.run_round();
    }

    #[test]
    fn back_pressure_reports_wire_full() {
        struct Flood;
        impl Node for Flood {
            fn name(&self) -> &str {
                "flood"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                let mut sent = 0;
                while io.send("out", vec![0]).is_ok() {
                    sent += 1;
                    assert!(sent <= 2, "capacity not enforced");
                }
            }
        }
        struct Sink;
        impl Node for Sink {
            fn name(&self) -> &str {
                "sink"
            }
            fn step(&mut self, _io: &mut dyn NodeIo) {}
        }
        let mut net = Network::new();
        let f = net.add_node(Box::new(Flood));
        let s = net.add_node(Box::new(Sink));
        net.connect(f, "out", s, "in", 2, 1);
        net.run_round();
        assert_eq!(net.in_flight(), 2);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn ports_are_dedicated() {
        let mut net = Network::new();
        let a = net.add_node(Echo::new("a"));
        let b = net.add_node(Echo::new("b"));
        let c = net.add_node(Echo::new("c"));
        net.connect(a, "out", b, "in", 1, 1);
        net.connect(a, "out", c, "in", 1, 1);
    }

    #[test]
    fn rounds_advance_deterministically() {
        let mut net = Network::new();
        assert_eq!(net.round(), 0);
        net.run(5);
        assert_eq!(net.round(), 5);
    }

    #[test]
    fn tracing_off_keeps_counters_but_records_no_events() {
        let build = |tracing: bool| {
            let mut net = Network::new();
            net.set_tracing(tracing);
            let a = net.add_node(Echo::new("a"));
            let b = net.add_node(Echo::new("b"));
            net.connect(a, "out", b, "in", 8, 1);
            net.connect(b, "out", a, "in", 8, 1);
            net.run(10);
            net
        };
        let on = build(true);
        let off = build(false);
        assert!(off.traces.is_empty(), "gate left event strings behind");
        assert!(!on.traces.is_empty());
        // The counters are unaffected by the gate.
        assert_eq!(on.obs.metrics, off.obs.metrics);
        assert!(off.obs.metrics.totals.wire_messages > 0);
    }

    #[test]
    fn identical_networks_produce_identical_traces() {
        let build = || {
            let mut net = Network::new();
            let a = net.add_node(Echo::new("a"));
            let b = net.add_node(Echo::new("b"));
            net.connect(a, "out", b, "in", 8, 1);
            net.connect(b, "out", a, "in", 8, 1);
            net.run(10);
            net
        };
        let n1 = build();
        let n2 = build();
        assert!(n1.traces.equivalent(&n2.traces).is_ok());
    }

    /// A four-node ring with capacity pressure and one lossy wire: the
    /// parallel executor must reproduce the sequential one byte for byte —
    /// traces, counters, wire loss books, in-flight totals, round count.
    fn contended_ring(workers: usize) -> Network {
        let mut net = Network::new();
        net.obs.enable_tracing(4096);
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| net.add_node(Echo::new(n)))
            .collect();
        for i in 0..ids.len() {
            let next = ids[(i + 1) % ids.len()];
            if i == 1 {
                // One misbehaving hop exercises loss-fate rolls at commit.
                net.connect_lossy(
                    ids[i],
                    "out",
                    next,
                    "in",
                    2,
                    1,
                    sep_fault::LossModel::new(7)
                        .with_drop(120)
                        .with_duplicate(200)
                        .with_reorder(150),
                );
            } else {
                net.connect(ids[i], "out", next, "in", 2, 1);
            }
        }
        net.set_workers(workers);
        net.run(25);
        net
    }

    #[test]
    fn worker_pool_matches_sequential_byte_for_byte() {
        let seq = contended_ring(1);
        for workers in [2, 3, 4, 8] {
            let par = contended_ring(workers);
            assert!(
                seq.traces.equivalent(&par.traces).is_ok(),
                "traces diverged at {workers} workers"
            );
            assert_eq!(seq.obs.metrics, par.obs.metrics, "{workers} workers");
            assert_eq!(
                seq.obs.trace().map(|t| t.events().to_vec()),
                par.obs.trace().map(|t| t.events().to_vec()),
                "obs event streams diverged at {workers} workers"
            );
            assert_eq!(seq.in_flight(), par.in_flight());
            assert_eq!(seq.round(), par.round());
            for (ws, wp) in seq.wires().iter().zip(par.wires()) {
                assert_eq!(
                    (ws.dropped, ws.duplicated, ws.corrupted, ws.reordered),
                    (wp.dropped, wp.duplicated, wp.corrupted, wp.reordered),
                    "loss books diverged at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn worker_pool_survives_more_workers_than_nodes() {
        let mut net = Network::new();
        let a = net.add_node(Echo::new("a"));
        let b = net.add_node(Echo::new("b"));
        net.connect(a, "out", b, "in", 8, 1);
        net.connect(b, "out", a, "in", 8, 1);
        net.set_workers(64);
        net.run(10);
        assert_eq!(net.round(), 10);
        assert!(!net.traces.is_empty());
    }

    #[test]
    #[should_panic(expected = "node step panicked in worker: boom at round 3")]
    fn worker_panic_is_reraised_not_deadlocked() {
        struct Grenade;
        impl Node for Grenade {
            fn name(&self) -> &str {
                "grenade"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                if io.round() == 3 {
                    panic!("boom at round {}", io.round());
                }
            }
        }
        let mut net = Network::new();
        net.add_node(Box::new(Grenade));
        net.add_node(Echo::new("bystander"));
        net.set_workers(2);
        net.run(10);
    }

    /// Back-pressure admission is against start-of-round occupancy: a
    /// receiver draining a full wire in the same round must not open room
    /// for the sender until the *next* round, regardless of node order.
    #[test]
    fn same_round_drain_does_not_open_capacity() {
        struct Pump;
        impl Node for Pump {
            fn name(&self) -> &str {
                "pump"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                while io.send("out", vec![io.round() as u8]).is_ok() {}
            }
        }
        struct Drain;
        impl Node for Drain {
            fn name(&self) -> &str {
                "drain"
            }
            fn step(&mut self, io: &mut dyn NodeIo) {
                while io.recv("in").is_some() {}
            }
        }
        // Same wiring, both orders: pump-before-drain and drain-before-pump
        // must count identical sends every round.
        let run = |drain_first: bool| {
            let mut net = Network::new();
            let (p, d) = if drain_first {
                let d = net.add_node(Box::new(Drain));
                let p = net.add_node(Box::new(Pump));
                (p, d)
            } else {
                let p = net.add_node(Box::new(Pump));
                let d = net.add_node(Box::new(Drain));
                (p, d)
            };
            net.connect(p, "out", d, "in", 2, 1);
            net.run(6);
            net.obs.metrics.totals.wire_messages
        };
        assert_eq!(run(false), run(true));
    }
}
