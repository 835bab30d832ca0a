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
//!
//! # Frames circulate
//!
//! Each stepping thread — the calling thread, or each pool worker — serves
//! [`NodeIo::buffer`] and [`NodeIo::recycle`] from its own frame pool,
//! bounded by the wires' total capacity, and its commit phase copies a
//! loss-model duplicate into a pooled buffer and returns a dropped frame
//! to the pool. The routing plan and every node's step scratch (send
//! occupancy, staged frames, observability buffers) live as long as the
//! network and are cleared in place each round, so a round in steady
//! state allocates nothing. A pool changes where a buffer comes from,
//! never its bytes or, by the rule of [`sep_model::bufpool`], its
//! capacity.

use crate::node::{Node, NodeIo};
use crate::wire::Wire;
use sep_model::bufpool::BufPool;
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
    /// Routing, extended as nodes and wires are added.
    plan: Plan,
    /// Per-node step scratch, parallel to `nodes`, cleared in place every
    /// round.
    steps: Vec<NodeStep>,
    /// The calling thread's frame pool, bounded by the wires' total
    /// capacity.
    pool: BufPool,
    /// Each pool worker's own frame pool, kept across runs.
    worker_pools: Vec<BufPool>,
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
            plan: Plan::default(),
            steps: Vec::new(),
            pool: BufPool::default(),
            worker_pools: Vec::new(),
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
        self.plan.names.push(node.name().to_string());
        self.plan.ins.push(Vec::new());
        self.plan.outs.push(Vec::new());
        self.steps.push(NodeStep::default());
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
        let wire = Wire::new(from.0, from_port, to.0, to_port, capacity, latency);
        let w = self.wires.len();
        self.plan.ins[to.0].push(w);
        self.plan.outs[from.0].push(OutPort {
            wire: w,
            port: wire.from_port.clone(),
            capacity,
        });
        self.pool.raise_bound(capacity);
        self.wires.push(wire);
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
        self.round_sequential();
    }

    /// Runs `n` rounds, on the worker pool when one is configured.
    pub fn run(&mut self, n: u64) {
        let workers = self.workers.min(self.nodes.len());
        if workers <= 1 {
            for _ in 0..n {
                self.round_sequential();
            }
        } else {
            self.run_pool(n, workers);
        }
    }

    /// Total messages currently in flight across all wires.
    pub fn in_flight(&self) -> usize {
        self.wires.iter().map(Wire::in_flight).sum()
    }

    /// One staged round on the calling thread.
    fn round_sequential(&mut self) {
        let round = self.round;
        let keep_events = self.obs.tracing();
        let tracing = self.tracing;
        let Network {
            nodes,
            wires,
            plan,
            steps,
            pool,
            traces,
            obs,
            ..
        } = self;
        // Every node's send admission sees its out-wires as they stood
        // before anyone popped them this round.
        for (step, outs) in steps.iter_mut().zip(&plan.outs) {
            step.occ.clear();
            step.occ
                .extend(outs.iter().map(|o| wires[o.wire].in_flight()));
        }
        for (idx, (node, step)) in nodes.iter_mut().zip(steps.iter_mut()).enumerate() {
            let mut io = StagedIo {
                node: idx,
                round,
                wires,
                ins: &plan.ins[idx],
                outs: &plan.outs[idx],
                occ: &mut step.occ,
                keep_events,
                tracing,
                out: &mut step.out,
                pool,
            };
            node.step(&mut io);
        }
        for (idx, step) in steps.iter_mut().enumerate() {
            for (w, msg) in step.out.staged.drain(..) {
                commit_push(&mut wires[w], round, msg, pool);
            }
            apply_obs(obs, traces, round, idx, &mut step.out, &plan.names[idx]);
        }
        self.round += 1;
    }

    /// `n` staged rounds with the step phase on `workers` threads.
    ///
    /// Nodes are binned by `index % workers` and *moved* to their worker
    /// with their step scratch; a wire moves to the worker of its receiving
    /// node, making every receive a plain owned-state pop. Each worker
    /// builds and recycles frames in its own pool. The only cross-worker
    /// traffic is the staged-frame mailbox per wire (single producer: the
    /// sender's worker), the atomically-published start-of-round occupancy
    /// per wire, and the per-node [`StepOut`] the main thread merges between
    /// the two barriers of each round, swapped with the worker's so both
    /// keep their capacity.
    fn run_pool(&mut self, n: u64, workers: usize) {
        let round0 = self.round;
        let num_nodes = self.nodes.len();
        let num_wires = self.wires.len();
        // A panicking node poisons the run: everyone keeps meeting the
        // barriers (no deadlock), skips the work, and the panic is
        // re-raised on the calling thread once the pool drains.
        let poisoned = AtomicBool::new(false);
        let poison_msg: Mutex<Option<String>> = Mutex::new(None);
        let barrier = Barrier::new(workers + 1);

        let mut bins: Vec<Bin> = (0..workers).map(|_| Bin::default()).collect();
        // Where each wire lands in its receiving worker's bin.
        let mut local = vec![0; num_wires];
        let lens = self
            .wires
            .iter()
            .map(|w| AtomicUsize::new(w.in_flight()))
            .collect();
        for (i, w) in std::mem::take(&mut self.wires).into_iter().enumerate() {
            let bin = &mut bins[w.to_node % workers];
            local[i] = bin.wires.len();
            bin.wire_ids.push(i);
            bin.wires.push(w);
        }
        let nodes = std::mem::take(&mut self.nodes);
        let steps = std::mem::take(&mut self.steps);
        for (i, (node, step)) in nodes.into_iter().zip(steps).enumerate() {
            let ins = self.plan.ins[i].iter().map(|&w| local[w]).collect();
            bins[i % workers].nodes.push(BinNode {
                idx: i,
                node,
                step,
                ins,
            });
        }
        self.worker_pools
            .resize_with(workers, || BufPool::new(self.pool.bound()));
        for (bin, pool) in bins.iter_mut().zip(&mut self.worker_pools) {
            bin.pool = std::mem::take(pool);
        }

        let shared = Shared {
            plan: &self.plan,
            lens,
            staging: (0..num_wires).map(|_| Mutex::new(Vec::new())).collect(),
            mailbox: (0..num_nodes)
                .map(|_| Mutex::new(StepOut::default()))
                .collect(),
            keep_events: self.obs.tracing(),
            tracing: self.tracing,
        };
        let (obs, traces, round) = (&mut self.obs, &mut self.traces, &mut self.round);
        let bins = std::thread::scope(|s| {
            let mut handles = Vec::with_capacity(workers);
            for mut bin in bins {
                let (shared, poisoned, poison_msg, barrier) =
                    (&shared, &poisoned, &poison_msg, &barrier);
                handles.push(s.spawn(move || {
                    for r in 0..n {
                        let round = round0 + r;
                        if !poisoned.load(Ordering::Acquire) {
                            if let Err(msg) = bin.step(shared, round) {
                                poison_msg
                                    .lock()
                                    .expect("poison message lock")
                                    .get_or_insert(msg);
                                poisoned.store(true, Ordering::Release);
                            }
                        }
                        barrier.wait();
                        // The main thread is merging StepOuts now; workers
                        // commit the wires they own.
                        if !poisoned.load(Ordering::Acquire) {
                            bin.commit(shared, round);
                        }
                        barrier.wait();
                    }
                    bin
                }));
            }

            for r in 0..n {
                barrier.wait();
                if !poisoned.load(Ordering::Acquire) {
                    for (idx, slot) in shared.mailbox.iter().enumerate() {
                        let mut out = slot.lock().expect("step mailbox lock");
                        let name = &shared.plan.names[idx];
                        apply_obs(obs, traces, round0 + r, idx, &mut out, name);
                    }
                    *round += 1;
                }
                barrier.wait();
            }

            handles
                .into_iter()
                .map(|h| h.join().expect("network worker thread"))
                .collect::<Vec<Bin>>()
        });

        let mut nodes_back: Vec<Option<(Box<dyn Node>, NodeStep)>> =
            (0..num_nodes).map(|_| None).collect();
        let mut wires_back: Vec<Option<Wire>> = (0..num_wires).map(|_| None).collect();
        for (bin, pool) in bins.into_iter().zip(&mut self.worker_pools) {
            for b in bin.nodes {
                nodes_back[b.idx] = Some((b.node, b.step));
            }
            for (i, w) in bin.wire_ids.into_iter().zip(bin.wires) {
                wires_back[i] = Some(w);
            }
            *pool = bin.pool;
        }
        (self.nodes, self.steps) = nodes_back
            .into_iter()
            .map(|o| o.expect("every node returned by its worker"))
            .unzip();
        self.wires = wires_back
            .into_iter()
            .map(|o| o.expect("every wire returned by its worker"))
            .collect();

        let poison = poison_msg.lock().expect("poison message lock").take();
        if let Some(msg) = poison {
            panic!("node step panicked in worker: {msg}");
        }
    }
}

/// Commits one node's buffered observability — counter deltas, obs events,
/// trace strings — and clears it for the node's next step. Caller
/// guarantees node-index order.
fn apply_obs(
    obs: &mut Recorder,
    traces: &mut TraceSet<String>,
    round: u64,
    idx: usize,
    out: &mut StepOut,
    name: &str,
) {
    let m = &mut obs.metrics;
    m.totals.wire_messages += out.sent;
    m.totals.wire_bytes += out.bytes_sent;
    m.totals.retransmissions += out.retransmissions;
    let r = m.regime_mut(idx);
    r.messages_sent += out.sent;
    r.channel_bytes_sent += out.bytes_sent;
    r.messages_received += out.received;
    r.channel_bytes_received += out.bytes_received;
    r.retransmissions += out.retransmissions;
    obs.absorb(round, out.events.drain(..));
    for ev in out.trace.drain(..) {
        traces.record(name, ev);
    }
    out.sent = 0;
    out.bytes_sent = 0;
    out.received = 0;
    out.bytes_received = 0;
    out.retransmissions = 0;
}

/// One pool worker's share of a run: its nodes, the wires it receives on
/// (with their indices in the network), and its frame pool.
#[derive(Default)]
struct Bin {
    nodes: Vec<BinNode>,
    wires: Vec<Wire>,
    wire_ids: Vec<usize>,
    pool: BufPool,
}

impl Bin {
    /// The step phase of one round: steps every node of the bin, hands its
    /// staged frames to their wires' mailboxes and its [`StepOut`] to the
    /// main thread. A node's panic stops the bin with the panic's text.
    fn step(&mut self, shared: &Shared<'_>, round: u64) -> Result<(), String> {
        let Bin {
            nodes, wires, pool, ..
        } = self;
        for BinNode {
            idx,
            node,
            step,
            ins,
        } in nodes.iter_mut()
        {
            let outs = &shared.plan.outs[*idx];
            step.occ.clear();
            step.occ.extend(
                outs.iter()
                    .map(|o| shared.lens[o.wire].load(Ordering::Acquire)),
            );
            let mut io = StagedIo {
                node: *idx,
                round,
                wires,
                ins,
                outs,
                occ: &mut step.occ,
                keep_events: shared.keep_events,
                tracing: shared.tracing,
                out: &mut step.out,
                pool,
            };
            catch_unwind(AssertUnwindSafe(|| node.step(&mut io))).map_err(panic_text)?;
            for (w, msg) in step.out.staged.drain(..) {
                let mut frames = shared.staging[w].lock().expect("wire staging lock");
                frames.push(msg);
            }
            let mut mailbox = shared.mailbox[*idx].lock().expect("step mailbox lock");
            std::mem::swap(&mut *mailbox, &mut step.out);
        }
        Ok(())
    }

    /// The commit phase of one round: applies the frames staged for the
    /// bin's wires, draining each mailbox in place, and publishes the
    /// wires' occupancy for the next round.
    fn commit(&mut self, shared: &Shared<'_>, round: u64) {
        for (wire, &wi) in self.wires.iter_mut().zip(&self.wire_ids) {
            let mut frames = shared.staging[wi].lock().expect("wire staging lock");
            for msg in frames.drain(..) {
                commit_push(wire, round, msg, &mut self.pool);
            }
            shared.lens[wi].store(wire.in_flight(), Ordering::Release);
        }
    }
}

/// What every pool worker and the main thread share during a run.
struct Shared<'a> {
    plan: &'a Plan,
    /// Start-of-round occupancy per wire, re-published by the owning
    /// worker at each commit; barrier-separated from every reader.
    lens: Vec<AtomicUsize>,
    /// Staged-frame mailbox per wire, drained in place at commit. A wire
    /// has exactly one sender, so each mailbox has one producer per round —
    /// the lock is for the receiving worker draining it.
    staging: Vec<Mutex<Vec<Vec<u8>>>>,
    /// Each node's [`StepOut`], swapped in by its worker after the node's
    /// step and merged, then cleared, by the main thread.
    mailbox: Vec<Mutex<StepOut>>,
    keep_events: bool,
    tracing: bool,
}

/// A node on a pool worker, with its step scratch and its in-wires as
/// indices into the worker's wires.
struct BinNode {
    idx: usize,
    node: Box<dyn Node>,
    step: NodeStep,
    ins: Vec<usize>,
}

/// Routing, extended as nodes and wires are added: each node's name,
/// in-wires and outgoing ports.
#[derive(Default)]
struct Plan {
    names: Vec<String>,
    /// In-wires per node, in connection order (a node's in-slot indexes
    /// its list).
    ins: Vec<Vec<usize>>,
    /// Outgoing ports per node, in connection order.
    outs: Vec<Vec<OutPort>>,
}

/// One outgoing port of a node.
struct OutPort {
    wire: usize,
    port: String,
    capacity: usize,
}

/// One node's scratch, kept across rounds and cleared in place.
#[derive(Default)]
struct NodeStep {
    /// Occupancy per out-port: start-of-round length plus frames this node
    /// staged so far (parallel to the node's outgoing ports).
    occ: Vec<usize>,
    out: StepOut,
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
/// wires, staged sends on its outgoing ports, its thread's frame pool, and
/// worker-local buffers for everything observable. Send admission is
/// against `start-of-round occupancy + own staged count`, so it cannot
/// depend on what any other node did this round.
struct StagedIo<'a> {
    node: usize,
    round: u64,
    /// The stepping thread's wires; the node reads only those `ins` names.
    wires: &'a mut [Wire],
    ins: &'a [usize],
    outs: &'a [OutPort],
    occ: &'a mut Vec<usize>,
    keep_events: bool,
    tracing: bool,
    out: &'a mut StepOut,
    pool: &'a mut BufPool,
}

impl NodeIo for StagedIo<'_> {
    fn in_slot(&self, port: &str) -> Option<usize> {
        self.ins.iter().position(|&w| self.wires[w].to_port == port)
    }

    fn out_slot(&self, port: &str) -> Option<usize> {
        self.outs.iter().position(|o| o.port == port)
    }

    fn recv_from(&mut self, slot: usize) -> Option<Vec<u8>> {
        let wire = &mut self.wires[*self.ins.get(slot)?];
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
            let port = &wire.to_port;
            self.out.trace.push(format!("recv {port} {}", hex(&msg)));
        }
        Some(msg)
    }

    fn send_to(&mut self, slot: usize, msg: Vec<u8>) -> Result<(), Vec<u8>> {
        let Some(o) = self.outs.get(slot) else {
            return Err(msg);
        };
        if self.occ[slot] >= o.capacity {
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
            let port = &o.port;
            self.out.trace.push(format!("send {port} {}", hex(&msg)));
        }
        self.out.staged.push((o.wire, msg));
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

    fn buffer(&mut self, len: usize) -> Vec<u8> {
        self.pool.take(len)
    }

    fn recycle(&mut self, buf: Vec<u8>) {
        self.pool.give(buf);
    }
}

/// Applies one staged frame to its wire, with its thread's pool serving a
/// duplicate's copy and taking back a dropped frame. Admission already
/// checked the start-of-round occupancy and pops only shrink the queue, so
/// the only way this can still overflow is a loss-model *duplicate* that
/// rode along earlier in the same commit; the excess frame is charged to
/// the wire as a drop — over-capacity loss, never a panic.
fn commit_push(wire: &mut Wire, round: u64, msg: Vec<u8>, pool: &mut BufPool) {
    if wire.push_pooled(round, msg, pool).is_err() {
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
    use sep_model::bufpool::FRAME_CAP;

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

    /// Every (length, capacity) of the frames a node received.
    type Seen = std::sync::Arc<Mutex<Vec<(usize, usize)>>>;

    /// Forwards every frame from `in` to `out` in a buffer from the
    /// executor's pool, recycles what it consumed and what `out` refused,
    /// and records every frame's (length, capacity).
    struct Recycler {
        name: String,
        greeted: bool,
        seen: Seen,
    }

    impl Recycler {
        fn forward(io: &mut dyn NodeIo, bytes: &[u8]) {
            let mut f = io.buffer(bytes.len());
            f.extend_from_slice(bytes);
            match io.out_slot("out") {
                Some(slot) => {
                    if let Err(f) = io.send_to(slot, f) {
                        io.recycle(f);
                    }
                }
                None => io.recycle(f),
            }
        }
    }

    impl Node for Recycler {
        fn name(&self) -> &str {
            &self.name
        }

        fn step(&mut self, io: &mut dyn NodeIo) {
            if !self.greeted {
                // Short frames and one past the pooled capacity.
                Recycler::forward(io, self.name.as_bytes());
                Recycler::forward(io, &[7; 2 * FRAME_CAP]);
                self.greeted = true;
            }
            while let Some(m) = io.recv("in") {
                self.seen.lock().unwrap().push((m.len(), m.capacity()));
                Recycler::forward(io, &m);
                io.recycle(m);
            }
        }
    }

    /// A lossy four-node ring of [`Recycler`]s at `workers`.
    fn recycling_ring(workers: usize) -> (Network, Seen) {
        let seen = Seen::default();
        let mut net = Network::new();
        net.set_tracing(false);
        let ids: Vec<NodeId> = ["a", "b", "c", "d"]
            .iter()
            .map(|n| {
                net.add_node(Box::new(Recycler {
                    name: n.to_string(),
                    greeted: false,
                    seen: std::sync::Arc::clone(&seen),
                }))
            })
            .collect();
        for i in 0..ids.len() {
            let loss = sep_fault::LossModel::new(11 + i as u64)
                .with_drop(100)
                .with_duplicate(300)
                .with_corrupt(50)
                .with_reorder(100);
            net.connect_lossy(ids[i], "out", ids[(i + 1) % ids.len()], "in", 3, 1, loss);
        }
        net.set_workers(workers);
        net.run(200);
        (net, seen)
    }

    #[test]
    fn frame_pools_stay_within_the_wires_total_capacity() {
        for workers in [1, 2, 3] {
            let (net, seen) = recycling_ring(workers);
            assert_eq!(net.pool.bound(), 4 * 3, "bound: the wires' capacity");
            assert!(net.pool.len() <= net.pool.bound());
            for pool in &net.worker_pools {
                assert!(pool.len() <= net.pool.bound());
            }
            let circulated =
                net.pool.len() + net.worker_pools.iter().map(BufPool::len).sum::<usize>();
            assert!(circulated > 0, "no frame came back at {workers} workers");
            // Every frame's capacity is the pool's function of its length,
            // duplicates' copies included.
            let seen = seen.lock().unwrap();
            assert!(seen.iter().any(|&(len, _)| len > FRAME_CAP));
            for &(len, cap) in seen.iter() {
                assert_eq!(
                    cap,
                    len.max(FRAME_CAP),
                    "a {len}-byte frame at {workers} workers"
                );
            }
        }
    }

    #[test]
    fn recycling_changes_no_output_at_any_worker_count() {
        let (seq, _) = recycling_ring(1);
        for workers in [2, 3, 4] {
            let (par, _) = recycling_ring(workers);
            assert_eq!(seq.obs.metrics, par.obs.metrics, "{workers} workers");
            assert_eq!(seq.in_flight(), par.in_flight());
            for (ws, wp) in seq.wires().iter().zip(par.wires()) {
                assert_eq!(
                    (ws.dropped, ws.duplicated, ws.corrupted, ws.reordered),
                    (wp.dropped, wp.duplicated, wp.corrupted, wp.reordered),
                );
            }
        }
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
