//! A separation kernel as one node of the distributed fleet.
//!
//! The paper's central observation is that the kernel *recreates* a
//! distributed system on one machine; the fleet closes the loop and puts
//! many such kernels back onto a (simulated) network. Each [`KernelNode`]
//! boots a [`SeparationKernel`] whose regimes host [`Component`]s, plus one
//! idle **uplink** regime that stands in for the node's network interface:
//! every network-facing channel nominally begins or ends at the uplink, and
//! the host-side gateway moves bytes between those channels and the node's
//! wire ports with [`sep_kernel::Channel::host_push`] / `host_pop`.
//!
//! To a hosted component, remote traffic is therefore indistinguishable
//! from a local neighbour: it arrives on an ordinary kernel channel with
//! ordinary capacity back-pressure. The gateway is the only code that knows
//! the wire exists — and on reliable links it runs the selective-repeat ARQ
//! ([`RetxSender`]/[`RetxReceiver`]) so loss, duplication, and reordering
//! are repaired before the kernel ever sees a frame.
//!
//! # Determinism
//!
//! A node's step is a pure function of its kernel state, its gateway state,
//! and the frames the round delivers. Wire latency is ≥ 1, so nothing a
//! node sends is visible to any other node in the same round — the order in
//! which nodes step within a round is unobservable, and a whole fleet run
//! is a deterministic function of its topology and seeds.

use crate::metrics::ChannelGauge;
use crate::topology::NodeSpec;
use sep_components::component::{PortBinding, RegimeComponent};
use sep_components::Component;
use sep_distributed::{Node, NodeIo, RetxReceiver, RetxSender};
use sep_fault::{FaultPlan, OutagePlan};
use sep_kernel::config::{KernelConfig, RegimeSpec};
use sep_kernel::fault;
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::regime::{ChannelView, NativeAction, NativeRegime, RegimeIo};
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Mutex};

/// ARQ window for reliable gateway links, in frames.
pub const RETX_WINDOW: usize = 16;
/// ARQ retransmit timeout for reliable gateway links, in rounds.
pub const RETX_TIMEOUT: u64 = 4;
/// Egress stops draining a kernel channel into the ARQ sender once this
/// many frames are queued or in flight, so back-pressure reaches the
/// sending component as channel-Full instead of unbounded gateway memory.
/// Public because it is also the saturation bound the fleet's gateway
/// gauges report against.
pub const EGRESS_HIGH_WATER: usize = 4 * RETX_WINDOW;

/// The idle uplink regime: the kernel-side endpoint of every gateway
/// channel. It runs no logic — the host gateway is the thing actually
/// feeding and draining its channels — but its existence keeps the channel
/// table honest: every channel has two in-kernel endpoints, and components
/// cannot tell a gateway channel from a local one.
#[derive(Debug, Clone)]
struct Uplink;

impl NativeRegime for Uplink {
    fn step(&mut self, _io: &mut dyn RegimeIo) -> NativeAction {
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    /// Every step is quiet, frames waiting or not: the host drains the
    /// egress channels the uplink nominally receives from.
    fn quiet_rounds(&self, _channels: &ChannelView<'_>) -> u64 {
        u64::MAX
    }

    fn advance(&mut self, _n: u64) {}
}

/// One ingress gateway port: wire frames in, kernel channel out.
struct GateIn {
    port: String,
    ack_port: String,
    channel: usize,
    rx: Option<RetxReceiver>,
    /// Frames delivered by the wire/ARQ but not yet accepted by the
    /// channel (which may be at capacity). Drained first, in order.
    spool: VecDeque<Vec<u8>>,
}

/// One egress gateway port: kernel channel in, wire frames out.
struct GateOut {
    port: String,
    ack_port: String,
    channel: usize,
    tx: Option<RetxSender>,
    /// Unreliable egress only: the frame that met a full wire, retried
    /// before the channel is drained further (FIFO order is preserved).
    spool: VecDeque<Vec<u8>>,
}

/// A separation kernel node of the fleet.
pub struct KernelNode {
    name: String,
    /// The hosted kernel (public: tests and metrics sample it directly).
    pub kernel: SeparationKernel,
    slots_per_round: u64,
    plan: FaultPlan,
    kill_at: Option<u64>,
    outages: OutagePlan,
    /// The pristine kernel image a recovery reboots from — the same state
    /// `from_spec` booted, kept only when an outage is scheduled.
    boot_image: Option<Box<SeparationKernel>>,
    /// The node's non-volatile boot counter: the ARQ boot epoch of every
    /// ingress gateway. This single byte (plus one session byte per egress
    /// gateway, read out of the old sender at reboot) is all the state
    /// that survives a crash.
    boot_count: u8,
    /// Reboots completed.
    pub reboots: u64,
    /// Rounds spent down across all outages so far.
    pub downtime_rounds: u64,
    /// Per recovery, rounds from the reboot until the first post-reboot
    /// ARQ delivery or ack (0 for nodes with no reliable gateways).
    pub time_to_recover: Vec<u64>,
    /// Reboot round of a recovery whose first ARQ activity is still
    /// pending.
    recovering_since: Option<u64>,
    /// Gateway counters accumulated from incarnations before the last
    /// reboot: (stale epochs dropped, epoch resyncs).
    carried: (u64, u64),
    inputs: Vec<GateIn>,
    outputs: Vec<GateOut>,
    /// Depth gauges of the kernel's channels, parallel to
    /// `kernel.channels`.
    gauges: Vec<ChannelGauge>,
    /// Depth gauges of the gateway queues: ingress spools, then egress
    /// ARQ/spool queues.
    gate_gauges: Vec<ChannelGauge>,
}

impl KernelNode {
    /// Boots a node from its spec. `reliable_in` / `reliable_out` name the
    /// node ports that carry an ARQ (the fleet builder derives them from
    /// the link list).
    ///
    /// # Panics
    ///
    /// Panics when the kernel refuses to boot (too many regimes, bad
    /// channel endpoints) — a topology bug, caught before traffic flows.
    pub fn from_spec(
        spec: NodeSpec,
        reliable_in: &BTreeSet<String>,
        reliable_out: &BTreeSet<String>,
    ) -> KernelNode {
        let NodeSpec {
            name,
            components,
            locals,
            inputs,
            outputs,
            slots_per_round,
            fault_plan,
            kill_at,
            outages,
            pending_crash,
        } = spec;
        // A crash_at with no recover_after is a permanent crash — exactly
        // kill_at, so fold it in (the earlier of the two wins).
        let kill_at = match pending_crash {
            Some(c) => Some(kill_at.map_or(c, |k| k.min(c))),
            None => kill_at,
        };
        let n = components.len();
        let uplink = n;
        let comp_names: Vec<String> = components
            .iter()
            .map(|c| c.component.name().to_string())
            .collect();

        // Channel table: locals first, then ingress, then egress.
        let mut chan_specs: Vec<(usize, usize, usize)> = Vec::new();
        let mut gauges = Vec::new();
        let mut gate_gauges = Vec::new();
        let mut bindings: Vec<Vec<PortBinding>> = (0..n).map(|_| Vec::new()).collect();
        for l in &locals {
            let idx = chan_specs.len();
            chan_specs.push((l.from, l.to, l.capacity));
            gauges.push(ChannelGauge::new(
                &format!(
                    "{}.{}->{}.{}",
                    comp_names[l.from], l.from_port, comp_names[l.to], l.to_port
                ),
                l.capacity,
            ));
            bindings[l.from].push(PortBinding::Send {
                port: l.from_port.clone(),
                channel: idx,
            });
            bindings[l.to].push(PortBinding::Recv {
                port: l.to_port.clone(),
                channel: idx,
            });
        }
        let mut gates_in = Vec::new();
        for g in &inputs {
            let idx = chan_specs.len();
            chan_specs.push((uplink, g.component, g.capacity));
            gauges.push(ChannelGauge::new(&format!("in:{}", g.net_port), g.capacity));
            // Spools hold at most what one round delivers: unbounded.
            gate_gauges.push(ChannelGauge::new(&format!("gw-in:{}", g.net_port), 0));
            bindings[g.component].push(PortBinding::Recv {
                port: g.comp_port.clone(),
                channel: idx,
            });
            gates_in.push(GateIn {
                port: g.net_port.clone(),
                ack_port: format!("{}.ack", g.net_port),
                channel: idx,
                rx: reliable_in.contains(&g.net_port).then(RetxReceiver::new),
                spool: VecDeque::new(),
            });
        }
        let mut gates_out = Vec::new();
        for g in &outputs {
            let idx = chan_specs.len();
            chan_specs.push((g.component, uplink, g.capacity));
            gauges.push(ChannelGauge::new(
                &format!("out:{}", g.net_port),
                g.capacity,
            ));
            // An ARQ egress queue saturates at the high-water mark — the
            // signal that wire back-pressure reached the producing
            // component; an unreliable spool is unbounded.
            let reliable = reliable_out.contains(&g.net_port);
            let bound = if reliable { EGRESS_HIGH_WATER } else { 0 };
            gate_gauges.push(ChannelGauge::new(&format!("gw-out:{}", g.net_port), bound));
            bindings[g.component].push(PortBinding::Send {
                port: g.comp_port.clone(),
                channel: idx,
            });
            gates_out.push(GateOut {
                port: g.net_port.clone(),
                ack_port: format!("{}.ack", g.net_port),
                channel: idx,
                tx: reliable.then(|| RetxSender::new(RETX_WINDOW, RETX_TIMEOUT)),
                spool: VecDeque::new(),
            });
        }

        let mut regs: Vec<RegimeSpec> = Vec::with_capacity(n + 1);
        for (i, slot) in components.into_iter().enumerate() {
            let mut r = RegimeSpec::native(
                &comp_names[i],
                RegimeComponent::new(slot.component, std::mem::take(&mut bindings[i])),
            );
            if let Some(p) = slot.fault_policy {
                r = r.with_fault_policy(p);
            }
            if let Some(w) = slot.watchdog {
                r = r.with_watchdog(w);
            }
            regs.push(r);
        }
        regs.push(RegimeSpec::native("uplink", Box::new(Uplink)));

        let mut cfg = KernelConfig::new(regs);
        for (from, to, cap) in chan_specs {
            cfg = cfg.with_channel(from, to, cap);
        }
        let kernel = SeparationKernel::boot(cfg).expect("fleet node boot");
        // The boot image is the kernel as booted — the separation-kernel
        // analogue of re-imaging from installation media. Kept only when a
        // recovery is actually scheduled; a `Clone` of the kernel is
        // byte-identical to a fresh boot (pinned by the hotpath tests).
        let boot_image = (!outages.is_empty()).then(|| Box::new(kernel.clone()));
        KernelNode {
            name,
            kernel,
            slots_per_round: slots_per_round.unwrap_or(n as u64 + 1),
            plan: fault_plan,
            kill_at,
            outages,
            boot_image,
            boot_count: 0,
            reboots: 0,
            downtime_rounds: 0,
            time_to_recover: Vec::new(),
            recovering_since: None,
            carried: (0, 0),
            inputs: gates_in,
            outputs: gates_out,
            gauges,
            gate_gauges,
        }
    }

    /// Display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Depth gauges of the kernel's channels, parallel to
    /// `kernel.channels`, sampled once per live round.
    pub fn channel_gauges(&self) -> &[ChannelGauge] {
        &self.gauges
    }

    /// Depth gauges of the gateway queues (ingress spools, then egress
    /// ARQ/spool queues), sampled once per live round — the node-edge half
    /// of the saturation picture.
    pub fn gateway_gauges(&self) -> &[ChannelGauge] {
        &self.gate_gauges
    }

    /// Whether the node has crash-stopped as of `round`.
    pub fn killed(&self, round: u64) -> bool {
        self.kill_at.is_some_and(|k| round >= k)
    }

    /// Whether the node is silent during `round` — permanently crashed or
    /// inside a scheduled outage. A silent node emits no frames and its
    /// queues are not meaningfully observable (it takes no gauge samples).
    pub fn silent(&self, round: u64) -> bool {
        self.killed(round) || self.outages.down_at(round)
    }

    /// Stale-epoch frames and stale acks dropped by this node's gateways,
    /// cumulative across reboots.
    pub fn stale_epochs(&self) -> u64 {
        let live: u64 = self
            .inputs
            .iter()
            .filter_map(|g| g.rx.as_ref().map(|rx| rx.stale_epoch_dropped))
            .chain(
                self.outputs
                    .iter()
                    .filter_map(|g| g.tx.as_ref().map(|tx| tx.stale_acks_dropped)),
            )
            .sum();
        self.carried.0 + live
    }

    /// Epoch resyncs performed by this node's gateways (sessions adopted
    /// or restarted), cumulative across reboots.
    pub fn resyncs(&self) -> u64 {
        let live: u64 = self
            .inputs
            .iter()
            .filter_map(|g| g.rx.as_ref().map(|rx| rx.resyncs))
            .chain(
                self.outputs
                    .iter()
                    .filter_map(|g| g.tx.as_ref().map(|tx| tx.resyncs)),
            )
            .sum();
        self.carried.1 + live
    }

    /// Egress gateways currently reporting a dead peer (give-up level).
    pub fn peers_down(&self) -> u64 {
        self.outputs
            .iter()
            .filter(|g| g.tx.as_ref().is_some_and(RetxSender::peer_down))
            .count() as u64
    }

    /// Reboots the node from its boot image: the kernel and every gateway
    /// queue are replaced wholesale — all volatile state is gone. What
    /// survives is the non-volatile boot counter (bumped, so every peer's
    /// in-flight frames go stale) and, per egress, the old session epoch
    /// (bumped, so every outstanding ack goes stale).
    fn reboot(&mut self, round: u64) {
        let image = self
            .boot_image
            .as_deref()
            .expect("reboot without a boot image");
        self.kernel = image.clone();
        self.boot_count = self.boot_count.wrapping_add(1);
        let mut had_arq = false;
        for g in &mut self.inputs {
            g.spool.clear();
            if let Some(rx) = &mut g.rx {
                self.carried.0 += rx.stale_epoch_dropped;
                self.carried.1 += rx.resyncs;
                *rx = RetxReceiver::with_epoch(self.boot_count);
                had_arq = true;
            }
        }
        for g in &mut self.outputs {
            g.spool.clear();
            if let Some(tx) = &mut g.tx {
                self.carried.0 += tx.stale_acks_dropped;
                self.carried.1 += tx.resyncs;
                *tx = RetxSender::with_epoch(RETX_WINDOW, RETX_TIMEOUT, tx.epoch().wrapping_add(1));
                had_arq = true;
            }
        }
        self.reboots += 1;
        if had_arq {
            self.recovering_since = Some(round);
        } else {
            // Nothing to resync: the node is fully recovered the moment
            // the image is back up.
            self.time_to_recover.push(0);
        }
    }

    /// Host-side access to the component hosted by regime `idx`, if that
    /// regime is a [`RegimeComponent`].
    pub fn component_mut(&mut self, idx: usize) -> Option<&mut dyn Component> {
        self.kernel
            .regimes
            .get_mut(idx)?
            .native
            .as_mut()?
            .as_any()
            .downcast_mut::<RegimeComponent>()
            .map(|rc| rc.component_mut())
    }

    /// Applies `f` to every hosted component (not the uplink).
    pub fn for_each_component(&mut self, f: &mut dyn FnMut(&mut dyn Component)) {
        for i in 0..self.kernel.regimes.len() {
            if let Some(c) = self.component_mut(i) {
                f(c);
            }
        }
    }

    /// One network round: ingress, kernel slots, egress.
    pub fn step_io(&mut self, io: &mut dyn NodeIo) {
        let round = io.round();
        if self.killed(round) {
            // Crash-stop: the kernel freezes and the ports fall silent. The
            // node does not even drain its incoming wires — frames pile up
            // against the wire capacity exactly as they would against a
            // dead network interface.
            return;
        }
        if self.outages.down_at(round) {
            // Mid-outage: same silence as a crash-stop, but counted, and
            // the volatile state is already doomed — the reboot below
            // discards it wholesale at the recover round.
            self.downtime_rounds += 1;
            return;
        }
        if self.outages.recovers_at(round) {
            self.reboot(round);
        }

        // Ingress: wire (through the ARQ where present) → spool → channel.
        // Frames move by value: the wire's buffer is the one the component
        // finally receives.
        for g in &mut self.inputs {
            match &mut g.rx {
                Some(rx) => rx.poll(io, &g.port, &g.ack_port, &mut g.spool),
                None => {
                    if let Some(slot) = io.in_slot(&g.port) {
                        while let Some(m) = io.recv_from(slot) {
                            g.spool.push_back(m);
                        }
                    }
                }
            }
            let channel = &mut self.kernel.channels[g.channel];
            while let Some(m) = g.spool.pop_front() {
                if let Err(m) = channel.host_push(m) {
                    // Channel at capacity: back-pressure holds here.
                    g.spool.push_front(m);
                    break;
                }
            }
        }

        // The node's compute slice for the round, batched through the
        // kernel's `step_n` hot path between planned-fault due points:
        // after `apply_due` drains everything at or before the current
        // step, the stretch up to the next due point cannot fire a fault,
        // so it runs without per-step plan checks. Ingress ran above and
        // egress runs below, so inside the slice frames arrive only from
        // local neighbours: once each component has taken what it was
        // sent, the rest of the slice is quiet steps (every regime idle
        // until its own timer), which `step_n` jumps without calling any
        // component. Byte-identical to the one-step-at-a-time loop by
        // construction.
        let mut left = self.slots_per_round;
        while left > 0 {
            fault::apply_due(&mut self.kernel, &mut self.plan);
            let steps = self.kernel.stats.steps;
            let chunk = match self.plan.next_due() {
                Some(due) if due.saturating_sub(steps) < left => (due - steps).max(1),
                _ => left,
            };
            self.kernel.step_n(chunk);
            left -= chunk;
        }

        // Egress: channel → (ARQ or direct) → wire.
        for g in &mut self.outputs {
            let channel = &mut self.kernel.channels[g.channel];
            match &mut g.tx {
                Some(tx) => {
                    while tx.pending() < EGRESS_HIGH_WATER {
                        let Some(m) = channel.host_pop() else {
                            break;
                        };
                        tx.enqueue(m);
                    }
                    tx.poll(io, &g.port, &g.ack_port);
                }
                None => {
                    // An unwired port refuses every frame, as a full wire
                    // does; a refused frame comes back and waits in the
                    // spool, in FIFO order.
                    let slot = io.out_slot(&g.port);
                    let mut send = |m| match slot {
                        Some(slot) => io.send_to(slot, m),
                        None => Err(m),
                    };
                    while let Some(m) = g.spool.pop_front() {
                        if let Err(m) = send(m) {
                            g.spool.push_front(m);
                            break;
                        }
                    }
                    if g.spool.is_empty() {
                        while let Some(m) = channel.host_pop() {
                            if let Err(m) = send(m) {
                                g.spool.push_back(m);
                                break;
                            }
                        }
                    }
                }
            }
        }

        // Time-to-recover: the reboot is only *useful* once the ARQ is
        // flowing again. Gateway counters were zeroed at the reboot, so
        // any delivery or ack is post-reboot traffic.
        if let Some(since) = self.recovering_since {
            let resynced = self
                .inputs
                .iter()
                .any(|g| g.rx.as_ref().is_some_and(|rx| rx.delivered > 0))
                || self
                    .outputs
                    .iter()
                    .any(|g| g.tx.as_ref().is_some_and(|tx| tx.acked > 0));
            if resynced {
                self.time_to_recover.push(round - since);
                self.recovering_since = None;
            }
        }

        // One gauge sample of every queue per live round, once egress has
        // drained what it could.
        for (gauge, ch) in self.gauges.iter_mut().zip(&self.kernel.channels) {
            gauge.observe(ch.queue().len());
        }
        let gate_depths = self.inputs.iter().map(|g| g.spool.len()).chain(
            self.outputs
                .iter()
                .map(|g| g.tx.as_ref().map_or(g.spool.len(), RetxSender::pending)),
        );
        for (gauge, depth) in self.gate_gauges.iter_mut().zip(gate_depths) {
            gauge.observe(depth);
        }
    }
}

/// Shares a [`KernelNode`] between the network executor (which owns its
/// nodes and may step them on worker threads) and the fleet (which keeps
/// handles for reporting). The lock is uncontended by construction:
/// workers hold it only inside the step phase, the fleet only between
/// runs.
pub struct SharedNode {
    name: String,
    inner: Arc<Mutex<KernelNode>>,
}

impl SharedNode {
    /// Wraps a shared node handle.
    pub fn new(inner: Arc<Mutex<KernelNode>>) -> SharedNode {
        let name = inner.lock().expect("fleet node lock").name().to_string();
        SharedNode { name, inner }
    }
}

impl Node for SharedNode {
    fn name(&self) -> &str {
        &self.name
    }

    fn step(&mut self, io: &mut dyn NodeIo) {
        self.inner.lock().expect("fleet node lock").step_io(io);
    }
}
