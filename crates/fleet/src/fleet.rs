//! The fleet: boot a topology, run rounds, aggregate a report.
//!
//! [`Fleet::build`] realizes a [`FleetTopology`]: it boots one
//! [`KernelNode`] per spec, registers each with the deterministic round
//! executor ([`Network`]), and strings the declared wires — adding the
//! reverse ack wire for every reliable link. The fleet keeps a shared
//! handle to every node so it can pull queue gauges and component counters
//! into the aggregated report at the end.
//!
//! The report ([`Fleet::report`]) is pure integer JSON — goodput, latency
//! quantiles, per-channel saturation, per-node kernel counters, per-wire
//! loss counters — so a fixed seed yields a byte-identical report, which is
//! what makes fleet-level differential experiments (fault containment,
//! loss sweeps) meaningful.

use crate::loadgen::LoadGen;
use crate::metrics::{ChannelGauge, LatencyHistogram};
use crate::node::{KernelNode, SharedNode};
use crate::topology::FleetTopology;
use sep_components::{FileServer, Guard};
use sep_distributed::{Network, NodeId};
use sep_obs::Json;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

/// Aggregated load-generator counters across the fleet.
#[derive(Default)]
pub struct LoadTotals {
    /// Requests issued.
    pub issued: u64,
    /// Responses received.
    pub completed: u64,
    /// Policy denials.
    pub denied: u64,
    /// Non-Ok, non-Denied statuses.
    pub errored: u64,
    /// Local sends refused by channel back-pressure.
    pub send_rejected: u64,
    /// Timed-out requests retransmitted (same request id).
    pub retried: u64,
    /// Responses for ids no longer pending (late duplicates).
    pub dup_responses: u64,
    /// Merged issue-to-response latency.
    pub hist: LatencyHistogram,
}

/// A booted, running fleet.
pub struct Fleet {
    net: Network,
    nodes: Vec<Arc<Mutex<KernelNode>>>,
    names: Vec<String>,
}

impl Fleet {
    /// Boots every node and wires the network.
    ///
    /// # Panics
    ///
    /// Panics on topology bugs, each by name, before any node boots:
    /// link endpoints out of range, self-links, duplicate declared gateway
    /// ports, double-wired ports in either direction, undeclared link
    /// ports, and ack-name collisions — a reliable link auto-wires
    /// `"{port}.ack"` in both directions, and an explicitly declared port
    /// with that name would silently share the ack wire (the gateway and
    /// the ARQ stealing each other's frames). Also panics on a node that
    /// will not boot.
    pub fn build(top: FleetTopology) -> Fleet {
        let FleetTopology {
            nodes: specs,
            links,
        } = top;

        // Declared gateway ports, validated unique per node per direction.
        let mut declared_in: Vec<BTreeSet<String>> =
            (0..specs.len()).map(|_| BTreeSet::new()).collect();
        let mut declared_out: Vec<BTreeSet<String>> =
            (0..specs.len()).map(|_| BTreeSet::new()).collect();
        for (i, spec) in specs.iter().enumerate() {
            for g in &spec.inputs {
                assert!(
                    declared_in[i].insert(g.net_port.clone()),
                    "duplicate ingress gateway port {} on node {}",
                    g.net_port,
                    spec.name
                );
            }
            for g in &spec.outputs {
                assert!(
                    declared_out[i].insert(g.net_port.clone()),
                    "duplicate egress gateway port {} on node {}",
                    g.net_port,
                    spec.name
                );
            }
        }

        // Wire-level endpoint claims, including the auto ack wires, so a
        // collision panics here by name instead of surfacing (or not) from
        // `Network::connect`, which only sees one direction at a time.
        let mut wired_in: Vec<BTreeSet<String>> =
            (0..specs.len()).map(|_| BTreeSet::new()).collect();
        let mut wired_out: Vec<BTreeSet<String>> =
            (0..specs.len()).map(|_| BTreeSet::new()).collect();
        let mut rin: Vec<BTreeSet<String>> = (0..specs.len()).map(|_| BTreeSet::new()).collect();
        let mut rout: Vec<BTreeSet<String>> = (0..specs.len()).map(|_| BTreeSet::new()).collect();
        for l in &links {
            assert!(
                l.from < specs.len() && l.to < specs.len(),
                "link endpoint out of range"
            );
            assert!(
                l.from != l.to,
                "self-link: node {} wired to itself ({} -> {})",
                specs[l.from].name,
                l.from_port,
                l.to_port
            );
            assert!(
                declared_out[l.from].contains(&l.from_port),
                "link source port {} is not a declared egress of node {}",
                l.from_port,
                specs[l.from].name
            );
            assert!(
                declared_in[l.to].contains(&l.to_port),
                "link target port {} is not a declared ingress of node {}",
                l.to_port,
                specs[l.to].name
            );
            assert!(
                wired_out[l.from].insert(l.from_port.clone()),
                "duplicate egress: port {} of node {} already wired",
                l.from_port,
                specs[l.from].name
            );
            assert!(
                wired_in[l.to].insert(l.to_port.clone()),
                "duplicate ingress: port {} of node {} already wired",
                l.to_port,
                specs[l.to].name
            );
            if l.reliable {
                let from_ack = format!("{}.ack", l.from_port);
                let to_ack = format!("{}.ack", l.to_port);
                assert!(
                    !declared_in[l.from].contains(&from_ack),
                    "ack-name collision: declared ingress port {} of node {} \
                     shadows the auto ack path of reliable link {} -> {}",
                    from_ack,
                    specs[l.from].name,
                    l.from_port,
                    l.to_port
                );
                assert!(
                    !declared_out[l.to].contains(&to_ack),
                    "ack-name collision: declared egress port {} of node {} \
                     shadows the auto ack path of reliable link {} -> {}",
                    to_ack,
                    specs[l.to].name,
                    l.from_port,
                    l.to_port
                );
                assert!(
                    wired_out[l.to].insert(to_ack),
                    "ack-name collision: auto ack egress {}.ack of node {} already wired",
                    l.to_port,
                    specs[l.to].name
                );
                assert!(
                    wired_in[l.from].insert(from_ack),
                    "ack-name collision: auto ack ingress {}.ack of node {} already wired",
                    l.from_port,
                    specs[l.from].name
                );
                rout[l.from].insert(l.from_port.clone());
                rin[l.to].insert(l.to_port.clone());
            }
        }

        let mut net = Network::new();
        let mut nodes = Vec::new();
        let mut names = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let node = KernelNode::from_spec(spec, &rin[i], &rout[i]);
            names.push(node.name().to_string());
            let shared = Arc::new(Mutex::new(node));
            net.add_node(Box::new(SharedNode::new(Arc::clone(&shared))));
            nodes.push(shared);
        }
        for l in &links {
            match l.loss.clone() {
                Some(m) => net.connect_lossy(
                    NodeId(l.from),
                    &l.from_port,
                    NodeId(l.to),
                    &l.to_port,
                    l.capacity,
                    l.latency,
                    m,
                ),
                None => net.connect(
                    NodeId(l.from),
                    &l.from_port,
                    NodeId(l.to),
                    &l.to_port,
                    l.capacity,
                    l.latency,
                ),
            }
            if l.reliable {
                let from_ack = format!("{}.ack", l.from_port);
                let to_ack = format!("{}.ack", l.to_port);
                match l.ack_loss.clone() {
                    Some(m) => net.connect_lossy(
                        NodeId(l.to),
                        &to_ack,
                        NodeId(l.from),
                        &from_ack,
                        l.capacity,
                        l.latency,
                        m,
                    ),
                    None => net.connect(
                        NodeId(l.to),
                        &to_ack,
                        NodeId(l.from),
                        &from_ack,
                        l.capacity,
                        l.latency,
                    ),
                }
            }
        }
        Fleet { net, nodes, names }
    }

    /// Toggles per-node event tracing on the network (counters stay on
    /// regardless; large benches turn tracing off).
    pub fn set_tracing(&mut self, on: bool) {
        self.net.set_tracing(on);
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.net.round()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the fleet has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The underlying network (traces, wires, obs counters).
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// A shared handle to node `i`.
    pub fn node(&self, i: usize) -> Arc<Mutex<KernelNode>> {
        Arc::clone(&self.nodes[i])
    }

    /// Sets the step-phase worker count for [`Fleet::run_rounds`]
    /// (default 1 = sequential). The report and traces are byte-identical
    /// at any worker count — workers only change wall-clock time.
    pub fn set_workers(&mut self, workers: usize) {
        self.net.set_workers(workers);
    }

    /// Runs `n` rounds; every live node samples its queue gauges once per
    /// round. With workers configured ([`Fleet::set_workers`]) the step
    /// phase runs on the pool.
    pub fn run_rounds(&mut self, n: u64) {
        self.net.run(n);
    }

    /// Applies `f` to every hosted component on every node.
    pub fn for_each_component(
        &mut self,
        f: &mut dyn FnMut(&str, &mut dyn sep_components::Component),
    ) {
        for (i, shared) in self.nodes.iter().enumerate() {
            let name = self.names[i].clone();
            shared
                .lock()
                .expect("fleet node lock")
                .for_each_component(&mut |c| f(&name, c));
        }
    }

    /// Aggregated load-generator counters.
    pub fn loadgen_totals(&mut self) -> LoadTotals {
        let mut t = LoadTotals::default();
        self.for_each_component(&mut |_, c| {
            if let Some(lg) = c.as_any().downcast_mut::<LoadGen>() {
                t.issued += lg.issued;
                t.completed += lg.completed;
                t.denied += lg.denied;
                t.errored += lg.errored;
                t.send_rejected += lg.send_rejected;
                t.retried += lg.retried;
                t.dup_responses += lg.dup_responses;
                t.hist.merge(&lg.hist);
            }
        });
        t
    }

    /// Aggregated file-server counters: (requests served, denials).
    pub fn fileserver_totals(&mut self) -> (u64, u64) {
        let (mut served, mut denials) = (0, 0);
        self.for_each_component(&mut |_, c| {
            if let Some(fs) = c.as_any().downcast_mut::<FileServer>() {
                served += fs.requests_served;
                denials += fs.denials;
            }
        });
        (served, denials)
    }

    /// Total server-side duplicate replays across the fleet (retried
    /// requests answered from the dedup cache instead of re-executed).
    pub fn fs_duplicates_total(&mut self) -> u64 {
        let mut dups = 0;
        self.for_each_component(&mut |_, c| {
            if let Some(fs) = c.as_any().downcast_mut::<FileServer>() {
                dups += fs.duplicates_replayed;
            }
        });
        dups
    }

    /// Total node reboots across the fleet.
    pub fn reboots_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.lock().expect("fleet node lock").reboots)
            .sum()
    }

    /// Total rounds spent down across the fleet.
    pub fn downtime_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.lock().expect("fleet node lock").downtime_rounds)
            .sum()
    }

    /// Advisories sitting in Guard review queues right now.
    pub fn guard_pending_total(&mut self) -> u64 {
        let mut pending = 0;
        self.for_each_component(&mut |_, c| {
            if let Some(g) = c.as_any().downcast_mut::<Guard>() {
                pending += g.pending_review() as u64;
            }
        });
        pending
    }

    fn node_json(&self, i: usize) -> Json {
        let node = self.nodes[i].lock().expect("fleet node lock");
        let totals = &node.kernel.machine.obs.metrics.totals;
        let channels: Vec<Json> = node
            .channel_gauges()
            .iter()
            .map(ChannelGauge::to_json)
            .collect();
        let gateway: Vec<Json> = node
            .gateway_gauges()
            .iter()
            .map(ChannelGauge::to_json)
            .collect();
        let ttr: Vec<Json> = node.time_to_recover.iter().map(|&r| Json::Int(r)).collect();
        Json::obj()
            .field("name", self.names[i].as_str())
            .field("steps", node.kernel.stats.steps)
            .field("idle_steps", node.kernel.stats.idle_steps)
            .field("messages_sent", node.kernel.stats.messages_sent)
            .field("bytes_copied", node.kernel.stats.bytes_copied)
            .field("faults", totals.faults)
            .field("restarts", totals.restarts)
            .field("reboots", node.reboots)
            .field("downtime_rounds", node.downtime_rounds)
            .field("time_to_recover", Json::Arr(ttr))
            .field("resyncs", node.resyncs())
            .field("stale_epochs", node.stale_epochs())
            .field("peers_down", node.peers_down())
            .field("channels", Json::Arr(channels))
            .field("gateway", Json::Arr(gateway))
    }

    fn wires_json(&self) -> Json {
        let items: Vec<Json> = self
            .net
            .wires()
            .iter()
            .map(|w| {
                Json::obj()
                    .field(
                        "wire",
                        format!(
                            "{}:{} -> {}:{}",
                            self.names[w.from_node], w.from_port, self.names[w.to_node], w.to_port
                        ),
                    )
                    .field("dropped", w.dropped)
                    .field("duplicated", w.duplicated)
                    .field("corrupted", w.corrupted)
                    .field("reordered", w.reordered)
            })
            .collect();
        Json::Arr(items)
    }

    /// The aggregated fleet report: byte-identical for identical seeds.
    pub fn report(&mut self) -> Json {
        let lt = self.loadgen_totals();
        let (fs_served, fs_denials) = self.fileserver_totals();
        let guard_pending = self.guard_pending_total();
        let rounds = self.rounds().max(1);
        // `node_detail` is sorted by node name, so a report is invariant
        // under node *insertion* order: every other aggregate is
        // commutative, traces are name-keyed, and the wire list follows
        // link order.
        let mut order: Vec<usize> = (0..self.nodes.len()).collect();
        order.sort_by(|&a, &b| self.names[a].cmp(&self.names[b]));
        let nodes: Vec<Json> = order.into_iter().map(|i| self.node_json(i)).collect();
        let wt = &self.net.obs.metrics.totals;
        Json::obj()
            .field("rounds", self.rounds())
            .field("nodes", self.nodes.len())
            .field("issued", lt.issued)
            .field("completed", lt.completed)
            .field("denied", lt.denied)
            .field("errored", lt.errored)
            .field("send_rejected", lt.send_rejected)
            .field("retried", lt.retried)
            .field("dup_responses", lt.dup_responses)
            .field("goodput_milli", lt.completed * 1000 / rounds)
            .field("latency", lt.hist.to_json())
            .field("fs_requests_served", fs_served)
            .field("fs_denials", fs_denials)
            .field("guard_pending", guard_pending)
            .field("wire_messages", wt.wire_messages)
            .field("wire_bytes", wt.wire_bytes)
            .field("retransmissions", wt.retransmissions)
            .field("reboots", self.reboots_total())
            .field("downtime_rounds", self.downtime_total())
            .field("wires", self.wires_json())
            .field("node_detail", Json::Arr(nodes))
    }
}
