//! Fleet differential suite: the parallel round executor against the
//! sequential one, the kernels' native batches against one step at a
//! time, plus regressions for the fleet-layer bugfix sweep.
//!
//! The contract under test mirrors `differential_checker`: for every
//! workload — ARQ loss storms, crash-stop kills, seeded fault plans,
//! crash-recovery reboots, open-loop saturation, the guard review
//! pipeline — the aggregated report, the per-node traces, the network
//! counters and every node's kernel state, statistics and metrics must be
//! **byte-identical** at 1, 2, 4, and 8 workers to a reference build whose
//! components never let their kernel jump a step. Workers may only change
//! wall-clock time, and so may the jumps.

use sep_components::guard::ApproveAll;
use sep_components::{Component, ComponentIo, FileServer, FsClient, Guard};
use sep_fault::{FaultPlan, LossModel};
use sep_fleet::topology::ComponentSlot;
use sep_fleet::{
    BurstPhase, Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode, NodeSpec, Reflector,
    RetryCfg, WorkloadMix, EGRESS_HIGH_WATER,
};
use sep_kernel::regime::PARTITION_SIZE;
use sep_kernel::{FaultPolicy, KernelStats};
use sep_obs::Metrics;
use sep_policy::SecurityLevel;
use std::any::Any;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn lossy(seed: u64, pm: u16) -> LossModel {
    LossModel::new(seed)
        .with_drop(pm)
        .with_duplicate(pm)
        .with_reorder(pm)
}

fn fs_node(name: &str, clients: usize) -> NodeSpec {
    let fs_clients = (0..clients)
        .map(|i| FsClient {
            name: format!("c{i}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let mut spec = NodeSpec::new(name).component(Box::new(FileServer::new(fs_clients)));
    for i in 0..clients {
        spec = spec
            .input(&format!("c{i}.req"), 0, &format!("c{i}.req"))
            .output(0, &format!("c{i}.rsp"), &format!("c{i}.rsp"));
    }
    spec
}

fn lg_node(name: &str, cfg: LoadGenCfg) -> NodeSpec {
    NodeSpec::new(name)
        .component(Box::new(LoadGen::new(name, cfg)))
        .output(0, "fs.req", "fs.req")
        .input("fs.rsp", 0, "fs.rsp")
}

fn closed_cfg(seed: u64, users: u64, window: u64) -> LoadGenCfg {
    LoadGenCfg {
        seed,
        users,
        mode: LoopMode::Closed { window },
        mix: WorkloadMix::rw(600, 400),
        phases: vec![
            BurstPhase {
                rounds: 100,
                level_pm: 1000,
            },
            BurstPhase {
                rounds: 1_000_000,
                level_pm: 250,
            },
        ],
        level: SecurityLevel::unclassified(),
        retry: None,
    }
}

/// Hides its component's quiet windows (it forwards neither
/// `quiet_rounds` nor `advance`), so the hosting kernel runs every one of
/// its rounds: the one-step-at-a-time reference for native batches.
struct NeverSkip(Box<dyn Component>);

impl Component for NeverSkip {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        self.0.step(io);
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(NeverSkip(self.0.boxed_clone()))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.0.as_any()
    }
}

/// The topology with every hosted component wrapped in [`NeverSkip`].
fn never_skipping(mut top: FleetTopology) -> FleetTopology {
    for node in &mut top.nodes {
        node.components = std::mem::take(&mut node.components)
            .into_iter()
            .map(|slot| ComponentSlot {
                component: Box::new(NeverSkip(slot.component)),
                ..slot
            })
            .collect();
    }
    top
}

/// Builds a topology and runs it for `rounds` at `workers` with tracing
/// on, returning the fleet for inspection.
fn run(top: FleetTopology, rounds: u64, workers: usize) -> Fleet {
    let mut fleet = Fleet::build(top);
    fleet.set_workers(workers);
    fleet.run_rounds(rounds);
    fleet
}

/// Every node's kernel state vector, statistics and metrics.
fn kernels(fleet: &Fleet) -> Vec<(Vec<u64>, KernelStats, Metrics)> {
    (0..fleet.len())
        .map(|i| {
            let node = fleet.node(i);
            let node = node.lock().expect("fleet node lock");
            let k = &node.kernel;
            (
                k.state_vector(),
                k.stats.clone(),
                k.machine.obs.metrics.clone(),
            )
        })
        .collect()
}

/// The differential harness: runs the never-skipping reference once, then
/// the workload as built at every worker count, and pins report bytes,
/// trace equivalence, network counters, wire loss books and every node's
/// kernel against the reference.
fn assert_worker_invariant(label: &str, build: &dyn Fn() -> FleetTopology, rounds: u64) {
    let mut reference = run(never_skipping(build()), rounds, 1);
    let report = reference.report().to_pretty();
    let nodes = kernels(&reference);
    for workers in WORKER_SWEEP {
        let mut par = run(build(), rounds, workers);
        assert_eq!(
            report,
            par.report().to_pretty(),
            "{label}: report diverged at {workers} workers"
        );
        assert!(
            reference
                .network()
                .traces
                .equivalent(&par.network().traces)
                .is_ok(),
            "{label}: traces diverged at {workers} workers"
        );
        assert_eq!(
            reference.network().obs.metrics,
            par.network().obs.metrics,
            "{label}: network counters diverged at {workers} workers"
        );
        for (ws, wp) in reference
            .network()
            .wires()
            .iter()
            .zip(par.network().wires())
        {
            assert_eq!(
                (ws.dropped, ws.duplicated, ws.corrupted, ws.reordered),
                (wp.dropped, wp.duplicated, wp.corrupted, wp.reordered),
                "{label}: wire loss books diverged at {workers} workers"
            );
        }
        for (i, (want, got)) in nodes.iter().zip(kernels(&par)).enumerate() {
            assert!(
                *want == got,
                "{label}: node {i}'s kernel diverged at {workers} workers"
            );
        }
    }
}

/// One load generator and one file server over reliable lossy links.
fn pair_fleet(loss_pm: u16) -> FleetTopology {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(0xA11CE, 5_000, 4)));
    let fs = top.node(fs_node("fs0", 1));
    top.link(
        LinkSpec::new(lg, "fs.req", fs, "c0.req")
            .reliable()
            .loss(lossy(0x51, loss_pm))
            .ack_loss(lossy(0x52, loss_pm)),
    );
    top.link(
        LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
            .reliable()
            .loss(lossy(0x53, loss_pm))
            .ack_loss(lossy(0x54, loss_pm)),
    );
    top
}

#[test]
fn arq_loss_storm_is_worker_invariant() {
    assert_worker_invariant("arq-loss", &|| pair_fleet(200), 300);
}

/// Two client/server pairs, the second server crash-stopped mid-run.
fn quad_kill_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let lg0 = top.node(lg_node("lg0", closed_cfg(0xC0, 2_000, 3)));
    let lg1 = top.node(lg_node("lg1", closed_cfg(0xC1, 2_000, 3)));
    let fs0 = top.node(fs_node("fs0", 1));
    let fs1 = top.node(fs_node("fs1", 1).kill_at(60));
    for (lg, fs, s) in [(lg0, fs0, 0x60u64), (lg1, fs1, 0x70)] {
        top.link(
            LinkSpec::new(lg, "fs.req", fs, "c0.req")
                .reliable()
                .loss(lossy(s, 100))
                .ack_loss(lossy(s + 1, 100)),
        );
        top.link(
            LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
                .reliable()
                .loss(lossy(s + 2, 100))
                .ack_loss(lossy(s + 3, 100)),
        );
    }
    top
}

#[test]
fn crash_stop_kill_is_worker_invariant() {
    assert_worker_invariant("quad-kill", &quad_kill_fleet, 240);
}

/// A pair whose file server runs under a seeded fault plan with a restart
/// policy — recovery, re-imaging, and backoff all happen mid-round.
fn faulted_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(0xFA, 1_000, 3)));
    let fs_clients = vec![FsClient {
        name: "c0".to_string(),
        level: SecurityLevel::unclassified(),
        special_delete: false,
    }];
    let fs_spec = NodeSpec::new("fs0")
        .component_with(
            Box::new(FileServer::new(fs_clients)),
            Some(FaultPolicy::Restart {
                budget: 8,
                backoff_slots: 2,
            }),
            None,
        )
        .input("c0.req", 0, "c0.req")
        .output(0, "c0.rsp", "c0.rsp")
        .fault_plan(FaultPlan::generate(0xFA117, &[0], 400, 12, PARTITION_SIZE));
    let fs = top.node(fs_spec);
    top.link(
        LinkSpec::new(lg, "fs.req", fs, "c0.req")
            .reliable()
            .loss(lossy(0x91, 120))
            .ack_loss(lossy(0x92, 120)),
    );
    top.link(
        LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
            .reliable()
            .loss(lossy(0x93, 120))
            .ack_loss(lossy(0x94, 120)),
    );
    top
}

#[test]
fn fault_plan_recovery_is_worker_invariant() {
    assert_worker_invariant("fault-plan", &faulted_fleet, 200);
}

/// A retrying client against a dedup-window server that crash-reboots
/// mid-run: reboot timing, epoch resync, stale-frame drops, and client
/// retransmissions must all be scheduled identically at every worker
/// count.
fn recovery_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let mut cfg = closed_cfg(0xEC0, 2_000, 4);
    cfg.retry = Some(RetryCfg {
        timeout: 24,
        backoff_shift_cap: 3,
    });
    let lg = top.node(lg_node("lg0", cfg));
    let fs_clients = vec![FsClient {
        name: "c0".to_string(),
        level: SecurityLevel::unclassified(),
        special_delete: false,
    }];
    let fs = top.node(
        NodeSpec::new("fs0")
            .component(Box::new(FileServer::new(fs_clients).with_dedup_window(128)))
            .input("c0.req", 0, "c0.req")
            .output(0, "c0.rsp", "c0.rsp")
            .crash_at(80)
            .recover_after(30),
    );
    top.link(
        LinkSpec::new(lg, "fs.req", fs, "c0.req")
            .reliable()
            .loss(lossy(0xD1, 100))
            .ack_loss(lossy(0xD2, 100)),
    );
    top.link(
        LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
            .reliable()
            .loss(lossy(0xD3, 100))
            .ack_loss(lossy(0xD4, 100)),
    );
    top
}

#[test]
fn crash_recovery_reboot_is_worker_invariant() {
    assert_worker_invariant("crash-recovery", &recovery_fleet, 280);
}

/// A client whose file server is dead from round 0 (node 0 and node 1).
fn killed_at_boot_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(0x5117, 500, 2)));
    let fs = top.node(fs_node("fs0", 1).kill_at(0));
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req").reliable());
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp").reliable());
    top
}

#[test]
fn a_node_killed_at_boot_is_accepted_and_stays_silent() {
    // kill_at(0) is the degenerate crash schedule: the node exists in the
    // topology but never executes a round. Build must accept it, and the
    // corpse must be invisible everywhere — no frames, no trace lines, no
    // gauge samples.
    assert_worker_invariant("kill-at-boot", &killed_at_boot_fleet, 80);
    let (lg, fs) = (0, 1);
    let fleet = run(killed_at_boot_fleet(), 80, 1);
    assert!(
        fleet.network().traces.trace("fs0").is_empty(),
        "a node dead from round 0 must never appear in the traces"
    );
    let corpse = fleet.node(fs);
    let corpse = corpse.lock().expect("node lock");
    for g in corpse
        .channel_gauges()
        .iter()
        .chain(corpse.gateway_gauges())
    {
        assert_eq!(
            g.samples, 0,
            "gauge {} sampled a dead node's channels",
            g.name
        );
    }
    let lt = {
        let rc = fleet.node(lg);
        let mut n = rc.lock().expect("node lock");
        let lg = n
            .component_mut(0)
            .expect("component")
            .as_any()
            .downcast_mut::<LoadGen>()
            .expect("load generator");
        (lg.issued, lg.completed)
    };
    assert!(lt.0 > 0, "the surviving client still issued requests");
    assert_eq!(lt.1, 0, "nothing ever answered from the corpse");
}

/// Open-loop overload into capacity-2 wires: admission control at the
/// wire-capacity edge is exactly where a racy executor would diverge.
fn saturated_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 17,
        users: 1_000,
        mode: LoopMode::Open { rate_milli: 4_000 },
        mix: WorkloadMix::rw(500, 500),
        phases: Vec::new(),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(lg_node("lg0", cfg));
    let fs = top.node(fs_node("fs0", 1));
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req").capacity(2));
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp").capacity(2));
    top
}

#[test]
fn open_loop_saturation_is_worker_invariant() {
    assert_worker_invariant("open-loop", &saturated_fleet, 200);
}

/// The guard review pipeline: multi-component node with local channels.
fn guard_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 9,
        users: 100,
        mode: LoopMode::Closed { window: 3 },
        mix: WorkloadMix {
            read_pm: 0,
            write_pm: 0,
            guard_pm: 1000,
        },
        phases: Vec::new(),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(
        NodeSpec::new("lg0")
            .component(Box::new(LoadGen::new("lg0", cfg)))
            .output(0, "guard.req", "guard.req")
            .input("guard.rsp", 0, "guard.rsp"),
    );
    let g = top.node(
        NodeSpec::new("guard0")
            .component(Box::new(Guard::new(Box::new(ApproveAll))))
            .component(Box::new(Reflector::new("reflector")))
            .local(0, "high.out", 1, "in", 8)
            .local(1, "out", 0, "high.in", 8)
            .input("low.in", 0, "low.in")
            .output(0, "low.out", "low.out"),
    );
    top.link(LinkSpec::new(lg, "guard.req", g, "low.in"));
    top.link(LinkSpec::new(g, "low.out", lg, "guard.rsp"));
    top
}

#[test]
fn guard_pipeline_is_worker_invariant() {
    assert_worker_invariant("guard", &guard_fleet, 120);
}

// ---------------------------------------------------------------------
// Node-insertion-order determinism.
// ---------------------------------------------------------------------

/// The quad workload with its nodes declared in a different order. The
/// logical topology is identical; only the node indices differ.
fn quad_kill_fleet_permuted() -> FleetTopology {
    let mut top = FleetTopology::new();
    let fs1 = top.node(fs_node("fs1", 1).kill_at(60));
    let fs0 = top.node(fs_node("fs0", 1));
    let lg1 = top.node(lg_node("lg1", closed_cfg(0xC1, 2_000, 3)));
    let lg0 = top.node(lg_node("lg0", closed_cfg(0xC0, 2_000, 3)));
    for (lg, fs, s) in [(lg0, fs0, 0x60u64), (lg1, fs1, 0x70)] {
        top.link(
            LinkSpec::new(lg, "fs.req", fs, "c0.req")
                .reliable()
                .loss(lossy(s, 100))
                .ack_loss(lossy(s + 1, 100)),
        );
        top.link(
            LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
                .reliable()
                .loss(lossy(s + 2, 100))
                .ack_loss(lossy(s + 3, 100)),
        );
    }
    top
}

#[test]
fn permuted_node_insertion_order_yields_byte_identical_reports() {
    // Within-round step order is unobservable (latency ≥ 1), `node_detail`
    // is name-sorted, and every other aggregate commutes — so declaring
    // the same nodes in a different order must not change a byte.
    assert_worker_invariant("quad-kill-permuted", &quad_kill_fleet_permuted, 240);
    let mut a = run(quad_kill_fleet(), 240, 1);
    let mut b = run(quad_kill_fleet_permuted(), 240, 1);
    assert_eq!(a.report().to_pretty(), b.report().to_pretty());
    assert!(
        a.network().traces.equivalent(&b.network().traces).is_ok(),
        "name-keyed traces must agree event for event"
    );
}

// ---------------------------------------------------------------------
// Topology validation regressions (named panics, before any node boots).
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "ack-name collision")]
fn declared_port_shadowing_an_auto_ack_panics() {
    // lg0 declares an ingress literally named "fs.req.ack" — the same name
    // the reliable link auto-wires for its ack path. Pre-fix this shared
    // wire was built silently and the gateway stole ARQ ack frames.
    let mut top = FleetTopology::new();
    let lg = top.node(
        NodeSpec::new("lg0")
            .component(Box::new(LoadGen::new("lg0", closed_cfg(1, 100, 2))))
            .output(0, "fs.req", "fs.req")
            .input("fs.rsp", 0, "fs.rsp")
            .input("fs.req.ack", 0, "odd"),
    );
    let fs = top.node(fs_node("fs0", 1));
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req").reliable());
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp"));
    Fleet::build(top);
}

#[test]
#[should_panic(expected = "self-link")]
fn self_link_panics_by_name() {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(1, 100, 2)));
    top.link(LinkSpec::new(lg, "fs.req", lg, "fs.rsp"));
    Fleet::build(top);
}

#[test]
#[should_panic(expected = "duplicate egress")]
fn double_wired_egress_port_panics_by_name() {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(1, 100, 2)));
    let fs0 = top.node(fs_node("fs0", 1));
    let fs1 = top.node(fs_node("fs1", 1));
    top.link(LinkSpec::new(lg, "fs.req", fs0, "c0.req"));
    top.link(LinkSpec::new(lg, "fs.req", fs1, "c0.req"));
    Fleet::build(top);
}

#[test]
#[should_panic(expected = "duplicate ingress gateway port")]
fn duplicate_declared_gateway_port_panics_by_name() {
    let mut top = FleetTopology::new();
    top.node(
        NodeSpec::new("lg0")
            .component(Box::new(LoadGen::new("lg0", closed_cfg(1, 100, 2))))
            .input("fs.rsp", 0, "a")
            .input("fs.rsp", 0, "b"),
    );
    Fleet::build(top);
}

#[test]
#[should_panic(expected = "not a declared egress")]
fn link_from_undeclared_port_panics_by_name() {
    let mut top = FleetTopology::new();
    let lg = top.node(lg_node("lg0", closed_cfg(1, 100, 2)));
    let fs = top.node(fs_node("fs0", 1));
    top.link(LinkSpec::new(lg, "no-such-port", fs, "c0.req"));
    Fleet::build(top);
}

// ---------------------------------------------------------------------
// Gateway gauge saturation regression.
// ---------------------------------------------------------------------

/// Open-loop overload toward a receiver dead from round 0 (node 0 is the
/// client).
fn dead_receiver_fleet() -> FleetTopology {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 23,
        users: 1_000,
        mode: LoopMode::Open { rate_milli: 4_000 },
        mix: WorkloadMix::rw(500, 500),
        phases: Vec::new(),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(lg_node("lg0", cfg));
    let fs = top.node(fs_node("fs0", 1).kill_at(0));
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req").reliable());
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp").reliable());
    top
}

#[test]
fn arq_gateway_saturation_is_reported_under_back_pressure() {
    // The receiver is dead from round 0: the sender's ARQ queue fills to
    // the high-water mark and stays there. Pre-fix the gateway gauges were
    // built with capacity 0, so this (fully saturated) queue reported
    // saturation_milli = 0 forever.
    assert_worker_invariant("dead-receiver", &dead_receiver_fleet, 120);
    let lg = 0;
    let mut fleet = Fleet::build(dead_receiver_fleet());
    fleet.set_tracing(false);
    fleet.run_rounds(120);
    let node = fleet.node(lg);
    let node = node.lock().expect("node lock");
    let gauge = node
        .gateway_gauges()
        .iter()
        .find(|g| g.name == "gw-out:fs.req")
        .expect("egress gateway gauge exists");
    assert_eq!(
        gauge.capacity, EGRESS_HIGH_WATER,
        "the ARQ gauge carries the high-water bound"
    );
    assert_eq!(
        gauge.max_depth, EGRESS_HIGH_WATER,
        "the queue really filled"
    );
    assert!(
        gauge.saturation_milli() > 500,
        "a dead receiver must read as sustained gateway saturation, got {}",
        gauge.saturation_milli()
    );
}

// ---------------------------------------------------------------------
// Recycled frames against a build whose components give none back.
// ---------------------------------------------------------------------

/// Hides [`ComponentIo::recycle`] from its component: the ports it hands
/// down forward only `recv`, `send` and `round`, so every frame the
/// component gives back is dropped and every kernel send copies into a
/// fresh buffer. Quiet windows are forwarded, so the kernels jump the same
/// steps as the build under test: the never-recycling reference.
struct NoRecycle(Box<dyn Component>);

/// The ports a [`NoRecycle`] component sees.
struct RecvSendOnly<'a>(&'a mut dyn ComponentIo);

impl ComponentIo for RecvSendOnly<'_> {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        self.0.recv(port)
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        self.0.send(port, msg)
    }

    fn round(&self) -> u64 {
        self.0.round()
    }
}

impl Component for NoRecycle {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        self.0.step(&mut RecvSendOnly(io));
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(NoRecycle(self.0.boxed_clone()))
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.0.as_any()
    }

    fn quiet_rounds(&self, round: u64) -> u64 {
        self.0.quiet_rounds(round)
    }

    fn advance(&mut self, round: u64, n: u64) {
        self.0.advance(round, n);
    }
}

/// The topology with every hosted component wrapped in [`NoRecycle`].
fn never_recycling(mut top: FleetTopology) -> FleetTopology {
    for node in &mut top.nodes {
        node.components = std::mem::take(&mut node.components)
            .into_iter()
            .map(|slot| ComponentSlot {
                component: Box::new(NoRecycle(slot.component)),
                ..slot
            })
            .collect();
    }
    top
}

/// Runs the never-recycling build at every worker count and pins report
/// bytes, traces, network counters, wire loss books and every node's
/// kernel against the never-skipping reference (which recycles).
fn assert_recycling_invariant(label: &str, build: &dyn Fn() -> FleetTopology, rounds: u64) {
    let mut reference = run(never_skipping(build()), rounds, 1);
    let report = reference.report().to_pretty();
    let nodes = kernels(&reference);
    for workers in WORKER_SWEEP {
        let mut fresh = run(never_recycling(build()), rounds, workers);
        assert_eq!(
            report,
            fresh.report().to_pretty(),
            "{label}: report diverged without recycling at {workers} workers"
        );
        assert!(
            reference
                .network()
                .traces
                .equivalent(&fresh.network().traces)
                .is_ok(),
            "{label}: traces diverged without recycling at {workers} workers"
        );
        assert_eq!(
            reference.network().obs.metrics,
            fresh.network().obs.metrics,
            "{label}: network counters diverged without recycling at {workers} workers"
        );
        let books = |f: &Fleet| -> Vec<[u64; 4]> {
            f.network()
                .wires()
                .iter()
                .map(|w| [w.dropped, w.duplicated, w.corrupted, w.reordered])
                .collect()
        };
        assert_eq!(
            books(&reference),
            books(&fresh),
            "{label}: wire loss books diverged without recycling at {workers} workers"
        );
        assert!(
            nodes == kernels(&fresh),
            "{label}: a kernel diverged without recycling at {workers} workers"
        );
    }
}

#[test]
fn arq_loss_storm_is_recycling_invariant() {
    assert_recycling_invariant("arq-loss", &|| pair_fleet(200), 300);
}

#[test]
fn crash_recovery_reboot_is_recycling_invariant() {
    assert_recycling_invariant("crash-recovery", &recovery_fleet, 280);
}

#[test]
fn guard_pipeline_is_recycling_invariant() {
    assert_recycling_invariant("guard", &guard_fleet, 120);
}
