//! Fleet suite: determinism, fault containment at fleet scale, and
//! ARQ/loss interaction under load.
//!
//! Three pinned properties:
//!
//! 1. **Determinism** — the same topology and seeds yield a byte-identical
//!    aggregated report and equivalent per-node traces.
//! 2. **Containment** — crash-stopping one file-server node leaves every
//!    bystander node's trace byte-identical to the healthy run; only the
//!    victim's own clients see anything.
//! 3. **Exactly-once** — reliable gateway links repair drop/duplicate/
//!    reorder storms: after the burst drains, every issued request was
//!    served exactly once and answered exactly once.

use sep_components::guard::ApproveAll;
use sep_components::{FileServer, FsClient, Guard};
use sep_fault::LossModel;
use sep_fleet::{
    BurstPhase, ChannelGauge, Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode,
    NodeSpec, Reflector, RetryCfg, WorkloadMix,
};
use sep_policy::SecurityLevel;

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

fn fs_node_dedup(name: &str, clients: usize, window: usize) -> NodeSpec {
    let fs_clients = (0..clients)
        .map(|i| FsClient {
            name: format!("c{i}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let mut spec = NodeSpec::new(name).component(Box::new(
        FileServer::new(fs_clients).with_dedup_window(window),
    ));
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

fn burst_then_idle(burst: u64) -> Vec<BurstPhase> {
    vec![
        BurstPhase {
            rounds: burst,
            level_pm: 1000,
        },
        BurstPhase {
            rounds: 1_000_000,
            level_pm: 0,
        },
    ]
}

/// One load generator talking to one file server over reliable lossy links.
fn pair_fleet(loss_pm: u16) -> Fleet {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 0xA11CE,
        users: 5_000,
        mode: LoopMode::Closed { window: 4 },
        mix: WorkloadMix::rw(600, 400),
        phases: burst_then_idle(120),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(lg_node("lg0", cfg));
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
    Fleet::build(top)
}

#[test]
fn reliable_links_deliver_exactly_once_under_heavy_loss() {
    let mut fleet = pair_fleet(150);
    fleet.run_rounds(600);
    let lt = fleet.loadgen_totals();
    let (served, denials) = fleet.fileserver_totals();
    assert!(lt.issued > 50, "burst phase generated load: {}", lt.issued);
    assert_eq!(
        lt.completed, lt.issued,
        "every request answered after the drain"
    );
    assert_eq!(served, lt.issued, "each request served exactly once");
    assert_eq!(denials, 0);
    assert_eq!(lt.denied, 0);
    assert_eq!(lt.errored, 0, "ARQ order preserved create-before-use");
    // The wires really misbehaved and the ARQ really repaired them.
    assert!(
        fleet.network().wires().iter().any(|w| w.dropped > 0),
        "the loss model dropped frames"
    );
    assert!(
        fleet.network().obs.metrics.totals.retransmissions > 0,
        "the gateways retransmitted"
    );
    // The exact run, pinned: a change to the frame bytes, the CRC, the
    // retransmission order or the window handling moves at least one of
    // these. The traced send/recv lines carry every frame in hex.
    let net = fleet.network();
    assert_eq!(lt.issued, 82);
    assert_eq!(net.obs.metrics.totals.retransmissions, 49);
    let books: Vec<[u64; 4]> = net
        .wires()
        .iter()
        .map(|w| [w.dropped, w.duplicated, w.corrupted, w.reordered])
        .collect();
    assert_eq!(
        books,
        [
            [13, 18, 0, 7],
            [16, 19, 0, 10],
            [17, 17, 0, 8],
            [13, 18, 0, 16]
        ],
        "per-wire dropped/duplicated/corrupted/reordered"
    );
    let (lines, digest) = frame_line_digest(&net.traces);
    assert_eq!(lines, 875, "traced send/recv lines");
    assert_eq!(digest, 0x481e_637d_1533_3a80, "digest of the traced frames");
}

/// FNV-1a over every traced `send`/`recv` line, colour by colour, with the
/// number of lines hashed.
fn frame_line_digest(traces: &sep_model::trace::TraceSet<String>) -> (u64, u64) {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lines = 0;
    for colour in traces.colours() {
        for line in traces.trace(colour) {
            if !(line.starts_with("send ") || line.starts_with("recv ")) {
                continue;
            }
            lines += 1;
            let bytes = colour
                .bytes()
                .chain([b' '])
                .chain(line.bytes())
                .chain([b'\n']);
            for b in bytes {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    (lines, hash)
}

#[test]
fn lossless_pair_round_trips_with_flat_latency() {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 3,
        users: 100,
        mode: LoopMode::Closed { window: 2 },
        mix: WorkloadMix::rw(500, 500),
        phases: burst_then_idle(50),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(lg_node("lg0", cfg));
    let fs = top.node(fs_node("fs0", 1));
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req"));
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp"));
    let mut fleet = Fleet::build(top);
    fleet.run_rounds(120);
    let lt = fleet.loadgen_totals();
    assert!(lt.issued > 20, "closed loop at RTT 3: {}", lt.issued);
    assert_eq!(lt.completed, lt.issued);
    assert!(
        lt.hist.quantile_pm(500) >= 2,
        "a round trip crosses two latency-1 wires: p50 = {}",
        lt.hist.quantile_pm(500)
    );
    assert_eq!(
        lt.hist.quantile_pm(500),
        lt.hist.quantile_pm(999),
        "no loss, closed loop: latency is flat"
    );
}

#[test]
fn same_seed_gives_a_byte_identical_report_and_traces() {
    let mut a = pair_fleet(200);
    let mut b = pair_fleet(200);
    a.run_rounds(400);
    b.run_rounds(400);
    assert_eq!(
        a.report().to_pretty(),
        b.report().to_pretty(),
        "aggregated reports must be byte-identical under a fixed seed"
    );
    assert!(
        a.network().traces.equivalent(&b.network().traces).is_ok(),
        "per-node traces must agree event for event"
    );
}

#[test]
fn different_seed_changes_the_report() {
    let mut a = pair_fleet(200);
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 0xB0B,
        users: 5_000,
        mode: LoopMode::Closed { window: 4 },
        mix: WorkloadMix::rw(600, 400),
        phases: burst_then_idle(120),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg = top.node(lg_node("lg0", cfg));
    let fs = top.node(fs_node("fs0", 1));
    top.link(
        LinkSpec::new(lg, "fs.req", fs, "c0.req")
            .reliable()
            .loss(lossy(0x51, 200))
            .ack_loss(lossy(0x52, 200)),
    );
    top.link(
        LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
            .reliable()
            .loss(lossy(0x53, 200))
            .ack_loss(lossy(0x54, 200)),
    );
    let mut b = Fleet::build(top);
    a.run_rounds(200);
    b.run_rounds(200);
    assert_ne!(
        a.report().to_pretty(),
        b.report().to_pretty(),
        "the seed is load-bearing, not decorative"
    );
}

/// Two independent client/server pairs; `kill_fs1` crash-stops the second
/// file server mid-run.
fn quad_fleet(kill_fs1: bool) -> Fleet {
    let mut top = FleetTopology::new();
    let cfg = |seed| LoadGenCfg {
        seed,
        users: 2_000,
        mode: LoopMode::Closed { window: 3 },
        mix: WorkloadMix::rw(500, 500),
        phases: Vec::new(),
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    let lg0 = top.node(lg_node("lg0", cfg(0xC0)));
    let lg1 = top.node(lg_node("lg1", cfg(0xC1)));
    let fs0 = top.node(fs_node("fs0", 1));
    let mut fs1_spec = fs_node("fs1", 1);
    if kill_fs1 {
        fs1_spec = fs1_spec.kill_at(60);
    }
    let fs1 = top.node(fs1_spec);
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
    Fleet::build(top)
}

fn lg_completed(fleet: &Fleet, node: usize) -> u64 {
    let rc = fleet.node(node);
    let mut n = rc.lock().expect("node lock");
    let lg = n
        .component_mut(0)
        .expect("node hosts a component")
        .as_any()
        .downcast_mut::<LoadGen>()
        .expect("node 0 hosts the load generator");
    lg.completed
}

#[test]
fn killing_one_file_server_leaves_bystander_traces_byte_identical() {
    let mut healthy = quad_fleet(false);
    let mut killed = quad_fleet(true);
    healthy.run_rounds(240);
    killed.run_rounds(240);

    // Bystanders: the other pair's client and server never notice.
    for name in ["lg0", "fs0"] {
        assert_eq!(
            healthy.network().traces.trace(name),
            killed.network().traces.trace(name),
            "bystander {name} diverged after an unrelated node died"
        );
    }
    // The victim's own client very much notices.
    assert_ne!(
        healthy.network().traces.trace("lg1"),
        killed.network().traces.trace("lg1"),
        "the kill must be visible to the victim's client"
    );
    assert!(
        lg_completed(&killed, 1) < lg_completed(&healthy, 1),
        "the victim's client lost throughput"
    );
    assert_eq!(
        lg_completed(&killed, 0),
        lg_completed(&healthy, 0),
        "the bystander client lost nothing"
    );
    // The killed kernel froze at the kill round.
    let frozen = killed.node(3).lock().expect("node lock").kernel.stats.steps;
    let running = healthy
        .node(3)
        .lock()
        .expect("node lock")
        .kernel
        .stats
        .steps;
    assert!(
        frozen < running,
        "crash-stop froze the kernel: {frozen} vs {running} steps"
    );
}

#[test]
fn guard_round_trips_pay_the_review_pipeline() {
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
    let mut fleet = Fleet::build(top);
    fleet.run_rounds(120);
    let lt = fleet.loadgen_totals();
    assert!(lt.completed > 20, "advisories flowed: {}", lt.completed);
    assert!(
        lt.hist.quantile_pm(500) >= 3,
        "an advisory crosses two wires plus the reflector hop and the \
         officer's review: p50 = {}",
        lt.hist.quantile_pm(500)
    );
}

/// One retrying client against a dedup-window file server; `outage`
/// crash-reboots the server for the given `(crash, down_rounds)`.
fn retry_fleet(outage: Option<(u64, u64)>, loss_pm: u16, timeout: u64) -> Fleet {
    let mut top = FleetTopology::new();
    let cfg = LoadGenCfg {
        seed: 0xEC0,
        users: 2_000,
        mode: LoopMode::Closed { window: 4 },
        mix: WorkloadMix::rw(300, 700),
        phases: burst_then_idle(260),
        level: SecurityLevel::unclassified(),
        retry: Some(RetryCfg {
            timeout,
            backoff_shift_cap: 3,
        }),
    };
    let lg = top.node(lg_node("lg0", cfg));
    let mut fs_spec = fs_node_dedup("fs0", 1, 256);
    if let Some((crash, down)) = outage {
        fs_spec = fs_spec.crash_at(crash).recover_after(down);
    }
    let fs = top.node(fs_spec);
    top.link(
        LinkSpec::new(lg, "fs.req", fs, "c0.req")
            .reliable()
            .loss(lossy(0x91, loss_pm))
            .ack_loss(lossy(0x92, loss_pm)),
    );
    top.link(
        LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp")
            .reliable()
            .loss(lossy(0x93, loss_pm))
            .ack_loss(lossy(0x94, loss_pm)),
    );
    Fleet::build(top)
}

#[test]
fn end_to_end_retries_never_double_commit_on_a_healthy_server() {
    // A retry timeout tighter than the worst-case RTT under loss forces
    // real client retries over wires the ARQ already repairs — so the
    // server sees genuine duplicates and must deduplicate them.
    let mut fleet = retry_fleet(None, 150, 6);
    fleet.set_tracing(false);
    fleet.run_rounds(700);
    let lt = fleet.loadgen_totals();
    let (served, _) = fleet.fileserver_totals();
    assert!(lt.issued > 50, "burst generated load: {}", lt.issued);
    assert!(lt.retried > 0, "the tight timeout forced retries");
    assert!(
        fleet.fs_duplicates_total() > 0,
        "duplicates reached the server and were answered from cache"
    );
    assert_eq!(
        lt.completed, lt.issued,
        "every request completed exactly once at the client"
    );
    assert_eq!(
        served, lt.issued,
        "every request executed exactly once at the server: \
         retries replayed the cached response, never the operation"
    );
}

#[test]
fn client_retries_ride_through_a_server_reboot() {
    let crash = 100;
    let down = 40;
    let mut fleet = retry_fleet(Some((crash, down)), 0, 24);
    fleet.set_tracing(false);

    // Run to the reboot round, then note progress made so far.
    fleet.run_rounds(crash + down);
    let mid = fleet.loadgen_totals().completed;
    assert!(mid > 20, "pre-crash progress: {mid}");

    // Run through recovery and the idle drain.
    fleet.run_rounds(700 - (crash + down));
    let lt = fleet.loadgen_totals();
    assert_eq!(fleet.reboots_total(), 1, "the server rebooted once");
    assert_eq!(fleet.downtime_total(), down);
    assert!(
        lt.completed > mid,
        "goodput recovered after the reboot: {} -> {}",
        mid,
        lt.completed
    );
    assert_eq!(
        lt.completed, lt.issued,
        "every request — including those lost in the crash — was \
         retried to completion"
    );
    assert!(lt.retried > 0, "requests lost to the crash were retried");

    // The ARQ epoch machinery actually engaged: the rebooted receiver
    // forced a resync, and in-flight pre-crash frames were dropped as
    // stale rather than delivered into the new incarnation.
    {
        let client = fleet.node(0);
        let c = client.lock().expect("node lock");
        assert!(
            c.resyncs() > 0,
            "the client's sender adopted the rebooted receiver's epoch"
        );
    }
    let victim = fleet.node(1);
    let n = victim.lock().expect("node lock");
    assert_eq!(n.reboots, 1);
    assert_eq!(n.downtime_rounds, down);
    assert!(
        n.stale_epochs() > 0,
        "pre-crash frames were dropped as stale, not delivered"
    );
    assert_eq!(
        n.time_to_recover.len(),
        1,
        "one recovery measurement: {:?}",
        n.time_to_recover
    );
    assert!(
        n.time_to_recover[0] < 64,
        "traffic resumed promptly after reboot: {:?}",
        n.time_to_recover
    );
}

#[test]
fn open_loop_overload_shows_up_as_saturation_and_rejections() {
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
    // A capacity-2 unreliable wire carries at most 2 frames per round:
    // half the offered load. The backlog must be visible somewhere.
    top.link(LinkSpec::new(lg, "fs.req", fs, "c0.req").capacity(2));
    top.link(LinkSpec::new(fs, "c0.rsp", lg, "fs.rsp").capacity(2));
    let mut fleet = Fleet::build(top);
    fleet.set_tracing(false);
    fleet.run_rounds(200);
    let lt = fleet.loadgen_totals();
    assert!(
        lt.send_rejected > 0,
        "back-pressure reached the generator's own channel"
    );
    let node = fleet.node(lg);
    let node = node.lock().expect("node lock");
    let find = |gauges: &[ChannelGauge], name: &str| {
        gauges
            .iter()
            .find(|g| g.name == name)
            .unwrap_or_else(|| panic!("gauge {name} exists"))
            .clone()
    };
    let out_gauge = find(node.channel_gauges(), "out:fs.req");
    assert!(
        out_gauge.saturation_milli() > 0,
        "the egress channel pinned at capacity"
    );
    // One sample per round, taken once egress has drained: a gauge sampled
    // at any other point of the round reads other depths.
    let summary = |g: &ChannelGauge| (g.samples, g.depth_sum, g.max_depth, g.full_samples);
    assert_eq!(summary(&out_gauge), (200, 6_040, 32, 95));
    let gate_gauge = find(node.gateway_gauges(), "gw-out:fs.req");
    assert_eq!(summary(&gate_gauge), (200, 200, 1, 0));
    assert!(
        lt.completed > 0,
        "the system still made progress under overload"
    );
}
