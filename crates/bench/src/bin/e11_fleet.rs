//! E11 — a distributed kernel fleet under seeded traffic.
//!
//! Boots a 16-node fleet — 8 load-generator nodes fronting 100,000
//! simulated clients, 4 MLS file-server nodes, 2 Guard nodes (four
//! guard/reflector pairs each), and a 2-node SNFE pipeline — and sweeps
//! wire loss from 0 to 300‰ on every inter-node link. Every link carrying
//! client traffic runs the gateway ARQ, so the sweep measures how much
//! goodput and tail latency the retransmission machinery buys back as the
//! wires degrade.
//!
//! Determinism is asserted, not assumed: the 150‰ point is run at 1, 2,
//! 4, and 8 workers and all four aggregated reports must be
//! byte-identical — the parallel round executor is allowed to change
//! wall-clock time and nothing else. On hosts with ≥ 4 cores the sweep
//! also asserts the point of the exercise: ≥ 2× speedup at 4 workers.
//! All numbers in `BENCH_obs_e11_fleet.json` are integer counters —
//! goodput, p50/p99/p999 round-latency, per-channel saturation, per-wire
//! loss — so the artifact diffs cleanly across machines; wall-clock
//! timings live in the report's separate, machine-varying `wall` section.

use sep_components::guard::ApproveAll;
use sep_components::snfe::{BlackComponent, Censor, CensorPolicy, CryptoBox, RedComponent};
use sep_components::util::{Sink, Source};
use sep_components::{FileServer, FsClient, Guard};
use sep_fault::LossModel;
use sep_fleet::{
    BurstPhase, Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode, NodeSpec, Reflector,
    WorkloadMix,
};
use sep_obs::{Json, RunReport};
use sep_policy::SecurityLevel;
use std::time::{Duration, Instant};

/// Load-generator nodes (each fronts `USERS_PER_NODE` simulated clients).
const LG_NODES: usize = 8;
/// Simulated clients per generator node.
const USERS_PER_NODE: u64 = 12_500;
/// File-server nodes (two generator nodes each).
const FS_NODES: usize = LG_NODES / 2;
/// Rounds per sweep point: three full diurnal cycles.
const ROUNDS: u64 = 360;
/// Closed-loop window per generator.
const WINDOW: u64 = 16;
/// Base RNG seed for the whole fleet.
const SEED: u64 = 0xE11_F1EE7;
/// Kernel slots per node per round. Pinned (and generous) on every node
/// so each worker bin carries the same compute and the per-round kernel
/// work dominates the round-barrier synchronisation cost.
const SLOTS: u64 = 64;

fn lossy(seed: u64, pm: u16) -> Option<LossModel> {
    (pm > 0).then(|| {
        LossModel::new(seed)
            .with_drop(pm / 3)
            .with_duplicate(pm / 3)
            .with_reorder(pm - 2 * (pm / 3))
    })
}

fn lg_spec(i: usize) -> NodeSpec {
    let name = format!("lg{i}");
    let cfg = LoadGenCfg {
        seed: SEED ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        users: USERS_PER_NODE,
        mode: LoopMode::Closed { window: WINDOW },
        mix: WorkloadMix {
            read_pm: 550,
            write_pm: 350,
            guard_pm: 100,
        },
        // The diurnal square wave: 60 quiet rounds at half load, 60 burst
        // rounds at 1.5x.
        phases: vec![
            BurstPhase {
                rounds: 60,
                level_pm: 500,
            },
            BurstPhase {
                rounds: 60,
                level_pm: 1500,
            },
        ],
        level: SecurityLevel::unclassified(),
        retry: None,
    };
    NodeSpec::new(&name)
        .slots_per_round(SLOTS)
        .component(Box::new(LoadGen::new(&name, cfg)))
        .output(0, "fs.req", "fs.req")
        .input("fs.rsp", 0, "fs.rsp")
        .output(0, "guard.req", "guard.req")
        .input("guard.rsp", 0, "guard.rsp")
}

fn fs_spec(i: usize, clients: usize) -> NodeSpec {
    let fs_clients = (0..clients)
        .map(|c| FsClient {
            name: format!("c{c}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let mut spec = NodeSpec::new(&format!("fs{i}"))
        .slots_per_round(SLOTS)
        .component(Box::new(FileServer::new(fs_clients)));
    for c in 0..clients {
        spec = spec
            .input(&format!("c{c}.req"), 0, &format!("c{c}.req"))
            .output(0, &format!("c{c}.rsp"), &format!("c{c}.rsp"));
    }
    spec
}

/// A Guard node hosting `pairs` guard/reflector pairs, one per client.
fn guard_spec(i: usize, pairs: usize) -> NodeSpec {
    let mut spec = NodeSpec::new(&format!("guard{i}")).slots_per_round(SLOTS);
    for j in 0..pairs {
        spec = spec
            .component(Box::new(Guard::new(Box::new(ApproveAll))))
            .component(Box::new(Reflector::new(&format!("refl{j}"))));
    }
    for j in 0..pairs {
        let (g, r) = (2 * j, 2 * j + 1);
        spec = spec
            .local(g, "high.out", r, "in", 16)
            .local(r, "out", g, "high.in", 16)
            .input(&format!("low{j}.in"), g, "low.in")
            .output(g, "low.out", &format!("low{j}.out"));
    }
    spec
}

/// The SNFE host side: scripted host traffic → red → {censor, crypto}.
fn snfe_red_spec() -> NodeSpec {
    let frames: Vec<Vec<u8>> = (0..ROUNDS)
        .map(|i| format!("host frame {i} for the black side").into_bytes())
        .collect();
    NodeSpec::new("snfe-red")
        .slots_per_round(SLOTS)
        .component(Box::new(Source::new("host", frames)))
        .component(Box::new(RedComponent::new(1)))
        .component(Box::new(CryptoBox::new([0xE1, 0x1F, 0x1E, 0xE7])))
        .component(Box::new(Censor::new(CensorPolicy::canonical())))
        .local(0, "out", 1, "host.in", 8)
        .local(1, "crypto.out", 2, "in", 8)
        .local(1, "bypass.out", 3, "red.in", 8)
        .output(2, "out", "crypto.out")
        .output(3, "black.out", "bypass.out")
}

/// The SNFE network side: black reassembly → sink.
fn snfe_black_spec() -> NodeSpec {
    NodeSpec::new("snfe-black")
        .slots_per_round(SLOTS)
        .component(Box::new(BlackComponent::new()))
        .component(Box::new(Sink::new("network")))
        .local(0, "net.out", 1, "in", 16)
        .input("crypto.in", 0, "crypto.in")
        .input("bypass.in", 0, "bypass.in")
}

fn reliable_link(
    from: usize,
    from_port: &str,
    to: usize,
    to_port: &str,
    seed: u64,
    pm: u16,
) -> LinkSpec {
    let mut l = LinkSpec::new(from, from_port, to, to_port)
        .capacity(64)
        .reliable();
    if let Some(m) = lossy(seed, pm) {
        l = l.loss(m);
    }
    if let Some(m) = lossy(seed ^ 0xACC, pm) {
        l = l.ack_loss(m);
    }
    l
}

/// The 16-node fleet at one wire-loss point.
fn build_fleet(loss_pm: u16) -> Fleet {
    let mut top = FleetTopology::new();
    let lgs: Vec<usize> = (0..LG_NODES).map(|i| top.node(lg_spec(i))).collect();
    let fss: Vec<usize> = (0..FS_NODES).map(|i| top.node(fs_spec(i, 2))).collect();
    let guards = [
        top.node(guard_spec(0, LG_NODES / 2)),
        top.node(guard_spec(1, LG_NODES / 2)),
    ];
    let red = top.node(snfe_red_spec());
    let black = top.node(snfe_black_spec());

    for (i, &lg) in lgs.iter().enumerate() {
        let fs = fss[i / 2];
        let c = i % 2;
        let s = SEED ^ ((i as u64 + 1) << 8);
        top.link(reliable_link(
            lg,
            "fs.req",
            fs,
            &format!("c{c}.req"),
            s,
            loss_pm,
        ));
        top.link(reliable_link(
            fs,
            &format!("c{c}.rsp"),
            lg,
            "fs.rsp",
            s ^ 0xF5,
            loss_pm,
        ));
        let guard = guards[i / (LG_NODES / 2)];
        let j = i % (LG_NODES / 2);
        top.link(reliable_link(
            lg,
            "guard.req",
            guard,
            &format!("low{j}.in"),
            s ^ 0x6A,
            loss_pm,
        ));
        top.link(reliable_link(
            guard,
            &format!("low{j}.out"),
            lg,
            "guard.rsp",
            s ^ 0x6B,
            loss_pm,
        ));
    }
    top.link(reliable_link(
        red,
        "crypto.out",
        black,
        "crypto.in",
        SEED ^ 0xC0DE,
        loss_pm,
    ));
    top.link(reliable_link(
        red,
        "bypass.out",
        black,
        "bypass.in",
        SEED ^ 0xB1FA,
        loss_pm,
    ));
    Fleet::build(top)
}

/// Runs one sweep point at `workers` workers and returns (aggregated
/// report, stdout row data, wall-clock of the run itself).
fn sweep_point(loss_pm: u16, workers: usize) -> (Json, String, Duration) {
    let mut fleet = build_fleet(loss_pm);
    assert_eq!(fleet.len(), 16, "the fleet is sixteen nodes");
    fleet.set_tracing(false);
    fleet.set_workers(workers);
    let start = Instant::now();
    fleet.run_rounds(ROUNDS);
    let wall = start.elapsed();
    let lt = fleet.loadgen_totals();
    let (served, _) = fleet.fileserver_totals();
    assert!(lt.issued > 1_000, "the fleet carried load: {}", lt.issued);
    assert!(
        served <= lt.issued,
        "ARQ exactly-once: served {served} cannot exceed issued {}",
        lt.issued
    );
    let row = format!(
        "loss {loss_pm:>3}pm  issued {:>6}  completed {:>6}  goodput {:>5}m/round  p50 {:>3}  p99 {:>3}  p999 {:>3}  retx {:>6}",
        lt.issued,
        lt.completed,
        lt.completed * 1000 / ROUNDS,
        lt.hist.quantile_pm(500),
        lt.hist.quantile_pm(990),
        lt.hist.quantile_pm(999),
        fleet.network().obs.metrics.totals.retransmissions,
    );
    (fleet.report(), row, wall)
}

/// Median-of-three wall clock for one (loss, workers) point.
fn timed_wall(loss_pm: u16, workers: usize) -> Duration {
    let mut walls: Vec<Duration> = (0..3).map(|_| sweep_point(loss_pm, workers).2).collect();
    walls.sort();
    walls[1]
}

fn main() {
    println!(
        "E11: 16-node kernel fleet, {} simulated clients, loss x workers sweep",
        LG_NODES as u64 * USERS_PER_NODE
    );

    // Determinism gate: the aggregated report is a pure function of the
    // topology and seeds, byte for byte — at every worker count. Workers
    // are allowed to change wall-clock time and nothing else.
    let (seq, _, _) = sweep_point(150, 1);
    for workers in [2usize, 4, 8] {
        let (par, _, _) = sweep_point(150, workers);
        assert_eq!(
            seq.to_compact(),
            par.to_compact(),
            "{workers}-worker run must reproduce the sequential report byte for byte"
        );
    }
    println!("determinism: 150pm point byte-identical at 1/2/4/8 workers");

    // Speedup gate: on a ≥4-core host the 4-worker run must be at least
    // 2x faster than sequential. Retried once — a single noisy run on a
    // shared box should not fail the bench.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Timings vary by machine, so they go to the report's `wall` section,
    // apart from the byte-stable sweep records.
    let mut walls: Vec<(String, f64)> = Vec::new();
    let seq_wall = timed_wall(150, 1);
    for workers in [2usize, 4, 8] {
        let wall = timed_wall(150, workers);
        let speedup_milli = seq_wall.as_nanos() * 1000 / wall.as_nanos().max(1);
        println!(
            "workers {workers}: wall {:>6}us (seq {:>6}us, speedup {}.{:03}x)",
            wall.as_micros(),
            seq_wall.as_micros(),
            speedup_milli / 1000,
            speedup_milli % 1000
        );
        walls.push((format!("w{workers}_wall_us"), wall.as_micros() as f64));
        walls.push((format!("w{workers}_speedup_milli"), speedup_milli as f64));
        if workers == 4 && cores >= 4 {
            let ok = speedup_milli >= 2000 || {
                let retry = timed_wall(150, 4);
                seq_wall.as_nanos() * 1000 / retry.as_nanos().max(1) >= 2000
            };
            assert!(
                ok,
                "4 workers on a {cores}-core host must run the 16-node fleet >=2x faster \
                 than sequential (got {}.{:03}x)",
                speedup_milli / 1000,
                speedup_milli % 1000
            );
            println!("speedup gate: >=2x at 4 workers holds");
        }
    }
    if cores < 4 {
        println!("speedup gate: skipped ({cores} core(s) available, need >=4)");
    }
    walls.push(("cores".to_string(), cores as f64));
    walls.push(("seq_wall_us".to_string(), seq_wall.as_micros() as f64));

    let mut report = RunReport::new("e11_fleet")
        .param("nodes", 16u64)
        .param("lg_nodes", LG_NODES)
        .param("users", LG_NODES as u64 * USERS_PER_NODE)
        .param("rounds", ROUNDS)
        .param("window", WINDOW)
        .param("seed", SEED)
        .param(
            "loss_sweep_pm",
            Json::Arr(vec![0u64.into(), 150u64.into(), 300u64.into()]),
        )
        .param(
            "workers_sweep",
            Json::Arr(vec![1u64.into(), 2u64.into(), 4u64.into(), 8u64.into()]),
        );
    for loss_pm in [0u16, 150, 300] {
        let (json, row, _) = sweep_point(loss_pm, 4);
        println!("{row}");
        report = report.run_custom(&format!("loss{loss_pm}"), json);
    }
    for (key, value) in &walls {
        report = report.wall(key, *value);
    }
    report
        .write_to("BENCH_obs_e11_fleet.json")
        .expect("write e11 report");
    println!("wrote BENCH_obs_e11_fleet.json");
}
