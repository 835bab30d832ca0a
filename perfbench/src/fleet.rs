//! The `fleet` workload: E11's 16-node kernel fleet at 150‰ wire loss on
//! all 34 ARQ links.
//!
//! 8 load-generator nodes front 100,000 simulated clients in a closed loop
//! of window 16 (55% read, 35% write, 10% Guard) under a diurnal square
//! wave: 60 rounds at 0.5x load, then 60 at 1.5x. 4 MLS file servers, 2
//! Guard nodes and the SNFE pair serve them. It is the only workload that
//! runs `sep-distributed`, `sep-fleet` and `sep-components`; it runs no
//! machine code and no checker.
//!
//! The topology is E11's (`crates/bench/src/bin/e11_fleet.rs`), rebuilt
//! here because E11 keeps its topology functions in a binary. The
//! load-generator and loss-model seeds derive from the workload seed the
//! way E11 derives them from its `SEED`; seed 0 reproduces E11's seeds.
//!
//! One repetition builds the fleet and runs 1,200 rounds (ten diurnal
//! cycles), calling `Fleet::run_rounds` once per 60-round phase. A
//! repetition is a pure function of the seed, so every repetition of a run
//! must render the same `Fleet::report()` — at any worker count, traced or
//! not.
//!
//! The timed repetitions run on one worker. On a 2-core host shared with
//! other machines' load, the 2-worker pool's round barriers made the
//! request rate swing by a factor of two between runs, which no bound can
//! hold; one worker repeats to within a few percent. The traced run times
//! 2-worker repetitions beside the 1-worker ones and reports the ratio as
//! `distributed.pool_speedup`.

use crate::metrics::Outcome;
use crate::util::{median, peak_rss_mb, ratio, Digest, Sampler, Window};
use sep_components::guard::ApproveAll;
use sep_components::snfe::{BlackComponent, Censor, CensorPolicy, CryptoBox, RedComponent};
use sep_components::util::{Sink, Source};
use sep_components::{Component, ComponentIo, FileServer, FsClient, Guard};
use sep_fault::LossModel;
use sep_fleet::{
    BurstPhase, Fleet, FleetTopology, LinkSpec, LoadGen, LoadGenCfg, LoopMode, NodeSpec, Reflector,
    WorkloadMix,
};
use sep_policy::SecurityLevel;
use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LG_NODES: usize = 8;
const USERS_PER_NODE: u64 = 12_500;
const FS_NODES: usize = LG_NODES / 2;
const WINDOW: u64 = 16;
const SLOTS: u64 = 64;
const LOSS_PM: u16 = 150;
/// E11's base seed; workload seed 0 maps onto it unchanged.
const E11_SEED: u64 = 0xE11_F1EE7;
/// Rounds per diurnal phase, and per `Fleet::run_rounds` call.
const PHASE_ROUNDS: u64 = 60;
/// Phases per repetition: ten quiet/burst cycles.
const REP_PHASES: u64 = 20;
const REP_ROUNDS: u64 = PHASE_ROUNDS * REP_PHASES;
/// Workers of the timed and traced repetitions.
const WORKERS: usize = 1;
/// Workers of the pool repetitions in the traced run.
const POOL_WORKERS: usize = 2;

/// The base seed for a workload seed: E11's seed xor a bijective mix of
/// the workload seed (the mix sends 0 to 0).
fn base_seed(seed: u64) -> u64 {
    let mut z = seed;
    z = (z ^ (z >> 33)).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    z = (z ^ (z >> 33)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    E11_SEED ^ z ^ (z >> 33)
}

// ---------------------------------------------------------------------
// Spans: a `Component` wrapper around every hosted component.
// ---------------------------------------------------------------------

/// The component families whose step self-time is reported.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Family {
    LoadGen,
    FileServer,
    Guard,
    Snfe,
}

/// Counters of one wrapped component.
#[derive(Default)]
struct StepCounts {
    steps: u64,
    useful_steps: u64,
    timed_steps: u64,
    timed_step_ns: u64,
    timed_io_calls: u64,
    timed_io_ns: u64,
}

impl StepCounts {
    fn add(&mut self, o: &StepCounts) {
        self.steps += o.steps;
        self.useful_steps += o.useful_steps;
        self.timed_steps += o.timed_steps;
        self.timed_step_ns += o.timed_step_ns;
        self.timed_io_calls += o.timed_io_calls;
        self.timed_io_ns += o.timed_io_ns;
    }
}

/// Every wrapped component of the traced repetitions, by family.
#[derive(Default)]
struct Spans {
    components: Vec<(Family, Arc<Mutex<StepCounts>>)>,
}

impl Spans {
    fn sum(&self, fam: Option<Family>, field: impl Fn(&StepCounts) -> u64) -> f64 {
        self.components
            .iter()
            .filter(|(f, _)| fam.is_none_or(|want| *f == want))
            .map(|(_, c)| field(&c.lock().expect("span counters")) as f64)
            .sum()
    }

    /// Mean self time per `Component::step` of a family: the timed steps'
    /// duration minus the `ComponentIo` calls they made.
    fn self_ns(&self, fam: Option<Family>) -> f64 {
        let step = self.sum(fam, |c| c.timed_step_ns);
        let io = self.sum(fam, |c| c.timed_io_ns);
        ratio(step - io, self.sum(fam, |c| c.timed_steps))
    }
}

/// Times one in 16 `step` calls, and the `ComponentIo` calls inside them.
/// `as_any` forwards to the inner component, so the fleet's totals and
/// report still find load generators and file servers. Counts stay in the
/// wrapper while it runs and are added to `sink` when the fleet drops it.
struct Traced {
    inner: Box<dyn Component>,
    sampler: Sampler,
    counts: StepCounts,
    sink: Arc<Mutex<StepCounts>>,
}

impl Component for Traced {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let mut tio = TracedIo {
            io,
            timed: self.sampler.hit(),
            moved: false,
            calls: 0,
            io_ns: 0,
        };
        let start = tio.timed.then(Instant::now);
        self.inner.step(&mut tio);
        let c = &mut self.counts;
        if let Some(start) = start {
            c.timed_steps += 1;
            c.timed_step_ns += start.elapsed().as_nanos() as u64;
            c.timed_io_calls += tio.calls;
            c.timed_io_ns += tio.io_ns;
        }
        c.steps += 1;
        c.useful_steps += u64::from(tio.moved);
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(Traced {
            inner: self.inner.boxed_clone(),
            sampler: self.sampler.clone(),
            counts: StepCounts::default(),
            sink: Arc::clone(&self.sink),
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }
}

impl Drop for Traced {
    fn drop(&mut self) {
        // A poisoned lock means a worker panicked; that panic is the report.
        if let Ok(mut sink) = self.sink.lock() {
            sink.add(&self.counts);
        }
    }
}

/// The component's ports, with kernel channel mediation timed on timed
/// steps and frame movement noted on all of them.
struct TracedIo<'a> {
    io: &'a mut dyn ComponentIo,
    timed: bool,
    moved: bool,
    calls: u64,
    io_ns: u64,
}

impl TracedIo<'_> {
    fn call<T>(&mut self, f: impl FnOnce(&mut dyn ComponentIo) -> T) -> T {
        self.calls += 1;
        if !self.timed {
            return f(self.io);
        }
        let start = Instant::now();
        let out = f(self.io);
        self.io_ns += start.elapsed().as_nanos() as u64;
        out
    }
}

impl ComponentIo for TracedIo<'_> {
    fn recv(&mut self, port: &str) -> Option<Vec<u8>> {
        let frame = self.call(|io| io.recv(port));
        self.moved |= frame.is_some();
        frame
    }

    fn send(&mut self, port: &str, msg: &[u8]) -> bool {
        let sent = self.call(|io| io.send(port, msg));
        self.moved |= sent;
        sent
    }

    fn round(&self) -> u64 {
        self.io.round()
    }
}

// ---------------------------------------------------------------------
// The topology (E11's, seeded).
// ---------------------------------------------------------------------

/// E11's topology for one base seed; with `spans`, every hosted component
/// is wrapped in a [`Traced`] recorder.
struct Blueprint<'a> {
    seed: u64,
    spans: Option<&'a mut Spans>,
}

impl Blueprint<'_> {
    /// Wraps a component in a span recorder when tracing.
    fn host(&mut self, fam: Family, c: Box<dyn Component>) -> Box<dyn Component> {
        let Some(spans) = self.spans.as_deref_mut() else {
            return c;
        };
        let sink = Arc::new(Mutex::new(StepCounts::default()));
        let n = spans.components.len() as u64;
        spans.components.push((fam, Arc::clone(&sink)));
        Box::new(Traced {
            inner: c,
            sampler: Sampler::new(0x5EED ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15), 4),
            counts: StepCounts::default(),
            sink,
        })
    }

    fn lg_spec(&mut self, i: usize) -> NodeSpec {
        let name = format!("lg{i}");
        let cfg = LoadGenCfg {
            seed: self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            users: USERS_PER_NODE,
            mode: LoopMode::Closed { window: WINDOW },
            mix: WorkloadMix {
                read_pm: 550,
                write_pm: 350,
                guard_pm: 100,
            },
            phases: vec![
                BurstPhase {
                    rounds: PHASE_ROUNDS,
                    level_pm: 500,
                },
                BurstPhase {
                    rounds: PHASE_ROUNDS,
                    level_pm: 1500,
                },
            ],
            level: SecurityLevel::unclassified(),
            retry: None,
        };
        let lg = self.host(Family::LoadGen, Box::new(LoadGen::new(&name, cfg)));
        NodeSpec::new(&name)
            .slots_per_round(SLOTS)
            .component(lg)
            .output(0, "fs.req", "fs.req")
            .input("fs.rsp", 0, "fs.rsp")
            .output(0, "guard.req", "guard.req")
            .input("guard.rsp", 0, "guard.rsp")
    }

    fn fs_spec(&mut self, i: usize, clients: usize) -> NodeSpec {
        let fs_clients = (0..clients)
            .map(|c| FsClient {
                name: format!("c{c}"),
                level: SecurityLevel::unclassified(),
                special_delete: false,
            })
            .collect();
        let fs = self.host(Family::FileServer, Box::new(FileServer::new(fs_clients)));
        let mut spec = NodeSpec::new(&format!("fs{i}"))
            .slots_per_round(SLOTS)
            .component(fs);
        for c in 0..clients {
            spec = spec
                .input(&format!("c{c}.req"), 0, &format!("c{c}.req"))
                .output(0, &format!("c{c}.rsp"), &format!("c{c}.rsp"));
        }
        spec
    }

    /// A Guard node hosting `pairs` guard/reflector pairs, one per client.
    fn guard_spec(&mut self, i: usize, pairs: usize) -> NodeSpec {
        let mut spec = NodeSpec::new(&format!("guard{i}")).slots_per_round(SLOTS);
        for j in 0..pairs {
            let guard = self.host(Family::Guard, Box::new(Guard::new(Box::new(ApproveAll))));
            let refl = self.host(Family::Guard, Box::new(Reflector::new(&format!("refl{j}"))));
            spec = spec.component(guard).component(refl);
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
    fn snfe_red_spec(&mut self) -> NodeSpec {
        let frames: Vec<Vec<u8>> = (0..REP_ROUNDS)
            .map(|i| format!("host frame {i} for the black side").into_bytes())
            .collect();
        let source = self.host(Family::Snfe, Box::new(Source::new("host", frames)));
        let red = self.host(Family::Snfe, Box::new(RedComponent::new(1)));
        let crypto = self.host(
            Family::Snfe,
            Box::new(CryptoBox::new([0xE1, 0x1F, 0x1E, 0xE7])),
        );
        let censor = self.host(
            Family::Snfe,
            Box::new(Censor::new(CensorPolicy::canonical())),
        );
        NodeSpec::new("snfe-red")
            .slots_per_round(SLOTS)
            .component(source)
            .component(red)
            .component(crypto)
            .component(censor)
            .local(0, "out", 1, "host.in", 8)
            .local(1, "crypto.out", 2, "in", 8)
            .local(1, "bypass.out", 3, "red.in", 8)
            .output(2, "out", "crypto.out")
            .output(3, "black.out", "bypass.out")
    }

    /// The SNFE network side: black reassembly → sink.
    fn snfe_black_spec(&mut self) -> NodeSpec {
        let black = self.host(Family::Snfe, Box::new(BlackComponent::new()));
        let sink = self.host(Family::Snfe, Box::new(Sink::new("network")));
        NodeSpec::new("snfe-black")
            .slots_per_round(SLOTS)
            .component(black)
            .component(sink)
            .local(0, "net.out", 1, "in", 16)
            .input("crypto.in", 0, "crypto.in")
            .input("bypass.in", 0, "bypass.in")
    }

    /// The 16-node fleet, every link reliable and lossy in both directions.
    fn build(mut self) -> Fleet {
        let mut top = FleetTopology::new();
        let lgs: Vec<usize> = (0..LG_NODES).map(|i| top.node(self.lg_spec(i))).collect();
        let fss: Vec<usize> = (0..FS_NODES)
            .map(|i| top.node(self.fs_spec(i, 2)))
            .collect();
        let guards = [
            top.node(self.guard_spec(0, LG_NODES / 2)),
            top.node(self.guard_spec(1, LG_NODES / 2)),
        ];
        let red = top.node(self.snfe_red_spec());
        let black = top.node(self.snfe_black_spec());

        let seed = self.seed;
        for (i, &lg) in lgs.iter().enumerate() {
            let fs = fss[i / 2];
            let c = i % 2;
            let s = seed ^ ((i as u64 + 1) << 8);
            let guard = guards[i / (LG_NODES / 2)];
            let j = i % (LG_NODES / 2);
            top.link(link(lg, "fs.req", fs, &format!("c{c}.req"), s));
            top.link(link(fs, &format!("c{c}.rsp"), lg, "fs.rsp", s ^ 0xF5));
            top.link(link(
                lg,
                "guard.req",
                guard,
                &format!("low{j}.in"),
                s ^ 0x6A,
            ));
            top.link(link(
                guard,
                &format!("low{j}.out"),
                lg,
                "guard.rsp",
                s ^ 0x6B,
            ));
        }
        top.link(link(red, "crypto.out", black, "crypto.in", seed ^ 0xC0DE));
        top.link(link(red, "bypass.out", black, "bypass.in", seed ^ 0xB1FA));
        Fleet::build(top)
    }
}

/// 150‰ split evenly over drop, duplicate and reorder.
fn lossy(seed: u64) -> LossModel {
    let pm = LOSS_PM;
    LossModel::new(seed)
        .with_drop(pm / 3)
        .with_duplicate(pm / 3)
        .with_reorder(pm - 2 * (pm / 3))
}

fn link(from: usize, from_port: &str, to: usize, to_port: &str, seed: u64) -> LinkSpec {
    LinkSpec::new(from, from_port, to, to_port)
        .capacity(64)
        .reliable()
        .loss(lossy(seed))
        .ack_loss(lossy(seed ^ 0xACC))
}

// ---------------------------------------------------------------------
// Repetitions.
// ---------------------------------------------------------------------

/// What one repetition measured and produced.
struct Rep {
    setup_s: f64,
    /// Host seconds in quiet and in burst phases.
    phase_s: [f64; 2],
    issued: u64,
    completed: u64,
    denied: u64,
    errored: u64,
    send_rejected: u64,
    served: u64,
    p99_rounds: u64,
    steps: u64,
    messages: u64,
    wire_msgs: u64,
    retransmissions: u64,
    digest: u64,
}

impl Rep {
    fn run_s(&self) -> f64 {
        self.phase_s[0] + self.phase_s[1]
    }

    fn req_per_s(&self) -> f64 {
        self.completed as f64 / self.run_s()
    }
}

fn rep(seed: u64, workers: usize, spans: Option<&mut Spans>) -> Rep {
    let start = Instant::now();
    let mut fleet = Blueprint {
        seed: base_seed(seed),
        spans,
    }
    .build();
    let setup_s = start.elapsed().as_secs_f64();
    fleet.set_tracing(false);
    fleet.set_workers(workers);
    let mut phase_s = [0.0; 2];
    for phase in 0..REP_PHASES {
        let start = Instant::now();
        fleet.run_rounds(PHASE_ROUNDS);
        phase_s[(phase % 2) as usize] += start.elapsed().as_secs_f64();
    }
    let lt = fleet.loadgen_totals();
    let (served, _) = fleet.fileserver_totals();
    let (mut steps, mut messages) = (0, 0);
    for i in 0..fleet.len() {
        let node = fleet.node(i);
        let node = node.lock().expect("fleet node lock");
        steps += node.kernel.stats.steps;
        messages += node.kernel.stats.messages_sent;
    }
    let wire = &fleet.network().obs.metrics.totals;
    let (wire_msgs, retransmissions) = (wire.wire_messages, wire.retransmissions);
    let digest = Digest::new()
        .bytes(fleet.report().to_compact().as_bytes())
        .value();
    Rep {
        setup_s,
        phase_s,
        issued: lt.issued,
        completed: lt.completed,
        denied: lt.denied,
        errored: lt.errored,
        send_rejected: lt.send_rejected,
        served,
        p99_rounds: lt.hist.quantile_pm(990),
        steps,
        messages,
        wire_msgs,
        retransmissions,
        digest,
    }
}

/// Correctness gates and failure accounting for one repetition.
fn account(out: &mut Outcome, r: &Rep, expect_digest: u64, what: &str) {
    out.attempted += r.issued;
    out.failed += r.errored + r.denied + r.send_rejected;
    out.gate(r.issued > 0 && r.completed > 0, || {
        format!("{what}: the fleet carried no load")
    });
    out.gate(r.errored == 0 && r.denied == 0, || {
        format!("{what}: {} errored, {} denied", r.errored, r.denied)
    });
    out.gate(r.served <= r.issued, || {
        format!("{what}: served {} > issued {}", r.served, r.issued)
    });
    out.gate(r.digest == expect_digest, || {
        format!(
            "{what}: report digest {:#x} differs from the first untraced repetition's {:#x}",
            r.digest, expect_digest
        )
    });
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    out.note(format!(
        "fleet: 16 nodes, {} clients, loss {LOSS_PM}pm, {REP_ROUNDS} rounds per repetition, \
         {WORKERS} worker, seed {seed} (base {:#x}), {} cores",
        LG_NODES as u64 * USERS_PER_NODE,
        base_seed(seed),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    if traced {
        run_traced(seed, seconds, &mut out);
        return out;
    }
    let window = Window::new(seconds, 3);
    let mut reps: Vec<Rep> = Vec::new();
    let mut peak_mb = 0.0;
    while window.more(reps.len()) {
        let r = rep(seed, WORKERS, None);
        let first = reps.first().map_or(r.digest, |f| f.digest);
        account(&mut out, &r, first, &format!("repetition {}", reps.len()));
        if reps.is_empty() {
            peak_mb = peak_rss_mb();
        }
        reps.push(r);
    }
    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let rates: Vec<f64> = reps.iter().map(Rep::req_per_s).collect();
    let r0 = &reps[0];
    out.note(format!(
        "fleet: {} repetitions; per repetition issued {} completed {}; report digest {:#x}",
        reps.len(),
        r0.issued,
        r0.completed,
        r0.digest
    ));
    out.note(format!(
        "fleet: req_per_s {} 1/s (ops_per_s), goodput_per_round {} req/round, \
         p99_rounds {} rounds",
        median(&rates),
        r0.completed as f64 / REP_ROUNDS as f64,
        r0.p99_rounds
    ));
    out.set("setup_s", median(&setups));
    out.set("ops_per_s", median(&rates));
    out.set("peak_rss_mb", peak_mb);
    out
}

/// The traced run: cycles of (untraced, untraced on the 2-worker pool,
/// traced) repetitions until the window closes.
fn run_traced(seed: u64, seconds: u64, out: &mut Outcome) {
    let window = Window::new(seconds, 1);
    let mut spans = Spans::default();
    let (mut plain, mut pool, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    while window.more(traced.len()) {
        let r = rep(seed, WORKERS, None);
        let first = plain.first().map_or(r.digest, |f: &Rep| f.digest);
        account(out, &r, first, "untraced repetition");
        plain.push(r);
        let r = rep(seed, POOL_WORKERS, None);
        account(out, &r, first, "2-worker repetition");
        pool.push(r);
        let r = rep(seed, WORKERS, Some(&mut spans));
        account(out, &r, first, "traced repetition");
        traced.push(r);
    }

    let run_s = |reps: &[Rep]| median(&reps.iter().map(Rep::run_s).collect::<Vec<_>>());
    let rate = |reps: &[Rep]| median(&reps.iter().map(Rep::req_per_s).collect::<Vec<_>>());
    let phase_us = |p: usize| {
        let total: f64 = traced.iter().map(|r| r.phase_s[p]).sum();
        total * 1e6 / (traced.len() as f64 * (REP_ROUNDS / 2) as f64)
    };
    let traced_wall_ns: f64 = traced.iter().map(|r| r.run_s() * 1e9).sum();
    let busy_ns: f64 = [
        Family::LoadGen,
        Family::FileServer,
        Family::Guard,
        Family::Snfe,
    ]
    .into_iter()
    .map(|f| spans.self_ns(Some(f)) * spans.sum(Some(f), |c| c.steps))
    .sum();

    out.set("fleet.quiet_round_us", phase_us(0));
    out.set("fleet.burst_round_us", phase_us(1));
    out.set("distributed.pool_speedup", run_s(&plain) / run_s(&pool));
    out.set(
        "components.loadgen_ns",
        spans.self_ns(Some(Family::LoadGen)),
    );
    out.set(
        "components.fileserver_ns",
        spans.self_ns(Some(Family::FileServer)),
    );
    out.set("components.guard_ns", spans.self_ns(Some(Family::Guard)));
    out.set("components.snfe_ns", spans.self_ns(Some(Family::Snfe)));
    out.set(
        "components.busy_frac",
        busy_ns / (traced_wall_ns * WORKERS as f64),
    );
    out.set(
        "kernel.chan_op_ns",
        ratio(
            spans.sum(None, |c| c.timed_io_ns),
            spans.sum(None, |c| c.timed_io_calls),
        ),
    );
    out.set(
        "kernel.useful_step_frac",
        ratio(
            spans.sum(None, |c| c.useful_steps),
            spans.sum(None, |c| c.steps),
        ),
    );

    let r = &plain[0];
    out.set(
        "distributed.wire_msgs_per_req",
        ratio(r.wire_msgs as f64, r.completed as f64),
    );
    out.set(
        "distributed.retx_frac",
        ratio(r.retransmissions as f64, r.wire_msgs as f64),
    );
    out.set(
        "fleet.goodput_per_round",
        r.completed as f64 / REP_ROUNDS as f64,
    );
    out.set("fleet.p99_rounds", r.p99_rounds as f64);
    out.set("kernel.steps", r.steps as f64);
    out.set("kernel.messages", r.messages as f64);
    out.set("distributed.wire_msgs", r.wire_msgs as f64);
    out.set("distributed.retransmissions", r.retransmissions as f64);
    out.set("fleet.issued", r.issued as f64);
    out.set("fleet.completed", r.completed as f64);
    out.set("fleet.send_rejected", r.send_rejected as f64);
    out.set("fleet.report_digest", r.digest as f64);
    out.set("trace.overhead_frac", 1.0 - rate(&traced) / rate(&plain));
    out.note(format!(
        "fleet traced: {} cycles; req_per_s untraced {:.0} at {WORKERS} worker, {:.0} at \
         {POOL_WORKERS}, {:.0} traced",
        traced.len(),
        rate(&plain),
        rate(&pool),
        rate(&traced)
    ));
}
