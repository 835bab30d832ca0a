//! `SeparationKernel::step_n` against the one-step-at-a-time reference.
//!
//! `step_n` hands the current regime to the machine's batched loop whenever
//! the kernel has nothing to mediate before the next device event; device
//! time is owed during the batch and paid before any I/O-page access (see
//! DESIGN.md, "The fast path"). When native regimes hold the CPU it jumps
//! the steps in which every regime the rotation reaches is quiet. Every
//! configuration below runs twice in lockstep — `step_n(b)` against `b`
//! calls of `step()` — for b ∈ {1, 3, 7, 64, 1000}; the machine-code ones
//! under the slow engine and the fast one (decode cache, TLB and
//! superblock tier), the native ones with a host that moves frames in and
//! out of the kernel's gateway channels between batches.
//! After every batch everything the kernel exposes must be byte-identical:
//! the state vector, `KernelStats`, the metrics JSON, the event trace,
//! device snapshots, the current regime, the CPU, every channel's sticky
//! latch, host serial output, the machine's step and instruction counters,
//! and the last step's event.

use sep_components::component::{Component, ComponentIo, PortBinding, RegimeComponent};
use sep_components::fileserver::request;
use sep_components::guard::ApproveAll;
use sep_components::snfe::{BlackComponent, Censor, CensorPolicy, CryptoBox, Header, RedComponent};
use sep_components::util::{Sink, Source};
use sep_components::{FileServer, FsClient, Guard};
use sep_fleet::{
    BurstPhase, KernelNode, LoadGen, LoadGenCfg, LoopMode, NodeSpec, Reflector, RetryCfg,
    WorkloadMix,
};
use sep_kernel::config::{
    ChannelSpec, DepthPolicy, DeviceSpec, KernelConfig, Mutation, RegimeSpec, SchedPolicy,
};
use sep_kernel::kernel::{KernelEvent, KernelStats, SeparationKernel};
use sep_kernel::regime::{ChannelView, FaultPolicy, NativeAction, NativeRegime, RegimeIo};
use sep_machine::cpu::Cpu;
use sep_machine::Word;
use sep_obs::report::metrics_json;
use sep_obs::TimedEvent;
use sep_policy::SecurityLevel;
use std::any::Any;
use std::collections::{BTreeSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Regimes.
// ---------------------------------------------------------------------------

/// The `asm` benchmark's producer: reads up to 8 bytes from its serial
/// line and SENDs them on channel 0.
const PRODUCER: &str = "
start:  MOV #buf, R1
        MOV #0, R5
fill:   BIT #0o200, @#0o160000
        BEQ flush
        MOVB @#0o160002, (R1)+
        INC R5
        CMP R5, #8
        BNE fill
flush:  TST R5
        BEQ yield
resend: MOV #0, R0
        MOV #buf, R1
        MOV R5, R2
        TRAP 1
        TST R0
        BEQ yield
        TRAP 0
        BR resend
yield:  TRAP 0
        BR start
buf:    .blkw 4
";

/// RECVs on channel 0, uppercases a–z, SENDs on channel 1.
const FILTER: &str = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #8, R2
        TRAP 2
        TST R0
        BNE yield
        MOV R2, R5
        MOV #buf, R1
loop:   TST R5
        BEQ send
        MOVB (R1), R3
        CMPB R3, #'a
        BLT next
        CMPB R3, #'z
        BGT next
        SUB #32, R3
        MOVB R3, (R1)
next:   INC R1
        DEC R5
        BR loop
send:   MOV #1, R0
        MOV #buf, R1
        TRAP 1
yield:  TRAP 0
        BR start
buf:    .blkw 4
";

/// RECVs on channel 1 and transmits each byte on its serial line.
const CONSUMER: &str = "
start:  MOV #1, R0
        MOV #buf, R1
        MOV #8, R2
        TRAP 2
        TST R0
        BNE yield
        MOV R2, R5
        MOV #buf, R1
putc:   TST R5
        BEQ yield
wait:   BIT #0o200, @#0o160004
        BEQ wait
        MOVB (R1)+, @#0o160006
        DEC R5
        BR putc
yield:  TRAP 0
        BR start
buf:    .blkw 4
";

/// A pure register loop (the superblock tier compiles it), yielding after
/// 32 passes.
const LOOP_A: &str = "
start:  MOV #32, R0
loop:   INC R1
        BIC #0o177774, R1
        ADD R1, R2
        ADD #1, R3
        MOV R3, R4
        BIC #0o170000, R4
        ADD R4, R5
        COM R5
        COM R5
        SOB R0, loop
        TRAP 0
        BR start
";

/// A shift-and-carry loop, yielding after 24 passes.
const LOOP_B: &str = "
start:  MOV #24, R0
loop:   ADD R0, R1
        ASL R1
        ADC R2
        MOV R2, R3
        BIC #0o177400, R3
        ADD R3, R4
        SWAB R4
        DEC R0
        BNE loop
        TRAP 0
        BR start
";

/// Sleeps on WAIT between clock interrupts and counts them.
const CLOCKED: &str = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)
loop:   WAIT
        BR loop
handler: INC ticks
        RTI
ticks:  .word 0
";

/// Spins without yielding while its clock interrupts it.
const SPIN_CLOCKED: &str = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)
spin:   INC R1
        ADD R1, R2
        BIC #0o177700, R2
        BR spin
handler: INC ticks
        RTI
ticks:  .word 0
";

/// A busy bystander with no devices.
const BYSTANDER: &str = "
start:  INC counter
        TRAP 0
        BR start
counter: .word 0
";

/// Yields in a loop and counts interrupts it is handed (the misrouting
/// mutant delivers its neighbour's clock here).
const CATCHER: &str = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  INC R1
        ADD R1, R2
        TRAP 0
        BR start
handler: INC hits
        RTI
hits:   .word 0
";

/// Interrupt-driven echo: the receive handler queues the byte and, if the
/// transmitter is idle, sends; the transmit handler sends the next queued
/// byte. Between interrupts the regime sleeps on WAIT.
const IRQ_ECHO: &str = "
        BR start
        .org 0o100
        .word rxh, 0
        .word txh, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)
        MOV #0o100, 4(R4)
idle:   WAIT
        BR idle
rxh:    MOVB 2(R4), R0
        MOVB R0, ring(R3)
        INC R3
        BIC #0o177770, R3
        BIT #0o200, 4(R4)
        BEQ done
txh:    CMP R2, R3
        BEQ done
        MOVB ring(R2), 6(R4)
        INC R2
        BIC #0o177770, R2
done:   RTI
ring:   .blkw 4
";

/// Polling echo: copies each received byte to the transmitter, yielding
/// while the line is idle.
const POLL_ECHO: &str = "
start:  MOV #0o160000, R4
poll:   BIT #0o200, (R4)
        BEQ yield
        MOVB 2(R4), R0
wait:   BIT #0o200, 4(R4)
        BEQ wait
        MOVB R0, 6(R4)
        BR poll
yield:  TRAP 0
        BR poll
";

/// Spins until the watchdog fires.
const RUNAWAY: &str = "
start:  INC R1
        ADD R1, R2
        BR start
";

/// Runs a short loop, then reads outside its partition.
const STRAY: &str = "
start:  MOV #20, R0
spin:   INC R1
        SOB R0, spin
        MOV @#0o40000, R2
        BR start
";

// ---------------------------------------------------------------------------
// Configurations.
// ---------------------------------------------------------------------------

struct Case {
    name: &'static str,
    config: fn() -> KernelConfig,
    /// The regime whose first serial line the host feeds, if any.
    feed: Option<usize>,
    /// Steps per run (rounded up to whole batches, and capped at
    /// [`MAX_BATCHES`] batches).
    steps: u64,
    /// Whether a pure register loop must run in the superblock tier
    /// inside kernel batches (checked under the tier at the largest batch).
    tier: bool,
}

fn asm_workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("producer", PRODUCER).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("filter", FILTER),
        RegimeSpec::assembly("consumer", CONSUMER).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("loop_a", LOOP_A),
        RegimeSpec::assembly("loop_b", LOOP_B),
        RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock { period: 64 }),
    ])
    .with_channel(0, 1, 4)
    .with_channel(1, 2, 4)
}

fn clock_beside_bystander() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock { period: 4 }),
        RegimeSpec::assembly("bystander", BYSTANDER),
    ])
}

fn spinning_with_clock() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("spinner", SPIN_CLOCKED).with_device(DeviceSpec::Clock { period: 7 })
    ])
}

fn interrupt_echo() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("echo", IRQ_ECHO).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("loop_a", LOOP_A),
    ])
}

fn polling_echo() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("echo", POLL_ECHO).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("loop_b", LOOP_B),
    ])
}

fn misrouted_interrupts() -> KernelConfig {
    KernelConfig {
        mutation: Mutation::MisrouteInterrupts,
        ..KernelConfig::new(vec![
            RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock { period: 5 }),
            RegimeSpec::assembly("catcher", CATCHER),
        ])
    }
}

fn watchdog_restart() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("runaway", RUNAWAY)
            .with_watchdog(100)
            .with_fault_policy(FaultPolicy::Restart {
                budget: 5,
                backoff_slots: 1,
            }),
        RegimeSpec::assembly("loop_b", LOOP_B),
    ])
}

fn mmu_fault_restart() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("stray", STRAY).with_fault_policy(FaultPolicy::Restart {
            budget: 6,
            backoff_slots: 2,
        }),
        RegimeSpec::assembly("bystander", BYSTANDER),
    ])
}

fn padded_time_slice() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("loop_a", LOOP_A),
        RegimeSpec::assembly("bystander", BYSTANDER),
    ])
    .with_sched(SchedPolicy::FixedTimeSlice {
        quantum: 50,
        padded: true,
    })
}

const CASES: [Case; 9] = [
    Case {
        name: "asm workload",
        config: asm_workload,
        feed: Some(0),
        steps: 6000,
        tier: true,
    },
    Case {
        name: "period-4 clock beside a bystander",
        config: clock_beside_bystander,
        feed: None,
        steps: 1500,
        tier: false,
    },
    Case {
        name: "spinning regime with clock interrupts",
        config: spinning_with_clock,
        feed: None,
        steps: 1500,
        tier: true,
    },
    Case {
        name: "interrupt-driven serial echo",
        config: interrupt_echo,
        feed: Some(0),
        steps: 3000,
        tier: true,
    },
    Case {
        name: "polling serial echo",
        config: polling_echo,
        feed: Some(0),
        steps: 3000,
        tier: true,
    },
    Case {
        name: "MisrouteInterrupts",
        config: misrouted_interrupts,
        feed: None,
        steps: 1500,
        tier: false,
    },
    Case {
        name: "watchdog with Restart",
        config: watchdog_restart,
        feed: None,
        steps: 2000,
        tier: true,
    },
    Case {
        name: "MMU fault with Restart",
        config: mmu_fault_restart,
        feed: None,
        steps: 1500,
        tier: true,
    },
    Case {
        name: "padded FixedTimeSlice",
        config: padded_time_slice,
        feed: None,
        steps: 1500,
        tier: false,
    },
];

const BATCHES: [u64; 5] = [1, 3, 7, 64, 1000];

/// Comparisons per run: hashing every partition into the state vector
/// dominates the suite's time, so small batch sizes run shorter.
const MAX_BATCHES: u64 = 800;

/// Trace ring per batch: tracing restarts after every comparison, so this
/// only has to hold one batch's events.
const TRACE_CAPACITY: usize = 8192;

/// Host input: a few lowercase bytes every this many steps.
const FEED_EVERY: u64 = 150;

// ---------------------------------------------------------------------------
// Lockstep runs.
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Engine {
    Slow,
    Tier,
}

fn boot(case: &Case, engine: Engine) -> SeparationKernel {
    let mut k = SeparationKernel::boot((case.config)().with_trace(TRACE_CAPACITY)).unwrap();
    match engine {
        Engine::Slow => k.machine.set_hotpath(false),
        Engine::Tier => assert!(k.machine.hotpath(), "the fast engine is the default"),
    }
    k
}

/// Everything the kernel exposes after a batch.
#[derive(Debug, PartialEq)]
struct Observed {
    current: usize,
    stats: KernelStats,
    steps: u64,
    instructions: u64,
    state: Vec<u64>,
    metrics: String,
    trace: Vec<TimedEvent>,
    devices: Vec<Vec<Word>>,
    cpu: Cpu,
    latches: Vec<bool>,
    output: Vec<Vec<u8>>,
}

/// Observes the kernel, draining its serial output and the batch's trace.
fn observe(k: &mut SeparationKernel) -> Observed {
    let trace = k.machine.obs.disable_tracing().expect("tracing is on");
    assert_eq!(trace.dropped(), 0, "the trace ring overflowed in one batch");
    k.machine.obs.enable_tracing(TRACE_CAPACITY);
    Observed {
        current: k.current(),
        stats: k.stats.clone(),
        steps: k.machine.steps,
        instructions: k.machine.instructions,
        state: k.state_vector(),
        metrics: metrics_json(&k.machine.obs.metrics).to_compact(),
        trace: trace.events(),
        devices: k.machine.devices.snapshots(),
        cpu: k.machine.cpu,
        latches: k.channels.iter().map(|c| c.latched_full).collect(),
        output: (0..k.regimes.len())
            .map(|r| k.host_take_serial_output(r))
            .collect(),
    }
}

/// Runs one case in lockstep and returns the bytes the host received and
/// the superblock instructions the batched kernel retired.
fn lockstep(case: &Case, engine: Engine, b: u64) -> (usize, u64) {
    let mut batched = boot(case, engine);
    let mut stepped = boot(case, engine);
    let (mut done, mut next_feed, mut fed) = (0u64, 0u64, 0u8);
    let mut received = 0;
    let steps = case.steps.min(MAX_BATCHES * b);
    while done < steps {
        if let Some(r) = case.feed {
            while done >= next_feed {
                let bytes: Vec<u8> = (0..5).map(|i| b'a' + (fed + i) % 26).collect();
                batched.host_send_serial(r, &bytes);
                stepped.host_send_serial(r, &bytes);
                fed = fed.wrapping_add(5);
                next_feed += FEED_EVERY;
            }
        }
        let got = batched.step_n(b);
        let mut want = None;
        for _ in 0..b {
            want = Some(stepped.step());
        }
        done += b;
        let ctx = || format!("{} / {engine:?} / batch {b}, after {done} steps", case.name);
        assert_eq!(got, want, "{}: last event differs", ctx());
        let (got, want) = (observe(&mut batched), observe(&mut stepped));
        assert_eq!(got, want, "{}", ctx());
        received += got.output.iter().map(Vec::len).sum::<usize>();
    }
    (
        received,
        batched.machine.obs.metrics.hotpath.sb_instructions,
    )
}

fn check(case: &Case) {
    for engine in [Engine::Slow, Engine::Tier] {
        let mut received = 0;
        for b in BATCHES {
            let (echoed, sb_instructions) = lockstep(case, engine, b);
            received += echoed;
            if case.tier && matches!(engine, Engine::Tier) && b == 1000 {
                assert!(
                    sb_instructions > 0,
                    "{}: the superblock tier never ran inside a kernel batch",
                    case.name
                );
            }
        }
        if case.feed.is_some() {
            assert!(received > 0, "{}: no input came back out", case.name);
        }
    }
}

#[test]
fn asm_workload_batches_like_single_steps() {
    check(&CASES[0]);
}

#[test]
fn clock_beside_a_bystander_batches_like_single_steps() {
    check(&CASES[1]);
}

#[test]
fn spinning_regime_with_clock_interrupts_batches_like_single_steps() {
    check(&CASES[2]);
}

#[test]
fn interrupt_driven_echo_batches_like_single_steps() {
    check(&CASES[3]);
}

#[test]
fn polling_echo_batches_like_single_steps() {
    check(&CASES[4]);
}

#[test]
fn misrouted_interrupts_batch_like_single_steps() {
    check(&CASES[5]);
}

#[test]
fn watchdog_restarts_batch_like_single_steps() {
    check(&CASES[6]);
}

#[test]
fn mmu_fault_restarts_batch_like_single_steps() {
    check(&CASES[7]);
}

#[test]
fn padded_time_slices_batch_like_single_steps() {
    check(&CASES[8]);
}

#[test]
fn step_n_of_zero_steps_does_nothing() {
    let mut k = boot(&CASES[0], Engine::Tier);
    let before = observe(&mut k);
    assert_eq!(k.step_n(0), None::<KernelEvent>);
    assert_eq!(observe(&mut k), before);
}

// ---------------------------------------------------------------------------
// Native regimes.
// ---------------------------------------------------------------------------

/// Steps between host exchanges (the fleet's network rounds).
const EXCHANGE_EVERY: u64 = 40;

/// Steps per native run (rounded up to whole batches, and capped at
/// [`MAX_BATCHES`] batches).
const NATIVE_STEPS: u64 = 6000;

/// A host reply reaches the kernel this many steps after its request left.
const REPLY_DELAY: u64 = 100;

/// The host's frame for its n-th exchange.
type Frame = fn(u64) -> Vec<u8>;

/// The world outside a native kernel, acting between batches: it drains
/// egress channels, echoes what it drained back on a reply channel after
/// [`REPLY_DELAY`] steps (dropping every `drop_every`-th frame), and feeds
/// one fresh frame per exchange into each fed channel. A full channel
/// holds the rest back, as a gateway spool does.
struct Host {
    /// (egress channel, channel its echoes go back on).
    routes: Vec<(usize, Option<usize>)>,
    /// (ingress channel, frame for the n-th exchange).
    feeds: Vec<(usize, Frame)>,
    drop_every: u64,
    replies: VecDeque<(u64, usize, Vec<u8>)>,
    drained: u64,
    exchanges: u64,
}

impl Host {
    fn new(routes: Vec<(usize, Option<usize>)>) -> Host {
        Host {
            routes,
            feeds: Vec::new(),
            drop_every: 0,
            replies: VecDeque::new(),
            drained: 0,
            exchanges: 0,
        }
    }

    fn feed(mut self, channel: usize, frame: Frame) -> Host {
        self.feeds.push((channel, frame));
        self
    }

    fn dropping(mut self, every: u64) -> Host {
        self.drop_every = every;
        self
    }

    fn exchange(&mut self, k: &mut SeparationKernel, now: u64) {
        while let Some((due, channel, frame)) = self.replies.front() {
            if *due > now || k.channels[*channel].host_push(frame.clone()).is_err() {
                break;
            }
            self.replies.pop_front();
        }
        for &(channel, reply) in &self.routes {
            while let Some(frame) = k.channels[channel].host_pop() {
                self.drained += 1;
                let dropped = self.drop_every > 0 && self.drained.is_multiple_of(self.drop_every);
                if let (Some(back), false) = (reply, dropped) {
                    self.replies.push_back((now + REPLY_DELAY, back, frame));
                }
            }
        }
        for (channel, frame) in &self.feeds {
            // A full feed channel simply skips this exchange's frame.
            let _ = k.channels[*channel].host_push(frame(self.exchanges));
        }
        self.exchanges += 1;
    }
}

/// Counts the rounds its component really runs; forwards everything else,
/// quiet windows included.
struct Counted {
    inner: Box<dyn Component>,
    steps: Arc<AtomicU64>,
}

impl Component for Counted {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        self.steps.fetch_add(1, Ordering::Relaxed);
        self.inner.step(io);
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(Counted {
            inner: self.inner.boxed_clone(),
            steps: Arc::clone(&self.steps),
        })
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self.inner.as_any()
    }

    fn quiet_rounds(&self, round: u64) -> u64 {
        self.inner.quiet_rounds(round)
    }

    fn advance(&mut self, round: u64, n: u64) {
        self.inner.advance(round, n);
    }
}

/// A kernel of native regimes, the host it talks to, and the count of
/// component rounds its regimes really ran.
struct Rig {
    kernel: SeparationKernel,
    host: Host,
    steps: Arc<AtomicU64>,
}

/// Builds a rig's kernel from components wrapped by `hosted`.
type Hosted<'a> = &'a dyn Fn(Box<dyn Component>) -> Box<dyn Component>;

struct NativeCase {
    name: &'static str,
    build: fn(Hosted) -> (SeparationKernel, Host),
}

impl NativeCase {
    fn rig(&self) -> Rig {
        let steps = Arc::new(AtomicU64::new(0));
        let hosted = |inner| -> Box<dyn Component> {
            Box::new(Counted {
                inner,
                steps: Arc::clone(&steps),
            })
        };
        let (mut kernel, host) = (self.build)(&hosted);
        kernel.machine.obs.enable_tracing(TRACE_CAPACITY);
        Rig {
            kernel,
            host,
            steps,
        }
    }
}

/// The kernel a fleet node boots for `spec` (its regimes plus the uplink),
/// and the index of each named channel.
fn fleet_kernel(spec: NodeSpec, names: &[&str]) -> (SeparationKernel, Vec<usize>) {
    let node = KernelNode::from_spec(spec, &BTreeSet::new(), &BTreeSet::new());
    let index = names
        .iter()
        .map(|want| {
            node.channel_gauges()
                .iter()
                .position(|g| g.name == *want)
                .unwrap_or_else(|| panic!("no channel {want}"))
        })
        .collect();
    (node.kernel, index)
}

fn loadgen_cfg(mode: LoopMode, phases: &[(u64, u64)], retry: Option<RetryCfg>) -> LoadGenCfg {
    LoadGenCfg {
        seed: 0x5EED,
        users: 1_000,
        mode,
        mix: WorkloadMix {
            read_pm: 550,
            write_pm: 350,
            guard_pm: 100,
        },
        phases: phases
            .iter()
            .map(|&(rounds, level_pm)| BurstPhase { rounds, level_pm })
            .collect(),
        level: SecurityLevel::unclassified(),
        retry,
    }
}

/// A load generator node, the generator plus the uplink, with the host
/// answering its file-server and Guard requests.
fn loadgen_node(hosted: Hosted, cfg: LoadGenCfg, drop_every: u64) -> (SeparationKernel, Host) {
    let spec = NodeSpec::new("lg")
        .component(hosted(Box::new(LoadGen::new("lg", cfg))))
        .output(0, "fs.req", "fs.req")
        .input("fs.rsp", 0, "fs.rsp")
        .output(0, "guard.req", "guard.req")
        .input("guard.rsp", 0, "guard.rsp");
    let names = ["out:fs.req", "in:fs.rsp", "out:guard.req", "in:guard.rsp"];
    let (kernel, ch) = fleet_kernel(spec, &names);
    let host = Host::new(vec![(ch[0], Some(ch[1])), (ch[2], Some(ch[3]))]).dropping(drop_every);
    (kernel, host)
}

/// Closed loop under the benchmark's square wave, in short phases.
fn loadgen_closed(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = loadgen_cfg(
        LoopMode::Closed { window: 16 },
        &[(60, 500), (60, 1500)],
        None,
    );
    loadgen_node(hosted, cfg, 0)
}

/// Open loop whose integer carry crosses idle, burst and part-load phases.
fn loadgen_open(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = loadgen_cfg(
        LoopMode::Open { rate_milli: 300 },
        &[(50, 0), (30, 1500), (40, 700)],
        None,
    );
    loadgen_node(hosted, cfg, 0)
}

/// Retry mode: a third of the requests are lost, so retransmits fall due
/// inside quiet stretches.
fn loadgen_retry(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = loadgen_cfg(
        LoopMode::Closed { window: 6 },
        &[(70, 1000), (50, 500)],
        Some(RetryCfg {
            timeout: 24,
            backoff_shift_cap: 3,
        }),
    );
    loadgen_node(hosted, cfg, 3)
}

/// Two Guard/Reflector pairs on local channels, fed advisories.
fn guard_pairs(hosted: Hosted) -> (SeparationKernel, Host) {
    let mut spec = NodeSpec::new("guard");
    for j in 0..2 {
        spec = spec
            .component(hosted(Box::new(Guard::new(Box::new(ApproveAll)))))
            .component(hosted(Box::new(Reflector::new(&format!("refl{j}")))));
    }
    for j in 0..2 {
        let (g, r) = (2 * j, 2 * j + 1);
        spec = spec
            .local(g, "high.out", r, "in", 16)
            .local(r, "out", g, "high.in", 16)
            .input(&format!("low{j}.in"), g, "low.in")
            .output(g, "low.out", &format!("low{j}.out"));
    }
    let names = ["in:low0.in", "out:low0.out", "in:low1.in", "out:low1.out"];
    let (kernel, ch) = fleet_kernel(spec, &names);
    let host = Host::new(vec![(ch[1], None), (ch[3], None)])
        .feed(ch[0], |n| format!("advisory {n}").into_bytes())
        .feed(ch[2], |n| format!("advisory {}", n * 7).into_bytes());
    (kernel, host)
}

/// The SNFE red node; its host source runs out of frames part-way.
fn snfe_red(hosted: Hosted) -> (SeparationKernel, Host) {
    let frames = (0..60)
        .map(|i| format!("host frame {i}").into_bytes())
        .collect();
    let spec = NodeSpec::new("snfe-red")
        .component(hosted(Box::new(Source::new("host", frames))))
        .component(hosted(Box::new(RedComponent::new(1))))
        .component(hosted(Box::new(CryptoBox::new([1, 2, 3, 4]))))
        .component(hosted(Box::new(Censor::new(CensorPolicy::canonical()))))
        .local(0, "out", 1, "host.in", 8)
        .local(1, "crypto.out", 2, "in", 8)
        .local(1, "bypass.out", 3, "red.in", 8)
        .output(2, "out", "crypto.out")
        .output(3, "black.out", "bypass.out");
    let (kernel, ch) = fleet_kernel(spec, &["out:crypto.out", "out:bypass.out"]);
    (kernel, Host::new(vec![(ch[0], None), (ch[1], None)]))
}

/// The SNFE black node, fed headers and payloads that pair up only some
/// of the time.
fn snfe_black(hosted: Hosted) -> (SeparationKernel, Host) {
    let spec = NodeSpec::new("snfe-black")
        .component(hosted(Box::new(BlackComponent::new())))
        .component(hosted(Box::new(Sink::new("network"))))
        .local(0, "net.out", 1, "in", 16)
        .input("crypto.in", 0, "crypto.in")
        .input("bypass.in", 0, "bypass.in");
    let (kernel, ch) = fleet_kernel(spec, &["in:crypto.in", "in:bypass.in"]);
    let host = Host::new(Vec::new())
        .feed(ch[0], |n| {
            let mut payload = ((n / 2) as u16).to_le_bytes().to_vec();
            payload.extend(b"ciphertext");
            payload
        })
        .feed(ch[1], |n| {
            let seq = (n / 3) as u16;
            Header {
                seq,
                len: 10,
                dst: 1,
                pad: 0,
            }
            .encode()
            .to_vec()
        });
    (kernel, host)
}

/// A two-client file server, fed creates, appends and reads.
fn file_server(hosted: Hosted) -> (SeparationKernel, Host) {
    let clients = (0..2)
        .map(|i| FsClient {
            name: format!("c{i}"),
            level: SecurityLevel::unclassified(),
            special_delete: false,
        })
        .collect();
    let mut spec = NodeSpec::new("fs").component(hosted(Box::new(FileServer::new(clients))));
    for i in 0..2 {
        spec = spec
            .input(&format!("c{i}.req"), 0, &format!("c{i}.req"))
            .output(0, &format!("c{i}.rsp"), &format!("c{i}.rsp"));
    }
    let names = ["in:c0.req", "out:c0.rsp", "in:c1.req", "out:c1.rsp"];
    let (kernel, ch) = fleet_kernel(spec, &names);
    fn fs_request(n: u64) -> Vec<u8> {
        let level = SecurityLevel::unclassified();
        let name = format!("f{}", n % 5);
        match n % 3 {
            0 => request::create(&name, level),
            1 => request::append(&name, level, &n.to_le_bytes()),
            _ => request::read(&name, level),
        }
    }
    let host = Host::new(vec![(ch[1], None), (ch[3], None)])
        .feed(ch[0], fs_request)
        .feed(ch[2], |n| fs_request(n + 1));
    (kernel, host)
}

/// The fleet's uplink in miniature: every step idle, every step quiet.
#[derive(Clone)]
struct Idle;

impl NativeRegime for Idle {
    fn step(&mut self, _io: &mut dyn RegimeIo) -> NativeAction {
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn quiet_rounds(&self, _channels: &ChannelView<'_>) -> u64 {
        u64::MAX
    }

    fn advance(&mut self, _n: u64) {}
}

/// Halts on its first step.
#[derive(Clone)]
struct Halter;

impl NativeRegime for Halter {
    fn step(&mut self, _io: &mut dyn RegimeIo) -> NativeAction {
        NativeAction::Halt
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn regime(name: &str, c: Box<dyn Component>, ports: &[(bool, &str, usize)]) -> RegimeSpec {
    let bindings = ports
        .iter()
        .map(|&(send, port, channel)| {
            let port = port.to_string();
            if send {
                PortBinding::Send { port, channel }
            } else {
                PortBinding::Recv { port, channel }
            }
        })
        .collect();
    RegimeSpec::native(name, RegimeComponent::new(c, bindings))
}

/// A source filling a sticky-depth channel that the host drains only at
/// exchanges, beside a regime that halts at once and is skipped from then
/// on. The source sees Full from its latch until its next slot boundary
/// after a drain; once it runs dry, those boundaries fall inside native
/// batches.
fn sticky_beside_halted(hosted: Hosted) -> (SeparationKernel, Host) {
    let frames = (0..12).map(|i| vec![i; 3]).collect();
    let mut cfg = KernelConfig::new(vec![
        regime(
            "src",
            hosted(Box::new(Source::new("src", frames))),
            &[(true, "out", 0)],
        ),
        RegimeSpec::native("halter", Box::new(Halter)),
        RegimeSpec::native("uplink", Box::new(Idle)),
    ]);
    cfg.channels
        .push(ChannelSpec::new(0, 2, 2).with_depth(DepthPolicy::Sticky));
    let kernel = SeparationKernel::boot(cfg).unwrap();
    (kernel, Host::new(vec![(0, None)]))
}

/// A static-cyclic table that offers the load generator three slots per
/// rotation, so its share of a batch is not the other regimes'.
fn static_cyclic(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = loadgen_cfg(
        LoopMode::Closed { window: 8 },
        &[(45, 500), (45, 1500)],
        None,
    );
    let lg_ports = [
        (true, "fs.req", 0),
        (false, "fs.rsp", 1),
        (true, "guard.req", 2),
        (false, "guard.rsp", 3),
    ];
    let kcfg = KernelConfig::new(vec![
        regime("lg", hosted(Box::new(LoadGen::new("lg", cfg))), &lg_ports),
        RegimeSpec::native("uplink", Box::new(Idle)),
        regime(
            "sink",
            hosted(Box::new(Sink::new("sink"))),
            &[(false, "in", 4)],
        ),
    ])
    .with_channel(0, 1, 32)
    .with_channel(1, 0, 32)
    .with_channel(0, 1, 32)
    .with_channel(1, 0, 32)
    .with_channel(1, 2, 4)
    .with_sched(SchedPolicy::StaticCyclic {
        table: vec![0, 1, 0, 2, 0, 1],
    });
    let kernel = SeparationKernel::boot(kcfg).unwrap();
    let host = Host::new(vec![(0, Some(1)), (2, Some(3))]).feed(4, |n| vec![n as u8]);
    (kernel, host)
}

/// Native regimes beside machine code that sleeps between clock
/// interrupts: device time moves inside native batches, which must stop
/// where the clock's quiet window ends so the interrupt is fielded at its
/// own step.
fn beside_a_clock(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = KernelConfig::new(vec![
        regime(
            "sink",
            hosted(Box::new(Sink::new("sink"))),
            &[(false, "in", 0)],
        ),
        RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock { period: 23 }),
        RegimeSpec::native("uplink", Box::new(Idle)),
    ])
    .with_channel(2, 0, 4);
    let kernel = SeparationKernel::boot(cfg).unwrap();
    (kernel, Host::new(Vec::new()).feed(0, |n| vec![n as u8; 2]))
}

/// Sends its round number on `out` every `every` of its rounds and is
/// quiet in between, so its quiet window ends at a known round.
#[derive(Clone)]
struct Pacer {
    every: u64,
}

impl Component for Pacer {
    fn name(&self) -> &str {
        "pacer"
    }

    fn step(&mut self, io: &mut dyn ComponentIo) {
        let round = io.round();
        if round.is_multiple_of(self.every) {
            io.send("out", &round.to_le_bytes());
        }
    }

    fn boxed_clone(&self) -> Box<dyn Component> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn quiet_rounds(&self, round: u64) -> u64 {
        (self.every - round % self.every) % self.every
    }

    fn advance(&mut self, _round: u64, _n: u64) {}
}

/// A pacer sending on `channel`.
fn pacer(hosted: Hosted, every: u64, channel: usize) -> RegimeSpec {
    regime(
        "pacer",
        hosted(Box::new(Pacer { every })),
        &[(true, "out", channel)],
    )
}

/// A sink receiving on `channel`.
fn sink(hosted: Hosted, channel: usize) -> RegimeSpec {
    regime(
        "sink",
        hosted(Box::new(Sink::new("sink"))),
        &[(false, "in", channel)],
    )
}

/// Round-robin over five quiet regimes (a fed sink, two pacers, two idle
/// uplinks) and a sixth that halts at once and leaves the rotation: a
/// long batch jumps many five-step periods.
fn five_beside_halted(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = KernelConfig::new(vec![
        sink(hosted, 0),
        RegimeSpec::native("uplink", Box::new(Idle)),
        pacer(hosted, 11, 1),
        RegimeSpec::native("halter", Box::new(Halter)),
        RegimeSpec::native("uplink", Box::new(Idle)),
        pacer(hosted, 4, 2),
    ])
    .with_channel(3, 0, 4)
    .with_channel(2, 3, 4)
    .with_channel(5, 3, 4);
    let kernel = SeparationKernel::boot(cfg).unwrap();
    let host = Host::new(vec![(1, None), (2, None)]).feed(0, |n| vec![n as u8; 3]);
    (kernel, host)
}

/// A static-cyclic table that lists the sink three times and the halter
/// once: after its first slot the halter cannot run, so its entry is
/// skipped, and the sink comes round again at table positions whose state
/// word differs from the batch's start.
fn cyclic_beside_halted(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = KernelConfig::new(vec![
        sink(hosted, 0),
        RegimeSpec::native("uplink", Box::new(Idle)),
        pacer(hosted, 6, 1),
        RegimeSpec::native("halter", Box::new(Halter)),
    ])
    .with_channel(3, 0, 4)
    .with_channel(2, 3, 4)
    .with_sched(SchedPolicy::StaticCyclic {
        table: vec![0, 1, 0, 3, 0, 2],
    });
    let kernel = SeparationKernel::boot(cfg).unwrap();
    let host = Host::new(vec![(1, None)]).feed(0, |n| vec![n as u8; 2]);
    (kernel, host)
}

/// Two pacers and an idle uplink, round-robin: the batch after the first
/// pacer sends starts at the second, and when the second's window binds it
/// ends exactly on a period boundary; the batch after the second sends
/// starts at the uplink, and when the first's window binds it ends one
/// step into a period.
fn pacers_on_period_boundaries(hosted: Hosted) -> (SeparationKernel, Host) {
    let cfg = KernelConfig::new(vec![
        pacer(hosted, 5, 0),
        pacer(hosted, 7, 1),
        RegimeSpec::native("uplink", Box::new(Idle)),
    ])
    .with_channel(0, 2, 8)
    .with_channel(1, 2, 8);
    let kernel = SeparationKernel::boot(cfg).unwrap();
    (kernel, Host::new(vec![(0, None), (1, None)]))
}

/// A lone pacer with its port unwired: the rotation's period is one step,
/// a SWAP to itself, and every ninth step acts.
fn single_regime(hosted: Hosted) -> (SeparationKernel, Host) {
    let lone = regime("pacer", hosted(Box::new(Pacer { every: 9 })), &[]);
    let kernel = SeparationKernel::boot(KernelConfig::new(vec![lone])).unwrap();
    (kernel, Host::new(Vec::new()))
}

const NATIVE_CASES: [NativeCase; 14] = [
    NativeCase {
        name: "closed-loop load generator",
        build: loadgen_closed,
    },
    NativeCase {
        name: "open-loop load generator",
        build: loadgen_open,
    },
    NativeCase {
        name: "retrying load generator",
        build: loadgen_retry,
    },
    NativeCase {
        name: "guard/reflector pairs",
        build: guard_pairs,
    },
    NativeCase {
        name: "SNFE red node",
        build: snfe_red,
    },
    NativeCase {
        name: "SNFE black node",
        build: snfe_black,
    },
    NativeCase {
        name: "file server",
        build: file_server,
    },
    NativeCase {
        name: "sticky channel beside a halted regime",
        build: sticky_beside_halted,
    },
    NativeCase {
        name: "static-cyclic table",
        build: static_cyclic,
    },
    NativeCase {
        name: "native regimes beside a clocked machine-code regime",
        build: beside_a_clock,
    },
    NativeCase {
        name: "five quiet regimes beside a halted one",
        build: five_beside_halted,
    },
    NativeCase {
        name: "static-cyclic table with a repeated and a dead entry",
        build: cyclic_beside_halted,
    },
    NativeCase {
        name: "pacers whose windows end on and one step past a period boundary",
        build: pacers_on_period_boundaries,
    },
    NativeCase {
        name: "a single regime swapping to itself",
        build: single_regime,
    },
];

/// Runs one native case in lockstep at every batch size. At each, the
/// batched kernel must have jumped some component rounds: it ran fewer
/// than the stepped one.
fn check_native(case: &NativeCase) {
    for b in BATCHES {
        let (mut batched, mut stepped) = (case.rig(), case.rig());
        let (mut done, mut next_exchange) = (0u64, 0u64);
        let steps = NATIVE_STEPS.min(MAX_BATCHES * b);
        while done < steps {
            while done >= next_exchange {
                batched.host.exchange(&mut batched.kernel, next_exchange);
                stepped.host.exchange(&mut stepped.kernel, next_exchange);
                next_exchange += EXCHANGE_EVERY;
            }
            let got = batched.kernel.step_n(b);
            let mut want = None;
            for _ in 0..b {
                want = Some(stepped.kernel.step());
            }
            done += b;
            let ctx = || format!("{} / batch {b}, after {done} steps", case.name);
            assert_eq!(got, want, "{}: last event differs", ctx());
            let (got, want) = (observe(&mut batched.kernel), observe(&mut stepped.kernel));
            assert_eq!(got, want, "{}", ctx());
        }
        let (ran, reference) = (
            batched.steps.load(Ordering::Relaxed),
            stepped.steps.load(Ordering::Relaxed),
        );
        assert!(
            ran < reference,
            "{} / batch {b}: no component round was jumped ({ran} of {reference} ran)",
            case.name
        );
    }
}

#[test]
fn closed_loop_load_generator_batches_like_single_steps() {
    check_native(&NATIVE_CASES[0]);
}

#[test]
fn open_loop_load_generator_batches_like_single_steps() {
    check_native(&NATIVE_CASES[1]);
}

#[test]
fn retrying_load_generator_batches_like_single_steps() {
    check_native(&NATIVE_CASES[2]);
}

#[test]
fn guard_reflector_pairs_batch_like_single_steps() {
    check_native(&NATIVE_CASES[3]);
}

#[test]
fn snfe_red_node_batches_like_single_steps() {
    check_native(&NATIVE_CASES[4]);
}

#[test]
fn snfe_black_node_batches_like_single_steps() {
    check_native(&NATIVE_CASES[5]);
}

#[test]
fn file_server_batches_like_single_steps() {
    check_native(&NATIVE_CASES[6]);
}

#[test]
fn sticky_channel_beside_a_halted_regime_batches_like_single_steps() {
    check_native(&NATIVE_CASES[7]);
}

#[test]
fn static_cyclic_table_batches_like_single_steps() {
    check_native(&NATIVE_CASES[8]);
}

#[test]
fn native_regimes_beside_a_clock_batch_like_single_steps() {
    check_native(&NATIVE_CASES[9]);
}

#[test]
fn five_quiet_regimes_beside_a_halted_one_jump_whole_periods() {
    check_native(&NATIVE_CASES[10]);
}

#[test]
fn static_cyclic_table_with_repeated_and_dead_entries_jumps_whole_periods() {
    check_native(&NATIVE_CASES[11]);
}

#[test]
fn windows_ending_on_and_past_a_period_boundary_jump_whole_periods() {
    check_native(&NATIVE_CASES[12]);
}

#[test]
fn a_single_regime_jumps_whole_periods_of_self_swaps() {
    check_native(&NATIVE_CASES[13]);
}
