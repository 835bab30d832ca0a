//! `SeparationKernel::step_n` against the one-step-at-a-time reference.
//!
//! `step_n` hands the current regime to the machine's batched loop whenever
//! the kernel has nothing to mediate before the next device event; device
//! time is owed during the batch and paid before any I/O-page access (see
//! DESIGN.md, "The fast path"). Every configuration below runs twice in
//! lockstep — `step_n(b)` against `b` calls of `step()` — under the slow
//! engine and the fast one (decode cache, TLB and superblock tier) and for
//! b ∈ {1, 3, 7, 64, 1000}.
//! After every batch everything the kernel exposes must be byte-identical:
//! the state vector, `KernelStats`, the metrics JSON, the event trace,
//! device snapshots, the current regime, host serial output, the machine's
//! step and instruction counters, and the last step's event.

use sep_kernel::config::{DeviceSpec, KernelConfig, Mutation, RegimeSpec, SchedPolicy};
use sep_kernel::kernel::{KernelEvent, KernelStats, SeparationKernel};
use sep_kernel::regime::FaultPolicy;
use sep_machine::Word;
use sep_obs::report::metrics_json;
use sep_obs::TimedEvent;

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
const TRACE_CAPACITY: usize = 2048;

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
