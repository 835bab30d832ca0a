//! The `asm` workload: one `SeparationKernel` hosting six machine-code
//! regimes, driven by `SeparationKernel::step_n`.
//!
//! * the three-stage serial pipeline of `examples/assembly_regimes.rs`
//!   (producer → filter → consumer over two kernel channels), fed by the
//!   host in a closed loop: a seeded 32-byte block goes in only after the
//!   previous block came out, uppercased;
//! * two E10-style register loops that yield every few hundred
//!   instructions;
//! * E8's `CLOCKED` regime, sleeping on `WAIT` between clock interrupts.
//!
//! It is the only workload where the instruction path dominates, beside
//! trap-mediated SWAP/SEND/RECV and interrupt forwarding. It runs no fleet,
//! no network and no checker.
//!
//! One repetition boots the kernel and pushes 400 blocks through the
//! pipeline. A repetition is a pure function of the seed, so every
//! repetition of a run must end in the same `state_vector()` and output.

use crate::metrics::Outcome;
use crate::util::{median, ns, peak_rss_mb, ratio, Digest, Sampler, Window};
use sep_kernel::config::{DeviceSpec, KernelConfig, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_model::rng::SplitMix64;
use std::time::{Duration, Instant};

/// Reads up to 8 bytes from the serial line, SENDs them on channel 0.
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

/// E10's nine-interior hot loop, yielding after 32 passes (~320
/// instructions).
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

/// A shift-and-carry checksum loop, yielding after 24 passes (~240
/// instructions).
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

/// E8's clock-interrupt regime: WAIT, count the tick, return.
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

const CLOCK_PERIOD: u32 = 64;
/// Bytes per closed-loop block.
const BLOCK: usize = 32;
/// Blocks per repetition.
const REP_BLOCKS: usize = 400;
/// Steps per `step_n` call between looks at the consumer's line.
const STEP_BATCH: u64 = 64;
/// A block that has not come out after this many steps is lost.
const BLOCK_STEP_LIMIT: u64 = 1 << 20;
/// Serial regimes: where the host feeds, and where it listens.
const FEED: usize = 0;
const DRAIN: usize = 2;

fn config() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("producer", PRODUCER).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("filter", FILTER),
        RegimeSpec::assembly("consumer", CONSUMER).with_device(DeviceSpec::Serial),
        RegimeSpec::assembly("loop_a", LOOP_A),
        RegimeSpec::assembly("loop_b", LOOP_B),
        RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock {
            period: CLOCK_PERIOD,
        }),
    ])
    .with_channel(0, 1, 4)
    .with_channel(1, 2, 4)
}

/// The traced loop's spans: one in 32 steps runs through the public
/// `consume_phase` and `exec_phase` with each call timed.
struct Spans {
    sampler: Sampler,
    consume: (u64, Duration),
    exec: (u64, Duration),
}

/// What one repetition measured and produced.
struct Rep {
    setup_s: f64,
    run_s: f64,
    /// Host time inside the step batches.
    step_s: f64,
    kernel: sep_kernel::kernel::KernelStats,
    machine_instructions: u64,
    hot: sep_obs::metrics::HotPathCounters,
    bytes_in: u64,
    bytes_intact: u64,
    bytes_out: u64,
    first_bad_block: Option<usize>,
    digest: u64,
}

impl Rep {
    fn instr_per_s(&self) -> f64 {
        self.kernel.instructions as f64 / self.run_s
    }
}

/// One batch of kernel steps: `step_n`, or with spans the same steps one
/// at a time (`SeparationKernel::step` is `consume_phase` then, unless it
/// returned an event, `exec_phase`).
fn batch(k: &mut SeparationKernel, spans: Option<&mut Spans>) {
    let Some(spans) = spans else {
        k.step_n(STEP_BATCH);
        return;
    };
    for _ in 0..STEP_BATCH {
        if !spans.sampler.hit() {
            k.step();
            continue;
        }
        let start = Instant::now();
        let ev = k.consume_phase(&[]);
        let mid = Instant::now();
        spans.consume.0 += 1;
        spans.consume.1 += mid - start;
        if ev.is_none() {
            k.exec_phase();
            spans.exec.0 += 1;
            spans.exec.1 += mid.elapsed();
        }
    }
}

fn rep(seed: u64, mut spans: Option<&mut Spans>) -> Rep {
    let start = Instant::now();
    let mut k = SeparationKernel::boot(config()).expect("the asm workload boots");
    let setup_s = start.elapsed().as_secs_f64();

    let mut rng = SplitMix64::new(seed ^ 0xA5A5_0000_0000_0A53);
    let mut output = Digest::new();
    let (mut bytes_in, mut bytes_intact, mut bytes_out) = (0, 0, 0);
    let mut first_bad_block = None;
    let mut step_time = Duration::ZERO;
    let start = Instant::now();
    for b in 0..REP_BLOCKS {
        let block: Vec<u8> = (0..BLOCK).map(|_| 0x20 + rng.below(95) as u8).collect();
        k.host_send_serial(FEED, &block);
        bytes_in += BLOCK as u64;
        let mut got = Vec::with_capacity(BLOCK);
        let mut spent = 0;
        while got.len() < BLOCK && spent < BLOCK_STEP_LIMIT {
            let t = Instant::now();
            batch(&mut k, spans.as_deref_mut());
            step_time += t.elapsed();
            spent += STEP_BATCH;
            got.extend(k.host_take_serial_output(DRAIN));
        }
        let want = block.to_ascii_uppercase();
        bytes_out += got.len() as u64;
        bytes_intact += got.iter().zip(&want).filter(|(g, w)| g == w).count() as u64;
        output = output.bytes(&got);
        if got != want {
            // The closed loop cannot feed on past a block that never
            // came out whole.
            first_bad_block = Some(b);
            break;
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    Rep {
        setup_s,
        run_s,
        step_s: step_time.as_secs_f64(),
        machine_instructions: k.machine.instructions,
        hot: k.machine.obs.metrics.hotpath.clone(),
        bytes_in,
        bytes_intact,
        bytes_out,
        first_bad_block,
        digest: output.words(&k.state_vector()).value(),
        kernel: k.stats,
    }
}

/// Correctness gates and failure accounting for one repetition.
fn account(out: &mut Outcome, r: &Rep, expect_digest: u64, what: &str) {
    out.attempted += r.bytes_in;
    out.failed += r.bytes_in - r.bytes_intact + r.kernel.faults;
    out.gate(r.first_bad_block.is_none(), || {
        format!(
            "{what}: block {:?} did not come out uppercased and in order",
            r.first_bad_block
        )
    });
    out.gate(r.kernel.faults == 0, || {
        format!("{what}: {} regime faults", r.kernel.faults)
    });
    out.gate(r.digest == expect_digest, || {
        format!(
            "{what}: state digest {:#x} differs from the first untraced repetition's {:#x}",
            r.digest, expect_digest
        )
    });
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    out.note(format!(
        "asm: 6 machine-code regimes, {REP_BLOCKS} closed-loop blocks of {BLOCK} bytes per \
         repetition, clock period {CLOCK_PERIOD}, seed {seed}"
    ));
    let window = Window::new(seconds, 3);
    let (mut plain, mut traced_reps) = (Vec::new(), Vec::new());
    let mut spans = Spans {
        sampler: Sampler::new(0xA53, 5),
        consume: (0, Duration::ZERO),
        exec: (0, Duration::ZERO),
    };
    let mut peak_mb = 0.0;
    while window.more(plain.len()) {
        let r = rep(seed, None);
        let first = plain.first().map_or(r.digest, |f: &Rep| f.digest);
        account(&mut out, &r, first, "untraced repetition");
        if plain.is_empty() {
            peak_mb = peak_rss_mb();
        }
        plain.push(r);
        if traced {
            let r = rep(seed, Some(&mut spans));
            account(&mut out, &r, first, "traced repetition");
            traced_reps.push(r);
        }
    }
    let rates: Vec<f64> = plain.iter().map(Rep::instr_per_s).collect();
    let r = &plain[0];
    out.note(format!(
        "asm: {} repetitions; per repetition {} steps, {} instructions, {} bytes out, \
         {} interrupts delivered; state digest {:#x}",
        plain.len(),
        r.kernel.steps,
        r.kernel.instructions,
        r.bytes_out,
        r.kernel.interrupts_delivered,
        r.digest
    ));
    out.note(format!(
        "asm: instr_per_s {} 1/s (ops_per_s)",
        median(&rates)
    ));
    if !traced {
        let setups: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
        out.set("setup_s", median(&setups));
        out.set("ops_per_s", median(&rates));
        out.set("peak_rss_mb", peak_mb);
        return out;
    }

    let steps: u64 = plain.iter().map(|r| r.kernel.steps).sum();
    let step_s: f64 = plain.iter().map(|r| r.step_s).sum();
    let traced_rates: Vec<f64> = traced_reps.iter().map(Rep::instr_per_s).collect();
    let kinstr = r.kernel.instructions as f64 / 1000.0;
    let h = &r.hot;
    out.set("kernel.step_ns", step_s * 1e9 / steps as f64);
    out.set(
        "kernel.consume_ns",
        ratio(ns(spans.consume.1), spans.consume.0 as f64),
    );
    out.set(
        "kernel.exec_ns",
        ratio(ns(spans.exec.1), spans.exec.0 as f64),
    );
    out.set(
        "machine.icache_hit_frac",
        ratio(
            h.icache_hits as f64,
            (h.icache_hits + h.icache_misses) as f64,
        ),
    );
    out.set(
        "machine.tlb_hit_frac",
        ratio(h.tlb_hits as f64, (h.tlb_hits + h.tlb_misses) as f64),
    );
    out.set(
        "machine.sb_instr_frac",
        ratio(h.sb_instructions as f64, r.machine_instructions as f64),
    );
    out.set(
        "kernel.syscalls_per_kinstr",
        ratio(r.kernel.syscalls.iter().sum::<u64>() as f64, kinstr),
    );
    out.set(
        "kernel.irqs_per_kinstr",
        ratio(r.kernel.interrupts_delivered as f64, kinstr),
    );
    out.set("kernel.steps", r.kernel.steps as f64);
    out.set("kernel.messages", r.kernel.messages_sent as f64);
    out.set("kernel.instructions", r.kernel.instructions as f64);
    out.set("asm.bytes_out", r.bytes_out as f64);
    out.set("asm.state_digest", r.digest as f64);
    out.set(
        "trace.overhead_frac",
        1.0 - median(&traced_rates) / median(&rates),
    );
    out.note(format!(
        "asm traced: {} traced repetitions at {:.0} instr/s",
        traced_reps.len(),
        median(&traced_rates)
    ));
    out
}
