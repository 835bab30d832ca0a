//! E10 — the hot-path execution engine measured: decode cache + software
//! TLB + batched stepping + the superblock compilation tier in the machine,
//! fingerprinted seen-sets in the checker.
//!
//! Every timing row is differential evidence first: each fast configuration
//! is asserted state-identical to the slow configuration it replaces before
//! its throughput is printed. The machine section times three
//! configurations of the two engines in turn, round after round, so all
//! three sample the same host speed: slow `step()`, `step()` with the
//! caches on, and `step_n` (caches plus the superblock tier). It asserts
//! one floor on the straight-line user-mode workload: warm `step_n` at ≥6×
//! the slow `step()`, and reports the caches-on `step()` ratio without a
//! floor. The kernel section times full
//! runs through the one-step-at-a-time `run()` and the batched `step_n`
//! with the state vectors asserted equal. The checker section reports
//! states/sec under exact vs fingerprint dedup with report equality
//! asserted. `BENCH_obs_e10_hotpath.json` keeps the deterministic sections
//! (instruction counts, cache counters, checker reports) apart from
//! wall-clock timing.

use sep_bench::{
    checker_run_json, header, memory_workload, register_workload, row, symmetric_workload, timed,
};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::verify::{CheckerSelect, KOp, KernelSystem};
use sep_machine::asm::assemble;
use sep_machine::mmu::{Access, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::Machine;
use sep_model::abstraction::Abstraction;
use sep_model::fp::Dedup;
use sep_model::system::{Finite, SharedSystem};
use sep_obs::report::hotpath_json;
use sep_obs::RunReport;
use std::hint::black_box;

/// Steps per machine measurement: long enough that loop overheads dominate
/// cache-fill cost and timer noise.
const MACHINE_STEPS: u64 = 2_000_000;
/// Interleaved timing rounds per machine configuration; each keeps its
/// fastest.
const MACHINE_ROUNDS: usize = 5;
/// Kernel steps per regime-count measurement.
const KERNEL_STEPS: u64 = 200_000;
const SHARDS: usize = 4;

/// A straight-line user-mode workload under the MMU: a register loop with
/// no kernel calls, so every step is fetch/decode/execute through the TLB.
/// The body is long enough (nine interiors per branch) that a superblock
/// amortizes its entry/terminator overhead the way real hot loops do.
fn user_machine() -> Machine {
    let prog = assemble(
        "
start:  INC R1
        BIC #0o177774, R1
        ADD R1, R2
        ADD #1, R3
        MOV R3, R4
        BIC #0o170000, R4
        ADD R4, R5
        COM R5
        COM R5
        BR start
",
    )
    .unwrap();
    let mut m = Machine::new();
    m.mem.load_words(0o40000, &prog.words);
    m.mmu.enabled = true;
    m.mmu.set_segment(
        Mode::User,
        0,
        SegmentDescriptor::mapping(0o40000, 0o20000, Access::ReadWrite),
    );
    m.cpu.psw.set_mode(Mode::User);
    m.cpu.pc = 0;
    m.cpu.set_reg(6, 0o17776);
    m
}

/// The architectural outcome of a machine run: registers, PSW, counters.
fn machine_state(m: &Machine) -> (Vec<u16>, u16, u64, u64) {
    let regs = (0..8).map(|r| m.cpu.reg(r)).collect();
    (regs, m.cpu.psw.cc_bits(), m.steps, m.instructions)
}

fn mips(steps: u64, ms: f64) -> f64 {
    steps as f64 / (ms / 1000.0) / 1.0e6
}

/// Nanoseconds per call, the fastest of three passes of `rounds` calls
/// of `f` on each item.
fn ns_per_op<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    (0..3)
        .map(|_| {
            let ((), ms) = timed(|| {
                for _ in 0..rounds {
                    items.iter().for_each(&mut f);
                }
            });
            ms * 1e6 / (rounds * items.len()) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-call cost of the checker's primitives over every reachable state of
/// the `verify` benchmark workload, and of a word read and write on one of
/// those states' memory.
fn checker_primitives() -> Vec<(&'static str, f64)> {
    let sys = KernelSystem::new(symmetric_workload(3))
        .unwrap()
        .with_input_bytes(&[1]);
    let states = sys.states();
    let input = sys.inputs.last().expect("the workload has inputs").clone();
    let abstraction = &sys.abstractions()[0];
    let views: Vec<_> = states.iter().map(|s| abstraction.phi(&sys, s)).collect();
    let mut out = vec![
        (
            "kernel_clone",
            ns_per_op(&states, 20, |s| drop(black_box(s.kernel.clone()))),
        ),
        (
            "state_vector",
            ns_per_op(&states, 20, |s| drop(black_box(s.kernel.state_vector()))),
        ),
        (
            "consume",
            ns_per_op(&states, 5, |s| drop(black_box(sys.consume(s, &input)))),
        ),
        (
            "apply",
            ns_per_op(&states, 5, |s| drop(black_box(sys.apply(&KOp::Step, s)))),
        ),
        (
            "successor",
            ns_per_op(&states, 5, |s| drop(black_box(sys.successor(s, &input)))),
        ),
        (
            "apply_abstract",
            ns_per_op(&views, 5, |a| {
                drop(black_box(abstraction.apply_abstract(&sys, &KOp::Step, a)))
            }),
        ),
    ];
    // One partition of a stored state, made writable by a first store.
    let mut mem = states[0].kernel.machine.mem.clone();
    let base = states[0].kernel.regimes[0].partition_base;
    mem.write_word(base, 0);
    let addrs: Vec<u32> = (0..4096).map(|i| base + 2 * i).collect();
    out.push((
        "mem_read_word",
        ns_per_op(&addrs, 500, |&a| {
            black_box(mem.read_word(black_box(a)));
        }),
    ));
    out.push((
        "mem_write_word",
        ns_per_op(&addrs, 500, |&a| mem.write_word(black_box(a), a as u16)),
    ));
    out
}

fn main() {
    println!("# E10: hot-path execution engine\n");

    let mut report = RunReport::new("e10_hotpath")
        .param("machine_steps", MACHINE_STEPS)
        .param("kernel_steps", KERNEL_STEPS)
        .param("shards", SHARDS as u64);

    // -------------------------------------------------------------------
    // Machine: slow step(), caches-on step(), and step_n (caches plus the
    // superblock tier), timed in turn for MACHINE_ROUNDS rounds so a change
    // of host speed hits all three alike. Each keeps its fastest round;
    // step_n's first round is also reported as its cold number.
    // -------------------------------------------------------------------
    println!("## machine: straight-line user-mode loop, {MACHINE_STEPS} steps\n");

    let step_loop = |m: &mut Machine| {
        for _ in 0..MACHINE_STEPS {
            m.step();
        }
    };
    let batch = |m: &mut Machine| {
        let (taken, ev) = m.step_n(MACHINE_STEPS);
        assert_eq!((taken, ev), (MACHINE_STEPS, None), "workload must not trap");
    };

    let mut slow = user_machine();
    slow.set_hotpath(false);
    let mut cached = user_machine();
    let mut tier = user_machine();
    let (mut slow_ms, mut cached_ms, mut tier_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut tier_cold_ms = 0.0;
    for round in 0..MACHINE_ROUNDS {
        slow_ms = slow_ms.min(timed(|| step_loop(&mut slow)).1);
        cached_ms = cached_ms.min(timed(|| step_loop(&mut cached)).1);
        let ((), ms) = timed(|| batch(&mut tier));
        if round == 0 {
            tier_cold_ms = ms;
        }
        tier_ms = tier_ms.min(ms);
        // Differential: both engines, all three configurations, reach
        // exactly the same architectural state after every round.
        let want = machine_state(&slow);
        assert_eq!(
            machine_state(&cached),
            want,
            "caches-on step() diverged from the slow path in round {round}"
        );
        assert_eq!(
            machine_state(&tier),
            want,
            "step_n diverged from the slow path in round {round}"
        );
    }

    let cached_speedup = slow_ms / cached_ms;
    let tier_speedup = slow_ms / tier_ms;
    header(&["configuration", "ms", "Minstr/sec", "vs slow"]);
    for (name, ms) in [
        ("step(), caches off", slow_ms),
        ("step(), caches on", cached_ms),
        ("step_n, cold (round 1)", tier_cold_ms),
        ("step_n, warm", tier_ms),
    ] {
        row(&[
            name.into(),
            format!("{ms:.0}"),
            format!("{:.1}", mips(MACHINE_STEPS, ms)),
            format!("{:.2}x", slow_ms / ms),
        ]);
    }
    assert!(
        tier_speedup >= 6.0,
        "warm step_n must be at least 6x the slow step(), measured {tier_speedup:.2}x"
    );
    let hp = &tier.obs.metrics.hotpath;
    assert!(
        hp.sb_compiles >= 1 && hp.sb_hits > 0 && hp.sb_chains > 0,
        "superblock tier must have engaged on the hot loop"
    );
    println!(
        "\nicache {} hits / {} misses; TLB {} hits / {} misses / {} invalidations",
        hp.icache_hits, hp.icache_misses, hp.tlb_hits, hp.tlb_misses, hp.tlb_invalidations
    );
    println!(
        "superblocks: {} compiled, {} runs, {} chained, {} flushes, {} instructions in tier",
        hp.sb_compiles, hp.sb_hits, hp.sb_chains, hp.sb_flushes, hp.sb_instructions
    );
    report = report
        .run_custom("machine_hotpath_counters", hotpath_json(&tier.obs.metrics))
        .wall(
            "machine_slow_instr_per_sec",
            mips(MACHINE_STEPS, slow_ms) * 1.0e6,
        )
        .wall(
            "machine_cached_step_instr_per_sec",
            mips(MACHINE_STEPS, cached_ms) * 1.0e6,
        )
        .wall(
            "machine_step_n_cold_instr_per_sec",
            mips(MACHINE_STEPS, tier_cold_ms) * 1.0e6,
        )
        .wall(
            "machine_step_n_warm_instr_per_sec",
            mips(MACHINE_STEPS, tier_ms) * 1.0e6,
        )
        .wall("machine_cached_step_speedup", cached_speedup)
        .wall("machine_step_n_speedup", tier_speedup);

    // -------------------------------------------------------------------
    // Kernel: full runs at 2–6 regimes, caches on vs off, and the batched
    // `step_n` (caches on) beside the one-step-at-a-time `run()`.
    // -------------------------------------------------------------------
    println!("\n## kernel: {KERNEL_STEPS} steps, caches on vs off, run() vs step_n\n");
    header(&[
        "regimes",
        "off ms",
        "on ms",
        "speedup",
        "step_n ms",
        "vs run()",
        "instructions",
    ]);
    for n in [2usize, 3, 4, 5, 6] {
        let run = |hotpath: bool, batched: bool| {
            let mut k = SeparationKernel::boot(register_workload(n)).unwrap();
            k.machine.set_hotpath(hotpath);
            let (_, ms) = timed(|| {
                if batched {
                    k.step_n(KERNEL_STEPS);
                } else {
                    k.run(KERNEL_STEPS);
                }
            });
            (k.state_vector(), k.machine.instructions, ms)
        };
        let (sv_off, instr_off, off_ms) = run(false, false);
        let (sv_on, instr_on, on_ms) = run(true, false);
        let (sv_batched, instr_batched, batched_ms) = run(true, true);
        assert_eq!(
            sv_off, sv_on,
            "kernel({n}) state diverged across cache settings"
        );
        assert_eq!(sv_on, sv_batched, "kernel({n}) step_n diverged from run()");
        assert_eq!(instr_off, instr_on);
        assert_eq!(instr_on, instr_batched);
        row(&[
            n.to_string(),
            format!("{off_ms:.0}"),
            format!("{on_ms:.0}"),
            format!("{:.2}x", off_ms / on_ms),
            format!("{batched_ms:.0}"),
            format!("{:.2}x", on_ms / batched_ms),
            instr_on.to_string(),
        ]);
        report = report
            .run_custom(
                &format!("kernel_{n}"),
                sep_obs::Json::obj()
                    .field("regimes", n)
                    .field("steps", KERNEL_STEPS)
                    .field("instructions", instr_on),
            )
            .wall(&format!("kernel_{n}_off_ms"), off_ms)
            .wall(&format!("kernel_{n}_on_ms"), on_ms)
            .wall(&format!("kernel_{n}_speedup"), off_ms / on_ms)
            .wall(&format!("kernel_{n}_step_n_ms"), batched_ms)
            .wall(&format!("kernel_{n}_step_n_speedup"), on_ms / batched_ms);
    }

    // -------------------------------------------------------------------
    // Checker: exact vs fingerprint seen-sets at 4 shards.
    // -------------------------------------------------------------------
    println!("\n## checker: {SHARDS}-shard runs, exact vs fingerprint seen-sets\n");
    header(&[
        "workload",
        "states",
        "exact ms",
        "fp ms",
        "exact st/s",
        "fp st/s",
        "fp bytes",
    ]);
    for name in ["registers_4", "memory_3"] {
        let build = || match name {
            "registers_4" => register_workload(4),
            _ => memory_workload(3),
        };
        let check = |dedup| {
            let sys = KernelSystem::new(build()).unwrap().with_dedup(dedup);
            timed(|| sys.check_with_stats(&CheckerSelect::Sharded { shards: SHARDS }))
        };
        let ((exact_rep, exact_stats), exact_ms) = check(Dedup::Exact);
        let ((fp_rep, fp_stats), fp_ms) = check(Dedup::Fingerprint);
        assert_eq!(
            exact_rep, fp_rep,
            "{name}: fingerprint dedup changed the report"
        );
        let fp_stats = fp_stats.expect("sharded runs report stats");
        let exact_stats = exact_stats.expect("sharded runs report stats");
        assert_eq!(fp_stats.fp_states, fp_rep.states as u64);
        assert_eq!(exact_stats.fp_states, 0);
        row(&[
            name.into(),
            fp_rep.states.to_string(),
            format!("{exact_ms:.0}"),
            format!("{fp_ms:.0}"),
            format!("{:.0}", fp_rep.states as f64 / (exact_ms / 1000.0)),
            format!("{:.0}", fp_rep.states as f64 / (fp_ms / 1000.0)),
            fp_stats.fp_bytes.to_string(),
        ]);
        report = report
            .run_custom(
                &format!("checker_{name}"),
                checker_run_json(&fp_rep, Some(&fp_stats)),
            )
            .wall(
                &format!("checker_{name}_exact_states_per_sec"),
                fp_rep.states as f64 / (exact_ms / 1000.0),
            )
            .wall(
                &format!("checker_{name}_fp_states_per_sec"),
                fp_rep.states as f64 / (fp_ms / 1000.0),
            )
            .wall(&format!("checker_{name}_fp_speedup"), exact_ms / fp_ms);
    }

    // -------------------------------------------------------------------
    // Checker primitives: what one explored state costs to copy, key and
    // step, and the memory accesses under every instruction. Wall-clock
    // only; nothing here enters the deterministic sections.
    // -------------------------------------------------------------------
    println!("\n## checker primitives: symmetric_workload(3), input byte 1\n");
    header(&["primitive", "ns/op"]);
    for (name, ns) in checker_primitives() {
        row(&[name.into(), format!("{ns:.1}")]);
        report = report.wall(&format!("primitive_{name}_ns"), ns);
    }

    let out = "BENCH_obs_e10_hotpath.json";
    report.write_to(out).expect("write run report");
    println!("\nwrote {out} (wall clock kept apart from the deterministic sections)");

    println!("\nclaim: the fast path is pure memoization — caches and compiled");
    println!("superblocks reset on clone and drop on every MMU generation bump, so");
    println!("no regime can observe another's cache footprint. measured:");
    println!("byte-identical runs and reports across the slow and fast engines,");
    println!("≥6x warm step_n throughput over the slow step(), and a");
    println!("16-byte-per-state checker seen-set with unchanged verdicts.");
}
