//! Differential suite for the hot-path engine at the kernel level.
//!
//! Three claims, each pinned against the slow path it replaces:
//!
//! 1. **Execution**: a kernel run is byte-identical across both engines —
//!    the slow path and the fast engine (decode cache, TLB, superblock
//!    tier) — same events, stats, state vector, and rendered observability
//!    report (the report excludes the hot-path counters by design, so this
//!    equality is exact).
//! 2. **Recovery**: `FaultPolicy::Restart` re-imaging behaves identically
//!    under warm caches — the PR 4 regression this PR must not break.
//! 3. **Verification**: Proof of Separability verdicts and reports are
//!    unchanged when the seen-sets switch from exact states to 128-bit
//!    fingerprints — across shard counts, the classic kernel mutants, and
//!    the fault-op state space.

use sep_fault::FaultPlan;
use sep_kernel::config::{KernelConfig, Mutation, RegimeSpec};
use sep_kernel::fault;
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_kernel::regime::{FaultPolicy, PARTITION_SIZE};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_model::fp::Dedup;
use sep_obs::RunReport;

const COUNTER: &str = "
start:  INC counter
        BIC #0o177774, counter
        TRAP 0
        BR start
counter: .word 0
";

const YIELDER: &str = "
start:  ADD #3, R1
        BIC #0o177770, R1
        MOV #0o2222, R3
        TRAP 0
        BR start
";

fn workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("red", COUNTER),
        RegimeSpec::assembly("black", YIELDER),
    ])
}

/// The two execution engines the machine offers: no caches at all, and
/// the decode cache + TLB with the superblock tier on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Engine {
    Slow,
    Tier,
}

fn select_engine(k: &mut SeparationKernel, engine: Engine) {
    match engine {
        Engine::Slow => k.machine.set_hotpath(false),
        Engine::Tier => assert!(k.machine.hotpath(), "the fast engine is the default"),
    }
}

/// Everything two kernel runs could disagree on, with the execution engine
/// forced before the first step.
fn fingerprint(
    cfg: KernelConfig,
    engine: Engine,
    steps: u64,
) -> (Vec<KernelEvent>, String, Vec<u64>, String) {
    let mut k = SeparationKernel::boot(cfg.with_trace(64)).unwrap();
    select_engine(&mut k, engine);
    let events = k.run(steps);
    let trace = k.machine.obs.disable_tracing();
    let report = RunReport::new("hotpath_differential")
        .param("steps", steps)
        .run_with_trace("kernel", &k.machine.obs.metrics, trace.as_ref(), 16)
        .render();
    (events, format!("{:?}", k.stats), k.state_vector(), report)
}

#[test]
fn kernel_run_is_byte_identical_across_all_engines() {
    let slow = fingerprint(workload(), Engine::Slow, 3000);
    assert_eq!(
        fingerprint(workload(), Engine::Tier, 3000),
        slow,
        "the fast engine is architecturally visible"
    );
}

#[test]
fn restart_reimaging_is_identical_under_warm_caches() {
    // The crasher scribbles and dies; Restart re-images its partition from
    // the boot template. With the caches warm at fault time, the re-imaged
    // regime must replay exactly what it replays with the caches off.
    let crasher = "
start:  INC runs
        MOV #0o7777, scratch
        TRAP 77
scratch: .word 0
runs:   .word 0
";
    let build = || {
        KernelConfig::new(vec![
            RegimeSpec::assembly("crasher", crasher).with_fault_policy(FaultPolicy::Restart {
                budget: 2,
                backoff_slots: 1,
            }),
            RegimeSpec::assembly("worker", COUNTER),
        ])
    };
    let slow = fingerprint(build(), Engine::Slow, 800);
    assert_eq!(
        fingerprint(build(), Engine::Tier, 800),
        slow,
        "re-imaging behaves differently under the fast engine"
    );
    assert!(
        slow.0
            .iter()
            .any(|e| matches!(e, KernelEvent::Restarted { regime: 0 })),
        "the restart actually happened"
    );
}

#[test]
fn fault_storm_runs_are_identical_across_all_engines() {
    // Seeded fault injection (bit flips, regime faults, interrupt noise)
    // exercises partition re-imaging and MMU reprogramming mid-run.
    let run = |engine: Engine| {
        let cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("victim", COUNTER).with_fault_policy(FaultPolicy::Restart {
                budget: 3,
                backoff_slots: 2,
            }),
            RegimeSpec::assembly("worker", COUNTER),
        ]);
        let mut k = SeparationKernel::boot(cfg.with_trace(64)).unwrap();
        select_engine(&mut k, engine);
        let mut plan = FaultPlan::generate(0xFEED, &[0], 1500, 16, PARTITION_SIZE);
        let mut events = Vec::new();
        for _ in 0..3000 {
            fault::apply_due(&mut k, &mut plan);
            events.extend(k.run(1));
        }
        let trace = k.machine.obs.disable_tracing();
        let report = RunReport::new("hotpath_storm")
            .run_with_trace("kernel", &k.machine.obs.metrics, trace.as_ref(), 16)
            .render();
        (events, k.state_vector(), report)
    };
    assert_eq!(
        run(Engine::Tier),
        run(Engine::Slow),
        "fault storm diverged under the fast engine"
    );
}

// ---------------------------------------------------------------------------
// Checker: fingerprint dedup is report-identical to exact dedup.
// ---------------------------------------------------------------------------

#[test]
fn mutant_verdicts_are_identical_under_fingerprint_dedup() {
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let build = |dedup| {
            let mut cfg = workload();
            cfg.mutation = mutation;
            KernelSystem::new(cfg).unwrap().with_dedup(dedup)
        };
        let exact = build(Dedup::Exact);
        let fp = build(Dedup::Fingerprint);
        for select in [
            CheckerSelect::Sequential,
            CheckerSelect::Sharded { shards: 2 },
            CheckerSelect::Sharded { shards: 4 },
        ] {
            let a = exact.check_with(&select);
            let b = fp.check_with(&select);
            assert_eq!(a, b, "mutant {mutation:?}, {select:?}");
            assert_eq!(
                a.is_separable(),
                mutation == Mutation::None,
                "mutant {mutation:?} verdict"
            );
        }
    }
}

#[test]
fn fault_op_state_space_is_identical_under_fingerprint_dedup() {
    // The PR 4 state space: restart policies put backoff, re-imaging, and
    // exhausted budgets into the explored set.
    let policy = FaultPolicy::Restart {
        budget: 1,
        backoff_slots: 1,
    };
    let build = |dedup| {
        let cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("red", YIELDER).with_fault_policy(policy),
            RegimeSpec::assembly("black", YIELDER).with_fault_policy(policy),
        ]);
        KernelSystem::new(cfg)
            .unwrap()
            .with_fault_ops()
            .with_dedup(dedup)
    };
    let exact = build(Dedup::Exact).check_with(&CheckerSelect::Sequential);
    let fp = build(Dedup::Fingerprint).check_with(&CheckerSelect::Sequential);
    assert_eq!(exact, fp);
    assert!(fp.is_separable(), "{fp}");
    let sharded = build(Dedup::Fingerprint).check_with(&CheckerSelect::Sharded { shards: 4 });
    assert_eq!(fp, sharded, "sharded fingerprint run diverged");
}

#[test]
fn sharded_fingerprint_stats_report_the_compact_seen_set() {
    let sys = KernelSystem::new(workload()).unwrap();
    let (report, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards: 4 });
    assert!(report.is_separable(), "{report}");
    let stats = stats.expect("sharded runs report stats");
    assert_eq!(
        stats.fp_states, stats.states as u64,
        "every state deduplicated by fingerprint"
    );
    assert_eq!(
        stats.fp_bytes,
        16 * stats.states as u64,
        "16 bytes per resident key"
    );

    let exact = KernelSystem::new(workload())
        .unwrap()
        .with_dedup(Dedup::Exact);
    let (report_e, stats_e) = exact.check_with_stats(&CheckerSelect::Sharded { shards: 4 });
    assert_eq!(report, report_e);
    let stats_e = stats_e.unwrap();
    assert_eq!(stats_e.fp_states, 0, "exact mode reports no fingerprints");
    assert_eq!(stats_e.states, stats.states);
}
