//! Differential suite for the scheduler layer.
//!
//! The layer's core promise: `SchedPolicy` is policy only, so the default
//! kernel is *bit for bit* the kernel from before the layer existed, and
//! the cooperative policies verify under Proof of Separability (sequential
//! and sharded checkers agreeing) while the preemptive ones are refused.

use sep_kernel::config::{
    ChannelSpec, DepthPolicy, DeviceSpec, KernelConfig, Mutation, RegimeSpec, SchedPolicy,
};
use sep_kernel::kernel::{KernelError, KernelEvent, SeparationKernel};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_model::check::SeparabilityChecker;
use sep_obs::RunReport;

const SENDER: &str = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #4, R2
        TRAP 1
        TRAP 0
        BR start
msg:    .byte 1, 2, 3, 4
        .even
";

const RECEIVER: &str = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #8, R2
        TRAP 2
        TRAP 0
        BR start
buf:    .blkw 4
";

const YIELDER: &str = "loop: INC R1\n TRAP 0\n BR loop";

fn channel_workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly("tx", SENDER),
        RegimeSpec::assembly("rx", RECEIVER),
    ])
    .with_channel(0, 1, 4)
}

/// Events, final stats, state vector, and a rendered observability report
/// for a run — everything two kernels could disagree on.
fn fingerprint(cfg: KernelConfig, steps: u64) -> (Vec<KernelEvent>, String, Vec<u64>, String) {
    let mut k = SeparationKernel::boot(cfg.with_trace(64)).unwrap();
    let events = k.run(steps);
    let trace = k.machine.obs.disable_tracing();
    let report = RunReport::new("sched_differential")
        .param("steps", steps)
        .run_with_trace("kernel", &k.machine.obs.metrics, trace.as_ref(), 16)
        .render();
    (events, format!("{:?}", k.stats), k.state_vector(), report)
}

#[test]
fn explicit_round_robin_is_byte_identical_to_the_default() {
    // The default configuration (no policy named at all) and an explicit
    // `SchedPolicy::RoundRobin` must produce the same events, stats, state
    // vector, and a byte-identical run report.
    let base = fingerprint(channel_workload(), 2000);
    let explicit = fingerprint(channel_workload().with_sched(SchedPolicy::RoundRobin), 2000);
    assert_eq!(base, explicit);
}

#[test]
fn static_cyclic_rotation_follows_the_table_at_yields() {
    // Three voluntary yielders under table [0, 1, 0, 2]: regime 0 gets two
    // slots per major frame. The swap targets must walk the table.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", YIELDER),
        RegimeSpec::assembly("b", YIELDER),
        RegimeSpec::assembly("c", YIELDER),
    ])
    .with_sched(SchedPolicy::StaticCyclic {
        table: vec![0, 1, 0, 2],
    });
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(60);
    let targets: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            KernelEvent::Swapped { to, .. } => Some(*to),
            _ => None,
        })
        .collect();
    assert!(targets.len() >= 8, "enough yields to see two major frames");
    for (i, &to) in targets.iter().enumerate() {
        assert_eq!(to, [1, 0, 2, 0][i % 4], "swap {i} of {targets:?}");
    }
}

#[test]
fn lottery_is_deterministic_per_seed_at_the_kernel_level() {
    let cfg = |seed: u64| {
        KernelConfig::new(vec![
            RegimeSpec::assembly("a", YIELDER),
            RegimeSpec::assembly("b", YIELDER),
            RegimeSpec::assembly("c", YIELDER),
        ])
        .with_sched(SchedPolicy::Lottery { quantum: 5, seed })
    };
    let run = |seed: u64| {
        let mut k = SeparationKernel::boot(cfg(seed)).unwrap();
        (k.run(400), k.state_vector())
    };
    assert_eq!(run(7), run(7), "same seed, same run");
    assert_ne!(
        run(7).0,
        run(8).0,
        "different seeds draw different rotations"
    );
}

/// Two register-computing regimes — the separability workhorse workload.
fn register_workload() -> KernelConfig {
    KernelConfig::new(vec![
        RegimeSpec::assembly(
            "red",
            "start: INC R1\n BIC #0o177774, R1\n TRAP 0\n BR start",
        ),
        RegimeSpec::assembly(
            "black",
            "start: ADD #2, R1\n BIC #0o177770, R1\n TRAP 0\n BR start",
        ),
    ])
}

#[test]
fn static_cyclic_verifies_and_both_checkers_agree() {
    // An asymmetric table (regime 0 twice per frame) still satisfies all
    // six conditions, and the frontier-sharded checker reproduces the
    // sequential verdict exactly.
    let verify = |cfg: KernelConfig| {
        let sys = KernelSystem::new(cfg).unwrap();
        let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
        assert!(report.is_separable(), "{report}");
        let sequential = sys.check_with(&CheckerSelect::Sequential);
        let sharded = sys.check_with(&CheckerSelect::Sharded { shards: 4 });
        assert_eq!(sequential, sharded);
        report
    };
    let report = verify(register_workload().with_sched(SchedPolicy::StaticCyclic {
        table: vec![0, 1, 0],
    }));
    assert!(
        report.states > 4,
        "explored a real space: {}",
        report.states
    );
    // The table position is explored state. Here `b` keeps no state of its
    // own and `a` only a parity bit, which does not pin where the table
    // stands; without the position word the checker merges states that
    // schedule differently and explores 14 states and 65 checks.
    let report = verify(
        KernelConfig::new(vec![
            RegimeSpec::assembly("a", "loop: INC R1\n BIC #0o177776, R1\n TRAP 0\n BR loop"),
            RegimeSpec::assembly("b", "loop: TRAP 0\n BR loop"),
        ])
        .with_sched(SchedPolicy::StaticCyclic {
            table: vec![0, 1, 0, 0, 1],
        }),
    );
    assert_eq!((report.states, report.total_checks()), (36, 219));
}

#[test]
fn all_mutants_are_caught_under_every_verifiable_policy() {
    // The five sabotages from E2 must fail verification under round-robin
    // AND static-cyclic: a different (cooperative) rotation order must not
    // hide a context-switch leak. Each mutation gets the two-regime
    // workload that is sensitive to it (the same shapes the separability
    // suite uses): register/condition-code traffic for the context-switch
    // leaks, a prober for the overlap, a clocked owner for the misroute.
    let register = |policy: &SchedPolicy| {
        KernelConfig::new(vec![
            RegimeSpec::assembly(
                "red",
                "
start:  INC R1
        BIC #0o177774, R1
        MOV #0o1111, R3
        BIT #1, R1
        BEQ even
        SEC
        TRAP 0
        BR start
even:   CLC
        TRAP 0
        BR start
",
            ),
            RegimeSpec::assembly(
                "black",
                "start: ADD #3, R1\n BIC #0o177770, R1\n MOV #0o2222, R3\n CLC\n TRAP 0\n BR start",
            ),
        ])
        .with_sched(policy.clone())
    };
    let counter_src = "
start:  INC counter
        BIC #0o177774, counter
        TRAP 0
        BR start
counter: .word 0
";
    let counter_addr = 0o20000
        + sep_machine::asm::assemble(counter_src)
            .unwrap()
            .symbol("counter")
            .unwrap();
    let overlap = |policy: &SchedPolicy| {
        KernelConfig::new(vec![
            RegimeSpec::assembly(
                "prober",
                &format!("loop: MOV @#{counter_addr}, R1\n TRAP 0\n BR loop"),
            ),
            RegimeSpec::assembly("worker", counter_src),
        ])
        .with_sched(policy.clone())
    };
    let clocked = |policy: &SchedPolicy| {
        KernelConfig::new(vec![
            RegimeSpec::assembly(
                "owner",
                "start: MOV #0o160000, R4\n MOV #0o100, (R4)\nloop: TRAP 0\n BR loop",
            )
            .with_device(DeviceSpec::Clock { period: 3 }),
            RegimeSpec::assembly(
                "bystander",
                "start: INC R1\n BIC #0o177774, R1\n TRAP 0\n BR start",
            ),
        ])
        .with_sched(policy.clone())
    };
    let policies = [
        SchedPolicy::RoundRobin,
        SchedPolicy::StaticCyclic {
            table: vec![0, 1, 0],
        },
    ];
    type Build<'a> = &'a dyn Fn(&SchedPolicy) -> KernelConfig;
    let mutations: [(Mutation, Build); 5] = [
        (Mutation::SkipR3Save, &register),
        (Mutation::LeakConditionCodes, &register),
        (Mutation::OverlapPartitions, &overlap),
        (Mutation::MisrouteInterrupts, &clocked),
        (Mutation::ScratchInPartition, &register),
    ];
    for policy in &policies {
        for (mutation, build) in &mutations {
            // The unmutated workload verifies, so a failure below is the
            // mutation's doing, not the workload's.
            let sys = KernelSystem::new(build(policy)).unwrap();
            let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
            assert!(report.is_separable(), "{}: {report}", policy.name());
            let mut cfg = build(policy);
            cfg.mutation = *mutation;
            let sys = KernelSystem::new(cfg).unwrap();
            let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
            assert!(
                !report.is_separable(),
                "{mutation:?} under {} slipped through",
                policy.name()
            );
        }
    }
}

#[test]
#[should_panic(expected = "cooperative")]
fn fixed_time_slice_is_refused_by_the_verifier() {
    let cfg = register_workload().with_sched(SchedPolicy::FixedTimeSlice {
        quantum: 4,
        padded: false,
    });
    let _ = KernelSystem::new(cfg);
}

#[test]
#[should_panic(expected = "cooperative")]
fn lottery_is_refused_by_the_verifier() {
    let cfg = register_workload().with_sched(SchedPolicy::Lottery {
        quantum: 4,
        seed: 1,
    });
    let _ = KernelSystem::new(cfg);
}

#[test]
fn empty_static_cyclic_table_is_rejected_at_boot() {
    let cfg = register_workload().with_sched(SchedPolicy::StaticCyclic { table: vec![] });
    assert!(SeparationKernel::boot(cfg).is_err());
    let cfg = register_workload().with_sched(SchedPolicy::StaticCyclic { table: vec![0, 9] });
    assert!(SeparationKernel::boot(cfg).is_err(), "entry out of range");
    // A table that never offers regime 0 a slot would leave it unable to
    // run again after its first yield, its devices' requests piling up.
    let cfg = register_workload().with_sched(SchedPolicy::StaticCyclic { table: vec![1] });
    assert!(
        matches!(SeparationKernel::boot(cfg), Err(KernelError::BadSchedTable)),
        "regime 0 left out"
    );
}

#[test]
fn backpressured_channels_verify_separable_when_cut() {
    // The sticky latch and the quantized rounding are part of the sender's
    // view, so the wire-cutting argument must go through unchanged for
    // every depth policy.
    let sender = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #1, R2
        TRAP 1
        MOV #0, R0
        TRAP 3          ; POLL the depth the policy shows us
        TRAP 0
        BR start
msg:    .byte 7
        .even
";
    let receiver = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #4, R2
        TRAP 2
        TRAP 0
        BR start
buf:    .blkw 2
";
    for depth in [
        DepthPolicy::Live,
        DepthPolicy::Quantized { step: 2 },
        DepthPolicy::Sticky,
    ] {
        let mut cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("sender", sender),
            RegimeSpec::assembly("receiver", receiver),
        ]);
        cfg.channels
            .push(ChannelSpec::new(0, 1, 2).with_depth(depth));
        let cfg = cfg.cut_channels();
        let sys = KernelSystem::new(cfg).unwrap();
        let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
        assert!(report.is_separable(), "{depth:?}: {report}");
    }
}
