//! Kernel clones over copy-on-write physical memory.
//!
//! The checker stores every reachable state as a cloned kernel, and a
//! clone shares its machine's memory pages with the source until one side
//! writes them (see DESIGN.md, "Physical memory"). These tests drive that
//! sharing through the kernel: a clone must not see its source's later
//! writes, must replay the source's run exactly, and the `verify`
//! benchmark workload must reach the same verdict under both checkers,
//! with the same exploration statistics at 1, 2 and 4 shards.

use sep_bench::symmetric_workload;
use sep_kernel::config::{DeviceSpec, KernelConfig, Mutation, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::verify::{CheckerSelect, KernelSystem};

/// E8's clocked regime: every clock interrupt enters its handler, which
/// pushes PC and PSW onto the regime's stack and counts a tick, so each
/// delivery writes the partition.
const CLOCKED: &str = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)    ; clock interrupt enable
loop:   WAIT                ; sleep until the next interrupt
        BR loop
handler: INC ticks
        RTI
ticks:  .word 0
";

/// A busy bystander that writes its own partition every pass.
const BYSTANDER: &str = "
start:  INC counter
        TRAP 0
        BR start
counter: .word 0
";

const STEPS: usize = 300;

fn clocked() -> SeparationKernel {
    SeparationKernel::boot(KernelConfig::new(vec![
        RegimeSpec::assembly("clocked", CLOCKED).with_device(DeviceSpec::Clock { period: 4 }),
        RegimeSpec::assembly("bystander", BYSTANDER),
    ]))
    .expect("the clocked configuration boots")
}

/// Steps `k` one step at a time and reads its state vector after each
/// step, so every partition fingerprint is memoized before the next step
/// writes the page again. Returns the final state vector.
fn step_observed(k: &mut SeparationKernel, steps: usize) -> Vec<u64> {
    for _ in 0..steps {
        k.step();
        k.state_vector();
    }
    k.state_vector()
}

#[test]
fn a_kernel_clone_is_isolated_from_its_source_and_replays_it() {
    let fresh = clocked().state_vector();
    let mut original = clocked();
    let at_boot = original.clone();
    step_observed(&mut original, STEPS);
    assert!(
        original.stats.interrupts_delivered > 0,
        "the run must write the clocked partition through interrupt entry"
    );
    assert_eq!(
        at_boot.state_vector(),
        fresh,
        "a clone taken at boot saw its source's writes"
    );

    let mid = original.clone();
    let mid_vector = original.state_vector();
    let end = step_observed(&mut original, STEPS);
    assert_ne!(end, mid_vector);
    assert_eq!(mid.state_vector(), mid_vector, "a mid-run clone moved");

    // Each clone, stepped the same number of steps, lands exactly where
    // the source did; so does a kernel whose fingerprints were never
    // memoized along the way, which a stale memo would not match.
    let mut replay = at_boot;
    assert_eq!(step_observed(&mut replay, 2 * STEPS), end);
    assert!(replay.machine.mem == original.machine.mem);
    let mut resumed = mid;
    assert_eq!(step_observed(&mut resumed, STEPS), end);
    let mut unobserved = clocked();
    unobserved.run(2 * STEPS as u64);
    assert_eq!(unobserved.state_vector(), end);
}

fn verify_system(mutation: Mutation) -> KernelSystem {
    let mut cfg = symmetric_workload(3);
    cfg.mutation = mutation;
    KernelSystem::new(cfg)
        .expect("the verify workload boots")
        .with_input_bytes(&[1])
}

/// Per-shard `(owned, routed, expanded)` of the `verify` workload's
/// exploration.
type ShardCounts = Vec<(usize, usize, usize)>;

/// The `verify` benchmark workload's verdict and exploration statistics,
/// pinned.
#[test]
fn verify_workload_report_is_pinned_across_checkers() {
    let sys = verify_system(Mutation::None);
    let sequential = sys.check_with(&CheckerSelect::Sequential);
    assert_eq!(sequential.states, 345);
    assert_eq!(sequential.total_checks(), 8481);
    assert!(sequential.is_separable());

    // `routed` counts every successor made, 345 states x 4 inputs, whether
    // or not its expander dropped it as already seen.
    let expected: [(usize, ShardCounts); 3] = [
        (1, vec![(345, 1380, 345)]),
        (2, vec![(166, 696, 175), (179, 684, 170)]),
        (
            4,
            vec![(87, 398, 91), (105, 384, 88), (79, 298, 84), (74, 300, 82)],
        ),
    ];
    for (shards, per_shard) in expected {
        let (report, stats) = sys.check_with_stats(&CheckerSelect::Sharded { shards });
        assert_eq!(report, sequential, "{shards} shards");
        let stats = stats.expect("the sharded checker reports exploration statistics");
        assert_eq!(stats.states, 345, "{shards} shards");
        assert_eq!(stats.levels, 12, "{shards} shards");
        assert_eq!(stats.max_frontier, 54, "{shards} shards");
        assert_eq!(stats.fp_bytes, 5520, "{shards} shards");
        assert!(!stats.truncated);
        let owned: usize = stats.per_shard.iter().map(|s| s.owned).sum();
        let routed: usize = stats.per_shard.iter().map(|s| s.routed).sum();
        assert_eq!((owned, routed), (345, 1380), "{shards} shards");
        let counts: ShardCounts = stats
            .per_shard
            .iter()
            .map(|s| (s.owned, s.routed, s.expanded))
            .collect();
        assert_eq!(
            counts, per_shard,
            "{shards} shards: (owned, routed, expanded)"
        );
    }

    let mutant = verify_system(Mutation::ScratchInPartition)
        .check_with(&CheckerSelect::Sharded { shards: 2 });
    assert!(
        !mutant.is_separable(),
        "the scratch mutant came out SEPARABLE"
    );
}
