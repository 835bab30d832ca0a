//! Kernel clones over copy-on-write physical memory.
//!
//! The checker stores every reachable state as a cloned kernel, and a
//! clone shares its machine's memory pages with the source until one side
//! writes them (see DESIGN.md, "Physical memory"). These tests drive that
//! sharing through the kernel: a clone must not see its source's later
//! writes, must replay the source's run exactly, and the `verify`
//! benchmark workload must reach the same verdict under both checkers.

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

/// The `verify` benchmark workload's verdict, pinned.
#[test]
fn verify_workload_report_is_pinned_across_checkers() {
    let sys = verify_system(Mutation::None);
    let sequential = sys.check_with(&CheckerSelect::Sequential);
    let sharded = sys.check_with(&CheckerSelect::Sharded { shards: 2 });
    assert_eq!(sequential, sharded);
    assert_eq!(sequential.states, 345);
    assert_eq!(sequential.total_checks(), 8481);
    assert!(sequential.is_separable());

    let mutant = verify_system(Mutation::ScratchInPartition)
        .check_with(&CheckerSelect::Sharded { shards: 2 });
    assert!(
        !mutant.is_separable(),
        "the scratch mutant came out SEPARABLE"
    );
}
