//! The differential checker harness: the frontier-sharded parallel checker
//! must produce a [`CheckReport`] **equal** to the sequential checker's —
//! same state/op/input counts, same per-condition check counters, same
//! violation set in the same order with the same witness text — for every
//! workload, mutation, and shard count. `CheckReport` derives `Eq`, so a
//! single `assert_eq!` pins all of it.
//!
//! Runs against the real kernel (`sep-kernel` + `sep-bench` workloads — a
//! dev-only dependency cycle Cargo permits) and against the model's own
//! demo machine with every seeded leak.

use sep_bench::{memory_workload, register_workload};
use sep_kernel::config::{KernelConfig, Mutation};
use sep_kernel::verify::{CheckerSelect, KernelSystem};
use sep_model::abstraction::Abstraction;
use sep_model::check::{CheckReport, Condition, SeparabilityChecker, MAX_VIOLATIONS_PER_CONDITION};
use sep_model::demo::{DemoAbstraction, DemoColour, DemoMachine, Leak};
use sep_model::parallel::ParallelSeparabilityChecker;
use sep_model::system::{Finite, SharedSystem};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The violated conditions of a report, in paper order.
fn violated(report: &CheckReport) -> Vec<u8> {
    Condition::ALL
        .iter()
        .filter(|&&c| report.violations_of(c).next().is_some())
        .map(|c| c.number())
        .collect()
}

fn assert_differential(cfg: KernelConfig, label: &str) -> CheckReport {
    let sys = KernelSystem::new(cfg).unwrap();
    let seq = sys.check_with(&CheckerSelect::Sequential);
    for shards in SHARD_COUNTS {
        let par = sys.check_with(&CheckerSelect::Sharded { shards });
        assert_eq!(seq, par, "{label}, shards {shards}");
    }
    seq
}

#[test]
fn register_workloads_are_shard_invariant() {
    for n in [2usize, 3, 4] {
        let report = assert_differential(register_workload(n), &format!("registers({n})"));
        assert!(report.is_separable(), "registers({n}): {report}");
    }
}

#[test]
fn memory_workloads_are_shard_invariant() {
    for n in [2usize, 3, 4] {
        let report = assert_differential(memory_workload(n), &format!("memory({n})"));
        assert!(report.is_separable(), "memory({n}): {report}");
    }
}

#[test]
fn kernel_mutants_are_detected_identically() {
    for mutation in [
        Mutation::None,
        Mutation::SkipR3Save,
        Mutation::LeakConditionCodes,
        Mutation::ScratchInPartition,
    ] {
        let mut cfg = register_workload(2);
        cfg.mutation = mutation;
        let seq = assert_differential(cfg, &format!("mutant {mutation:?}"));
        if mutation == Mutation::None {
            assert!(seq.is_separable(), "unmutated kernel must pass: {seq}");
        } else {
            assert!(
                !seq.is_separable(),
                "mutant {mutation:?} must be caught: {seq}"
            );
            assert!(
                !violated(&seq).is_empty(),
                "mutant {mutation:?} names no violated condition"
            );
        }
    }
}

#[test]
fn demo_machine_leaks_are_shard_invariant() {
    for leak in Leak::ALL_LEAKS.into_iter().chain([Leak::None]) {
        let m = DemoMachine::leaky(4, leak);
        // RED's abstract machine wrapping at 3 on a machine that wraps at 4
        // breaks condition 1 beside the leak's own condition, so RED can
        // violate both condition families at once, and the report pins
        // their relative order.
        let red_wraps_at_3 = [
            DemoAbstraction {
                colour: DemoColour::Red,
                modulus: 3,
            },
            DemoAbstraction {
                colour: DemoColour::Black,
                modulus: 4,
            },
        ];
        let cases = [("natural", m.abstractions()), ("red mod 3", red_wraps_at_3)];
        for (label, abstractions) in cases {
            let seq = SeparabilityChecker::new().check(&m, &abstractions);
            for shards in SHARD_COUNTS {
                let par = ParallelSeparabilityChecker::new(shards).check(&m, &abstractions);
                assert_eq!(seq, par, "leak {leak:?}, {label}, shards {shards}");
                assert_eq!(
                    violated(&seq),
                    violated(&par),
                    "leak {leak:?}, {label}, shards {shards}: violated conditions diverge"
                );
            }
            if label == "natural" {
                assert_eq!(seq.is_separable(), leak == Leak::None, "leak {leak:?}");
            } else {
                assert!(violated(&seq).contains(&1), "leak {leak:?}, {label}: {seq}");
            }
        }
    }
}

#[test]
fn both_checkers_keep_the_first_violations_in_sequential_order() {
    // RED's ops also write BLACK's counter: condition 2 fails for BLACK in
    // many states. Every such violation, uncapped, in the sequential
    // checker's order (abstraction, state, op), with its witness text.
    let m = DemoMachine::leaky(4, Leak::OpWritesForeign);
    let abstractions = m.abstractions();
    let mut all = Vec::new();
    for a in &abstractions {
        for s in m.states().iter().filter(|s| m.colour(s) != a.colour()) {
            for op in m.ops() {
                let (before, after) = (a.phi(&m, s), a.phi(&m, &m.apply(&op, s)));
                if before != after {
                    let active = m.colour(s);
                    all.push(format!(
                        "state {s:?} (active colour {active:?}), op {op:?}: view changed from {before:?} to {after:?}"
                    ));
                }
            }
        }
    }
    assert!(all.len() > MAX_VIOLATIONS_PER_CONDITION, "{}", all.len());
    let first = &all[..MAX_VIOLATIONS_PER_CONDITION];
    let kept = |r: &CheckReport| -> Vec<String> {
        let of = r.violations_of(Condition::OpInvisibleToInactive);
        of.map(|v| v.witness.clone()).collect()
    };
    assert_eq!(
        kept(&SeparabilityChecker::new().check(&m, &abstractions)),
        first
    );
    for shards in [1, 2, 4] {
        let par = ParallelSeparabilityChecker::new(shards).check(&m, &abstractions);
        assert_eq!(kept(&par), first, "{shards} shards");
    }
}
