//! The parallel checker on small two-colour object systems: the
//! frontier-sharded checker agrees with the sequential checker — same
//! report, same discovery order — at every shard count and under every
//! seen-set policy, whether the system is separable or seeded with
//! cross-colour sharing.
//!
//! The domain is six systems (`own` private counters per colour in 1..3,
//! `shared` cross-colour channel objects in 0..3), so every one of them is
//! checked rather than a sample. The kernel suites cover the explorer on
//! kernel states; this suite covers it on object systems.

use sep_model::canon::{Reduction, ReductionStats};
use sep_model::check::SeparabilityChecker;
use sep_model::explore::reachable_states;
use sep_model::fp::Dedup;
use sep_model::objects::ObjectSystem;
use sep_model::parallel::{
    par_reachable_states_reduced, ExploreStats, ParallelSeparabilityChecker,
};

const SHARDS: [usize; 4] = [1, 2, 3, 4];

/// Far above any system of the domain, so a run that reaches it has lost
/// its dedup; the tests assert it is never reached.
const LIMIT: usize = 100_000;

/// Every `(own, shared)` point of the domain.
fn domain() -> impl Iterator<Item = (usize, usize)> {
    (1..3).flat_map(|own| (0..3).map(move |shared| (own, shared)))
}

/// Fingerprint and exact seen-sets.
const POLICIES: [Dedup; 2] = [Dedup::Fingerprint, Dedup::Exact];

/// Builds a two-colour object system: each colour owns `own` private
/// counters; `shared` cross-colour channel objects connect them.
fn build_system(own: usize, shared: usize) -> ObjectSystem {
    let mut sys = ObjectSystem::new(3);
    let a = sys.add_colour("a");
    let b = sys.add_colour("b");
    for i in 0..own {
        let xa = sys.add_object(&format!("a{i}"), 0);
        sys.add_op(a, &format!("inc_a{i}"), vec![xa], vec![xa], |v| {
            vec![v[0] + 1]
        });
        let xb = sys.add_object(&format!("b{i}"), 0);
        sys.add_op(b, &format!("inc_b{i}"), vec![xb], vec![xb], |v| {
            vec![v[0] + 2]
        });
    }
    for i in 0..shared {
        let x = sys.add_object(&format!("x{i}"), 0);
        sys.add_op(a, &format!("send{i}"), vec![x], vec![x], |v| vec![v[0] + 1]);
        sys.add_op(b, &format!("recv{i}"), vec![x], vec![x], |v| vec![v[0]]);
    }
    sys
}

/// The shard-count-invariant part of [`ExploreStats`], with the per-shard
/// counters summed.
fn projection(s: &ExploreStats) -> (usize, usize, usize, bool, u64, ReductionStats, usize, usize) {
    let owned = s.per_shard.iter().map(|p| p.owned).sum();
    let routed = s.per_shard.iter().map(|p| p.routed).sum();
    (
        s.states,
        s.levels,
        s.max_frontier,
        s.truncated,
        s.fp_bytes,
        s.reduction,
        owned,
        routed,
    )
}

#[test]
fn parallel_report_equals_sequential() {
    for (own, shared) in domain() {
        let sys = build_system(own, shared);
        let abstractions = sys.object_abstractions();
        let seq = SeparabilityChecker::new().check(&sys, &abstractions);
        assert_eq!(
            seq.is_separable(),
            shared == 0,
            "own {own} shared {shared}: {seq}"
        );
        for shards in SHARDS {
            let par = ParallelSeparabilityChecker::new(shards).check(&sys, &abstractions);
            assert_eq!(seq, par, "own {own} shared {shared} shards {shards}");
            for dedup in POLICIES {
                let (explored, stats) = ParallelSeparabilityChecker::new(shards)
                    .with_dedup(dedup)
                    .check_explored(&sys, &abstractions, &[sys.initial()], LIMIT);
                let at = format!("own {own} shared {shared} shards {shards} {dedup:?}");
                assert_eq!(seq, explored, "{at}");
                assert_eq!(stats.states, seq.states, "{at}");
                assert!(!stats.truncated, "{at}");
            }
        }
    }
}

#[test]
fn shard_count_never_changes_the_verdict() {
    for (own, shared) in domain() {
        let sys = build_system(own, shared);
        let initial = [sys.initial()];
        let (sequential, truncated) = reachable_states(&sys, &initial, &[()], LIMIT);
        assert!(!truncated, "own {own} shared {shared}");
        for dedup in POLICIES {
            let (_, first) = par_reachable_states_reduced(
                &sys,
                &initial,
                &[()],
                LIMIT,
                1,
                dedup,
                &Reduction::none(),
            );
            for shards in SHARDS {
                let (order, stats) = par_reachable_states_reduced(
                    &sys,
                    &initial,
                    &[()],
                    LIMIT,
                    shards,
                    dedup,
                    &Reduction::none(),
                );
                let at = format!("own {own} shared {shared} shards {shards} {dedup:?}");
                assert_eq!(order, sequential, "{at}");
                assert_eq!(projection(&stats), projection(&first), "{at}");
                // One input, so every expanded state routes one successor.
                let routed: usize = stats.per_shard.iter().map(|p| p.routed).sum();
                assert_eq!(routed, order.len(), "{at}");
            }
        }
    }
}
