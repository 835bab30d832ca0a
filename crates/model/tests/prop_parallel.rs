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
use sep_model::fp::{BloomParams, Dedup};
use sep_model::objects::ObjectSystem;
use sep_model::parallel::{
    par_reachable_states_reduced, ExploreStats, ParallelSeparabilityChecker, SpillConfig,
};

const SHARDS: [usize; 4] = [1, 2, 3, 4];

/// Far above any system of the domain, so a run that reaches it has lost
/// its dedup; the tests assert it is never reached.
const LIMIT: usize = 100_000;

/// Every `(own, shared)` point of the domain.
fn domain() -> impl Iterator<Item = (usize, usize)> {
    (1..3).flat_map(|own| (0..3).map(move |shared| (own, shared)))
}

/// Fingerprint, exact, and Bloom seen-sets. The Bloom filter is 64 bits,
/// undersized on purpose so that false positives occur.
fn policies() -> [Dedup; 3] {
    [
        Dedup::Fingerprint,
        Dedup::Exact,
        Dedup::Bloom(BloomParams {
            bits_log2: 6,
            hashes: 2,
            seed: 7,
        }),
    ]
}

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
            for dedup in policies() {
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
    let mut bloom_false_positives = 0;
    for (own, shared) in domain() {
        let sys = build_system(own, shared);
        let initial = [sys.initial()];
        let (sequential, truncated) = reachable_states(&sys, &initial, &[()], LIMIT);
        assert!(!truncated, "own {own} shared {shared}");
        for dedup in policies() {
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
                bloom_false_positives += stats.reduction.bloom_false_positives;
            }
        }
    }
    assert!(
        bloom_false_positives > 0,
        "the undersized Bloom filter never reached the precise probe"
    );
}

#[test]
fn spill_agrees_with_resident() {
    for (own, shared) in domain() {
        let sys = build_system(own, shared);
        let abstractions = sys.object_abstractions();
        for dedup in policies() {
            for shards in SHARDS {
                let plain = ParallelSeparabilityChecker::new(shards).with_dedup(dedup);
                let (rep_plain, st_plain) =
                    plain.check_explored(&sys, &abstractions, &[sys.initial()], LIMIT);
                let spilly = plain.clone().with_spill(SpillConfig::new(2));
                let (rep_spill, st_spill) =
                    spilly.check_explored(&sys, &abstractions, &[sys.initial()], LIMIT);
                let at = format!("own {own} shared {shared} shards {shards} {dedup:?}");
                assert_eq!(rep_plain, rep_spill, "{at}");
                assert_eq!(st_plain.states, st_spill.states, "{at}");
                assert!(!st_spill.truncated, "{at}");
                let spilled: u64 = st_spill.per_shard.iter().map(|s| s.spilled).sum();
                assert!(spilled > 0, "{at}: the spill never engaged");
            }
        }
    }
}
