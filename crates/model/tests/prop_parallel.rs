//! The parallel checker on small two-colour object systems: the
//! frontier-sharded checker agrees with the sequential checker — same
//! report, same discovery order — at every shard count and under every
//! seen-set policy, whether the system is separable or seeded with
//! cross-colour sharing.
//!
//! The domain is six systems (`own` private counters per colour in 1..3,
//! `shared` cross-colour channel objects in 0..3), so every one of them is
//! checked rather than a sample. The kernel suites cover the explorer on
//! kernel states; this suite covers it on object systems. A truncated
//! check is pinned on them and on every demo leak: the condition pass
//! keys the states exploration never expanded itself.

use sep_model::abstraction::Abstraction;
use sep_model::canon::{Reduction, ReductionStats};
use sep_model::check::SeparabilityChecker;
use sep_model::demo::{DemoMachine, Leak};
use sep_model::explore::reachable_states;
use sep_model::fp::Dedup;
use sep_model::objects::ObjectSystem;
use sep_model::parallel::{
    par_reachable_states_reduced, ExploreStats, ParallelSeparabilityChecker,
};
use sep_model::system::{Finite, Projected, SharedSystem};

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

/// `sys` with its state set fixed to `states`: what the sequential checker
/// sees of an exploration truncated after those states.
struct Prefix<'a, S: SharedSystem> {
    sys: &'a S,
    states: Vec<S::State>,
}

impl<S: SharedSystem> SharedSystem for Prefix<'_, S> {
    type State = S::State;
    type Input = S::Input;
    type Output = S::Output;
    type Colour = S::Colour;
    type Op = S::Op;

    fn colours(&self) -> Vec<S::Colour> {
        self.sys.colours()
    }

    fn colour(&self, s: &S::State) -> S::Colour {
        self.sys.colour(s)
    }

    fn output(&self, s: &S::State) -> S::Output {
        self.sys.output(s)
    }

    fn consume(&self, s: &S::State, i: &S::Input) -> S::State {
        self.sys.consume(s, i)
    }

    fn next_op(&self, s: &S::State) -> S::Op {
        self.sys.next_op(s)
    }

    fn apply(&self, op: &S::Op, s: &S::State) -> S::State {
        self.sys.apply(op, s)
    }
}

impl<S: Projected> Projected for Prefix<'_, S> {
    type View = S::View;

    fn extract_input(&self, c: &S::Colour, i: &S::Input) -> S::View {
        self.sys.extract_input(c, i)
    }

    fn extract_output(&self, c: &S::Colour, o: &S::Output) -> S::View {
        self.sys.extract_output(c, o)
    }
}

impl<S: Finite> Finite for Prefix<'_, S> {
    fn states(&self) -> Vec<S::State> {
        self.states.clone()
    }

    fn inputs(&self) -> Vec<S::Input> {
        self.sys.inputs()
    }

    fn ops(&self) -> Vec<S::Op> {
        self.sys.ops()
    }
}

/// An abstraction of `S`, applied to a [`Prefix`] of it.
struct Through<'a, A>(&'a A);

impl<S: SharedSystem, A: Abstraction<S>> Abstraction<Prefix<'_, S>> for Through<'_, A> {
    type AState = A::AState;
    type AOp = A::AOp;

    fn colour(&self) -> S::Colour {
        self.0.colour()
    }

    fn phi(&self, p: &Prefix<'_, S>, s: &S::State) -> A::AState {
        self.0.phi(p.sys, s)
    }

    fn abop(&self, p: &Prefix<'_, S>, op: &S::Op) -> A::AOp {
        self.0.abop(p.sys, op)
    }

    fn apply_abstract(&self, p: &Prefix<'_, S>, aop: &A::AOp, a: &A::AState) -> A::AState {
        self.0.apply_abstract(p.sys, aop, a)
    }
}

/// `check_explored` at limits 1, n/2, n − 1 and n (n the reachable state
/// count) reports exactly what the sequential checker reports over the
/// same `reachable_states` prefix, at 1, 2 and 4 shards under both
/// seen-set policies.
fn assert_truncated_checks_match<S, A>(sys: &S, abstractions: &[A], initial: S::State, at: &str)
where
    S: Finite + Projected + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
    A: Abstraction<S> + Sync,
{
    let initial = [initial];
    let inputs = sys.inputs();
    let (full, truncated) = reachable_states(sys, &initial, &inputs, LIMIT);
    assert!(!truncated, "{at}");
    let n = full.len();
    let through: Vec<Through<'_, A>> = abstractions.iter().map(Through).collect();
    for limit in [1, n / 2, n - 1, n] {
        let (states, _) = reachable_states(sys, &initial, &inputs, limit);
        let seq = SeparabilityChecker::new().check(&Prefix { sys, states }, &through);
        for shards in [1, 2, 4] {
            for dedup in POLICIES {
                let (par, stats) = ParallelSeparabilityChecker::new(shards)
                    .with_dedup(dedup)
                    .check_explored(sys, abstractions, &initial, limit);
                let at = format!("{at}, limit {limit} of {n}, shards {shards} {dedup:?}");
                assert_eq!(seq, par, "{at}");
                assert_eq!(stats.states, seq.states, "{at}");
            }
        }
    }
}

#[test]
fn truncated_checks_match_the_sequential_checker_on_the_prefix() {
    for leak in Leak::ALL_LEAKS.into_iter().chain([Leak::None]) {
        let m = DemoMachine::leaky(4, leak);
        assert_truncated_checks_match(&m, &m.abstractions(), m.initial(), &format!("{leak:?}"));
    }
    for (own, shared) in domain() {
        let sys = build_system(own, shared);
        let at = format!("own {own} shared {shared}");
        assert_truncated_checks_match(&sys, &sys.object_abstractions(), sys.initial(), &at);
    }
}
