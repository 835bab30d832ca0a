//! Determinism of the exploration layer: equal seeds give equal sampled
//! reports, BFS discovery order is stable run to run, the truncation
//! flag flips exactly at the state-limit boundary — in both the sequential
//! and the parallel frontier-sharded explorer — and the state-space
//! reductions (canon keys, ample sets) keep discovery order and the stats
//! projection shard-count-invariant. The sharded explorer's helper pool,
//! started once per exploration, serves levels that alternate between
//! inline and threaded, and a panic in any expander panics the
//! exploration instead of leaving a thread blocked.

use sep_bench::symmetric_workload;
use sep_kernel::verify::KernelSystem;
use sep_model::canon::{Ample, Reduction};
use sep_model::demo::{DemoMachine, Leak};
use sep_model::explore::{
    reachable_states, reachable_states_reduced, reachable_states_with, SampledChecker,
};
use sep_model::fp::{fingerprint, Dedup};
use sep_model::parallel::{
    par_reachable_states, par_reachable_states_reduced, par_reachable_states_with, ExploreStats,
};
use sep_model::system::{Finite, SharedSystem};
use std::sync::mpsc;
use std::time::Duration;

/// The shard-count-invariant projection of [`ExploreStats`]: everything
/// except `shards` itself and the per-shard ownership split.
fn projection(s: &ExploreStats) -> (usize, usize, usize, bool, sep_model::canon::ReductionStats) {
    (s.states, s.levels, s.max_frontier, s.truncated, s.reduction)
}

#[test]
fn sampled_checker_is_seed_deterministic() {
    for leak in [Leak::None, Leak::OpWritesForeign] {
        let m = DemoMachine::leaky(4, leak);
        let abstractions = m.abstractions();
        let initial = [m.initial()];
        let inputs = m.inputs();
        let run = |seed: u64| {
            SampledChecker::new(seed, 16, 64).check(&m, &abstractions, &initial, &inputs)
        };
        assert_eq!(run(7), run(7), "leak {leak:?}: same seed, same report");
        // A different seed walks differently: the reports may agree on the
        // verdict but the checker must not silently ignore its seed.
        assert_eq!(
            run(7).is_separable(),
            run(8).is_separable(),
            "leak {leak:?}: verdict is seed-independent"
        );
    }
}

#[test]
fn bfs_order_is_stable_across_runs() {
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let (a, ta) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    let (b, tb) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    assert_eq!(a, b, "sequential BFS order varies between runs");
    assert_eq!(ta, tb);
    for shards in [1, 2, 4, 8] {
        let (p1, _) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
        let (p2, _) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
        assert_eq!(
            p1, p2,
            "parallel BFS order varies between runs ({shards} shards)"
        );
        assert_eq!(
            a, p1,
            "parallel order diverges from sequential ({shards} shards)"
        );
    }
}

#[test]
fn fingerprint_and_exact_dedup_explore_in_the_same_order() {
    // The triple-clone fix rebuilt the seen-set around fingerprints with
    // exact dedup as a knob: both policies must produce the identical
    // discovery order, sequentially and under every shard count — and at
    // every truncation limit, since the cut point depends on the order.
    for leak in [Leak::None, Leak::OpWritesForeign] {
        let m = DemoMachine::leaky(4, leak);
        let inputs = m.inputs();
        let full = reachable_states(&m, &[m.initial()], &inputs, 100_000).0;
        for limit in [100_000usize, full.len(), full.len() / 2, 1] {
            let fp = reachable_states_with(&m, &[m.initial()], &inputs, limit, Dedup::Fingerprint);
            let exact = reachable_states_with(&m, &[m.initial()], &inputs, limit, Dedup::Exact);
            assert_eq!(fp, exact, "leak {leak:?}, limit {limit}: sequential");
            for shards in [1, 2, 4] {
                let pf = par_reachable_states_with(
                    &m,
                    &[m.initial()],
                    &inputs,
                    limit,
                    shards,
                    Dedup::Fingerprint,
                );
                let pe = par_reachable_states_with(
                    &m,
                    &[m.initial()],
                    &inputs,
                    limit,
                    shards,
                    Dedup::Exact,
                );
                assert_eq!(pf, pe, "leak {leak:?}, limit {limit}, shards {shards}");
                assert_eq!(
                    fp, pf,
                    "leak {leak:?}, limit {limit}, shards {shards}: parallel vs sequential"
                );
            }
        }
    }
}

#[test]
fn truncation_flips_exactly_at_the_limit() {
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let (full, truncated) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
    assert!(!truncated);
    let n = full.len();
    assert!(n > 2, "demo machine too small to probe limits");

    for (limit, expect_truncated, expect_len) in [
        // At the limit the explorer still reports truncation: it cannot
        // know no unexplored successor remained without expanding further.
        (n, true, Some(n)),
        (n + 1, false, Some(n)),
        // One under the limit truncates, but the exact cut length depends
        // on how many novel successors the final expansion added at once.
        (n - 1, true, None),
        (1, true, Some(1)),
        // Limit zero with a nonempty initial set: initial states are
        // admitted unconditionally, then exploration stops immediately.
        (0, true, Some(1)),
    ] {
        let (seq, t_seq) = reachable_states(&m, &[m.initial()], &inputs, limit);
        assert_eq!(t_seq, expect_truncated, "limit {limit}");
        if let Some(expect_len) = expect_len {
            assert_eq!(seq.len(), expect_len, "limit {limit}");
        }
        assert_eq!(seq, full[..seq.len()], "limit {limit}: order prefix");
        for shards in [1, 2, 4, 8] {
            let (par, t_par) = par_reachable_states(&m, &[m.initial()], &inputs, limit, shards);
            assert_eq!(seq, par, "limit {limit}, shards {shards}");
            assert_eq!(t_seq, t_par, "limit {limit}, shards {shards}");
        }
    }
}

#[test]
fn benign_reductions_preserve_demo_order() {
    // A canon hook that keys each state by its own fingerprint and an
    // ample hook that always expands everything are semantic no-ops; the
    // explorers must produce the unreduced discovery order with them
    // installed, sequentially and at every shard count.
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    let baseline = reachable_states(&m, &[m.initial()], &inputs, 100_000).0;
    let canon = |s: &<DemoMachine as sep_model::system::SharedSystem>::State| fingerprint(s);
    let ample = |_: &_, _: &[_]| Ample::All;
    let red = Reduction {
        canon: Some(&canon),
        ample: Some(&ample),
    };
    let (seq, truncated, stats) = reachable_states_reduced(
        &m,
        &[m.initial()],
        &inputs,
        100_000,
        Dedup::Fingerprint,
        &red,
    );
    assert!(!truncated);
    assert_eq!(seq, baseline, "benign reduction changed sequential order");
    assert!(stats.canon && stats.ample);
    assert_eq!(stats.ample_skips, 0, "Ample::All must skip nothing");
    for shards in [1, 2, 4, 8] {
        let (par, pstats) = par_reachable_states_reduced(
            &m,
            &[m.initial()],
            &inputs,
            100_000,
            shards,
            Dedup::Fingerprint,
            &red,
        );
        assert_eq!(par, baseline, "benign reduction changed order ({shards})");
        assert_eq!(pstats.reduction.ample_skips, 0);
    }
}

#[test]
fn unsorted_and_repeated_ample_subsets_expand_in_one_order() {
    // An ample hook may list its subset in any order and repeat an index.
    // Both explorers expand it ascending and once per index, so the
    // sharded order is the sequential one at every shard count, each
    // equals the order under the same subset listed cleanly, and a
    // repeated index counts its input as expanded once.
    let m = DemoMachine::secure(4);
    let inputs = m.inputs();
    assert_eq!(inputs.len(), 4);
    let explore = |subset: Vec<usize>| {
        let ample = move |_: &_, _: &[_]| Ample::Subset(subset.clone());
        let red = Reduction {
            canon: None,
            ample: Some(&ample),
        };
        let (seq, truncated, stats) = reachable_states_reduced(
            &m,
            &[m.initial()],
            &inputs,
            100_000,
            Dedup::Fingerprint,
            &red,
        );
        assert!(!truncated);
        for shards in [1, 2, 4, 8] {
            let (par, pstats) = par_reachable_states_reduced(
                &m,
                &[m.initial()],
                &inputs,
                100_000,
                shards,
                Dedup::Fingerprint,
                &red,
            );
            assert_eq!(par, seq, "order diverged at {shards} shards");
            assert_eq!(
                pstats.reduction, stats,
                "counters diverged at {shards} shards"
            );
        }
        (seq, stats.ample_skips)
    };
    let (all, skips) = explore(vec![3, 2, 1, 0]);
    assert_eq!(skips, 0, "the reversed alphabet defers nothing");
    assert_eq!(
        all,
        reachable_states(&m, &[m.initial()], &inputs, 100_000).0
    );
    let (clean, clean_skips) = explore(vec![0, 2]);
    for repeated in [vec![2, 0, 2], vec![0, 0, 2, 2]] {
        let (order, skips) = explore(repeated.clone());
        assert_eq!(order, clean, "{repeated:?} expands as [0, 2]");
        assert_eq!(skips, clean_skips, "{repeated:?} skips what [0, 2] skips");
    }
    assert_eq!(
        clean_skips,
        2 * clean.len() as u64,
        "two of four inputs per state"
    );
}

#[test]
fn kernel_reductions_are_shard_invariant() {
    // With symmetry + partial order genuinely pruning (the kernel's
    // symmetric workload), the discovery order and the whole stats
    // projection — state count, levels, widest frontier, truncation,
    // reduction counters — must not depend on the shard count, and the
    // sharded order must equal the sequential one.
    let sys = KernelSystem::new(symmetric_workload(2))
        .unwrap()
        .with_input_bytes(&[1])
        .with_symmetry(true)
        .with_por(true);
    let (seq, seq_stats) = sys.explore_sequential();
    assert!(seq_stats.canon && seq_stats.ample);
    assert!(seq_stats.ample_skips > 0, "ample never engaged");
    let mut first: Option<(Vec<_>, _)> = None;
    for shards in [1, 2, 4, 8] {
        let (par, stats) = sys.explore_sharded(shards);
        assert_eq!(par, seq, "reduced order diverged at {shards} shards");
        assert_eq!(
            stats.reduction, seq_stats,
            "reduction counters diverged at {shards} shards"
        );
        match &first {
            None => first = Some((par, projection(&stats))),
            Some((forder, fproj)) => {
                assert_eq!(&par, forder, "order varies with shard count");
                assert_eq!(&projection(&stats), fproj, "stats vary with shard count");
            }
        }
    }
}

/// Inputs, and successors per state, of [`Breathing`].
const FAN: u16 = 4;
/// The depth at which [`Breathing`] stops: its states there step to
/// themselves.
const DEPTH: u8 = 13;

/// A system whose BFS levels breathe. A state is `(depth, index)`; three
/// levels fan out `FAN` ways, the fourth collapses to two states, and so
/// on down to `DEPTH`, so the level widths run 1, 4, 16, 64, 2, 8, 32,
/// 128, 2, … . Its successor panics on `poisoned`.
#[derive(Default)]
struct Breathing {
    poisoned: Option<(u8, u16)>,
}

impl SharedSystem for Breathing {
    type State = (u8, u16);
    type Input = u16;
    type Output = ();
    type Colour = u8;
    type Op = ();

    fn colours(&self) -> Vec<u8> {
        vec![0]
    }

    fn colour(&self, _s: &(u8, u16)) -> u8 {
        0
    }

    fn output(&self, _s: &(u8, u16)) {}

    fn consume(&self, &(depth, index): &(u8, u16), &input: &u16) -> (u8, u16) {
        assert_ne!(self.poisoned, Some((depth, index)), "a poisoned parent");
        match depth {
            DEPTH => (depth, index),
            _ if depth % 4 == 3 => (depth + 1, (index + input) % 2),
            _ => (depth + 1, index * FAN + input),
        }
    }

    fn next_op(&self, _s: &(u8, u16)) {}

    fn apply(&self, _op: &(), s: &(u8, u16)) -> (u8, u16) {
        *s
    }
}

#[test]
fn one_pool_serves_alternating_inline_and_threaded_levels() {
    let sys = Breathing::default();
    let inputs: Vec<u16> = (0..FAN).collect();
    let initial = [(0u8, 0u16)];
    let (full, truncated) = reachable_states(&sys, &initial, &inputs, usize::MAX);
    assert!(!truncated);
    // A level is threaded when `width × inputs >= shards × 8`. The widths
    // cross that line upwards and downwards at every shard count tried.
    let widths: Vec<usize> = (0..=DEPTH)
        .map(|d| full.iter().filter(|s| s.0 == d).count())
        .collect();
    assert_eq!(widths[..9], [1, 4, 16, 64, 2, 8, 32, 128, 2]);
    for shards in [2, 4, 8] {
        let threaded: Vec<bool> = widths
            .iter()
            .map(|w| w * inputs.len() >= shards * 8)
            .collect();
        assert!(
            threaded.windows(2).any(|w| !w[0] && w[1])
                && threaded.windows(2).any(|w| w[0] && !w[1]),
            "{shards} shards: {threaded:?}"
        );
    }
    // Every limit, the ones that cut a threaded level in the middle of its
    // merge among them: same order, flag and stats projection as the
    // sequential explorer and the 1-shard run, and the same per-shard
    // counters summed over shards (every state committed, parent expanded
    // and successor made, counted once).
    let totals = |s: &ExploreStats| {
        s.per_shard.iter().fold((0, 0, 0), |(o, e, r), st| {
            (o + st.owned, e + st.expanded, r + st.routed)
        })
    };
    for limit in 0..=full.len() + 1 {
        let (seq, seq_truncated) = reachable_states(&sys, &initial, &inputs, limit);
        let explore = |shards| {
            par_reachable_states_reduced(
                &sys,
                &initial,
                &inputs,
                limit,
                shards,
                Dedup::Fingerprint,
                &Reduction::none(),
            )
        };
        let (_, one) = explore(1);
        for shards in [1, 2, 4, 8] {
            let (par, stats) = explore(shards);
            assert_eq!(par, seq, "limit {limit}, {shards} shards");
            assert_eq!(
                stats.truncated, seq_truncated,
                "limit {limit}, {shards} shards"
            );
            assert_eq!(
                projection(&stats),
                projection(&one),
                "limit {limit}, {shards} shards"
            );
            assert_eq!(
                totals(&stats),
                totals(&one),
                "limit {limit}, {shards} shards"
            );
        }
    }
}

#[test]
fn a_panicking_expander_panics_the_exploration() {
    // Depth 2 has 16 parents, a threaded level at 2 and 4 shards; parent
    // `p` of it is `(2, p)`, expanded by expander `p % shards`: the calling
    // thread for 4, a helper for 5 and 7.
    for shards in [2, 4] {
        for parent in [4u16, 5, 7] {
            let (done, outcome) = mpsc::channel();
            std::thread::spawn(move || {
                let sys = Breathing {
                    poisoned: Some((2, parent)),
                };
                let inputs: Vec<u16> = (0..FAN).collect();
                let explored = std::panic::catch_unwind(|| {
                    par_reachable_states(&sys, &[(0, 0)], &inputs, usize::MAX, shards)
                });
                let _ = done.send(explored.is_err());
            });
            let panicked = outcome
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{shards} shards, parent {parent}: hung"));
            assert!(panicked, "{shards} shards, parent {parent}: no panic");
        }
    }
}
