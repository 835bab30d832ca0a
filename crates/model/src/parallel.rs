//! A parallel, frontier-sharded Proof of Separability checker.
//!
//! [`ParallelSeparabilityChecker`] produces a [`CheckReport`] **identical**
//! to [`crate::check::SeparabilityChecker`]'s — same states, same
//! per-condition check counts, same violations in the same order with the
//! same witness text — for every shard count. Determinism is engineered,
//! not hoped for:
//!
//! * **Exploration** is level-synchronised BFS. The frontier is dealt
//!   round-robin to N expander threads: the calling thread and N − 1
//!   helpers, started once per exploration at its first level wide enough
//!   to thread. There is one seen-set, written only by the merge that ends
//!   a level, so during a level every expander reads it freely: a
//!   successor it already holds is dropped on the thread that made it, and
//!   only survivors are kept. There are no owner threads; channels carry
//!   only a level's frontier positions to the helpers and their shares
//!   back. Each expander hands back its survivors in the order it made them: by
//!   parent, then by input. The calling thread walks the parents in
//!   frontier order, takes each one's run from the expander that owned it,
//!   and commits each survivor the seen-set does not yet hold — exactly the
//!   discovery order of the sequential [`crate::explore::reachable_states`],
//!   including its truncation rule (checked before each parent expands).
//!   Nothing is sorted or gathered into one list first: a survivor, a whole
//!   state, moves once, from its expander's list into the state order.
//! * **Condition checking** is one single-threaded pass that meets every
//!   check in the sequential checker's order, so each violation goes
//!   straight through the per-condition cap and no merge is needed.
//!   Conditions 1 and 2 run state-major across all abstractions; each
//!   abstraction holds its own first `cap` violations of them until its
//!   turn, when its conditions 3–6 follow as in the sequential checker.
//!   Only exploration is threaded: threaded condition phases ran no faster
//!   at 2 shards than at 1 on the kernel's workloads.
//!
//! The condition pass does less work than the sequential checker. Each
//! `(state, op)` successor and each state's output is computed once and
//! shared across all N abstractions (the sequential checker recomputes
//! them per colour). Condition 1 is decided by
//! [`Abstraction::op_respects`] and condition 2 by [`Abstraction::phi_eq`],
//! which an abstraction may answer in place, and conditions 3–6 never build
//! a view. They compare
//! 128-bit [`Abstraction::view_key`]s instead, which exploration gathers
//! while it makes the states: for every parent it expands, each colour's
//! key of the parent and of every consumption `INPUT(s, i)`, the latter
//! taken from the successor the expander makes anyway (or from a plain
//! `consume` for an input the ample set defers). Conditions 3, 5 and 6
//! group states by key and condition 6 reuses condition 3's groups;
//! conditions 3 and 4 compare consumption keys. Unequal keys prove unequal
//! views. Under [`Dedup::Exact`] every key equality the pass acts on is
//! confirmed with [`Abstraction::phi_eq`] (consumptions made afresh), so
//! that mode stays collision-free. A view is materialised only to render a
//! kept violation's witness, so the witness text is the sequential
//! checker's. On the kernel's workloads this is what makes verification of
//! an N-regime system scale like the state space instead of N × the state
//! space.
//!
//! The seen-set holds 128-bit state **fingerprints** by default
//! ([`crate::fp::Dedup::Fingerprint`]): keys are computed once per
//! successor, so exploration memory scales with key count rather than
//! state size. Exact full-state dedup remains available via
//! [`ParallelSeparabilityChecker::with_dedup`]; the differential suite pins
//! both policies to identical reports. Fingerprint membership is
//! probabilistic only in the cryptographic sense (a collision of two
//! independently-seeded 64-bit hashes).

use crate::abstraction::Abstraction;
use crate::canon::{Reduction, ReductionStats};
use crate::check::{record, witness, CheckReport, Condition, Violation};
use crate::fp::{fingerprint, Dedup};
use crate::system::{Finite, Projected, SharedSystem};
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Range;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::RwLock;
use std::thread::Scope;

/// A successor candidate: its parent's position in the frontier, the
/// state's 128-bit key (computed once, at expansion), and the state itself.
type Cand<T> = (usize, u128, T);

/// The shard a state's key falls to. It decides nothing about exploration:
/// it only attributes the `owned` and `routed` counters of [`ShardStats`].
#[inline]
fn shard_of(fp: u128, shards: usize) -> usize {
    (fp % shards as u128) as usize
}

/// Per-shard exploration counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Committed discoveries whose key falls to this shard.
    pub owned: usize,
    /// Frontier states expanded on this shard's turn (parent positions
    /// `p` with `p % shards` equal to the shard index).
    pub expanded: usize,
    /// Successors whose key falls to this shard, counted when they are
    /// made: those the expander dropped as already seen are included, so
    /// the sum over shards is every successor computed.
    pub routed: usize,
}

/// Aggregate exploration statistics from a parallel BFS.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Number of expander threads on a level wide enough to thread, and of
    /// the key classes [`ShardStats`] splits the counters by. Only
    /// exploration is threaded: the condition pass starts no thread.
    pub shards: usize,
    /// Total states discovered.
    pub states: usize,
    /// BFS levels processed.
    pub levels: usize,
    /// Widest frontier seen.
    pub max_frontier: usize,
    /// Whether exploration hit the state limit.
    pub truncated: bool,
    /// States tracked by 128-bit fingerprint (the whole state set under
    /// [`Dedup::Fingerprint`], zero under [`Dedup::Exact`]).
    pub fp_states: u64,
    /// Seen-set key bytes under fingerprint dedup (16 per state) — the
    /// footprint exact dedup would instead spend on whole resident states.
    pub fp_bytes: u64,
    /// State-space reduction counters (symmetry, ample sets). They are
    /// shard-count-invariant: ample sets are chosen single-threaded, in
    /// frontier order.
    pub reduction: ReductionStats,
    /// Per-shard counters, indexed by shard.
    pub per_shard: Vec<ShardStats>,
}

/// The explorer's one seen-set: 16-byte keys under
/// [`Dedup::Fingerprint`], whole states under [`Dedup::Exact`].
enum Seen<T> {
    Keys(HashSet<u128>),
    States(HashSet<T>),
}

impl<T: Eq + Hash + Clone> Seen<T> {
    fn new(dedup: Dedup) -> Seen<T> {
        match dedup {
            Dedup::Fingerprint => Seen::Keys(HashSet::new()),
            Dedup::Exact => Seen::States(HashSet::new()),
        }
    }

    fn contains(&self, key: u128, value: &T) -> bool {
        match self {
            Seen::Keys(keys) => keys.contains(&key),
            Seen::States(states) => states.contains(value),
        }
    }

    /// Records a state, returning whether it was new. Fingerprint mode
    /// never touches the state itself; exact mode clones a new one in.
    fn insert(&mut self, key: u128, value: &T) -> bool {
        match self {
            Seen::Keys(keys) => keys.insert(key),
            Seen::States(states) => !states.contains(value) && states.insert(value.clone()),
        }
    }
}

/// The key a seen-set files a state under: its orbit representative under
/// a `canon` hook, else its own fingerprint.
fn key_of<S: SharedSystem>(reduction: &Reduction<S>, s: &S::State) -> u128 {
    match reduction.canon {
        Some(canon) => canon(s),
        None => fingerprint(s),
    }
}

/// What exploration gathers for the condition pass when a checker asks
/// for it: per state, one record of `(1 + inputs) × colours` view keys,
/// first the state's own, then those of `INPUT(s, i)` for each input `i`
/// in alphabet order.
struct Keys<'a, T> {
    /// Keys per view: one per abstraction.
    colours: usize,
    /// Writes a state's `colours` view keys into a slice of that length.
    key: &'a (dyn Fn(&T, &mut [u128]) + Sync),
}

/// What the merge that ends a level writes and every expander of the next
/// level reads: the discovery order, whose tail is the frontier, the one
/// seen-set, and the frontier's ample lists. It sits behind one `RwLock`.
/// Expanders read it under shared guards; the calling thread writes it
/// only between levels, after every expander has handed back its share and
/// dropped its guard, so the lock is never contended.
struct Explored<T> {
    order: Vec<T>,
    seen: Seen<T>,
    /// The ample input indices per frontier state, when a reduction
    /// selects them: ascending ([`crate::canon::Ample::indices`]), so each
    /// parent's candidates come in the order the sequential explorer makes
    /// them and the merged order stays a subsequence of the unreduced
    /// discovery order.
    expands: Option<Vec<Vec<usize>>>,
}

/// What every expander reads for a whole exploration.
struct Expander<'a, S: SharedSystem> {
    sys: &'a S,
    inputs: &'a [S::Input],
    reduction: &'a Reduction<'a, S>,
    shards: usize,
    keys: Option<&'a Keys<'a, S::State>>,
}

/// One expander's share of a level: how many successors it made per
/// shard, the ones that survived, by parent and then by input, and the key
/// records of its parents, in parent order (empty unless keys are
/// gathered).
type Expanded<T> = (Vec<usize>, Vec<Cand<T>>, Vec<u128>);

/// The calling thread's ends of one helper expander: where it sends a
/// level's frontier positions, and where the helper hands back its share.
type Helper<T> = (Sender<Range<usize>>, Receiver<Expanded<T>>);

/// Why the pool's lock or a channel of it failed: only an expander's panic
/// poisons the one or closes the other.
const POISONED: &str = "an expander panicked";

impl<S> Expander<'_, S>
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    /// Expands the parents at positions `first`, `first + stride`, … of
    /// the frontier `explored.order[level]`.
    ///
    /// Each successor is made with one [`SharedSystem::successor_with`]
    /// call, which also hands over the consumption whose view keys the
    /// parent's record needs, and keyed once. It is counted as routed to
    /// its key's shard before anything else: `routed` means every
    /// successor made, whether it is dropped here, at the merge or not at
    /// all, so owned / routed stays the explorer's dedup ratio and does
    /// not depend on where a duplicate happens to be caught. The successor
    /// is then dropped at once if the seen-set holds it. Repeats within
    /// the level are left to the merge.
    fn expand(
        &self,
        explored: &Explored<S::State>,
        level: Range<usize>,
        first: usize,
        stride: usize,
    ) -> Expanded<S::State> {
        let (frontier, seen) = (&explored.order[level], &explored.seen);
        let expands = explored.expands.as_deref();
        let width = self.inputs.len();
        let mut routed = vec![0usize; self.shards];
        let mut survivors: Vec<Cand<S::State>> = Vec::new();
        let mut records: Vec<u128> = Vec::new();
        for p in (first..frontier.len()).step_by(stride) {
            let s = &frontier[p];
            // This parent's key record starts at `at`; input `i`'s
            // consumption keys sit at slot `1 + i`.
            let record = self.keys.map(|k| {
                let at = records.len();
                records.resize(at + (1 + width) * k.colours, 0);
                (k.key)(s, &mut records[at..at + k.colours]);
                (k, at)
            });
            let slot = |at: usize, colours: usize, i_idx: usize| {
                let from = at + (1 + i_idx) * colours;
                from..from + colours
            };
            let mut emit = |i_idx: usize| {
                let input = &self.inputs[i_idx];
                let next = match record {
                    Some((k, at)) => self.sys.successor_with(s, input, |mid| {
                        (k.key)(mid, &mut records[slot(at, k.colours, i_idx)])
                    }),
                    None => self.sys.successor(s, input),
                };
                let key = key_of(self.reduction, &next);
                routed[shard_of(key, self.shards)] += 1;
                if !seen.contains(key, &next) {
                    survivors.push((p, key, next));
                }
            };
            match expands {
                Some(lists) => lists[p].iter().for_each(|&i_idx| emit(i_idx)),
                None => (0..width).for_each(emit),
            }
            // An input the ample set defers makes no successor here, but
            // conditions 3 and 4 still need its consumption's keys.
            if let (Some((k, at)), Some(lists)) = (record, expands) {
                for i_idx in (0..width).filter(|i| !lists[p].contains(i)) {
                    let mid = self.sys.consume(s, &self.inputs[i_idx]);
                    (k.key)(&mid, &mut records[slot(at, k.colours, i_idx)]);
                }
            }
        }
        (routed, survivors, records)
    }

    /// Starts helper expanders `1..shards` in `scope`, for the rest of the
    /// exploration. Helper `w` waits for a level's frontier positions,
    /// expands parents `w`, `w + shards`, … of it under a shared guard of
    /// `explored`, drops the guard and hands its share back. It exits when
    /// the calling thread drops its ends, which also happens when the
    /// calling thread panics, so no helper is ever left waiting.
    fn start_helpers<'scope, 'env>(
        &'env self,
        scope: &'scope Scope<'scope, 'env>,
        explored: &'env RwLock<Explored<S::State>>,
    ) -> Vec<Helper<S::State>> {
        (1..self.shards)
            .map(|w| {
                let (work, levels) = mpsc::channel::<Range<usize>>();
                let (done, shares) = mpsc::channel();
                scope.spawn(move || {
                    for level in levels {
                        let share =
                            self.expand(&explored.read().expect(POISONED), level, w, self.shards);
                        if done.send(share).is_err() {
                            break;
                        }
                    }
                });
                (work, shares)
            })
            .collect()
    }
}

/// Parallel frontier-sharded BFS with the exact discovery order and
/// truncation semantics of [`crate::explore::reachable_states`], threaded
/// through the state-space reduction hooks, with `checker`'s shard count
/// and seen-set policy. With `keys`, it also returns the key record of
/// every state it expanded, filed by state position; states the limit cut
/// off before their expansion have none.
///
/// One scope spans the whole exploration. Its helper expanders start at
/// the first level wide enough to thread and serve every later threaded
/// level; tiny levels (a chain-shaped state space, or fewer successors
/// than threads) run inline, with the same candidates, order and records.
/// Threaded, expander `w` takes the parents at positions `p` with
/// `p % shards == w`, and the calling thread is expander 0. There are no
/// owner threads: each expander drops the successors the seen-set already
/// holds (see [`Expander::expand`]) and hands back the survivors. A panic
/// in any expander panics the exploration.
fn explore<S>(
    checker: &ParallelSeparabilityChecker,
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    reduction: &Reduction<S>,
    keys: Option<&Keys<'_, S::State>>,
) -> (Vec<S::State>, ExploreStats, Vec<u128>)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let shards = checker.shards.max(1);
    // Orbit representatives cannot be compared for exact equality (two
    // distinct states of one orbit must dedup against each other), so a
    // canon hook forces a fingerprint-keyed seen-set.
    let dedup = if reduction.canon.is_some() {
        Dedup::Fingerprint
    } else {
        checker.dedup
    };
    let mut seen: Seen<S::State> = Seen::new(dedup);
    let mut stats = ExploreStats {
        shards,
        per_shard: vec![ShardStats::default(); shards],
        reduction: ReductionStats {
            canon: reduction.canon.is_some(),
            ample: reduction.ample.is_some(),
            ..ReductionStats::default()
        },
        ..ExploreStats::default()
    };
    let mut order: Vec<S::State> = Vec::new();
    let mut records: Vec<u128> = Vec::new();
    let record_len = keys.map_or(0, |k| (1 + inputs.len()) * k.colours);

    // Initial states are always admitted; the limit applies when a state
    // is taken up for expansion, exactly as in the sequential explorer.
    for s in initial {
        let key = key_of(reduction, s);
        if seen.insert(key, s) {
            stats.per_shard[shard_of(key, shards)].owned += 1;
            order.push(s.clone());
        }
    }

    let expander = Expander {
        sys,
        inputs,
        reduction,
        shards,
        keys,
    };
    let explored = RwLock::new(Explored {
        order,
        seen,
        expands: None,
    });
    std::thread::scope(|scope| {
        let mut pool: Vec<Helper<S::State>> = Vec::new();
        let mut cursor = 0usize;
        'levels: loop {
            // Take up the next level, under the write guard.
            let (level, ways) = {
                let mut at = explored.write().expect(POISONED);
                let at = &mut *at;
                if cursor == at.order.len() {
                    break;
                }
                if at.order.len() >= limit {
                    // Unexpanded states remain: the sequential explorer
                    // would stop at its next pop.
                    stats.truncated = true;
                    break;
                }
                stats.levels += 1;
                let level = cursor..at.order.len();
                let width = level.len();
                stats.max_frontier = stats.max_frontier.max(width);

                // Round-robin expansion: which thread *expands* a parent is
                // pure load balancing, so no hash is needed here.
                for p in 0..width {
                    stats.per_shard[p % shards].expanded += 1;
                }

                // Ample-set selection happens up front, single-threaded and
                // in frontier order, so skip counters and expansion lists
                // are identical for every shard count.
                at.expands = reduction.ample.map(|ample| {
                    at.order[level.clone()]
                        .iter()
                        .map(|s| ample(s, inputs).indices(inputs.len()))
                        .collect()
                });
                if let Some(lists) = &at.expands {
                    stats.reduction.ample_skips += lists
                        .iter()
                        .map(|l| (inputs.len() - l.len()) as u64)
                        .sum::<u64>();
                }
                let threaded = shards > 1 && width * inputs.len() >= shards * 8;
                (level, if threaded { shards } else { 1 })
            };

            // Expand on `ways` expanders: the calling thread is expander 0
            // and the helpers, started at the first threaded level, are the
            // rest. The calling thread's guard is gone before it waits.
            if ways > 1 && pool.is_empty() {
                pool = expander.start_helpers(scope, &explored);
            }
            let helpers = &pool[..ways - 1];
            for (work, _) in helpers {
                work.send(level.clone()).expect(POISONED);
            }
            let at = explored.read().expect(POISONED);
            let mut expanded = vec![expander.expand(&at, level.clone(), 0, ways)];
            drop(at);
            expanded.extend(
                helpers
                    .iter()
                    .map(|(_, share)| share.recv().expect(POISONED)),
            );

            // Every helper has handed back its share and dropped its guard:
            // the merge writes uncontended.
            let mut at = explored.write().expect(POISONED);
            let at = &mut *at;
            let width = level.len();
            // Expander `w` of `ways` made the records of parents `w`,
            // `w + ways`, … in that order; file them by position. Every
            // parent of the level has one, even one the merge below cuts
            // off, so the records stay a prefix of `order`.
            if record_len > 0 {
                for p in 0..width {
                    let from = p / ways * record_len;
                    records.extend_from_slice(&expanded[p % ways].2[from..from + record_len]);
                }
            }
            let mut runs = Vec::with_capacity(ways);
            for (routed, cands, _) in expanded {
                for (st, n) in stats.per_shard.iter_mut().zip(routed) {
                    st.routed += n;
                }
                runs.push(cands.into_iter().peekable());
            }

            // Deterministic merge, and the level's one keep-first pass:
            // walk the parents in frontier order, re-applying the
            // sequential truncation rule before each, and commit each of
            // the parent's survivors the seen-set does not yet hold.
            // Expander `p % ways` made parent `p`'s survivors, in input
            // order, right after those of parent `p - ways`, so its list
            // yields them next. A state made twice in one level is
            // committed at its first (parent, input), as the sequential
            // explorer would. Each survivor is moved into `order`; under
            // fingerprint dedup the seen-set keeps only its 16-byte key, so
            // a discovered state is allocated exactly once.
            for p in 0..width {
                if at.order.len() >= limit {
                    stats.truncated = true;
                    break 'levels;
                }
                cursor += 1;
                let run = &mut runs[p % ways];
                while let Some((_, key, s)) = run.next_if(|(parent, _, _)| *parent == p) {
                    if at.seen.insert(key, &s) {
                        stats.per_shard[shard_of(key, shards)].owned += 1;
                        at.order.push(s);
                    }
                }
            }
        }
    });

    let order = explored.into_inner().expect(POISONED).order;
    stats.states = order.len();
    if dedup == Dedup::Fingerprint {
        // One 16-byte key per committed state.
        stats.fp_states = order.len() as u64;
        stats.fp_bytes = 16 * stats.fp_states;
    }
    (order, stats, records)
}

/// The parallel analogue of [`crate::explore::reachable_states`]: same
/// returned state order and truncation flag for every `shards` value.
pub fn par_reachable_states<S>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    shards: usize,
) -> (Vec<S::State>, bool)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    par_reachable_states_with(sys, initial, inputs, limit, shards, Dedup::default())
}

/// [`par_reachable_states`] with an explicit seen-set policy.
pub fn par_reachable_states_with<S>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    shards: usize,
    dedup: Dedup,
) -> (Vec<S::State>, bool)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let (order, stats) = par_reachable_states_reduced(
        sys,
        initial,
        inputs,
        limit,
        shards,
        dedup,
        &Reduction::none(),
    );
    (order, stats.truncated)
}

/// [`par_reachable_states_with`] threaded through the state-space
/// reduction hooks of [`crate::canon`], returning the full exploration
/// statistics (including [`ReductionStats`]).
///
/// With `Reduction::none()` this returns exactly the states of
/// [`par_reachable_states_with`]; the shard-invariance of the output and
/// the stats projection is pinned by `explore_determinism`.
pub fn par_reachable_states_reduced<S>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    shards: usize,
    dedup: Dedup,
    reduction: &Reduction<S>,
) -> (Vec<S::State>, ExploreStats)
where
    S: SharedSystem + Sync,
    S::State: Send + Sync,
    S::Input: Sync,
{
    let checker = ParallelSeparabilityChecker::new(shards).with_dedup(dedup);
    let (order, stats, _) = explore(&checker, sys, initial, inputs, limit, reduction, None);
    (order, stats)
}

/// The parallel Proof of Separability checker.
///
/// Report-identical to [`crate::check::SeparabilityChecker`] for every
/// shard count (see the `differential_checker` test suite), and faster:
/// exploration is sharded across threads, and the condition pass shares
/// successors, consumptions and outputs across abstractions instead of
/// recomputing them per colour.
#[derive(Debug, Clone)]
pub struct ParallelSeparabilityChecker {
    /// Expander threads for exploration (1 = single-threaded, still using
    /// the sharded data path). The condition pass that follows is
    /// single-threaded at every count.
    pub shards: usize,
    /// Seen-set policy during exploration: 16-byte fingerprints (default)
    /// or full resident states.
    pub dedup: Dedup,
}

impl ParallelSeparabilityChecker {
    /// A checker with `shards` expanders.
    pub fn new(shards: usize) -> ParallelSeparabilityChecker {
        ParallelSeparabilityChecker {
            shards: shards.max(1),
            dedup: Dedup::default(),
        }
    }

    /// Selects the exploration seen-set policy.
    pub fn with_dedup(mut self, dedup: Dedup) -> ParallelSeparabilityChecker {
        self.dedup = dedup;
        self
    }

    /// Checks all six conditions over the system's own (finite) state set,
    /// like [`SeparabilityChecker::check`](crate::check::SeparabilityChecker::check).
    /// Nothing is explored, so the condition pass keys every view itself.
    pub fn check<S, A>(&self, sys: &S, abstractions: &[A]) -> CheckReport
    where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        let states = sys.states();
        let inputs = sys.inputs();
        let ops = sys.ops();
        self.check_states(sys, abstractions, &states, &inputs, &ops, Vec::new())
    }

    /// Explores reachable states with the parallel sharded BFS, then checks
    /// the six conditions over them. Returns the report plus exploration
    /// statistics (frontier depth, per-shard counters).
    ///
    /// The caller decides what truncation means for it; the report covers
    /// whatever prefix was explored, exactly like the sequential checker
    /// run over a truncated `reachable_states` result.
    pub fn check_explored<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        limit: usize,
    ) -> (CheckReport, ExploreStats)
    where
        S: Finite + Projected + Sync,
        S::State: Send + Sync,
        S::Input: Sync,
        A: Abstraction<S> + Sync,
    {
        self.check_explored_reduced(sys, abstractions, initial, limit, &Reduction::none())
    }

    /// [`Self::check_explored`] threaded through the state-space reduction
    /// hooks: exploration prunes by orbit key and ample sets, but every
    /// explored state is still checked against the full input and op
    /// alphabets — reductions shrink the state list, never the per-state
    /// condition coverage.
    pub fn check_explored_reduced<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        limit: usize,
        reduction: &Reduction<S>,
    ) -> (CheckReport, ExploreStats)
    where
        S: Finite + Projected + Sync,
        S::State: Send + Sync,
        S::Input: Sync,
        A: Abstraction<S> + Sync,
    {
        let inputs = sys.inputs();
        let key = |s: &S::State, out: &mut [u128]| {
            for (k, a) in out.iter_mut().zip(abstractions) {
                *k = a.view_key(sys, s);
            }
        };
        let keys = Keys {
            colours: abstractions.len(),
            key: &key,
        };
        let (states, stats, records) =
            explore(self, sys, initial, &inputs, limit, reduction, Some(&keys));
        let ops = sys.ops();
        let report = self.check_states(sys, abstractions, &states, &inputs, &ops, records);
        (report, stats)
    }

    /// The six conditions over an explicit state list, in one
    /// single-threaded pass that meets every check in the sequential
    /// checker's order, so each violation goes straight through the
    /// per-condition cap. `records` holds the key records exploration
    /// gathered for a prefix of `states` (see [`Keys`]); the pass keys the
    /// rest itself.
    fn check_states<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        states: &[S::State],
        inputs: &[S::Input],
        ops: &[S::Op],
        mut records: Vec<u128>,
    ) -> CheckReport
    where
        S: Projected,
        A: Abstraction<S>,
    {
        let mut report = CheckReport {
            states: states.len(),
            ops: ops.len(),
            inputs: inputs.len(),
            ..CheckReport::default()
        };
        let (checks, violations) = (&mut report.checks, &mut report.violations);
        let colours: Vec<S::Colour> = states.iter().map(|s| sys.colour(s)).collect();
        let a_colours: Vec<S::Colour> = abstractions.iter().map(|a| a.colour()).collect();
        let colour_strs: Vec<String> = a_colours.iter().map(|c| format!("{c:?}")).collect();

        // Conditions 1 and 2, state-major across all abstractions: each
        // (state, op) successor is made once and shared by the N colours.
        // The sequential checker meets them abstraction by abstraction, so
        // each abstraction holds its own first violations of each condition,
        // up to the cap, until its turn below.
        let mut held: Vec<Vec<Violation>> = vec![Vec::new(); abstractions.len()];
        for (idx, s) in states.iter().enumerate() {
            for op in ops {
                let after = sys.apply(op, s);
                for (a_idx, a) in abstractions.iter().enumerate() {
                    let (held, colour) = (&mut held[a_idx], &colour_strs[a_idx]);
                    if colours[idx] == a_colours[a_idx] {
                        checks[Condition::OpRespectsAbstraction.index()] += 1;
                        if !a.op_respects(sys, op, s, &after) {
                            record(held, Condition::OpRespectsAbstraction, colour, || {
                                let phi_s = a.phi(sys, s);
                                let abstract_after =
                                    a.apply_abstract(sys, &a.abop(sys, op), &phi_s);
                                witness::op_respects(s, op, &a.phi(sys, &after), &abstract_after)
                            });
                        }
                    } else {
                        checks[Condition::OpInvisibleToInactive.index()] += 1;
                        if !a.phi_eq(sys, &after, s) {
                            record(held, Condition::OpInvisibleToInactive, colour, || {
                                let (before, after) = (a.phi(sys, s), a.phi(sys, &after));
                                witness::op_invisible(s, &colours[idx], op, &before, &after)
                            });
                        }
                    }
                }
            }
        }

        // Key records for the states exploration did not expand: all of
        // them when nothing was explored, the ones past a truncating limit
        // otherwise. Each state's output is made once for condition 5.
        let n = abstractions.len();
        let record_len = (1 + inputs.len()) * n;
        let keyed = records
            .len()
            .checked_div(record_len)
            .unwrap_or(states.len());
        for s in &states[keyed..] {
            records.extend(abstractions.iter().map(|a| a.view_key(sys, s)));
            for i in inputs {
                let mid = sys.consume(s, i);
                records.extend(abstractions.iter().map(|a| a.view_key(sys, &mid)));
            }
        }
        let outputs: Vec<S::Output> = states.iter().map(|s| sys.output(s)).collect();
        let exact = self.dedup == Dedup::Exact;

        for (a_idx, a) in abstractions.iter().enumerate() {
            let c = &a_colours[a_idx];
            let colour = colour_strs[a_idx].as_str();
            for v in std::mem::take(&mut held[a_idx]) {
                record(violations, v.condition, colour, || v.witness);
            }
            let state_key = |idx: usize| records[idx * record_len + a_idx];
            // Whether `INPUT(s, i)` and `INPUT(s', i')`, given as (state,
            // input) positions, give this colour equal views. Unequal keys
            // prove unequal views; exact dedup confirms equal ones on
            // consumptions made afresh.
            let same_input_view = |(s1, i1): (usize, usize), (s2, i2): (usize, usize)| {
                let key = |s: usize, i: usize| records[s * record_len + (1 + i) * n + a_idx];
                key(s1, i1) == key(s2, i2)
                    && (!exact
                        || a.phi_eq(
                            sys,
                            &sys.consume(&states[s1], &inputs[i1]),
                            &sys.consume(&states[s2], &inputs[i2]),
                        ))
            };

            // View groups: `group[idx]` is the first state with state
            // `idx`'s view, the sequential checker's representative. The
            // representatives are bucketed by view key; exact dedup confirms
            // a state against each one in its bucket, as the sequential
            // explorer confirms a state against its seen-set bucket.
            let mut reps: HashMap<u128, Vec<usize>> = HashMap::new();
            let group: Vec<usize> = (0..states.len())
                .map(|idx| {
                    let bucket = reps.entry(state_key(idx)).or_default();
                    let rep = bucket
                        .iter()
                        .copied()
                        .find(|&r| !exact || a.phi_eq(sys, &states[r], &states[idx]));
                    rep.unwrap_or_else(|| {
                        bucket.push(idx);
                        idx
                    })
                })
                .collect();

            // Condition 3.
            let condition = Condition::InputDependsOnlyOnView;
            for (idx, &rep) in group.iter().enumerate() {
                if rep == idx {
                    continue;
                }
                for (i_idx, i) in inputs.iter().enumerate() {
                    checks[condition.index()] += 1;
                    if !same_input_view((idx, i_idx), (rep, i_idx)) {
                        record(violations, condition, colour, || {
                            let (s, r) = (&states[idx], &states[rep]);
                            let via = |s| a.phi(sys, &sys.consume(s, i));
                            witness::input_view(s, r, &a.phi(sys, s), i, &via(s), &via(r))
                        });
                    }
                }
            }

            // Condition 4: each input against the first input with the same
            // EXTRACT(c, i), input-major.
            let condition = Condition::InputDependsOnlyOnOwnComponent;
            let views: Vec<S::View> = inputs.iter().map(|i| sys.extract_input(c, i)).collect();
            for (i_idx, view) in views.iter().enumerate() {
                let Some(rep) = views[..i_idx].iter().position(|v| v == view) else {
                    continue;
                };
                for (s_idx, s) in states.iter().enumerate() {
                    checks[condition.index()] += 1;
                    if !same_input_view((s_idx, i_idx), (s_idx, rep)) {
                        record(violations, condition, colour, || {
                            let (i, r) = (&inputs[i_idx], &inputs[rep]);
                            let via = |i| a.phi(sys, &sys.consume(s, i));
                            witness::input_component(i, r, s, &via(i), &via(r))
                        });
                    }
                }
            }

            // Condition 5, over condition 3's view groups.
            let condition = Condition::OutputDependsOnlyOnView;
            for (idx, &rep) in group.iter().enumerate() {
                if rep == idx {
                    continue;
                }
                checks[condition.index()] += 1;
                let out_s = sys.extract_output(c, &outputs[idx]);
                let out_rep = sys.extract_output(c, &outputs[rep]);
                if out_s != out_rep {
                    record(violations, condition, colour, || {
                        let (s, r) = (&states[idx], &states[rep]);
                        witness::output_view(s, r, &a.phi(sys, s), &out_s, &out_rep)
                    });
                }
            }

            // Condition 6: the colour-`c` states of each view group, keyed by
            // condition 3's group so that no view is grouped twice.
            let condition = Condition::NextOpDependsOnlyOnView;
            let mut firsts: HashMap<usize, usize> = HashMap::new();
            for (idx, &g) in group.iter().enumerate() {
                if colours[idx] != *c {
                    continue;
                }
                let rep = *firsts.entry(g).or_insert(idx);
                if rep == idx {
                    continue;
                }
                checks[condition.index()] += 1;
                let op_s = sys.next_op(&states[idx]);
                let op_rep = sys.next_op(&states[rep]);
                if op_s != op_rep {
                    record(violations, condition, colour, || {
                        let (s, r) = (&states[idx], &states[rep]);
                        witness::next_op(s, r, &a.phi(sys, s), &op_s, &op_rep)
                    });
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::SeparabilityChecker;
    use crate::demo::{DemoAbstraction, DemoColour, DemoMachine, DemoOp, DemoState, Leak};
    use crate::explore::reachable_states;
    use crate::system::Finite;

    /// The demo abstraction with a constant view key: every pair of views
    /// collides, so only the exact-mode confirmation can tell them apart.
    struct Colliding(DemoAbstraction);

    impl Abstraction<DemoMachine> for Colliding {
        type AState = u8;
        type AOp = DemoOp;

        fn colour(&self) -> DemoColour {
            self.0.colour()
        }

        fn phi(&self, sys: &DemoMachine, s: &DemoState) -> u8 {
            self.0.phi(sys, s)
        }

        fn abop(&self, sys: &DemoMachine, op: &DemoOp) -> DemoOp {
            self.0.abop(sys, op)
        }

        fn apply_abstract(&self, sys: &DemoMachine, aop: &DemoOp, a: &u8) -> u8 {
            self.0.apply_abstract(sys, aop, a)
        }

        fn view_key(&self, _sys: &DemoMachine, _s: &DemoState) -> u128 {
            0
        }
    }

    #[test]
    fn exact_dedup_confirms_colliding_view_keys() {
        for leak in Leak::ALL_LEAKS.into_iter().chain([Leak::None]) {
            let m = DemoMachine::leaky(4, leak);
            let colliding = m.abstractions().map(Colliding);
            let seq = SeparabilityChecker::new().check(&m, &m.abstractions());
            for shards in [1, 2, 4] {
                let exact = ParallelSeparabilityChecker::new(shards).with_dedup(Dedup::Exact);
                assert_eq!(
                    seq,
                    exact.check(&m, &colliding),
                    "{leak:?}, {shards} shards"
                );
                // Here exploration gathers the keys, not the pass.
                let (natural, _) = ParallelSeparabilityChecker::new(shards).check_explored(
                    &m,
                    &m.abstractions(),
                    &[m.initial()],
                    100_000,
                );
                let (collided, _) = exact.check_explored(&m, &colliding, &[m.initial()], 100_000);
                assert_eq!(natural, collided, "{leak:?}, {shards} shards, explored");
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_demo() {
        for leak in [Leak::None, Leak::OpWritesForeign, Leak::OutputReadsForeign] {
            let m = DemoMachine::leaky(4, leak);
            let seq = SeparabilityChecker::new().check(&m, &m.abstractions());
            for shards in [1, 2, 4] {
                let par = ParallelSeparabilityChecker::new(shards).check(&m, &m.abstractions());
                assert_eq!(seq, par, "leak {leak:?}, shards {shards}");
            }
        }
    }

    #[test]
    fn par_reachable_matches_sequential_order_and_truncation() {
        let m = DemoMachine::secure(4);
        let inputs = m.inputs();
        let (full, t) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
        assert!(!t);
        for shards in [1, 2, 4, 8] {
            let (par, t) = par_reachable_states(&m, &[m.initial()], &inputs, 100_000, shards);
            assert!(!t);
            assert_eq!(full, par, "shards {shards}");
            // Limit boundaries mirror the sequential flag exactly.
            for limit in [0, 1, full.len() - 1, full.len(), full.len() + 1] {
                let (s_seq, t_seq) = reachable_states(&m, &[m.initial()], &inputs, limit);
                let (s_par, t_par) =
                    par_reachable_states(&m, &[m.initial()], &inputs, limit, shards);
                assert_eq!(s_seq, s_par, "limit {limit}, shards {shards}");
                assert_eq!(t_seq, t_par, "limit {limit}, shards {shards}");
            }
        }
    }

    #[test]
    fn exact_dedup_matches_fingerprint_dedup() {
        let m = DemoMachine::secure(4);
        for shards in [1, 2, 4] {
            let fp = ParallelSeparabilityChecker::new(shards);
            let exact = ParallelSeparabilityChecker::new(shards).with_dedup(Dedup::Exact);
            let (rep_fp, st_fp) = fp.check_explored(&m, &m.abstractions(), &[m.initial()], 100_000);
            let (rep_ex, st_ex) =
                exact.check_explored(&m, &m.abstractions(), &[m.initial()], 100_000);
            assert_eq!(rep_fp, rep_ex, "shards {shards}");
            assert_eq!(st_fp.states, st_ex.states);
            // Fingerprint stats report the 16-byte-per-state footprint.
            assert_eq!(st_fp.fp_states, st_fp.states as u64);
            assert_eq!(st_fp.fp_bytes, 16 * st_fp.states as u64);
            assert_eq!(st_ex.fp_states, 0);
            assert_eq!(st_ex.fp_bytes, 0);
        }
    }

    #[test]
    fn exact_dedup_matches_sequential_order() {
        let m = DemoMachine::secure(4);
        let inputs = m.inputs();
        let (seq, _) = reachable_states(&m, &[m.initial()], &inputs, 100_000);
        for shards in [1, 4] {
            let (par, t) = par_reachable_states_with(
                &m,
                &[m.initial()],
                &inputs,
                100_000,
                shards,
                Dedup::Exact,
            );
            assert!(!t);
            assert_eq!(seq, par, "shards {shards}");
        }
    }
}
