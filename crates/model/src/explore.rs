//! State-space exploration: reachability and sampled checking.
//!
//! The exhaustive checker in [`crate::check`] needs a finite state set. For
//! small systems this can be written down; for realistic ones we compute the
//! set of states *reachable* from the initial states under all inputs
//! ([`reachable_states`]), or — when even that is too large — fall back to a
//! reproducible randomized search ([`SampledChecker`]) that checks the six
//! conditions along random walks. A sampled pass proves nothing, but in
//! practice it finds the same kernel bugs the exhaustive pass finds (see
//! experiment E2), orders of magnitude faster.

use crate::abstraction::Abstraction;
use crate::canon::{Reduction, ReductionStats};
use crate::check::{record, CheckReport, Condition};
use crate::fp::{fingerprint, Dedup};
use crate::rng::SplitMix64;
use crate::system::{Projected, SharedSystem};
use std::collections::{HashMap, HashSet, VecDeque};

/// Computes the set of states reachable from `initial` by any sequence of
/// full steps (input consumption followed by operation execution), bounded
/// by `limit` states.
///
/// Returns the reachable set in discovery (BFS) order and a flag that is
/// `true` when exploration was truncated by the limit. States are
/// deduplicated by 128-bit fingerprint ([`Dedup::Fingerprint`]); use
/// [`reachable_states_with`] to select exact dedup instead — the
/// `explore_determinism` suite pins both to the identical order.
pub fn reachable_states<S: SharedSystem>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
) -> (Vec<S::State>, bool) {
    reachable_states_with(sys, initial, inputs, limit, Dedup::default())
}

/// [`reachable_states`] with an explicit seen-set policy.
///
/// Each discovered state is stored exactly once, in `order`; the queue
/// holds indices into it and the seen-set holds fingerprints (mapped to
/// the indices sharing them, so [`Dedup::Exact`] can confirm equality
/// against the stored state without keeping a second copy).
pub fn reachable_states_with<S: SharedSystem>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    dedup: Dedup,
) -> (Vec<S::State>, bool) {
    let (order, truncated, _) =
        reachable_states_reduced(sys, initial, inputs, limit, dedup, &Reduction::none());
    (order, truncated)
}

/// [`reachable_states_with`] threaded through the state-space reduction
/// hooks of [`crate::canon`].
///
/// With `Reduction::none()` this is exactly [`reachable_states_with`];
/// with a `canon` hook the seen-set keys become orbit-representative
/// fingerprints (one member per symmetry orbit is explored — the first
/// discovered, so the output stays deterministic); with an `ample` hook
/// only the selected input subset is expanded per state. The returned
/// [`ReductionStats`] quantifies the pruning.
pub fn reachable_states_reduced<S: SharedSystem>(
    sys: &S,
    initial: &[S::State],
    inputs: &[S::Input],
    limit: usize,
    dedup: Dedup,
    reduction: &Reduction<S>,
) -> (Vec<S::State>, bool, ReductionStats) {
    let mut stats = ReductionStats {
        canon: reduction.canon.is_some(),
        ample: reduction.ample.is_some(),
        ..ReductionStats::default()
    };
    let mut seen: HashMap<u128, Vec<usize>> = HashMap::new();
    let mut order: Vec<S::State> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    for s in initial {
        if let Some(idx) = admit(dedup, reduction, &mut seen, &mut order, s.clone()) {
            queue.push_back(idx);
        }
    }
    while let Some(at) = queue.pop_front() {
        if order.len() >= limit {
            return (order, true, stats);
        }
        match reduction.ample {
            Some(ample) => {
                let expand = ample(&order[at], inputs).indices(inputs.len());
                stats.ample_skips += (inputs.len() - expand.len()) as u64;
                for ii in expand {
                    let next = sys.successor(&order[at], &inputs[ii]);
                    if let Some(idx) = admit(dedup, reduction, &mut seen, &mut order, next) {
                        queue.push_back(idx);
                    }
                }
            }
            None => {
                for i in inputs {
                    let next = sys.successor(&order[at], i);
                    if let Some(idx) = admit(dedup, reduction, &mut seen, &mut order, next) {
                        queue.push_back(idx);
                    }
                }
            }
        }
    }
    (order, false, stats)
}

/// Commits `next` to `order` if it is new under `dedup`, returning its
/// index. The state is moved in, never cloned: successors come out of
/// `successor` by value, so discovery costs one state allocation total (the
/// old seen/order/queue triplication cost three).
///
/// Under a `canon` hook the key is the orbit-representative fingerprint
/// and novelty is key-only for *both* dedup policies: two distinct states
/// of one orbit must collide, so exact state comparison would defeat the
/// reduction (documented in DESIGN.md §reduction).
fn admit<S: SharedSystem>(
    dedup: Dedup,
    reduction: &Reduction<S>,
    seen: &mut HashMap<u128, Vec<usize>>,
    order: &mut Vec<S::State>,
    next: S::State,
) -> Option<usize> {
    let key = match reduction.canon {
        Some(canon) => canon(&next),
        None => fingerprint(&next),
    };
    let bucket = seen.entry(key).or_default();
    let novel = match dedup {
        Dedup::Exact if reduction.canon.is_none() => !bucket.iter().any(|&i| order[i] == next),
        _ => bucket.is_empty(),
    };
    if !novel {
        return None;
    }
    let idx = order.len();
    bucket.push(idx);
    order.push(next);
    Some(idx)
}

/// A reproducible randomized checker for systems too large to enumerate.
///
/// The checker performs random walks from the initial states. At each visited
/// state it evaluates:
///
/// * conditions 1 and 2 for the operation actually selected;
/// * conditions 3–6 against previously-visited states with the same view
///   (maintained per colour in a view table).
#[derive(Debug, Clone)]
pub struct SampledChecker {
    /// PRNG seed; equal seeds give identical runs.
    pub seed: u64,
    /// Number of random walks.
    pub walks: usize,
    /// Steps per walk.
    pub steps: usize,
}

impl Default for SampledChecker {
    fn default() -> Self {
        SampledChecker {
            seed: 0x5E9A_4AB1,
            walks: 64,
            steps: 256,
        }
    }
}

impl SampledChecker {
    /// Creates a sampled checker with the given seed and effort.
    pub fn new(seed: u64, walks: usize, steps: usize) -> Self {
        SampledChecker { seed, walks, steps }
    }

    /// Runs the sampled check.
    pub fn check<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        initial: &[S::State],
        inputs: &[S::Input],
    ) -> CheckReport
    where
        S: Projected,
        A: Abstraction<S>,
    {
        assert!(
            !initial.is_empty(),
            "sampled check needs at least one initial state"
        );
        assert!(!inputs.is_empty(), "sampled check needs at least one input");
        let mut rng = SplitMix64::new(self.seed);
        let mut report = CheckReport::default();
        // Per abstraction: map from view to a representative (state kept for
        // condition 3/5/6 cross-checks).
        let mut view_tables: Vec<HashMap<A::AState, S::State>> =
            abstractions.iter().map(|_| HashMap::new()).collect();
        let mut visited: HashSet<S::State> = HashSet::new();

        for _ in 0..self.walks {
            let mut state = initial[rng.below(initial.len())].clone();
            for _ in 0..self.steps {
                let input = &inputs[rng.below(inputs.len())];
                self.check_state(
                    sys,
                    abstractions,
                    &state,
                    input,
                    inputs,
                    &mut view_tables,
                    &mut report,
                );
                if visited.insert(state.clone()) {
                    report.states += 1;
                }
                state = sys.successor(&state, input);
            }
        }
        report.inputs = inputs.len();
        report
    }

    /// Evaluates all six conditions at a single state.
    #[allow(clippy::too_many_arguments)]
    fn check_state<S, A>(
        &self,
        sys: &S,
        abstractions: &[A],
        s: &S::State,
        input: &S::Input,
        inputs: &[S::Input],
        view_tables: &mut [HashMap<A::AState, S::State>],
        report: &mut CheckReport,
    ) where
        S: Projected,
        A: Abstraction<S>,
    {
        let active = sys.colour(s);
        let mid = sys.consume(s, input);
        let op = sys.next_op(&mid);
        let after = sys.apply(&op, &mid);

        for (a, table) in abstractions.iter().zip(view_tables.iter_mut()) {
            let c = a.colour();
            let colour_str = format!("{c:?}");
            let phi_mid = a.phi(sys, &mid);
            let phi_after = a.phi(sys, &after);

            // Conditions 1 / 2 on the executed operation.
            if sys.colour(&mid) == c {
                report.checks[Condition::OpRespectsAbstraction.index()] += 1;
                let abstract_after = a.apply_abstract(sys, &a.abop(sys, &op), &phi_mid);
                if phi_after != abstract_after {
                    record(
                        &mut report.violations,
                        Condition::OpRespectsAbstraction,
                        &colour_str,
                        || {
                            format!("state {mid:?}, op {op:?}: Φ(op(s)) = {phi_after:?} ≠ ABOP(op)(Φ(s)) = {abstract_after:?}")
                        },
                    );
                }
            } else {
                report.checks[Condition::OpInvisibleToInactive.index()] += 1;
                if phi_after != phi_mid {
                    record(
                        &mut report.violations,
                        Condition::OpInvisibleToInactive,
                        &colour_str,
                        || {
                            format!("state {mid:?} (active {active:?}), op {op:?} changed view {phi_mid:?} → {phi_after:?}")
                        },
                    );
                }
            }

            // Cross-state conditions against the stored representative with
            // the same view.
            let phi_s = a.phi(sys, s);
            if let Some(rep) = table.get(&phi_s) {
                if rep != s {
                    // Condition 3.
                    report.checks[Condition::InputDependsOnlyOnView.index()] += 1;
                    let via_rep = a.phi(sys, &sys.consume(rep, input));
                    if phi_mid != via_rep {
                        record(
                            &mut report.violations,
                            Condition::InputDependsOnlyOnView,
                            &colour_str,
                            || {
                                format!("states {s:?} / {rep:?} share view but input {input:?} separates them")
                            },
                        );
                    }
                    // Condition 5.
                    report.checks[Condition::OutputDependsOnlyOnView.index()] += 1;
                    let out_s = sys.extract_output(&c, &sys.output(s));
                    let out_rep = sys.extract_output(&c, &sys.output(rep));
                    if out_s != out_rep {
                        record(
                            &mut report.violations,
                            Condition::OutputDependsOnlyOnView,
                            &colour_str,
                            || {
                                format!("states {s:?} / {rep:?} share view but outputs differ: {out_s:?} vs {out_rep:?}")
                            },
                        );
                    }
                    // Condition 6.
                    if sys.colour(s) == c && sys.colour(rep) == c {
                        report.checks[Condition::NextOpDependsOnlyOnView.index()] += 1;
                        let op_s = sys.next_op(s);
                        let op_rep = sys.next_op(rep);
                        if op_s != op_rep {
                            record(
                                &mut report.violations,
                                Condition::NextOpDependsOnlyOnView,
                                &colour_str,
                                || {
                                    format!("states {s:?} / {rep:?} share view but NEXTOP differs: {op_s:?} vs {op_rep:?}")
                                },
                            );
                        }
                    }
                }
            } else {
                table.insert(phi_s, s.clone());
            }

            // Condition 4: vary the input among those with the same
            // c-component.
            let my_view = sys.extract_input(&c, input);
            for other in inputs {
                if sys.extract_input(&c, other) == my_view {
                    report.checks[Condition::InputDependsOnlyOnOwnComponent.index()] += 1;
                    let via_other = a.phi(sys, &sys.consume(s, other));
                    if via_other != phi_mid {
                        record(
                            &mut report.violations,
                            Condition::InputDependsOnlyOnOwnComponent,
                            &colour_str,
                            || {
                                format!("inputs {input:?} / {other:?} agree on colour component but separate state {s:?}")
                            },
                        );
                    }
                }
            }
        }
    }
}
