//! State-space reduction hooks: symmetry canonicalization and partial-order
//! ample sets.
//!
//! The explorers in [`crate::explore`] and [`crate::parallel`] are generic
//! over the shared-system model and know nothing about regimes or channels,
//! so the reductions are injected as closures:
//!
//! * **`canon`** maps a state to the 128-bit key of its *orbit
//!   representative* under a symmetry group of the system (for the kernel:
//!   rotations of identical-image regimes). The seen-set and the sharded
//!   explorer's per-shard counters key on the canonical fingerprint, so an
//!   orbit is explored once no matter which member is reached first. The
//!   first member discovered (in deterministic BFS order) *is* the
//!   representative kept — canonicalization changes only the key, never
//!   the stored state, so every check still runs on a genuinely reachable
//!   state.
//! * **`ample`** picks, per state, a subset of the input alphabet to
//!   expand (a partial-order *ample set*). Deferred inputs must commute
//!   with every expanded transition and remain enabled — the provider
//!   (for the kernel: `sep-kernel`'s footprint analysis) owns that
//!   argument; the explorer just honours the subset and falls back to the
//!   full alphabet if the subset comes back empty.
//!
//! Crucially, both reductions prune *which states get explored*, never
//! *what gets checked*: every explored state is still evaluated against
//! the full input and op alphabets by the separability conditions, so
//! per-state condition coverage is unreduced. The reduction soundness
//! suite (`reduction_differential`) pins verdicts across every on/off
//! combination, and the mutant matrix pins that no planted violation
//! escapes through a pruned interleaving.

use crate::system::SharedSystem;

/// The ample-set decision for one state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ample {
    /// Expand the full input alphabet (no reduction at this state).
    All,
    /// Expand only these indices into the input slice. The explorers
    /// expand them through [`Ample::indices`]: ascending and once each,
    /// whatever order the list gives or repeats it holds. An empty subset
    /// is treated as [`Ample::All`] — a selector bug must never silently
    /// drop all successors.
    Subset(Vec<usize>),
}

impl Ample {
    /// The input indices to expand, given the full alphabet length:
    /// ascending and without repeats, so that both explorers expand a state
    /// in one order and count each skipped input once.
    pub fn indices(&self, n: usize) -> Vec<usize> {
        match self {
            Ample::Subset(idx) if !idx.is_empty() => {
                let mut idx = idx.clone();
                idx.sort_unstable();
                idx.dedup();
                idx
            }
            _ => (0..n).collect(),
        }
    }
}

/// Counters reporting how much work each reduction saved.
///
/// All counters are deterministic for a fixed system and reduction
/// configuration — the determinism suite pins them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReductionStats {
    /// Symmetry canonicalization was active.
    pub canon: bool,
    /// Partial-order (ample-set) reduction was active.
    pub ample: bool,
    /// Successor expansions skipped by ample sets: sum over expanded
    /// states of `|alphabet| - |ample|`.
    pub ample_skips: u64,
}

/// Canonical-key function: state → orbit-representative fingerprint.
pub type CanonFn<'a, S> = &'a (dyn Fn(&<S as SharedSystem>::State) -> u128 + Sync);

/// Ample-set selector: (state, full alphabet) → subset to expand.
pub type AmpleFn<'a, S> =
    &'a (dyn Fn(&<S as SharedSystem>::State, &[<S as SharedSystem>::Input]) -> Ample + Sync);

/// The reduction hooks an explorer threads through a sweep. `Reduction::none()`
/// disables everything and makes the reduced entry points behave exactly
/// like the unreduced ones.
pub struct Reduction<'a, S: SharedSystem + ?Sized> {
    /// Canonical-key function: state → orbit-representative fingerprint.
    /// `None` keys states by their own fingerprint (or exact value).
    pub canon: Option<CanonFn<'a, S>>,
    /// Ample-set selector: (state, full alphabet) → subset to expand.
    /// `None` expands the full alphabet everywhere.
    pub ample: Option<AmpleFn<'a, S>>,
}

impl<S: SharedSystem + ?Sized> Reduction<'_, S> {
    /// No reduction: explore exactly as the unreduced entry points do.
    pub fn none() -> Self {
        Reduction {
            canon: None,
            ample: None,
        }
    }

    /// Whether any hook is installed.
    pub fn is_active(&self) -> bool {
        self.canon.is_some() || self.ample.is_some()
    }
}

impl<S: SharedSystem + ?Sized> Default for Reduction<'_, S> {
    fn default() -> Self {
        Reduction::none()
    }
}

impl<S: SharedSystem + ?Sized> Clone for Reduction<'_, S> {
    fn clone(&self) -> Self {
        Reduction {
            canon: self.canon,
            ample: self.ample,
        }
    }
}

impl<S: SharedSystem + ?Sized> std::fmt::Debug for Reduction<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("canon", &self.canon.is_some())
            .field("ample", &self.ample.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo::DemoMachine;

    #[test]
    fn ample_all_and_empty_subset_expand_everything() {
        assert_eq!(Ample::All.indices(3), vec![0, 1, 2]);
        assert_eq!(Ample::Subset(vec![]).indices(3), vec![0, 1, 2]);
        assert_eq!(Ample::Subset(vec![1]).indices(3), vec![1]);
    }

    #[test]
    fn subsets_expand_ascending_and_once() {
        assert_eq!(Ample::Subset(vec![2, 0]).indices(3), vec![0, 2]);
        assert_eq!(Ample::Subset(vec![1, 1, 0, 1]).indices(3), vec![0, 1]);
    }

    #[test]
    fn none_reduction_is_inactive() {
        let r = Reduction::<DemoMachine>::none();
        assert!(!r.is_active());
        assert!(r.canon.is_none() && r.ample.is_none());
    }
}
