//! Per-colour abstraction functions `Φ^c` and `ABOP^c`.
//!
//! > "For a shared system to be *secure*, the input/output behaviour
//! > perceived by each user must be completely consistent with that which
//! > could be provided by a non-shared system dedicated to his exclusive
//! > use."
//!
//! Each user `c` produces a set of `c`-coloured abstract states and abstract
//! operations together with abstraction functions `Φ^c : S → S^c` and
//! `ABOP^c : OPS → OPS^c`. The six conditions of the Appendix — checked by
//! [`crate::check::SeparabilityChecker`] — relate these abstractions to the
//! concrete system.

use crate::fp::fingerprint;
use crate::system::SharedSystem;
use core::fmt::Debug;
use core::hash::Hash;

/// An abstraction of a shared system onto one colour's private machine.
///
/// One value of this trait's implementor is supplied per colour; the checker
/// asks it for `Φ^c`, `ABOP^c`, and the abstract machine's own transition
/// function (needed to evaluate condition 1's right-hand side
/// `ABOP^c(op)(Φ^c(s))`).
pub trait Abstraction<S: SharedSystem> {
    /// The abstract state space `S^c`.
    type AState: Clone + Eq + Hash + Debug;
    /// The abstract operation set `OPS^c`.
    type AOp: Clone + Eq + Debug;

    /// The colour whose view this abstraction captures.
    fn colour(&self) -> S::Colour;

    /// `Φ^c(s)`: this colour's view of concrete state `s`.
    fn phi(&self, sys: &S, s: &S::State) -> Self::AState;

    /// `ABOP^c(op)`: the abstract operation corresponding to concrete `op`.
    fn abop(&self, sys: &S, op: &S::Op) -> Self::AOp;

    /// Applies an abstract operation on the abstract machine.
    fn apply_abstract(&self, sys: &S, aop: &Self::AOp, a: &Self::AState) -> Self::AState;

    /// Whether two concrete states project to the same abstract state:
    /// `Φ^c(s1) = Φ^c(s2)`.
    ///
    /// The default materialises both views and compares them. Abstractions
    /// whose views are expensive to build (the kernel's
    /// `RegimeProjection` clones an 8 KiB partition) can override this with
    /// an in-place comparison; any override **must** agree exactly with
    /// `self.phi(sys, s1) == self.phi(sys, s2)`. The sharded checker's
    /// condition pass decides condition 2 with it, and under
    /// [`Dedup::Exact`](crate::fp::Dedup::Exact) confirms every equal
    /// [`Abstraction::view_key`] pair with it before acting on it.
    fn phi_eq(&self, sys: &S, s1: &S::State, s2: &S::State) -> bool {
        self.phi(sys, s1) == self.phi(sys, s2)
    }

    /// Condition 1 at state `s` and operation `op`, for this colour active
    /// at `s`: whether `Φ^c(after) = ABOP^c(op)(Φ^c(s))`, where `after` is
    /// `op(s)`.
    ///
    /// The default materialises the three views and compares them.
    /// Abstractions whose views are expensive to build can override it to
    /// run the abstract machine from `s` and compare in place; any override
    /// **must** agree exactly with the default. The sharded checker's
    /// condition pass decides condition 1 with it and materialises views
    /// only to write a violation's witness.
    fn op_respects(&self, sys: &S, op: &S::Op, s: &S::State, after: &S::State) -> bool {
        self.phi(sys, after) == self.apply_abstract(sys, &self.abop(sys, op), &self.phi(sys, s))
    }

    /// A 128-bit key of `Φ^c(s)`, by which the sharded checker groups
    /// views for conditions 3–6.
    ///
    /// The key must be a function of `Φ^c(s)` alone, so that unequal keys
    /// prove unequal views; equal keys mean equal views up to a
    /// fingerprint collision. The default fingerprints the materialised
    /// view. Abstractions with expensive views can override it to hash the
    /// view's fields in place, through [`fingerprint`] and no weaker than
    /// the explorer's seen-set keys.
    fn view_key(&self, sys: &S, s: &S::State) -> u128 {
        fingerprint(&self.phi(sys, s))
    }
}
