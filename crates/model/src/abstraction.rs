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
    /// `self.phi(sys, s1) == self.phi(sys, s2)` — the sharded checker's
    /// condition pass relies on that agreement to stay report-identical to
    /// the sequential one, and only materialises views when it needs a
    /// witness.
    fn phi_eq(&self, sys: &S, s1: &S::State, s2: &S::State) -> bool {
        self.phi(sys, s1) == self.phi(sys, s2)
    }
}

/// A convenient closure-based [`Abstraction`] for systems whose abstract
/// operations can be represented as functions of the abstract state.
///
/// `phi` gives `Φ^c`; `abop` names the abstract operation; `apply` executes
/// it. This covers every use in this repository — richer implementations can
/// implement the trait directly.
pub struct FnAbstraction<S: SharedSystem, A, P, B, X>
where
    A: Clone + Eq + Hash + Debug,
{
    colour: S::Colour,
    phi: P,
    abop: B,
    apply: X,
    _marker: core::marker::PhantomData<A>,
}

impl<S, A, P, B, X> FnAbstraction<S, A, P, B, X>
where
    S: SharedSystem,
    A: Clone + Eq + Hash + Debug,
    P: Fn(&S, &S::State) -> A,
    B: Fn(&S, &S::Op) -> String,
    X: Fn(&S, &str, &A) -> A,
{
    /// Builds an abstraction for `colour` from the three closures.
    pub fn new(colour: S::Colour, phi: P, abop: B, apply: X) -> Self {
        FnAbstraction {
            colour,
            phi,
            abop,
            apply,
            _marker: core::marker::PhantomData,
        }
    }
}

impl<S, A, P, B, X> Abstraction<S> for FnAbstraction<S, A, P, B, X>
where
    S: SharedSystem,
    A: Clone + Eq + Hash + Debug,
    P: Fn(&S, &S::State) -> A,
    B: Fn(&S, &S::Op) -> String,
    X: Fn(&S, &str, &A) -> A,
{
    type AState = A;
    type AOp = String;

    fn colour(&self) -> S::Colour {
        self.colour.clone()
    }

    fn phi(&self, sys: &S, s: &S::State) -> A {
        (self.phi)(sys, s)
    }

    fn abop(&self, sys: &S, op: &S::Op) -> String {
        (self.abop)(sys, op)
    }

    fn apply_abstract(&self, sys: &S, aop: &String, a: &A) -> A {
        (self.apply)(sys, aop, a)
    }
}
