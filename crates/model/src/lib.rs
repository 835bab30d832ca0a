//! The formal model and verification techniques of Rushby's paper.
//!
//! This crate implements, executably, the Appendix of *Design and
//! Verification of Secure Systems* (SOSP 1981):
//!
//! * [`system`] — the shared-system model: states `S`, operations `OPS`,
//!   inputs `I`, outputs `O`, and the functions `INPUT`, `OUTPUT`, `NEXTOP`,
//!   `COLOUR`, `EXTRACT`.
//! * [`abstraction`] — per-colour abstraction functions `Φ^c` and `ABOP^c`
//!   mapping the concrete machine onto each regime's private *abstract*
//!   machine.
//! * [`check`] — the **Proof of Separability** checker: verifies the six
//!   conditions of the Appendix exhaustively over a finite state space,
//!   producing counterexamples that name the violated condition.
//! * [`explore`] — reachable-state enumeration and statistical (sampled)
//!   checking for systems too large to enumerate.
//! * [`canon`] — state-space reduction hooks: symmetry canonicalization
//!   (orbit-representative fingerprints) and partial-order ample sets, both
//!   injected into both explorers as closures and pinned sound by the
//!   reduction differential suite.
//! * [`parallel`] — the frontier-sharded parallel checker: report-identical
//!   to [`check`]'s sequential checker for every shard count (proved by the
//!   differential test suite), over one in-memory seen-set.
//! * [`objects`] / [`cut`] — shared-object systems and the paper's "cut the
//!   wires" argument: alias each permitted channel object into two private
//!   ends, then prove the cut system enforces *isolation*; it follows that
//!   the permitted channels were the only channels.
//! * [`trace`] — per-colour observation traces and equivalence checking,
//!   used to demonstrate that regimes cannot distinguish a separation-kernel
//!   environment from a physically distributed one.
//! * [`demo`] — a small two-colour demonstration machine (secure and leaky
//!   variants) used in tests, documentation, and benchmarks.

#![forbid(unsafe_code)]

pub mod abstraction;
pub mod canon;
pub mod check;
pub mod cut;
pub mod demo;
pub mod explore;
pub mod fp;
pub mod objects;
pub mod parallel;
pub mod rng;
pub mod system;
pub mod trace;

pub use abstraction::Abstraction;
pub use canon::{Ample, Reduction, ReductionStats};
pub use check::{CheckReport, Condition, SeparabilityChecker, Violation};
pub use cut::{CutSystem, InterferenceWitness};
pub use explore::{
    reachable_states, reachable_states_reduced, reachable_states_with, SampledChecker,
};
pub use fp::{fingerprint, Dedup};
pub use objects::{ObjRef, ObjectSystem, OpDecl, Value};
pub use parallel::{
    par_reachable_states, par_reachable_states_reduced, par_reachable_states_with, ExploreStats,
    ParallelSeparabilityChecker, ShardStats,
};
pub use system::{Finite, Projected, SharedSystem};
pub use trace::{first_divergence, ColourTrace, TraceSet};
