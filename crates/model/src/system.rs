//! The shared-system model of the paper's Appendix.
//!
//! > "The model comprises a finite set S of *states* and a set OPS ⊆ S → S of
//! > *operations* on those states. The system interacts with its environment
//! > by consuming elements of a set I of *inputs* and producing elements of a
//! > set O of *outputs*. At each time step, the system emits an output and
//! > changes state."
//!
//! State changes occur in two stages: first the receipt of an input
//! (`INPUT : S × I → S`), then the selection (`NEXTOP : S → OPS`) and
//! execution of an operation. The identity of the *active* user — the colour
//! on whose behalf instructions are currently executed — is a function of the
//! state itself (`COLOUR : S → C`), which is exactly what makes a kernel an
//! *interpreter* rather than an input-tagged transducer, and exactly what the
//! Feiertag-style models the paper criticises cannot express.

use core::fmt::Debug;
use core::hash::Hash;

/// A shared system in the sense of the paper's Appendix.
///
/// Implementors include the demonstration machine ([`crate::demo`]),
/// scheduled shared-object systems ([`crate::objects`]), and — in the
/// `sep-kernel` crate — the full separation kernel running on the simulated
/// machine.
pub trait SharedSystem {
    /// The concrete state space `S`.
    type State: Clone + Eq + Hash + Debug;
    /// The input alphabet `I`.
    type Input: Clone + Debug;
    /// The output alphabet `O`.
    type Output: Clone + Eq + Debug;
    /// The set of colours (users/regimes) `C`.
    type Colour: Clone + Eq + Ord + Hash + Debug;
    /// Identities of operations in `OPS`.
    type Op: Clone + Eq + Debug;

    /// The colours supported by this system.
    fn colours(&self) -> Vec<Self::Colour>;

    /// `COLOUR(s)`: the user on whose behalf the next operation will run.
    fn colour(&self, s: &Self::State) -> Self::Colour;

    /// `OUTPUT(s)`: the output emitted in state `s`.
    fn output(&self, s: &Self::State) -> Self::Output;

    /// `INPUT(s, i)`: the intermediate state after consuming input `i`.
    fn consume(&self, s: &Self::State, i: &Self::Input) -> Self::State;

    /// `NEXTOP(s)`: the operation selected for execution in state `s`.
    fn next_op(&self, s: &Self::State) -> Self::Op;

    /// Applies operation `op` to state `s` (the function `op : S → S`).
    fn apply(&self, op: &Self::Op, s: &Self::State) -> Self::State;

    /// The state after one full time step from `s` on input `i`: consume
    /// `i`, then execute `NEXTOP` of the intermediate state. Explorers
    /// call this, not [`SharedSystem::step`], because they discard the
    /// output.
    ///
    /// Implementors may override it to build the successor without the
    /// intermediate state, provided the result equals
    /// `apply(next_op(consume(s, i)), consume(s, i))`.
    fn successor(&self, s: &Self::State, i: &Self::Input) -> Self::State {
        let mid = self.consume(s, i);
        let op = self.next_op(&mid);
        self.apply(&op, &mid)
    }

    /// One full time step: emit `OUTPUT(s)`, then move to
    /// [`SharedSystem::successor`].
    fn step(&self, s: &Self::State, i: &Self::Input) -> (Self::Output, Self::State) {
        (self.output(s), self.successor(s, i))
    }

    /// Runs the system for `inputs.len()` steps from `s0`, returning the
    /// sequence of outputs and the final state.
    fn run(&self, s0: &Self::State, inputs: &[Self::Input]) -> (Vec<Self::Output>, Self::State) {
        let mut state = s0.clone();
        let mut outputs = Vec::with_capacity(inputs.len());
        for i in inputs {
            let (o, next) = self.step(&state, i);
            outputs.push(o);
            state = next;
        }
        (outputs, state)
    }
}

/// The `EXTRACT` projection: inputs and outputs of a shared system are
/// composed of components private to each colour.
pub trait Projected: SharedSystem {
    /// The type of a single colour's view of an input or output.
    type View: Clone + Eq + Debug;

    /// `EXTRACT(c, i)`: the `c`-coloured component of input `i`.
    fn extract_input(&self, c: &Self::Colour, i: &Self::Input) -> Self::View;

    /// `EXTRACT(c, o)`: the `c`-coloured component of output `o`.
    fn extract_output(&self, c: &Self::Colour, o: &Self::Output) -> Self::View;
}

/// A system whose state, input, and operation sets can be enumerated, making
/// exhaustive Proof of Separability possible.
pub trait Finite: SharedSystem {
    /// The states over which the six conditions are checked (typically the
    /// reachable set; see [`crate::explore::reachable_states`]).
    fn states(&self) -> Vec<Self::State>;

    /// The input alphabet `I`.
    fn inputs(&self) -> Vec<Self::Input>;

    /// The operation set `OPS`.
    fn ops(&self) -> Vec<Self::Op>;
}
