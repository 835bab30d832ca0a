//! The Proof of Separability checker: the six conditions of the Appendix.
//!
//! Conditions (quantified over all colours `c`, states `s, s'`, operations
//! `op`, and inputs `i, i'`):
//!
//! 1. `COLOUR(s) = c  ⊃  Φ^c(op(s)) = ABOP^c(op)(Φ^c(s))`
//! 2. `COLOUR(s) ≠ c  ⊃  Φ^c(op(s)) = Φ^c(s)`
//! 3. `Φ^c(s) = Φ^c(s')  ⊃  Φ^c(INPUT(s,i)) = Φ^c(INPUT(s',i))`
//! 4. `EXTRACT(c,i) = EXTRACT(c,i')  ⊃  Φ^c(INPUT(s,i)) = Φ^c(INPUT(s,i'))`
//! 5. `Φ^c(s) = Φ^c(s')  ⊃  EXTRACT(c,OUTPUT(s)) = EXTRACT(c,OUTPUT(s'))`
//! 6. `COLOUR(s) = COLOUR(s') = c ∧ Φ^c(s) = Φ^c(s')  ⊃  NEXTOP(s) = NEXTOP(s')`
//!
//! Conditions 1 and 2 are the paper's two commutative diagrams; conditions
//! 3–6 are its I/O-device conditions a)–d). The universally-quantified
//! equalities over pairs with equal left-hand sides are checked by the
//! *representative* technique: states (or inputs) are grouped by the
//! hypothesis value, a representative is chosen per group, and every member
//! is compared against its group's representative — equivalent to the
//! pairwise statement by symmetry and transitivity of equality, but linear
//! rather than quadratic per group.

use crate::abstraction::Abstraction;
use crate::system::{Finite, Projected};
use core::fmt;
use std::collections::HashMap;

/// Violations a report keeps per condition; checking goes on past it,
/// counting only.
pub const MAX_VIOLATIONS_PER_CONDITION: usize = 3;

/// Names one of the six conditions of Proof of Separability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Condition {
    /// Condition 1: operations executed on behalf of `c` commute with `Φ^c`.
    OpRespectsAbstraction,
    /// Condition 2: operations executed on behalf of other colours do not
    /// change `c`'s view.
    OpInvisibleToInactive,
    /// Condition 3 (device condition a): input consumption affects `c`'s
    /// view as a function of that view only.
    InputDependsOnlyOnView,
    /// Condition 4 (device condition b): `c`'s view after input depends only
    /// on the `c`-coloured component of the input.
    InputDependsOnlyOnOwnComponent,
    /// Condition 5 (device condition c): `c`'s component of the output is a
    /// function of `c`'s view.
    OutputDependsOnlyOnView,
    /// Condition 6 (device condition d): the next operation executed on
    /// behalf of `c` is a function of `c`'s view.
    NextOpDependsOnlyOnView,
}

impl Condition {
    /// All six conditions in the paper's order.
    pub const ALL: [Condition; 6] = [
        Condition::OpRespectsAbstraction,
        Condition::OpInvisibleToInactive,
        Condition::InputDependsOnlyOnView,
        Condition::InputDependsOnlyOnOwnComponent,
        Condition::OutputDependsOnlyOnView,
        Condition::NextOpDependsOnlyOnView,
    ];

    /// The condition's 1-based number in the paper's Appendix.
    pub fn number(self) -> u8 {
        match self {
            Condition::OpRespectsAbstraction => 1,
            Condition::OpInvisibleToInactive => 2,
            Condition::InputDependsOnlyOnView => 3,
            Condition::InputDependsOnlyOnOwnComponent => 4,
            Condition::OutputDependsOnlyOnView => 5,
            Condition::NextOpDependsOnlyOnView => 6,
        }
    }

    /// Index into per-condition arrays (number − 1).
    pub fn index(self) -> usize {
        self.number() as usize - 1
    }

    /// A one-line statement of the condition, in the paper's terms.
    pub fn description(self) -> &'static str {
        match self {
            Condition::OpRespectsAbstraction => {
                "COLOUR(s) = c ⊃ Φ^c(op(s)) = ABOP^c(op)(Φ^c(s)) — the active regime's \
                 operations commute with its abstraction"
            }
            Condition::OpInvisibleToInactive => {
                "COLOUR(s) ≠ c ⊃ Φ^c(op(s)) = Φ^c(s) — other regimes' operations do not \
                 change c's view"
            }
            Condition::InputDependsOnlyOnView => {
                "Φ^c(s) = Φ^c(s') ⊃ Φ^c(INPUT(s,i)) = Φ^c(INPUT(s',i)) — device activity \
                 affects c's view as a function of that view"
            }
            Condition::InputDependsOnlyOnOwnComponent => {
                "EXTRACT(c,i) = EXTRACT(c,i') ⊃ Φ^c(INPUT(s,i)) = Φ^c(INPUT(s,i')) — only \
                 c's component of the input reaches c's view"
            }
            Condition::OutputDependsOnlyOnView => {
                "Φ^c(s) = Φ^c(s') ⊃ EXTRACT(c,OUTPUT(s)) = EXTRACT(c,OUTPUT(s')) — c's \
                 outputs are a function of c's view"
            }
            Condition::NextOpDependsOnlyOnView => {
                "COLOUR(s) = COLOUR(s') = c ∧ Φ^c(s) = Φ^c(s') ⊃ NEXTOP(s) = NEXTOP(s') — \
                 c's next operation is a function of c's view"
            }
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "condition {}", self.number())
    }
}

/// A counterexample to one of the six conditions.
///
/// States, operations, and inputs are captured as their `Debug` renderings so
/// that reports are independent of the system's type parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The violated condition.
    pub condition: Condition,
    /// The colour whose view is compromised.
    pub colour: String,
    /// A human-readable witness: the states/ops/inputs exhibiting the
    /// violation and the unequal values.
    pub witness: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violated for colour {}: {}",
            self.condition, self.colour, self.witness
        )
    }
}

/// The result of a Proof of Separability run.
///
/// `PartialEq`/`Eq` compare every field — state/op/input counts, the six
/// per-condition check counters, and the violation list including witness
/// text and order. The differential test harness uses this to assert that
/// the parallel checker's merged report is *identical* to the sequential
/// checker's, not merely verdict-equivalent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckReport {
    /// Number of individual checks evaluated, per condition (index 0 ↔
    /// condition 1).
    pub checks: [u64; 6],
    /// Number of states examined.
    pub states: usize,
    /// Number of operations examined.
    pub ops: usize,
    /// Number of inputs examined.
    pub inputs: usize,
    /// All violations found, at most [`MAX_VIOLATIONS_PER_CONDITION`] per
    /// condition.
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// True when no condition was violated: the system *is separable* with
    /// respect to the supplied abstractions.
    pub fn is_separable(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total number of checks across all conditions.
    pub fn total_checks(&self) -> u64 {
        self.checks.iter().sum()
    }

    /// The violations of one particular condition.
    pub fn violations_of(&self, c: Condition) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.condition == c)
    }
}

impl fmt::Display for CheckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Proof of Separability: {} over {} states, {} ops, {} inputs ({} checks)",
            if self.is_separable() {
                "SEPARABLE"
            } else {
                "VIOLATED"
            },
            self.states,
            self.ops,
            self.inputs,
            self.total_checks(),
        )?;
        for c in Condition::ALL {
            writeln!(
                f,
                "  condition {}: {} checks, {} violations",
                c.number(),
                self.checks[c.index()],
                self.violations_of(c).count()
            )?;
        }
        for v in self.violations.iter().take(5) {
            writeln!(f, "  e.g. {v}")?;
        }
        Ok(())
    }
}

/// Appends a violation to `list` unless it already holds
/// [`MAX_VIOLATIONS_PER_CONDITION`] of that condition. The witness is
/// rendered only for a violation that is kept.
pub(crate) fn record(
    list: &mut Vec<Violation>,
    condition: Condition,
    colour: &str,
    witness: impl FnOnce() -> String,
) {
    if list.iter().filter(|v| v.condition == condition).count() < MAX_VIOLATIONS_PER_CONDITION {
        list.push(Violation {
            condition,
            colour: colour.to_string(),
            witness: witness(),
        });
    }
}

/// The witness texts of the six conditions, one function each, shared by
/// the sequential and sharded checkers so that their reports are
/// byte-identical.
pub(crate) mod witness {
    /// Anything a witness prints.
    type D<'a> = &'a dyn core::fmt::Debug;

    /// Condition 1: `op(s)`'s view against `ABOP(op)` applied to `s`'s.
    pub fn op_respects(s: D, op: D, got: D, want: D) -> String {
        format!("state {s:?}, op {op:?}: Φ(op(s)) = {got:?} but ABOP(op)(Φ(s)) = {want:?}")
    }

    /// Condition 2: an inactive colour's view before and after `op`.
    pub fn op_invisible(s: D, active: D, op: D, before: D, after: D) -> String {
        format!(
            "state {s:?} (active colour {active:?}), op {op:?}: view changed from {before:?} to {after:?}"
        )
    }

    /// Condition 3: two states sharing `view` that input `i` separates.
    pub fn input_view(s: D, rep: D, view: D, i: D, via_s: D, via_rep: D) -> String {
        format!(
            "states {s:?} and {rep:?} share view {view:?} but input {i:?} yields views {via_s:?} vs {via_rep:?}"
        )
    }

    /// Condition 4: two inputs agreeing on the colour's component that
    /// state `s` separates.
    pub fn input_component(i: D, rep: D, s: D, via_i: D, via_rep: D) -> String {
        format!(
            "inputs {i:?} and {rep:?} agree on colour's component but state {s:?} yields views {via_i:?} vs {via_rep:?}"
        )
    }

    /// Condition 5: two states sharing `view` whose outputs differ.
    pub fn output_view(s: D, rep: D, view: D, out_s: D, out_rep: D) -> String {
        format!(
            "states {s:?} and {rep:?} share view {view:?} but outputs project to {out_s:?} vs {out_rep:?}"
        )
    }

    /// Condition 6: two states sharing `view` whose next ops differ.
    pub fn next_op(s: D, rep: D, view: D, op_s: D, op_rep: D) -> String {
        format!(
            "states {s:?} and {rep:?} share view {view:?} but NEXTOP differs: {op_s:?} vs {op_rep:?}"
        )
    }
}

/// Exhaustive checker for the six conditions over a [`Finite`] system.
#[derive(Debug, Clone, Default)]
pub struct SeparabilityChecker;

impl SeparabilityChecker {
    /// Creates a checker.
    pub fn new() -> Self {
        SeparabilityChecker
    }

    /// Runs all six conditions for every supplied abstraction over the
    /// system's full (finite) state/input/op sets.
    ///
    /// # Examples
    ///
    /// ```
    /// use sep_model::check::SeparabilityChecker;
    /// use sep_model::demo::{DemoMachine, Leak};
    ///
    /// let secure = DemoMachine::secure(4);
    /// let report = SeparabilityChecker::new().check(&secure, &secure.abstractions());
    /// assert!(report.is_separable());
    ///
    /// let leaky = DemoMachine::leaky(4, Leak::OpWritesForeign);
    /// let report = SeparabilityChecker::new().check(&leaky, &leaky.abstractions());
    /// assert!(!report.is_separable());
    /// ```
    pub fn check<S, A>(&self, sys: &S, abstractions: &[A]) -> CheckReport
    where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        let states = sys.states();
        let inputs = sys.inputs();
        let ops = sys.ops();
        let mut report = CheckReport {
            states: states.len(),
            ops: ops.len(),
            inputs: inputs.len(),
            ..CheckReport::default()
        };

        for a in abstractions {
            let c = a.colour();
            let colour_str = format!("{c:?}");
            // Cache Φ^c over all states, and each state's active colour.
            let phis: Vec<A::AState> = states.iter().map(|s| a.phi(sys, s)).collect();
            let colours: Vec<S::Colour> = states.iter().map(|s| sys.colour(s)).collect();

            self.check_ops(
                sys,
                a,
                &states,
                &phis,
                &colours,
                &ops,
                &c,
                &colour_str,
                &mut report,
            );
            self.check_inputs(
                sys,
                a,
                &states,
                &phis,
                &inputs,
                &c,
                &colour_str,
                &mut report,
            );
            self.check_outputs(sys, a, &states, &phis, &c, &colour_str, &mut report);
            self.check_next_op(
                sys,
                a,
                &states,
                &phis,
                &colours,
                &c,
                &colour_str,
                &mut report,
            );
        }
        report
    }

    /// Conditions 1 and 2.
    #[allow(clippy::too_many_arguments)]
    fn check_ops<S, A>(
        &self,
        sys: &S,
        a: &A,
        states: &[S::State],
        phis: &[A::AState],
        colours: &[S::Colour],
        ops: &[S::Op],
        c: &S::Colour,
        colour_str: &str,
        report: &mut CheckReport,
    ) where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        for (idx, s) in states.iter().enumerate() {
            let active = &colours[idx] == c;
            for op in ops {
                let after = sys.apply(op, s);
                let phi_after = a.phi(sys, &after);
                if active {
                    report.checks[Condition::OpRespectsAbstraction.index()] += 1;
                    let abstract_after = a.apply_abstract(sys, &a.abop(sys, op), &phis[idx]);
                    if phi_after != abstract_after {
                        record(
                            &mut report.violations,
                            Condition::OpRespectsAbstraction,
                            colour_str,
                            || witness::op_respects(s, op, &phi_after, &abstract_after),
                        );
                    }
                } else {
                    report.checks[Condition::OpInvisibleToInactive.index()] += 1;
                    if phi_after != phis[idx] {
                        record(
                            &mut report.violations,
                            Condition::OpInvisibleToInactive,
                            colour_str,
                            || witness::op_invisible(s, &colours[idx], op, &phis[idx], &phi_after),
                        );
                    }
                }
            }
        }
    }

    /// Conditions 3 and 4.
    #[allow(clippy::too_many_arguments)]
    fn check_inputs<S, A>(
        &self,
        sys: &S,
        a: &A,
        states: &[S::State],
        phis: &[A::AState],
        inputs: &[S::Input],
        c: &S::Colour,
        colour_str: &str,
        report: &mut CheckReport,
    ) where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        // Condition 3: group states by Φ^c; compare each member against its
        // group representative under every input.
        let mut reps: HashMap<&A::AState, usize> = HashMap::new();
        for (idx, phi) in phis.iter().enumerate() {
            let rep = *reps.entry(phi).or_insert(idx);
            if rep == idx {
                continue;
            }
            let (s, r) = (&states[idx], &states[rep]);
            for i in inputs {
                report.checks[Condition::InputDependsOnlyOnView.index()] += 1;
                let via_s = a.phi(sys, &sys.consume(s, i));
                let via_rep = a.phi(sys, &sys.consume(r, i));
                if via_s != via_rep {
                    record(
                        &mut report.violations,
                        Condition::InputDependsOnlyOnView,
                        colour_str,
                        || witness::input_view(s, r, &phis[idx], i, &via_s, &via_rep),
                    );
                }
            }
        }

        // Condition 4: group inputs by EXTRACT(c, i); compare each input
        // against its group representative in every state.
        let views: Vec<S::View> = inputs.iter().map(|i| sys.extract_input(c, i)).collect();
        let mut input_reps: Vec<usize> = Vec::with_capacity(inputs.len());
        {
            let mut seen: Vec<(usize, &S::View)> = Vec::new();
            for view in views.iter() {
                let rep = seen.iter().find(|(_, v)| *v == view).map(|(idx, _)| *idx);
                match rep {
                    Some(r) => input_reps.push(r),
                    None => {
                        seen.push((input_reps.len(), view));
                        input_reps.push(input_reps.len());
                    }
                }
            }
        }
        for (i_idx, i) in inputs.iter().enumerate() {
            let rep = input_reps[i_idx];
            if rep == i_idx {
                continue;
            }
            for s in states {
                report.checks[Condition::InputDependsOnlyOnOwnComponent.index()] += 1;
                let via_i = a.phi(sys, &sys.consume(s, i));
                let via_rep = a.phi(sys, &sys.consume(s, &inputs[rep]));
                if via_i != via_rep {
                    record(
                        &mut report.violations,
                        Condition::InputDependsOnlyOnOwnComponent,
                        colour_str,
                        || witness::input_component(i, &inputs[rep], s, &via_i, &via_rep),
                    );
                }
            }
        }
    }

    /// Condition 5.
    #[allow(clippy::too_many_arguments)]
    fn check_outputs<S, A>(
        &self,
        sys: &S,
        _a: &A,
        states: &[S::State],
        phis: &[A::AState],
        c: &S::Colour,
        colour_str: &str,
        report: &mut CheckReport,
    ) where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        let mut reps: HashMap<&A::AState, usize> = HashMap::new();
        for (idx, phi) in phis.iter().enumerate() {
            let rep = *reps.entry(phi).or_insert(idx);
            if rep == idx {
                continue;
            }
            report.checks[Condition::OutputDependsOnlyOnView.index()] += 1;
            let (s, r) = (&states[idx], &states[rep]);
            let out_s = sys.extract_output(c, &sys.output(s));
            let out_rep = sys.extract_output(c, &sys.output(r));
            if out_s != out_rep {
                record(
                    &mut report.violations,
                    Condition::OutputDependsOnlyOnView,
                    colour_str,
                    || witness::output_view(s, r, &phis[idx], &out_s, &out_rep),
                );
            }
        }
    }

    /// Condition 6.
    #[allow(clippy::too_many_arguments)]
    fn check_next_op<S, A>(
        &self,
        sys: &S,
        _a: &A,
        states: &[S::State],
        phis: &[A::AState],
        colours: &[S::Colour],
        c: &S::Colour,
        colour_str: &str,
        report: &mut CheckReport,
    ) where
        S: Finite + Projected,
        A: Abstraction<S>,
    {
        let mut reps: HashMap<&A::AState, usize> = HashMap::new();
        for (idx, phi) in phis.iter().enumerate() {
            if &colours[idx] != c {
                continue;
            }
            let rep = *reps.entry(phi).or_insert(idx);
            if rep == idx {
                continue;
            }
            report.checks[Condition::NextOpDependsOnlyOnView.index()] += 1;
            let (s, r) = (&states[idx], &states[rep]);
            let (op_s, op_rep) = (sys.next_op(s), sys.next_op(r));
            if op_s != op_rep {
                record(
                    &mut report.violations,
                    Condition::NextOpDependsOnlyOnView,
                    colour_str,
                    || witness::next_op(s, r, &phis[idx], &op_s, &op_rep),
                );
            }
        }
    }
}
