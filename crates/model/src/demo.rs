//! A small two-colour demonstration machine for Proof of Separability.
//!
//! The machine shares one processor between a RED and a BLACK "regime", each
//! owning a single counter. Operations are colour-generic instructions
//! (`Inc`, `Add2`) that act on the *active* colour's counter and then pass
//! control to the other colour — a miniature of the SWAP behaviour that the
//! paper shows Information Flow Analysis cannot verify.
//!
//! Seven variants are provided: a [`Leak::None`] variant that satisfies all
//! six conditions, and six sabotaged variants each violating exactly one
//! condition. These drive the checker's unit tests, the documentation
//! examples, and the E2 benchmark.

use crate::abstraction::Abstraction;
use crate::system::{Finite, Projected, SharedSystem};

/// The two colours of the demonstration machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DemoColour {
    /// The RED regime.
    Red,
    /// The BLACK regime.
    Black,
}

impl DemoColour {
    /// The other colour.
    pub fn other(self) -> DemoColour {
        match self {
            DemoColour::Red => DemoColour::Black,
            DemoColour::Black => DemoColour::Red,
        }
    }
}

/// Concrete state: whose turn it is, plus one counter per colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemoState {
    /// The colour on whose behalf the next operation runs.
    pub turn: DemoColour,
    /// RED's counter.
    pub red: u8,
    /// BLACK's counter.
    pub black: u8,
}

/// An input: one increment request per colour (each 0 or 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DemoInput {
    /// RED's component of the input.
    pub red: u8,
    /// BLACK's component of the input.
    pub black: u8,
}

/// Colour-generic operations: act on the active colour's counter, then pass
/// control to the other colour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DemoOp {
    /// Add 1 to the active counter.
    Inc,
    /// Add 2 to the active counter.
    Add2,
}

/// Which (single) condition a sabotaged variant violates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Leak {
    /// No sabotage: the machine is separable.
    None,
    /// An operation run for RED reads BLACK's counter (violates condition 1).
    OpReadsForeign,
    /// An operation run for RED also writes BLACK's counter (violates
    /// condition 2).
    OpWritesForeign,
    /// Input consumption folds BLACK's *state* into RED's counter (violates
    /// condition 3).
    InputReadsForeignState,
    /// Input consumption folds BLACK's input *component* into RED's counter
    /// (violates condition 4).
    InputReadsForeignComponent,
    /// BLACK's output embeds RED's counter parity (violates condition 5).
    OutputReadsForeign,
    /// Operation selection for RED depends on BLACK's counter (violates
    /// condition 6).
    NextOpReadsForeign,
}

impl Leak {
    /// Every sabotage variant, in condition order.
    pub const ALL_LEAKS: [Leak; 6] = [
        Leak::OpReadsForeign,
        Leak::OpWritesForeign,
        Leak::InputReadsForeignState,
        Leak::InputReadsForeignComponent,
        Leak::OutputReadsForeign,
        Leak::NextOpReadsForeign,
    ];
}

/// The demonstration machine.
#[derive(Debug, Clone)]
pub struct DemoMachine {
    /// Counters live in `0..modulus`.
    pub modulus: u8,
    /// Sabotage selector.
    pub leak: Leak,
}

impl DemoMachine {
    /// A separable machine with the given counter modulus (≥ 2).
    pub fn secure(modulus: u8) -> Self {
        DemoMachine {
            modulus,
            leak: Leak::None,
        }
    }

    /// A sabotaged machine violating exactly one condition.
    pub fn leaky(modulus: u8, leak: Leak) -> Self {
        DemoMachine { modulus, leak }
    }

    /// The canonical initial state: RED's turn, both counters zero.
    pub fn initial(&self) -> DemoState {
        DemoState {
            turn: DemoColour::Red,
            red: 0,
            black: 0,
        }
    }

    fn wrap(&self, v: u16) -> u8 {
        (v % self.modulus as u16) as u8
    }

    /// The abstractions (one per colour) under which the secure variant is
    /// separable.
    pub fn abstractions(&self) -> [DemoAbstraction; 2] {
        [
            DemoAbstraction {
                colour: DemoColour::Red,
                modulus: self.modulus,
            },
            DemoAbstraction {
                colour: DemoColour::Black,
                modulus: self.modulus,
            },
        ]
    }
}

impl SharedSystem for DemoMachine {
    type State = DemoState;
    type Input = DemoInput;
    type Output = (u8, u8);
    type Colour = DemoColour;
    type Op = DemoOp;

    fn colours(&self) -> Vec<DemoColour> {
        vec![DemoColour::Red, DemoColour::Black]
    }

    fn colour(&self, s: &DemoState) -> DemoColour {
        s.turn
    }

    fn output(&self, s: &DemoState) -> (u8, u8) {
        let black = if self.leak == Leak::OutputReadsForeign {
            self.wrap(s.black as u16 + (s.red & 1) as u16)
        } else {
            s.black
        };
        (s.red, black)
    }

    fn consume(&self, s: &DemoState, i: &DemoInput) -> DemoState {
        let mut red = s.red as u16 + i.red as u16;
        let black = s.black as u16 + i.black as u16;
        match self.leak {
            Leak::InputReadsForeignState => red += (s.black & 1) as u16,
            Leak::InputReadsForeignComponent => red += i.black as u16,
            _ => {}
        }
        DemoState {
            turn: s.turn,
            red: self.wrap(red),
            black: self.wrap(black),
        }
    }

    fn next_op(&self, s: &DemoState) -> DemoOp {
        let driver = match (self.leak, s.turn) {
            (Leak::NextOpReadsForeign, DemoColour::Red) => s.black,
            (_, DemoColour::Red) => s.red,
            (_, DemoColour::Black) => s.black,
        };
        if driver & 1 == 0 {
            DemoOp::Inc
        } else {
            DemoOp::Add2
        }
    }

    fn apply(&self, op: &DemoOp, s: &DemoState) -> DemoState {
        let delta = match op {
            DemoOp::Inc => 1u16,
            DemoOp::Add2 => 2u16,
        };
        let mut next = *s;
        match s.turn {
            DemoColour::Red => {
                let mut d = delta;
                if self.leak == Leak::OpReadsForeign {
                    d += (s.black & 1) as u16;
                }
                next.red = self.wrap(s.red as u16 + d);
                if self.leak == Leak::OpWritesForeign {
                    next.black = self.wrap(s.black as u16 + 1);
                }
            }
            DemoColour::Black => {
                next.black = self.wrap(s.black as u16 + delta);
            }
        }
        next.turn = s.turn.other();
        next
    }
}

impl Projected for DemoMachine {
    type View = u8;

    fn extract_input(&self, c: &DemoColour, i: &DemoInput) -> u8 {
        match c {
            DemoColour::Red => i.red,
            DemoColour::Black => i.black,
        }
    }

    fn extract_output(&self, c: &DemoColour, o: &(u8, u8)) -> u8 {
        match c {
            DemoColour::Red => o.0,
            DemoColour::Black => o.1,
        }
    }
}

impl Finite for DemoMachine {
    fn states(&self) -> Vec<DemoState> {
        let mut out = Vec::new();
        for turn in [DemoColour::Red, DemoColour::Black] {
            for red in 0..self.modulus {
                for black in 0..self.modulus {
                    out.push(DemoState { turn, red, black });
                }
            }
        }
        out
    }

    fn inputs(&self) -> Vec<DemoInput> {
        let mut out = Vec::new();
        for red in 0..2 {
            for black in 0..2 {
                out.push(DemoInput { red, black });
            }
        }
        out
    }

    fn ops(&self) -> Vec<DemoOp> {
        vec![DemoOp::Inc, DemoOp::Add2]
    }
}

/// The natural abstraction: each colour sees exactly its own counter.
#[derive(Debug, Clone)]
pub struct DemoAbstraction {
    /// The colour whose view this is.
    pub colour: DemoColour,
    /// Counter modulus (must match the machine's).
    pub modulus: u8,
}

impl Abstraction<DemoMachine> for DemoAbstraction {
    type AState = u8;
    type AOp = DemoOp;

    fn colour(&self) -> DemoColour {
        self.colour
    }

    fn phi(&self, _sys: &DemoMachine, s: &DemoState) -> u8 {
        match self.colour {
            DemoColour::Red => s.red,
            DemoColour::Black => s.black,
        }
    }

    fn abop(&self, _sys: &DemoMachine, op: &DemoOp) -> DemoOp {
        *op
    }

    fn apply_abstract(&self, _sys: &DemoMachine, aop: &DemoOp, a: &u8) -> u8 {
        let delta = match aop {
            DemoOp::Inc => 1u16,
            DemoOp::Add2 => 2u16,
        };
        ((*a as u16 + delta) % self.modulus as u16) as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{Condition, SeparabilityChecker};

    #[test]
    fn secure_machine_is_separable() {
        let m = DemoMachine::secure(4);
        let report = SeparabilityChecker::new().check(&m, &m.abstractions());
        assert!(report.is_separable(), "{report}");
        assert!(report.total_checks() > 0);
    }

    #[test]
    fn each_leak_violates_its_condition() {
        let expected = [
            (Leak::OpReadsForeign, Condition::OpRespectsAbstraction),
            (Leak::OpWritesForeign, Condition::OpInvisibleToInactive),
            (
                Leak::InputReadsForeignState,
                Condition::InputDependsOnlyOnView,
            ),
            (
                Leak::InputReadsForeignComponent,
                Condition::InputDependsOnlyOnOwnComponent,
            ),
            (Leak::OutputReadsForeign, Condition::OutputDependsOnlyOnView),
            (Leak::NextOpReadsForeign, Condition::NextOpDependsOnlyOnView),
        ];
        for (leak, condition) in expected {
            let m = DemoMachine::leaky(4, leak);
            let report = SeparabilityChecker::new().check(&m, &m.abstractions());
            assert!(
                report.violations_of(condition).count() > 0,
                "{leak:?} should violate {condition}: {report}"
            );
        }
    }

    #[test]
    fn leaks_violate_only_their_condition() {
        for (i, leak) in Leak::ALL_LEAKS.into_iter().enumerate() {
            let m = DemoMachine::leaky(4, leak);
            let report = SeparabilityChecker::new().check(&m, &m.abstractions());
            for c in Condition::ALL {
                let hit = report.violations_of(c).count() > 0;
                assert_eq!(
                    hit,
                    c.index() == i,
                    "{leak:?}: unexpected verdict for {c}: {report}"
                );
            }
        }
    }

    #[test]
    fn step_emits_output_then_transitions() {
        let m = DemoMachine::secure(4);
        let s = m.initial();
        let (out, next) = m.step(&s, &DemoInput { red: 1, black: 0 });
        assert_eq!(out, (0, 0));
        // red counter: +1 input, then op Inc (red was 1 after input, odd →
        // Add2).
        assert_eq!(next.turn, DemoColour::Black);
        assert_eq!(next.red, 3);
        assert_eq!(next.black, 0);
    }

    #[test]
    fn provided_successor_is_consume_then_next_op() {
        let machines = std::iter::once(DemoMachine::secure(4))
            .chain(Leak::ALL_LEAKS.map(|leak| DemoMachine::leaky(4, leak)));
        for m in machines {
            for s in m.states() {
                for i in m.inputs() {
                    let mid = m.consume(&s, &i);
                    let next = m.apply(&m.next_op(&mid), &mid);
                    assert_eq!(m.successor(&s, &i), next, "{:?}: {s:?} {i:?}", m.leak);
                    assert_eq!(m.step(&s, &i), (m.output(&s), next));
                }
            }
        }
    }

    #[test]
    fn run_returns_output_sequence() {
        let m = DemoMachine::secure(4);
        let inputs = vec![DemoInput { red: 0, black: 0 }; 3];
        let (outs, _final) = m.run(&m.initial(), &inputs);
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0], (0, 0));
    }

    #[test]
    fn finite_enumerations_have_expected_sizes() {
        let m = DemoMachine::secure(4);
        assert_eq!(m.states().len(), 2 * 4 * 4);
        assert_eq!(m.inputs().len(), 4);
        assert_eq!(m.ops().len(), 2);
    }
}
