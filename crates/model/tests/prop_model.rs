//! Property tests for the formal model: the checker, wire-cutting, and
//! exploration behave lawfully. The object systems range over every
//! `own, shared` point of the domain; the rest run on seeded cases.

use sep_bench::symmetric_workload;
use sep_kernel::verify::{canon_key, KInput, KernelState, KernelSystem};
use sep_model::check::{CheckReport, SeparabilityChecker};
use sep_model::cut::{check_isolation, cut};
use sep_model::demo::{DemoMachine, Leak};
use sep_model::explore::{reachable_states, SampledChecker};
use sep_model::objects::{ObjRef, ObjectSystem};
use sep_model::rng::{cases, Case};
use sep_model::system::{Finite, SharedSystem};

/// A symmetric kernel system of `n` regimes with the reduction substrate
/// wired up, plus the state a random walk of up to 11 inputs reaches.
fn walk_symmetric(n: usize, c: &mut Case) -> (KernelSystem, Vec<KInput>, KernelState) {
    let sys = KernelSystem::new(symmetric_workload(n)).unwrap();
    let sys = sys.with_input_bytes(&[1]).with_symmetry(true);
    let sys = sys.with_por(true);
    let inputs = sys.inputs();
    let mut s = sys.initial();
    for _ in 0..c.int(0, 11) {
        s = sys.step(&s, &inputs[c.rng.below(inputs.len())]).1;
    }
    (sys, inputs, s)
}

/// Builds a two-colour object system: each colour owns `own` private
/// counters; `shared` cross-colour channel objects connect them.
fn build_system(own: usize, shared: usize) -> (ObjectSystem, Vec<ObjRef>) {
    let mut sys = ObjectSystem::new(3);
    let a = sys.add_colour("a");
    let b = sys.add_colour("b");
    for i in 0..own {
        let x = sys.add_object(&format!("a{i}"), 0);
        sys.add_op(a, &format!("inc_a{i}"), vec![x], vec![x], |v| {
            vec![v[0] + 1]
        });
        let x = sys.add_object(&format!("b{i}"), 0);
        sys.add_op(b, &format!("inc_b{i}"), vec![x], vec![x], |v| {
            vec![v[0] + 2]
        });
    }
    let mut channels = Vec::new();
    for i in 0..shared {
        let x = sys.add_object(&format!("x{i}"), 0);
        channels.push(x);
        sys.add_op(a, &format!("send{i}"), vec![x], vec![x], |v| vec![v[0] + 1]);
        sys.add_op(b, &format!("recv{i}"), vec![x], vec![x], |v| vec![v[0]]);
    }
    (sys, channels)
}

const SHARING: [(usize, usize); 4] = [(1, 1), (1, 2), (2, 1), (2, 2)];

#[test]
fn private_systems_are_always_separable() {
    for own in 1..3 {
        let (sys, _) = build_system(own, 0);
        let report = SeparabilityChecker::new().check(&sys, &sys.object_abstractions());
        assert!(report.is_separable(), "{report}");
    }
}

#[test]
fn shared_objects_always_fail_isolation() {
    for (own, shared) in SHARING {
        assert!(check_isolation(&build_system(own, shared).0).is_err());
    }
}

#[test]
fn cutting_all_channels_restores_isolation() {
    for (own, shared) in SHARING {
        let (sys, channels) = build_system(own, shared);
        let cut = cut(&sys, &channels).system;
        assert!(check_isolation(&cut).is_ok());
        let report = SeparabilityChecker::new().check(&cut, &cut.object_abstractions());
        assert!(report.is_separable(), "{report}");
    }
}

#[test]
fn cutting_some_channels_leaves_the_rest_detected() {
    for shared in 2..4 {
        let (sys, channels) = build_system(1, shared);
        let cut_sys = cut(&sys, &channels[..shared - 1]);
        // The uncut channel is still shared.
        let uncut_name = format!("x{}", shared - 1);
        let ws = check_isolation(&cut_sys.system).expect_err("missed the uncut channel");
        assert!(ws.iter().any(|w| w.object == uncut_name), "{ws:?}");
    }
}

#[test]
fn reachability_is_deterministic_and_closed() {
    for own in 1..3 {
        let (sys, _) = build_system(own, 0);
        let (s1, t1) = reachable_states(&sys, &[sys.initial()], &[()], 100_000);
        let (s2, _) = reachable_states(&sys, &[sys.initial()], &[()], 100_000);
        assert!(!t1);
        assert_eq!(s1, s2);
        // Closure: stepping any reachable state stays in the set.
        assert!(s1.iter().all(|s| s1.contains(&sys.step(s, &()).1)));
    }
}

fn sampled(m: &DemoMachine, c: &mut Case) -> CheckReport {
    let checker = SampledChecker::new(c.int(0, u64::MAX), 16, 64);
    checker.check(m, &m.abstractions(), &[m.initial()], &m.inputs())
}

#[test]
fn sampled_checker_agrees_with_exhaustive_on_demo() {
    let secure = DemoMachine::secure(4);
    cases(0x5A3, 16, |c| {
        let report = sampled(&secure, c);
        assert!(report.is_separable(), "{report}");
    });
}

#[test]
fn canon_is_idempotent_and_rotation_invariant() {
    cases(0xCA0, 16, |c| {
        // The canonical key of a state must be (a) a pure function — two
        // computations agree — and (b) invariant under every rotation the
        // adapter declared valid: canon(rotate(s)) == canon(s). Together
        // these make the orbit collapse of the symmetry reduction sound.
        let n = c.int(2, 3) as usize;
        let (sys, _, s) = walk_symmetric(n, c);
        let rotations = sys.valid_rotations();
        assert_eq!(rotations.len(), n - 1, "rotates freely");
        let key = canon_key(&rotations, &s);
        assert_eq!(canon_key(&rotations, &s), key);
        let rot = 1 + c.rng.below(n - 1);
        let mut rotated = s.kernel.clone();
        rotated.rotate_regime_contents(rot);
        let rs = KernelState::new(rotated);
        assert_eq!(canon_key(&rotations, &rs), key, "rotation by {rot}");
        // Rotating twice (composing group elements) stays in the orbit.
        let mut twice = rs.kernel.clone();
        twice.rotate_regime_contents(1 + c.rng.below(n - 1));
        assert_eq!(canon_key(&rotations, &KernelState::new(twice)), key);
    });
}

#[test]
fn ample_never_drops_a_non_deferrable_input() {
    cases(0xA3B, 16, |c| {
        // The ample selector may defer an input only when the partial-order
        // argument holds: the input has a footprint (it is not the null
        // input), that footprint is disjoint from the step's (they
        // commute), and the deferral can be made up later. Everything else
        // must be kept, with its original alphabet index.
        let (sys, inputs, s) = walk_symmetric(c.int(2, 3) as usize, c);
        let keep = sys.ample_of(&s, &inputs).indices(inputs.len());
        assert!(!keep.is_empty(), "ample set must never be empty");
        assert!(keep.windows(2).all(|w| w[0] < w[1]), "{keep:?}");
        assert!(keep.iter().all(|&i| i < inputs.len()), "{keep:?}");
        let step = sys.step_footprint(&s);
        for (i, input) in inputs.iter().enumerate().filter(|(i, _)| !keep.contains(i)) {
            let fp = sys.input_footprint(input);
            assert!(fp.regimes != 0, "dropped the null input (index {i})");
            assert!(!fp.overlaps(&step), "dropped overlapping input {i}");
        }
    });
}

#[test]
fn sampled_checker_finds_op_leaks() {
    // The write-leak is on every path, so any reasonable walk finds it.
    let leaky = DemoMachine::leaky(4, Leak::OpWritesForeign);
    cases(0x1EA, 16, |c| assert!(!sampled(&leaky, c).is_separable()));
}

#[test]
fn checker_counts_are_stable() {
    // The number of checks is a documented function of the state space;
    // pin it so accidental checker changes are visible.
    let m = DemoMachine::secure(4);
    let report = SeparabilityChecker::new().check(&m, &m.abstractions());
    // 32 states, 2 ops, 2 colours: conditions 1+2 together = 32*2 per
    // colour.
    assert_eq!(report.checks[0] + report.checks[1], 2 * 32 * 2, "{report}");
}
