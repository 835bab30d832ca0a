//! The scheduler layer.
//!
//! Rushby's SUE "performs no scheduling functions" — control passes on
//! voluntary SWAP in a fixed round-robin. That policy is one variant of
//! [`SchedPolicy`], so ablation A1 can compare it against the standard
//! remedies for scheduling timing channels: preemptive time slices
//! (optionally padded), lottery scheduling, and the MILS-style static
//! cyclic table.
//!
//! The split of responsibilities is strict: the kernel owns the slice
//! countdown (`quantum_left`) and the slot padding counter
//! (`slot_idle_left`), because those interleave with trap handling; the
//! policy says how long a slice is, whether early yields pad, and who runs
//! next. The one word of state a policy may keep (the lottery's draw
//! stream, the cyclic table's position) lives in the kernel beside it and
//! is passed to [`SchedPolicy::next`]; round-robin keeps none, so its
//! kernels' state vectors are those of the seed kernel bit for bit.
//!
//! ## Which policies verify
//!
//! Proof of Separability condition 1 compares each regime against a
//! private single-regime machine that executes an instruction on *every*
//! step the regime is scheduled. A preemptive policy breaks that: at slice
//! expiry the full system switches (or pads) without the regime executing,
//! while its private machine — which has no other regime to switch to —
//! executes. The views diverge on a correct kernel, so the verification
//! adapter refuses preemptive policies ([`SchedPolicy::verifiable`] is
//! false for `FixedTimeSlice` and `Lottery`). `StaticCyclic` is
//! deliberately *cooperative* — the table is consulted only at voluntary
//! yield points, never on a tick — which keeps it inside the SUE's
//! semantics and lets it verify.

use sep_model::rng::SplitMix64;

/// The scheduling policy of a configuration. Deterministic: given the same
/// state word and call sequence, [`SchedPolicy::next`] makes the same
/// decisions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Voluntary round-robin — the SUE's policy and the default.
    #[default]
    RoundRobin,
    /// Preemptive round-robin: every regime gets `quantum` steps, expiry
    /// rotates. With `padded`, an early yield idles the slot remainder
    /// instead of donating it — the fixed-slot countermeasure ablation A1
    /// measures.
    FixedTimeSlice {
        /// Steps per slice.
        quantum: u64,
        /// Pad early-yielded slots to full length.
        padded: bool,
    },
    /// Preemptive lottery scheduling: slice expiry (or a yield) draws the
    /// next regime uniformly from the runnable set with a seeded SplitMix64
    /// stream. Deterministic given the seed, but still preemptive — and its
    /// draw state is scheduler-private in a way no regime abstraction can
    /// own — so the verification adapter refuses it.
    Lottery {
        /// Steps per slice.
        quantum: u64,
        /// SplitMix64 seed.
        seed: u64,
    },
    /// MILS-style static cyclic schedule, kept *cooperative*: a fixed table
    /// of regime indices consulted only at voluntary yield points. Each
    /// yield advances to the next table entry whose regime is runnable. No
    /// tick, no padding, no preemption — which is exactly what lets it
    /// verify while still fixing the rotation order offline. The kernel
    /// validates entries against the regime count at boot.
    StaticCyclic {
        /// The rotation table.
        table: Vec<usize>,
    },
}

impl SchedPolicy {
    /// Steps in a time slice, or `None` for no preemption (the regime runs
    /// until it yields, waits, or faults).
    pub fn slice(&self) -> Option<u64> {
        match self {
            SchedPolicy::FixedTimeSlice { quantum, .. } | SchedPolicy::Lottery { quantum, .. } => {
                Some(*quantum)
            }
            SchedPolicy::RoundRobin | SchedPolicy::StaticCyclic { .. } => None,
        }
    }

    /// Whether an early yield pads the slot out (the classic fixed-slot
    /// countermeasure: donated time goes to nobody).
    pub fn padded(&self) -> bool {
        matches!(self, SchedPolicy::FixedTimeSlice { padded: true, .. })
    }

    /// The state word a freshly booted kernel holds: the lottery's
    /// SplitMix64 state starts at its seed, the cyclic table's position
    /// at 0.
    pub(crate) fn initial_state(&self) -> u64 {
        match self {
            SchedPolicy::Lottery { seed, .. } => *seed,
            _ => 0,
        }
    }

    /// Whether [`SchedPolicy::next`] reads its state word. Only then is the
    /// word part of the kernel's explored state.
    pub(crate) fn stateful(&self) -> bool {
        matches!(
            self,
            SchedPolicy::Lottery { .. } | SchedPolicy::StaticCyclic { .. }
        )
    }

    /// The next regime to run after `current`, among `n` regimes of which
    /// `runnable(i)` says which may take the CPU, advancing the policy's
    /// `state` word. May return `current` itself (a self-swap); `None`
    /// when nobody is runnable.
    pub fn next(
        &self,
        state: &mut u64,
        current: usize,
        n: usize,
        runnable: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        match self {
            SchedPolicy::RoundRobin | SchedPolicy::FixedTimeSlice { .. } => {
                (1..=n).map(|k| (current + k) % n).find(|&i| runnable(i))
            }
            SchedPolicy::Lottery { .. } => {
                let tickets = (0..n).filter(|&i| runnable(i)).count();
                if tickets == 0 {
                    return None;
                }
                let mut rng = SplitMix64::new(*state);
                let winner = rng.next_u64() as usize % tickets;
                *state = rng.state();
                (0..n).filter(|&i| runnable(i)).nth(winner)
            }
            SchedPolicy::StaticCyclic { table } => {
                let len = table.len();
                (1..=len)
                    .map(|k| (*state as usize + k) % len)
                    .find(|&idx| table[idx] < n && runnable(table[idx]))
                    .map(|idx| {
                        *state = idx as u64;
                        table[idx]
                    })
            }
        }
    }

    /// Whether the Proof of Separability adapter accepts configurations
    /// under this policy (see the module docs for why preemption cannot
    /// verify).
    pub fn verifiable(&self) -> bool {
        matches!(
            self,
            SchedPolicy::RoundRobin | SchedPolicy::StaticCyclic { .. }
        )
    }

    /// Stable lowercase policy name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SchedPolicy::RoundRobin => "round-robin",
            SchedPolicy::FixedTimeSlice { .. } => "fixed-time-slice",
            SchedPolicy::Lottery { .. } => "lottery",
            SchedPolicy::StaticCyclic { .. } => "static-cyclic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_runnable(_: usize) -> bool {
        true
    }

    #[test]
    fn round_robin_rotates_and_self_swaps() {
        let rr = SchedPolicy::RoundRobin;
        let mut s = rr.initial_state();
        assert_eq!(rr.next(&mut s, 0, 3, all_runnable), Some(1));
        assert_eq!(rr.next(&mut s, 2, 3, all_runnable), Some(0));
        // A solo runnable regime is its own successor.
        assert_eq!(rr.next(&mut s, 1, 3, |i| i == 1), Some(1));
        assert_eq!(rr.next(&mut s, 0, 3, |_| false), None);
        assert!(rr.slice().is_none());
        assert!(rr.verifiable());
    }

    #[test]
    fn lottery_is_deterministic_per_seed() {
        let draw_sequence = |seed: u64| {
            let l = SchedPolicy::Lottery { quantum: 8, seed };
            let mut s = l.initial_state();
            (0..32)
                .map(|_| l.next(&mut s, 0, 4, all_runnable).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw_sequence(7), draw_sequence(7));
        assert_ne!(draw_sequence(7), draw_sequence(8));
        // Every regime wins sometimes.
        let seq = draw_sequence(7);
        for r in 0..4 {
            assert!(seq.contains(&r), "regime {r} never drawn");
        }
        assert!(!SchedPolicy::Lottery {
            quantum: 8,
            seed: 7
        }
        .verifiable());
    }

    #[test]
    fn lottery_skips_unrunnable_regimes() {
        let l = SchedPolicy::Lottery {
            quantum: 4,
            seed: 99,
        };
        let mut s = l.initial_state();
        for _ in 0..32 {
            assert_eq!(l.next(&mut s, 0, 3, |i| i == 2), Some(2));
        }
        assert_eq!(l.next(&mut s, 0, 3, |_| false), None);
    }

    #[test]
    fn static_cyclic_follows_the_table() {
        let c = SchedPolicy::StaticCyclic {
            table: vec![0, 1, 0, 2],
        };
        let mut s = c.initial_state();
        let order: Vec<usize> = (0..8)
            .map(|_| c.next(&mut s, 0, 3, all_runnable).unwrap())
            .collect();
        assert_eq!(order, vec![1, 0, 2, 0, 1, 0, 2, 0]);
        assert!(c.verifiable());
    }

    #[test]
    fn static_cyclic_skips_blocked_entries_without_losing_place() {
        let c = SchedPolicy::StaticCyclic {
            table: vec![0, 1, 2],
        };
        let mut s = c.initial_state();
        // Regime 1 blocked: the 1-entry is skipped, position lands on 2.
        assert_eq!(c.next(&mut s, 0, 3, |i| i != 1), Some(2));
        assert_eq!(s, 2);
        // Everyone runnable again: rotation resumes from the 2-entry.
        assert_eq!(c.next(&mut s, 2, 3, all_runnable), Some(0));
        assert_eq!(c.next(&mut s, 0, 3, |_| false), None);
    }
}
