//! Quantum and fixed-slot edge cases the scheduler layer must preserve.
//!
//! These tests were written against the kernel from before the scheduler
//! layer and pin its exact event sequences; `SchedPolicy::FixedTimeSlice`
//! must keep every one of them green. Boundary cases covered: quantum expiry with
//! a solo regime (a *self*-swap, not a silent reset), SWAP landing at
//! `quantum_left` of 0, 1, and q, WAIT inside a padded slot, and the
//! fixed-slot guarantee that an early yield donates time to *nobody*.

use sep_kernel::config::{DeviceSpec, KernelConfig, RegimeSpec, SchedPolicy};
use sep_kernel::kernel::{KernelEvent, SeparationKernel};

const SPINNER: &str = "loop: INC R1\n BR loop";
const YIELDER: &str = "loop: INC R1\n TRAP 0\n BR loop";

fn quantum_cfg(regimes: Vec<RegimeSpec>, q: u64, fixed: bool) -> KernelConfig {
    KernelConfig::new(regimes).with_sched(SchedPolicy::FixedTimeSlice {
        quantum: q,
        padded: fixed,
    })
}

#[test]
fn solo_regime_quantum_expiry_is_a_self_swap() {
    // With one regime, quantum expiry has nowhere to rotate to; the kernel
    // performs a self-swap (save + reload of the same context) and the event
    // stream shows it. The expiry phase executes no instruction.
    let cfg = quantum_cfg(vec![RegimeSpec::assembly("solo", SPINNER)], 4, false);
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(12);
    assert_eq!(
        events,
        vec![
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Swapped { from: 0, to: 0 },
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Swapped { from: 0, to: 0 },
            KernelEvent::Executed,
            KernelEvent::Executed,
        ]
    );
    assert_eq!(k.stats.swaps, 2);
    assert_eq!(k.machine.instructions, 10);
}

#[test]
fn swap_at_quantum_boundary_zero_waits_for_the_next_slice() {
    // Regime a is shaped so its TRAP 0 becomes pending exactly when
    // `quantum_left` reaches 0: the expiry preempts *before* the trap
    // executes, so the voluntary yield is serviced at the top of a's next
    // slice, not folded into the expiring one.
    let a = "loop: INC R1\n INC R1\n INC R1\n INC R1\n TRAP 0\n BR loop";
    let cfg = quantum_cfg(
        vec![
            RegimeSpec::assembly("a", a),
            RegimeSpec::assembly("b", SPINNER),
        ],
        4,
        false,
    );
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(7);
    // Four INCs burn the slice; phase 5 is the quantum swap; a's TRAP 0 is
    // still unexecuted when b takes over.
    assert_eq!(
        events[..5],
        [
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Swapped { from: 0, to: 1 },
        ]
    );
    assert_eq!(events[5], KernelEvent::Executed); // b runs
    assert_eq!(k.regimes[0].save.pc, 0o10, "a is parked on its TRAP 0");
}

#[test]
fn swap_at_quantum_boundary_one_yields_without_padding() {
    // Plain (unpadded) quantum: a yields with one step left in its slice;
    // control rotates immediately and the remaining step is *not* idled.
    let a = "loop: INC R1\n INC R1\n TRAP 0\n BR loop";
    let cfg = quantum_cfg(
        vec![
            RegimeSpec::assembly("a", a),
            RegimeSpec::assembly("b", SPINNER),
        ],
        4,
        false,
    );
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(4);
    assert_eq!(
        events,
        vec![
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Swapped { from: 0, to: 1 },
            KernelEvent::Executed,
        ]
    );
    assert_eq!(k.stats.idle_steps, 0);
}

#[test]
fn swap_at_quantum_boundary_q_rotates_on_the_first_step() {
    // A regime whose very first instruction is TRAP 0 yields at
    // `quantum_left` = q-1 (the decrement precedes execution): the swap is
    // voluntary, immediate, and unpadded in the plain-quantum configuration.
    let cfg = quantum_cfg(
        vec![
            RegimeSpec::assembly("a", "loop: TRAP 0\n BR loop"),
            RegimeSpec::assembly("b", SPINNER),
        ],
        4,
        false,
    );
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(2);
    assert_eq!(events[0], KernelEvent::Swapped { from: 0, to: 1 });
    assert_eq!(events[1], KernelEvent::Executed);
    assert_eq!(k.stats.idle_steps, 0);
}

#[test]
fn fixed_slot_pads_early_yield_and_never_donates_time() {
    // Padded slots: a yields after 2 of its 4 steps; the kernel idles the
    // remainder instead of handing it to b. b's per-cycle instruction count
    // is exactly the quantum — identical to what it gets when a spins flat
    // out — so a's yield timing is invisible to b.
    let cfg = quantum_cfg(
        vec![
            RegimeSpec::assembly("a", YIELDER),
            RegimeSpec::assembly("b", SPINNER),
        ],
        4,
        true,
    );
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(10);
    assert_eq!(
        events,
        vec![
            KernelEvent::Executed,                       // a: INC
            KernelEvent::Syscall { regime: 0, trap: 0 }, // a: TRAP 0, slot padded
            KernelEvent::Idle,
            KernelEvent::Idle,
            KernelEvent::Swapped { from: 0, to: 1 },
            KernelEvent::Executed, // b gets its full quantum of 4
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Swapped { from: 1, to: 0 },
        ]
    );

    // Donation check: b's instructions per cycle are the same whether a
    // spins or yields early.
    let run_b_instr = |a_prog: &str| {
        let cfg = quantum_cfg(
            vec![
                RegimeSpec::assembly("a", a_prog),
                RegimeSpec::assembly("b", SPINNER),
            ],
            4,
            true,
        );
        let mut k = SeparationKernel::boot(cfg).unwrap();
        k.run(200);
        k.machine.obs.metrics.regime(1).unwrap().instructions
    };
    assert_eq!(run_b_instr(YIELDER), run_b_instr(SPINNER));
}

#[test]
fn wait_inside_a_padded_slot_idles_the_remainder() {
    // WAIT with interrupts enabled and time left in the slot: the regime
    // blocks, the slot is padded out, and the *next* slot belongs to the
    // peer — the peer cannot tell how early the waiter slept.
    let waiter = "
        BR start
        .org 0o100
        .word handler, 0
        .org 0o200
start:  MOV #0o160000, R4
        MOV #0o100, (R4)
loop:   WAIT
        BR loop
handler: RTI
";
    let cfg = quantum_cfg(
        vec![
            RegimeSpec::assembly("waiter", waiter).with_device(DeviceSpec::Clock { period: 64 }),
            RegimeSpec::assembly("peer", SPINNER),
        ],
        8,
        true,
    );
    let mut k = SeparationKernel::boot(cfg).unwrap();
    let events = k.run(60);
    // The waiter executes 4 of its 8 steps (BR, MOV, MOV, WAIT), blocks,
    // and the kernel pads the remaining 4 before rotating.
    assert_eq!(
        events[..9],
        [
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Executed,
            KernelEvent::Idle,
            KernelEvent::Idle,
            KernelEvent::Idle,
            KernelEvent::Idle,
            KernelEvent::Swapped { from: 0, to: 1 },
        ]
    );
    // From then on the slot cadence is strict: a swap every 9 phases (8
    // executed + the rotation), so the peer cannot tell how early the
    // waiter slept.
    let swap_indices: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, KernelEvent::Swapped { .. }))
        .map(|(i, _)| i)
        .collect();
    assert!(swap_indices.len() >= 4);
    for pair in swap_indices.windows(2) {
        assert_eq!(pair[1] - pair[0], 9, "fixed slot cadence at {pair:?}");
    }
}
