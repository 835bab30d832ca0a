//! Property tests for the separation kernel, on seeded cases: Proof of
//! Separability holds over a whole *family* of randomized regime programs,
//! and channels never lose, duplicate, or reorder messages.

use sep_kernel::channel::ChannelStatus;
use sep_kernel::config::{KernelConfig, RegimeSpec};
use sep_kernel::kernel::SeparationKernel;
use sep_kernel::regime::{NativeAction, NativeRegime, RegimeIo};
use sep_kernel::verify::KernelSystem;
use sep_model::check::SeparabilityChecker;
use sep_model::rng::{cases, Case};
use std::any::Any;

/// A randomized bounded register program: stride, modulus mask, scratch
/// value, and whether it toggles the carry.
fn regime_source(stride: u16, mask_bits: u16, scratch: u16, toggles_carry: bool) -> String {
    let mask = !((1u16 << mask_bits) - 1);
    let carry = if toggles_carry {
        "        BIT #1, R1\n        BEQ even\n        SEC\n        TRAP 0\n        BR start\neven:   CLC\n"
    } else {
        "        CLC\n"
    };
    format!(
        "
start:  ADD #{stride}, R1
        BIC #{mask}, R1
        MOV #{scratch}, R3
{carry}        TRAP 0
        BR start
"
    )
}

/// A random bounded register regime named `name`.
fn random_regime(c: &mut Case, name: &str) -> RegimeSpec {
    let (stride, mask_bits) = (c.int(1, 5) as u16, c.int(2, 3) as u16);
    let source = regime_source(stride, mask_bits, c.int(1, 999) as u16, c.rng.bool());
    RegimeSpec::assembly(name, &source)
}

/// The paper's claim, quantified over programs: ANY pair of bounded
/// register regimes yields a separable kernel.
#[test]
fn random_register_regimes_are_separable() {
    cases(0x905, 6, |c| {
        let cfg = KernelConfig::new(vec![random_regime(c, "a"), random_regime(c, "b")]);
        let sys = KernelSystem::new(cfg).unwrap();
        let report = SeparabilityChecker::new().check(&sys, &sys.abstractions());
        assert!(report.is_separable(), "{report}");
    });
}

/// A native sender that pushes numbered messages as fast as the channel
/// accepts.
#[derive(Clone, Default)]
struct Pusher {
    next: u32,
    sent: Vec<u32>,
}

impl NativeRegime for Pusher {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        if io.send(0, &self.next.to_le_bytes()) == ChannelStatus::Ok {
            self.sent.push(self.next);
            self.next += 1;
        }
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

/// A native receiver that drains with a randomized per-step appetite.
#[derive(Clone, Default)]
struct Drainer {
    appetite: Vec<u8>,
    pos: usize,
    received: Vec<u32>,
}

impl NativeRegime for Drainer {
    fn step(&mut self, io: &mut dyn RegimeIo) -> NativeAction {
        let n = self.appetite[self.pos % self.appetite.len()];
        self.pos += 1;
        for _ in 0..n {
            let Ok(m) = io.recv(0) else { break };
            self.received
                .push(u32::from_le_bytes([m[0], m[1], m[2], m[3]]));
        }
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

fn native<T: Clone + 'static>(k: &mut SeparationKernel, i: usize) -> T {
    let regime = k.regimes[i].native.as_mut().unwrap();
    regime.as_any().downcast_ref::<T>().unwrap().clone()
}

/// Channels deliver exactly the sent sequence: no loss, duplication, or
/// reordering, for any receiver appetite pattern and channel capacity.
#[test]
fn channels_are_lossless_fifos() {
    cases(0xF1F0, 16, |c| {
        let appetite = (0..c.int(1, 7)).map(|_| c.int(0, 3) as u8).collect();
        let (capacity, steps) = (c.int(1, 5) as usize, c.int(50, 299));
        let drainer = Drainer {
            appetite,
            ..Drainer::default()
        };
        let cfg = KernelConfig::new(vec![
            RegimeSpec::native("pusher", Box::new(Pusher::default())),
            RegimeSpec::native("drainer", Box::new(drainer)),
        ]);
        let mut k = SeparationKernel::boot(cfg.with_channel(0, 1, capacity)).unwrap();
        k.run(steps);
        let sent = native::<Pusher>(&mut k, 0).sent;
        let received = native::<Drainer>(&mut k, 1).received;
        // Received is a prefix of sent (the rest is still queued).
        assert!(received.len() <= sent.len());
        assert_eq!(sent[..received.len()], received[..]);
        // Conservation: everything sent is either received or in flight.
        let in_flight = k.channels[0].queue().len();
        assert_eq!(sent.len(), received.len() + in_flight);
    });
}

#[test]
fn kernel_clone_is_deep() {
    // Cloning a kernel and running the copies identically keeps them
    // identical; diverging one does not affect the other.
    let cfg = KernelConfig::new(vec![
        RegimeSpec::assembly("a", &regime_source(1, 2, 7, true)),
        RegimeSpec::assembly("b", &regime_source(2, 3, 9, false)),
    ]);
    let mut k1 = SeparationKernel::boot(cfg).unwrap();
    let mut k2 = k1.clone();
    k1.run(100);
    k2.run(100);
    assert_eq!(k1.state_vector(), k2.state_vector());
    k1.run(1);
    assert_ne!(k1.state_vector(), k2.state_vector());
}
