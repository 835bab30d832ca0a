//! What a kernel clone shares with its source: everything boot fixed (each
//! regime's name, device bindings, boot image and pristine native program,
//! and the metrics slot names) sits behind one reference count. Sharing
//! must stay invisible: a clone that restarts a regime or renames a
//! metrics slot leaves its source as it was.

use sep_kernel::config::{DeviceSpec, KernelConfig, RegimeSpec};
use sep_kernel::kernel::{KernelEvent, SeparationKernel};
use sep_kernel::regime::{
    FaultPolicy, NativeAction, NativeRegime, RegimeIo, RegimeStatus, PARTITION_SIZE,
};
use std::any::Any;

/// A native regime that counts its steps.
#[derive(Clone, Default)]
struct Counter {
    steps: u32,
}

impl NativeRegime for Counter {
    fn step(&mut self, _io: &mut dyn RegimeIo) -> NativeAction {
        self.steps += 1;
        NativeAction::Swap
    }

    fn boxed_clone(&self) -> Box<dyn NativeRegime> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn state_bytes(&self) -> Vec<u8> {
        self.steps.to_le_bytes().to_vec()
    }
}

const RESTART: FaultPolicy = FaultPolicy::Restart {
    budget: 2,
    backoff_slots: 0,
};

/// A native counter and a machine-code counter that writes its partition,
/// both restarting on a fault.
fn restartable() -> SeparationKernel {
    let cfg = KernelConfig::new(vec![
        RegimeSpec::native("native", Box::new(Counter::default())).with_fault_policy(RESTART),
        RegimeSpec::assembly(
            "asm",
            "start:  INC counter\n        TRAP 0\n        BR start\ncounter: .word 0\n",
        )
        .with_device(DeviceSpec::Serial)
        .with_fault_policy(RESTART),
    ]);
    SeparationKernel::boot(cfg).unwrap()
}

fn partition(k: &SeparationKernel, r: usize) -> Vec<u8> {
    let base = k.regimes[r].partition_base;
    k.machine.mem.range(base, PARTITION_SIZE).to_vec()
}

fn native_state(k: &SeparationKernel) -> Vec<u8> {
    k.regimes[0].native.as_ref().unwrap().state_bytes()
}

#[test]
fn a_clone_shares_its_sources_identity() {
    let k = restartable();
    let c = k.clone();
    for r in 0..2 {
        assert!(std::ptr::eq(k.identity(r), c.identity(r)), "regime {r}");
    }
    assert_eq!(c.identity(0).name, "native");
    assert_eq!(c.identity(1).name, "asm");
    assert_eq!(c.identity(1).devices.len(), 1);
    assert!(c.identity(0).native_boot.is_some());
    assert!(c.identity(1).native_boot.is_none());
}

#[test]
fn a_restart_in_a_clone_re_images_from_the_shared_boot_and_leaves_the_source() {
    let mut source = restartable();
    source.run(40);
    let (before_native, before_asm) = (native_state(&source), partition(&source, 1));
    assert_ne!(before_native, 0u32.to_le_bytes(), "the native regime ran");
    assert_ne!(
        before_asm,
        source.identity(1).boot_image,
        "the counter moved"
    );

    let mut clone = source.clone();
    clone.inject_fault(0);
    clone.inject_fault(1);
    let mut restarted = [false; 2];
    for _ in 0..20 {
        if let KernelEvent::Restarted { regime } = clone.step() {
            restarted[regime] = true;
            match regime {
                0 => assert_eq!(native_state(&clone), 0u32.to_le_bytes()),
                _ => assert_eq!(partition(&clone, 1), clone.identity(1).boot_image),
            }
        }
    }
    assert_eq!(restarted, [true; 2]);
    assert_eq!(
        [
            clone.regimes[0].restarts_used,
            clone.regimes[1].restarts_used
        ],
        [1, 1]
    );

    // The source saw none of it.
    assert_eq!(native_state(&source), before_native);
    assert_eq!(partition(&source, 1), before_asm);
    for rec in &source.regimes {
        assert_eq!(rec.status, RegimeStatus::Ready);
        assert_eq!(rec.restarts_used, 0);
    }
    // And the source still restarts from the same boot image.
    source.inject_fault(1);
    assert!((0..20).any(|_| matches!(source.step(), KernelEvent::Restarted { regime: 1 })));
    assert_eq!(partition(&source, 1), source.identity(1).boot_image);
}

#[test]
fn renaming_a_metrics_slot_in_a_clone_leaves_the_source() {
    let source = restartable();
    let mut clone = source.clone();
    clone.machine.obs.metrics.register_regime(1, "renamed");
    clone.machine.obs.metrics.register_device(0, "renamed-tty");
    let names = |k: &SeparationKernel| -> (Vec<String>, Vec<String>) {
        let m = &k.machine.obs.metrics;
        (
            m.regimes().iter().map(|(n, _)| n.to_string()).collect(),
            m.devices().iter().map(|(n, _)| n.to_string()).collect(),
        )
    };
    assert_eq!(
        names(&source),
        (vec!["native".into(), "asm".into()], vec!["asm-tty0".into()])
    );
    assert_eq!(
        names(&clone),
        (
            vec!["native".into(), "renamed".into()],
            vec!["renamed-tty".into()]
        )
    );
    // A slot the clone grows on demand is the clone's alone as well.
    clone.machine.obs.metrics.regime_mut(4).faults += 1;
    assert_eq!(clone.machine.obs.metrics.regimes()[4].0, "regime4");
    assert_eq!(source.machine.obs.metrics.regimes().len(), 2);
}
