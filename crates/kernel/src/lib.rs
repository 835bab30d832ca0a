//! The separation kernel — a reproduction of the RSRE "Secure User
//! Environment" (SUE) described in Rushby's paper.
//!
//! > "The role which I propose for a security kernel is simply that it
//! > should re-create, within a single shared machine, an environment which
//! > supports the various components of the system, and provides the
//! > communications channels between them, in such a way that individual
//! > components of the system *cannot distinguish* this shared environment
//! > from a physically distributed one."
//!
//! Like the SUE, this kernel:
//!
//! * allocates each regime a **fixed partition** of real memory and
//!   programs the MMU so a regime can touch nothing else — including device
//!   registers, which are mapped into the owning regime's space;
//! * performs **no scheduling**: regimes run until they suspend voluntarily
//!   (a `SWAP` trap or `WAIT`), whereupon control passes round-robin;
//! * **excludes DMA** from the system;
//! * does almost nothing but **field interrupts** and pass them to the
//!   owning regime, and copy messages along statically configured
//!   **channels**.
//!
//! Policy enforcement is *not here*: it lives in the trusted components of
//! `sep-components`, exactly as the paper prescribes.
//!
//! Modules:
//!
//! * [`config`] — static system configuration (regimes, programs, devices,
//!   channels) and the sabotage [`config::Mutation`]s used by experiment E2.
//! * [`regime`] — per-regime state, save areas, and the [`regime::NativeRegime`]
//!   escape hatch for components too large to write in assembly.
//! * [`channel`] — kernel-mediated unidirectional message channels, with the
//!   "cut" variant used by the wire-cutting verification argument.
//! * [`sched`] — the scheduler layer: [`sched::SchedPolicy`], the one
//!   scheduling type (round-robin, fixed time slices, lottery, static
//!   cyclic), of which only the cooperative policies verify.
//! * [`kernel`] — the kernel proper: boot, the consume/execute step cycle,
//!   context switching, trap handling, interrupt forwarding, and fault
//!   containment/recovery (per-regime [`regime::FaultPolicy`]).
//! * [`fault`] — the adapter that applies a seeded `sep-fault` plan to a
//!   running kernel (host-side fault injection).
//! * [`verify`] — the Proof of Separability adapter: the kernel as a
//!   [`sep_model::SharedSystem`], with one abstraction per regime whose
//!   abstract machine is a *single-regime* copy of the same kernel.
//! * [`conventional`] — the baseline: a KSOS-flavoured policy-enforcing
//!   kernel with trusted-process privileges, for experiments E1/E5/E7.

#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod conventional;
pub mod fault;
pub mod kernel;
pub mod regime;
pub mod sched;
pub mod verify;

pub use channel::{Channel, ChannelStatus};
pub use config::{
    ChannelSpec, DepthPolicy, DeviceSpec, KernelConfig, Mutation, ProgramSpec, RegimeSpec,
    SchedPolicy,
};
pub use kernel::{KernelError, KernelEvent, KernelStats, SeparationKernel};
pub use regime::{
    ChannelView, FaultCause, FaultPolicy, NativeAction, NativeRegime, RegimeIo, RegimeStatus,
};
pub use verify::{KernelState, KernelSystem, RegimeAbstraction};
