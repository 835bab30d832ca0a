//! Proof of Separability for the real kernel.
//!
//! This module casts a booted [`SeparationKernel`] as a
//! [`sep_model::SharedSystem`] and supplies, for each regime, the
//! abstraction the paper requires: the regime's *abstract machine* is a
//! **single-regime copy of the same kernel** — literally the private,
//! physically isolated machine the regime believes it owns. Condition 1 is
//! then checked by *running* that private machine and comparing; conditions
//! 2–6 are checked on projections.
//!
//! The two-stage step of the formal model maps onto the kernel as:
//!
//! * `INPUT(s, i)` = the **consume phase**: device time advances, host
//!   bytes arrive on serial lines, raised interrupts are fielded into
//!   per-regime pending queues;
//! * `NEXTOP`/`op` = the **execute phase**: one instruction (or interrupt
//!   delivery, or context switch) on behalf of `COLOUR(s)` — the scheduled
//!   regime.
//!
//! Verified configurations must have their channels **cut** (the paper's
//! wire-cutting argument), no preemption quantum (the SUE has none), no DMA,
//! and machine-code regimes only.

use crate::config::{KernelConfig, Mutation, ProgramSpec, RegimeSpec, SchedPolicy};
use crate::kernel::{KernelError, SeparationKernel};
use crate::regime::{RegimeStatus, SaveArea, PARTITION_SIZE};
use sep_machine::dev::{Device, InterruptRequest};
use sep_machine::psw::{Mode, Psw};
use sep_machine::types::Word;
use sep_model::abstraction::Abstraction;
use sep_model::canon::{Ample, Reduction, ReductionStats};
use sep_model::check::{CheckReport, SeparabilityChecker};
use sep_model::fp::{fingerprint, Dedup, Fingerprinter};
use sep_model::parallel::{ExploreStats, ParallelSeparabilityChecker};
use sep_model::system::{Finite, Projected, SharedSystem};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// A kernel state, hashable and comparable through its canonical state
/// vector.
///
/// The vector is built on the first `Hash` or `Eq`, not when the state is
/// made. The checker compares most of the states it makes only through
/// [`Abstraction::view_key`] and [`Abstraction::phi_eq`]: the consumptions
/// `INPUT(s, i)` exploration keys on the way to a successor, and the
/// successors of conditions 1 and 2. Those never build one.
#[derive(Clone)]
pub struct KernelState {
    /// The full kernel (machine, regimes, channels). Mutating it after the
    /// state has been hashed or compared leaves a stale vector behind.
    pub kernel: SeparationKernel,
    vector: OnceLock<Vec<u64>>,
}

impl KernelState {
    /// Wraps a kernel; its state vector is built on first use.
    pub fn new(kernel: SeparationKernel) -> KernelState {
        KernelState {
            kernel,
            vector: OnceLock::new(),
        }
    }

    fn vector(&self) -> &[u64] {
        self.vector.get_or_init(|| self.kernel.state_vector())
    }
}

impl PartialEq for KernelState {
    fn eq(&self, other: &Self) -> bool {
        self.vector() == other.vector()
    }
}

impl Eq for KernelState {}

impl Hash for KernelState {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.vector().hash(state);
    }
}

impl core::fmt::Debug for KernelState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "KernelState(current={}, pcs=[{}])",
            self.kernel.current(),
            self.kernel
                .regimes
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let pc = if i == self.kernel.current() {
                        self.kernel.machine.cpu.pc
                    } else {
                        r.save.pc
                    };
                    format!("{pc:o}")
                })
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// One step of input: at most one serial byte per regime.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KInput(pub Vec<Option<u8>>);

/// The colour-generic operations of the kernel system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KOp {
    /// One execute phase on behalf of the scheduled regime.
    Step,
    /// The scheduled regime faults (as if it had trapped or been hit by an
    /// injected fault). Only in the op set when
    /// [`KernelSystem::with_fault_ops`] enabled it.
    Fault,
}

/// The kernel as a shared system over regime colours.
pub struct KernelSystem {
    /// The booted initial kernel.
    pub template: SeparationKernel,
    config: KernelConfig,
    /// The input alphabet used for exploration and conditions 3/4.
    pub inputs: Vec<KInput>,
    /// Bound on reachable-state enumeration.
    pub state_limit: usize,
    /// Whether [`KOp::Fault`] is in the op set and exploration additionally
    /// starts from each per-regime pre-faulted initial state.
    pub fault_ops: bool,
    /// Exploration seen-set policy: 128-bit fingerprints (default) or full
    /// resident states. Both give the same exploration order and verdicts
    /// (pinned by the hotpath differential suite); exact dedup trades
    /// memory for immunity to fingerprint collisions.
    pub dedup: Dedup,
    /// Regime-symmetry reduction: when the configuration is rotation
    /// symmetric (see [`KernelSystem::valid_rotations`]), explore orbit
    /// representatives only — states equal up to a cyclic relabelling of
    /// identical-image regimes collapse to one canonical fingerprint.
    pub symmetry: bool,
    /// Partial-order reduction: at each state, defer serial-byte inputs
    /// whose footprint is independent of the scheduled regime's step (see
    /// [`KernelSystem::ample_of`]), exploring an ample subset of the input
    /// alphabet. Conditions are still checked over the *full* alphabet at
    /// every explored state.
    pub por: bool,
}

impl KernelSystem {
    /// Builds the verification adapter. The configuration must be a
    /// *verifiable* one: channels cut (or absent), a cooperative scheduling
    /// policy, no DMA, and no native regimes.
    pub fn new(config: KernelConfig) -> Result<KernelSystem, KernelError> {
        assert!(
            config.channels.is_empty() || config.channels_cut,
            "verified configurations must cut their channels first \
             (KernelConfig::cut_channels) — that is the wire-cutting argument"
        );
        assert!(
            config.sched.verifiable(),
            "verified configurations need a cooperative scheduling policy \
             (round-robin or static-cyclic): a preemptive policy switches \
             or pads without the regime executing, while its single-regime \
             abstract machine executes — condition 1 cannot hold"
        );
        assert!(!config.allow_dma, "verified configurations exclude DMA");
        assert!(
            config
                .regimes
                .iter()
                .all(|r| !matches!(r.program, crate::config::ProgramSpec::Native(_))),
            "verified configurations use machine-code regimes"
        );
        let mut template = SeparationKernel::boot(config.clone())?;
        // Every checker state runs at most one execute phase on a fresh
        // clone, whose caches start empty: the fast engine would only pay
        // to fill them. Both engines are byte-identical
        // (`hotpath_differential`), so this cannot move a verdict.
        template.machine.set_hotpath(false);
        let n = config.regimes.len();
        Ok(KernelSystem {
            template,
            config,
            inputs: vec![KInput(vec![None; n])],
            state_limit: 200_000,
            fault_ops: false,
            dedup: Dedup::default(),
            symmetry: false,
            por: false,
        })
    }

    /// Selects the exploration seen-set policy (fingerprint vs exact).
    pub fn with_dedup(mut self, dedup: Dedup) -> KernelSystem {
        self.dedup = dedup;
        self
    }

    /// Toggles the regime-symmetry reduction. Safe to enable
    /// unconditionally: when [`KernelSystem::valid_rotations`] is empty the
    /// knob is inert and exploration is unreduced.
    pub fn with_symmetry(mut self, on: bool) -> KernelSystem {
        self.symmetry = on;
        self
    }

    /// Toggles the partial-order (ample-set) reduction.
    pub fn with_por(mut self, on: bool) -> KernelSystem {
        self.por = on;
        self
    }

    /// Adds [`KOp::Fault`] to the op set, so the Proof of Separability
    /// additionally quantifies over "the scheduled regime faults here" at
    /// every reachable state, and seeds exploration with each per-regime
    /// pre-faulted initial state so post-fault trajectories (backoff,
    /// re-imaging, exhausted budgets) are themselves explored under `Step`.
    pub fn with_fault_ops(mut self) -> KernelSystem {
        self.fault_ops = true;
        self
    }

    /// The initial states exploration starts from: the booted kernel, plus
    /// (with fault ops) one variant per regime in which that regime has
    /// already faulted.
    pub fn initial_states(&self) -> Vec<KernelState> {
        let mut states = vec![self.initial()];
        if self.fault_ops {
            for r in 0..self.config.regimes.len() {
                let mut k = self.template.clone();
                k.inject_fault(r);
                states.push(KernelState::new(k));
            }
        }
        states
    }

    /// Extends the input alphabet: for each regime and each byte, an input
    /// delivering that byte to that regime's serial line.
    pub fn with_input_bytes(mut self, bytes: &[u8]) -> KernelSystem {
        let n = self.config.regimes.len();
        for r in 0..n {
            for &b in bytes {
                let mut v = vec![None; n];
                v[r] = Some(b);
                self.inputs.push(KInput(v));
            }
        }
        self
    }

    /// The initial state.
    pub fn initial(&self) -> KernelState {
        KernelState::new(self.template.clone())
    }

    /// One abstraction per regime, each owning a single-regime copy of the
    /// kernel as its abstract machine.
    pub fn abstractions(&self) -> Vec<RegimeAbstraction> {
        (0..self.config.regimes.len())
            .map(|r| RegimeAbstraction::new(&self.config, r).expect("sub-configuration boots"))
            .collect()
    }
}

/// The set of regimes and channels a transition can read or write, as
/// bitmasks over configuration indices. Two transitions with disjoint
/// footprints commute — *because* the kernel is a separation kernel:
/// regimes own their partitions, devices, and (cut) channel ends
/// exclusively, so the only coupling between a step and an input delivery
/// is through the resources both name. The separability being verified is
/// itself what justifies the independence relation the partial-order
/// reduction leans on; the reduction differential suite pins the circle
/// closed empirically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Footprint {
    /// Bitmask of regime indices touched.
    pub regimes: u32,
    /// Bitmask of channel indices touched.
    pub channels: u32,
}

impl Footprint {
    /// Whether two footprints share any regime or channel.
    pub fn overlaps(&self, other: &Footprint) -> bool {
        self.regimes & other.regimes != 0 || self.channels & other.channels != 0
    }
}

impl KernelSystem {
    /// The footprint of an input: the regimes whose serial lines it feeds.
    /// Inputs never touch channels.
    pub fn input_footprint(&self, i: &KInput) -> Footprint {
        let mut regimes = 0u32;
        for (r, b) in i.0.iter().enumerate() {
            if b.is_some() {
                regimes |= 1 << r;
            }
        }
        Footprint {
            regimes,
            channels: 0,
        }
    }

    /// The footprint of the execute phase at `s`: the scheduled regime
    /// (its registers, partition, devices, pending queue) plus the cut
    /// channels it sends on — a cut channel's queue is written by its
    /// sender alone.
    pub fn step_footprint(&self, s: &KernelState) -> Footprint {
        let current = s.kernel.current();
        let logical = self.config.regimes[current].logical.unwrap_or(current);
        let mut channels = 0u32;
        for (c, ch) in self.config.channels.iter().enumerate() {
            if ch.from == logical {
                channels |= 1 << c;
            }
        }
        Footprint {
            regimes: 1 << current,
            channels,
        }
    }

    /// The rotations `k` under which this configuration is symmetric: every
    /// regime's *image* (program, devices, fault policy, watchdog) equals
    /// the image `k` slots ahead, and nothing in the configuration pins a
    /// slot identity. Rotations — not arbitrary permutations — because the
    /// round-robin scheduler distinguishes regime *order*: only a cyclic
    /// relabelling maps "the regime after r" onto "the regime after
    /// rot(r)".
    ///
    /// Requirements, each of which otherwise breaks the automorphism:
    /// * at least two regimes and no channels (channel endpoints name
    ///   slots);
    /// * effective round-robin scheduling (a static-cyclic table names
    ///   slots);
    /// * no [`Mutation::ScratchInPartition`] (it pins slot 0 as scratch);
    /// * assembly programs only, pairwise equal under the rotation, with no
    ///   `TRAP 4` (MYID answers the slot identity) and no `logical`
    ///   override;
    /// * the input alphabet closed under the rotation, so every explored
    ///   trajectory's relabelling is again a trajectory.
    pub fn valid_rotations(&self) -> Vec<usize> {
        let n = self.config.regimes.len();
        if n < 2
            || !self.config.channels.is_empty()
            || self.config.sched != SchedPolicy::RoundRobin
            || self.config.mutation == Mutation::ScratchInPartition
        {
            return Vec::new();
        }
        (1..n)
            .filter(|&k| {
                (0..n).all(|i| {
                    rotation_equal(&self.config.regimes[i], &self.config.regimes[(i + k) % n])
                }) && self.inputs_closed_under(k)
            })
            .collect()
    }

    /// Whether rotating every input vector by `k` lands back in the
    /// alphabet (`w[(i+k) % n] = v[i]`).
    fn inputs_closed_under(&self, k: usize) -> bool {
        let n = self.config.regimes.len();
        self.inputs.iter().all(|v| {
            let mut w = vec![None; n];
            for (i, b) in v.0.iter().enumerate() {
                w[(i + k) % n] = *b;
            }
            self.inputs.contains(&KInput(w))
        })
    }

    /// The ample input set at `s`: the indices of inputs that are *not*
    /// deferrable. An input is deferrable when it feeds only regimes
    /// independent of the scheduled regime's step — disjoint
    /// [`Footprint`]s, and every fed regime `Ready` (so the delivery cannot
    /// flip a status the scheduler is about to read). Boot refuses a
    /// static-cyclic table that leaves a regime out, so every verifiable
    /// schedule offers each `Ready` regime a slot and the deferred delivery
    /// is eventually explored from a later state. The null input is never
    /// deferrable, so the ample set is never empty and exploration never
    /// stalls.
    pub fn ample_of(&self, s: &KernelState, inputs: &[KInput]) -> Ample {
        let step = self.step_footprint(s);
        let mut keep = Vec::new();
        let mut deferred = false;
        for (idx, i) in inputs.iter().enumerate() {
            if self.deferrable(s, i, &step) {
                deferred = true;
            } else {
                keep.push(idx);
            }
        }
        if deferred {
            Ample::Subset(keep)
        } else {
            Ample::All
        }
    }

    fn deferrable(&self, s: &KernelState, i: &KInput, step: &Footprint) -> bool {
        let fp = self.input_footprint(i);
        if fp.regimes == 0 || fp.overlaps(step) {
            return false;
        }
        (0..self.config.regimes.len())
            .filter(|r| fp.regimes & (1 << r) != 0)
            .all(|r| s.kernel.regimes[r].status == RegimeStatus::Ready)
    }

    /// Builds the [`Reduction`] the knobs select and hands it to `f`.
    /// Scoped because the reduction borrows its closures.
    fn with_reduction<R>(&self, f: impl FnOnce(&Reduction<'_, KernelSystem>) -> R) -> R {
        let rotations = if self.symmetry {
            self.valid_rotations()
        } else {
            Vec::new()
        };
        let canon_fn = |s: &KernelState| canon_key(&rotations, s);
        let ample_fn = |s: &KernelState, inputs: &[KInput]| self.ample_of(s, inputs);
        let mut reduction: Reduction<'_, KernelSystem> = Reduction::none();
        if !rotations.is_empty() {
            reduction.canon = Some(&canon_fn);
        }
        if self.por {
            reduction.ample = Some(&ample_fn);
        }
        f(&reduction)
    }

    /// Enumerates the (possibly reduced) reachable state space with the
    /// sequential explorer, returning the states and the reduction
    /// counters.
    pub fn explore_sequential(&self) -> (Vec<KernelState>, ReductionStats) {
        self.with_reduction(|red| {
            let (states, truncated, stats) = sep_model::explore::reachable_states_reduced(
                self,
                &self.initial_states(),
                &self.inputs,
                self.state_limit,
                self.dedup,
                red,
            );
            assert!(
                !truncated,
                "kernel state space exceeded limit {}",
                self.state_limit
            );
            (states, stats)
        })
    }

    /// Like [`KernelSystem::explore_sequential`] with the sharded explorer;
    /// the returned [`ExploreStats`] carry the reduction counters.
    pub fn explore_sharded(&self, shards: usize) -> (Vec<KernelState>, ExploreStats) {
        self.with_reduction(|red| {
            let (states, stats) = sep_model::parallel::par_reachable_states_reduced(
                self,
                &self.initial_states(),
                &self.inputs,
                self.state_limit,
                shards,
                self.dedup,
                red,
            );
            assert!(
                !stats.truncated,
                "kernel state space exceeded limit {}",
                self.state_limit
            );
            (states, stats)
        })
    }
}

/// Whether regime image `a` may be relabelled as `b` under a rotation:
/// identical assembly source (that never asks MYID), identical devices,
/// fault policy and watchdog, and no logical-identity override.
fn rotation_equal(a: &RegimeSpec, b: &RegimeSpec) -> bool {
    let (ProgramSpec::Assembly(sa), ProgramSpec::Assembly(sb)) = (&a.program, &b.program) else {
        return false;
    };
    sa == sb
        && !source_asks_identity(sa)
        && a.logical.is_none()
        && b.logical.is_none()
        && a.devices == b.devices
        && a.fault_policy == b.fault_policy
        && a.watchdog == b.watchdog
}

/// Conservative scan for `TRAP 4` (MYID): any TRAP line mentioning a `4`
/// disqualifies the program from symmetry, comments included.
fn source_asks_identity(src: &str) -> bool {
    src.lines().any(|line| {
        let line = line.trim();
        line.contains("TRAP") && line.split(';').next().unwrap_or("").contains('4')
    })
}

/// The canonical orbit fingerprint of a state: the minimum, over the
/// identity and every valid rotation `k`, of the fingerprint of the
/// kernel's rotation-invariant [`SeparationKernel::symmetry_vector`].
/// States equal up to a valid rotation share this key, so the explorers'
/// seen-sets collapse each orbit to its first-discovered member.
pub fn canon_key(rotations: &[usize], s: &KernelState) -> u128 {
    let mut best = fingerprint(&s.kernel.symmetry_vector(0));
    for &k in rotations {
        best = best.min(fingerprint(&s.kernel.symmetry_vector(k)));
    }
    best
}

impl SharedSystem for KernelSystem {
    type State = KernelState;
    type Input = KInput;
    type Output = Vec<Vec<Word>>;
    type Colour = usize;
    type Op = KOp;

    fn colours(&self) -> Vec<usize> {
        (0..self.config.regimes.len()).collect()
    }

    fn colour(&self, s: &KernelState) -> usize {
        s.kernel.current()
    }

    fn output(&self, s: &KernelState) -> Vec<Vec<Word>> {
        // Each regime's output is the externally visible state of its
        // devices (line levels, last transmitted bytes, printed characters
        // in flight) — its environment's entire window onto it.
        (0..s.kernel.regimes.len())
            .map(|r| {
                let mut out = Vec::new();
                for b in &s.kernel.identity(r).devices {
                    if let Some(d) = s.kernel.machine.devices.get(b.machine_index) {
                        d.snapshot_into(&mut out);
                    }
                }
                out
            })
            .collect()
    }

    fn consume(&self, s: &KernelState, i: &KInput) -> KernelState {
        let mut kernel = s.kernel.clone();
        let _ = kernel.consume_phase(&i.0);
        KernelState::new(kernel)
    }

    fn next_op(&self, _s: &KernelState) -> KOp {
        // Constant, hence trivially a function of the current regime's own
        // view (condition 6): regimes step; faults *happen to* them, so
        // Fault is never the scheduled next op.
        KOp::Step
    }

    fn apply(&self, op: &KOp, s: &KernelState) -> KernelState {
        let mut kernel = s.kernel.clone();
        match op {
            KOp::Step => {
                let _ = kernel.exec_phase();
            }
            KOp::Fault => {
                let current = kernel.current();
                let _ = kernel.inject_fault(current);
            }
        }
        KernelState::new(kernel)
    }

    /// One kernel clone, with both phases run on it in place: `consume`
    /// and then `apply` would clone twice. `on_input` sees the clone
    /// between the phases, and `next_op` is constantly [`KOp::Step`], so
    /// the result is `apply(next_op(mid), mid)` for `mid = consume(s, i)`.
    fn successor_with(
        &self,
        s: &KernelState,
        i: &KInput,
        mut on_input: impl FnMut(&KernelState),
    ) -> KernelState {
        let mut mid = KernelState::new(s.kernel.clone());
        let _ = mid.kernel.consume_phase(&i.0);
        on_input(&mid);
        // Moving the kernel out drops any state vector `on_input` built.
        let mut kernel = mid.kernel;
        let _ = kernel.exec_phase();
        KernelState::new(kernel)
    }
}

impl Projected for KernelSystem {
    type View = Vec<Word>;

    fn extract_input(&self, c: &usize, i: &KInput) -> Vec<Word> {
        match i.0.get(*c).copied().flatten() {
            Some(b) => vec![1, b as Word],
            None => Vec::new(),
        }
    }

    fn extract_output(&self, c: &usize, o: &Vec<Vec<Word>>) -> Vec<Word> {
        o.get(*c).cloned().unwrap_or_default()
    }
}

impl Finite for KernelSystem {
    fn states(&self) -> Vec<KernelState> {
        // The sequential checker enumerates through here, so the symmetry
        // and partial-order knobs reduce it exactly as they reduce the
        // sharded checker.
        self.explore_sequential().0
    }

    fn inputs(&self) -> Vec<KInput> {
        self.inputs.clone()
    }

    fn ops(&self) -> Vec<KOp> {
        if self.fault_ops {
            vec![KOp::Step, KOp::Fault]
        } else {
            vec![KOp::Step]
        }
    }
}

/// Which Proof of Separability checker to run over a [`KernelSystem`].
///
/// Every selection produces an *identical* [`CheckReport`] — same check
/// counts, same violations in the same order — which the differential test
/// suite (`crates/model/tests/differential_checker.rs`) pins for every
/// workload, mutation, and shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckerSelect {
    /// The single-threaded reference checker.
    Sequential,
    /// The checker that explores on `shards` expander threads, then checks
    /// the six conditions in one single-threaded pass.
    Sharded {
        /// Expander threads for exploration.
        shards: usize,
    },
}

impl KernelSystem {
    /// Runs the Proof of Separability with the selected checker.
    pub fn check_with(&self, sel: &CheckerSelect) -> CheckReport {
        self.check_with_stats(sel).0
    }

    /// Like [`KernelSystem::check_with`], additionally returning the
    /// exploration statistics (frontier depth, per-shard counters) when a
    /// sharded checker ran.
    pub fn check_with_stats(&self, sel: &CheckerSelect) -> (CheckReport, Option<ExploreStats>) {
        let abstractions = self.abstractions();
        match sel {
            CheckerSelect::Sequential => {
                (SeparabilityChecker::new().check(self, &abstractions), None)
            }
            CheckerSelect::Sharded { shards } => {
                let checker = ParallelSeparabilityChecker::new(*shards).with_dedup(self.dedup);
                let (report, stats) = self.with_reduction(|red| {
                    checker.check_explored_reduced(
                        self,
                        &abstractions,
                        &self.initial_states(),
                        self.state_limit,
                        red,
                    )
                });
                assert!(
                    !stats.truncated,
                    "kernel state space exceeded limit {}",
                    self.state_limit
                );
                (report, Some(stats))
            }
        }
    }
}

/// A regime's view of the concrete machine: exactly the contents of its
/// private abstract machine.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegimeProjection {
    /// Scheduling status.
    pub status: RegimeStatus,
    /// The execution context as the regime can see it (the live CPU when it
    /// is current, its save area otherwise).
    pub context: SaveArea,
    /// Its partition's bytes.
    pub partition: Vec<u8>,
    /// Its devices' snapshots, in binding order.
    pub devices: Vec<Vec<Word>>,
    /// Interrupts pending for it.
    pub pending: Vec<(usize, InterruptRequest)>,
    /// Queues of the (cut) channels it is an endpoint of, in channel order.
    pub channels: Vec<Vec<Vec<u8>>>,
    /// Sticky backpressure bits of those channels (constant `false` under
    /// the live and quantized depth policies).
    pub latches: Vec<bool>,
    /// Restarts consumed from this regime's [`crate::regime::FaultPolicy`]
    /// budget. Regime-local recovery state: it determines whether another
    /// fault is survivable, so it is part of the regime's view.
    pub restarts_used: u32,
    /// Scheduler offers left before a pending restart re-images.
    pub backoff_left: u32,
    /// Instructions since the last voluntary yield (moves only under an
    /// armed watchdog).
    pub instr_since_yield: u64,
}

/// Φ^c and the abstract machine for one regime.
pub struct RegimeAbstraction {
    regime: usize,
    /// The regime's private machine: a single-regime kernel booted from the
    /// same specification.
    template: SeparationKernel,
    /// Channel indices (in the full system) this regime may observe.
    visible_channels: Vec<usize>,
}

impl RegimeAbstraction {
    /// Builds the abstraction for `regime` of `config`.
    pub fn new(config: &KernelConfig, regime: usize) -> Result<RegimeAbstraction, KernelError> {
        let logical = config.regimes[regime].logical.unwrap_or(regime);
        let mut spec = config.regimes[regime].clone();
        spec.logical = Some(logical);
        // A *cut* channel's queue is written only by its sender; it is part
        // of the sender's view and nobody else's (the receiver of a cut
        // channel sees a constant empty end).
        let visible_channels: Vec<usize> = config
            .channels
            .iter()
            .enumerate()
            .filter(|(_, ch)| ch.from == logical)
            .map(|(i, _)| i)
            .collect();
        // The sub-configuration keeps the *entire* channel list so channel
        // ids mean the same thing on the abstract machine.
        let sub = KernelConfig {
            regimes: vec![spec],
            channels: config.channels.clone(),
            channels_cut: true,
            // The single-regime machine always schedules its one regime;
            // round-robin expresses that under every verifiable policy.
            sched: SchedPolicy::RoundRobin,
            allow_dma: false,
            mutation: crate::config::Mutation::None,
            // Abstract machines never trace: their job is state equality,
            // and traces are not modelled state anyway.
            trace: None,
        };
        let mut template = SeparationKernel::boot(sub)?;
        // Each abstract step runs one execute phase on a fresh clone; see
        // `KernelSystem::new`.
        template.machine.set_hotpath(false);
        Ok(RegimeAbstraction {
            regime,
            // Boot leaves the pages it loaded owned, and every clone would
            // copy an owned page. A clone holds each page shared, so the
            // clones made of it per abstract step copy none.
            template: template.clone(),
            visible_channels,
        })
    }

    /// Regime `r`'s execution context as it can see it: the live CPU when
    /// it is current, its save area otherwise.
    fn context(kernel: &SeparationKernel, r: usize) -> SaveArea {
        if kernel.current() == r {
            SaveArea {
                r: kernel.machine.cpu.r,
                sp: kernel.machine.cpu.sp_of(Mode::User),
                pc: kernel.machine.cpu.pc,
                cc: kernel.machine.cpu.psw.cc_bits(),
            }
        } else {
            kernel.regimes[r].save
        }
    }

    /// Loads a visible context onto the private machine's CPU: the single
    /// regime is always current, so its context is always live.
    fn load_context(k: &mut SeparationKernel, context: SaveArea) {
        k.machine.cpu.r = context.r;
        k.machine.cpu.set_sp_of(Mode::User, context.sp);
        k.machine.cpu.pc = context.pc;
        let mut psw = Psw::user();
        psw.set_cc_bits(context.cc);
        k.machine.cpu.psw = psw;
    }

    /// Regime `r`'s devices, in binding order.
    fn devices(kernel: &SeparationKernel, r: usize) -> impl Iterator<Item = &dyn Device> + '_ {
        kernel.identity(r).devices.iter().map(|b| {
            // A binding's machine index is valid by construction; a stale
            // one is a kernel bug that an empty default snapshot would mask
            // as "two devices agree".
            kernel
                .machine
                .devices
                .get(b.machine_index)
                .expect("bound device present")
        })
    }

    /// Projects regime `r`'s view out of a kernel (`r` is an index into
    /// `kernel.regimes`).
    fn project(
        kernel: &SeparationKernel,
        r: usize,
        visible_channels: &[usize],
    ) -> RegimeProjection {
        let rec = &kernel.regimes[r];
        let partition = kernel
            .machine
            .mem
            .range(rec.partition_base, PARTITION_SIZE)
            .to_vec();
        let channels = visible_channels
            .iter()
            .filter_map(|&i| kernel.channels.get(i))
            .map(|c| c.queue().iter().cloned().collect())
            .collect();
        let latches = visible_channels
            .iter()
            .filter_map(|&i| kernel.channels.get(i))
            .map(|c| c.latched_full)
            .collect();
        RegimeProjection {
            status: rec.status,
            context: Self::context(kernel, r),
            partition,
            devices: Self::devices(kernel, r).map(|d| d.snapshot()).collect(),
            pending: rec.pending_irqs.iter().copied().collect(),
            channels,
            latches,
            restarts_used: rec.restarts_used,
            backoff_left: rec.backoff_left,
            instr_since_yield: rec.instr_since_yield,
        }
    }

    /// Imposes a projection onto the private machine (regime index 0).
    fn impose(&self, a: &RegimeProjection) -> SeparationKernel {
        let mut k = self.template.clone();
        k.regimes[0].status = a.status;
        Self::load_context(&mut k, a.context);
        // Partition contents.
        let base = k.regimes[0].partition_base;
        k.machine.mem.write_range(base, &a.partition);
        // Devices.
        for (binding, snap) in self.template.identity(0).devices.iter().zip(&a.devices) {
            if let Some(d) = k.machine.devices.get_mut(binding.machine_index) {
                d.restore(snap);
            }
        }
        // Fault-recovery state.
        k.regimes[0].restarts_used = a.restarts_used;
        k.regimes[0].backoff_left = a.backoff_left;
        k.regimes[0].instr_since_yield = a.instr_since_yield;
        // Pending interrupts and channels.
        k.regimes[0].pending_irqs = a.pending.iter().copied().collect();
        for (&idx, msgs) in self.visible_channels.iter().zip(&a.channels) {
            k.channels[idx].restore_queue(msgs.clone());
        }
        for (&idx, &latched) in self.visible_channels.iter().zip(&a.latches) {
            k.channels[idx].latched_full = latched;
        }
        k
    }

    /// The private machine with regime `r` of `src` imposed on it: what
    /// `impose(&project(src, r, ..))` builds, without building the
    /// projection. The partition page is shared with `src`, not copied,
    /// and each device snapshot passes through one buffer.
    fn impose_from(&self, src: &SeparationKernel, r: usize) -> SeparationKernel {
        let rec = &src.regimes[r];
        let mut k = self.template.clone();
        let mine = &mut k.regimes[0];
        mine.status = rec.status;
        mine.restarts_used = rec.restarts_used;
        mine.backoff_left = rec.backoff_left;
        mine.instr_since_yield = rec.instr_since_yield;
        mine.pending_irqs.clone_from(&rec.pending_irqs);
        let base = mine.partition_base;
        Self::load_context(&mut k, Self::context(src, r));
        k.machine
            .mem
            .share_page_from(base, &src.machine.mem, rec.partition_base);
        let mut snap = Vec::new();
        let bindings = &self.template.identity(0).devices;
        for (binding, d) in bindings.iter().zip(Self::devices(src, r)) {
            snap.clear();
            d.snapshot_into(&mut snap);
            if let Some(mine) = k.machine.devices.get_mut(binding.machine_index) {
                mine.restore(&snap);
            }
        }
        for &i in &self.visible_channels {
            if let Some(c) = src.channels.get(i) {
                k.channels[i].restore_queue(c.queue().iter().cloned().collect());
                k.channels[i].latched_full = c.latched_full;
            }
        }
        k
    }

    /// Runs `op` on the private machine: its execute phase, or, for
    /// [`KOp::Fault`], "my regime faults" — the containment code the full
    /// kernel runs for "the scheduled regime faults", on one regime.
    fn run(k: &mut SeparationKernel, op: &KOp) {
        match op {
            KOp::Step => {
                let _ = k.exec_phase();
            }
            KOp::Fault => {
                let _ = k.inject_fault(0);
            }
        }
    }

    /// Whether regime `r1` of `k1` and regime `r2` of `k2` show this
    /// abstraction one view: every component [`RegimeAbstraction::project`]
    /// copies — status, recovery counters, visible context, pending
    /// interrupts, partition bytes, device snapshots, visible channel
    /// queues and latches — compared where it lives. `phi_eq` compares two
    /// concrete states with it, and `op_respects` a concrete successor with
    /// the private machine (`r2 = 0`).
    fn same_view(
        &self,
        k1: &SeparationKernel,
        r1: usize,
        k2: &SeparationKernel,
        r2: usize,
    ) -> bool {
        let (rec1, rec2) = (&k1.regimes[r1], &k2.regimes[r2]);
        if rec1.status != rec2.status
            || rec1.restarts_used != rec2.restarts_used
            || rec1.backoff_left != rec2.backoff_left
            || rec1.instr_since_yield != rec2.instr_since_yield
            || Self::context(k1, r1) != Self::context(k2, r2)
            || rec1.pending_irqs != rec2.pending_irqs
            || k1.identity(r1).devices.len() != k2.identity(r2).devices.len()
        {
            return false;
        }
        // One buffer: each pair of snapshots side by side.
        let mut snaps = Vec::new();
        for (d1, d2) in Self::devices(k1, r1).zip(Self::devices(k2, r2)) {
            snaps.clear();
            d1.snapshot_into(&mut snaps);
            let half = snaps.len();
            d2.snapshot_into(&mut snaps);
            if snaps[..half] != snaps[half..] {
                return false;
            }
        }
        k1.machine
            .mem
            .same_page(rec1.partition_base, &k2.machine.mem, rec2.partition_base)
            && self.visible_channels.iter().all(|&i| {
                let (c1, c2) = (k1.channels.get(i), k2.channels.get(i));
                c1.map(|c| c.queue()) == c2.map(|c| c.queue())
                    && c1.map(|c| c.latched_full) == c2.map(|c| c.latched_full)
            })
    }
}

impl Abstraction<KernelSystem> for RegimeAbstraction {
    type AState = RegimeProjection;
    type AOp = KOp;

    fn colour(&self) -> usize {
        self.regime
    }

    fn phi(&self, _sys: &KernelSystem, s: &KernelState) -> RegimeProjection {
        RegimeAbstraction::project(&s.kernel, self.regime, &self.visible_channels)
    }

    fn abop(&self, _sys: &KernelSystem, op: &KOp) -> KOp {
        *op
    }

    fn apply_abstract(
        &self,
        _sys: &KernelSystem,
        aop: &KOp,
        a: &RegimeProjection,
    ) -> RegimeProjection {
        let mut k = self.impose(a);
        Self::run(&mut k, aop);
        // The sub-configuration keeps the full channel list, so the visible
        // indices carry over unchanged.
        RegimeAbstraction::project(&k, 0, &self.visible_channels)
    }

    /// Condition 1 without a view: imposes regime `r` of `s` straight onto
    /// the private machine (`impose_from`, sharing the partition page),
    /// runs `op` there, and compares the result with regime `r` of `after`
    /// in place. Agrees exactly with the materialised default (pinned by a
    /// test below), which stays the sequential checker's path.
    fn op_respects(
        &self,
        _sys: &KernelSystem,
        op: &KOp,
        s: &KernelState,
        after: &KernelState,
    ) -> bool {
        let mut k = self.impose_from(&s.kernel, self.regime);
        Self::run(&mut k, op);
        self.same_view(&after.kernel, self.regime, &k, 0)
    }

    /// In-place `Φ^c(s1) = Φ^c(s2)`: `same_view` of the regime in both
    /// states, without cloning the 8 KiB partition into
    /// a [`RegimeProjection`]. Agrees exactly with `phi(s1) == phi(s2)`
    /// (pinned by a test below); the parallel checker decides condition 2
    /// with it and confirms view-key equalities with it under exact dedup,
    /// materialising views only when it needs a violation witness.
    fn phi_eq(&self, _sys: &KernelSystem, s1: &KernelState, s2: &KernelState) -> bool {
        self.same_view(&s1.kernel, self.regime, &s2.kernel, self.regime)
    }

    /// Hashes in place the fields `project` copies and `phi_eq` compares,
    /// in the order and encoding of the tuple (status, recovery counters,
    /// visible context, partition, device snapshots, pending queue, visible
    /// channels as `(queue, latch)` pairs) whose [`fingerprint`] it is. The
    /// partition enters as its page's memoized FNV-1a
    /// ([`sep_machine::mem::Memory::fingerprint`]), the value
    /// [`SeparationKernel::state_vector`] hashes, so no 8 KiB copy is made
    /// and a view key is no weaker than a seen-set key. Each device
    /// snapshot passes through one buffer, and nothing else is built.
    fn view_key(&self, _sys: &KernelSystem, s: &KernelState) -> u128 {
        let (k, r) = (&s.kernel, self.regime);
        let rec = &k.regimes[r];
        let mut h = Fingerprinter::new();
        rec.status.hash(&mut h);
        (rec.restarts_used, rec.backoff_left, rec.instr_since_yield).hash(&mut h);
        Self::context(k, r).hash(&mut h);
        k.machine
            .mem
            .fingerprint(rec.partition_base, PARTITION_SIZE)
            .hash(&mut h);
        // A sequence enters as its length, then its elements, as a `Vec`'s
        // `Hash` writes it.
        h.write_usize(k.identity(r).devices.len());
        let mut snap = Vec::new();
        for d in Self::devices(k, r) {
            snap.clear();
            d.snapshot_into(&mut snap);
            snap.hash(&mut h);
        }
        rec.pending_irqs.hash(&mut h);
        let channels = self
            .visible_channels
            .iter()
            .filter_map(|&i| k.channels.get(i));
        h.write_usize(channels.clone().count());
        for c in channels {
            (c.queue(), c.latched_full).hash(&mut h);
        }
        h.finish128()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChannelSpec, DepthPolicy, DeviceSpec, KernelConfig, RegimeSpec};

    fn two_counters() -> KernelConfig {
        // Two regimes, each incrementing a private counter then yielding.
        let prog = "
start:  INC counter
        MOV #3, R3
        TRAP 0          ; SWAP
        BR start
counter: .word 0
";
        let prog2 = "
start:  ADD #2, counter
        MOV #5, R3
        TRAP 0
        BR start
counter: .word 0
";
        KernelConfig::new(vec![
            RegimeSpec::assembly("red", prog),
            RegimeSpec::assembly("black", prog2),
        ])
    }

    #[test]
    fn projection_roundtrip_through_impose() {
        let sys = KernelSystem::new(two_counters()).unwrap();
        let abstractions = sys.abstractions();
        let s0 = sys.initial();
        for a in &abstractions {
            let phi = a.phi(&sys, &s0);
            let imposed = a.impose(&phi);
            let back = RegimeAbstraction::project(&imposed, 0, &a.visible_channels);
            assert_eq!(back, phi);
        }
    }

    /// Like [`two_counters`] but with the counters masked down to three
    /// bits, so the reachable state space is small enough to enumerate.
    /// (`two_counters` itself runs its counters through the full word
    /// range — fine for single-state tests, hopeless for exploration.)
    fn two_bounded_counters() -> KernelConfig {
        let prog = "
start:  INC R1
        BIC #0o177770, R1
        MOV #3, R3
        TRAP 0          ; SWAP
        BR start
";
        let prog2 = "
start:  ADD #2, R1
        BIC #0o177770, R1
        MOV #5, R3
        TRAP 0
        BR start
";
        KernelConfig::new(vec![
            RegimeSpec::assembly("red", prog),
            RegimeSpec::assembly("black", prog2),
        ])
    }

    #[test]
    fn phi_eq_agrees_with_materialised_phi() {
        // The in-place override must agree with `phi(s1) == phi(s2)` on
        // every pair of reachable states — the parallel checker's
        // correctness rests on this equivalence.
        for (n, sys) in in_place_systems().iter().enumerate() {
            let states = sys.states();
            for a in &sys.abstractions() {
                let phis: Vec<RegimeProjection> = states.iter().map(|s| a.phi(sys, s)).collect();
                let mut shared = 0;
                for (i, s1) in states.iter().enumerate() {
                    for (j, s2) in states.iter().enumerate() {
                        assert_eq!(
                            a.phi_eq(sys, s1, s2),
                            phis[i] == phis[j],
                            "system {n}, colour {}: phi_eq diverges from phi at pair ({i}, {j})",
                            a.regime
                        );
                        shared += usize::from(i != j && phis[i] == phis[j]);
                    }
                }
                assert!(shared > 0, "system {n}: no two views are equal");
            }
        }
    }

    #[test]
    fn op_respects_agrees_with_the_materialised_default() {
        // Condition 1 in place (impose on the private machine sharing the
        // partition page, run, compare) must answer exactly what the
        // trait's default answers by materialising `phi(op(s))` and
        // `ABOP(op)(phi(s))`, for every reachable state, op and colour. The
        // mutant writes into regime 0's partition while switching, so the
        // active colour's condition 1 fails there and holds elsewhere.
        let mut mutant = two_bounded_counters();
        mutant.mutation = Mutation::ScratchInPartition;
        let mut systems = in_place_systems();
        systems.push(KernelSystem::new(mutant).unwrap().with_fault_ops());
        let (mut held, mut failed) = (0, 0);
        for (n, sys) in systems.iter().enumerate() {
            for s in &sys.states() {
                for op in &sys.ops() {
                    let after = sys.apply(op, s);
                    for a in &sys.abstractions() {
                        let materialised = a.phi(sys, &after)
                            == a.apply_abstract(sys, &a.abop(sys, op), &a.phi(sys, s));
                        assert_eq!(
                            a.op_respects(sys, op, s, &after),
                            materialised,
                            "system {n}, colour {}, {op:?} at {s:?}",
                            a.regime
                        );
                        if sys.colour(s) == a.regime {
                            held += usize::from(materialised);
                            failed += usize::from(!materialised);
                        }
                    }
                }
            }
        }
        assert!(held > 0 && failed > 0, "{held} held, {failed} failed");
    }

    /// A sender that POLLs its cut channel's depth under the sticky depth
    /// policy, so its latch is part of its view once the queue fills.
    fn sticky_channel() -> KernelConfig {
        let sender = "
start:  MOV #0, R0
        MOV #msg, R1
        MOV #1, R2
        TRAP 1
        MOV #0, R0
        TRAP 3
        TRAP 0
        BR start
msg:    .byte 7
        .even
";
        let receiver = "
start:  MOV #0, R0
        MOV #buf, R1
        MOV #4, R2
        TRAP 2
        TRAP 0
        BR start
buf:    .blkw 2
";
        let mut cfg = KernelConfig::new(vec![
            RegimeSpec::assembly("sender", sender),
            RegimeSpec::assembly("receiver", receiver),
        ]);
        cfg.channels
            .push(ChannelSpec::new(0, 1, 2).with_depth(DepthPolicy::Sticky));
        cfg.cut_channels()
    }

    /// Two identical yielders, each with a one-byte serial receiver: the
    /// shape of `sep-bench`'s `symmetric_workload(2)`, whose input bytes
    /// land in the devices.
    fn symmetric_pair() -> KernelConfig {
        KernelConfig::new(
            (0..2)
                .map(|i| {
                    RegimeSpec::assembly(&format!("peer{i}"), "start: TRAP 0\n BR start")
                        .with_device(DeviceSpec::SerialRx { capacity: 1 })
                })
                .collect(),
        )
    }

    /// A clock owner that enables its interrupt but installs no handler,
    /// beside a bounded counter: requests queue up while the counter runs
    /// and are discarded one per owner step, so views differ in the
    /// pending queue alone.
    fn clocked_owner() -> KernelConfig {
        KernelConfig::new(vec![
            RegimeSpec::assembly(
                "owner",
                "start: MOV #0o160000, R4\n MOV #0o100, (R4)\nloop: TRAP 0\n BR loop",
            )
            .with_device(DeviceSpec::Clock { period: 3 }),
            RegimeSpec::assembly(
                "bystander",
                "start: INC R1\n BIC #0o177774, R1\n TRAP 0\n BR start",
            ),
        ])
    }

    /// The systems the in-place view code is pinned on: fault recovery
    /// state, a sticky channel latch, input bytes landing in devices, and
    /// a pending interrupt queue.
    fn in_place_systems() -> Vec<KernelSystem> {
        vec![
            KernelSystem::new(two_bounded_counters())
                .unwrap()
                .with_fault_ops(),
            KernelSystem::new(sticky_channel()).unwrap(),
            KernelSystem::new(symmetric_pair())
                .unwrap()
                .with_input_bytes(&[1]),
            KernelSystem::new(clocked_owner()).unwrap(),
        ]
    }

    /// The reachable states of `sys` and every consumption `INPUT(s, i)`.
    fn views(sys: &KernelSystem) -> Vec<KernelState> {
        let states = sys.states();
        let mut views = states.clone();
        for s in &states {
            views.extend(sys.inputs.iter().map(|i| sys.consume(s, i)));
        }
        views
    }

    #[test]
    fn view_key_hashes_the_tuple_it_replaced() {
        // Hashed in place, a view key is the fingerprint of the tuple of
        // the view's parts that keys were once built from.
        for (n, sys) in in_place_systems().iter().enumerate() {
            for v in &views(sys) {
                let k = &v.kernel;
                for a in &sys.abstractions() {
                    let (r, rec) = (a.regime, &k.regimes[a.regime]);
                    let channels: Vec<_> = a
                        .visible_channels
                        .iter()
                        .filter_map(|&i| k.channels.get(i))
                        .map(|c| (c.queue(), c.latched_full))
                        .collect();
                    let built = fingerprint(&(
                        rec.status,
                        (rec.restarts_used, rec.backoff_left, rec.instr_since_yield),
                        RegimeAbstraction::context(k, r),
                        k.machine
                            .mem
                            .fingerprint(rec.partition_base, PARTITION_SIZE),
                        RegimeAbstraction::devices(k, r)
                            .map(|d| d.snapshot())
                            .collect::<Vec<_>>(),
                        &rec.pending_irqs,
                        channels,
                    ));
                    assert_eq!(a.view_key(sys, v), built, "system {n}, colour {r}, {v:?}");
                }
            }
        }
    }

    #[test]
    fn view_key_agrees_with_phi() {
        // `view_key` must be equal exactly when `phi` is, over every pair
        // of reachable states and consumptions `INPUT(s, i)`: the sharded
        // checker groups views and compares consumptions by key alone.
        for (n, sys) in in_place_systems().iter().enumerate() {
            let views = views(sys);
            for a in &sys.abstractions() {
                let phis: Vec<RegimeProjection> = views.iter().map(|v| a.phi(sys, v)).collect();
                let keys: Vec<u128> = views.iter().map(|v| a.view_key(sys, v)).collect();
                let mut shared = 0;
                for i in 0..views.len() {
                    for j in 0..views.len() {
                        assert_eq!(
                            keys[i] == keys[j],
                            phis[i] == phis[j],
                            "system {n}, colour {}: key and view disagree at ({i}, {j})",
                            a.regime
                        );
                        shared += usize::from(i != j && phis[i] == phis[j]);
                    }
                }
                assert!(shared > 0, "system {n}: no two views are equal");
            }
        }
    }

    #[test]
    fn checker_selection_is_report_identical() {
        let sys = KernelSystem::new(two_bounded_counters()).unwrap();
        let (seq, no_stats) = sys.check_with_stats(&CheckerSelect::Sequential);
        assert!(no_stats.is_none());
        for shards in [1, 2, 4] {
            let sel = CheckerSelect::Sharded { shards };
            let (par, stats) = sys.check_with_stats(&sel);
            assert_eq!(seq, par, "selection {sel:?}");
            let stats = stats.expect("sharded runs report stats");
            assert_eq!(stats.states, seq.states);
        }
    }

    /// What a successor could differ in: its state vector and counters.
    fn observed(s: &KernelState) -> (Vec<u64>, crate::kernel::KernelStats) {
        (s.kernel.state_vector(), s.kernel.stats.clone())
    }

    #[test]
    fn consume_then_apply_matches_full_step() {
        let sys = KernelSystem::new(two_counters()).unwrap();
        let s0 = sys.initial();
        let i = KInput(vec![None, None]);
        let (_, s1) = sys.step(&s0, &i);
        let mut direct = sys.template.clone();
        direct.step();
        assert_eq!(KernelState::new(direct), s1);

        // The one-clone `successor_with` shows its callback exactly
        // `mid = consume(s, i)`, and its successor equals `successor`'s,
        // `step`'s and the two-clone path it replaces,
        // `apply(next_op(mid), mid)`, at every state x input checked.
        // `two_counters` never closes, so it covers a BFS prefix.
        let unbounded = KernelSystem::new(two_counters())
            .unwrap()
            .with_input_bytes(&[1]);
        let (prefix, _) = sep_model::explore::reachable_states(
            &unbounded,
            &unbounded.initial_states(),
            &unbounded.inputs,
            200,
        );
        let bounded = KernelSystem::new(two_bounded_counters())
            .unwrap()
            .with_input_bytes(&[1]);
        let faulting = KernelSystem::new(two_bounded_counters())
            .unwrap()
            .with_fault_ops();
        let mut checked = 0;
        for (sys, states) in [
            (&unbounded, prefix),
            (&bounded, bounded.states()),
            (&faulting, faulting.states()),
        ] {
            for s in &states {
                for i in &sys.inputs {
                    let mut shown = None;
                    let next = sys.successor_with(s, i, |mid| shown = Some(observed(mid)));
                    let mid = sys.consume(s, i);
                    let two_clones = sys.apply(&sys.next_op(&mid), &mid);
                    assert_eq!(shown, Some(observed(&mid)), "{s:?} {i:?}");
                    assert_eq!(
                        observed(&next),
                        observed(&sys.successor(s, i)),
                        "{s:?} {i:?}"
                    );
                    assert_eq!(observed(&next), observed(&sys.step(s, i).1), "{s:?} {i:?}");
                    assert_eq!(observed(&next), observed(&two_clones), "{s:?} {i:?}");
                    checked += 1;
                }
            }
        }
        assert!(checked > 400, "only {checked} successors checked");
    }

    #[test]
    fn kernel_state_compares_and_hashes_like_its_state_vector() {
        let sys = KernelSystem::new(two_bounded_counters())
            .unwrap()
            .with_fault_ops();
        let states = sys.states();
        // Fresh wrappers, so each vector is built on first use here.
        let fresh: Vec<KernelState> = states
            .iter()
            .map(|s| KernelState::new(s.kernel.clone()))
            .collect();
        let vectors: Vec<Vec<u64>> = states.iter().map(|s| s.kernel.state_vector()).collect();
        for (i, a) in fresh.iter().enumerate() {
            assert_eq!(fingerprint(a), fingerprint(&vectors[i]), "state {i}");
            assert_eq!(
                fingerprint(&a.clone()),
                fingerprint(&vectors[i]),
                "clone {i}"
            );
            for (j, b) in fresh.iter().enumerate() {
                assert_eq!(a == b, vectors[i] == vectors[j], "pair ({i}, {j})");
            }
        }
        // A state and its own successor differ, and equality survives the
        // vector being built on one side only.
        let s = &states[0];
        let next = sys.successor(s, &sys.inputs[0]);
        assert_ne!(*s, next);
        assert_eq!(KernelState::new(s.kernel.clone()), *s);
    }
}
