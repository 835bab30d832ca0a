//! The machine: CPU + MMU + memory + devices, executing unprivileged code.
//!
//! [`Machine::step`] advances time by one unit: devices tick, DMA requests
//! are honoured or refused, a pending interrupt above the CPU priority is
//! surfaced, or one instruction executes. Everything privileged — trap
//! handling, interrupt dispatch, register save/restore, MMU loading — is the
//! embedder's job: the separation kernel in `sep-kernel` receives each
//! [`Event`] and manipulates the machine as the SUE's handlers would.

use crate::cpu::Cpu;
use crate::dev::{Device, DeviceSet, DmaOp, InterruptRequest};
use crate::hotpath::{Cached, DecodeCache, FetchWin, RegOp, Tlb};
use crate::isa::{decode, BinOp, BranchCond, Instr, Operand, UnOp};
use crate::mem::{Memory, IO_BASE};
use crate::mmu::{Access, Mmu, MmuAbort};
use crate::psw::Psw;
use crate::superblock::{
    SbTerm, SuperBlock, SuperCache, FAILED, HOT_THRESHOLD, MAX_BLOCK_OPS, NO_SUCC,
};
use crate::types::{is_neg_b, is_neg_w, sign_extend_byte, PhysAddr, Word, SIGN_W};
use sep_obs::{ObsEvent, Recorder, TrapKind, NO_CONTEXT};

/// A condition that transfers control to the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trap {
    /// Memory-management abort.
    Mmu(MmuAbort),
    /// Word access to an odd address.
    OddAddress {
        /// The offending virtual address.
        vaddr: Word,
    },
    /// Reference to an I/O-page address with no device (bus timeout).
    BusError {
        /// The offending physical address.
        addr: PhysAddr,
    },
    /// Reserved or unimplemented instruction.
    Illegal {
        /// The instruction word.
        word: Word,
    },
    /// EMT instruction with its operand byte.
    Emt(u8),
    /// TRAP instruction with its operand byte — the kernel-call vehicle.
    TrapInstr(u8),
    /// Breakpoint trap.
    Bpt,
    /// I/O trap instruction.
    Iot,
    /// HALT attempted in user mode (privilege violation).
    Halt,
}

/// What one call to [`Machine::step`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// One instruction executed normally.
    Ran,
    /// The CPU executed WAIT: it idles until an interrupt.
    Wait,
    /// A device interrupt is pending above the CPU priority. The kernel must
    /// field it (and acknowledge the device).
    Interrupt {
        /// Index of the requesting device.
        device: usize,
        /// The request (vector and priority).
        request: InterruptRequest,
    },
    /// A trap transferred control to the kernel.
    Trap(Trap),
    /// A device attempted DMA while DMA is excluded from the system.
    DmaBlocked {
        /// Index of the offending device.
        device: usize,
    },
}

/// The complete machine.
#[derive(Debug)]
pub struct Machine {
    /// CPU registers and PSW.
    pub cpu: Cpu,
    /// Memory management unit.
    pub mmu: Mmu,
    /// Physical RAM.
    pub mem: Memory,
    /// Attached peripherals.
    pub devices: DeviceSet,
    /// Whether DMA transfers are honoured. The SUE's answer is `false`.
    pub allow_dma: bool,
    /// Machine steps taken.
    pub steps: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Device ticks owed inside a [`Machine::run_quiet`] batch: steps taken
    /// whose tick the devices have not seen yet. Paid before any I/O-page
    /// access and at the end of the batch, so it is 0 between calls.
    dev_owed: u64,
    /// Quiet device ticks counted from the last payment inside a batch, 0
    /// outside one: a batch may take another step while
    /// `dev_owed < dev_quiet`.
    dev_quiet: u64,
    /// Observability recorder. Counters are always on; event tracing is
    /// off unless the embedder enables it. Not part of machine state: the
    /// verification adapter's state vector never reads it.
    pub obs: Recorder,
    /// Whether the fast-path caches are consulted. On by default; the
    /// differential test suite runs both settings and pins them identical.
    hotpath: bool,
    /// Decoded-instruction cache (pure memo of `decode`; never invalidates).
    icache: DecodeCache,
    /// Software TLB, invalidated wholesale whenever the MMU generation
    /// moves (every PAR/PDR load).
    tlb: Tlb,
    /// One-entry instruction-fetch window in front of the TLB.
    win: FetchWin,
    /// Compiled superblocks plus the hotness profile that feeds them.
    sb: SuperCache,
    /// Write guard over the physical span of compiled code: a machine-path
    /// store into `[sb_guard_lo, sb_guard_hi)` sets `sb_dirty`, which drops
    /// every block before the tier runs again. Kept directly on the machine
    /// (not in [`SuperCache`]) so the store hot path pays two compares.
    sb_guard_lo: PhysAddr,
    sb_guard_hi: PhysAddr,
    sb_dirty: bool,
}

/// Cloning resets the fast-path caches: they memoize pure functions, so an
/// empty cache is always a valid (and cheap) starting point, and a cloned
/// machine — a verify-template snapshot or a `FaultPolicy::Restart`
/// re-image source — must behave byte-identically to a fresh boot.
impl Clone for Machine {
    fn clone(&self) -> Machine {
        Machine {
            cpu: self.cpu,
            mmu: self.mmu.clone(),
            mem: self.mem.clone(),
            devices: self.devices.clone(),
            allow_dma: self.allow_dma,
            steps: self.steps,
            instructions: self.instructions,
            dev_owed: self.dev_owed,
            dev_quiet: self.dev_quiet,
            obs: self.obs.clone(),
            hotpath: self.hotpath,
            icache: DecodeCache::new(),
            tlb: Tlb::new(),
            win: FetchWin::new(),
            sb: SuperCache::default(),
            sb_guard_lo: PhysAddr::MAX,
            sb_guard_hi: 0,
            sb_dirty: false,
        }
    }
}

/// Where an operand lives after addressing-mode resolution.
#[derive(Debug, Clone, Copy)]
enum Place {
    Reg(u8),
    Mem(Word),
}

impl Default for Machine {
    fn default() -> Self {
        Machine::new()
    }
}

impl Machine {
    /// A machine with zeroed CPU, empty MMU, zero RAM, and no devices.
    pub fn new() -> Machine {
        Machine {
            cpu: Cpu::new(),
            mmu: Mmu::new(),
            mem: Memory::new(),
            devices: DeviceSet::new(),
            allow_dma: false,
            steps: 0,
            instructions: 0,
            dev_owed: 0,
            dev_quiet: 0,
            obs: Recorder::disabled(),
            hotpath: true,
            icache: DecodeCache::new(),
            tlb: Tlb::new(),
            win: FetchWin::new(),
            sb: SuperCache::default(),
            sb_guard_lo: PhysAddr::MAX,
            sb_guard_hi: 0,
            sb_dirty: false,
        }
    }

    /// Enables or disables the fast engine: the decode cache, software
    /// TLB and fetch window, and (inside `step_n` batches) the superblock
    /// tier. Turning it off drops every cached entry, compiled block and
    /// the hotness profile, so a subsequent re-enable starts cold; off, the
    /// machine runs the reference engine.
    pub fn set_hotpath(&mut self, on: bool) {
        self.hotpath = on;
        if !on {
            self.icache = DecodeCache::new();
            self.tlb = Tlb::new();
            self.win = FetchWin::new();
            self.sb = SuperCache::default();
            self.sb_disarm_guard();
        }
    }

    /// Whether the fast engine is in use.
    pub fn hotpath(&self) -> bool {
        self.hotpath
    }

    /// Advances the machine one step: the tick phase (device time and DMA)
    /// followed by the execution phase (interrupt surfacing or one
    /// instruction).
    pub fn step(&mut self) -> Event {
        if let Some(ev) = self.tick_phase() {
            return ev;
        }
        self.exec_phase()
    }

    /// The tick phase: devices advance one time unit and DMA requests are
    /// honoured or refused. In the formal model of `sep-model` this phase is
    /// the `INPUT` stage — autonomous device activity — and is kept separate
    /// from instruction execution so the Proof of Separability adapter can
    /// drive the two stages independently.
    ///
    /// Returns `Some(event)` only when a DMA attempt was blocked.
    pub fn tick_phase(&mut self) -> Option<Event> {
        self.steps += 1;
        self.devices.tick_all();
        let dma_ops = self.devices.collect_dma();
        for (device, op) in dma_ops {
            if !self.allow_dma {
                self.obs.metrics.device_mut(device).dma_blocked += 1;
                let ts = self.instructions;
                self.obs.emit(
                    ts,
                    ObsEvent::DmaBlocked {
                        device: device as u16,
                    },
                );
                return Some(Event::DmaBlocked { device });
            }
            match op {
                DmaOp::WriteMem { addr, data } => {
                    for (i, b) in data.iter().enumerate() {
                        self.mem.write_byte(addr + i as u32, *b);
                    }
                }
                DmaOp::ReadMem { addr, len } => {
                    let data: Vec<u8> = (0..len).map(|i| self.mem.read_byte(addr + i)).collect();
                    if let Some(d) = self.devices.get_mut(device) {
                        d.dma_complete(data);
                    }
                }
            }
        }
        None
    }

    /// How many coming ticks are quiet on every device (see
    /// [`Device::quiet_ticks`]);
    /// unbounded with no device attached.
    pub fn quiet_ticks(&self) -> u64 {
        self.devices.quiet_ticks()
    }

    /// Runs the tick phases of `n` steps at once, for an embedder whose
    /// execute phases ran outside the machine (the kernel's native
    /// regimes). Equal to `n` calls of [`Machine::tick_phase`], because no
    /// quiet tick latches an interrupt or requests DMA.
    ///
    /// # Panics
    ///
    /// Panics when `n` exceeds [`Machine::quiet_ticks`].
    pub fn quiet_tick_phases(&mut self, n: u64) {
        assert!(
            n <= self.quiet_ticks(),
            "device time jumped past a device event"
        );
        self.steps += n;
        self.devices.advance(n);
    }

    /// The execution phase: surface a pending interrupt above the CPU
    /// priority, or execute one instruction.
    pub fn exec_phase(&mut self) -> Event {
        if let Some((device, request)) = self.devices.highest_pending(self.cpu.psw.priority()) {
            return Event::Interrupt { device, request };
        }
        let event = match self.execute_one() {
            Ok(ev) => ev,
            Err(t) => Event::Trap(t),
        };
        if let Event::Trap(trap) = &event {
            self.note_trap(*trap);
        }
        event
    }

    /// Records a trap in the observability registry: totals, per-context
    /// attribution, and (with tracing on) a trap event plus MMU detail.
    fn note_trap(&mut self, trap: Trap) {
        self.obs.metrics.totals.traps += 1;
        let ctx = self.obs.context();
        if ctx != NO_CONTEXT {
            self.obs.metrics.regime_mut(ctx as usize).traps += 1;
        }
        let ts = self.instructions;
        self.obs.emit(
            ts,
            ObsEvent::Trap {
                regime: ctx,
                kind: trap_kind(trap),
            },
        );
        if let Trap::Mmu(abort) = trap {
            if ctx != NO_CONTEXT {
                self.obs.metrics.regime_mut(ctx as usize).mmu_faults += 1;
            }
            self.obs.emit(
                ts,
                ObsEvent::MmuFault {
                    regime: ctx,
                    vaddr: abort.vaddr,
                    write: abort.write,
                },
            );
        }
    }

    /// Runs until the next non-[`Event::Ran`] event, bounded by `max_steps`.
    /// Returns the event and the number of steps taken, or `None` if the
    /// bound was reached.
    pub fn run_until_event(&mut self, max_steps: u64) -> Option<(Event, u64)> {
        for n in 1..=max_steps {
            let ev = self.step();
            if ev != Event::Ran {
                return Some((ev, n));
            }
        }
        None
    }

    /// Runs up to `n` steps, returning the number of steps taken and the
    /// first non-[`Event::Ran`] event if one cut the batch short.
    ///
    /// Semantically identical to calling [`Machine::step`] `n` times and
    /// stopping at the first non-`Ran` result. The steps between device
    /// events run as [`Machine::run_quiet`] batches; each device event
    /// (a tick that is not quiet) gets one ordinary [`Machine::step`]. A
    /// machine with no devices has no device events, so its whole budget
    /// is one batch.
    pub fn step_n(&mut self, n: u64) -> (u64, Option<Event>) {
        let mut taken = 0;
        while taken < n {
            let (k, outcome) = self.run_quiet(n - taken);
            taken += k;
            if outcome.is_some() {
                return (taken, outcome);
            }
            if taken < n {
                taken += 1;
                let ev = self.step();
                if ev != Event::Ran {
                    return (taken, Some(ev));
                }
            }
        }
        (taken, None)
    }

    /// Runs up to `n` steps as one batch, stopping early at a
    /// non-[`Event::Ran`] event or where the devices' quiet window ends
    /// (see [`Device::quiet_ticks`]).
    /// Returns the steps taken and the event, if one cut the batch short;
    /// 0 steps means the very next tick is a device event.
    ///
    /// Inside the window no tick can change what a register read returns,
    /// latch an interrupt, or request DMA, so each step is exactly one
    /// instruction: device time is owed instead of ticked, and paid before
    /// any I/O-page access and at the end of the batch. An access may
    /// start a transfer or latch an interrupt, so the window is measured
    /// again after it. The per-step device scan disappears and the
    /// per-instruction recorder dispatch collapses into one bump at the
    /// end (the context cannot change mid-batch — only the embedder
    /// switches context, between calls). The separation kernel hands a
    /// regime to this loop whenever it has nothing to mediate before the
    /// next device event.
    pub fn run_quiet(&mut self, n: u64) -> (u64, Option<Event>) {
        let quiet = self.devices.quiet_ticks();
        if n == 0 || quiet == 0 {
            return (0, None);
        }
        self.dev_quiet = quiet;
        let retired_before = self.instructions;
        let mut taken = 0;
        let mut outcome = None;
        let tier = self.hotpath;
        if tier {
            self.sb_begin_batch();
        }
        // The tier is entered right after a backward control transfer (the
        // only place hot entries live) — and once at batch start, since the
        // PC may be resuming a compiled loop from the previous batch.
        let mut try_tier = tier && self.sb.has_blocks();
        while taken < n && self.dev_owed < self.dev_quiet {
            if try_tier {
                try_tier = false;
                let budget = (n - taken).min(self.dev_quiet - self.dev_owed);
                taken += self.run_superblocks(budget);
                continue;
            }
            self.steps += 1;
            self.dev_owed += 1;
            taken += 1;
            let pc_before = self.cpu.pc;
            match self.execute_inner(false) {
                Ok(Event::Ran) => {
                    if tier && self.cpu.pc <= pc_before {
                        try_tier = self.sb_note_backward_edge();
                    }
                }
                Ok(ev) => {
                    outcome = Some(ev);
                    break;
                }
                Err(t) => {
                    outcome = Some(Event::Trap(t));
                    break;
                }
            }
        }
        self.pay_device_time();
        self.dev_quiet = 0;
        let retired = self.instructions - retired_before;
        if retired > 0 {
            self.obs.instructions_retired(retired);
        }
        if let Some(Event::Trap(trap)) = &outcome {
            self.note_trap(*trap);
        }
        (taken, outcome)
    }

    /// Pays the device ticks owed by the current batch.
    fn pay_device_time(&mut self) {
        if self.dev_owed > 0 {
            self.devices.advance(self.dev_owed);
            self.dev_owed = 0;
        }
    }

    // ------------------------------------------------------------------
    // The superblock tier (see the `superblock` module docs).
    // ------------------------------------------------------------------

    /// Batch prologue for the tier: drop every block if the MMU generation
    /// or enable flag moved since the blocks were compiled, or if a guarded
    /// store landed in compiled code, then open a new validation batch.
    fn sb_begin_batch(&mut self) {
        let generation = self.mmu.generation();
        let enabled = self.mmu.enabled;
        if self.sb.stale(generation, enabled) || self.sb_dirty {
            let had = self.sb.has_blocks();
            self.sb.flush(generation, enabled);
            self.sb_disarm_guard();
            if had {
                self.obs.metrics.hotpath.sb_flushes += 1;
            }
        }
        self.sb.batch += 1;
    }

    /// Resets the write guard to cover no code (every block is gone).
    fn sb_disarm_guard(&mut self) {
        self.sb_guard_lo = PhysAddr::MAX;
        self.sb_guard_hi = 0;
        self.sb_dirty = false;
    }

    /// Extends the write guard over a newly compiled block's span.
    fn sb_guard_extend(&mut self, (lo, hi): (PhysAddr, PhysAddr)) {
        self.sb_guard_lo = self.sb_guard_lo.min(lo);
        self.sb_guard_hi = self.sb_guard_hi.max(hi);
    }

    /// Profiles a backward control transfer that just landed on
    /// `self.cpu.pc`: bump the target's heat and compile it once it reaches
    /// the threshold. Returns true when a compiled block now exists at the
    /// PC, i.e. the tier is worth entering.
    fn sb_note_backward_edge(&mut self) -> bool {
        let pc = self.cpu.pc;
        let mode = self.cpu.psw.mode();
        match self.sb.probe(pc, mode) {
            Some(FAILED) => return false,
            Some(_) => return true,
            None => {}
        }
        // At or above the threshold, not exactly at it, so no heat a flush
        // leaves behind can step past the point where a target compiles.
        if self.sb.heat_bump(pc, mode) < HOT_THRESHOLD {
            return false;
        }
        let Some(block) = self.compile_superblock(pc) else {
            self.sb.mark_failed(pc, mode);
            return false;
        };
        let Some(idx) = self.sb.insert(mode, block) else {
            // Cache full: do not recompile here until the next flush.
            self.sb.mark_failed(pc, mode);
            return false;
        };
        self.obs.metrics.hotpath.sb_compiles += 1;
        let span = self.sb.blocks[idx as usize].span();
        self.sb_guard_extend(span);
        true
    }

    /// Runs compiled superblocks starting at the current PC until the step
    /// budget runs low or control leaves compiled code, and returns the
    /// steps consumed. Blocks cannot trap, so nothing here ends a batch.
    /// The cache is moved out of `self` for the duration so block data and
    /// the mutable machine can coexist; the write guard lives on `self`
    /// and stays armed throughout.
    fn run_superblocks(&mut self, budget: u64) -> u64 {
        let mut sb = std::mem::take(&mut self.sb);
        let advanced = self.superblock_loop(&mut sb, budget);
        self.sb = sb;
        advanced
    }

    fn superblock_loop(&mut self, sb: &mut SuperCache, budget: u64) -> u64 {
        let mode = self.cpu.psw.mode();
        // A guarded store earlier in this batch (per-instruction path)
        // poisons every block: drop them all before trusting any image.
        if self.sb_dirty {
            sb.flush(self.mmu.generation(), self.mmu.enabled);
            self.sb_disarm_guard();
            self.obs.metrics.hotpath.sb_flushes += 1;
            return 0;
        }
        let Some(mut idx) = sb.lookup(self.cpu.pc, mode) else {
            return 0;
        };
        let mut advanced: u64 = 0;
        let (mut hits, mut chains, mut compiles, mut flushes) = (0u64, 0u64, 0u64, 0u64);
        loop {
            let block = &sb.blocks[idx as usize];
            if block.cost > budget - advanced {
                break; // no full run fits; step singly
            }
            // Once per batch, prove the block's instruction bytes are still
            // exactly what was compiled (re-imaging, kernel copies, DMA and
            // host pokes all happen between batches; in-batch stores trip
            // the write guard instead).
            if block.validated_batch != sb.batch {
                if *self.mem.range(block.phys, block.image.len() as u32) != *block.image {
                    sb.flush(self.mmu.generation(), self.mmu.enabled);
                    self.sb_disarm_guard();
                    flushes += 1;
                    break;
                }
                sb.blocks[idx as usize].validated_batch = sb.batch;
            }
            // Run the block, following its self-chain at register speed;
            // the budget check above guarantees headroom for one run.
            let block = &sb.blocks[idx as usize];
            let runs = run_block(&mut self.cpu, block, (budget - advanced) / block.cost);
            advanced += runs * block.cost;
            hits += runs;
            chains += runs - 1;
            let next_pc = self.cpu.pc;
            if block.term == SbTerm::FallThrough || next_pc == block.entry {
                break; // control left compiled code, or the budget ran out
            }
            // Chain to the successor block: the memo first, then the index,
            // then chain-compilation — a terminator target reached from a
            // hot block is hot by construction, so it skips the heat count.
            let next_idx = if block.succ_idx != NO_SUCC && block.succ_pc == next_pc {
                block.succ_idx
            } else {
                let next_idx = match sb.probe(next_pc, mode) {
                    Some(FAILED) => break,
                    Some(i) => i,
                    None => {
                        let Some(nb) = self.compile_superblock(next_pc) else {
                            sb.mark_failed(next_pc, mode);
                            break;
                        };
                        let Some(i) = sb.insert(mode, nb) else {
                            break; // cache full; wait for the next flush
                        };
                        compiles += 1;
                        let span = sb.blocks[i as usize].span();
                        self.sb_guard_extend(span);
                        i
                    }
                };
                let b = &mut sb.blocks[idx as usize];
                b.succ_pc = next_pc;
                b.succ_idx = next_idx;
                next_idx
            };
            chains += 1;
            idx = next_idx;
        }
        // Quiet batches equate steps and instructions, and nothing inside
        // the tier reads either counter or device time, so all three flush
        // once here.
        self.steps += advanced;
        self.instructions += advanced;
        self.dev_owed += advanced;
        let h = &mut self.obs.metrics.hotpath;
        h.sb_hits += hits;
        h.sb_chains += chains;
        h.sb_compiles += compiles;
        h.sb_flushes += flushes;
        h.sb_instructions += advanced;
        advanced
    }

    /// Compiles the straight-line run starting at `entry` into a
    /// [`SuperBlock`], or `None` when nothing worth compiling starts there.
    /// The run is register ops ended by a branch or SOB; it stops before
    /// the first instruction that is neither, which then runs on the
    /// per-instruction path.
    ///
    /// The instruction-stream span is translated **once, here**: under the
    /// MMU the entry's whole segment must be resident and lie entirely in
    /// RAM (never the I/O page, so a block can never shadow live device
    /// registers); with the MMU off the identity-mapped RAM region plays
    /// that role. Compilation stops at the segment limit, so a PDR length
    /// boundary bisects a run and the instruction beyond it traps on the
    /// per-instruction path exactly as it would have without the tier.
    /// Reads are pure (`Mmu::translate` + direct RAM reads) — compiling
    /// perturbs no cache or counter.
    fn compile_superblock(&self, entry: Word) -> Option<SuperBlock> {
        if entry & 1 != 0 {
            return None;
        }
        let mode = self.cpu.psw.mode();
        // The virtual window [lo, hi) the run may occupy and the physical
        // base it maps to.
        let (lo, hi, base) = if self.mmu.enabled {
            let seg = entry >> 13;
            let d = self.mmu.segment(mode, seg as usize);
            if d.is_empty() {
                return None;
            }
            if d.base() + d.len() > IO_BASE {
                return None;
            }
            (seg << 13, ((seg as u32) << 13) + d.len(), d.base())
        } else {
            // 16-bit compatibility map: everything below 0o160000 is RAM
            // identity-mapped; the top segment is the I/O page.
            (0, 0o160000, 0)
        };
        let phys_of = |v: u32| base + (v - lo as u32);
        let mut v = entry as u32; // fetch cursor, one past Word range at most
        let mut ops = Vec::new();
        let (term, img_end) = loop {
            if ops.len() >= MAX_BLOCK_OPS || v + 2 > hi {
                break (SbTerm::FallThrough, v);
            }
            let word = self.mem.read_word(phys_of(v));
            match decode(word).map(Cached::specialize) {
                Some(Cached::Reg(op)) => {
                    let imm = if let RegOp::Immediate { .. } = op {
                        if v + 4 > hi {
                            break (SbTerm::FallThrough, v);
                        }
                        v += 2;
                        self.mem.read_word(phys_of(v))
                    } else {
                        0
                    };
                    ops.push((op, imm));
                    v += 2;
                }
                Some(Cached::Branch { cond, offset }) => {
                    break (SbTerm::Branch { cond, offset }, v + 2);
                }
                Some(Cached::Generic(Instr::Sob { reg, offset })) => {
                    break (SbTerm::Sob { reg, offset }, v + 2);
                }
                _ => break (SbTerm::FallThrough, v),
            }
        };
        let term_cost = (term != SbTerm::FallThrough) as u64;
        let cost = ops.len() as u64 + term_cost;
        // Not worth a block: nothing compiled, or a fall-through so short
        // the dispatcher does as well without the entry overhead.
        if cost == 0 || (term_cost == 0 && cost < 2) {
            return None;
        }
        let phys = phys_of(entry as u32);
        Some(SuperBlock {
            entry,
            phys,
            image: self.mem.range(phys, img_end - entry as u32).into(),
            ops: ops.into(),
            term,
            cost,
            validated_batch: 0,
            succ_pc: 0,
            succ_idx: NO_SUCC,
        })
    }

    // ------------------------------------------------------------------
    // Bus access (virtual, through the MMU, routed to RAM or devices).
    // ------------------------------------------------------------------

    fn translate(&mut self, vaddr: Word, write: bool) -> Result<PhysAddr, Trap> {
        let mode = self.cpu.psw.mode();
        if self.hotpath && self.mmu.enabled {
            let generation = self.mmu.generation();
            if self.tlb.stale(generation) {
                self.tlb.reset(generation);
                self.obs.metrics.hotpath.tlb_invalidations += 1;
            }
            let seg = (vaddr >> 13) as usize;
            let offset = (vaddr & 0o17777) as u32;
            if let Some(p) = self.tlb.lookup(mode, seg, offset, write) {
                self.obs.metrics.hotpath.tlb_hits += 1;
                return Ok(p);
            }
            self.obs.metrics.hotpath.tlb_misses += 1;
            let p = self.mmu.translate(vaddr, mode, write).map_err(Trap::Mmu)?;
            let d = self.mmu.segment(mode, seg);
            self.tlb
                .fill(mode, seg, d.base(), d.len(), d.access == Access::ReadWrite);
            return Ok(p);
        }
        self.mmu.translate(vaddr, mode, write).map_err(Trap::Mmu)
    }

    /// Reads a word at a virtual address in the current mode.
    pub fn read_word_v(&mut self, vaddr: Word) -> Result<Word, Trap> {
        if vaddr & 1 != 0 {
            return Err(Trap::OddAddress { vaddr });
        }
        let p = self.translate(vaddr, false)?;
        self.read_word_p(p)
    }

    /// Writes a word at a virtual address in the current mode.
    pub fn write_word_v(&mut self, vaddr: Word, value: Word) -> Result<(), Trap> {
        if vaddr & 1 != 0 {
            return Err(Trap::OddAddress { vaddr });
        }
        let p = self.translate(vaddr, true)?;
        self.write_word_p(p, value)
    }

    /// Reads a byte at a virtual address in the current mode.
    pub fn read_byte_v(&mut self, vaddr: Word) -> Result<u8, Trap> {
        let p = self.translate(vaddr, false)?;
        if Memory::is_io(p) {
            let word = self.read_word_p(p & !1)?;
            Ok(if p & 1 == 0 {
                (word & 0xFF) as u8
            } else {
                (word >> 8) as u8
            })
        } else {
            Ok(self.mem.read_byte(p))
        }
    }

    /// Writes a byte at a virtual address in the current mode.
    pub fn write_byte_v(&mut self, vaddr: Word, value: u8) -> Result<(), Trap> {
        let p = self.translate(vaddr, true)?;
        if Memory::is_io(p) {
            let aligned = p & !1;
            let old = self.read_word_p(aligned)?;
            let new = if p & 1 == 0 {
                (old & 0xFF00) | value as Word
            } else {
                (old & 0x00FF) | ((value as Word) << 8)
            };
            self.write_word_p(aligned, new)
        } else {
            if p < self.sb_guard_hi && p.wrapping_add(1) > self.sb_guard_lo {
                self.sb_dirty = true;
            }
            self.mem.write_byte(p, value);
            Ok(())
        }
    }

    /// Reads a word at a *physical* address (RAM or device register).
    pub fn read_word_p(&mut self, addr: PhysAddr) -> Result<Word, Trap> {
        if Memory::is_io(addr) {
            self.io_access(addr, |d, off| d.read_reg(off))
        } else {
            Ok(self.mem.read_word(addr))
        }
    }

    /// Writes a word at a *physical* address (RAM or device register).
    pub fn write_word_p(&mut self, addr: PhysAddr, value: Word) -> Result<(), Trap> {
        if Memory::is_io(addr) {
            self.io_access(addr, |d, off| d.write_reg(off, value))
        } else {
            if addr < self.sb_guard_hi && addr.wrapping_add(2) > self.sb_guard_lo {
                self.sb_dirty = true;
            }
            self.mem.write_word(addr, value);
            Ok(())
        }
    }

    /// Runs one device-register access at I/O-page address `addr`. Inside
    /// a batch, owed device time is paid first, so the device has seen
    /// exactly one tick per step taken, and the quiet window is measured
    /// again afterwards, since the access may have started a transfer or
    /// latched an interrupt. Once the window has closed (`dev_quiet` is 0)
    /// nothing is owed and the batch ends with this step, so single steps
    /// pay for neither.
    #[cold]
    #[inline(never)]
    fn io_access<T>(
        &mut self,
        addr: PhysAddr,
        access: impl FnOnce(&mut dyn Device, u32) -> T,
    ) -> Result<T, Trap> {
        let in_batch = self.dev_quiet > 0;
        if in_batch {
            self.pay_device_time();
        }
        let result = match self.devices.by_addr(addr) {
            Some(d) => {
                let off = addr - d.base();
                Ok(access(d.as_mut(), off))
            }
            None => Err(Trap::BusError { addr }),
        };
        if in_batch {
            self.dev_quiet = self.devices.quiet_ticks();
        }
        result
    }

    // ------------------------------------------------------------------
    // Instruction execution.
    // ------------------------------------------------------------------

    fn fetch_word(&mut self) -> Result<Word, Trap> {
        let pc = self.cpu.pc;
        if self.hotpath && self.mmu.enabled {
            if let Some(p) = self
                .win
                .lookup(pc, self.mmu.generation(), self.cpu.psw.mode())
            {
                self.obs.metrics.hotpath.tlb_hits += 1;
                self.cpu.pc = pc.wrapping_add(2);
                return Ok(self.mem.read_word(p));
            }
        }
        let w = self.read_word_v(pc)?;
        self.cpu.pc = pc.wrapping_add(2);
        if self.hotpath && self.mmu.enabled {
            self.fill_fetch_window(pc);
        }
        Ok(w)
    }

    /// Caches the PC's segment as the fetch window. Called only after a
    /// successful instruction-stream read, so the segment is known readable
    /// under the current generation; the whole span must lie in RAM so the
    /// window's direct memory read can never shadow a device register.
    fn fill_fetch_window(&mut self, pc: Word) {
        let mode = self.cpu.psw.mode();
        let seg = pc >> 13;
        let d = self.mmu.segment(mode, seg as usize);
        let base = d.base();
        let len = d.len();
        if len > 0 && base + len <= IO_BASE {
            let lo = seg << 13;
            self.win.fill(
                self.mmu.generation(),
                mode,
                lo,
                ((seg as u32) << 13) + len,
                base,
            );
        } else {
            self.win.clear();
        }
    }

    /// Reads an immediate operand (addressing mode 2 on the PC) through the
    /// fetch window. The slow path advances the PC past the literal *before*
    /// reading it — `resolve` increments first — so a trapping read must
    /// leave the PC beyond the operand; this preserves that order.
    #[inline]
    fn read_imm(&mut self) -> Result<Word, Trap> {
        let a = self.cpu.pc;
        self.cpu.pc = a.wrapping_add(2);
        if self.mmu.enabled {
            if let Some(p) = self
                .win
                .lookup(a, self.mmu.generation(), self.cpu.psw.mode())
            {
                self.obs.metrics.hotpath.tlb_hits += 1;
                return Ok(self.mem.read_word(p));
            }
        }
        self.read_word_v(a)
    }

    fn execute_one(&mut self) -> Result<Event, Trap> {
        self.execute_inner(true)
    }

    /// Fetches, decodes (through the i-cache when the fast path is on), and
    /// dispatches one instruction. With `count_obs` false the recorder bump
    /// is skipped — [`Machine::run_quiet`] batches it after the loop.
    ///
    /// The hot path runs register ops through [`exec_reg_op`], which uses
    /// the same ALU helpers the generic dispatcher uses, so the two paths
    /// cannot drift; everything else falls through to [`Machine::dispatch`].
    fn execute_inner(&mut self, count_obs: bool) -> Result<Event, Trap> {
        let word = self.fetch_word()?;
        if !self.hotpath {
            let instr = decode(word).ok_or(Trap::Illegal { word })?;
            self.instructions += 1;
            if count_obs {
                self.obs.instruction_retired();
            }
            return self.dispatch(word, instr);
        }
        let cached = match self.icache.get(word) {
            Some(c) => {
                self.obs.metrics.hotpath.icache_hits += 1;
                c
            }
            None => {
                self.obs.metrics.hotpath.icache_misses += 1;
                let i = decode(word).ok_or(Trap::Illegal { word })?;
                let c = Cached::specialize(i);
                self.icache.fill(word, c);
                c
            }
        };
        self.instructions += 1;
        if count_obs {
            self.obs.instruction_retired();
        }
        match cached {
            Cached::Reg(op) => {
                let imm = match op {
                    RegOp::Immediate { .. } => self.read_imm()?,
                    _ => 0,
                };
                let mut cc = unpack_cc(self.cpu.psw);
                exec_reg_op(&mut self.cpu.r, op, imm, &mut cc);
                let (n, z, v, c) = cc;
                self.cpu.psw.set_nzvc(n, z, v, c);
                Ok(Event::Ran)
            }
            Cached::Branch { cond, offset } => {
                self.exec_branch(cond, offset);
                Ok(Event::Ran)
            }
            Cached::Generic(instr) => self.dispatch(word, instr),
        }
    }

    fn dispatch(&mut self, word: Word, instr: Instr) -> Result<Event, Trap> {
        match instr {
            Instr::Double { op, byte, src, dst } => self.exec_double(op, byte, src, dst)?,
            Instr::Single { op, byte, dst } => self.exec_single(op, byte, dst)?,
            Instr::Branch { cond, offset } => self.exec_branch(cond, offset),
            Instr::Jmp { dst } => {
                let place = self.resolve(dst, false)?;
                match place {
                    Place::Reg(_) => return Err(Trap::Illegal { word }),
                    Place::Mem(addr) => self.cpu.pc = addr,
                }
            }
            Instr::Jsr { reg, dst } => {
                let place = self.resolve(dst, false)?;
                let target = match place {
                    Place::Reg(_) => return Err(Trap::Illegal { word }),
                    Place::Mem(addr) => addr,
                };
                self.push(self.cpu.reg(reg))?;
                let return_pc = self.cpu.pc;
                self.cpu.set_reg(reg, return_pc);
                self.cpu.pc = target;
            }
            Instr::Rts { reg } => {
                self.cpu.pc = self.cpu.reg(reg);
                let v = self.pop()?;
                self.cpu.set_reg(reg, v);
            }
            Instr::Sob { reg, offset } => {
                let v = self.cpu.reg(reg).wrapping_sub(1);
                self.cpu.set_reg(reg, v);
                if v != 0 {
                    self.cpu.pc = self.cpu.pc.wrapping_sub(2 * offset as Word);
                }
            }
            Instr::Mul { reg, src } => self.exec_mul(reg, src)?,
            Instr::Div { reg, src } => self.exec_div(reg, src)?,
            Instr::Ash { reg, src } => self.exec_ash(reg, src)?,
            Instr::Xor { reg, dst } => {
                let place = self.resolve(dst, false)?;
                let v = self.read_place_w(place)? ^ self.cpu.reg(reg);
                self.write_place_w(place, v)?;
                let c = self.cpu.psw.c();
                self.cpu.psw.set_nz_w(v, false, c);
            }
            Instr::Emt(n) => return Ok(Event::Trap(Trap::Emt(n))),
            Instr::Trap(n) => return Ok(Event::Trap(Trap::TrapInstr(n))),
            Instr::Bpt => return Ok(Event::Trap(Trap::Bpt)),
            Instr::Iot => return Ok(Event::Trap(Trap::Iot)),
            Instr::Halt => return Ok(Event::Trap(Trap::Halt)),
            Instr::Wait => return Ok(Event::Wait),
            Instr::Reset => {} // No-op in user mode, as on the hardware.
            Instr::Rti | Instr::Rtt => {
                let pc = self.pop()?;
                let saved = self.pop()?;
                self.cpu.pc = pc;
                // In user mode only the condition codes can be restored;
                // mode and priority are protected.
                self.cpu.psw.set_cc_bits(saved);
            }
            Instr::CondCode { set, mask } => {
                let bits = self.cpu.psw.cc_bits();
                let new = if set {
                    bits | mask as Word
                } else {
                    bits & !(mask as Word)
                };
                self.cpu.psw.set_cc_bits(new);
            }
        }
        Ok(Event::Ran)
    }

    fn push(&mut self, value: Word) -> Result<(), Trap> {
        let sp = self.cpu.reg(6).wrapping_sub(2);
        self.cpu.set_reg(6, sp);
        self.write_word_v(sp, value)
    }

    fn pop(&mut self) -> Result<Word, Trap> {
        let sp = self.cpu.reg(6);
        let v = self.read_word_v(sp)?;
        self.cpu.set_reg(6, sp.wrapping_add(2));
        Ok(v)
    }

    fn resolve(&mut self, op: Operand, byte: bool) -> Result<Place, Trap> {
        let delta: Word = if byte && op.reg < 6 { 1 } else { 2 };
        Ok(match op.mode {
            0 => Place::Reg(op.reg),
            1 => Place::Mem(self.cpu.reg(op.reg)),
            2 => {
                let a = self.cpu.reg(op.reg);
                self.cpu.set_reg(op.reg, a.wrapping_add(delta));
                Place::Mem(a)
            }
            3 => {
                let a = self.cpu.reg(op.reg);
                self.cpu.set_reg(op.reg, a.wrapping_add(2));
                Place::Mem(self.read_word_v(a)?)
            }
            4 => {
                let a = self.cpu.reg(op.reg).wrapping_sub(delta);
                self.cpu.set_reg(op.reg, a);
                Place::Mem(a)
            }
            5 => {
                let a = self.cpu.reg(op.reg).wrapping_sub(2);
                self.cpu.set_reg(op.reg, a);
                Place::Mem(self.read_word_v(a)?)
            }
            6 => {
                let x = self.fetch_word()?;
                Place::Mem(self.cpu.reg(op.reg).wrapping_add(x))
            }
            _ => {
                let x = self.fetch_word()?;
                let a = self.cpu.reg(op.reg).wrapping_add(x);
                Place::Mem(self.read_word_v(a)?)
            }
        })
    }

    fn read_place_w(&mut self, p: Place) -> Result<Word, Trap> {
        match p {
            Place::Reg(r) => Ok(self.cpu.reg(r)),
            Place::Mem(a) => self.read_word_v(a),
        }
    }

    fn write_place_w(&mut self, p: Place, v: Word) -> Result<(), Trap> {
        match p {
            Place::Reg(r) => {
                self.cpu.set_reg(r, v);
                Ok(())
            }
            Place::Mem(a) => self.write_word_v(a, v),
        }
    }

    fn read_place_b(&mut self, p: Place) -> Result<u8, Trap> {
        match p {
            Place::Reg(r) => Ok((self.cpu.reg(r) & 0xFF) as u8),
            Place::Mem(a) => self.read_byte_v(a),
        }
    }

    fn write_place_b(&mut self, p: Place, v: u8) -> Result<(), Trap> {
        match p {
            Place::Reg(r) => {
                let old = self.cpu.reg(r);
                self.cpu.set_reg(r, (old & 0xFF00) | v as Word);
                Ok(())
            }
            Place::Mem(a) => self.write_byte_v(a, v),
        }
    }

    fn exec_double(
        &mut self,
        op: BinOp,
        byte: bool,
        src: Operand,
        dst: Operand,
    ) -> Result<(), Trap> {
        if byte {
            return self.exec_double_b(op, src, dst);
        }
        let s = {
            let sp = self.resolve(src, false)?;
            self.read_place_w(sp)?
        };
        let dp = self.resolve(dst, false)?;
        // MOV writes without reading its destination — significant when the
        // destination is a memory operand with read side effects.
        let d = if op == BinOp::Mov {
            0
        } else {
            self.read_place_w(dp)?
        };
        let (wb, (n, z, v, c)) = alu2_w(op, s, d, self.cpu.psw.c());
        if let Some(r) = wb {
            self.write_place_w(dp, r)?;
        }
        self.cpu.psw.set_nzvc(n, z, v, c);
        Ok(())
    }

    fn exec_double_b(&mut self, op: BinOp, src: Operand, dst: Operand) -> Result<(), Trap> {
        let s = {
            let sp = self.resolve(src, true)?;
            self.read_place_b(sp)?
        };
        let dp = self.resolve(dst, true)?;
        let c = self.cpu.psw.c();
        match op {
            BinOp::Mov => {
                // MOVB to a register sign-extends, per the hardware.
                if let Place::Reg(r) = dp {
                    self.cpu.set_reg(r, sign_extend_byte(s));
                } else {
                    self.write_place_b(dp, s)?;
                }
                self.cpu.psw.set_nzvc(is_neg_b(s), s == 0, false, c);
            }
            BinOp::Cmp => {
                let d = self.read_place_b(dp)?;
                let r = s.wrapping_sub(d);
                let v = (is_neg_b(s) != is_neg_b(d)) && (is_neg_b(r) == is_neg_b(d));
                let borrow = s < d;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, v, borrow);
            }
            BinOp::Bit => {
                let d = self.read_place_b(dp)?;
                let r = s & d;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, false, c);
            }
            BinOp::Bic => {
                let d = self.read_place_b(dp)?;
                let r = d & !s;
                self.write_place_b(dp, r)?;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, false, c);
            }
            BinOp::Bis => {
                let d = self.read_place_b(dp)?;
                let r = d | s;
                self.write_place_b(dp, r)?;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, false, c);
            }
            BinOp::Add | BinOp::Sub => unreachable!("ADD/SUB have no byte form"),
        }
        Ok(())
    }

    fn exec_single(&mut self, op: UnOp, byte: bool, dst: Operand) -> Result<(), Trap> {
        if byte && !matches!(op, UnOp::Swab | UnOp::Sxt) {
            return self.exec_single_b(op, dst);
        }
        let dp = self.resolve(dst, false)?;
        // CLR and SXT write without reading — significant for memory
        // operands with read side effects.
        let d = if matches!(op, UnOp::Clr | UnOp::Sxt) {
            0
        } else {
            self.read_place_w(dp)?
        };
        let (wb, (n, z, v, c)) = alu1_w(op, d, self.cpu.psw.n(), self.cpu.psw.c());
        if let Some(r) = wb {
            self.write_place_w(dp, r)?;
        }
        self.cpu.psw.set_nzvc(n, z, v, c);
        Ok(())
    }

    fn exec_single_b(&mut self, op: UnOp, dst: Operand) -> Result<(), Trap> {
        let dp = self.resolve(dst, true)?;
        let c = self.cpu.psw.c();
        match op {
            UnOp::Clr => {
                self.write_place_b(dp, 0)?;
                self.cpu.psw.set_nzvc(false, true, false, false);
            }
            UnOp::Com => {
                let r = !self.read_place_b(dp)?;
                self.write_place_b(dp, r)?;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, false, true);
            }
            UnOp::Inc => {
                let d = self.read_place_b(dp)?;
                let r = d.wrapping_add(1);
                self.write_place_b(dp, r)?;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, d == 0o177, c);
            }
            UnOp::Dec => {
                let d = self.read_place_b(dp)?;
                let r = d.wrapping_sub(1);
                self.write_place_b(dp, r)?;
                self.cpu.psw.set_nzvc(is_neg_b(r), r == 0, d == 0o200, c);
            }
            UnOp::Neg => {
                let r = (self.read_place_b(dp)? as i8).wrapping_neg() as u8;
                self.write_place_b(dp, r)?;
                self.cpu
                    .psw
                    .set_nzvc(is_neg_b(r), r == 0, r == 0o200, r != 0);
            }
            UnOp::Tst => {
                let d = self.read_place_b(dp)?;
                self.cpu.psw.set_nzvc(is_neg_b(d), d == 0, false, false);
            }
            UnOp::Adc => {
                let d = self.read_place_b(dp)?;
                let r = d.wrapping_add(c as u8);
                self.write_place_b(dp, r)?;
                self.cpu
                    .psw
                    .set_nzvc(is_neg_b(r), r == 0, d == 0o177 && c, d == 0o377 && c);
            }
            UnOp::Sbc => {
                let d = self.read_place_b(dp)?;
                let r = d.wrapping_sub(c as u8);
                self.write_place_b(dp, r)?;
                self.cpu
                    .psw
                    .set_nzvc(is_neg_b(r), r == 0, d == 0o200, !(d == 0 && c));
            }
            UnOp::Ror => {
                let d = self.read_place_b(dp)?;
                let r = (d >> 1) | ((c as u8) << 7);
                let new_c = d & 1 != 0;
                self.write_place_b(dp, r)?;
                let n = is_neg_b(r);
                self.cpu.psw.set_nzvc(n, r == 0, n ^ new_c, new_c);
            }
            UnOp::Rol => {
                let d = self.read_place_b(dp)?;
                let r = (d << 1) | c as u8;
                let new_c = is_neg_b(d);
                self.write_place_b(dp, r)?;
                let n = is_neg_b(r);
                self.cpu.psw.set_nzvc(n, r == 0, n ^ new_c, new_c);
            }
            UnOp::Asr => {
                let d = self.read_place_b(dp)?;
                let r = ((d as i8) >> 1) as u8;
                let new_c = d & 1 != 0;
                self.write_place_b(dp, r)?;
                let n = is_neg_b(r);
                self.cpu.psw.set_nzvc(n, r == 0, n ^ new_c, new_c);
            }
            UnOp::Asl => {
                let d = self.read_place_b(dp)?;
                let r = d << 1;
                let new_c = is_neg_b(d);
                self.write_place_b(dp, r)?;
                let n = is_neg_b(r);
                self.cpu.psw.set_nzvc(n, r == 0, n ^ new_c, new_c);
            }
            UnOp::Swab | UnOp::Sxt => unreachable!("word-only operations"),
        }
        Ok(())
    }

    fn exec_branch(&mut self, cond: BranchCond, offset: i8) {
        if branch_taken(self.cpu.psw, cond) {
            self.cpu.pc = self
                .cpu
                .pc
                .wrapping_add((offset as i16 as Word).wrapping_mul(2));
        }
    }

    fn exec_mul(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let s = self.read_place_w(sp)? as i16 as i32;
        let r = self.cpu.reg(reg) as i16 as i32;
        let product = r * s;
        if reg & 1 == 0 {
            self.cpu.set_reg(reg, (product >> 16) as Word);
            self.cpu.set_reg(reg + 1, (product & 0xFFFF) as Word);
        } else {
            self.cpu.set_reg(reg, (product & 0xFFFF) as Word);
        }
        let c = !(-(1 << 15)..(1 << 15)).contains(&product);
        self.cpu.psw.set_nzvc(product < 0, product == 0, false, c);
        Ok(())
    }

    fn exec_div(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let s = self.read_place_w(sp)? as i16 as i32;
        if reg & 1 != 0 {
            // Odd register: undefined on the hardware; we trap it as illegal
            // to keep programs honest.
            return Err(Trap::Illegal { word: 0o071000 });
        }
        let dividend = ((self.cpu.reg(reg) as u32) << 16 | self.cpu.reg(reg + 1) as u32) as i32;
        if s == 0 {
            self.cpu.psw.set_nzvc(false, false, true, true);
            return Ok(());
        }
        let q = dividend / s;
        let rem = dividend % s;
        if !(-(1 << 15)..(1 << 15)).contains(&q) {
            self.cpu.psw.set_nzvc(q < 0, false, true, false);
            return Ok(());
        }
        self.cpu.set_reg(reg, q as i16 as Word);
        self.cpu.set_reg(reg + 1, rem as i16 as Word);
        self.cpu.psw.set_nzvc(q < 0, q == 0, false, false);
        Ok(())
    }

    fn exec_ash(&mut self, reg: u8, src: Operand) -> Result<(), Trap> {
        let sp = self.resolve(src, false)?;
        let count = (self.read_place_w(sp)? & 0o77) as i8;
        // Six-bit signed shift count.
        let count = if count >= 32 { count - 64 } else { count };
        let v = self.cpu.reg(reg) as i16;
        let (r, c) = if count >= 0 {
            let shifted = (v as i32) << count;
            (shifted as i16, count > 0 && (shifted & 0x1_0000) != 0)
        } else {
            let n = (-count) as u32;
            let r = v >> n.min(15);
            let c = n <= 16 && (v >> (n - 1).min(15)) & 1 != 0;
            (r, c)
        };
        self.cpu.set_reg(reg, r as Word);
        let v_flag = (r < 0) != (v < 0);
        self.cpu.psw.set_nzvc(r < 0, r == 0, v_flag, c);
        Ok(())
    }
}

/// The four condition codes unpacked: `(n, z, v, c)`.
type Cc = (bool, bool, bool, bool);

#[inline]
fn unpack_cc(p: Psw) -> Cc {
    (p.n(), p.z(), p.v(), p.c())
}

/// Evaluates a branch condition against unpacked condition codes.
#[inline]
fn cond_taken(cond: BranchCond, (n, z, v, c): Cc) -> bool {
    match cond {
        BranchCond::Br => true,
        BranchCond::Bne => !z,
        BranchCond::Beq => z,
        BranchCond::Bge => n == v,
        BranchCond::Blt => n != v,
        BranchCond::Bgt => !z && (n == v),
        BranchCond::Ble => z || (n != v),
        BranchCond::Bpl => !n,
        BranchCond::Bmi => n,
        BranchCond::Bhi => !c && !z,
        BranchCond::Blos => c || z,
        BranchCond::Bvc => !v,
        BranchCond::Bvs => v,
        BranchCond::Bcc => !c,
        BranchCond::Bcs => c,
    }
}

/// Evaluates a branch condition against the condition codes.
#[inline]
fn branch_taken(p: Psw, cond: BranchCond) -> bool {
    cond_taken(cond, unpack_cc(p))
}

/// Runs one register op against R0–R5 and unpacked condition codes —
/// the one executor behind both the decode cache and the superblock tier.
/// `imm` is the instruction-stream word after the opcode, read only by
/// [`RegOp::Immediate`]. Each arm writes back on its own: merging the
/// write-backs costs the tier's hot loop measurably.
#[inline(always)]
fn exec_reg_op(r: &mut [Word; 6], op: RegOp, imm: Word, cc: &mut Cc) {
    match op {
        RegOp::Double { op, src, dst } => {
            let (wb, f) = alu2_w(op, r[src as usize], r[dst as usize], cc.3);
            if let Some(v) = wb {
                r[dst as usize] = v;
            }
            *cc = f;
        }
        RegOp::Immediate { op, dst } => {
            let (wb, f) = alu2_w(op, imm, r[dst as usize], cc.3);
            if let Some(v) = wb {
                r[dst as usize] = v;
            }
            *cc = f;
        }
        RegOp::Single { op, reg } => {
            let (wb, f) = alu1_w(op, r[reg as usize], cc.0, cc.3);
            if let Some(v) = wb {
                r[reg as usize] = v;
            }
            *cc = f;
        }
    }
}

/// Executes a superblock up to `max_runs` times, following the self-chain
/// while the terminator lands back on the block's own entry. A block
/// cannot trap and cannot touch memory, so it runs against the CPU alone,
/// and the condition codes live in locals for the whole run (host
/// registers instead of a packed PSW read-modify-write per op), folded
/// back into the PSW once on the way out. Returns the number of complete
/// runs retired (at least one when `max_runs >= 1`).
#[inline]
fn run_block(cpu: &mut Cpu, block: &SuperBlock, max_runs: u64) -> u64 {
    // Locals, not reads through `block`, inside the rerun loop: the
    // indirection costs the tier's hot loop measurably.
    let ops = &*block.ops;
    let term = block.term;
    let entry = block.entry;
    let exit = block.exit_pc();
    let mut cc = unpack_cc(cpu.psw);
    let mut runs = 0;
    while runs < max_runs {
        for &(op, imm) in ops {
            exec_reg_op(&mut cpu.r, op, imm, &mut cc);
        }
        runs += 1;
        cpu.pc = exit;
        match term {
            SbTerm::Branch { cond, offset } => {
                if cond_taken(cond, cc) {
                    cpu.pc = exit.wrapping_add((offset as i16 as Word).wrapping_mul(2));
                }
            }
            SbTerm::Sob { reg, offset } => {
                let count = cpu.reg(reg).wrapping_sub(1);
                cpu.set_reg(reg, count);
                if count != 0 {
                    cpu.pc = cpu.pc.wrapping_sub(2 * offset as Word);
                }
            }
            SbTerm::FallThrough => break,
        }
        if cpu.pc != entry {
            break;
        }
    }
    let (n, z, v, c) = cc;
    cpu.psw.set_nzvc(n, z, v, c);
    runs
}

/// Word-size double-operand ALU semantics, shared by the generic dispatcher
/// and the specialized register-direct fast path so the two cannot drift.
/// Returns the value to write back (`None` for the non-writing CMP/BIT) and
/// the resulting condition codes. `d` is ignored for MOV — callers must not
/// *read* a MOV destination, only write it.
#[inline]
fn alu2_w(op: BinOp, s: Word, d: Word, c: bool) -> (Option<Word>, (bool, bool, bool, bool)) {
    match op {
        BinOp::Mov => (Some(s), (is_neg_w(s), s == 0, false, c)),
        BinOp::Cmp => {
            let r = s.wrapping_sub(d);
            let v = (is_neg_w(s) != is_neg_w(d)) && (is_neg_w(r) == is_neg_w(d));
            let borrow = (s as u32) < (d as u32);
            (None, (is_neg_w(r), r == 0, v, borrow))
        }
        BinOp::Bit => {
            let r = s & d;
            (None, (is_neg_w(r), r == 0, false, c))
        }
        BinOp::Bic => {
            let r = d & !s;
            (Some(r), (is_neg_w(r), r == 0, false, c))
        }
        BinOp::Bis => {
            let r = d | s;
            (Some(r), (is_neg_w(r), r == 0, false, c))
        }
        BinOp::Add => {
            let (r, carry) = d.overflowing_add(s);
            let v = (is_neg_w(s) == is_neg_w(d)) && (is_neg_w(r) != is_neg_w(d));
            (Some(r), (is_neg_w(r), r == 0, v, carry))
        }
        BinOp::Sub => {
            let r = d.wrapping_sub(s);
            let v = (is_neg_w(s) != is_neg_w(d)) && (is_neg_w(r) == is_neg_w(s));
            let borrow = (d as u32) < (s as u32);
            (Some(r), (is_neg_w(r), r == 0, v, borrow))
        }
    }
}

/// Word-size single-operand ALU semantics, shared like [`alu2_w`]. `n_in`
/// is the incoming N flag (SXT materializes it); `d` is ignored for CLR and
/// SXT — callers must not *read* their destination, only write it.
#[inline]
fn alu1_w(op: UnOp, d: Word, n_in: bool, c: bool) -> (Option<Word>, (bool, bool, bool, bool)) {
    match op {
        UnOp::Clr => (Some(0), (false, true, false, false)),
        UnOp::Com => {
            let r = !d;
            (Some(r), (is_neg_w(r), r == 0, false, true))
        }
        UnOp::Inc => {
            let r = d.wrapping_add(1);
            (Some(r), (is_neg_w(r), r == 0, d == 0o077777, c))
        }
        UnOp::Dec => {
            let r = d.wrapping_sub(1);
            (Some(r), (is_neg_w(r), r == 0, d == SIGN_W, c))
        }
        UnOp::Neg => {
            let r = (d as i16).wrapping_neg() as Word;
            (Some(r), (is_neg_w(r), r == 0, r == SIGN_W, r != 0))
        }
        UnOp::Adc => {
            let r = d.wrapping_add(c as Word);
            (
                Some(r),
                (is_neg_w(r), r == 0, d == 0o077777 && c, d == 0o177777 && c),
            )
        }
        UnOp::Sbc => {
            let r = d.wrapping_sub(c as Word);
            (Some(r), (is_neg_w(r), r == 0, d == SIGN_W, !(d == 0 && c)))
        }
        UnOp::Tst => (None, (is_neg_w(d), d == 0, false, false)),
        UnOp::Ror => {
            let r = (d >> 1) | ((c as Word) << 15);
            let new_c = d & 1 != 0;
            let n = is_neg_w(r);
            (Some(r), (n, r == 0, n ^ new_c, new_c))
        }
        UnOp::Rol => {
            let r = (d << 1) | c as Word;
            let new_c = is_neg_w(d);
            let n = is_neg_w(r);
            (Some(r), (n, r == 0, n ^ new_c, new_c))
        }
        UnOp::Asr => {
            let r = ((d as i16) >> 1) as Word;
            let new_c = d & 1 != 0;
            let n = is_neg_w(r);
            (Some(r), (n, r == 0, n ^ new_c, new_c))
        }
        UnOp::Asl => {
            let r = d << 1;
            let new_c = is_neg_w(d);
            let n = is_neg_w(r);
            (Some(r), (n, r == 0, n ^ new_c, new_c))
        }
        UnOp::Swab => {
            let r = d.rotate_left(8);
            let low = (r & 0xFF) as u8;
            (Some(r), (is_neg_b(low), low == 0, false, false))
        }
        UnOp::Sxt => {
            let r = if n_in { 0o177777 } else { 0 };
            (Some(r), (n_in, !n_in, false, c))
        }
    }
}

/// The observability classification of a [`Trap`].
fn trap_kind(trap: Trap) -> TrapKind {
    match trap {
        Trap::Mmu(_) => TrapKind::Mmu,
        Trap::OddAddress { .. } => TrapKind::OddAddress,
        Trap::BusError { .. } => TrapKind::BusError,
        Trap::Illegal { .. } => TrapKind::Illegal,
        Trap::Emt(_) => TrapKind::Emt,
        Trap::TrapInstr(_) => TrapKind::TrapInstr,
        Trap::Bpt => TrapKind::Bpt,
        Trap::Iot => TrapKind::Iot,
        Trap::Halt => TrapKind::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    /// Compiles the run at virtual 0 of `source` on a deviceless machine
    /// with the MMU off.
    fn compile_at_zero(source: &str) -> Option<SuperBlock> {
        let prog = assemble(source).expect("assembly failed");
        let mut m = Machine::new();
        m.mem.load_words(0, &prog.words);
        m.compile_superblock(0)
    }

    #[test]
    fn compilation_stops_right_before_each_non_register_shape() {
        let shapes = [
            // Memory operands, read or written.
            "MOV (R1), R2",
            "MOV R1, (R2)",
            "ADD @#0o1000, R2",
            // The SP or PC in any position.
            "MOV SP, R1",
            "MOV R1, SP",
            "ADD #2, SP",
            "MOV PC, R1",
            "INC SP",
            // Byte ops.
            "MOVB R1, R2",
            "INCB R1",
            // The extended instruction set.
            "MUL R1, R2",
            "DIV R1, R2",
            "ASH R1, R2",
            "XOR R1, R2",
            // Condition-code ops.
            "CLC",
            "SEC",
            // Calls and traps.
            "JSR PC, sub",
            "TRAP 0",
        ];
        for shape in shapes {
            let src = format!("ADD R1, R2\nADD #3, R4\n{shape}\nend: BR end\nsub: RTS PC\n");
            let block = compile_at_zero(&src)
                .unwrap_or_else(|| panic!("{shape}: the register ops before it must compile"));
            assert_eq!(block.ops.len(), 2, "{shape}");
            assert_eq!(block.term, SbTerm::FallThrough, "{shape}");
            assert_eq!(block.exit_pc(), 6, "{shape}: the block must end before it");
            assert_eq!(block.cost, 2, "{shape}");
        }
    }

    #[test]
    fn a_register_run_ends_at_its_branch_with_immediates_captured() {
        let block = compile_at_zero("loop: ADD #0o1234, R4\nINC R5\nSOB R3, loop\n").unwrap();
        let add = RegOp::Immediate {
            op: BinOp::Add,
            dst: 4,
        };
        let inc = RegOp::Single {
            op: UnOp::Inc,
            reg: 5,
        };
        assert_eq!(&*block.ops, &[(add, 0o1234), (inc, 0)]);
        assert_eq!(block.term, SbTerm::Sob { reg: 3, offset: 4 });
        assert_eq!(block.exit_pc(), 8, "control leaves past the SOB word");
        assert_eq!(block.cost, 3);
        // A lone register op before a stop is not worth a block.
        assert!(compile_at_zero("INC R1\nMOV (R1), R2\n").is_none());
    }
}
