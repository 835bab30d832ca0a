//! The [`Recorder`]: the one observability handle an executing substrate
//! owns.
//!
//! A recorder bundles the always-on [`Metrics`] registry with an optional
//! [`TraceBuffer`]. Tracing is off by default — the disabled path is a
//! single branch on an `Option`, and the hot counters are plain `#[inline]`
//! field bumps — so instrumented code can stay instrumented in release
//! builds (the `kernel_overhead` bench and acceptance criteria hold it to
//! "no measurable slowdown").
//!
//! The recorder also carries the *current context* (which regime holds the
//! CPU), set by the kernel at boot and on every context switch, so
//! machine-level instrumentation can attribute instructions and traps to
//! regimes without the machine knowing regimes exist.

use crate::event::ObsEvent;
use crate::metrics::Metrics;
use crate::sink::TraceBuffer;

/// Context value before any regime has been established.
pub const NO_CONTEXT: u16 = u16::MAX;

/// Metrics plus optional event trace, owned by a machine, network, or
/// conventional kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Recorder {
    /// The counter registry (always on; increments are cheap).
    pub metrics: Metrics,
    trace: Option<TraceBuffer>,
    ctx: u16,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Recorder {
    /// A recorder with tracing disabled (the default).
    pub fn disabled() -> Recorder {
        Recorder {
            metrics: Metrics::new(),
            trace: None,
            ctx: NO_CONTEXT,
        }
    }

    /// A recorder tracing into a ring of `capacity` events.
    pub fn with_trace(capacity: usize) -> Recorder {
        let mut r = Recorder::disabled();
        r.enable_tracing(capacity);
        r
    }

    /// Switches tracing on (replacing any existing trace).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.trace = Some(TraceBuffer::new(capacity));
    }

    /// Switches tracing off, returning the buffer if one existed.
    pub fn disable_tracing(&mut self) -> Option<TraceBuffer> {
        self.trace.take()
    }

    /// Whether events are currently being kept.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The trace, if tracing is enabled.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Sets the current regime context (kernel boot / context switch).
    #[inline]
    pub fn set_context(&mut self, regime: u16) {
        self.ctx = regime;
    }

    /// The current regime context ([`NO_CONTEXT`] before boot).
    #[inline]
    pub fn context(&self) -> u16 {
        self.ctx
    }

    /// Emits an event at a deterministic timestamp. With tracing disabled
    /// this is one branch and a drop.
    #[inline]
    pub fn emit(&mut self, ts: u64, event: ObsEvent) {
        if let Some(trace) = &mut self.trace {
            trace.record(ts, event);
        }
    }

    /// Commits a worker-buffered batch of events, all at one timestamp, in
    /// buffer order. The parallel round executor collects each node's
    /// events worker-locally during its step phase and commits the batches
    /// at the round barrier in node-index order — this is that commit
    /// path. With tracing disabled the batch is dropped, exactly as the
    /// per-event [`Recorder::emit`] would have dropped each event. The
    /// batch is taken as an iterator, so the executor can drain its
    /// buffer in place and keep its capacity for the next round.
    pub fn absorb(&mut self, ts: u64, events: impl IntoIterator<Item = ObsEvent>) {
        if let Some(trace) = &mut self.trace {
            for ev in events {
                trace.record(ts, ev);
            }
        }
    }

    // --------------------------------------------------------------
    // Hot-path counter bumps (metrics only; no event construction).
    // --------------------------------------------------------------

    /// One instruction retired in the current context.
    #[inline]
    pub fn instruction_retired(&mut self) {
        self.metrics.totals.instructions += 1;
        if self.ctx != NO_CONTEXT {
            self.metrics.regime_mut(self.ctx as usize).instructions += 1;
        }
    }

    /// `n` instructions retired in the current context, in one bump. The
    /// machine's batched `step_n` uses this to amortize recorder dispatch:
    /// the final counter values are identical to `n` calls of
    /// [`Recorder::instruction_retired`] under an unchanged context.
    #[inline]
    pub fn instructions_retired(&mut self, n: u64) {
        self.metrics.totals.instructions += n;
        if self.ctx != NO_CONTEXT {
            self.metrics.regime_mut(self.ctx as usize).instructions += n;
        }
    }

    /// One native-regime step in the current context.
    #[inline]
    pub fn native_step(&mut self) {
        if self.ctx != NO_CONTEXT {
            self.metrics.regime_mut(self.ctx as usize).native_steps += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_counts_but_keeps_no_events() {
        let mut r = Recorder::disabled();
        r.set_context(0);
        r.instruction_retired();
        r.emit(1, ObsEvent::ContextSwitch { from: 0, to: 1 });
        assert_eq!(r.metrics.totals.instructions, 1);
        assert!(r.trace().is_none());
    }

    #[test]
    fn tracing_keeps_events_with_timestamps() {
        let mut r = Recorder::with_trace(4);
        r.emit(7, ObsEvent::DmaBlocked { device: 0 });
        let t = r.trace().unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.events()[0].ts, 7);
    }

    #[test]
    fn context_attributes_instructions() {
        let mut r = Recorder::disabled();
        r.instruction_retired(); // no context yet: totals only
        r.set_context(1);
        r.instruction_retired();
        assert_eq!(r.metrics.totals.instructions, 2);
        assert_eq!(r.metrics.regime(1).unwrap().instructions, 1);
        assert!(r.metrics.regime(0).unwrap().instructions == 0);
    }

    #[test]
    fn batched_retirement_matches_per_instruction_bumps() {
        let mut one_by_one = Recorder::disabled();
        one_by_one.set_context(2);
        for _ in 0..5 {
            one_by_one.instruction_retired();
        }
        let mut batched = Recorder::disabled();
        batched.set_context(2);
        batched.instructions_retired(5);
        assert_eq!(one_by_one.metrics, batched.metrics);
    }

    #[test]
    fn disable_tracing_returns_the_buffer() {
        let mut r = Recorder::with_trace(2);
        r.emit(0, ObsEvent::DmaBlocked { device: 1 });
        let buf = r.disable_tracing().unwrap();
        assert_eq!(buf.len(), 1);
        assert!(!r.tracing());
    }
}
