//! A KW11-style line-time clock.
//!
//! One register (LKS): bit 7 is the monitor bit, set every `period` ticks;
//! bit 6 enables interrupts. Reading does not clear the monitor bit; writing
//! does (writing also sets the enable bit as given). Interrupts vector
//! through 0o100 at priority 6 on the real machine.

use crate::dev::{Device, InterruptRequest};
use crate::types::{PhysAddr, Word};
use core::any::Any;

/// LKS bit 7: clock monitor.
pub const LKS_MONITOR: Word = 0o200;
/// LKS bit 6: interrupt enable.
pub const LKS_IE: Word = 0o100;

/// The line-time clock.
#[derive(Debug, Clone)]
pub struct LineClock {
    base: PhysAddr,
    vector: Word,
    priority: u8,
    period: u32,
    counter: u32,
    monitor: bool,
    ie: bool,
    irq: bool,
    /// Total ticks elapsed (host-visible, for tests and experiments).
    pub ticks: u64,
}

impl LineClock {
    /// A clock raising its monitor bit every `period` machine steps.
    pub fn new(base: PhysAddr, vector: Word, period: u32) -> LineClock {
        assert!(period > 0, "clock period must be positive");
        LineClock {
            base,
            vector,
            priority: 6,
            period,
            counter: 0,
            monitor: false,
            ie: false,
            irq: false,
            ticks: 0,
        }
    }
}

impl Device for LineClock {
    fn name(&self) -> &str {
        "kw11"
    }

    fn base(&self) -> PhysAddr {
        self.base
    }

    fn reg_len(&self) -> u32 {
        2
    }

    fn read_reg(&mut self, _offset: u32) -> Word {
        (if self.monitor { LKS_MONITOR } else { 0 }) | (if self.ie { LKS_IE } else { 0 })
    }

    fn write_reg(&mut self, _offset: u32, value: Word) {
        self.monitor = false;
        self.ie = value & LKS_IE != 0;
    }

    fn tick(&mut self) {
        self.ticks += 1;
        self.counter += 1;
        if self.counter >= self.period {
            self.counter = 0;
            self.monitor = true;
            if self.ie {
                self.irq = true;
            }
        }
    }

    /// Every tick before the one that completes the period is quiet.
    fn quiet_ticks(&self) -> u64 {
        if self.irq {
            return 0;
        }
        u64::from((self.period - 1).saturating_sub(self.counter))
    }

    fn advance(&mut self, n: u64) {
        assert!(n <= self.quiet_ticks(), "advance past a clock event");
        self.ticks += n;
        self.counter += n as u32;
    }

    fn pending(&self) -> Option<InterruptRequest> {
        self.irq.then_some(InterruptRequest {
            vector: self.vector,
            priority: self.priority,
        })
    }

    fn acknowledge(&mut self) {
        self.irq = false;
    }

    fn snapshot(&self) -> Vec<Word> {
        // Format: [counter, monitor, ie, irq]. The host-side `ticks` total
        // is excluded: it grows without bound and is record-keeping only.
        vec![
            self.counter as Word,
            self.monitor as Word,
            self.ie as Word,
            self.irq as Word,
        ]
    }

    fn restore(&mut self, snapshot: &[Word]) {
        assert_eq!(snapshot.len(), 4, "clock snapshot malformed");
        self.counter = snapshot[0] as u32;
        self.monitor = snapshot[1] != 0;
        self.ie = snapshot[2] != 0;
        self.irq = snapshot[3] != 0;
        self.ticks = 0;
    }

    fn boxed_clone(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitor_sets_every_period() {
        let mut c = LineClock::new(0o777546, 0o100, 3);
        for _ in 0..2 {
            c.tick();
            assert_eq!(c.read_reg(0) & LKS_MONITOR, 0);
        }
        c.tick();
        assert_eq!(c.read_reg(0) & LKS_MONITOR, LKS_MONITOR);
    }

    #[test]
    fn write_clears_monitor() {
        let mut c = LineClock::new(0o777546, 0o100, 1);
        c.tick();
        assert_ne!(c.read_reg(0) & LKS_MONITOR, 0);
        c.write_reg(0, 0);
        assert_eq!(c.read_reg(0) & LKS_MONITOR, 0);
    }

    #[test]
    fn interrupt_only_when_enabled() {
        let mut c = LineClock::new(0o777546, 0o100, 1);
        c.tick();
        assert!(c.pending().is_none());
        c.write_reg(0, LKS_IE);
        c.tick();
        let irq = c.pending().unwrap();
        assert_eq!(irq.vector, 0o100);
        assert_eq!(irq.priority, 6);
        c.acknowledge();
        assert!(c.pending().is_none());
    }

    /// What a tick can change that the machine or the host can see.
    fn observe(c: &LineClock) -> (Vec<Word>, Option<InterruptRequest>, Word, u64) {
        let mut c = c.clone();
        (c.snapshot(), c.pending(), c.read_reg(0), c.ticks)
    }

    /// `advance(k)` must equal `k` ticks for every `k` in the quiet window.
    fn assert_advance_matches_ticks(c: &LineClock) {
        for k in 0..=c.quiet_ticks() {
            let mut ticked = c.clone();
            for _ in 0..k {
                ticked.tick();
            }
            let mut advanced = c.clone();
            advanced.advance(k);
            assert_eq!(observe(&advanced), observe(&ticked), "k = {k}: {c:?}");
        }
    }

    #[test]
    fn advance_equals_ticking_through_every_counter_position() {
        for period in [1, 2, 5, 64] {
            for ie in [false, true] {
                let mut c = LineClock::new(0o777546, 0o100, period);
                c.write_reg(0, if ie { LKS_IE } else { 0 });
                // Two full periods: the monitor bit both clear and set.
                for _ in 0..2 * period {
                    let q = c.quiet_ticks();
                    assert_eq!(q, u64::from(period - 1 - c.counter));
                    assert_advance_matches_ticks(&c);
                    // The tick after the window completes the period.
                    let mut next = c.clone();
                    next.advance(q);
                    next.tick();
                    assert_ne!(next.read_reg(0) & LKS_MONITOR, 0);
                    assert_eq!(next.pending().is_some(), ie);
                    c.tick();
                    c.acknowledge();
                }
            }
        }
    }

    #[test]
    fn latched_clock_is_never_quiet() {
        let mut c = LineClock::new(0o777546, 0o100, 3);
        c.write_reg(0, LKS_IE);
        for _ in 0..3 {
            c.tick();
        }
        assert!(c.pending().is_some());
        assert_eq!(c.quiet_ticks(), 0);
        // Ticks keep counting while the latch waits for the kernel.
        c.tick();
        assert_eq!(c.quiet_ticks(), 0);
        c.acknowledge();
        assert_eq!(c.quiet_ticks(), 1);
        assert_advance_matches_ticks(&c);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_panics() {
        LineClock::new(0o777546, 0o100, 0);
    }
}
