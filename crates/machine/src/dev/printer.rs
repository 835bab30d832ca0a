//! An LP11-style line printer.
//!
//! Two registers: status (bit 7 ready, bit 6 interrupt enable) and data
//! (write a character to print). Printing a character takes a few ticks,
//! modelling the paper's concern that printed output is a slow, shared,
//! security-relevant resource.

use crate::dev::{Device, InterruptRequest};
use crate::types::{PhysAddr, Word};
use core::any::Any;

/// Status bit 7: ready.
pub const LP_READY: Word = 0o200;
/// Status bit 6: interrupt enable.
pub const LP_IE: Word = 0o100;

/// Ticks per character.
const PRINT_DELAY: u8 = 2;

/// The line printer.
#[derive(Debug, Clone)]
pub struct LinePrinter {
    base: PhysAddr,
    vector: Word,
    priority: u8,
    ready: bool,
    ie: bool,
    irq: bool,
    shift: Option<(u8, u8)>,
    printed: Vec<u8>,
}

impl LinePrinter {
    /// A printer at `base` with the given interrupt vector.
    pub fn new(base: PhysAddr, vector: Word) -> LinePrinter {
        LinePrinter {
            base,
            vector,
            priority: 4,
            ready: true,
            ie: false,
            irq: false,
            shift: None,
            printed: Vec::new(),
        }
    }

    /// Host side: everything printed so far.
    pub fn printed(&self) -> &[u8] {
        &self.printed
    }

    /// Host side: take the printed output, clearing the paper.
    pub fn take_printed(&mut self) -> Vec<u8> {
        core::mem::take(&mut self.printed)
    }
}

impl Device for LinePrinter {
    fn name(&self) -> &str {
        "lp11"
    }

    fn base(&self) -> PhysAddr {
        self.base
    }

    fn reg_len(&self) -> u32 {
        4
    }

    fn read_reg(&mut self, offset: u32) -> Word {
        match offset {
            0 => (if self.ready { LP_READY } else { 0 }) | (if self.ie { LP_IE } else { 0 }),
            _ => 0,
        }
    }

    fn write_reg(&mut self, offset: u32, value: Word) {
        match offset {
            0 => {
                let was = self.ie;
                self.ie = value & LP_IE != 0;
                if !was && self.ie && self.ready {
                    self.irq = true;
                }
            }
            2 if self.ready => {
                self.ready = false;
                self.shift = Some(((value & 0o377) as u8, PRINT_DELAY));
            }
            _ => {}
        }
    }

    fn tick(&mut self) {
        if let Some((ch, delay)) = self.shift {
            if delay == 0 {
                self.printed.push(ch);
                self.shift = None;
                self.ready = true;
                if self.ie {
                    self.irq = true;
                }
            } else {
                self.shift = Some((ch, delay - 1));
            }
        }
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

    fn snapshot_into(&self, out: &mut Vec<Word>) {
        // Format: [ready, ie, irq, shift_flag, shift_ch, shift_delay]. The
        // paper tray (`printed`) is host-side record-keeping and excluded.
        let (sf, sc, sd) = match self.shift {
            Some((ch, d)) => (1, ch as Word, d as Word),
            None => (0, 0, 0),
        };
        out.extend_from_slice(&[
            self.ready as Word,
            self.ie as Word,
            self.irq as Word,
            sf,
            sc,
            sd,
        ]);
    }

    fn restore(&mut self, snapshot: &[Word]) {
        assert_eq!(snapshot.len(), 6, "printer snapshot malformed");
        self.ready = snapshot[0] != 0;
        self.ie = snapshot[1] != 0;
        self.irq = snapshot[2] != 0;
        self.shift = (snapshot[3] != 0).then_some((snapshot[4] as u8, snapshot[5] as u8));
        self.printed.clear();
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
    fn prints_characters_with_delay() {
        let mut p = LinePrinter::new(0o777514, 0o200);
        p.write_reg(2, b'H' as Word);
        assert_eq!(p.read_reg(0) & LP_READY, 0);
        for _ in 0..=PRINT_DELAY {
            p.tick();
        }
        assert_eq!(p.read_reg(0) & LP_READY, LP_READY);
        p.write_reg(2, b'I' as Word);
        for _ in 0..=PRINT_DELAY {
            p.tick();
        }
        assert_eq!(p.printed(), b"HI");
        assert_eq!(p.take_printed(), b"HI");
        assert!(p.printed().is_empty());
    }

    #[test]
    fn characters_written_while_busy_are_lost() {
        let mut p = LinePrinter::new(0o777514, 0o200);
        p.write_reg(2, b'A' as Word);
        p.write_reg(2, b'B' as Word);
        for _ in 0..10 {
            p.tick();
        }
        assert_eq!(p.printed(), b"A");
    }

    #[test]
    fn interrupt_on_completion() {
        let mut p = LinePrinter::new(0o777514, 0o200);
        p.write_reg(0, LP_IE);
        p.acknowledge(); // Clear the enable-while-ready latch.
        p.write_reg(2, b'A' as Word);
        assert!(p.pending().is_none());
        for _ in 0..=PRINT_DELAY {
            p.tick();
        }
        assert_eq!(p.pending().unwrap().vector, 0o200);
    }
}
