//! A DL11-style asynchronous serial line unit.
//!
//! Four word registers: receiver status (RCSR), receiver buffer (RBUF),
//! transmitter status (XCSR), transmitter buffer (XBUF). The host side of
//! the line (a terminal, another machine, a communications line) is driven
//! through [`SerialLine::host_send`] and [`SerialLine::host_take_output`].
//! Receive interrupts use the device's vector; transmit interrupts use
//! vector + 4, as on the real unit.

use crate::dev::{Device, InterruptRequest};
use crate::types::{PhysAddr, Word};
use core::any::Any;
use std::collections::VecDeque;

/// RCSR/XCSR bit 7: done/ready.
pub const CSR_DONE: Word = 0o200;
/// RCSR/XCSR bit 6: interrupt enable.
pub const CSR_IE: Word = 0o100;

/// Transmit delay in ticks (models line speed).
const TX_DELAY: u8 = 1;

/// Receive-queue depth; bytes beyond it are dropped by the line discipline.
/// Bounding the queue keeps machine state spaces finite for verification.
pub const RX_CAPACITY: usize = 256;

/// A serial line unit.
#[derive(Debug, Clone)]
pub struct SerialLine {
    /// A static name, so a clone copies a pointer. An embedder that wants
    /// one per line (the kernel's `red-tty0`) names the line's metrics
    /// slot instead.
    name: &'static str,
    base: PhysAddr,
    vector: Word,
    priority: u8,
    // Receiver.
    rx_capacity: usize,
    rx_queue: VecDeque<u8>,
    rbuf: u8,
    rx_done: bool,
    rx_ie: bool,
    rx_irq: bool,
    // Transmitter.
    tx_ready: bool,
    tx_ie: bool,
    tx_irq: bool,
    tx_shift: Option<(u8, u8)>, // (char, remaining delay)
    /// The byte most recently placed on the line (`0o400 | byte`), or 0 if
    /// none yet. Part of the model state; `tx_out` is host-side only.
    last_tx: Word,
    tx_out: Vec<u8>,
}

impl SerialLine {
    /// A serial line at `base` with receive vector `vector` and the given
    /// bus priority.
    pub fn new(name: &'static str, base: PhysAddr, vector: Word, priority: u8) -> SerialLine {
        SerialLine {
            name,
            base,
            vector,
            priority,
            rx_capacity: RX_CAPACITY,
            rx_queue: VecDeque::new(),
            rbuf: 0,
            rx_done: false,
            rx_ie: false,
            rx_irq: false,
            tx_ready: true,
            tx_ie: false,
            tx_irq: false,
            tx_shift: None,
            last_tx: 0,
            tx_out: Vec::new(),
        }
    }

    /// Shrinks the receive queue to `capacity` bytes (the default is
    /// [`RX_CAPACITY`]), builder-style. A tightly bounded queue models a
    /// line with no buffering — extra bytes fall on the floor — and keeps
    /// exhaustively explored state spaces small.
    pub fn with_rx_capacity(mut self, capacity: usize) -> SerialLine {
        self.rx_capacity = capacity.min(RX_CAPACITY);
        self
    }

    /// Host side: queue bytes for the CPU to receive. Bytes beyond the
    /// receive capacity are dropped (and counted in the return value).
    pub fn host_send(&mut self, bytes: &[u8]) -> usize {
        let room = self.rx_capacity.saturating_sub(self.rx_queue.len());
        let take = bytes.len().min(room);
        self.rx_queue.extend(bytes[..take].iter().copied());
        bytes.len() - take
    }

    /// Host side: take everything the CPU has transmitted so far.
    pub fn host_take_output(&mut self) -> Vec<u8> {
        core::mem::take(&mut self.tx_out)
    }

    /// Host side: peek at transmitted output without consuming it.
    pub fn host_peek_output(&self) -> &[u8] {
        &self.tx_out
    }

    /// Enables or disables the receive interrupt (as the CPU would by
    /// setting RCSR bit 6); exposed for test harnesses.
    pub fn set_rx_interrupt(&mut self, enable: bool) {
        self.rx_ie = enable;
        if enable && self.rx_done {
            self.rx_irq = true;
        }
    }
}

impl Device for SerialLine {
    fn name(&self) -> &str {
        self.name
    }

    fn base(&self) -> PhysAddr {
        self.base
    }

    fn reg_len(&self) -> u32 {
        8
    }

    fn read_reg(&mut self, offset: u32) -> Word {
        match offset {
            0 => (if self.rx_done { CSR_DONE } else { 0 }) | (if self.rx_ie { CSR_IE } else { 0 }),
            2 => {
                self.rx_done = false;
                self.rx_irq = false;
                self.rbuf as Word
            }
            4 => (if self.tx_ready { CSR_DONE } else { 0 }) | (if self.tx_ie { CSR_IE } else { 0 }),
            _ => 0,
        }
    }

    fn write_reg(&mut self, offset: u32, value: Word) {
        match offset {
            0 => {
                let was = self.rx_ie;
                self.rx_ie = value & CSR_IE != 0;
                if !was && self.rx_ie && self.rx_done {
                    self.rx_irq = true;
                }
            }
            4 => {
                let was = self.tx_ie;
                self.tx_ie = value & CSR_IE != 0;
                if !was && self.tx_ie && self.tx_ready {
                    self.tx_irq = true;
                }
            }
            6 if self.tx_ready => {
                self.tx_ready = false;
                self.tx_shift = Some(((value & 0o377) as u8, TX_DELAY));
            }
            // Writes while busy are lost, as on the hardware.
            _ => {}
        }
    }

    fn tick(&mut self) {
        // Receiver: move the next queued byte into RBUF when it is free.
        if !self.rx_done {
            if let Some(b) = self.rx_queue.pop_front() {
                self.rbuf = b;
                self.rx_done = true;
                if self.rx_ie {
                    self.rx_irq = true;
                }
            }
        }
        // Transmitter: complete the in-flight character.
        if let Some((ch, delay)) = self.tx_shift {
            if delay == 0 {
                self.tx_out.push(ch);
                self.last_tx = 0o400 | ch as Word;
                self.tx_shift = None;
                self.tx_ready = true;
                if self.tx_ie {
                    self.tx_irq = true;
                }
            } else {
                self.tx_shift = Some((ch, delay - 1));
            }
        }
    }

    /// Quiet until a queued byte can load into an empty RBUF or the byte
    /// on the line finishes shifting out.
    fn quiet_ticks(&self) -> u64 {
        if self.rx_irq || self.tx_irq || (!self.rx_done && !self.rx_queue.is_empty()) {
            return 0;
        }
        match self.tx_shift {
            Some((_, delay)) => u64::from(delay),
            None => u64::MAX,
        }
    }

    fn advance(&mut self, n: u64) {
        assert!(n <= self.quiet_ticks(), "advance past a serial event");
        if let Some((ch, delay)) = self.tx_shift {
            self.tx_shift = Some((ch, delay - n as u8));
        }
    }

    fn pending(&self) -> Option<InterruptRequest> {
        if self.rx_irq {
            Some(InterruptRequest {
                vector: self.vector,
                priority: self.priority,
            })
        } else if self.tx_irq {
            Some(InterruptRequest {
                vector: self.vector + 4,
                priority: self.priority,
            })
        } else {
            None
        }
    }

    fn acknowledge(&mut self) {
        if self.rx_irq {
            self.rx_irq = false;
        } else {
            self.tx_irq = false;
        }
    }

    fn snapshot_into(&self, out: &mut Vec<Word>) {
        // Format: [rbuf, rx_done, rx_ie, rx_irq, tx_ready, tx_ie, tx_irq,
        //          shift_flag, shift_ch, shift_delay, last_tx,
        //          rx_len, rx bytes...]. The host-side `tx_out` tray is
        // deliberately excluded (see the trait documentation).
        let (sf, sc, sd) = match self.tx_shift {
            Some((ch, d)) => (1, ch as Word, d as Word),
            None => (0, 0, 0),
        };
        out.reserve(12 + self.rx_queue.len());
        out.extend_from_slice(&[
            self.rbuf as Word,
            self.rx_done as Word,
            self.rx_ie as Word,
            self.rx_irq as Word,
            self.tx_ready as Word,
            self.tx_ie as Word,
            self.tx_irq as Word,
            sf,
            sc,
            sd,
            self.last_tx,
            self.rx_queue.len() as Word,
        ]);
        out.extend(self.rx_queue.iter().map(|&b| b as Word));
    }

    fn restore(&mut self, snapshot: &[Word]) {
        assert!(snapshot.len() >= 12, "serial snapshot too short");
        self.rbuf = snapshot[0] as u8;
        self.rx_done = snapshot[1] != 0;
        self.rx_ie = snapshot[2] != 0;
        self.rx_irq = snapshot[3] != 0;
        self.tx_ready = snapshot[4] != 0;
        self.tx_ie = snapshot[5] != 0;
        self.tx_irq = snapshot[6] != 0;
        self.tx_shift = (snapshot[7] != 0).then_some((snapshot[8] as u8, snapshot[9] as u8));
        self.last_tx = snapshot[10];
        let rx_len = snapshot[11] as usize;
        assert_eq!(snapshot.len(), 12 + rx_len, "serial snapshot malformed");
        self.rx_queue = snapshot[12..].iter().map(|&w| w as u8).collect();
        self.tx_out.clear();
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

    fn line() -> SerialLine {
        SerialLine::new("tty0", 0o777560, 0o60, 4)
    }

    #[test]
    fn receive_path() {
        let mut l = line();
        l.host_send(b"AB");
        assert_eq!(l.read_reg(0) & CSR_DONE, 0);
        l.tick();
        assert_eq!(l.read_reg(0) & CSR_DONE, CSR_DONE);
        assert_eq!(l.read_reg(2), b'A' as Word);
        // Reading RBUF clears done; next tick delivers 'B'.
        assert_eq!(l.read_reg(0) & CSR_DONE, 0);
        l.tick();
        assert_eq!(l.read_reg(2), b'B' as Word);
    }

    #[test]
    fn transmit_path() {
        let mut l = line();
        assert_eq!(l.read_reg(4) & CSR_DONE, CSR_DONE);
        l.write_reg(6, b'X' as Word);
        assert_eq!(l.read_reg(4) & CSR_DONE, 0);
        l.tick();
        l.tick();
        assert_eq!(l.read_reg(4) & CSR_DONE, CSR_DONE);
        assert_eq!(l.host_take_output(), b"X");
        assert!(l.host_take_output().is_empty());
    }

    #[test]
    fn write_while_busy_is_lost() {
        let mut l = line();
        l.write_reg(6, b'1' as Word);
        l.write_reg(6, b'2' as Word);
        for _ in 0..4 {
            l.tick();
        }
        assert_eq!(l.host_take_output(), b"1");
    }

    #[test]
    fn rx_interrupt_raised_when_enabled() {
        let mut l = line();
        l.write_reg(0, CSR_IE);
        assert!(l.pending().is_none());
        l.host_send(b"Z");
        l.tick();
        let irq = l.pending().unwrap();
        assert_eq!(irq.vector, 0o60);
        assert_eq!(irq.priority, 4);
        l.acknowledge();
        assert!(l.pending().is_none());
    }

    #[test]
    fn enabling_ie_with_done_set_latches_interrupt() {
        let mut l = line();
        l.host_send(b"Z");
        l.tick();
        assert!(l.pending().is_none());
        l.write_reg(0, CSR_IE);
        assert!(l.pending().is_some());
    }

    #[test]
    fn tx_interrupt_uses_vector_plus_four() {
        let mut l = line();
        l.write_reg(4, CSR_IE);
        // Enabling with ready already set latches immediately.
        let irq = l.pending().unwrap();
        assert_eq!(irq.vector, 0o64);
        l.acknowledge();
        l.write_reg(6, b'Q' as Word);
        l.tick();
        l.tick();
        assert_eq!(l.pending().unwrap().vector, 0o64);
    }

    /// What a tick can change that the machine or the host can see. The
    /// RBUF read clears the done bit, so it goes last, on a copy.
    fn observe(l: &SerialLine) -> (Vec<Word>, Option<InterruptRequest>, Vec<Word>, Vec<u8>) {
        let mut l = l.clone();
        let (snapshot, pending) = (l.snapshot(), l.pending());
        let regs = [0, 4, 6, 2].iter().map(|&o| l.read_reg(o)).collect();
        (snapshot, pending, regs, l.host_peek_output().to_vec())
    }

    /// `advance(k)` must equal `k` ticks for every `k` in the quiet window
    /// (the first few of an unbounded one).
    fn assert_advance_matches_ticks(l: &SerialLine) {
        for k in 0..=l.quiet_ticks().min(8) {
            let mut ticked = l.clone();
            for _ in 0..k {
                ticked.tick();
            }
            let mut advanced = l.clone();
            advanced.advance(k);
            assert_eq!(observe(&advanced), observe(&ticked), "k = {k}: {l:?}");
        }
    }

    #[test]
    fn advance_equals_ticking_in_every_line_state() {
        // Receiver: idle, a byte queued behind an empty RBUF, a byte queued
        // behind a full RBUF, a full RBUF with nothing queued. Transmitter:
        // idle or shifting a byte out. Each with either interrupt enable.
        for rx in 0..4 {
            for transmitting in [false, true] {
                for (rx_ie, tx_ie) in [(false, false), (true, false), (false, true), (true, true)] {
                    let mut l = line();
                    l.write_reg(0, if rx_ie { CSR_IE } else { 0 });
                    l.write_reg(4, if tx_ie { CSR_IE } else { 0 });
                    match rx {
                        1 => {
                            l.host_send(b"a");
                        }
                        2 => {
                            l.host_send(b"ab");
                            l.tick();
                        }
                        3 => {
                            l.host_send(b"a");
                            l.tick();
                        }
                        _ => {}
                    }
                    if transmitting {
                        l.write_reg(6, b'X' as Word);
                    }
                    let case = format!("rx {rx}, tx {transmitting}, ie {rx_ie}/{tx_ie}");
                    if l.pending().is_some() {
                        assert_eq!(l.quiet_ticks(), 0, "latched: {case}");
                        assert_advance_matches_ticks(&l);
                        while l.pending().is_some() {
                            l.acknowledge();
                        }
                    }
                    let want = match (rx, transmitting) {
                        (1, _) => 0,
                        (_, true) => u64::from(TX_DELAY),
                        (_, false) => u64::MAX,
                    };
                    assert_eq!(l.quiet_ticks(), want, "{case}");
                    assert_advance_matches_ticks(&l);
                }
            }
        }
    }

    #[test]
    fn the_tick_after_the_window_is_an_event() {
        // Transmitting: the window ends where the byte reaches the line.
        let mut l = line();
        l.write_reg(6, b'X' as Word);
        let q = l.quiet_ticks();
        l.advance(q);
        assert!(l.host_peek_output().is_empty());
        l.tick();
        assert_eq!(l.host_peek_output(), b"X");
        assert_eq!(l.read_reg(4) & CSR_DONE, CSR_DONE);
        // A byte queued behind an empty RBUF loads on the very next tick.
        let mut l = line();
        l.write_reg(0, CSR_IE);
        l.host_send(b"Z");
        assert_eq!(l.quiet_ticks(), 0);
        l.tick();
        assert!(l.pending().is_some());
        assert_eq!(l.quiet_ticks(), 0, "a latched line is never quiet");
    }

    #[test]
    fn snapshot_changes_with_state() {
        let mut l = line();
        let s0 = l.snapshot();
        l.host_send(b"A");
        assert_ne!(l.snapshot(), s0);
    }
}
