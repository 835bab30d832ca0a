//! A DMA-capable disk — the threat the SUE design rules out.
//!
//! > "Input/output via Direct Memory Access (DMA) poses a security threat on
//! > most machines (including PDP-11s) since it uses absolute addresses and
//! > thereby evades the protection of the memory management hardware. ...
//! > The SUE adopts a far more ruthless approach: DMA is permanently
//! > excluded from the system."
//!
//! [`DmaDisk`] is an RK11-flavoured block device whose transfers move bytes
//! to and from *physical* addresses. A machine configured with
//! `allow_dma = false` (the default, and the SUE's stance) refuses the
//! transfers; enabling them demonstrates, in tests and in experiment E8,
//! exactly how DMA destroys separation.
//!
//! Registers (byte offsets): CSR (+0), physical address low 16 bits (+2),
//! word count (+4), sector number (+6). CSR bits: 0 = go, 1 = direction
//! (0 = read sector into memory, 1 = write memory to sector), bits 4–5 =
//! physical address bits 16–17, bit 7 = done, bit 6 = IE.

use crate::dev::{Device, DmaOp, InterruptRequest};
use crate::types::{PhysAddr, Word};
use core::any::Any;

/// CSR bit 0: start a transfer.
pub const CSR_GO: Word = 0o001;
/// CSR bit 1: transfer direction (set = memory → disk).
pub const CSR_WRITE: Word = 0o002;
/// CSR bit 6: interrupt enable.
pub const CSR_IE: Word = 0o100;
/// CSR bit 7: done.
pub const CSR_DONE: Word = 0o200;

/// Bytes per sector.
pub const SECTOR_SIZE: usize = 64;

/// Number of sectors on the disk.
pub const SECTOR_COUNT: usize = 16;

/// The DMA disk.
#[derive(Debug, Clone)]
pub struct DmaDisk {
    base: PhysAddr,
    vector: Word,
    priority: u8,
    csr: Word,
    mem_addr_low: Word,
    word_count: Word,
    sector: Word,
    storage: Vec<u8>,
    pending_op: Option<DmaOp>,
    write_back: Option<usize>, // sector awaiting dma_complete data
    irq: bool,
}

impl DmaDisk {
    /// A disk at `base` with the given interrupt vector.
    pub fn new(base: PhysAddr, vector: Word) -> DmaDisk {
        DmaDisk {
            base,
            vector,
            priority: 5,
            csr: CSR_DONE,
            mem_addr_low: 0,
            word_count: 0,
            sector: 0,
            storage: vec![0; SECTOR_SIZE * SECTOR_COUNT],
            pending_op: None,
            write_back: None,
            irq: false,
        }
    }

    /// Host side: read a sector's contents directly.
    pub fn host_sector(&self, sector: usize) -> &[u8] {
        &self.storage[sector * SECTOR_SIZE..(sector + 1) * SECTOR_SIZE]
    }

    /// Host side: fill a sector directly.
    pub fn host_fill_sector(&mut self, sector: usize, data: &[u8]) {
        let s = &mut self.storage[sector * SECTOR_SIZE..(sector + 1) * SECTOR_SIZE];
        s[..data.len()].copy_from_slice(data);
    }

    fn phys_addr(&self) -> PhysAddr {
        (self.mem_addr_low as u32) | (((self.csr as u32 >> 4) & 0b11) << 16)
    }

    fn transfer_len(&self) -> u32 {
        (self.word_count as u32 * 2).min(SECTOR_SIZE as u32)
    }
}

impl Device for DmaDisk {
    fn name(&self) -> &str {
        "rk-dma"
    }

    fn base(&self) -> PhysAddr {
        self.base
    }

    fn reg_len(&self) -> u32 {
        8
    }

    fn read_reg(&mut self, offset: u32) -> Word {
        match offset {
            0 => self.csr,
            2 => self.mem_addr_low,
            4 => self.word_count,
            6 => self.sector,
            _ => 0,
        }
    }

    fn write_reg(&mut self, offset: u32, value: Word) {
        match offset {
            0 => {
                self.csr = (self.csr & CSR_DONE) | (value & !CSR_DONE);
                if value & CSR_GO != 0 && self.csr & CSR_DONE != 0 {
                    self.csr &= !CSR_DONE;
                    let sector = (self.sector as usize) % SECTOR_COUNT;
                    let len = self.transfer_len();
                    if value & CSR_WRITE != 0 {
                        // Memory → disk: ask the machine for the bytes.
                        self.pending_op = Some(DmaOp::ReadMem {
                            addr: self.phys_addr(),
                            len,
                        });
                        self.write_back = Some(sector);
                    } else {
                        // Disk → memory: push the sector at physical addr.
                        let data = self.storage
                            [sector * SECTOR_SIZE..sector * SECTOR_SIZE + len as usize]
                            .to_vec();
                        self.pending_op = Some(DmaOp::WriteMem {
                            addr: self.phys_addr(),
                            data,
                        });
                    }
                }
            }
            2 => self.mem_addr_low = value,
            4 => self.word_count = value,
            6 => self.sector = value,
            _ => {}
        }
    }

    fn tick(&mut self) {}

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
        // Format: [csr, mem_addr_low, word_count, sector, irq, wb_flag,
        // wb_sector, storage words...]. A transfer in flight (pending_op)
        // cannot be snapshotted; callers snapshot between steps.
        assert!(self.pending_op.is_none(), "snapshot with DMA in flight");
        let (wf, ws) = match self.write_back {
            Some(s) => (1, s as Word),
            None => (0, 0),
        };
        out.extend_from_slice(&[
            self.csr,
            self.mem_addr_low,
            self.word_count,
            self.sector,
            self.irq as Word,
            wf,
            ws,
        ]);
        out.extend(
            self.storage
                .chunks(2)
                .map(|c| u16::from_le_bytes([c[0], c[1]])),
        );
    }

    fn restore(&mut self, snapshot: &[Word]) {
        let header = 7;
        assert_eq!(
            snapshot.len(),
            header + SECTOR_SIZE * SECTOR_COUNT / 2,
            "dma snapshot malformed"
        );
        self.csr = snapshot[0];
        self.mem_addr_low = snapshot[1];
        self.word_count = snapshot[2];
        self.sector = snapshot[3];
        self.irq = snapshot[4] != 0;
        self.write_back = (snapshot[5] != 0).then_some(snapshot[6] as usize);
        self.pending_op = None;
        for (i, w) in snapshot[header..].iter().enumerate() {
            let [lo, hi] = w.to_le_bytes();
            self.storage[2 * i] = lo;
            self.storage[2 * i + 1] = hi;
        }
    }

    fn boxed_clone(&self) -> Box<dyn Device> {
        Box::new(self.clone())
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }

    fn dma_request(&mut self) -> Option<DmaOp> {
        let op = self.pending_op.take();
        if op.is_some() && self.write_back.is_none() {
            // Disk → memory transfers complete as soon as the machine
            // performs them.
            self.csr |= CSR_DONE;
            if self.csr & CSR_IE != 0 {
                self.irq = true;
            }
        }
        op
    }

    fn dma_complete(&mut self, data: Vec<u8>) {
        if let Some(sector) = self.write_back.take() {
            let s = &mut self.storage[sector * SECTOR_SIZE..sector * SECTOR_SIZE + data.len()];
            s.copy_from_slice(&data);
            self.csr |= CSR_DONE;
            if self.csr & CSR_IE != 0 {
                self.irq = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_transfer_emits_write_mem_op() {
        let mut d = DmaDisk::new(0o777440, 0o220);
        d.host_fill_sector(2, b"secret sector data");
        d.write_reg(2, 0o1000); // physical address
        d.write_reg(4, 4); // 4 words = 8 bytes
        d.write_reg(6, 2); // sector
        d.write_reg(0, CSR_GO);
        match d.dma_request().unwrap() {
            DmaOp::WriteMem { addr, data } => {
                assert_eq!(addr, 0o1000);
                assert_eq!(&data, b"secret s");
            }
            other => panic!("{other:?}"),
        }
        assert_ne!(d.read_reg(0) & CSR_DONE, 0);
    }

    #[test]
    fn write_transfer_reads_memory_then_stores() {
        let mut d = DmaDisk::new(0o777440, 0o220);
        d.write_reg(2, 0o2000);
        d.write_reg(4, 3);
        d.write_reg(6, 1);
        d.write_reg(0, CSR_GO | CSR_WRITE);
        match d.dma_request().unwrap() {
            DmaOp::ReadMem { addr, len } => {
                assert_eq!(addr, 0o2000);
                assert_eq!(len, 6);
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(d.read_reg(0) & CSR_DONE, 0);
        d.dma_complete(b"ABCDEF".to_vec());
        assert_ne!(d.read_reg(0) & CSR_DONE, 0);
        assert_eq!(&d.host_sector(1)[..6], b"ABCDEF");
    }

    #[test]
    fn extended_address_bits_from_csr() {
        let mut d = DmaDisk::new(0o777440, 0o220);
        d.write_reg(2, 0o1000);
        d.write_reg(4, 1);
        // CSR bits 4-5 = 0b11 → address bits 16-17.
        d.write_reg(0, CSR_GO | 0o060);
        match d.dma_request().unwrap() {
            DmaOp::WriteMem { addr, .. } => assert_eq!(addr, 0o600000 + 0o1000),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interrupt_after_completion_when_enabled() {
        let mut d = DmaDisk::new(0o777440, 0o220);
        d.write_reg(4, 1);
        d.write_reg(0, CSR_GO | CSR_IE);
        assert!(d.pending().is_none());
        let _ = d.dma_request();
        assert_eq!(d.pending().unwrap().vector, 0o220);
    }
}
