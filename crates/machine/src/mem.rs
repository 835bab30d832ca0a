//! Physical memory: 18-bit byte-addressed space with a memory-mapped I/O
//! page at the top.
//!
//! The top 8 KiB of the physical address space (`0o760000..=0o777777`) is
//! the **I/O page**: reads and writes there are routed to device registers
//! by the machine, never to RAM. This is the property the SUE exploits —
//! "the memory management of a PDP-11 allows device registers to be
//! protected just like ordinary memory locations."
//!
//! RAM is held as 31 copy-on-write pages of [`PAGE_SIZE`] bytes, the
//! PDP-11's own segment size, so cloning a [`Memory`] copies a page table
//! rather than 248 KiB. A clone shares every page with its source until
//! one side writes it; each page memoizes its FNV-1a fingerprint until it
//! is next written. Both are invisible through the API: reads, writes,
//! equality and fingerprints are exactly those of a flat byte array.

use crate::types::{PhysAddr, Word};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Total physical address space in bytes (18-bit addressing).
pub const PHYS_SIZE: u32 = 1 << 18;

/// Bytes per page: one MMU segment. Pages are the unit of copy-on-write
/// sharing and of fingerprint memoization.
pub const PAGE_SIZE: u32 = 8 * 1024;

/// First byte address of the I/O page.
pub const IO_BASE: u32 = PHYS_SIZE - PAGE_SIZE;

const PAGE: usize = PAGE_SIZE as usize;
const PAGES: usize = (IO_BASE / PAGE_SIZE) as usize;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a of a page that was never written.
const ZERO_PAGE_FNV: u64 = fnv1a(FNV_OFFSET, &[0; PAGE]);

/// What a never-written page reads as.
static ZERO_PAGE: [u8; PAGE] = [0; PAGE];

/// Continues a 64-bit FNV-1a hash `h` over `bytes`.
const fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
        i += 1;
    }
    h
}

#[derive(Debug)]
struct Page {
    bytes: [u8; PAGE],
    /// FNV-1a of `bytes`, or 0 when not computed since the last write.
    /// Atomic only so a shared page can be memoized through `&self`: the
    /// value is a pure function of bytes that cannot change while the page
    /// is shared, so it publishes nothing and `Relaxed` suffices.
    fnv: AtomicU64,
}

impl Page {
    fn new(bytes: [u8; PAGE], fnv: u64) -> Page {
        Page {
            bytes,
            fnv: AtomicU64::new(fnv),
        }
    }
}

#[derive(Debug)]
enum Slot {
    /// Never written: reads as zeros.
    Zero,
    /// Written by this memory alone; stores go straight in.
    Owned(Box<Page>),
    /// Possibly shared with clones; copied into an `Owned` page on the
    /// first store.
    Shared(Arc<Page>),
}

/// Physical RAM (the I/O page portion is never stored here).
#[derive(Debug)]
pub struct Memory {
    pages: [Slot; PAGES],
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

/// Shares every page with the source. An owned page is copied once into a
/// shared one for the clone (the source keeps its own, as `&self` cannot
/// give it up), so a clone costs at most one page copy per page the source
/// wrote since it was itself cloned.
impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            pages: std::array::from_fn(|i| match &self.pages[i] {
                Slot::Zero => Slot::Zero,
                Slot::Owned(p) => {
                    Slot::Shared(Arc::new(Page::new(p.bytes, p.fnv.load(Ordering::Relaxed))))
                }
                Slot::Shared(p) => Slot::Shared(Arc::clone(p)),
            }),
        }
    }
}

/// Compares contents, however each side happens to hold its pages.
impl PartialEq for Memory {
    fn eq(&self, other: &Memory) -> bool {
        (0..PAGES as u32).all(|i| self.page(i * PAGE_SIZE) == other.page(i * PAGE_SIZE))
    }
}

impl Eq for Memory {}

impl Memory {
    /// All-zero RAM covering the full non-I/O physical space.
    pub fn new() -> Memory {
        Memory {
            pages: std::array::from_fn(|_| Slot::Zero),
        }
    }

    /// True when the address falls in the I/O page.
    pub fn is_io(addr: PhysAddr) -> bool {
        addr >= IO_BASE
    }

    /// The page holding `addr`.
    #[inline]
    fn page(&self, addr: PhysAddr) -> &[u8; PAGE] {
        match &self.pages[(addr / PAGE_SIZE) as usize] {
            Slot::Zero => &ZERO_PAGE,
            Slot::Owned(p) => &p.bytes,
            Slot::Shared(p) => &p.bytes,
        }
    }

    /// The page holding `addr`, made writable and its memo cleared.
    #[inline]
    fn page_mut(&mut self, addr: PhysAddr) -> &mut [u8; PAGE] {
        let page = match &mut self.pages[(addr / PAGE_SIZE) as usize] {
            Slot::Owned(p) => &mut **p,
            slot => Memory::own(slot),
        };
        *page.fnv.get_mut() = 0;
        &mut page.bytes
    }

    /// Replaces a zero or shared slot with an owned copy of its contents.
    #[cold]
    #[inline(never)]
    fn own(slot: &mut Slot) -> &mut Page {
        let bytes = match slot {
            Slot::Shared(p) => p.bytes,
            _ => [0; PAGE],
        };
        *slot = Slot::Owned(Box::new(Page::new(bytes, 0)));
        match slot {
            Slot::Owned(p) => p,
            _ => unreachable!("the slot was just made owned"),
        }
    }

    /// The page-sized pieces of `[start, start + len)`, in address order.
    fn pieces(&self, start: PhysAddr, len: u32) -> impl Iterator<Item = &[u8]> {
        let end = start + len;
        let mut at = start;
        std::iter::from_fn(move || {
            (at < end).then(|| {
                let off = at % PAGE_SIZE;
                let take = (PAGE_SIZE - off).min(end - at);
                let piece = &self.page(at)[off as usize..(off + take) as usize];
                at += take;
                piece
            })
        })
    }

    /// Reads a byte of RAM.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is in the I/O page (the machine must route such
    /// accesses to devices) or beyond physical memory.
    #[inline]
    pub fn read_byte(&self, addr: PhysAddr) -> u8 {
        self.page(addr)[(addr % PAGE_SIZE) as usize]
    }

    /// Writes a byte of RAM (same panics as [`Memory::read_byte`]).
    #[inline]
    pub fn write_byte(&mut self, addr: PhysAddr, value: u8) {
        self.page_mut(addr)[(addr % PAGE_SIZE) as usize] = value;
    }

    /// Reads a little-endian word from an even RAM address.
    #[inline]
    pub fn read_word(&self, addr: PhysAddr) -> Word {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let (page, off) = (self.page(addr), (addr % PAGE_SIZE) as usize);
        u16::from_le_bytes([page[off], page[off + 1]])
    }

    /// Writes a little-endian word to an even RAM address.
    #[inline]
    pub fn write_word(&mut self, addr: PhysAddr, value: Word) {
        debug_assert_eq!(addr & 1, 0, "word access to odd address {addr:o}");
        let off = (addr % PAGE_SIZE) as usize;
        let [lo, hi] = value.to_le_bytes();
        let page = self.page_mut(addr);
        page[off] = lo;
        page[off + 1] = hi;
    }

    /// Copies a slice of words into RAM starting at `addr` (must be even).
    pub fn load_words(&mut self, addr: PhysAddr, words: &[Word]) {
        for (i, w) in words.iter().enumerate() {
            self.write_word(addr + 2 * i as u32, *w);
        }
    }

    /// Reads `len` words starting at `addr` (must be even).
    pub fn dump_words(&self, addr: PhysAddr, len: usize) -> Vec<Word> {
        (0..len)
            .map(|i| self.read_word(addr + 2 * i as u32))
            .collect()
    }

    /// A 64-bit FNV-1a fingerprint of a physical range, used by state
    /// snapshots. A whole aligned page is hashed at most once per write to
    /// it; the value is the same as hashing its bytes afresh.
    pub fn fingerprint(&self, start: PhysAddr, len: u32) -> u64 {
        if len != PAGE_SIZE || !start.is_multiple_of(PAGE_SIZE) {
            return self.pieces(start, len).fold(FNV_OFFSET, fnv1a);
        }
        let page = match &self.pages[(start / PAGE_SIZE) as usize] {
            Slot::Zero => return ZERO_PAGE_FNV,
            Slot::Owned(p) => &**p,
            Slot::Shared(p) => &**p,
        };
        match page.fnv.load(Ordering::Relaxed) {
            0 => {
                let h = fnv1a(FNV_OFFSET, &page.bytes);
                page.fnv.store(h, Ordering::Relaxed);
                h
            }
            h => h,
        }
    }

    /// The raw bytes of a physical range (for snapshot equality in the
    /// verification adapters). Borrowed when the range lies in one page,
    /// copied when it crosses a page boundary.
    pub fn range(&self, start: PhysAddr, len: u32) -> Cow<'_, [u8]> {
        let off = start % PAGE_SIZE;
        if off + len <= PAGE_SIZE {
            return Cow::Borrowed(&self.page(start)[off as usize..(off + len) as usize]);
        }
        Cow::Owned(self.pieces(start, len).flatten().copied().collect())
    }

    /// Overwrites a physical range with `bytes` (bulk re-imaging: restarts,
    /// partition-content rotation in the symmetry layer).
    pub fn write_range(&mut self, start: PhysAddr, bytes: &[u8]) {
        let (mut at, mut rest) = (start, bytes);
        while !rest.is_empty() {
            let off = (at % PAGE_SIZE) as usize;
            let take = rest.len().min(PAGE - off);
            self.page_mut(at)[off..off + take].copy_from_slice(&rest[..take]);
            at += take as u32;
            rest = &rest[take..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_page_location() {
        assert_eq!(IO_BASE, 0o760000);
        assert!(Memory::is_io(0o777560));
        assert!(!Memory::is_io(0o757777));
    }

    #[test]
    fn words_are_little_endian() {
        let mut m = Memory::new();
        m.write_word(0o1000, 0o123456);
        assert_eq!(m.read_byte(0o1000), (0o123456u16 & 0xFF) as u8);
        assert_eq!(m.read_word(0o1000), 0o123456);
    }

    #[test]
    fn load_and_dump_roundtrip() {
        let mut m = Memory::new();
        let words = [1, 2, 3, 0o177777];
        m.load_words(0o2000, &words);
        assert_eq!(m.dump_words(0o2000, 4), words);
    }

    #[test]
    fn fingerprint_distinguishes_contents() {
        let mut a = Memory::new();
        let b = Memory::new();
        assert_eq!(a.fingerprint(0, 1024), b.fingerprint(0, 1024));
        a.write_byte(100, 7);
        assert_ne!(a.fingerprint(0, 1024), b.fingerprint(0, 1024));
        // Change outside the range does not affect it.
        assert_eq!(a.fingerprint(200, 100), b.fingerprint(200, 100));
    }

    #[test]
    fn range_returns_bytes() {
        let mut m = Memory::new();
        m.write_byte(10, 0xAB);
        assert_eq!(*m.range(10, 2), [0xAB, 0]);
    }

    #[test]
    fn page_memo_tracks_writes_through_clones() {
        let mut a = Memory::new();
        assert_eq!(a.fingerprint(PAGE_SIZE, PAGE_SIZE), ZERO_PAGE_FNV);
        a.write_word(PAGE_SIZE + 6, 0o1234);
        let before = a.fingerprint(PAGE_SIZE, PAGE_SIZE);
        let mut b = a.clone();
        assert_eq!(b.fingerprint(PAGE_SIZE, PAGE_SIZE), before);
        b.write_byte(PAGE_SIZE + 9, 1);
        let after = b.fingerprint(PAGE_SIZE, PAGE_SIZE);
        assert_ne!(after, before);
        assert_eq!(after, fnv1a(FNV_OFFSET, &b.range(PAGE_SIZE, PAGE_SIZE)));
        assert_eq!(a.fingerprint(PAGE_SIZE, PAGE_SIZE), before);
        assert_ne!(a, b);
        a.write_byte(PAGE_SIZE + 9, 1);
        assert_eq!(a, b);
    }
}
