//! `sep_machine::Memory` against a flat byte-array model.
//!
//! Physical memory is held as copy-on-write pages with memoized
//! fingerprints (see DESIGN.md, "Physical memory"). None of that may show
//! through the API: every read, range, fingerprint and equality must be
//! exactly what a flat `Vec<u8>` of the same bytes gives. Each seed runs a
//! random sequence of writes, clones and drops over a small pool of
//! memories, each paired with its model, and checks the whole pool after
//! every operation. A failure names the seed and step that replay it.

use sep_machine::{Memory, IO_BASE, PAGE_SIZE};
use sep_model::rng::SplitMix64;

const PAGES: u32 = IO_BASE / PAGE_SIZE;
const SEEDS: u64 = 8;
const STEPS: usize = 150;
const MAX_POOL: usize = 5;

fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The flat reference: RAM as one byte array, plus each page's FNV-1a,
/// dropped whenever a write touches the page.
#[derive(Clone)]
struct Model {
    bytes: Vec<u8>,
    page_fnv: Vec<Option<u64>>,
}

impl Model {
    fn new() -> Model {
        Model {
            bytes: vec![0; IO_BASE as usize],
            page_fnv: vec![None; PAGES as usize],
        }
    }

    fn write(&mut self, start: u32, bytes: &[u8]) {
        let end = start as usize + bytes.len();
        self.bytes[start as usize..end].copy_from_slice(bytes);
        for page in start / PAGE_SIZE..=(end as u32 - 1) / PAGE_SIZE {
            self.page_fnv[page as usize] = None;
        }
    }

    fn page_fingerprint(&mut self, page: u32) -> u64 {
        let start = (page * PAGE_SIZE) as usize;
        let bytes = &self.bytes[start..start + PAGE_SIZE as usize];
        *self.page_fnv[page as usize].get_or_insert_with(|| fnv(bytes))
    }
}

/// An address that is usually on one of a few pages, often at or beside a
/// page boundary, so writes collide with each other and with sharing.
fn address(rng: &mut SplitMix64) -> u32 {
    let page = match rng.below(4) {
        0 => rng.below(PAGES as usize) as u32,
        k => [2, 3, PAGES - 1][k - 1],
    };
    let offset = match rng.below(3) {
        0 => [0, 1, PAGE_SIZE - 2, PAGE_SIZE - 1][rng.below(4)],
        _ => rng.below(PAGE_SIZE as usize) as u32,
    };
    page * PAGE_SIZE + offset
}

/// A span of up to three pages' worth of bytes starting near `address`,
/// clipped to RAM.
fn span(rng: &mut SplitMix64) -> (u32, u32) {
    let start = address(rng);
    let len = 1 + rng.below(3 * PAGE_SIZE as usize) as u32;
    (start, len.min(IO_BASE - start))
}

fn byte(rng: &mut SplitMix64) -> u8 {
    // Zero often enough that pages get written back to all-zero.
    if rng.below(4) == 0 {
        0
    } else {
        rng.next_u64() as u8
    }
}

/// One write, applied to a memory and its model alike.
enum Write {
    Byte(u32, u8),
    Word(u32, u16),
    Range(u32, Vec<u8>),
}

impl Write {
    fn random(rng: &mut SplitMix64) -> Write {
        match rng.below(3) {
            0 => Write::Byte(address(rng), byte(rng)),
            1 => Write::Word(
                address(rng) & !1,
                u16::from_le_bytes([byte(rng), byte(rng)]),
            ),
            _ => {
                let (start, len) = span(rng);
                let zeros = rng.below(3) == 0;
                let bytes = (0..len).map(|_| if zeros { 0 } else { byte(rng) });
                Write::Range(start, bytes.collect())
            }
        }
    }

    fn apply(&self, (mem, model): &mut (Memory, Model)) {
        match self {
            Write::Byte(addr, b) => {
                mem.write_byte(*addr, *b);
                model.write(*addr, &[*b]);
            }
            Write::Word(addr, w) => {
                mem.write_word(*addr, *w);
                model.write(*addr, &w.to_le_bytes());
            }
            Write::Range(start, bytes) => {
                mem.write_range(*start, bytes);
                model.write(*start, bytes);
            }
        }
    }
}

fn check(pool: &mut [(Memory, Model)], rng: &mut SplitMix64, seed: u64, step: usize) {
    let at = |what: &str| format!("seed {seed} step {step}: {what}");
    for (i, (mem, model)) in pool.iter_mut().enumerate() {
        for page in 0..PAGES {
            let start = page * PAGE_SIZE;
            let expect = &model.bytes[start as usize..(start + PAGE_SIZE) as usize];
            assert!(
                *mem.range(start, PAGE_SIZE) == *expect,
                "{}",
                at(&format!("memory {i} page {page} bytes"))
            );
            assert_eq!(
                mem.fingerprint(start, PAGE_SIZE),
                model.page_fingerprint(page),
                "{}",
                at(&format!("memory {i} page {page} fingerprint"))
            );
        }
        for _ in 0..4 {
            let addr = address(rng);
            assert_eq!(
                mem.read_byte(addr),
                model.bytes[addr as usize],
                "{}",
                at(&format!("memory {i} read_byte {addr:#o}"))
            );
            let addr = addr & !1;
            let word =
                u16::from_le_bytes([model.bytes[addr as usize], model.bytes[addr as usize + 1]]);
            assert_eq!(
                mem.read_word(addr),
                word,
                "{}",
                at(&format!("memory {i} read_word {addr:#o}"))
            );
        }
        let (start, len) = span(rng);
        let expect = &model.bytes[start as usize..(start + len) as usize];
        assert!(
            *mem.range(start, len) == *expect,
            "{}",
            at(&format!("memory {i} range {start:#o}+{len}"))
        );
        assert_eq!(
            mem.fingerprint(start, len),
            fnv(expect),
            "{}",
            at(&format!("memory {i} fingerprint {start:#o}+{len}"))
        );
    }
    for a in 0..pool.len() {
        for b in 0..pool.len() {
            assert_eq!(
                pool[a].0 == pool[b].0,
                pool[a].1.bytes == pool[b].1.bytes,
                "{}",
                at(&format!("memory {a} == memory {b}"))
            );
        }
    }
}

fn run(seed: u64) {
    let mut rng = SplitMix64::new(seed);
    let mut pool = vec![(Memory::new(), Model::new())];
    for step in 0..STEPS {
        let i = rng.below(pool.len());
        match rng.below(8) {
            // Clone, then write to the clone and its source on the same
            // page: a page the two still wrongly shared would show the
            // other's byte.
            0 | 1 if pool.len() < MAX_POOL => {
                let copy = (pool[i].0.clone(), pool[i].1.clone());
                pool.push(copy);
                let last = pool.len() - 1;
                let addr = address(&mut rng);
                Write::Byte(addr, byte(&mut rng)).apply(&mut pool[last]);
                Write::Byte(addr ^ 2, byte(&mut rng)).apply(&mut pool[i]);
            }
            2 if pool.len() > 1 => {
                pool.swap_remove(i);
            }
            3 if pool.len() < MAX_POOL => pool.push((Memory::new(), Model::new())),
            _ => Write::random(&mut rng).apply(&mut pool[i]),
        }
        check(&mut pool, &mut rng, seed, step);
    }
}

#[test]
fn paged_memory_behaves_like_a_flat_array() {
    for seed in 0..SEEDS {
        run(seed);
    }
}

#[test]
fn zero_pages_equal_pages_written_back_to_zero() {
    let mut a = Memory::new();
    let b = Memory::new();
    a.write_word(3 * PAGE_SIZE + 10, 0o7777);
    assert_ne!(a, b);
    a.write_range(3 * PAGE_SIZE, &[0; PAGE_SIZE as usize]);
    assert_eq!(a, b);
    assert_eq!(
        a.fingerprint(3 * PAGE_SIZE, PAGE_SIZE),
        b.fingerprint(3 * PAGE_SIZE, PAGE_SIZE)
    );
}
