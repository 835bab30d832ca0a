//! Property tests for the machine substrate: arithmetic flags against a
//! reference model, assembler data fidelity, and MMU bounds. Decoding, the
//! disassembler round trip and MMU translation range over every 16-bit
//! word; the rest run on seeded cases.

use sep_machine::mmu::{Access, Mmu, SegmentDescriptor};
use sep_machine::psw::Mode;
use sep_machine::{assemble, Event, Machine, Trap};
use sep_model::rng::{cases, Case, SplitMix64};

fn run(src: &str) -> Machine {
    let mut m = Machine::new();
    m.mem.load_words(0, &assemble(src).unwrap().words);
    m.cpu.set_reg(6, 0o10000);
    assert_eq!(m.run_until_event(100).unwrap().0, Event::Trap(Trap::Halt));
    m
}

/// Runs `op R1, R2` on R1 = `a`, R2 = `b`; returns (R2, n, z, v, c).
fn run_binop(op: &str, a: u16, b: u16) -> (u16, bool, bool, bool, bool) {
    let m = run(&format!("MOV #{a}, R1\nMOV #{b}, R2\n{op} R1, R2\nHALT"));
    let p = m.cpu.psw;
    (m.cpu.reg(2), p.n(), p.z(), p.v(), p.c())
}

fn word(c: &mut Case) -> u16 {
    c.int(0, 0xFFFF) as u16
}

fn binop_cases(seed: u64, mut property: impl FnMut(u16, u16)) {
    cases(seed, 64, |c| property(word(c), word(c)));
}

#[test]
fn add_matches_reference() {
    binop_cases(0xADD, |a, b| {
        let (r, n, z, v, c) = run_binop("ADD", a, b);
        let expected = b.wrapping_add(a);
        assert_eq!((r, n, z), (expected, (expected as i16) < 0, expected == 0));
        // Signed overflow: operands same sign, result different.
        let ov =
            ((a as i16) < 0) == ((b as i16) < 0) && ((expected as i16) < 0) != ((b as i16) < 0);
        assert_eq!((v, c), (ov, (a as u32 + b as u32) > 0xFFFF));
    });
}

#[test]
fn sub_matches_reference() {
    binop_cases(0x5B, |a, b| {
        // SUB R1, R2: R2 = R2 - R1; C is the borrow.
        let (r, n, z, _v, c) = run_binop("SUB", a, b);
        let expected = b.wrapping_sub(a);
        assert_eq!((r, n, z), (expected, (expected as i16) < 0, expected == 0));
        assert_eq!(c, b < a);
    });
}

#[test]
fn cmp_sets_codes_without_writing() {
    binop_cases(0xC3, |a, b| {
        // CMP src,dst computes src - dst and leaves dst alone.
        let (r, n, z, _v, c) = run_binop("CMP", a, b);
        let diff = a.wrapping_sub(b);
        assert_eq!((r, n, z, c), (b, (diff as i16) < 0, diff == 0, a < b));
    });
}

#[test]
fn bitwise_ops_match() {
    binop_cases(0xB1, |a, b| {
        assert_eq!(run_binop("BIC", a, b).0, b & !a);
        assert_eq!(run_binop("BIS", a, b).0, b | a);
    });
}

#[test]
fn word_directive_roundtrip() {
    cases(0x3D, 64, |c| {
        let words: Vec<u16> = (0..c.int(1, 39)).map(|_| word(c)).collect();
        let body: Vec<String> = words.iter().map(|w| format!(".word {w}")).collect();
        assert_eq!(assemble(&body.join("\n")).unwrap().words, words);
    });
}

#[test]
fn byte_directive_roundtrip() {
    cases(0xB7, 64, |c| {
        let bytes: Vec<u8> = (0..c.int(2, 39)).map(|_| c.int(0, 255) as u8).collect();
        let list: Vec<String> = bytes.iter().map(|b| b.to_string()).collect();
        let prog = assemble(&format!(".byte {}", list.join(", "))).unwrap();
        let mut out: Vec<u8> = prog.words.iter().flat_map(|w| w.to_le_bytes()).collect();
        out.truncate(bytes.len());
        assert_eq!(out, bytes);
    });
}

#[test]
fn mmu_translation_stays_in_segment() {
    // Segment shapes: (base in 64-byte blocks, length in blocks), from the
    // smallest segment at 0 to the largest at the top of the base range.
    for (base_block, len_blocks) in [(0, 1), (0, 128), (1, 64), (0o377, 127), (0o677, 128)] {
        let (base, len) = (base_block * 64, len_blocks * 64);
        let mut mmu = Mmu::new();
        mmu.enabled = true;
        let seg = SegmentDescriptor::mapping(base, len, Access::ReadWrite);
        mmu.set_segment(Mode::User, 0, seg);
        for vaddr in 0..=u16::MAX {
            let (in_seg0, off) = (vaddr >> 13 == 0, (vaddr & 0o17777) as u32);
            match mmu.translate(vaddr, Mode::User, false) {
                // Only segment 0 is mapped; any successful translation must
                // land inside [base, base+len).
                Ok(p) => assert!(in_seg0 && off < len && p == base + off, "{vaddr:#o}"),
                Err(abort) => assert!(!in_seg0 || off >= len, "{vaddr:#o}: {abort:?}"),
            }
        }
    }
}

#[test]
fn memory_word_byte_consistency() {
    cases(0x3E, 64, |c| {
        let (addr, w) = (c.int(0, 0o37775) as u32 * 2, word(c));
        let mut m = Machine::new();
        m.mem.write_word(addr, w);
        let pair = [m.mem.read_byte(addr), m.mem.read_byte(addr + 1)];
        assert_eq!(pair, w.to_le_bytes());
    });
}

#[test]
fn swab_swaps() {
    cases(0x5A, 64, |c| {
        let w = word(c);
        let m = run(&format!("MOV #{w}, R0\nSWAB R0\nHALT"));
        assert_eq!(m.cpu.reg(0), w.rotate_left(8));
    });
}

#[test]
fn decode_never_panics() {
    for w in 0..=u16::MAX {
        let _ = sep_machine::isa::decode(w);
    }
}

/// Disassembling any word window and reassembling the text reproduces
/// the original encoding exactly: every first word, each followed by three
/// seeded pairs of extension words.
#[test]
fn disassembler_roundtrips() {
    use sep_machine::disasm::disassemble_at;
    let origin = 0o2000u16;
    let mut rng = SplitMix64::new(0xD15);
    for w in (0..=u16::MAX).flat_map(|w| [w; 3]) {
        let words = [w, rng.next_u64() as u16, rng.next_u64() as u16];
        let (listing, used) = disassemble_at(&words, 0, origin);
        let text = listing.text;
        match assemble(&format!(".org {origin}\n{text}")) {
            Ok(prog) => assert_eq!(prog.words[origin as usize / 2..], words[..used], "{text}"),
            // The only legitimate reassembly failures are branch/SOB
            // targets that wrapped around the 16-bit space.
            Err(e) => assert!(
                e.message.contains("out of range") || e.message.contains("odd distance"),
                "{text}: {e}"
            ),
        }
    }
}

#[test]
fn xtea_roundtrips() {
    use sep_machine::dev::crypto::{xtea_decrypt, xtea_encrypt};
    cases(0x7EA, 64, |c| {
        let mut w = || c.rng.next_u64() as u32;
        let (block, key) = ([w(), w()], [w(), w(), w(), w()]);
        assert_eq!(xtea_decrypt(xtea_encrypt(block, key), key), block);
    });
}
