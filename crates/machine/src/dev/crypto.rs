//! A memory-mapped block-cipher unit (the SNFE's "crypto").
//!
//! The paper treats the crypto as "a trusted physical device"; we model it
//! as a register-file peripheral implementing XTEA (64-bit block, 128-bit
//! key, 32 rounds). XTEA here is a stand-in for the real cryptographic
//! equipment — the property the reproduction needs is only that ciphertext
//! is not cleartext and that the key never leaves the device except by
//! explicit host loading.
//!
//! Register layout (byte offsets from base, decimal):
//!
//! | offset | register |
//! |--------|----------|
//! | 0      | CSR: bit 0 = encrypt go, bit 1 = decrypt go, bit 7 = done, bit 6 = IE |
//! | 2–16   | KEY0–KEY7 (write-only; read back as zero) |
//! | 18–24  | IN0–IN3 (the 64-bit block, low word first) |
//! | 26–32  | OUT0–OUT3 (read-only) |

use crate::dev::{Device, InterruptRequest};
use crate::types::{PhysAddr, Word};
use core::any::Any;

/// CSR bit 0: start encryption.
pub const CSR_GO_ENC: Word = 0o001;
/// CSR bit 1: start decryption.
pub const CSR_GO_DEC: Word = 0o002;
/// CSR bit 6: interrupt enable.
pub const CSR_IE: Word = 0o100;
/// CSR bit 7: done.
pub const CSR_DONE: Word = 0o200;

/// Processing delay in ticks.
const CRYPT_DELAY: u8 = 2;

/// Number of XTEA rounds.
const ROUNDS: u32 = 32;

/// XTEA key schedule constant.
const DELTA: u32 = 0x9E37_79B9;

/// Encrypts one 64-bit block under a 128-bit key.
pub fn xtea_encrypt(block: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum: u32 = 0;
    for _ in 0..ROUNDS {
        v0 = v0.wrapping_add(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
        sum = sum.wrapping_add(DELTA);
        v1 = v1.wrapping_add(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
    }
    [v0, v1]
}

/// Decrypts one 64-bit block under a 128-bit key.
pub fn xtea_decrypt(block: [u32; 2], key: [u32; 4]) -> [u32; 2] {
    let [mut v0, mut v1] = block;
    let mut sum: u32 = DELTA.wrapping_mul(ROUNDS);
    for _ in 0..ROUNDS {
        v1 = v1.wrapping_sub(
            (((v0 << 4) ^ (v0 >> 5)).wrapping_add(v0))
                ^ (sum.wrapping_add(key[((sum >> 11) & 3) as usize])),
        );
        sum = sum.wrapping_sub(DELTA);
        v0 = v0.wrapping_sub(
            (((v1 << 4) ^ (v1 >> 5)).wrapping_add(v1))
                ^ (sum.wrapping_add(key[(sum & 3) as usize])),
        );
    }
    [v0, v1]
}

/// The crypto unit.
#[derive(Debug, Clone)]
pub struct CryptoUnit {
    base: PhysAddr,
    vector: Word,
    priority: u8,
    key: [Word; 8],
    input: [Word; 4],
    output: [Word; 4],
    done: bool,
    ie: bool,
    irq: bool,
    busy: Option<(bool, u8)>, // (encrypt?, remaining delay)
}

impl CryptoUnit {
    /// A crypto unit at `base` with the given interrupt vector.
    pub fn new(base: PhysAddr, vector: Word) -> CryptoUnit {
        CryptoUnit {
            base,
            vector,
            priority: 5,
            key: [0; 8],
            input: [0; 4],
            output: [0; 4],
            done: true,
            ie: false,
            irq: false,
            busy: None,
        }
    }

    /// Host side: load a key directly (as the key-fill officer would).
    pub fn host_load_key(&mut self, key: [Word; 8]) {
        self.key = key;
    }

    fn key_u32(&self) -> [u32; 4] {
        let k = &self.key;
        [
            (k[0] as u32) | ((k[1] as u32) << 16),
            (k[2] as u32) | ((k[3] as u32) << 16),
            (k[4] as u32) | ((k[5] as u32) << 16),
            (k[6] as u32) | ((k[7] as u32) << 16),
        ]
    }

    fn input_block(&self) -> [u32; 2] {
        [
            (self.input[0] as u32) | ((self.input[1] as u32) << 16),
            (self.input[2] as u32) | ((self.input[3] as u32) << 16),
        ]
    }

    fn set_output(&mut self, block: [u32; 2]) {
        self.output = [
            (block[0] & 0xFFFF) as Word,
            (block[0] >> 16) as Word,
            (block[1] & 0xFFFF) as Word,
            (block[1] >> 16) as Word,
        ];
    }
}

impl Device for CryptoUnit {
    fn name(&self) -> &str {
        "crypto"
    }

    fn base(&self) -> PhysAddr {
        self.base
    }

    fn reg_len(&self) -> u32 {
        34
    }

    fn read_reg(&mut self, offset: u32) -> Word {
        match offset {
            0 => (if self.done { CSR_DONE } else { 0 }) | (if self.ie { CSR_IE } else { 0 }),
            // The key is write-only: it cannot be exfiltrated through the
            // register file.
            2..=16 => 0,
            18..=24 if offset.is_multiple_of(2) => self.input[((offset - 18) / 2) as usize],
            26..=32 if offset.is_multiple_of(2) => self.output[((offset - 26) / 2) as usize],
            _ => 0,
        }
    }

    fn write_reg(&mut self, offset: u32, value: Word) {
        match offset {
            0 => {
                self.ie = value & CSR_IE != 0;
                if self.done && value & (CSR_GO_ENC | CSR_GO_DEC) != 0 {
                    let encrypt = value & CSR_GO_ENC != 0;
                    self.done = false;
                    self.busy = Some((encrypt, CRYPT_DELAY));
                }
            }
            2..=16 if offset.is_multiple_of(2) => {
                self.key[((offset - 2) / 2) as usize] = value;
            }
            18..=24 if offset.is_multiple_of(2) => {
                self.input[((offset - 18) / 2) as usize] = value;
            }
            _ => {}
        }
    }

    fn tick(&mut self) {
        if let Some((encrypt, delay)) = self.busy {
            if delay == 0 {
                let block = self.input_block();
                let key = self.key_u32();
                let out = if encrypt {
                    xtea_encrypt(block, key)
                } else {
                    xtea_decrypt(block, key)
                };
                self.set_output(out);
                self.busy = None;
                self.done = true;
                if self.ie {
                    self.irq = true;
                }
            } else {
                self.busy = Some((encrypt, delay - 1));
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
        // Format: key[8], input[4], output[4], done, ie, irq, busy_flag,
        // busy_encrypt, busy_delay.
        let (bf, be, bd) = match self.busy {
            Some((enc, d)) => (1, enc as Word, d as Word),
            None => (0, 0, 0),
        };
        out.reserve(22);
        out.extend_from_slice(&self.key);
        out.extend_from_slice(&self.input);
        out.extend_from_slice(&self.output);
        out.extend_from_slice(&[
            self.done as Word,
            self.ie as Word,
            self.irq as Word,
            bf,
            be,
            bd,
        ]);
    }

    fn restore(&mut self, snapshot: &[Word]) {
        assert_eq!(snapshot.len(), 22, "crypto snapshot malformed");
        self.key.copy_from_slice(&snapshot[0..8]);
        self.input.copy_from_slice(&snapshot[8..12]);
        self.output.copy_from_slice(&snapshot[12..16]);
        self.done = snapshot[16] != 0;
        self.ie = snapshot[17] != 0;
        self.irq = snapshot[18] != 0;
        self.busy = (snapshot[19] != 0).then_some((snapshot[20] != 0, snapshot[21] as u8));
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

    /// Register file offsets.
    const IN0: u32 = 18;
    const OUT0: u32 = 26;

    #[test]
    fn xtea_roundtrip() {
        let key = [0x0123_4567, 0x89AB_CDEF, 0xFEDC_BA98, 0x7654_3210];
        let block = [0xDEAD_BEEF, 0x0BAD_F00D];
        let ct = xtea_encrypt(block, key);
        assert_ne!(ct, block);
        assert_eq!(xtea_decrypt(ct, key), block);
    }

    #[test]
    fn xtea_known_answer() {
        // All-zero key and block: a self-consistency vector pinned here so
        // accidental algorithm changes are caught.
        let ct = xtea_encrypt([0, 0], [0, 0, 0, 0]);
        assert_eq!(xtea_decrypt(ct, [0, 0, 0, 0]), [0, 0]);
        assert_ne!(ct, [0, 0]);
    }

    fn run_block(c: &mut CryptoUnit, go: Word) {
        c.write_reg(0, go);
        for _ in 0..=CRYPT_DELAY as u32 {
            c.tick();
        }
        assert_ne!(c.read_reg(0) & CSR_DONE, 0);
    }

    #[test]
    fn register_file_encrypt_decrypt() {
        let mut c = CryptoUnit::new(0o777400, 0o300);
        c.host_load_key([1, 2, 3, 4, 5, 6, 7, 8]);
        for (i, w) in [0o111, 0o222, 0o333, 0o444].iter().enumerate() {
            c.write_reg(IN0 + 2 * i as u32, *w);
        }
        run_block(&mut c, CSR_GO_ENC);
        let ct: Vec<Word> = (0..4).map(|i| c.read_reg(OUT0 + 2 * i)).collect();
        assert_ne!(ct, vec![0o111, 0o222, 0o333, 0o444]);
        // Feed ciphertext back and decrypt.
        for (i, w) in ct.iter().enumerate() {
            c.write_reg(IN0 + 2 * i as u32, *w);
        }
        run_block(&mut c, CSR_GO_DEC);
        let pt: Vec<Word> = (0..4).map(|i| c.read_reg(OUT0 + 2 * i)).collect();
        assert_eq!(pt, vec![0o111, 0o222, 0o333, 0o444]);
    }

    #[test]
    fn key_is_write_only() {
        let mut c = CryptoUnit::new(0o777400, 0o300);
        c.write_reg(2, 0o7777);
        assert_eq!(c.read_reg(2), 0);
    }

    #[test]
    fn interrupt_on_completion() {
        let mut c = CryptoUnit::new(0o777400, 0o300);
        c.write_reg(0, CSR_IE | CSR_GO_ENC);
        assert!(c.pending().is_none());
        for _ in 0..=CRYPT_DELAY as u32 {
            c.tick();
        }
        assert_eq!(c.pending().unwrap().vector, 0o300);
        c.acknowledge();
        assert!(c.pending().is_none());
    }
}
