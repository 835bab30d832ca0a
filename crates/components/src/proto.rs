//! Wire protocol helpers: hand-rolled, explicit framing.
//!
//! Every inter-component message is a flat byte frame. Fields are written
//! and read through [`MsgWriter`]/[`MsgReader`]: fixed-width integers are
//! little-endian; byte strings are length-prefixed (u16). Nothing clever —
//! the censor's job of *checking* these frames must stay easy.

/// Builds a message frame.
#[derive(Debug, Default)]
pub struct MsgWriter {
    buf: Vec<u8>,
}

impl MsgWriter {
    /// An empty frame.
    pub fn new() -> MsgWriter {
        MsgWriter::default()
    }

    /// A writer that appends to `buf`: [`MsgWriter::finish`] hands `buf`
    /// back with the frame after its old bytes, so one buffer can carry
    /// frame after frame.
    pub fn append_to(buf: Vec<u8>) -> MsgWriter {
        MsgWriter { buf }
    }

    /// A frame starting with an opcode byte.
    pub fn with_op(op: u8) -> MsgWriter {
        let mut w = MsgWriter::new();
        w.u8(op);
        w
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Appends a length-prefixed byte string (≤ 65535 bytes).
    ///
    /// # Panics
    ///
    /// Panics when the slice exceeds 65535 bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u16::MAX as usize, "field too long");
        self.u16(v.len() as u16);
        self.buf.extend_from_slice(v);
        self
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Finishes the frame.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Parses a message frame.
#[derive(Debug)]
pub struct MsgReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// A malformed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Malformed;

impl core::fmt::Display for Malformed {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("malformed frame")
    }
}

impl std::error::Error for Malformed {}

impl<'a> MsgReader<'a> {
    /// Wraps a frame.
    pub fn new(buf: &'a [u8]) -> MsgReader<'a> {
        MsgReader { buf, pos: 0 }
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Result<u8, Malformed> {
        let v = *self.buf.get(self.pos).ok_or(Malformed)?;
        self.pos += 1;
        Ok(v)
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, Malformed> {
        let bytes = self.buf.get(self.pos..self.pos + 2).ok_or(Malformed)?;
        self.pos += 2;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, Malformed> {
        let bytes = self.buf.get(self.pos..self.pos + 4).ok_or(Malformed)?;
        self.pos += 4;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], Malformed> {
        let len = self.u16()? as usize;
        let v = self.buf.get(self.pos..self.pos + len).ok_or(Malformed)?;
        self.pos += len;
        Ok(v)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, Malformed> {
        core::str::from_utf8(self.bytes()?).map_err(|_| Malformed)
    }

    /// Requires that the frame is fully consumed.
    pub fn finish(self) -> Result<(), Malformed> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Response status codes shared by the servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// Refused by the component's security policy.
    Denied,
    /// No such object/user.
    NotFound,
    /// Malformed request.
    Bad,
    /// Resource exhausted.
    Full,
}

impl Status {
    /// Wire encoding.
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Denied => 1,
            Status::NotFound => 2,
            Status::Bad => 3,
            Status::Full => 4,
        }
    }

    /// Decodes a status byte.
    pub fn from_code(c: u8) -> Option<Status> {
        Some(match c {
            0 => Status::Ok,
            1 => Status::Denied,
            2 => Status::NotFound,
            3 => Status::Bad,
            4 => Status::Full,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = MsgWriter::with_op(7);
        w.u16(0x1234).u32(0xDEADBEEF).str("hello").bytes(&[1, 2, 3]);
        let frame = w.finish();
        let mut r = MsgReader::new(&frame);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0x1234);
        assert_eq!(r.u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncated_frames_are_malformed() {
        let mut w = MsgWriter::new();
        w.str("hello");
        let mut frame = w.finish();
        frame.pop();
        let mut r = MsgReader::new(&frame);
        assert_eq!(r.str(), Err(Malformed));
    }

    #[test]
    fn trailing_bytes_are_malformed() {
        let frame = vec![1, 2, 3];
        let mut r = MsgReader::new(&frame);
        let _ = r.u8();
        assert_eq!(r.finish(), Err(Malformed));
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = MsgWriter::new();
        w.bytes(&[0xFF, 0xFE]);
        let frame = w.finish();
        let mut r = MsgReader::new(&frame);
        assert_eq!(r.str(), Err(Malformed));
    }

    #[test]
    fn status_codes_roundtrip() {
        for s in [
            Status::Ok,
            Status::Denied,
            Status::NotFound,
            Status::Bad,
            Status::Full,
        ] {
            assert_eq!(Status::from_code(s.code()), Some(s));
        }
        assert_eq!(Status::from_code(99), None);
    }
}
