//! Minimal byte codec for the few structures that must become real bytes:
//! migrating process records, on-disk inodes, and transaction log records.
//! (No serialization crate is in the approved dependency list, so these are
//! hand-rolled.)

/// Append-only byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based byte reader; all methods return `None` on truncation.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    pub fn opt_u64(&mut self) -> Option<Option<u64>> {
        match self.u8()? {
            0 => Some(None),
            1 => Some(Some(self.u64()?)),
            _ => None,
        }
    }

    pub fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A `u32` count followed by that many elements, each read by `elem`.
    /// The count comes from bytes nobody vouches for (a frame, a journal
    /// tail, a disk block) and every element is at least one byte, so a
    /// count above the bytes remaining is `None` before anything is
    /// reserved; honest input still allocates exactly once.
    pub fn seq<T>(&mut self, mut elem: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if n > self.buf.len() - self.pos {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(elem(self)?);
        }
        Some(out)
    }

    /// Whether the input is fully consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.opt_u64(None);
        e.opt_u64(Some(42));
        e.bytes(b"hello");
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8(), Some(7));
        assert_eq!(d.u32(), Some(0xDEAD_BEEF));
        assert_eq!(d.u64(), Some(u64::MAX));
        assert_eq!(d.opt_u64(), Some(None));
        assert_eq!(d.opt_u64(), Some(Some(42)));
        assert_eq!(d.bytes(), Some(&b"hello"[..]));
        assert!(d.done());
    }

    #[test]
    fn seq_reads_counted_elements_and_refuses_a_count_the_input_cannot_hold() {
        let mut e = Enc::new();
        e.u32(3);
        for v in [10u64, 20, 30] {
            e.u64(v);
        }
        let mut bytes = e.finish();
        assert_eq!(Dec::new(&bytes).seq(Dec::u64), Some(vec![10, 20, 30]));
        assert_eq!(Dec::new(&bytes[..20]).seq(Dec::u64), None, "truncated");
        bytes[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Dec::new(&bytes).seq(Dec::u64), None, "hostile count");
        assert_eq!(Dec::new(&0u32.to_le_bytes()).seq(Dec::u64), Some(vec![]));
    }

    #[test]
    fn truncation_returns_none() {
        let mut e = Enc::new();
        e.u64(1);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes[..4]);
        assert_eq!(d.u64(), None);
    }
}
