//! Minimal binary codec for simulator snapshots.
//!
//! Checkpoints serialize component state through this little-endian,
//! length-prefixed encoder/decoder pair. The decoder is hardened against
//! untrusted bytes: every read checks the remaining length first, every
//! length prefix is capped by the bytes actually left (so corrupt input
//! can never trigger an oversized allocation), and every failure is a
//! typed [`SnapError`] — no code path panics on malformed input.

use std::fmt;

/// Decoding failure over untrusted snapshot bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A tag, flag or count held a value outside its domain.
    BadValue,
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Truncated => write!(f, "snapshot bytes truncated"),
            SnapError::BadValue => write!(f, "snapshot field out of domain"),
        }
    }
}

impl std::error::Error for SnapError {}

/// FNV-1a 64-bit hash, used for payload checksums and fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64-bit hash: `fnv1a_extend(fnv1a(a), b)` equals
/// `fnv1a` of `a` followed by `b`.
#[inline]
pub fn fnv1a_extend(hash: u64, bytes: &[u8]) -> u64 {
    let mut h = hash;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01B3);
    }
    h
}

/// Append-only little-endian snapshot writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder and returns its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes an `f32` by bit pattern (bit-exact round trip).
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Writes an optional `u64` (presence byte + value).
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.u8(1);
                self.u64(x);
            }
            None => self.u8(0),
        }
    }

    /// Writes a length prefix followed by raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.usize(v.len());
        for &x in v {
            self.u64(x);
        }
    }

    /// Writes a length-prefixed `u32` slice.
    pub fn u32s(&mut self, v: &[u32]) {
        self.usize(v.len());
        for &x in v {
            self.u32(x);
        }
    }

    /// Writes a length-prefixed `u16` slice.
    pub fn u16s(&mut self, v: &[u16]) {
        self.usize(v.len());
        for &x in v {
            self.u16(x);
        }
    }

    /// Writes a length-prefixed `f32` slice (bit patterns).
    pub fn f32s(&mut self, v: &[f32]) {
        self.usize(v.len());
        for &x in v {
            self.f32(x);
        }
    }

    /// Writes a length prefix for a heterogeneous sequence the caller
    /// encodes element by element.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Bounds-checked little-endian snapshot reader.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that do not fit.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::BadValue)
    }

    /// Reads a bool; any byte other than 0/1 is rejected.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::BadValue),
        }
    }

    /// Reads an `f32` by bit pattern.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads an optional `u64`.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        Ok(match self.bool()? {
            true => Some(self.u64()?),
            false => None,
        })
    }

    /// Reads a length-prefixed byte slice (borrowed from the input).
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.len_capped(1)?;
        self.take(n)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn u64s(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.len_capped(8)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u64()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u32` vector.
    pub fn u32s(&mut self) -> Result<Vec<u32>, SnapError> {
        let n = self.len_capped(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u32()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `u16` vector.
    pub fn u16s(&mut self) -> Result<Vec<u16>, SnapError> {
        let n = self.len_capped(2)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.u16()?);
        }
        Ok(v)
    }

    /// Reads a length-prefixed `f32` vector (bit patterns).
    pub fn f32s(&mut self) -> Result<Vec<f32>, SnapError> {
        let n = self.len_capped(4)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.f32()?);
        }
        Ok(v)
    }

    /// Reads a sequence length whose elements occupy at least
    /// `min_elem_bytes` each, rejecting prefixes the remaining input could
    /// not possibly satisfy — the allocation cap that keeps corrupt
    /// snapshots from requesting absurd reservations.
    pub fn len_capped(&mut self, min_elem_bytes: usize) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapError::Truncated);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        let mut e = Encoder::new();
        e.u8(7);
        e.u16(65535);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 1);
        e.usize(123);
        e.bool(true);
        e.bool(false);
        e.f32(-0.0);
        e.f32(f32::NAN);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        e.bytes(b"hi");
        e.u64s(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 65535);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.usize().unwrap(), 123);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert!(d.f32().unwrap().is_nan());
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.bytes().unwrap(), b"hi");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert!(d.is_empty());
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut e = Encoder::new();
        e.u64s(&[1, 2, 3, 4]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert_eq!(d.u64s().unwrap_err(), SnapError::Truncated, "cut={cut}");
        }
    }

    #[test]
    fn absurd_length_prefix_is_rejected_before_allocation() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // claims ~2^64 elements
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.u64s().is_err());
        let mut d = Decoder::new(&bytes);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn bad_bool_is_rejected() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.bool().unwrap_err(), SnapError::BadValue);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
